"""Spans and counters around the calls into each riskbudget layer.

The package modules bind names at import (``from .risk import es_tmix`` in
``solver.py``), so a wrapper must replace the name in the module that makes
the call: patching ``riskbudget.risk.es_tmix`` alone would catch nothing.
``Tracer.install`` swaps every name in ``SITES`` for a wrapper and
``Tracer.restore`` puts the original objects back, so code run outside a
traced pass is the unmodified program.

A span records name, start, end, parent and pass id. The per-batch step
functions and the full-sample evaluators are called hundreds of thousands of
times per pass, so those are aggregated into a count and a total time per
(parent path, function) instead of one span each. A span's self time is its
duration minus the part its children (spans and aggregated calls) cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

# (module, attribute, layer name, kind). "span" records one span per call;
# "agg" aggregates count and time per (parent path, layer name, family).
SITES = (
    # solver entry points, where the benchmark, bench and cli call them
    ("riskbudget", "sgd_solve", "solver.sgd", "span"),
    ("riskbudget", "reference_solve", "solver.reference", "span"),
    ("riskbudget.bench", "sgd_solve", "solver.sgd", "span"),
    ("riskbudget.bench", "osbgd_solve", "solver.osbgd", "span"),
    ("riskbudget.bench", "msbgd_solve", "solver.msbgd", "span"),
    ("riskbudget.bench", "reference_solve", "solver.reference", "span"),
    ("riskbudget.solver", "sgd_solve", "solver.sgd", "span"),
    ("riskbudget.solver", "osbgd_solve", "solver.osbgd", "span"),
    ("riskbudget.solver", "msbgd_solve", "solver.msbgd", "span"),
    ("riskbudget.solver", "reference_solve", "solver.reference", "span"),
    # accuracy study entry point
    ("riskbudget.bench", "run_accuracy_study", "bench.study", "span"),
    # samplers
    ("riskbudget.bench", "sample_model", "models.sample", "span"),
    ("riskbudget.bench", "sample_tmix", "models.sample", "span"),
    ("riskbudget.solver", "sample_model", "models.sample", "span"),
    ("riskbudget.cli", "sample_model", "models.sample", "span"),
    # EM and CSV I/O
    ("riskbudget.bench", "em_fit_tmix", "models.em", "em"),
    ("riskbudget.bench", "em_fit_gmix", "models.em", "em"),
    ("riskbudget.cli", "em_fit_tmix", "models.em", "em"),
    ("riskbudget.cli", "em_fit_gmix", "models.em", "em"),
    ("riskbudget.cli", "save_sample", "models.csv_write", "csv_write"),
    ("riskbudget.cli", "load_sample", "models.csv_read", "csv_read"),
    # Euler audit
    ("riskbudget.solver", "euler_audit", "core.euler_audit", "span"),
    # exact evaluators; es_tmix calls var_tmix inside the risk module
    ("riskbudget.solver", "es_tmix", "risk.es_tmix", "agg"),
    ("riskbudget.solver", "var_tmix", "risk.var_tmix", "agg"),
    ("riskbudget.risk", "var_tmix", "risk.var_tmix", "agg"),
    # full-sample evaluators
    ("riskbudget.solver", "empirical_risk", "risk.full_eval", "agg"),
    ("riskbudget.solver", "empirical_objective_risk", "risk.full_eval", "agg"),
    # one stochastic step: objective and subgradient per mini-batch
    ("riskbudget.solver", "ru_objective", "risk.step", "agg"),
    ("riskbudget.solver", "ru_subgradient", "risk.step", "agg"),
    ("riskbudget.solver", "spectral_objective", "risk.step", "agg"),
    ("riskbudget.solver", "spectral_subgradient", "risk.step", "agg"),
    ("riskbudget.solver", "deviation_objective", "risk.step", "agg"),
    ("riskbudget.solver", "deviation_subgradient", "risk.step", "agg"),
)


def measure_family(spec) -> str:
    """Step family of a measure spec, named as in the per-layer metrics."""
    return {"Volatility": "volatility", "ExpectedShortfall": "es",
            "ESMeanMixture": "es_mean", "Spectral": "spectral",
            "Deviation": "deviation",
            "DeviationPlusMean": "deviation"}.get(type(spec).__name__, "other")


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    pass_id: int
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    child_s: float = 0.0
    path: str = ""
    family: str = "other"

    def __post_init__(self):
        # computed once here: aggregated calls read both on every call
        parent = self.parent
        self.path = f"{parent.path}/{self.name}" if parent else self.name
        self.family = self.attrs.get("family", parent.family if parent else "other")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans, aggregated hot calls and counters for traced passes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.agg: dict[tuple, list] = {}   # (pass, path, name, family) -> [calls, s, rows]
        self.stack: list[Span] = []
        self.pass_id = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, **attrs) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.pass_id, attrs)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name: str, kind: str):
        tracer = self

        if kind == "agg":
            @functools.wraps(fn)
            def agg(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    parent = tracer.stack[-1] if tracer.stack else None
                    key = (tracer.pass_id, parent.path if parent else "",
                           name, parent.family if parent else "other")
                    rec = tracer.agg.get(key)
                    if rec is None:
                        rec = tracer.agg[key] = [0, 0.0, 0]
                    rec[0] += 1
                    rec[1] += dt
                    if name == "risk.full_eval":
                        rec[2] += len(args[1])
                    if parent is not None:
                        parent.child_s += dt
            return agg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if name.startswith("solver."):
                attrs["family"] = measure_family(args[0])
            elif name == "models.sample":
                attrs["rows"] = int(args[1])
            elif name == "bench.study":
                attrs["cells"] = len(args[0].dims) * args[0].repetitions
            elif kind == "csv_read":
                attrs["bytes"] = os.path.getsize(args[0])
            elif kind == "em":
                kwargs = {**kwargs, "return_trace": True}
            span = tracer.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name.startswith("solver."):
                span.attrs["iterations"] = int(result.iterations)
                span.attrs["loop_s"] = float(result.wall_time)
            elif kind == "em":
                model, trace = result
                span.attrs["iterations"] = len(trace)
                return model
            elif kind == "csv_write":
                span.attrs["bytes"] = os.path.getsize(args[1])
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, kind in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, kind))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and aggregate as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "span": s.name, "path": s.path, "pass": s.pass_id,
                    "start": s.start, "end": s.end,
                    "parent": s.parent.path if s.parent else None,
                    "self_s": s.duration - s.child_s, "attrs": s.attrs}) + "\n")
            for (pass_id, path_, name, family), (calls, secs, rows) in sorted(self.agg.items()):
                fh.write(json.dumps({
                    "agg": name, "parent": path_, "pass": pass_id, "family": family,
                    "calls": calls, "s": secs, "rows": rows}) + "\n")


def original_objects() -> dict:
    """Current objects behind every traced name, to check restoration."""
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in SITES}


STEP_FAMILIES = ("es", "es_mean", "spectral", "deviation", "volatility")
STUDY_STAGES = {"reference": "solver.reference", "sample": "models.sample",
                "sgd": "solver.sgd", "osbgd": "solver.osbgd", "msbgd": "solver.msbgd"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_ids) -> dict:
    """Per-layer metrics of the traced passes, as totals per pass."""
    ids = set(pass_ids)
    per = 1.0 / max(len(ids), 1)
    spans = [s for s in tracer.spans if s.pass_id in ids]
    aggs = [(path, name, fam, calls, secs, rows)
            for (pid, path, name, fam), (calls, secs, rows) in tracer.agg.items()
            if pid in ids]

    def named(name, parent=None):
        return [s for s in spans if s.name == name
                and (parent is None or (s.parent is not None and s.parent.name == parent))]

    def total(sel):
        return sum(s.duration for s in sel) * per

    def attr(sel, key):
        return sum(s.attrs.get(key, 0) for s in sel) * per

    def agg_sum(name, index, where=lambda path, fam: True):
        return sum(a[index] for a in aggs if a[1] == name and where(a[0], a[2])) * per

    m = {}
    step_s = 0.0
    for fam in STEP_FAMILIES:
        calls = agg_sum("risk.step", 3, lambda p, f: f == fam)
        secs = agg_sum("risk.step", 4, lambda p, f: f == fam)
        step_s += secs
        m[f"risk.step.{fam}.calls"] = calls
        m[f"risk.step.{fam}.us"] = 1e6 * _ratio(secs, calls)
    m["risk.step.s"] = step_s

    sgd = named("solver.sgd")
    loop_s, iters = attr(sgd, "loop_s"), attr(sgd, "iterations")
    m["solver.sgd.solves"] = len(sgd) * per
    m["solver.sgd.iters"] = iters
    m["solver.sgd.loop_s"] = loop_s
    m["solver.sgd.us_per_iter"] = 1e6 * _ratio(loop_s, iters)
    m["solver.sgd.outside_loop_s"] = total(sgd) - loop_s

    sample = named("models.sample")
    m["models.sample.calls"] = len(sample) * per
    m["models.sample.rows"] = attr(sample, "rows")
    m["models.sample.s"] = total(sample)
    m["models.sample.rows_per_s"] = _ratio(m["models.sample.rows"], m["models.sample.s"])

    msbgd_s = total(named("solver.msbgd"))
    m["solver.msbgd.s"] = msbgd_s
    m["solver.msbgd.resample_share"] = _ratio(total(named("models.sample", "solver.msbgd")),
                                              msbgd_s)

    calls = agg_sum("risk.full_eval", 3)
    secs = agg_sum("risk.full_eval", 4)
    rows = agg_sum("risk.full_eval", 5)
    m["risk.full_eval.calls"] = calls
    m["risk.full_eval.rows"] = rows
    m["risk.full_eval.s"] = secs
    m["risk.full_eval.ns_per_row"] = 1e9 * _ratio(secs, rows)
    m["risk.full_eval.bytes_computed"] = 8.0 * rows

    osbgd = named("solver.osbgd")
    os_iters = attr(osbgd, "iterations")
    m["solver.osbgd.iters"] = os_iters
    m["solver.osbgd.s"] = total(osbgd)
    m["solver.osbgd.evals_per_iter"] = _ratio(
        agg_sum("risk.full_eval", 3, lambda p, f: p.endswith("solver.osbgd")), os_iters)

    audit = named("core.euler_audit")
    m["core.euler_audit.calls"] = len(audit) * per
    m["core.euler_audit.s"] = total(audit)

    es_calls = agg_sum("risk.es_tmix", 3)
    es_s = agg_sum("risk.es_tmix", 4)
    m["risk.es_tmix.calls"] = es_calls
    m["risk.es_tmix.s"] = es_s
    m["risk.es_tmix.us_per_call"] = 1e6 * _ratio(es_s, es_calls)
    m["risk.var_tmix.calls"] = agg_sum("risk.var_tmix", 3)

    ref = named("solver.reference")
    nit = attr(ref, "iterations")
    m["solver.reference.solves"] = len(ref) * per
    m["solver.reference.nit"] = nit
    m["solver.reference.s"] = total(ref)
    m["solver.reference.es_calls_per_nit"] = _ratio(
        agg_sum("risk.es_tmix", 3, lambda p, f: "solver.reference" in p), nit)

    em = named("models.em")
    em_iters, em_s = attr(em, "iterations"), total(em)
    m["models.em.iters"] = em_iters
    m["models.em.s"] = em_s
    m["models.em.ms_per_iter"] = 1e3 * _ratio(em_s, em_iters)

    for kind in ("csv_write", "csv_read"):
        sel = named(f"models.{kind}")
        secs, nbytes = total(sel), attr(sel, "bytes")
        m[f"models.{kind}.s"] = secs
        m[f"models.{kind}.bytes"] = nbytes
        m[f"models.{kind}.mb_per_s"] = _ratio(nbytes / 1e6, secs)

    for cmd in ("sample", "fit", "reference", "solve"):
        m[f"cli.{cmd}.s"] = total(named(f"cli.{cmd}"))

    study = named("bench.study")
    m["bench.study.rep_s"] = _ratio(total(study), attr(study, "cells"))
    for stage, name in STUDY_STAGES.items():
        m[f"bench.study.stage_s.{stage}"] = total(named(name, "bench.study"))
    return m
