"""Experiment harness: reference portfolio printing, the model-free vs
model-based accuracy study, the risk-measure comparison, and the trace CSV.

The accuracy study takes each setting's routes and row order from one table,
SETTINGS, and runs its repetitions one after another on the calling thread; a
failed solve or model estimate becomes an error note on its cells.

All tabular artifacts are CSV with a header row; floats are written with
full round-trip precision so a parsed file reproduces the in-memory rows
exactly. Wall-time columns can be dropped for byte-identical reruns.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .core import Budgets, InputError, _is_finite, _is_int, l1_accuracy
from .models import (EMConfig, derive_seed, em_fit_gmix, em_fit_tmix,
                     sample_model, sample_tmix, synth_dgp)
from .risk import ExpectedShortfall, measure_label
from .solver import (SolveReport, SolverConfig, config_from_dict, msbgd_solve,
                     osbgd_solve, reference_solve, sgd_solve)

MODEL_BASED_METHODS = ("sgd", "osbgd", "msbgd")
# each setting of the accuracy study and the routes it runs, in table order
SETTINGS = {"model_free": ("sgd", "osbgd"), "true_params": MODEL_BASED_METHODS,
            "tmix_em": MODEL_BASED_METHODS, "gmix_em": MODEL_BASED_METHODS}


@dataclass(frozen=True)
class BenchRow:
    """One aggregated cell of the accuracy study."""

    d: int
    method: str
    setting: str
    acc_mean: float
    acc_std: float
    time_mean: float
    time_std: float
    errors: str = ""

    def __post_init__(self):
        for name in ("acc_mean", "acc_std", "time_mean", "time_std"):
            v = getattr(self, name)
            if np.isfinite(v) and v < 0.0:
                raise InputError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one benchmark experiment.

    settings picks which pipelines run: "model_free" solves on the synthetic
    historical sample directly, the other three estimate (or copy) a model
    first and solve on simulated data. solver_overrides maps a key of the
    route defaults to an object of SolverConfig fields replacing theirs.
    jobs is accepted only as 1 and stored nowhere; it goes once no caller
    passes it.
    """

    dims: tuple[int, ...] = (10,)
    repetitions: int = 10
    alpha: float = 0.95
    n_hist: int = 3500
    sim_size: int = 1_000_000
    settings: tuple[str, ...] = ("model_free", "true_params")
    solver_overrides: dict = field(default_factory=dict)
    master_seed: int = 0
    jobs: InitVar[int] = 1

    def __post_init__(self, jobs):
        if not _is_int(jobs, 1) or jobs != 1:
            raise InputError("jobs must be 1: the study runs on the calling thread")
        if not (isinstance(self.dims, (tuple, list)) and self.dims
                and all(_is_int(d, 2) for d in self.dims)
                and len(set(self.dims)) == len(self.dims)):
            raise InputError("dims must be a non-empty list of distinct integers "
                             "of at least 2")
        for name in ("repetitions", "n_hist", "sim_size"):
            if not _is_int(getattr(self, name), 1):
                raise InputError(f"{name} must be an integer of at least 1")
        if not (_is_finite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise InputError("alpha must lie in (0, 1)")
        if not (isinstance(self.settings, (tuple, list)) and self.settings
                and all(isinstance(s, str) and s in SETTINGS for s in self.settings)
                and len(set(self.settings)) == len(self.settings)):
            raise InputError("settings must be a non-empty list of distinct names "
                             f"from {tuple(SETTINGS)}")
        if not _is_int(self.master_seed, 0):
            raise InputError("master_seed must be a non-negative integer")
        if not isinstance(self.solver_overrides, dict):
            raise InputError("solver_overrides must be an object")
        _study_configs(self)


def _study_configs(spec: ExperimentSpec) -> dict[str, SolverConfig]:
    """Per-route defaults mirroring the benchmark protocol, each overridable by
    an object of SolverConfig fields under its key in spec.solver_overrides."""
    defaults = {
        "model_free_sgd": SolverConfig(batch_size=128, epochs=100),
        "sgd": SolverConfig(batch_size=128, epochs=4),
        "osbgd": SolverConfig(stop_tol=1e-6, max_iters=1000),
        "msbgd": SolverConfig(max_iters=60, resample_size=100_000),
        "reference": SolverConfig(stop_tol=1e-6),
    }
    for key, override in spec.solver_overrides.items():
        if key not in defaults or not isinstance(override, dict):
            raise InputError(f"solver override {key!r} must be an object under "
                             f"one of the keys {tuple(defaults)}")
        for name in ("method", "seed"):
            if name in override:
                raise InputError(f"solver override {key!r}: the study sets {name!r} itself")
        try:
            defaults[key] = config_from_dict(override, base=defaults[key])
        except InputError as exc:
            raise InputError(f"solver override {key!r}: {exc}") from exc
    return defaults


def _one_repetition(spec: ExperimentSpec, d: int, rep: int) -> list[tuple]:
    """Run every configured setting for one (dimension, repetition).

    Returns (accuracy, wall_time, error_message) per (setting, method) cell,
    in the order of spec.settings and of each setting's SETTINGS methods.
    """
    configs = _study_configs(spec)
    rep_seed = derive_seed(spec.master_seed, d, rep)
    budgets = Budgets.equal(d)
    measure = ExpectedShortfall(spec.alpha)
    model_true = synth_dgp(d, derive_seed(rep_seed, "dgp"))
    reference = reference_solve(measure, budgets, model_true,
                                replace(configs["reference"], seed=rep_seed))
    theta_ref = reference.weights
    hist = sample_tmix(model_true, spec.n_hist, derive_seed(rep_seed, "hist"))

    cells: list[tuple] = []
    for setting in spec.settings:
        methods = SETTINGS[setting]
        if setting == "model_free":
            tag, model, sample = "mf", None, hist
        else:
            try:
                if setting == "true_params":
                    model = model_true
                elif setting == "tmix_em":
                    model = em_fit_tmix(hist, 2, model_true.dof,
                                        EMConfig(seed=derive_seed(rep_seed, "em_t")))
                else:
                    model = em_fit_gmix(hist, 2,
                                        EMConfig(seed=derive_seed(rep_seed, "em_g")))
            except Exception as exc:  # noqa: BLE001 - failures become table rows
                cells += [(np.nan, np.nan, f"{type(exc).__name__}: {exc}")] * len(methods)
                continue
            tag = setting
            sample = sample_model(model, spec.sim_size, derive_seed(rep_seed, setting, "sim"))
        # each route's input, let go once its route has run, so that msbgd's
        # draws do not stack on the simulated sample
        inputs = {"sgd": sample, "osbgd": sample, "msbgd": model}
        del sample
        for method in methods:
            key = "model_free_sgd" if (tag, method) == ("mf", "sgd") else method
            cfg = replace(configs[key], seed=derive_seed(rep_seed, tag, method))
            # looked up per call, so wrappers set on this module's names apply
            route = {"sgd": sgd_solve, "osbgd": osbgd_solve, "msbgd": msbgd_solve}[method]
            data = inputs.pop(method)
            try:
                report = route(measure, budgets, data, cfg)
                cells.append((l1_accuracy(report.weights, theta_ref), report.wall_time, ""))
            except Exception as exc:  # noqa: BLE001
                cells.append((np.nan, np.nan, f"{type(exc).__name__}: {exc}"))
    return cells


def run_accuracy_study(spec: ExperimentSpec) -> list[BenchRow]:
    """Model-free vs model-based accuracy/time study aggregated over repetitions."""
    reps = [_one_repetition(spec, d, r) for d in spec.dims for r in range(spec.repetitions)]
    table = [(s, m) for s in spec.settings for m in SETTINGS[s]]
    rows = []
    for i, d in enumerate(spec.dims):
        by_cell = zip(*reps[i * spec.repetitions:(i + 1) * spec.repetitions])
        for (setting, method), entries in zip(table, by_cell):
            acc_mean, acc_std = _mean_std([a for a, _, e in entries if not e])
            time_mean, time_std = _mean_std([t for _, t, e in entries if not e])
            failures = [e for *_, e in entries if e]
            note = f"{len(failures)}/{len(entries)} failed: {failures[0]}" if failures else ""
            rows.append(BenchRow(d, method, setting, acc_mean, acc_std,
                                 time_mean, time_std, note))
    return rows


def _mean_std(values: list) -> tuple[float, float]:
    if not values:
        return np.nan, np.nan
    return float(np.mean(values)), float(np.std(values))


BENCH_COLUMNS = ("d", "method", "setting", "acc_mean", "acc_std",
                 "time_mean", "time_std", "errors")
TIMING_COLUMNS = ("time_mean", "time_std")


def write_bench_csv(rows, path, include_timing: bool = True) -> None:
    cols = [c for c in BENCH_COLUMNS if include_timing or c not in TIMING_COLUMNS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            rec = {
                "d": str(row.d), "method": row.method, "setting": row.setting,
                "acc_mean": repr(row.acc_mean), "acc_std": repr(row.acc_std),
                "time_mean": repr(row.time_mean), "time_std": repr(row.time_std),
                "errors": row.errors,
            }
            writer.writerow([rec[c] for c in cols])


def format_bench_table(rows, include_timing: bool = True) -> str:
    head = f"{'d':>5} {'setting':>12} {'method':>8} {'accuracy':>16}"
    lines = [head + (f" {'time (s)':>16}" if include_timing else "")]
    for r in rows:
        acc = f"{r.acc_mean:.2f} ({r.acc_std:.2f})"
        tim = f"{r.time_mean:.2f} ({r.time_std:.2f})"
        flag = f"  [{r.errors}]" if r.errors else ""
        line = f"{r.d:>5} {r.setting:>12} {r.method:>8} {acc:>16}"
        lines.append(line + (f" {tim:>16}" if include_timing else "") + flag)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reference portfolio

def format_reference_table(report: SolveReport) -> str:
    lines = [f"{'asset':>6} {'weight':>10} {'contribution':>14}"]
    for i, (w, c) in enumerate(zip(report.weights.values,
                                   report.contributions.contributions), start=1):
        lines.append(f"{i:>6} {w:>10.5f} {c:>14.5f}")
    lines.append(f"  total risk {report.contributions.total_risk:.5f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# measure comparison

def run_measure_comparison(model, measures, budgets: Budgets,
                           config: SolverConfig | None = None,
                           sample_size: int = 1_000_000, seed: int = 0):
    """Solve the same budgets under each measure by SGD on one simulated sample.

    Returns (rows, warnings) where rows are (label, weights, total_risk) and
    warnings maps labels to positivity-warning messages.
    """
    if not measures:
        raise InputError("compare needs at least one measure")
    base_cfg = config or SolverConfig(method="sgd", batch_size=128, epochs=10)
    sample = sample_model(model, sample_size, derive_seed(seed, "compare", "sample"))
    rows = []
    notes: dict[str, str] = {}
    for spec in measures:
        label = measure_label(spec)
        cfg = replace(base_cfg, seed=derive_seed(seed, "compare", label))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = sgd_solve(spec, budgets, sample, cfg)
        for w in caught:
            notes[label] = str(w.message)
        rows.append((label, report.weights.values.copy(),
                     report.contributions.total_risk))
    return rows, notes


def write_comparison_csv(rows, path) -> None:
    if not rows:
        raise InputError("no comparison rows to write")
    d = len(rows[0][1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["measure", *(f"w{i + 1}" for i in range(d)), "total_risk"])
        for label, weights, risk in rows:
            writer.writerow([label, *(repr(float(w)) for w in weights), repr(float(risk))])


def format_comparison_table(rows) -> str:
    d = len(rows[0][1]) if rows else 0
    header = f"{'measure':>34} " + " ".join(f"{f'asset {i + 1}':>10}" for i in range(d))
    lines = [header]
    for label, weights, _ in rows:
        lines.append(f"{label:>34} " + " ".join(f"{w:>10.5f}" for w in weights))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SGD iterate trace

def write_trace_csv(report: SolveReport, path) -> None:
    it = report.iterate_trace
    if it is None:
        raise InputError("report carries no iterate trace; solve with record_iterates")
    d = report.weights.dim
    n_zeta = it.shape[1] - 1 - 2 * d
    zeta_cols = ["zeta"] if n_zeta == 1 else [f"zeta_{k + 1}" for k in range(n_zeta)]
    header = (["iteration"] + [f"y_{i + 1}" for i in range(d)] + zeta_cols
              + [f"theta_{i + 1}" for i in range(d)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in it:
            writer.writerow([str(int(row[0]))] + [repr(float(v)) for v in row[1:]])
