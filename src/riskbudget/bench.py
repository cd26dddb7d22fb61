"""Experiment harness: reference portfolio printing, SGD trace capture, the
model-free vs model-based accuracy study, and the risk-measure comparison.

All tabular artifacts are CSV with a header row; floats are written with
full round-trip precision so a parsed file reproduces the in-memory rows
exactly. Wall-time columns can be dropped for byte-identical reruns.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Budgets, InputError, l1_accuracy
from .models import (DGPSpec, EMConfig, derive_seed, em_fit_gmix,
                     em_fit_tmix, sample_model, sample_tmix, synth_dgp)
from .risk import ExpectedShortfall, measure_label
from .solver import (SolveReport, SolverConfig, config_from_dict, msbgd_solve,
                     osbgd_solve, reference_solve, sgd_solve)

MODEL_BASED_METHODS = ("sgd", "osbgd", "msbgd")
SETTINGS = ("model_free", "true_params", "tmix_em", "gmix_em")


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
    first and solve on simulated data.
    """

    dims: tuple[int, ...] = (10,)
    repetitions: int = 10
    alpha: float = 0.95
    n_hist: int = 3500
    sim_size: int = 1_000_000
    settings: tuple[str, ...] = ("model_free", "true_params")
    dgp: DGPSpec = field(default_factory=DGPSpec)
    solver_overrides: dict = field(default_factory=dict)
    master_seed: int = 0
    jobs: int = 1
    output_dir: str = "."

    def __post_init__(self):
        if not self.dims:
            raise InputError("dims must be non-empty")
        if self.repetitions < 1:
            raise InputError("repetitions must be at least 1")
        unknown = set(self.settings) - set(SETTINGS)
        if unknown:
            raise InputError(f"unknown settings {sorted(unknown)}; choose from {SETTINGS}")


def _study_configs(spec: ExperimentSpec) -> dict[str, SolverConfig]:
    """Per-method defaults mirroring the benchmark protocol; overridable."""
    defaults = {
        "model_free_sgd": SolverConfig(method="sgd", batch_size=128, epochs=100),
        "sgd": SolverConfig(method="sgd", batch_size=128, epochs=4),
        "osbgd": SolverConfig(method="osbgd", stop_tol=1e-6, max_iters=1000),
        "msbgd": SolverConfig(method="msbgd", max_iters=60, resample_size=100_000),
        "reference": SolverConfig(method="reference", stop_tol=1e-6),
    }
    for key, override in spec.solver_overrides.items():
        if key not in defaults:
            raise InputError(f"unknown solver override {key!r}")
        if isinstance(override, dict):
            defaults[key] = config_from_dict(override, base=defaults[key])
        else:
            defaults[key] = override
    return defaults


def _one_repetition(spec: ExperimentSpec, d: int, rep: int) -> list[tuple]:
    """Run every configured setting for one (dimension, repetition) cell.

    Returns tuples (d, setting, method, accuracy, wall_time, error_message).
    """
    configs = _study_configs(spec)
    rep_seed = derive_seed(spec.master_seed, d, rep)
    budgets = Budgets.equal(d)
    measure = ExpectedShortfall(spec.alpha)
    model_true = synth_dgp(d, derive_seed(rep_seed, "dgp"), spec.dgp)
    reference = reference_solve(measure, budgets, model_true,
                                replace(configs["reference"], seed=rep_seed))
    theta_ref = reference.weights
    hist = sample_tmix(model_true, spec.n_hist, derive_seed(rep_seed, "hist"))

    out: list[tuple] = []

    def record(setting, method, fn):
        try:
            report = fn()
            out.append((d, setting, method,
                        l1_accuracy(report.weights, theta_ref),
                        report.wall_time, ""))
        except Exception as exc:  # noqa: BLE001 - failures become table rows
            out.append((d, setting, method, np.nan, np.nan,
                        f"{type(exc).__name__}: {exc}"))

    for setting in spec.settings:
        if setting == "model_free":
            cfg = replace(configs["model_free_sgd"],
                          seed=derive_seed(rep_seed, "mf", "sgd"))
            record(setting, "sgd", lambda c=cfg: sgd_solve(measure, budgets, hist, c))
            cfg = replace(configs["osbgd"], seed=derive_seed(rep_seed, "mf", "osbgd"))
            record(setting, "osbgd", lambda c=cfg: osbgd_solve(measure, budgets, hist, c))
            continue
        try:
            if setting == "true_params":
                model_est = model_true
            elif setting == "tmix_em":
                model_est = em_fit_tmix(hist, 2, np.asarray(spec.dgp.dof),
                                        EMConfig(seed=derive_seed(rep_seed, "em_t")))
            else:
                model_est = em_fit_gmix(hist, 2,
                                        EMConfig(seed=derive_seed(rep_seed, "em_g")))
        except Exception as exc:  # noqa: BLE001
            for method in MODEL_BASED_METHODS:
                out.append((d, setting, method, np.nan, np.nan,
                            f"{type(exc).__name__}: {exc}"))
            continue
        sim = sample_model(model_est, spec.sim_size, derive_seed(rep_seed, setting, "sim"))
        cfg = replace(configs["sgd"], seed=derive_seed(rep_seed, setting, "sgd"))
        record(setting, "sgd", lambda c=cfg, s=sim: sgd_solve(measure, budgets, s, c))
        cfg = replace(configs["osbgd"], seed=derive_seed(rep_seed, setting, "osbgd"))
        record(setting, "osbgd", lambda c=cfg, s=sim: osbgd_solve(measure, budgets, s, c))
        cfg = replace(configs["msbgd"], seed=derive_seed(rep_seed, setting, "msbgd"))
        record(setting, "msbgd", lambda c=cfg, m=model_est: msbgd_solve(measure, budgets, m, c))
    return out


def run_accuracy_study(spec: ExperimentSpec) -> list[BenchRow]:
    """Model-free vs model-based accuracy/time study aggregated over repetitions."""
    cells = [(d, r) for d in spec.dims for r in range(spec.repetitions)]
    if spec.jobs > 1:
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            chunks = list(pool.map(lambda dr: _one_repetition(spec, *dr), cells))
    else:
        chunks = [_one_repetition(spec, d, r) for d, r in cells]

    collected: dict[tuple, list[tuple]] = {}
    for chunk in chunks:
        for d, setting, method, acc, wall, err in chunk:
            collected.setdefault((d, setting, method), []).append((acc, wall, err))

    rows = []
    for d in spec.dims:
        for setting in spec.settings:
            methods = ("sgd", "osbgd") if setting == "model_free" else MODEL_BASED_METHODS
            for method in methods:
                entries = collected.get((d, setting, method), [])
                accs = np.array([a for a, _, e in entries if not e])
                times = np.array([t for _, t, e in entries if not e])
                failures = [e for _, _, e in entries if e]
                note = ""
                if failures:
                    note = f"{len(failures)}/{len(entries)} failed: {failures[0]}"
                rows.append(BenchRow(
                    d=d, method=method, setting=setting,
                    acc_mean=float(accs.mean()) if accs.size else np.nan,
                    acc_std=float(accs.std()) if accs.size else np.nan,
                    time_mean=float(times.mean()) if times.size else np.nan,
                    time_std=float(times.std()) if times.size else np.nan,
                    errors=note))
    return rows


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


def read_bench_csv(path) -> list[BenchRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(BenchRow(
                d=int(rec["d"]), method=rec["method"], setting=rec["setting"],
                acc_mean=float(rec["acc_mean"]), acc_std=float(rec["acc_std"]),
                time_mean=float(rec.get("time_mean", "nan")),
                time_std=float(rec.get("time_std", "nan")),
                errors=rec.get("errors", "")))
    return rows


def format_bench_table(rows) -> str:
    lines = [f"{'d':>5} {'setting':>12} {'method':>8} {'accuracy':>16} {'time (s)':>16}"]
    for r in rows:
        acc = f"{r.acc_mean:.2f} ({r.acc_std:.2f})"
        tim = f"{r.time_mean:.2f} ({r.time_std:.2f})"
        flag = f"  [{r.errors}]" if r.errors else ""
        lines.append(f"{r.d:>5} {r.setting:>12} {r.method:>8} {acc:>16} {tim:>16}{flag}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reference portfolio

def run_reference(model, budgets: Budgets, alpha: float,
                  config: SolverConfig | None = None) -> SolveReport:
    cfg = config or SolverConfig(method="reference")
    return reference_solve(ExpectedShortfall(alpha), budgets, model, cfg)


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

def run_sgd_trace(model, budgets: Budgets, alpha: float,
                  config: SolverConfig | None = None,
                  sample_size: int = 1_000_000, seed: int = 0):
    """Full per-iteration (y, zeta, theta) trace of one SGD run."""
    cfg = replace(config or SolverConfig(method="sgd"),
                  record_iterates=True,
                  seed=(config.seed if config else seed))
    sample = sample_model(model, sample_size, derive_seed(seed, "trace", "sample"))
    report = sgd_solve(ExpectedShortfall(alpha), budgets, sample, cfg)
    return report


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
