"""Risk budgeting solvers.

Four routes to the same portfolio: a stochastic subgradient method on the
joint (allocation, threshold) objective, two Barzilai-Borwein descents (fixed
sample vs freshly simulated samples), and a deterministic reference
minimization of the exact objective for measures with closed-form evaluators.

Every gradient is exact. The descents and the Euler audits of the sample
routes take the loss-vector gradient of the full-sample objective at its
exact inner thresholds (envelope theorem) and map it to the allocation with
one matrix-vector product; the reference solve uses the closed-form gradient
of its evaluator.

All sample-based solvers standardize returns so the initial portfolio's risk
is of order one and map the solved allocation back; the normalized weights
are invariant to this. No route copies the sample to standardize it: the
descents divide the allocation and the gradient by the scale, and SGD divides
only the rows it gathers (by take, three times faster than fancy indexing).
The common start probes positivity on d + 1 portfolios, two per GEMM pass.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .core import (Budgets, DivergenceError, InputError, NumericError,
                   RawAllocation, RiskContributionReport, Weights, _is_finite,
                   _is_int, euler_audit, l1_accuracy, normalize)
from .models import (ReturnSample, StudentTMixture, _Mixture, derive_seed,
                     sample_model)
from .risk import (ESMeanMixture, ExpectedShortfall, RiskMeasureSpec, Spectral,
                   SpecError, Volatility, ZetaState, _es_tmix_value_grad,
                   deviation_objective, deviation_subgradient,
                   empirical_objective_risk, empirical_risk, es_tmix,
                   measure_label, ru_objective, ru_subgradient,
                   spectral_objective, spectral_subgradient, var_tmix,
                   volatility_value_and_gradient, warn_if_nonpositive_risk)

DIVERGENCE_THRESHOLD = 1e12
_STEP_EXPONENT = 0.6      # SGD step gamma_k = base / (1 + k)^0.6
_GATHER_ROWS = 8192       # most SGD rows gathered from the sample at once, in whole batches
# msbgd resamples drawn ahead, one thread each; the solve's ring of resample
# buffers has two slots more, for the sample in use and the one before it
_PREFETCH_DRAWS = 2
_METHODS = ("sgd", "osbgd", "msbgd", "reference")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of every solver route; the README says which route reads each.

    step_base > 0 fixes the SGD base step and the BB first and fallback steps;
    otherwise SGD calibrates its base from the initial objective scale.
    """

    method: str = "sgd"
    batch_size: int = 128
    epochs: int = 10
    step_base: float = 0.0
    averaging_fraction: float = 0.2
    last_k: int = 5
    stop_tol: float = 1e-6
    max_iters: int | None = None
    resample_size: int = 100_000
    seed: int = 0
    grad_clip: float = 10.0
    record_iterates: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InputError(f"method must be one of {', '.join(_METHODS)}")
        if not isinstance(self.record_iterates, (bool, np.bool_)):
            raise InputError("record_iterates must be a boolean")
        for name in ("epochs", "batch_size", "last_k", "resample_size"):
            if not _is_int(getattr(self, name), 1):
                raise InputError(f"{name} must be an integer of at least 1")
        if self.max_iters is not None and not _is_int(self.max_iters, 1):
            raise InputError("max_iters must be null or an integer of at least 1")
        if not _is_int(self.seed, 0):
            raise InputError("seed must be a non-negative integer")
        if not _is_finite(self.step_base):
            raise InputError("step_base must be finite")
        for name in ("grad_clip", "stop_tol"):
            if not (_is_finite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise InputError(f"{name} must be finite and non-negative")
        if not (_is_finite(self.averaging_fraction) and 0.0 < self.averaging_fraction <= 1.0):
            raise InputError("averaging_fraction must lie in (0, 1]")


def config_from_dict(doc: dict, base: SolverConfig | None = None) -> SolverConfig:
    """SolverConfig from a JSON-style dict, optionally on top of a base config."""
    try:
        return replace(base or SolverConfig(), **(doc or {}))
    except TypeError as exc:
        raise InputError(f"bad solver config: {exc}") from exc


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced: portfolio, audit, trace, provenance."""

    weights: Weights
    raw: RawAllocation
    zeta: ZetaState
    contributions: RiskContributionReport
    objective_trace: np.ndarray        # (iterations+1, 2) columns (iter, value)
    wall_time: float
    iterations: int
    seed: int
    method: str
    iterate_trace: np.ndarray | None = None   # optional (iters+1, 1+d+K+d)

    def __post_init__(self):
        trace = np.asarray(self.objective_trace, dtype=float)
        if trace.size and not np.all(np.isfinite(trace)):
            raise NumericError("objective trace contains non-finite values")
        object.__setattr__(self, "objective_trace", trace)
        gap = np.abs(self.weights.values - normalize(self.raw).values).max()
        if gap > 1e-12:
            raise NumericError(f"weights disagree with normalize(raw) by {gap:g}")

    def to_dict(self, include_timing: bool = True, trace_limit: int | None = None) -> dict:
        trace = self.objective_trace
        if trace_limit is not None and len(trace) > trace_limit:
            idx = np.linspace(0, len(trace) - 1, trace_limit).astype(int)
            trace = trace[idx]
        doc = {
            "method": self.method,
            "seed": int(self.seed),
            "iterations": int(self.iterations),
            "weights": self.weights.values.tolist(),
            "raw": self.raw.values.tolist(),
            "zeta": self.zeta.values.tolist(),
            "total_risk": self.contributions.total_risk,
            "risk_contributions": self.contributions.contributions.tolist(),
            "budget_errors": self.contributions.budget_errors.tolist(),
            "objective_trace": [[int(i), float(v)] for i, v in trace],
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc


# ---------------------------------------------------------------------------
# the mini-batch step pair of each threshold form

def _step_pair(spec: RiskMeasureSpec, budgets: Budgets):
    """Batch objective and subgradient of spec as functions of (y, zeta, batch).

    The step functions are looked up in this module when a solve starts, so
    a wrapper installed on the module name sees every call.
    """
    if isinstance(spec, (ExpectedShortfall, ESMeanMixture)):
        objective, subgradient = ru_objective, ru_subgradient
    elif isinstance(spec, Spectral):
        objective, subgradient = spectral_objective, spectral_subgradient
    else:
        objective, subgradient = deviation_objective, deviation_subgradient
    return partial(objective, spec, budgets), partial(subgradient, spec, budgets)


def _sample_risk(spec: RiskMeasureSpec, x: np.ndarray, scale: float):
    """Full-sample objective risk of a standardized allocation and its exact
    gradient, on the returns x standardized by scale.

    The loss vector is -(x @ (y / scale)), so the y-gradient is
    -(w @ x) / scale for the loss weights w: one pass, and no n x d
    temporary.
    """

    def risk_part(y):
        value, w = empirical_objective_risk(spec, -(x @ (y / scale)))
        return value, -(w @ x) / scale

    return risk_part


def _empirical_report(spec, budgets, theta: Weights,
                      data: np.ndarray) -> RiskContributionReport:
    """Euler audit of solved weights against the sample evaluator.

    One evaluation of the objective risk at theta gives both numbers: the
    empirical risk R is that value to the power 1 / spec.power for every
    accepted measure (as spec.risk derives it), and its exact gradient is the
    objective's scaled by value ** (1 / power - 1) / power.
    """
    value, grad = _sample_risk(spec, data, 1.0)(theta.values)
    p = spec.power
    return euler_audit(theta, value ** (1.0 / p), grad * (value ** (1.0 / p - 1.0) / p), budgets)


def _check_problem(budgets: Budgets, d: int) -> None:
    if d < 2:
        raise InputError("risk budgeting needs at least two assets")
    if budgets.dim != d:
        raise InputError(f"budget dimension {budgets.dim} does not match assets {d}")


def _initial_allocation(budgets: Budgets, y0) -> np.ndarray:
    if y0 is None:
        return budgets.values.copy()
    y0 = RawAllocation(np.asarray(y0, dtype=float)).values.copy()
    if y0.size != budgets.dim:
        raise InputError("starting allocation dimension mismatch")
    return y0


def _start(spec: RiskMeasureSpec, budgets: Budgets, x: np.ndarray, y0):
    """Common start of the sample routes on the returns x: problem checks,
    positivity probe, standardization constant and starting allocation."""
    d = x.shape[1]
    _check_problem(budgets, d)
    # each group of probe portfolios (rows) takes one GEMM pass over x
    warn_if_nonpositive_risk(spec, lambda p: [empirical_risk(spec, r) for r in -p @ x.T], d)
    scale = abs(empirical_risk(spec, -(x @ normalize(budgets.values).values)))
    if not np.isfinite(scale) or scale < 1e-300:
        scale = 1.0
    return scale, _initial_allocation(budgets, y0)


def _finish(method, spec, budgets, config, scale, x, y, zeta, trace, wall, iterations,
            iterates=None) -> SolveReport:
    """Common end of the sample routes: unscale the standardized allocation y,
    normalize it and audit the weights on the returns x. A zeta of None is
    derived from the losses of the unscaled allocation on x."""
    raw = RawAllocation(y / scale)
    if zeta is None:
        zeta = spec.init_zeta(-(x @ raw.values))
    weights = normalize(raw)
    report = _empirical_report(spec, budgets, weights, x)
    return SolveReport(weights, raw, ZetaState(zeta), report, trace, wall,
                       iterations, config.seed, method, iterate_trace=iterates)


# ---------------------------------------------------------------------------
# stochastic gradient descent

def sgd_solve(spec: RiskMeasureSpec, budgets: Budgets, sample: ReturnSample,
              config: SolverConfig, y0=None) -> SolveReport:
    """Minimize the stochastic risk-budgeting objective by mini-batch descent.

    Iterates (y, zeta) move along subgradients over shuffled mini-batches;
    the returned allocation is the Polyak-Ruppert average of the trailing
    fraction of iterates. Deterministic for a fixed seed.
    """
    x = sample.data
    n, d = x.shape
    if n < config.batch_size:
        raise InputError(f"sample of {n} rows is smaller than one batch ({config.batch_size})")
    scale, y = _start(spec, budgets, x, y0)
    objective, subgradient = _step_pair(spec, budgets)

    floor = 1e-8 * y.mean()
    rng = np.random.default_rng(config.seed)
    batches_per_epoch = int(np.ceil(n / config.batch_size))
    total = config.epochs * batches_per_epoch
    # the window always holds the last iterate, however small the fraction
    avg_start = min(int(np.floor(total * (1.0 - config.averaging_fraction))), total - 1)

    order = rng.permutation(n)
    first = x.take(order[:config.batch_size], axis=0) / scale
    zeta = spec.init_zeta(-(first @ y))
    obj0 = objective(y, zeta, first)
    if not np.isfinite(obj0):
        raise NumericError("non-finite objective at the starting point")
    if config.step_base > 0.0:
        base = config.step_base
    else:
        base = 1.0 / (d * max(abs(obj0), 1e-12))
    g_y0, g_z0 = subgradient(y, zeta, first)
    # grad_clip = 0 turns clipping off: the cap is then infinite
    cap = config.grad_clip * (1.0 + float(np.sqrt(g_y0 @ g_y0 + g_z0 @ g_z0))) or math.inf

    trace = np.empty((total + 1, 2))
    iterates = None
    n_zeta = zeta.size
    if config.record_iterates:
        iterates = np.empty((total + 1, 1 + d + n_zeta + d))
        iterates[0] = [0.0, *y, *zeta, *(y / y.sum())]

    # y @ 0 is NaN exactly when y holds an inf or a NaN, and never overflows
    zero_y, zero_zeta = np.zeros(d), np.zeros(n_zeta)
    y_sum = np.zeros(d)
    zeta_sum = np.zeros(n_zeta)
    n_avg = 0
    k = 0
    t0 = time.perf_counter()
    bs = config.batch_size
    chunk_rows = max(_GATHER_ROWS // bs, 1) * bs
    for epoch in range(config.epochs):
        if epoch > 0:
            order = rng.permutation(n)
        for chunk_start in range(0, n, chunk_rows):
            # one gather per chunk of batches (take, not fancy indexing, which
            # is about three times slower per row), standardized in place (the
            # division x / scale elementwise); each batch is a contiguous view
            chunk = x.take(order[chunk_start:chunk_start + chunk_rows], axis=0)
            chunk /= scale
            for start in range(0, len(chunk), bs):
                batch = chunk[start:start + bs]
                value = objective(y, zeta, batch)
                if not abs(value) <= DIVERGENCE_THRESHOLD:
                    raise DivergenceError(
                        f"objective {value!r} diverged at iteration {k}", iteration=k)
                trace[k] = (k, value)
                g_y, g_z = subgradient(y, zeta, batch)
                norm = math.sqrt(g_y @ g_y + g_z @ g_z)
                if norm > cap:
                    g_y = g_y * (cap / norm)
                    g_z = g_z * (cap / norm)
                gamma = base / (1.0 + k) ** _STEP_EXPONENT
                y = np.maximum(y - gamma * g_y, floor)
                zeta = zeta - gamma * g_z
                k += 1
                if math.isnan(y @ zero_y + zeta @ zero_zeta):
                    raise DivergenceError(f"non-finite iterate at iteration {k - 1}",
                                          iteration=k - 1)
                if k > avg_start:
                    y_sum += y
                    zeta_sum += zeta
                    n_avg += 1
                if iterates is not None:
                    iterates[k] = [float(k), *y, *zeta, *(y / y.sum())]
    final_value = objective(y, zeta, batch)
    if not np.isfinite(final_value):
        raise DivergenceError(f"non-finite objective at iteration {k}", iteration=k)
    trace[k] = (k, final_value)
    wall = time.perf_counter() - t0
    return _finish("sgd", spec, budgets, config, scale, x, y_sum / n_avg,
                   zeta_sum / n_avg, trace, wall, total, iterates)


# ---------------------------------------------------------------------------
# Barzilai-Borwein descents

def _bb_descent(risk, budgets: Budgets, y: np.ndarray, config: SolverConfig,
                max_iters: int, stop_on_objective: bool):
    """Shared BB loop from y; risk(y) gives the risk term and its gradient and
    is called once per iterate, in order. Returns the last iterate (the best
    one seen if max_iters ends the run before the stop rule), the objective
    trace, the iteration count and the iterates after the start."""

    def grad(yy):
        f_risk, g_risk = risk(yy)
        return g_risk - budgets.values / yy, f_risk

    g, f_risk = grad(y)
    f = f_risk - float(budgets.values @ np.log(y))
    if not np.isfinite(f):
        raise NumericError("non-finite objective at the starting point")
    base_fb = config.step_base if config.step_base > 0.0 else None
    gamma = base_fb or 1e-3 * (1.0 + float(np.linalg.norm(y))) / (1.0 + float(np.linalg.norm(g)))

    trace = [(0, f)]
    iterates: list[np.ndarray] = []
    f_prev = f
    best_f, best_y = f, y
    for k in range(1, max_iters + 1):
        y_new = y - gamma * g
        halvings = 0
        while y_new.min() <= 0.0:
            gamma *= 0.5
            y_new = y - gamma * g
            halvings += 1
            if halvings > 200:
                raise NumericError("could not keep the allocation positive")
        g_new, f_risk = grad(y_new)
        f_new = f_risk - float(budgets.values @ np.log(y_new))
        if not np.isfinite(f_new) or abs(f_new) > DIVERGENCE_THRESHOLD:
            raise DivergenceError(f"objective {f_new!r} diverged at iteration {k}",
                                  iteration=k)
        dy = y_new - y
        dg = g_new - g
        denom = float(dy @ dg)
        if denom > 0.0 and np.isfinite(denom):
            gamma = float(dy @ dy) / denom
        else:
            gamma = (base_fb or 1e-3) / k
        y, g = y_new, g_new
        if f_new < best_f:
            best_f, best_y = f_new, y
        trace.append((k, f_new))
        iterates.append(y)
        # a rise is not convergence: stop only on a small decrease
        if stop_on_objective and 0.0 <= f_prev - f_new < config.stop_tol:
            break
        f_prev = f_new
    else:
        y = best_y
    return y, np.array(trace, dtype=float), len(iterates), iterates


def osbgd_solve(spec: RiskMeasureSpec, budgets: Budgets, sample: ReturnSample,
                config: SolverConfig, y0=None) -> SolveReport:
    """One-sample benchmark descent: BB steps on the fixed-sample objective.

    The gradient of the risk term is exact: the loss-vector gradient at the
    exact inner thresholds, one full-sample pass per iteration. The run stops
    once the objective decreases by less than stop_tol between consecutive
    iterations; one that reaches max_iters first returns its best iterate.
    """
    x = sample.data
    scale, y = _start(spec, budgets, x, y0)
    t0 = time.perf_counter()
    y, trace, iters, _ = _bb_descent(_sample_risk(spec, x, scale), budgets, y, config,
                                     config.max_iters or 1000, stop_on_objective=True)
    wall = time.perf_counter() - t0
    return _finish("osbgd", spec, budgets, config, scale, x, y, None, trace, wall, iters)


def msbgd_solve(spec: RiskMeasureSpec, budgets: Budgets, model,
                config: SolverConfig, y0=None) -> SolveReport:
    """Multi-sample benchmark descent: the gradient at each BB iteration is
    recomputed on a fresh seeded sample of resample_size; runs for a fixed
    number of iterations and averages the trailing last_k iterates.

    Each sample's seed depends only on config.seed and the iteration, not on
    the iterate, so resamples 1..max_iters and the audit sample are drawn
    ahead on up to two threads while the descent works: at most two draws
    run or wait ahead of the sample in use. The report has the same bytes as
    drawing each sample when it is needed. Pending draws are cancelled and
    the threads joined before the solve returns or raises.

    The samples live in a ring of _PREFETCH_DRAWS + 2 buffers, allocated on
    the calling thread before the pool starts. Draw i (0 the start, max_iters
    + 1 the audit) writes into slot i modulo the ring's length; it starts when
    the descent takes sample i - _PREFETCH_DRAWS, after the sample whose slot
    it reuses is finished. The budgets and y0 are checked before any of this.
    """
    _check_problem(budgets, model.dim)
    y0 = _initial_allocation(budgets, y0)
    iters_fixed = config.max_iters or 60
    last = iters_fixed + 1
    ring = [np.empty((config.resample_size, model.dim))
            for _ in range(_PREFETCH_DRAWS + 2)]

    def draw(i):
        # a fresh view of the slot: the sample marks its array read-only
        key = "audit" if i == last else i
        return sample_model(model, config.resample_size,
                            derive_seed(config.seed, "msbgd", key),
                            out=ring[i % len(ring)][...]).data

    def take(i):
        # hand out draw i, keeping _PREFETCH_DRAWS draws started ahead of it
        if i + _PREFETCH_DRAWS <= last:
            ahead[i + _PREFETCH_DRAWS] = pool.submit(draw, i + _PREFETCH_DRAWS)
        return ahead.pop(i).result()

    pool = ThreadPoolExecutor(max_workers=_PREFETCH_DRAWS)
    try:
        ahead = {i: pool.submit(draw, i) for i in range(1, min(_PREFETCH_DRAWS, last) + 1)}
        x0 = draw(0)
        scale, y = _start(spec, budgets, x0, y0)
        # the descent evaluates its start on x0, then iteration k on sample k
        samples = chain([x0], map(take, range(1, last)))
        t0 = time.perf_counter()
        _, trace, iters, ys = _bb_descent(
            lambda yy: _sample_risk(spec, next(samples), scale)(yy), budgets, y,
            config, iters_fixed, stop_on_objective=False)
        wall = time.perf_counter() - t0
        audit_data = take(last)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    y_avg = np.mean(ys[-config.last_k:], axis=0)
    return _finish("msbgd", spec, budgets, config, scale, audit_data, y_avg, None,
                   trace, wall, iters)


# ---------------------------------------------------------------------------
# deterministic reference solve on exact evaluators

def reference_solve(spec: RiskMeasureSpec, budgets: Budgets, model,
                    config: SolverConfig = SolverConfig(method="reference"),
                    y0=None) -> SolveReport:
    """Ground-truth portfolio from the exact risk evaluator.

    Expected shortfall uses the semi-analytic Student-t mixture formula and
    its closed-form gradient from the same quantile root solve; volatility
    uses the model covariance with its analytic gradient. L-BFGS-B runs until
    the projected gradient infinity norm falls below stop_tol; the objective
    trace holds its value at the start and after each iteration. The Euler
    audit takes the risk and its exact gradient from one evaluation at the
    solved weights.
    """
    d = model.dim
    _check_problem(budgets, d)
    b = budgets.values

    if isinstance(spec, ExpectedShortfall):
        if not isinstance(model, StudentTMixture):
            raise SpecError("exact expected shortfall needs a Student-t mixture model")

        def value_grad(y):
            return _es_tmix_value_grad(model, y, spec.alpha)

        def final_zeta(theta):
            return var_tmix(model, theta, spec.alpha)

        warn_if_nonpositive_risk(spec, lambda p: [es_tmix(model, y, spec.alpha) for y in p], d)
    elif isinstance(spec, Volatility):
        value_grad = partial(volatility_value_and_gradient, model.covariance())

        def final_zeta(theta):
            return float(-(model.mean() @ theta))
    else:
        raise SpecError(
            f"{measure_label(spec)} has no exact evaluator; use a sample-based solver")
    power = spec.power

    def objective(y):
        r, g = value_grad(y)
        return (r ** power - float(b @ np.log(y)),
                power * r ** (power - 1.0) * g - b / y)

    y_start = _initial_allocation(budgets, y0)
    trace: list[tuple[int, float]] = [(0, objective(y_start)[0])]

    def callback(intermediate_result):
        trace.append((len(trace), float(intermediate_result.fun)))

    from scipy.optimize import minimize  # deferred: most commands never load scipy.optimize
    max_iters = config.max_iters or 1000
    t0 = time.perf_counter()
    res = minimize(objective, y_start, jac=True, method="L-BFGS-B",
                   bounds=[(1e-12, None)] * d, callback=callback,
                   options={"gtol": config.stop_tol, "ftol": 1e-18,
                            "maxiter": max_iters, "maxcor": 20})
    wall = time.perf_counter() - t0
    if not res.success and np.abs(res.jac).max() > config.stop_tol:
        err = NumericError(f"reference solve did not converge: {res.message}")
        err.trace = np.array(trace, dtype=float)
        raise err

    raw = RawAllocation(res.x)
    weights = normalize(raw)
    theta = weights.values
    audit = euler_audit(theta, *value_grad(theta), budgets)
    return SolveReport(weights, raw, ZetaState(final_zeta(theta)), audit,
                       np.array(trace, dtype=float), wall, int(res.nit),
                       config.seed, "reference")


# ---------------------------------------------------------------------------
# multistart uniqueness probe

def multistart_uniqueness_check(spec: RiskMeasureSpec, budgets: Budgets, data,
                                config: SolverConfig, starts: int) -> float:
    """Re-solve from `starts` random interior points; return the maximum
    pairwise 100*L1 distance between the resulting weight vectors."""
    if not _is_int(starts, 2):
        raise InputError("starts must be an integer of at least 2")
    rng = np.random.default_rng(config.seed)
    results = []
    for i in range(starts):
        y0 = np.exp(0.5 * rng.standard_normal(budgets.dim))
        y0 /= y0.sum()
        cfg = replace(config, seed=derive_seed(config.seed, "start", i))
        results.append(solve(spec, budgets, data, cfg, y0=y0).weights)
    worst = 0.0
    for i in range(starts):
        for j in range(i + 1, starts):
            worst = max(worst, l1_accuracy(results[i], results[j]))
    return worst


def solve(spec: RiskMeasureSpec, budgets: Budgets, data, config: SolverConfig,
          y0=None) -> SolveReport:
    """Dispatch on config.method; `data` is a sample or a model as required."""
    method = config.method
    if method == "sgd":
        return sgd_solve(spec, budgets, _as_sample(data), config, y0=y0)
    if method == "osbgd":
        return osbgd_solve(spec, budgets, _as_sample(data), config, y0=y0)
    if method == "msbgd":
        return msbgd_solve(spec, budgets, _as_model(data), config, y0=y0)
    return reference_solve(spec, budgets, _as_model(data), config, y0=y0)


def _as_sample(data) -> ReturnSample:
    if isinstance(data, ReturnSample):
        return data
    raise InputError("this method needs a return sample")


def _as_model(data):
    if isinstance(data, _Mixture):
        return data
    raise InputError("this method needs a parametric model")
