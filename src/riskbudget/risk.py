"""Risk-measure specifications and evaluators.

Covers semi-analytic VaR / expected shortfall for Student-t mixtures, the
empirical estimators used by sample-based solvers, and the stochastic
objectives (with subgradients) whose minimization solves the risk budgeting
problem: the Rockafellar-Uryasev form for the expected-shortfall family, a
discretized per-node form for spectral measures, and an asymmetric-hinge
power form for deviation measures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Budgets, InputError, NumericError, _is_finite, _is_int, _values_of
from .models import StudentTMixture


class SpecError(InputError):
    """A risk-measure specification is invalid."""


class RiskPositivityWarning(UserWarning):
    """A configured measure evaluated non-positive on a probe portfolio."""


# ---------------------------------------------------------------------------
# measure specifications
#
# Every per-measure decision lives on the spec class: its label, its JSON
# kind (the fields are the dataclass fields), the exponent `power` of the
# homogenization g(x) = x**power in the solver objective, its initial
# thresholds on a loss vector, and its one full-sample evaluator: the
# objective risk g(rho) (plus any linear mean term) together with the
# gradient of that value with respect to the loss vector. The risk itself is
# derived from that value as value ** (1 / power); only Spectral overrides it,
# since its value needs a sort where its weights need an argsort.
# ES is the Rockafellar-Uryasev form beta * ES_alpha + delta * E with
# beta = 1, delta = 0; plain deviation and volatility are the hinge-power form
# with delta = 0, volatility with a = b = 1, p = 2.

class _Measure:
    kind = ""                  # the "measure" field of the JSON form
    _json_defaults = {}        # measure_from_dict values for absent fields
    _probe_positivity = False  # can be non-positive on long-only portfolios
    power = 1.0

    def risk(self, x: np.ndarray) -> float:
        return self.objective_and_weights(x)[0] ** (1.0 / self.power)

    def _check_finite(self, *names) -> None:
        for name in names:
            if not _is_finite(getattr(self, name)):
                raise SpecError(f"{name} must be a finite number")


class _RUMeasure(_Measure):
    """beta * ES_alpha + delta * E through the Rockafellar-Uryasev form."""

    _probe_positivity = True

    def __post_init__(self):
        self._check_finite("alpha", "beta", "delta")
        if self.beta <= 0.0:
            raise SpecError("beta must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise SpecError("alpha must lie in (0, 1)")

    def init_zeta(self, losses) -> np.ndarray:
        return np.array([empirical_var_method7(losses, self.alpha)])

    def risk(self, x: np.ndarray) -> float:
        # the value alone: no n-length loss-weight vector
        return self._value(x, _es_tail(x, self.alpha))

    def _value(self, x, tail) -> float:
        val = self.beta * float(x[tail].mean())
        return val + self.delta * float(x.mean()) if self.delta != 0.0 else val

    def objective_and_weights(self, x: np.ndarray):
        """The risk and its loss gradient: beta times the tail mask over its
        count, plus delta / n."""
        tail = _es_tail(x, self.alpha)
        w = tail * (self.beta / np.count_nonzero(tail))
        if self.delta != 0.0:
            w += self.delta / x.size
        return self._value(x, tail), w


class _HingeMeasure(_Measure):
    """min_z E[(a (L-z)_+ + b (L-z)_-)^p]^(1/p) + delta * E[L]."""

    delta = 0.0

    def __post_init__(self):
        self._check_finite("a", "b", "p", "delta")
        if self.a <= 0.0 or self.b <= 0.0:
            raise SpecError("hinge slopes a, b must be positive")
        if self.p < 1.0:
            raise SpecError("power p must be at least 1")

    @property
    def power(self) -> float:
        return self.p

    def init_zeta(self, losses) -> np.ndarray:
        return np.array([dev_inner_zeta(self, losses)])

    def objective_and_weights(self, x: np.ndarray):
        """Hinge-power mean (+ delta * mean) and its loss gradient
        psi^p'(L - z*) / n (+ delta / n) at the exact inner threshold z*.

        For p = 1 the points at z* take the subgradient that makes the
        weights sum to zero, so that sum(w * x) equals the value exactly.
        """
        a, b, p, n = self.a, self.b, self.p, x.size
        z = dev_inner_zeta(self, x)
        u = x - z
        if p == 1.0:
            slope = a * (u > 0.0) - b * (u < 0.0)
            at_z = u == 0.0
            slope[at_z] = -slope.sum() / np.count_nonzero(at_z)
        else:
            slope = p * (a ** p * np.maximum(u, 0.0) ** (p - 1.0)
                         - b ** p * np.maximum(-u, 0.0) ** (p - 1.0))
        val = float(_hinge_power(x, z, a, b, p).mean())
        w = slope / n
        if self.delta != 0.0:
            val += self.delta * float(x.mean())
            w += self.delta / n
        return val, w


@dataclass(frozen=True)
class Volatility(_HingeMeasure):
    """Standard deviation of portfolio losses."""

    kind = "volatility"
    a = b = 1.0
    p = 2.0

    def label(self) -> str:
        return "volatility"

    def objective_and_weights(self, x: np.ndarray):
        u = x - x.mean()
        return float(x.var()), (2.0 / x.size) * u


@dataclass(frozen=True)
class ExpectedShortfall(_RUMeasure):
    """Tail-average loss beyond the alpha-quantile."""

    kind = "es"
    beta = 1.0
    delta = 0.0

    alpha: float

    def label(self) -> str:
        return f"es({self.alpha:g})"


@dataclass(frozen=True)
class ESMeanMixture(_RUMeasure):
    """beta * ES_alpha + delta * E applied to losses.

    Covers expected shortfall minus expectation via beta=1, delta=-1.
    """

    kind = "es_mean"
    _json_defaults = {"beta": 1.0, "delta": 0.0}

    beta: float
    delta: float
    alpha: float

    def label(self) -> str:
        return f"es_mean({self.beta:g}*es({self.alpha:g})+{self.delta:g}*mean)"


S_MAX = 0.999


@dataclass(frozen=True)
class Spectral(_Measure):
    """Power-distortion spectral measure with h(s) = s**(1/c - 1) / c.

    Discretized at construction into a positive combination of ES levels: the
    read-only arrays `levels` (strictly increasing in (0, 1)) and `coeff`
    (positive, summing to one), `nodes` entries each. With subtract_mean the
    expected loss is factored out, leaving a translation-invariant measure.
    """

    kind = "spectral"
    _probe_positivity = True

    c: float
    nodes: int = 20
    subtract_mean: bool = False

    def __post_init__(self):
        self._check_finite("c")
        # c = 1 makes h constant, violating h(0) = 0; the family needs c < 1
        if not 0.0 < self.c < 1.0:
            raise SpecError("spectral exponent c must lie in (0, 1)")
        if not _is_int(self.nodes, 1):
            raise SpecError("nodes must be an integer of at least 1")
        if not isinstance(self.subtract_mean, (bool, np.bool_)):
            raise SpecError("subtract_mean must be true or false")
        # Midpoint rule for the tail-weight measure (1-s) dh(s): the levels are
        # the midpoints of `nodes` equal subintervals of (0, S_MAX], and the
        # coefficients (1 - s_k) h'(s_k) ds are renormalized to sum exactly to
        # one, as int (1-s) dh(s) = 1 does for the continuous measure.
        k = self.nodes
        ds = S_MAX / k
        levels = (np.arange(k) + 0.5) * ds
        with np.errstate(all="ignore"):
            hprime = (1.0 / self.c - 1.0) * levels ** (1.0 / self.c - 2.0) / self.c
            coeff = (1.0 - levels) * hprime * ds
            coeff = coeff / coeff.sum()
        if not np.all(np.isfinite(coeff) & (coeff > 0.0)):
            raise SpecError(f"spectral grid of c={self.c:g}, nodes={k} has a coefficient "
                            "that is not finite and positive")
        levels.setflags(write=False)
        coeff.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "coeff", coeff)

    def label(self) -> str:
        suffix = "-mean" if self.subtract_mean else ""
        return f"spectral(c={self.c:g},K={self.nodes}){suffix}"

    def init_zeta(self, losses) -> np.ndarray:
        return np.array([empirical_var_method7(losses, s) for s in self.levels])

    def risk(self, x: np.ndarray) -> float:
        # the derived value from a sort; objective_and_weights needs an argsort
        return self._value(x, *_sorted_with_tails(x))

    def _value(self, x, s, tail_sums) -> float:
        nodes = [_ru_node_minimum(s, tail_sums, lv) for lv in self.levels]
        val = float(np.dot(self.coeff, nodes))
        return val - float(x.mean()) if self.subtract_mean else val

    def objective_and_weights(self, x: np.ndarray):
        """The discretized risk and its loss gradient: per node, c_k / (n (1 - s_k))
        on the losses above the node's order statistic, and on that order
        statistic the weight that makes sum(w * x) equal the node value."""
        n = x.size
        order = np.argsort(x)
        s = x[order]
        rates = np.zeros(n + 1)
        w_sorted = np.zeros(n)
        for lv, c in zip(self.levels, self.coeff):
            k = _node_rank(n, lv)
            rate = c / (n * (1.0 - lv))
            rates[k] += rate
            w_sorted[k - 1] += c - (n - k) * rate
        w_sorted += np.cumsum(rates[:n])
        w = np.empty(n)
        w[order] = w_sorted
        if self.subtract_mean:
            w -= 1.0 / n
        return self._value(x, s, _tail_sums(s)), w


@dataclass(frozen=True)
class Deviation(_HingeMeasure):
    """Generalized deviation measure min_z E[(a (Z-z)_+ + b (Z-z)_-)^p]^(1/p).

    a=b=1, p=2 is the standard deviation; a=b=1, p=1 the MAD; p=2 with
    a=sqrt(alpha), b=sqrt(1-alpha) the square root of the variantile.
    """

    kind = "deviation"

    a: float
    b: float
    p: float

    def label(self) -> str:
        return f"deviation(a={self.a:g},b={self.b:g},p={self.p:g})"


@dataclass(frozen=True)
class DeviationPlusMean(_HingeMeasure):
    """Deviation measure plus delta times the expected loss (e.g. MAD + E).

    Only p = 1 is accepted: for p > 1 the solver objective mixes degree-p and
    degree-1 terms, and its minimizer misses the budgets.
    """

    kind = "deviation_mean"
    _json_defaults = {"delta": 1.0}

    a: float
    b: float
    p: float
    delta: float

    def __post_init__(self):
        super().__post_init__()
        if self.p != 1.0:
            raise SpecError("deviation plus expected loss needs p = 1")

    def label(self) -> str:
        return f"deviation_mean(a={self.a:g},b={self.b:g},p={self.p:g},d={self.delta:g})"


RiskMeasureSpec = Union[Volatility, ExpectedShortfall, ESMeanMixture,
                        Spectral, Deviation, DeviationPlusMean]

_KINDS = {cls.kind: cls for cls in (Volatility, ExpectedShortfall, ESMeanMixture,
                                    Spectral, Deviation, DeviationPlusMean)}


def measure_label(spec: RiskMeasureSpec) -> str:
    return spec.label()


def measure_from_dict(doc: dict) -> RiskMeasureSpec:
    try:
        kind = doc["measure"]
    except (KeyError, TypeError) as exc:
        raise SpecError("measure document needs a 'measure' field") from exc
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"unknown measure kind {kind!r}")
    params = {k: v for k, v in doc.items() if k != "measure"}
    try:
        return cls(**{**cls._json_defaults, **params})
    except TypeError as exc:
        raise SpecError(f"bad {kind!r} measure: {exc}") from exc


# ---------------------------------------------------------------------------
# semi-analytic VaR / ES of the loss -y'X under a Student-t mixture

def _portfolio_params(model: StudentTMixture, y: np.ndarray):
    y = _values_of(y)
    sig2 = np.einsum("i,kij,j->k", y, model.scales, y)
    if np.any(sig2 <= 0.0):
        raise NumericError("degenerate portfolio scale")
    return np.sqrt(sig2), model.locations @ y


# The standard Student-t cdf and density at finite dof nu > 0, with the float
# operations of scipy.stats.t (scipy 1.17) and so its bits, without the cost of
# its generic argument handling or of importing scipy.stats (about half a
# second of a cold start on a 2-vCPU x86 host). Each imports its scipy.special
# function when called, not at package import: only the exact evaluators and
# EM need scipy.special, and importing it would double the package's import time.

def _t_cdf(t, nu):
    from scipy.special import stdtr
    return stdtr(nu, t)


def _t_pdf(t, nu):
    from scipy.special import poch
    return np.exp(np.log(poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
                  - (nu + 1) / 2 * np.log1p(t * t / nu))


def var_tmix(model: StudentTMixture, y, alpha: float) -> float:
    """Loss quantile of -y'X: the unique root z of the mixture loss cdf = alpha.

    Brackets the root by doubling an initial interval until the cdf changes
    sign, then polishes with a safeguarded root solver to |F(z) - alpha| well
    below 1e-12.
    """
    if not 0.0 < alpha < 1.0:
        raise SpecError("alpha must lie in (0, 1)")
    from scipy.optimize import brentq  # deferred: most commands never load scipy.optimize
    from scipy.special import stdtr    # once per call: cdf inlines _t_cdf, so loops import nothing
    yv = _values_of(y)
    sig, m = _portfolio_params(model, yv)
    p, nu = model.weights, model.dof

    def cdf(z):
        return float(np.dot(p, stdtr(nu, (z + m) / sig)))

    radius = float(np.abs(m).max() + 10.0 * sig.max())
    lo, hi = -radius, radius
    for _ in range(100):
        if cdf(lo) <= alpha:
            break
        lo *= 2.0
    else:
        raise NumericError("lower bracket for the loss quantile not found")
    for _ in range(100):
        if cdf(hi) >= alpha:
            break
        hi *= 2.0
    else:
        raise NumericError("upper bracket for the loss quantile not found")
    return float(brentq(lambda z: cdf(z) - alpha, lo, hi, xtol=1e-300, rtol=8.9e-16))


def es_tmix(model: StudentTMixture, y, alpha: float) -> float:
    """Closed-form expected shortfall of the loss -y'X at level alpha.

    Uses the partial-expectation identity for the standard t density,
    int_t^inf u f_nu(u) du = (nu + t^2) f_nu(t) / (nu - 1), which needs every
    component dof above 1, as StudentTMixture checks when it is built.
    """
    return _es_tmix_value_grad(model, y, alpha)[0]


def _es_tmix_value_grad(model: StudentTMixture, y, alpha: float):
    """es_tmix and its gradient in y from one quantile root solve.

    The gradient is the Euler allocation E[-X | L >= VaR] (Tasche): with
    t_k = (VaR + y'mu_k) / sigma_k and sigma_k = sqrt(y' S_k y),
    (1/(1-alpha)) sum_k p_k [(nu_k + t_k^2) f(t_k) / (nu_k - 1) S_k y / sigma_k
    - mu_k Fbar(t_k)]. Its dot product with y is the ES itself.
    """
    yv = _values_of(y)
    v = var_tmix(model, yv, alpha)
    sig, m = _portfolio_params(model, yv)
    nu = model.dof
    t = (v + m) / sig
    f = _t_pdf(t, nu)
    above = _t_cdf(-t, nu)                      # P(U > t)
    upper = (nu + t * t) / (nu - 1.0) * f       # E[U; U > t]
    terms = sig * (nu + t * t) / (nu - 1.0) * f - m * above
    value = float(np.dot(model.weights, terms) / (1.0 - alpha))
    p = model.weights / (1.0 - alpha)
    grad = (p * upper / sig) @ (model.scales @ yv) - (p * above) @ model.locations
    return value, grad


# ---------------------------------------------------------------------------
# empirical estimators

def empirical_var_method7(losses, alpha: float) -> float:
    """Linear-interpolation empirical quantile (Hyndman-Fan method 7).

    With losses sorted ascending and 1-based indexing: h = (n-1) alpha + 1,
    result = x_floor(h) + (h - floor(h)) (x_(floor(h)+1) - x_floor(h)).
    """
    x = np.asarray(losses, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise InputError("empty loss vector")
    if not 0.0 <= alpha <= 1.0:
        raise SpecError("alpha must lie in [0, 1]")
    h = (n - 1) * alpha
    j = int(np.floor(h))
    g = h - j
    part = np.partition(x, j)
    lo = part[j]
    if g == 0.0 or j + 1 >= n:
        return float(lo)
    hi = part[j + 1:].min()    # the partition puts every larger order statistic there
    return float(lo + g * (hi - lo))


def _es_tail(x: np.ndarray, alpha: float) -> np.ndarray:
    """Mask of the losses at or above the method-7 empirical quantile."""
    tail = x >= empirical_var_method7(x, alpha)
    if not tail.any():
        raise NumericError("empty tail above the empirical quantile")
    return tail


# ---------------------------------------------------------------------------
# shared pieces for the stochastic objectives

@dataclass(frozen=True)
class ZetaState:
    """Auxiliary threshold variables of the variational objectives.

    Length one for scalar-threshold measures, one per node for spectral.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise InputError("threshold state must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# Rockafellar-Uryasev objective for the ES family
#
# SGD calls one objective and one subgradient of its measure per mini-batch,
# so the six step functions are written for few NumPy calls with the float
# operations of the plain form: the losses are -(batch @ y), the barrier is
# minus the dot product of the budgets with log y, np.add.reduce(a) / m is
# what a.mean() computes, and a tail's row sum equals the sum over the batch
# of the rows times the tail mask (the rows outside add only +-0).

def ru_objective(spec, budgets: Budgets, y, zeta, batch) -> float:
    """Batch value of the joint objective for beta*ES_alpha + delta*E.

    mean over the batch of beta*(zeta + (loss - zeta)_+ / (1 - alpha))
    + delta * loss, minus the log-barrier sum_i b_i log y_i.
    """
    yv = _values_of(y)
    z = float(zeta[0])
    losses = -(batch @ yv)
    m = losses.size
    ru = z + np.add.reduce(np.maximum(losses - z, 0.0)) / m / (1.0 - spec.alpha)
    val = spec.beta * ru - np.dot(budgets.values, np.log(yv))
    if spec.delta != 0.0:
        val += spec.delta * (np.add.reduce(losses) / m)
    return float(val)


def ru_subgradient(spec, budgets: Budgets, y, zeta, batch):
    """Subgradient of ru_objective at (y, zeta); ties resolved by strict >."""
    beta, tail_share = spec.beta, 1.0 - spec.alpha
    yv = _values_of(y)
    tail = batch @ yv < -float(zeta[0])    # the losses -(batch @ y) above zeta
    m = tail.size
    g_zeta = beta * (1.0 - np.count_nonzero(tail) / m / tail_share)
    g_y = -beta * (np.add.reduce(batch[tail], axis=0) / m) / tail_share - budgets.values / yv
    if spec.delta != 0.0:
        g_y = g_y - spec.delta * (np.add.reduce(batch, axis=0) / m)
    return g_y, np.array([g_zeta])


# ---------------------------------------------------------------------------
# spectral measures: per-node objective

def spectral_objective(spec: Spectral, budgets: Budgets, y, zeta, batch) -> float:
    """Discretized spectral objective with one threshold per node.

    sum_k coeff_k [zeta_k + mean((loss - zeta_k)_+) / (1 - s_k)] minus the
    log-barrier; with subtract_mean the bracket is replaced by its
    mean-subtracted form (the coefficients sum to one, so this subtracts the
    batch mean loss exactly once).
    """
    if zeta.size != spec.nodes:
        raise InputError(f"threshold vector has {zeta.size} entries, spec has {spec.nodes} nodes")
    yv = _values_of(y)
    losses = -(batch @ yv)
    m = losses.size
    hinge = np.add.reduce(np.maximum(losses[:, None] - zeta, 0.0), axis=0) / m
    nodes = zeta + hinge / (1.0 - spec.levels)
    val = float(np.dot(spec.coeff, nodes)) - float(np.dot(budgets.values, np.log(yv)))
    if spec.subtract_mean:
        val -= np.add.reduce(losses) / m
    return val


def spectral_subgradient(spec: Spectral, budgets: Budgets, y, zeta, batch):
    """Subgradient of spectral_objective at (y, zeta)."""
    if zeta.size != spec.nodes:
        raise InputError(f"threshold vector has {zeta.size} entries, spec has {spec.nodes} nodes")
    yv = _values_of(y)
    tail = -(batch @ yv)[:, None] > zeta
    m = len(tail)
    g_zeta = spec.coeff * (1.0 - np.add.reduce(tail, axis=0) / m / (1.0 - spec.levels))
    node_w = spec.coeff / (1.0 - spec.levels)
    g_y = -(batch.T @ tail) @ node_w / m - budgets.values / yv
    if spec.subtract_mean:
        g_y = g_y + np.add.reduce(batch, axis=0) / m
    return g_y, g_zeta


# ---------------------------------------------------------------------------
# deviation measures: asymmetric hinge powers

def _hinge_power(losses, z, a, b, p) -> np.ndarray:
    # psi(z)^p expanded as a^p z_+^p + b^p z_-^p; avoids fractional powers of
    # negative arguments
    pos = np.maximum(losses - z, 0.0)
    neg = np.maximum(z - losses, 0.0)
    return a ** p * pos ** p + b ** p * neg ** p


def deviation_objective(spec, budgets: Budgets, y, zeta, batch) -> float:
    """mean(psi_{a,b}(loss - zeta)^p) [+ delta * mean loss] minus the barrier."""
    yv = _values_of(y)
    losses = -(batch @ yv)
    m = losses.size
    val = (np.add.reduce(_hinge_power(losses, float(zeta[0]), spec.a, spec.b, spec.p)) / m
           - np.dot(budgets.values, np.log(yv)))
    if spec.delta != 0.0:
        val += spec.delta * (np.add.reduce(losses) / m)
    return float(val)


def deviation_subgradient(spec, budgets: Budgets, y, zeta, batch):
    """Subgradient of deviation_objective; p = 1 uses strict-inequality hinges."""
    a, b, p = spec.a, spec.b, spec.p
    yv = _values_of(y)
    z = float(zeta[0])
    losses = -(batch @ yv)
    m = losses.size
    if p == 1.0:
        w_pos = a * (losses > z)
        w_neg = b * (losses < z)
    else:
        w_pos = p * a ** p * np.maximum(losses - z, 0.0) ** (p - 1.0)
        w_neg = p * b ** p * np.maximum(z - losses, 0.0) ** (p - 1.0)
    g_zeta = float(np.add.reduce(w_neg - w_pos) / m)
    g_y = -(np.add.reduce(batch * (w_pos - w_neg)[:, None], axis=0) / m) - budgets.values / yv
    if spec.delta != 0.0:
        g_y = g_y - spec.delta * (np.add.reduce(batch, axis=0) / m)
    return g_y, np.array([g_zeta])


# ---------------------------------------------------------------------------
# analytic volatility

def volatility_value_and_gradient(sigma, y):
    """Portfolio volatility sqrt(y' S y) and its gradient S y / value."""
    s = np.asarray(sigma, dtype=float)
    yv = _values_of(y)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != yv.size:
        raise InputError("covariance shape incompatible with the allocation")
    if np.abs(s - s.T).max() > 1e-10:
        raise InputError("covariance must be symmetric")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise InputError("covariance must be positive-definite") from exc
    quad = float(yv @ s @ yv)
    if quad <= 0.0:
        raise NumericError("non-positive portfolio variance")
    value = np.sqrt(quad)
    return value, s @ yv / value


# ---------------------------------------------------------------------------
# exact inner minimization over the threshold on a fixed sample

def _node_rank(n: int, level: float) -> int:
    """1-based rank ceil(n * level), clipped to [1, n], of a piecewise-linear
    threshold minimum: the slope of the objective changes sign there."""
    return min(max(int(np.ceil(n * level)), 1), n)


def _ru_node_minimum(sorted_losses: np.ndarray, tail_sums: np.ndarray,
                     level: float) -> float:
    """Exact min over zeta of zeta + mean((L - zeta)_+) / (1 - level).

    The objective is piecewise linear and convex in zeta with kinks at the
    sample points, so the minimum is attained at the ceil(n * level)-th order
    statistic.
    """
    n = sorted_losses.size
    k = _node_rank(n, level)
    z = sorted_losses[k - 1]
    tail = tail_sums[k] - (n - k) * z
    return float(z + tail / (n * (1.0 - level)))


def _tail_sums(s: np.ndarray) -> np.ndarray:
    cums = np.concatenate(([0.0], np.cumsum(s)))
    return cums[-1] - cums  # tail_sums[k] = sum of s[k:]


def _sorted_with_tails(losses: np.ndarray):
    s = np.sort(losses)
    return s, _tail_sums(s)


def dev_inner_zeta(spec, losses) -> float:
    """Exact minimizer over z of the deviation hinge mean E[psi(L - z)^p].

    p = 2 with a = b gives the mean. p = 1 gives the ceil(n a / (a + b))-th
    order statistic, where the piecewise-linear slope changes sign. Otherwise
    the objective is smooth and convex, and z is the root of its increasing
    derivative, which changes sign on [min L, max L].
    """
    a, b, p = spec.a, spec.b, spec.p
    x = np.asarray(losses, dtype=float)
    if p == 2.0 and a == b:
        return float(x.mean())
    if p == 1.0:
        k = _node_rank(x.size, a / (a + b))
        return float(np.partition(x, k - 1)[k - 1])
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo

    def slope(z):  # derivative in z, divided by p * n
        return float((b ** p * np.maximum(z - x, 0.0) ** (p - 1.0)).sum()
                     - (a ** p * np.maximum(x - z, 0.0) ** (p - 1.0)).sum())

    from scipy.optimize import brentq  # deferred, as in var_tmix
    return float(brentq(slope, lo, hi, xtol=1e-300, rtol=8.9e-16))


def empirical_risk(spec: RiskMeasureSpec, losses) -> float:
    """Value of the risk measure itself on an empirical loss sample."""
    return spec.risk(np.asarray(losses, dtype=float).ravel())


def empirical_objective_risk(spec: RiskMeasureSpec, losses):
    """Risk part of the full-sample descent objective (the homogenized form)
    and its gradient with respect to the loss vector.

    The value is g(rho) plus any linear mean term: the ES family uses the
    empirical tail mean directly, spectral uses the per-node exact
    Rockafellar-Uryasev minima, and deviation measures use the exact inner
    threshold minimization of the hinge power. The thresholds are exact
    minimizers, so by the envelope theorem the loss weights w are the partial
    gradient at those thresholds; the value is positively homogeneous of
    degree spec.power in the losses, and sum(w * losses) = power * value.
    Returns (value, w).
    """
    return spec.objective_and_weights(np.asarray(losses, dtype=float).ravel())


def warn_if_nonpositive_risk(spec: RiskMeasureSpec, risks_at, d: int) -> None:
    """Probe equal weights and 0.9-concentrated corners; warn if risk <= 0.

    The risk budgeting problem assumes every long-only portfolio has positive
    risk; ES-family measures can violate this when alpha is too low.
    risks_at maps a block of probe portfolios (rows) to their risks. The
    blocks hold two probes each, so that a sample evaluator gets two loss
    vectors from one pass over the sample and holds no more than two.
    """
    if not spec._probe_positivity:
        return
    probes = np.full((d + 1, d), 0.1 / max(d - 1, 1))
    probes[0] = 1.0 / d
    probes[np.arange(1, d + 1), np.arange(d)] = 0.9
    bad = sum(np.count_nonzero(np.asarray(risks_at(probes[i:i + 2])) <= 0.0)
              for i in range(0, d + 1, 2))
    if bad:
        warnings.warn(
            f"{measure_label(spec)} is non-positive on {bad} probe "
            "portfolio(s); risk budgets are not meaningful there",
            RiskPositivityWarning,
            stacklevel=3,
        )
