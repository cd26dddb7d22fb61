"""Parametric return models: Gaussian and Student-t mixtures, seeded sampling,
EM fitting with fixed degrees of freedom, and a synthetic
data-generating-process builder for benchmark studies."""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import InputError, NumericError, _is_finite, _is_int

PROB_ATOL = 1e-12
SYM_ATOL = 1e-12
_CSV_BLOCK_ROWS = 4096       # rows formatted as Python objects at a time
# sampler rows, and EM columns, per block: 4096 x d floats stay in cache
_SAMPLE_BLOCK_ROWS = 4096
_EM_RIDGE = 1e-10   # EM's diagonal boost, scaled by trace/d, on Cholesky failure


class ModelError(InputError):
    """A mixture model violates its invariants."""


def _check_mixture_prob(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ModelError("mixture probabilities must be a non-empty vector")
    if not np.all(np.isfinite(p)):
        raise ModelError("mixture probabilities must be finite")
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > PROB_ATOL:
        raise ModelError("mixture probabilities must be positive and sum to one")
    return p


def _check_spd(mats, what: str) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ModelError(f"{what} must be a stack of square matrices")
    if not np.all(np.isfinite(m)):
        raise ModelError(f"{what} must be finite")
    sym_err = np.abs(m - m.transpose(0, 2, 1)).max()
    if sym_err > SYM_ATOL:
        raise ModelError(f"{what} asymmetric by {sym_err:g}")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"{what} not positive-definite: {exc}") from exc
    return m, chol


@dataclass(frozen=True)
class _Mixture:
    """Mixture of location-scale components, Gaussian or Student-t.

    weights : (N,) mixture probabilities, positive, summing to one
    locations : (N, d) component location vectors
    scales : (N, d, d) symmetric positive-definite scale matrices
    dof : (N,) Student-t degrees of freedom, each > 1 so losses have a
        finite mean; None (a class attribute) for Gaussian components
    """

    weights: np.ndarray
    locations: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        p = _check_mixture_prob(self.weights)
        mu = np.atleast_2d(np.asarray(self.locations, dtype=float))
        scales, chol = _check_spd(self.scales, "scale matrices")
        arrays = {"weights": p, "locations": mu, "scales": scales}
        if self.dof is not None:
            arrays["dof"] = nu = np.asarray(self.dof, dtype=float)
        if len({len(arr) for arr in arrays.values()}) != 1:
            raise ModelError("component count mismatch across parameters")
        if mu.shape[1] != scales.shape[1]:
            raise ModelError("location/scale dimension mismatch")
        if not np.all(np.isfinite(mu)):
            raise ModelError("locations must be finite")
        if self.dof is not None and not np.all(np.isfinite(nu) & (nu > 1.0)):
            raise ModelError("degrees of freedom must be finite and exceed 1")
        for name, arr in (*arrays.items(), ("_chol", chol)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def covariance(self) -> np.ndarray:
        """Covariance of the mixture (Student-t: requires all dof > 2)."""
        comp_cov = self.scales
        if self.dof is not None:
            if np.any(self.dof <= 2.0):
                raise ModelError("covariance undefined: some dof <= 2")
            comp_cov = self.scales * (self.dof / (self.dof - 2.0))[:, None, None]
        centered = self.locations - self.mean()
        between = np.einsum("k,ki,kj->ij", self.weights, centered, centered)
        return np.einsum("k,kij->ij", self.weights, comp_cov) + between

    def mean(self) -> np.ndarray:
        return self.weights @ self.locations


@dataclass(frozen=True)
class StudentTMixture(_Mixture):
    """Mixture of multivariate Student-t components."""

    kind = "tmix"
    dof: np.ndarray


@dataclass(frozen=True)
class GaussianMixture(_Mixture):
    """Mixture of multivariate Gaussian components; scales are covariances."""

    kind = "gmix"
    dof = None


@dataclass(frozen=True)
class ReturnSample:
    """An n x d matrix of asset returns."""

    data: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.data, dtype=float))
        if x.size == 0:
            raise InputError("return sample must be non-empty")
        if not np.all(np.isfinite(x)):
            raise InputError("return sample contains non-finite entries")
        x.setflags(write=False)
        object.__setattr__(self, "data", x)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# sampling

def derive_seed(*parts) -> int:
    """Stable sub-seed from arbitrary labels, independent of hash randomization."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sample_model(model: _Mixture, n: int, seed: int, out=None) -> ReturnSample:
    """Draw n i.i.d. returns from a Gaussian or Student-t mixture.

    Each draw picks a component from the mixture probabilities, then applies
    location + chol(scale) z, times sqrt(nu/V) with V ~ chi2(nu) for a
    Student-t component. The components and an n x d standard normal z come
    first, one generator call each, written into out (an n x d float array)
    when given. The rows are then transformed in place over z, in blocks of
    _SAMPLE_BLOCK_ROWS: for Student-t, V is drawn per block, after all the
    normals, so the generator's stream has the order of one n-vector draw;
    then, per component, one gather of that component's rows (take), one
    matmul, the Student scale and the location in place, and a write back
    over their normals. An output row needs only its own normal row, and it
    sees the same arithmetic as when its component's rows are transformed
    alone, so the same seed gives the same bytes whatever the block size.
    """
    if n < 1:
        raise InputError("sample size must be at least 1")
    locations, chols, dof = model.locations, model._chol, model.dof
    n_comp, d = locations.shape
    rng = np.random.default_rng(seed)
    comp = rng.choice(n_comp, size=n, p=model.weights)
    z = rng.standard_normal((n, d), out=out)
    start = 0
    while start < n:
        stop = start + _SAMPLE_BLOCK_ROWS
        if stop + 1 >= n:
            # a last row left alone joins this block: only a one-row sample
            # has a one-row block
            stop = n
        zb, cb = z[start:stop], comp[start:stop]
        if dof is not None:
            nu = dof[cb]
            chi = rng.chisquare(nu)
            t_scale = np.sqrt(np.divide(nu, chi, out=chi), out=chi)
        for k in range(n_comp):
            idx = np.flatnonzero(cb == k)
            if idx.size == 0:
                continue
            if idx.size == 1 < len(zb):
                # NumPy runs a one-row matmul as a matrix-vector product,
                # which rounds differently: a lone row goes in twice
                idx = np.repeat(idx, 2)
            res = zb.take(idx, axis=0) @ chols[k].T
            if dof is not None:
                res *= t_scale.take(idx)[:, None]
            res += locations[k]
            zb[idx] = res
        start = stop
    return ReturnSample(z)


# the Student-t mixture's name for the one sampler
sample_tmix = sample_model


# ---------------------------------------------------------------------------
# EM fitting

@dataclass(frozen=True)
class EMConfig:
    """Stopping and initialization controls for mixture EM fits."""

    tol: float = 1e-8          # relative gain of per-observation log-likelihood
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (_is_finite(self.tol) and self.tol >= 0.0):
            raise InputError("EM tol must be a finite number of at least 0")
        if not _is_int(self.max_iters, 1):
            raise InputError("EM max_iters must be an integer of at least 1")
        if not _is_int(self.seed, 0):
            raise InputError("EM seed must be a non-negative integer")


class FitError(NumericError):
    """EM could not produce a valid mixture."""


def _blocks(n: int) -> list[slice]:
    """Row (or column) slices of _SAMPLE_BLOCK_ROWS covering range(n)."""
    return [slice(s, s + _SAMPLE_BLOCK_ROWS) for s in range(0, n, _SAMPLE_BLOCK_ROWS)]


def _kmeanspp_responsibilities(x: np.ndarray, n_comp: int, rng) -> np.ndarray:
    # k-means++ style seeding on standardized data, then softened hard
    # assignment; returns the N x n responsibilities. Rows are standardized a
    # block at a time, with the operations of a whole-array standardization.
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    mean = x.mean(axis=0)
    n = len(x)

    def dist2(centers):
        d2 = np.empty((len(centers), n))
        for rows in _blocks(n):
            zb = (x[rows] - mean) / sd
            for j, c in enumerate(centers):
                d2[j, rows] = ((zb - c) ** 2).sum(axis=1)
        return d2

    centers = [(x[rng.integers(n)] - mean) / sd]
    for _ in range(1, n_comp):
        d2 = dist2(centers).min(axis=0)
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        centers.append((x[rng.choice(n, p=probs)] - mean) / sd)
    d2 = dist2(centers)
    resp = np.full((n_comp, n), 0.05 / n_comp)
    resp[d2.argmin(axis=0), np.arange(n)] += 0.95
    return resp


def _safe_cholesky(mat: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    try:
        return mat, np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        boost = ridge * np.trace(mat) / len(mat)
        fixed = mat + boost * np.eye(len(mat))
        try:
            return fixed, np.linalg.cholesky(fixed)
        except np.linalg.LinAlgError as exc:
            raise FitError("scatter matrix singular even after regularization") from exc


def _log_joint(xt, p, mu, chols, nu=None):
    """log p_k + log f_k(x) for each component k (rows) and each column x of
    the d x n array xt, f_k Student-t with nu_k dof or Gaussian for nu None;
    also, for Student-t, the weights (nu_k + d) / (nu_k + delta_k(x)), delta_k
    the squared Mahalanobis distance, else None. The columns go in blocks of
    _SAMPLE_BLOCK_ROWS, and the elementwise chains run in place in the rows of
    the two outputs."""
    from scipy.linalg import solve_triangular  # deferred: only EM needs scipy.linalg
    from scipy.special import gammaln          # deferred too: only EM and the t evaluators need it
    d, n = xt.shape
    out = np.empty((len(p), n))
    u = None if nu is None else np.empty((len(p), n))
    for k in range(len(p)):
        linv = solve_triangular(chols[k], np.eye(d), lower=True)
        logdet = 2.0 * np.log(np.diag(chols[k])).sum()
        if nu is not None:
            c = (gammaln((nu[k] + d) / 2.0) - gammaln(nu[k] / 2.0)
                 - 0.5 * d * np.log(nu[k] * np.pi) - 0.5 * logdet)
        for cols in _blocks(n):
            z = linv @ (xt[:, cols] - mu[k][:, None])
            delta = np.einsum("ij,ij->j", z, z)
            row = out[k, cols]
            if nu is None:
                # log p_k - 0.5 * (d log(2 pi) + logdet + delta)
                np.add(d * np.log(2.0 * np.pi) + logdet, delta, out=row)
                np.multiply(0.5, row, out=row)
                np.subtract(np.log(p[k]), row, out=row)
            else:
                # log p_k + (c_k - 0.5 (nu_k + d) log1p(delta / nu_k))
                np.divide(delta, nu[k], out=row)
                np.log1p(row, out=row)
                np.multiply(0.5 * (nu[k] + d), row, out=row)
                np.subtract(c, row, out=row)
                np.add(np.log(p[k]), row, out=row)
                uk = u[k, cols]
                np.add(nu[k], delta, out=uk)
                np.divide(nu[k] + d, uk, out=uk)
    return out, u


def _normalize_columns(log_joint: np.ndarray) -> np.ndarray:
    """Overwrite the N x n log joint densities with responsibilities and
    return the log-likelihood of each observation (log-sum-exp over N)."""
    top = log_joint.max(axis=0)
    log_joint -= top
    np.exp(log_joint, out=log_joint)
    tot = log_joint.sum(axis=0)
    log_joint /= tot
    return top + np.log(tot)


def _em_fit(x: np.ndarray, n_comp: int, config: EMConfig, nu_fixed=None):
    """Core EM loop shared by the Student-t and Gaussian fits, component-major:
    the data are one d x n array and the responsibilities N x n, so each
    component costs one GEMM for the whitened residuals and one for the scatter
    per block of _SAMPLE_BLOCK_ROWS columns; no pass allocates a d x n array.

    With nu_fixed set, runs the fixed-dof Student-t M-step with latent scale
    weights u = (nu + d) / (nu + mahalanobis^2); otherwise plain Gaussian EM.
    The per-observation log-likelihood trace is checked to be non-decreasing.
    """
    n, d = x.shape
    if n_comp < 1:
        raise InputError("need at least one mixture component")
    student = nu_fixed is not None
    if student:
        nu_fixed = np.asarray(nu_fixed, dtype=float)
        if nu_fixed.shape != (n_comp,):
            raise InputError("nu_fixed must supply one dof per component")
        if not np.all(np.isfinite(nu_fixed) & (nu_fixed > 1.0)):
            raise ModelError("fixed degrees of freedom must be finite and exceed 1")
    if n <= d * n_comp:
        raise InputError(f"need more than d*N = {d * n_comp} observations, got {n}")

    resp = _kmeanspp_responsibilities(x, n_comp, np.random.default_rng(config.seed))
    xt = np.ascontiguousarray(x.T)

    p = np.empty(n_comp)
    mu = np.empty((n_comp, d))
    mats = np.empty((n_comp, d, d))
    chols = np.empty_like(mats)

    blocks = _blocks(n)

    def scatter(wk, mk, cols):
        dxt = xt[:, cols] - mk[:, None]
        return (dxt * wk[cols]) @ dxt.T

    # sums over column blocks: the first block assigns, so -0.0 stays -0.0
    def m_step(resp, w):
        for k in range(n_comp):
            rk = resp[k].sum()
            p[k] = rk / n
            mu[k] = reduce(np.add, (xt[:, cols] @ w[k, cols] for cols in blocks)) / w[k].sum()
            sk = reduce(np.add, (scatter(w[k], mu[k], cols) for cols in blocks)) / rk
            mats[k], chols[k] = _safe_cholesky(0.5 * (sk + sk.T), _EM_RIDGE)

    m_step(resp, resp)

    trace: list[float] = []
    for _ in range(config.max_iters):
        resp, u = _log_joint(xt, p, mu, chols, nu_fixed)
        ll = float(_normalize_columns(resp).mean())
        if trace and ll < trace[-1] - 1e-10 * max(1.0, abs(trace[-1])):
            raise FitError(f"log-likelihood decreased: {trace[-1]!r} -> {ll!r}")
        done = bool(trace) and abs(ll - trace[-1]) < config.tol * max(1.0, abs(trace[-1]))
        trace.append(ll)
        if done:
            break
        m_step(resp, resp if u is None else np.multiply(resp, u, out=u))

    fields = (p.copy(), mu.copy(), mats.copy())
    model = StudentTMixture(*fields, nu_fixed.copy()) if student else GaussianMixture(*fields)
    return model, trace


def em_fit_tmix(sample: ReturnSample, n_components: int, nu_fixed,
                config: EMConfig = EMConfig(), return_trace: bool = False):
    """Fit a Student-t mixture with fixed degrees of freedom by EM."""
    model, trace = _em_fit(sample.data, n_components, config, nu_fixed=nu_fixed)
    return (model, trace) if return_trace else model


def em_fit_gmix(sample: ReturnSample, n_components: int,
                config: EMConfig = EMConfig(), return_trace: bool = False):
    """Fit a Gaussian mixture by EM."""
    model, trace = _em_fit(sample.data, n_components, config)
    return (model, trace) if return_trace else model


def mixture_loglik(model, sample: ReturnSample) -> float:
    """Per-observation log-likelihood of a sample under a fitted mixture."""
    log_joint, _ = _log_joint(np.ascontiguousarray(sample.data.T), model.weights,
                              model.locations, model._chol, model.dof)
    return float(_normalize_columns(log_joint).mean())


# ---------------------------------------------------------------------------
# synthetic data-generating process

def synth_dgp(d: int, seed: int) -> StudentTMixture:
    """Build a random but valid two-regime Student-t mixture of dimension d.

    Magnitudes mirror daily equity returns: locations of order 1e-3 and scale
    matrices of order 1e-4, a calm regime of weight 0.6-0.8 and a stressed
    one with twice the volatility, dof (4, 2.5). Scale matrices are built as
    A'A plus a small diagonal, with a common factor giving an average
    correlation of 0.3, so Cholesky always succeeds. Deterministic per seed.
    """
    if d < 2:
        raise InputError("need at least two assets")
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(0.6, 0.8)
    mu_calm = rng.uniform(0.5, 3.0, size=d) * 1e-3
    mu_stressed = -rng.uniform(1.0, 2.0, size=d) * 1e-3
    beta = np.sqrt(0.3 / (1.0 - 0.3))
    scales = []
    for mult in (1.0, 2.0):
        k = d + 2
        common = rng.standard_normal((k, 1))
        a = beta * common + rng.standard_normal((k, d))
        m = a.T @ a
        dg = np.sqrt(np.diag(m))
        corr = m / np.outer(dg, dg)
        vols = np.sqrt(1e-4) * mult * rng.uniform(0.7, 1.3, size=d)
        scales.append(corr * np.outer(vols, vols) + (1e-8 * 1e-4) * np.eye(d))
    return StudentTMixture(
        np.array([w1, 1.0 - w1]),
        np.vstack([mu_calm, mu_stressed]),
        np.array(scales),
        np.array([4.0, 2.5]),
    )


# ---------------------------------------------------------------------------
# file formats

def model_to_dict(model: _Mixture) -> dict:
    doc = {"type": model.kind, "p": model.weights.tolist(),
           "mu": model.locations.tolist(), "scale": model.scales.tolist()}
    if model.dof is not None:
        doc["nu"] = model.dof.tolist()
    return doc


def model_from_dict(doc: dict):
    try:
        kind = doc["type"]
        p = doc["p"]
        mu = doc["mu"]
        scale = doc["scale"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"model document missing field: {exc}") from exc
    if kind not in ("tmix", "gmix"):
        raise InputError(f"unknown model type {kind!r}")
    unknown = set(doc) - {"type", "p", "mu", "scale"} - ({"nu"} if kind == "tmix" else set())
    if unknown:
        raise InputError(f"unknown field {min(unknown)!r} in a {kind} model document")
    if kind == "tmix":
        if "nu" not in doc:
            raise InputError("tmix model requires a 'nu' field")
        return StudentTMixture(p, mu, scale, doc["nu"])
    return GaussianMixture(p, mu, scale)


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_model(path):
    return model_from_dict(_load_json(path))


def save_sample(sample: ReturnSample, path, header: bool = False) -> None:
    """One CSV row per return: repr fields and CRLF row ends, as csv.writer writes."""
    # formatted and written in blocks of rows, to bound the memory used
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(f"asset_{i + 1}" for i in range(sample.dim)) + "\r\n")
        for start in range(0, sample.n, _CSV_BLOCK_ROWS):
            rows = sample.data[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("\r\n".join([",".join(map(repr, row)) for row in rows]) + "\r\n")


def load_sample(path, header: bool = False) -> ReturnSample:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as numpy's UserWarning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              skiprows=int(header))
    except ValueError as exc:
        raise InputError(f"{path}: malformed numeric row: {exc}") from exc
    if data.size == 0:
        raise InputError(f"{path}: empty sample file")
    return ReturnSample(data)
