"""Parametric return models: Gaussian and Student-t mixtures, seeded sampling,
loss distribution evaluation, EM fitting with fixed degrees of freedom, and a
synthetic data-generating-process builder for benchmark studies."""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from .core import InputError, NumericError, _values_of

PROB_ATOL = 1e-12
SYM_ATOL = 1e-12
_CSV_BLOCK_ROWS = 65536


class ModelError(InputError):
    """A mixture model violates its invariants."""


def _check_mixture_prob(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ModelError("mixture probabilities must be a non-empty vector")
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > PROB_ATOL:
        raise ModelError("mixture probabilities must be positive and sum to one")
    return p


def _check_spd(mats, what: str) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ModelError(f"{what} must be a stack of square matrices")
    sym_err = np.abs(m - m.transpose(0, 2, 1)).max()
    if sym_err > SYM_ATOL:
        raise ModelError(f"{what} asymmetric by {sym_err:g}")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"{what} not positive-definite: {exc}") from exc
    return m, chol


@dataclass(frozen=True)
class StudentTMixture:
    """Mixture of multivariate Student-t components.

    weights : (N,) mixture probabilities, positive, summing to one
    locations : (N, d) component location vectors
    scales : (N, d, d) symmetric positive-definite scale matrices
    dof : (N,) degrees of freedom, each > 1 so losses have a finite mean
    """

    weights: np.ndarray
    locations: np.ndarray
    scales: np.ndarray
    dof: np.ndarray

    def __post_init__(self):
        p = _check_mixture_prob(self.weights)
        mu = np.atleast_2d(np.asarray(self.locations, dtype=float))
        scales, chol = _check_spd(self.scales, "scale matrices")
        nu = np.asarray(self.dof, dtype=float)
        if not (len(p) == len(mu) == len(scales) == len(nu)):
            raise ModelError("component count mismatch across parameters")
        if mu.shape[1] != scales.shape[1]:
            raise ModelError("location/scale dimension mismatch")
        if np.any(nu <= 1.0):
            raise ModelError("degrees of freedom must exceed 1")
        for name, arr in (("weights", p), ("locations", mu), ("scales", scales), ("dof", nu)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        chol.setflags(write=False)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def covariance(self) -> np.ndarray:
        """Covariance of the mixture (requires all dof > 2)."""
        if np.any(self.dof <= 2.0):
            raise ModelError("covariance undefined: some dof <= 2")
        comp_cov = self.scales * (self.dof / (self.dof - 2.0))[:, None, None]
        return _mixture_covariance(self.weights, self.locations, comp_cov)

    def mean(self) -> np.ndarray:
        return self.weights @ self.locations


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of multivariate Gaussian components."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        p = _check_mixture_prob(self.weights)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs, chol = _check_spd(self.covariances, "covariance matrices")
        if not (len(p) == len(mu) == len(covs)):
            raise ModelError("component count mismatch across parameters")
        if mu.shape[1] != covs.shape[1]:
            raise ModelError("mean/covariance dimension mismatch")
        for name, arr in (("weights", p), ("means", mu), ("covariances", covs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        chol.setflags(write=False)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def covariance(self) -> np.ndarray:
        return _mixture_covariance(self.weights, self.means, self.covariances)

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


def _mixture_covariance(p, mu, comp_cov) -> np.ndarray:
    mbar = p @ mu
    centered = mu - mbar
    between = np.einsum("k,ki,kj->ij", p, centered, centered)
    within = np.einsum("k,kij->ij", p, comp_cov)
    return within + between


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


def sample_tmix(model: StudentTMixture, n: int, seed: int) -> ReturnSample:
    """Draw n i.i.d. returns from a Student-t mixture.

    Each draw picks a component from the mixture probabilities, then applies
    the normal/chi-square representation location + chol(scale) z sqrt(nu/V)
    with V ~ chi2(nu). Bit-reproducible for a fixed seed.
    """
    if n < 1:
        raise InputError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.dim))
    chi = rng.chisquare(model.dof[comp])
    x = np.empty((n, model.dim))
    for k in range(model.n_components):
        idx = comp == k
        if not idx.any():
            continue
        scale = np.sqrt(model.dof[k] / chi[idx])[:, None]
        x[idx] = model.locations[k] + (z[idx] @ model._chol[k].T) * scale
    return ReturnSample(x)


def sample_gmix(model: GaussianMixture, n: int, seed: int) -> ReturnSample:
    """Draw n i.i.d. returns from a Gaussian mixture; see sample_tmix."""
    if n < 1:
        raise InputError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.dim))
    x = np.empty((n, model.dim))
    for k in range(model.n_components):
        idx = comp == k
        if not idx.any():
            continue
        x[idx] = model.means[k] + z[idx] @ model._chol[k].T
    return ReturnSample(x)


def sample_model(model, n: int, seed: int) -> ReturnSample:
    if isinstance(model, StudentTMixture):
        return sample_tmix(model, n, seed)
    if isinstance(model, GaussianMixture):
        return sample_gmix(model, n, seed)
    raise InputError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# loss distribution of -y'X under a Student-t mixture

def _portfolio_params(model: StudentTMixture, y: np.ndarray):
    y = _values_of(y)
    sig2 = np.einsum("i,kij,j->k", y, model.scales, y)
    if np.any(sig2 <= 0.0):
        raise NumericError("degenerate portfolio scale")
    return np.sqrt(sig2), model.locations @ y


def loss_cdf_tmix(model: StudentTMixture, y, z: float) -> float:
    """P(-y'X <= z): mixture of standard-t cdfs at (z + y'mu_k) / sqrt(y'L_k y)."""
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights, stats.t.cdf((z + m) / sig, model.dof)))


def loss_pdf_tmix(model: StudentTMixture, y, z: float) -> float:
    """Density of the loss -y'X at z."""
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights / sig, stats.t.pdf((z + m) / sig, model.dof)))


# ---------------------------------------------------------------------------
# EM fitting

@dataclass(frozen=True)
class EMConfig:
    """Stopping and initialization controls for mixture EM fits."""

    tol: float = 1e-8          # relative gain of per-observation log-likelihood
    max_iters: int = 500
    seed: int = 0
    ridge: float = 1e-10       # diagonal boost, scaled by trace/d, on Cholesky failure


class FitError(NumericError):
    """EM could not produce a valid mixture."""


def _kmeanspp_responsibilities(x: np.ndarray, n_comp: int, rng) -> np.ndarray:
    # k-means++ style seeding on standardized data, then softened hard
    # assignment; returns the N x n responsibilities
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (x - x.mean(axis=0)) / sd
    n = len(z)
    centers = [z[rng.integers(n)]]
    for _ in range(1, n_comp):
        d2 = np.min(np.stack([((z - c) ** 2).sum(axis=1) for c in centers]), axis=0)
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        centers.append(z[rng.choice(n, p=probs)])
    d2 = np.stack([((z - c) ** 2).sum(axis=1) for c in centers])
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
    the squared Mahalanobis distance, else None."""
    d, n = xt.shape
    out = np.empty((len(p), n))
    u = None if nu is None else np.empty((len(p), n))
    for k in range(len(p)):
        z = solve_triangular(chols[k], np.eye(d), lower=True) @ (xt - mu[k][:, None])
        delta = np.einsum("ij,ij->j", z, z)
        logdet = 2.0 * np.log(np.diag(chols[k])).sum()
        if nu is None:
            out[k] = np.log(p[k]) - 0.5 * (d * np.log(2.0 * np.pi) + logdet + delta)
        else:
            out[k] = np.log(p[k]) + (gammaln((nu[k] + d) / 2.0) - gammaln(nu[k] / 2.0)
                                     - 0.5 * d * np.log(nu[k] * np.pi) - 0.5 * logdet
                                     - 0.5 * (nu[k] + d) * np.log1p(delta / nu[k]))
            u[k] = (nu[k] + d) / (nu[k] + delta)
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
    component costs one GEMM for the whitened residuals and one for the scatter.

    With nu_fixed set, runs the fixed-dof Student-t M-step with latent scale
    weights u = (nu + d) / (nu + mahalanobis^2); otherwise plain Gaussian EM.
    The per-observation log-likelihood trace is checked to be non-decreasing.
    """
    n, d = x.shape
    student = nu_fixed is not None
    if student:
        nu_fixed = np.asarray(nu_fixed, dtype=float)
        if nu_fixed.shape != (n_comp,):
            raise InputError("nu_fixed must supply one dof per component")
        if np.any(nu_fixed <= 1.0):
            raise ModelError("fixed degrees of freedom must exceed 1")
    if n <= d * n_comp:
        raise InputError(f"need more than d*N = {d * n_comp} observations, got {n}")

    resp = _kmeanspp_responsibilities(x, n_comp, np.random.default_rng(config.seed))
    xt = np.ascontiguousarray(x.T)

    p = np.empty(n_comp)
    mu = np.empty((n_comp, d))
    mats = np.empty((n_comp, d, d))
    chols = np.empty_like(mats)

    def m_step(resp, w):
        for k in range(n_comp):
            rk = resp[k].sum()
            p[k] = rk / n
            mu[k] = xt @ w[k] / w[k].sum()
            dxt = xt - mu[k][:, None]
            scatter = (dxt * w[k]) @ dxt.T / rk
            mats[k], chols[k] = _safe_cholesky(0.5 * (scatter + scatter.T), config.ridge)

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
        m_step(resp, resp if u is None else resp * u)

    if student:
        model = StudentTMixture(p.copy(), mu.copy(), mats.copy(), nu_fixed.copy())
    else:
        model = GaussianMixture(p.copy(), mu.copy(), mats.copy())
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
    student = isinstance(model, StudentTMixture)
    log_joint, _ = _log_joint(np.ascontiguousarray(sample.data.T), model.weights,
                              model.locations if student else model.means,
                              model._chol, model.dof if student else None)
    return float(_normalize_columns(log_joint).mean())


# ---------------------------------------------------------------------------
# synthetic data-generating process

@dataclass(frozen=True)
class DGPSpec:
    """Magnitudes for the synthetic two-regime ground-truth generator.

    Defaults mirror daily-equity-return scales: locations of order 1e-3 and
    scale matrices of order 1e-4, with a calm and a stressed regime.
    """

    loc_scale: float = 1e-3
    var_scale: float = 1e-4
    avg_corr: float = 0.3
    weight_range: tuple[float, float] = (0.6, 0.8)
    calm_loc_range: tuple[float, float] = (0.5, 3.0)
    stressed_loc_range: tuple[float, float] = (1.0, 2.0)
    vol_jitter: tuple[float, float] = (0.7, 1.3)
    stressed_vol_mult: float = 2.0
    dof: tuple[float, float] = (4.0, 2.5)


def synth_dgp(d: int, seed: int, spec: DGPSpec = DGPSpec()) -> StudentTMixture:
    """Build a random but valid two-component Student-t mixture of dimension d.

    Scale matrices are built as A'A plus a small diagonal, with a common
    factor giving the configured average correlation, so Cholesky always
    succeeds. Deterministic per seed.
    """
    if d < 2:
        raise InputError("need at least two assets")
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(*spec.weight_range)
    mu_calm = rng.uniform(*spec.calm_loc_range, size=d) * spec.loc_scale
    mu_stressed = -rng.uniform(*spec.stressed_loc_range, size=d) * spec.loc_scale
    beta = np.sqrt(spec.avg_corr / (1.0 - spec.avg_corr))
    scales = []
    for mult in (1.0, spec.stressed_vol_mult):
        k = d + 2
        common = rng.standard_normal((k, 1))
        a = beta * common + rng.standard_normal((k, d))
        m = a.T @ a
        dg = np.sqrt(np.diag(m))
        corr = m / np.outer(dg, dg)
        vols = np.sqrt(spec.var_scale) * mult * rng.uniform(*spec.vol_jitter, size=d)
        scales.append(corr * np.outer(vols, vols) + (1e-8 * spec.var_scale) * np.eye(d))
    return StudentTMixture(
        np.array([w1, 1.0 - w1]),
        np.vstack([mu_calm, mu_stressed]),
        np.array(scales),
        np.array(spec.dof),
    )


# ---------------------------------------------------------------------------
# file formats

def model_to_dict(model) -> dict:
    if isinstance(model, StudentTMixture):
        return {
            "type": "tmix",
            "p": model.weights.tolist(),
            "mu": model.locations.tolist(),
            "scale": model.scales.tolist(),
            "nu": model.dof.tolist(),
        }
    if isinstance(model, GaussianMixture):
        return {
            "type": "gmix",
            "p": model.weights.tolist(),
            "mu": model.means.tolist(),
            "scale": model.covariances.tolist(),
        }
    raise InputError(f"unsupported model type {type(model).__name__}")


def model_from_dict(doc: dict):
    try:
        kind = doc["type"]
        p = doc["p"]
        mu = doc["mu"]
        scale = doc["scale"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"model document missing field: {exc}") from exc
    if kind == "tmix":
        if "nu" not in doc:
            raise InputError("tmix model requires a 'nu' field")
        return StudentTMixture(p, mu, scale, doc["nu"])
    if kind == "gmix":
        return GaussianMixture(p, mu, scale)
    raise InputError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return model_from_dict(doc)


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
