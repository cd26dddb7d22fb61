import csv
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import gammaln, logsumexp

import riskbudget as rb
from riskbudget import (EMConfig, GaussianMixture, ReturnSample,
                        StudentTMixture, em_fit_gmix, em_fit_tmix,
                        sample_model, sample_tmix, synth_dgp)
from riskbudget.core import InputError
from riskbudget.models import (_EM_RIDGE, ModelError, _kmeanspp_responsibilities,
                               _normalize_columns, _safe_cholesky,
                               mixture_loglik, model_from_dict)

from conftest import loss_cdf_tmix, loss_pdf_tmix


def make_tmix(p, mu, scales, nu):
    return StudentTMixture(np.asarray(p, float), np.asarray(mu, float),
                           np.asarray(scales, float), np.asarray(nu, float))


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError):
            make_tmix([0.6, 0.3], np.zeros((2, 2)), [np.eye(2)] * 2, [4.0, 4.0])

    def test_scale_must_be_spd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ModelError):
            make_tmix([1.0], np.zeros((1, 2)), [bad], [4.0])

    def test_asymmetric_scale_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ModelError):
            make_tmix([1.0], np.zeros((1, 2)), [bad], [4.0])

    def test_dof_above_one(self):
        with pytest.raises(ModelError):
            make_tmix([1.0], np.zeros((1, 2)), [np.eye(2)], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,field", [
        ("tmix", "p"), ("tmix", "mu"), ("tmix", "scale"), ("tmix", "nu"),
        ("gmix", "p"), ("gmix", "mu"), ("gmix", "scale")])
    def test_non_finite_field_rejected(self, kind, field, bad):
        doc = {"type": kind, "p": [0.5, 0.5], "mu": [[0.0, 0.1], [0.2, 0.0]],
               "scale": [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()],
               "nu": [4.0, 5.0]}
        if kind == "gmix":
            del doc["nu"]
        model_from_dict(doc)
        target = doc[field]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = bad
        names = {"p": "probabilities", "mu": "locations", "scale": "scale",
                 "nu": "degrees of freedom"}
        with pytest.raises(ModelError, match=names[field]):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind, extra, key", [
        ("gmix", {"nu": [4.0], "sacle": 1}, "nu"), ("gmix", {"sacle": 1}, "sacle"),
        ("tmix", {"df": [4.0, 5.0]}, "df")])
    def test_unknown_field_rejected(self, kind, extra, key):
        # a misspelt or foreign key is an error, not a silently ignored field
        doc = {"type": kind, "p": [0.5, 0.5], "mu": [[0.0, 0.1], [0.2, 0.0]],
               "scale": [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()]}
        if kind == "tmix":
            doc["nu"] = [4.0, 5.0]
        model_from_dict(doc)
        with pytest.raises(InputError, match=f"unknown field '{key}'"):
            model_from_dict({**doc, **extra})

    def test_covariance_mixture(self, gmix_stressed):
        # covariance of a two-point mixture: within + between parts
        m = gmix_stressed
        p = m.weights
        mbar = p @ m.locations
        want = sum(p[k] * (m.scales[k]
                           + np.outer(m.locations[k] - mbar, m.locations[k] - mbar))
                   for k in range(2))
        assert np.abs(m.covariance() - want).max() < 1e-15


# Bad arrays, each with the message that both families give for it.
SHARED_CHECKS = [
    ({"scale": [[[1.0, 2.0], [2.0, 1.0]], np.eye(2)]},
     "scale matrices not positive-definite"),
    ({"scale": [[[1.0, 0.5], [0.2, 1.0]], np.eye(2)]}, "scale matrices asymmetric by 0.3"),
    ({"mu": [[np.nan, 0.1], [0.2, 0.0]]}, "locations must be finite"),
    ({"p": [0.6, 0.3]}, "mixture probabilities must be positive and sum to one"),
    ({"mu": np.zeros((3, 2))}, "component count mismatch across parameters"),
]


@pytest.mark.parametrize("family", [StudentTMixture, GaussianMixture])
def test_families_share_one_body(family):
    def build(p=(0.5, 0.5), mu=((0.0, 0.1), (0.2, 0.0)), scale=(np.eye(2), 2.0 * np.eye(2))):
        arrays = [np.asarray(a, float) for a in (p, mu, scale)]
        if family is StudentTMixture:
            return family(*arrays, np.array([4.0, 5.0]))
        return family(*arrays)

    for bad, message in SHARED_CHECKS:
        with pytest.raises(ModelError, match="^" + re.escape(message)):
            build(**bad)
    model = build()
    assert (model.dof is None) == (family is GaussianMixture)
    want = rb.sample_model(model, 5000, seed=3).data.tobytes()
    assert sample_tmix(model, 5000, seed=3).data.tobytes() == want


class TestSampleTmix:
    def test_moments_large_dof(self):
        d = 3
        model = make_tmix([1.0], np.zeros((1, d)), [np.eye(d)], [400.0])
        n = 10 ** 5
        sample = sample_tmix(model, n, seed=42)
        x = sample.data
        assert np.abs(x.mean(axis=0)).max() < 3.0 * np.sqrt(d / n) ** 0.5
        cov = np.cov(x.T)
        assert np.abs(cov - np.eye(d)).max() < 0.05

    def test_marginal_medians_at_location(self):
        loc = np.array([0.5, -1.5, 3.0])
        model = make_tmix([1.0], [loc], [np.eye(3) * 4.0], [3.0])
        x = sample_tmix(model, 200_000, seed=1).data
        med = np.median(x, axis=0)
        assert np.abs(med - loc).max() < 0.05

    def test_bit_reproducible(self, tmix_demo):
        a = sample_tmix(tmix_demo, 5000, seed=9).data
        b = sample_tmix(tmix_demo, 5000, seed=9).data
        assert np.array_equal(a, b)
        c = sample_tmix(tmix_demo, 5000, seed=10).data
        assert not np.array_equal(a, c)

    def test_sampler_matches_loss_cdf(self, tmix_demo):
        # Kolmogorov-Smirnov at the 1% level: D_n < 1.63 / sqrt(n)
        n = 10 ** 5
        y = np.array([0.17958, 0.28127, 0.30483, 0.23432])
        losses = -(sample_tmix(tmix_demo, n, seed=77).data @ y)
        s = np.sort(losses)
        model_cdf = np.array([loss_cdf_tmix(tmix_demo, y, z) for z in s[::100]])
        emp_hi = np.arange(1, n + 1)[::100] / n
        emp_lo = np.arange(0, n)[::100] / n
        d_stat = max(np.abs(model_cdf - emp_hi).max(), np.abs(model_cdf - emp_lo).max())
        assert d_stat < 1.63 / np.sqrt(n / 100)

    def test_size_validation(self, tmix_demo):
        with pytest.raises(ValueError):
            sample_tmix(tmix_demo, 0, seed=1)


class TestSampleGmix:
    def test_single_component_covariance(self, gmix_calm):
        x = sample_model(gmix_calm, 10 ** 5, seed=3).data
        cov = np.cov(x.T)
        target = gmix_calm.scales[0]
        assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()

    def test_stressed_mixture_negative_skew(self, gmix_stressed):
        x = sample_model(gmix_stressed, 10 ** 5, seed=4).data
        assert stats.skew(x[:, 1]) < 0.0

    def test_collapsed_mixture_is_gaussian(self):
        mu = np.array([0.01, -0.02])
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        two = GaussianMixture(np.array([0.5, 0.5]), np.array([mu, mu]),
                              np.array([cov, cov]))
        one = GaussianMixture(np.array([1.0]), np.array([mu]), np.array([cov]))
        a = sample_model(two, 20_000, seed=5).data
        b = sample_model(one, 20_000, seed=6).data
        proj = np.array([0.7, 0.3])
        stat = stats.ks_2samp(a @ proj, b @ proj)
        assert stat.pvalue > 0.01


# The samplers as they stood before the block transform: one boolean-mask
# gather, GEMM and scatter per component over the whole sample. Kept as the
# oracle the block sampler must reproduce byte for byte.

def _oracle_sample_tmix(model, n, seed):
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
    return x, np.bincount(comp, minlength=model.n_components)


def _oracle_sample_gmix(model, n, seed):
    rng = np.random.default_rng(seed)
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.dim))
    x = np.empty((n, model.dim))
    for k in range(model.n_components):
        idx = comp == k
        if not idx.any():
            continue
        x[idx] = model.locations[k] + z[idx] @ model._chol[k].T
    return x, np.bincount(comp, minlength=model.n_components)


def _assert_same_draws(model, n, seed):
    student = isinstance(model, StudentTMixture)
    got = (sample_tmix if student else sample_model)(model, n, seed).data
    want, counts = (_oracle_sample_tmix if student else _oracle_sample_gmix)(model, n, seed)
    if np.any(counts == 1):
        # the oracle transforms a component's single row as a one-row matmul,
        # which NumPy runs as a matrix-vector product and which rounds
        # differently from the block's GEMM: allow a few units in the last place
        assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
    else:
        assert got.tobytes() == want.tobytes()


# The block transform as it stood before the per-component gather: per block
# and component, one matmul of the whole block, the Student scale and the
# location, then a masked copy of that component's rows. Kept as the oracle
# the gather transform must reproduce byte for byte.

def _oracle_masked_blocks(weights, locations, chols, dof, n, seed):
    n_comp, d = locations.shape
    rng = np.random.default_rng(seed)
    comp = rng.choice(n_comp, size=n, p=weights)
    z = rng.standard_normal((n, d))
    if dof is not None:
        nu = dof[comp]
        t_scale = np.sqrt(nu / rng.chisquare(nu))
    block = rb.models._SAMPLE_BLOCK_ROWS
    buf = np.empty((block + 1, d))
    start = 0
    while start < n:
        stop = n if start + block + 1 >= n else start + block
        rows = slice(start, stop)
        out = buf[:stop - start]
        for k in range(n_comp):
            mask = comp[rows] == k
            if not mask.any():
                continue
            np.matmul(z[rows], chols[k].T, out=out)
            if dof is not None:
                out *= t_scale[rows, None]
            out += locations[k]
            np.copyto(z[rows], out, where=mask[:, None])
        start = stop
    return z


def _sampler_model(name):
    if name == "synth10":
        return synth_dgp(10, seed=29)
    if name == "rare":
        # a component of weight 1e-3 has about four rows per default block
        base = synth_dgp(4, seed=3)
        return make_tmix([0.999, 0.001], base.locations[:2], base.scales[:2], [4.0, 2.5])
    return rb.load_model(rb.bundled_model_path(name))


class TestSamplerOracle:
    SEEDS = (0, 1, 17, 2024)
    SIZES = (2, 64, 3500, rb.models._SAMPLE_BLOCK_ROWS + 1, 100_003)

    @pytest.mark.parametrize("name", ["tmix4_demo", "gmix3_stressed", "synth10"])
    def test_block_sampler_matches_oracle(self, name):
        if name == "synth10":
            model = synth_dgp(10, seed=29)
        else:
            model = rb.load_model(rb.bundled_model_path(name))
        for n in self.SIZES:
            for seed in self.SEEDS:
                _assert_same_draws(model, n, seed)

    @pytest.mark.parametrize("block", [2, 5, 1000])
    def test_block_size_leaves_bytes(self, monkeypatch, tmix_demo, gmix_stressed, block):
        want = [sample_tmix(tmix_demo, 3001, seed=30).data.tobytes(),
                sample_model(gmix_stressed, 3001, seed=30).data.tobytes()]
        monkeypatch.setattr(rb.models, "_SAMPLE_BLOCK_ROWS", block)
        got = [sample_tmix(tmix_demo, 3001, seed=30).data.tobytes(),
               sample_model(gmix_stressed, 3001, seed=30).data.tobytes()]
        assert got == want

    @pytest.mark.parametrize("name", ["synth10", "tmix4_demo", "gmix3_stressed", "rare"])
    def test_gather_transform_matches_masked_blocks(self, name):
        model = _sampler_model(name)
        args = (model.weights, model.locations, model._chol, model.dof)
        for n in (2, 3, rb.models._SAMPLE_BLOCK_ROWS + 1, 100_003):
            for seed in self.SEEDS:
                got = rb.sample_model(model, n, seed).data
                assert got.tobytes() == _oracle_masked_blocks(*args, n, seed).tobytes()
        if name == "rare":
            # some default-size block holds exactly one row of the rare component
            starts = np.arange(0, 100_003, rb.models._SAMPLE_BLOCK_ROWS)
            assert any(np.any(np.add.reduceat(np.random.default_rng(seed).choice(
                2, size=100_003, p=model.weights), starts) == 1) for seed in self.SEEDS)

    @pytest.mark.parametrize("name", ["synth10", "gmix3_stressed"])
    def test_sample_held_once(self, name):
        # the rows are written over their normals: no second n x d array
        if name == "synth10":
            model = synth_dgp(10, 5)
        else:
            model = rb.load_model(rb.bundled_model_path(name))
        tracemalloc.start()
        try:
            sample = rb.sample_model(model, 200_000, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * sample.data.nbytes

    def test_chi_squares_drawn_per_block(self):
        # no n-vectors of dof and chi-square variates beside the sample
        model = synth_dgp(10, 5)
        tracemalloc.start()
        try:
            sample = rb.sample_model(model, 200_000, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * sample.data.nbytes

    @pytest.mark.parametrize("name", ["synth10", "gmix3_stressed"])
    def test_out_buffer_gives_same_bytes(self, name):
        model = _sampler_model(name)
        n = rb.models._SAMPLE_BLOCK_ROWS + 7
        buf = np.empty((n, model.dim))
        got = rb.sample_model(model, n, seed=32, out=buf[...])
        assert got.data.base is buf
        assert got.data.tobytes() == rb.sample_model(model, n, seed=32).data.tobytes()


class TestLossDistribution:
    def test_cdf_limits_and_symmetry(self, tmix_demo):
        y = np.full(4, 0.25)
        assert loss_cdf_tmix(tmix_demo, y, -1e6) < 1e-12
        assert loss_cdf_tmix(tmix_demo, y, 1e6) > 1.0 - 1e-12
        model = make_tmix([1.0], np.zeros((1, 2)), [np.eye(2) * 0.5], [4.0])
        assert abs(loss_cdf_tmix(model, np.array([1.0, 1.0]), 0.0) - 0.5) < 1e-14

    def test_cdf_monotone(self, tmix_demo):
        rng = np.random.default_rng(7)
        y = np.array([0.1, 0.2, 0.3, 0.4])
        z = np.sort(rng.uniform(-0.2, 0.2, size=(1000, 2)), axis=1)
        for lo, hi in z:
            assert loss_cdf_tmix(tmix_demo, y, lo) <= loss_cdf_tmix(tmix_demo, y, hi)

    def test_pdf_is_cdf_derivative(self, tmix_demo):
        y = np.array([0.3, 0.3, 0.2, 0.2])
        h = 1e-6
        for z in (-0.05, 0.0, 0.02):
            fd = (loss_cdf_tmix(tmix_demo, y, z + h)
                  - loss_cdf_tmix(tmix_demo, y, z - h)) / (2 * h)
            assert abs(loss_pdf_tmix(tmix_demo, y, z) - fd) < 1e-5 * max(1.0, fd)


class TestEMStudent:
    def test_recovers_single_component(self):
        loc = np.array([0.3, -0.2])
        lam = np.array([[0.5, 0.2], [0.2, 1.0]])
        truth = make_tmix([1.0], [loc], [lam], [5.0])
        n = 10 ** 5
        sample = sample_tmix(truth, n, seed=11)
        fitted, trace = em_fit_tmix(sample, 1, np.array([5.0]),
                                    EMConfig(seed=0), return_trace=True)
        se = np.sqrt(np.diag(lam) * (5.0 / 3.0) / n)
        assert np.abs(fitted.locations[0] - loc).max() < 3.0 * se.max()
        assert np.abs(fitted.scales[0] - lam).max() < 0.1 * np.abs(lam).max()
        assert all(b >= a - 1e-10 * max(1, abs(a)) for a, b in zip(trace, trace[1:]))

    def test_held_out_likelihood_two_components(self, tmix_demo):
        train = sample_tmix(tmix_demo, 10 ** 6, seed=12)
        fitted = em_fit_tmix(train, 2, np.array([4.0, 2.5]),
                             EMConfig(seed=0, tol=1e-7, max_iters=200))
        held = sample_tmix(tmix_demo, 2 * 10 ** 5, seed=13)
        ll_fit = mixture_loglik(fitted, held)
        ll_true = mixture_loglik(tmix_demo, held)
        assert abs(ll_fit - ll_true) < 0.005 * abs(ll_true)

    def test_label_permutation_invariance(self, tmix_demo):
        x = sample_tmix(tmix_demo, 300, seed=14)
        swapped = StudentTMixture(tmix_demo.weights[::-1], tmix_demo.locations[::-1],
                                  tmix_demo.scales[::-1], tmix_demo.dof[::-1])
        assert abs(mixture_loglik(tmix_demo, x) - mixture_loglik(swapped, x)) < 1e-12

    def test_needs_enough_observations(self):
        x = ReturnSample(np.random.default_rng(0).normal(size=(7, 4)))
        with pytest.raises(ValueError):
            em_fit_tmix(x, 2, np.array([4.0, 2.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0])
    def test_fixed_dof_must_be_finite_above_one(self, bad):
        x = ReturnSample(np.random.default_rng(0).normal(size=(300, 4)))
        with pytest.raises(ModelError, match="degrees of freedom"):
            em_fit_tmix(x, 2, np.array([4.0, bad]))


class TestEMConfig:
    @pytest.mark.parametrize("field, value", [
        ("tol", float("nan")), ("tol", float("inf")), ("tol", -1e-8), ("tol", "1e-8"),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True), ("seed", -1),
        ("seed", 1.0)])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            EMConfig(**{field: value})


class TestEMGaussian:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4000, 3)) @ np.diag([1.0, 2.0, 0.5]) + [0.1, -0.2, 0.3]
        sample = ReturnSample(x)
        fitted = em_fit_gmix(sample, 1, EMConfig(seed=0))
        assert np.abs(fitted.locations[0] - x.mean(axis=0)).max() < 1e-9
        want_cov = np.cov(x.T, ddof=0)
        assert np.abs(fitted.scales[0] - want_cov).max() < 1e-9

    def test_underestimates_heavy_tail_quantile(self, tmix_demo):
        # mis-specification oracle: a Gaussian-mixture fit on t-mixture data
        # widens one component enough to cover the 99.5% loss quantile, but
        # the extreme tail stays strictly below the empirical one
        n = 10 ** 6
        data = sample_tmix(tmix_demo, n, seed=16)
        fitted = em_fit_gmix(data, 2, EMConfig(seed=0, tol=1e-7, max_iters=150))
        y = np.full(4, 0.25)
        sim = sample_model(fitted, n, seed=17)
        emp_q = np.quantile(-(data.data @ y), 0.9999)
        fit_q = np.quantile(-(sim.data @ y), 0.9999)
        assert fit_q < emp_q

    def test_label_permutation_invariance(self, gmix_stressed):
        x = sample_model(gmix_stressed, 300, seed=18)
        swapped = GaussianMixture(gmix_stressed.weights[::-1],
                                  gmix_stressed.locations[::-1],
                                  gmix_stressed.scales[::-1])
        assert abs(mixture_loglik(gmix_stressed, x)
                   - mixture_loglik(swapped, x)) < 1e-12


# Row-major EM as it stood before the component-major rewrite: a triangular
# solve per component, scipy's logsumexp and a per-column M-step. Kept as the
# oracle the component-major loop must reproduce to rounding.

def _oracle_log_density(x, mu, chol, nu):
    d = x.shape[1]
    z = solve_triangular(chol, (x - mu).T, lower=True).T
    delta = np.einsum("ij,ij->i", z, z)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    if nu is None:
        return -0.5 * (d * np.log(2.0 * np.pi) + logdet + delta), delta
    logpdf = (gammaln((nu + d) / 2.0) - gammaln(nu / 2.0)
              - 0.5 * d * np.log(nu * np.pi) - 0.5 * logdet
              - 0.5 * (nu + d) * np.log1p(delta / nu))
    return logpdf, delta


def _oracle_em(x, n_comp, config, nu_fixed=None):
    n, d = x.shape
    student = nu_fixed is not None
    resp = _kmeanspp_responsibilities(x, n_comp, np.random.default_rng(config.seed)).T
    p = np.empty(n_comp)
    mu = np.empty((n_comp, d))
    mats = np.empty((n_comp, d, d))
    chols = np.empty_like(mats)

    def m_step(resp, u):
        w = resp * u
        for k in range(n_comp):
            p[k] = resp[:, k].mean()
            wk = w[:, k]
            mu[k] = wk @ x / wk.sum()
            dx = x - mu[k]
            scatter = (dx * wk[:, None]).T @ dx / resp[:, k].sum()
            mats[k], chols[k] = _safe_cholesky(0.5 * (scatter + scatter.T), _EM_RIDGE)

    m_step(resp, np.ones_like(resp))
    trace = []
    log_resp = np.empty((n, n_comp))
    u = np.ones((n, n_comp))
    for _ in range(config.max_iters):
        for k in range(n_comp):
            lp, delta = _oracle_log_density(x, mu[k], chols[k],
                                            nu_fixed[k] if student else None)
            if student:
                u[:, k] = (nu_fixed[k] + d) / (nu_fixed[k] + delta)
            log_resp[:, k] = np.log(p[k]) + lp
        norms = logsumexp(log_resp, axis=1)
        ll = float(norms.mean())
        done = bool(trace) and abs(ll - trace[-1]) < config.tol * max(1.0, abs(trace[-1]))
        trace.append(ll)
        if done:
            break
        resp = np.exp(log_resp - norms[:, None])
        m_step(resp, u if student else np.ones_like(resp))
    return p, mu, mats, trace


def _oracle_loglik(x, weights, mu, chols, nu=None):
    parts = np.column_stack([
        np.log(weights[k]) + _oracle_log_density(x, mu[k], chols[k],
                                                 None if nu is None else nu[k])[0]
        for k in range(len(weights))])
    return float(logsumexp(parts, axis=1).mean())


def _assert_rel_close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _fit(family, sample, config):
    # (weights, locations, scales, trace, the fitted model) of a 2-component fit
    if family == "tmix":
        model, trace = em_fit_tmix(sample, 2, np.array([4.0, 2.5]), config,
                                   return_trace=True)
        return model.weights, model.locations, model.scales, trace, model
    model, trace = em_fit_gmix(sample, 2, config, return_trace=True)
    return model.weights, model.locations, model.scales, trace, model


BLOCK = rb.models._SAMPLE_BLOCK_ROWS


class TestEMOracle:
    CONFIG = EMConfig(seed=0, tol=1e-8, max_iters=500)

    def test_student_matches_row_major_oracle(self, tmix_demo):
        sample = sample_tmix(tmix_demo, 2 * 10 ** 4, seed=31)
        nu = np.array([4.0, 2.5])
        fitted, trace = em_fit_tmix(sample, 2, nu, self.CONFIG, return_trace=True)
        p, mu, mats, want_trace = _oracle_em(sample.data, 2, self.CONFIG, nu)
        assert len(trace) == len(want_trace)
        _assert_rel_close(fitted.weights, p, 1e-9)
        _assert_rel_close(fitted.locations, mu, 1e-9)
        _assert_rel_close(fitted.scales, mats, 1e-9)
        _assert_rel_close(trace, want_trace, 1e-12)
        want = _oracle_loglik(sample.data, fitted.weights, fitted.locations,
                              fitted._chol, fitted.dof)
        assert abs(mixture_loglik(fitted, sample) - want) <= 1e-12 * abs(want)

    def test_gaussian_matches_row_major_oracle(self, gmix_stressed):
        sample = sample_model(gmix_stressed, 2 * 10 ** 4, seed=32)
        fitted, trace = em_fit_gmix(sample, 2, self.CONFIG, return_trace=True)
        p, mu, mats, want_trace = _oracle_em(sample.data, 2, self.CONFIG)
        assert len(trace) == len(want_trace)
        _assert_rel_close(fitted.weights, p, 1e-9)
        _assert_rel_close(fitted.locations, mu, 1e-9)
        _assert_rel_close(fitted.scales, mats, 1e-9)
        _assert_rel_close(trace, want_trace, 1e-12)
        want = _oracle_loglik(sample.data, fitted.weights, fitted.locations, fitted._chol)
        assert abs(mixture_loglik(fitted, sample) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("family", ["tmix", "gmix"])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_matches_row_major_oracle_across_blocks(self, tmix_demo, family, n):
        sample = sample_tmix(tmix_demo, n, seed=n)
        nu = np.array([4.0, 2.5]) if family == "tmix" else None
        *fitted, trace, model = _fit(family, sample, self.CONFIG)
        *want, want_trace = _oracle_em(sample.data, 2, self.CONFIG, nu)
        assert len(trace) == len(want_trace)
        for got, expected in zip(fitted, want):
            _assert_rel_close(got, expected, 1e-9)
        _assert_rel_close(trace, want_trace, 1e-12)
        want_ll = _oracle_loglik(sample.data, *fitted[:2], model._chol, nu)
        assert abs(mixture_loglik(model, sample) - want_ll) <= 1e-12 * abs(want_ll)


# Whole-array EM as it stood before the passes went over column blocks: d x n
# temporaries per component and an n x d standardized copy for the seeding.
# A sample of at most one block must give its bits.

def _whole_array_kmeanspp(x, n_comp, rng):
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


def _whole_array_log_joint(xt, p, mu, chols, nu=None):
    d, n = xt.shape
    out = np.empty((len(p), n))
    u = None if nu is None else np.empty((len(p), n))
    delta = np.empty(n)
    for k in range(len(p)):
        z = solve_triangular(chols[k], np.eye(d), lower=True) @ (xt - mu[k][:, None])
        np.einsum("ij,ij->j", z, z, out=delta)
        logdet = 2.0 * np.log(np.diag(chols[k])).sum()
        row = out[k]
        if nu is None:
            np.add(d * np.log(2.0 * np.pi) + logdet, delta, out=row)
            np.multiply(0.5, row, out=row)
            np.subtract(np.log(p[k]), row, out=row)
        else:
            c = (gammaln((nu[k] + d) / 2.0) - gammaln(nu[k] / 2.0)
                 - 0.5 * d * np.log(nu[k] * np.pi) - 0.5 * logdet)
            np.divide(delta, nu[k], out=row)
            np.log1p(row, out=row)
            np.multiply(0.5 * (nu[k] + d), row, out=row)
            np.subtract(c, row, out=row)
            np.add(np.log(p[k]), row, out=row)
            np.add(nu[k], delta, out=u[k])
            np.divide(nu[k] + d, u[k], out=u[k])
    return out, u


def _whole_array_em(x, n_comp, config, nu_fixed=None):
    n, d = x.shape
    resp = _whole_array_kmeanspp(x, n_comp, np.random.default_rng(config.seed))
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
            mats[k], chols[k] = _safe_cholesky(0.5 * (scatter + scatter.T), _EM_RIDGE)

    m_step(resp, resp)
    trace = []
    for _ in range(config.max_iters):
        resp, u = _whole_array_log_joint(xt, p, mu, chols, nu_fixed)
        ll = float(_normalize_columns(resp).mean())
        done = bool(trace) and abs(ll - trace[-1]) < config.tol * max(1.0, abs(trace[-1]))
        trace.append(ll)
        if done:
            break
        m_step(resp, resp if u is None else resp * u)
    return p, mu, mats, trace


class TestEMBlocks:
    CONFIG = EMConfig(seed=0, tol=1e-8, max_iters=500)

    @pytest.mark.parametrize("family", ["tmix", "gmix"])
    @pytest.mark.parametrize("n", [300, BLOCK])
    def test_one_block_keeps_whole_array_bits(self, tmix_demo, family, n):
        sample = sample_tmix(tmix_demo, n, seed=n + 1)
        nu = np.array([4.0, 2.5]) if family == "tmix" else None
        *fitted, trace, model = _fit(family, sample, self.CONFIG)
        *want, want_trace = _whole_array_em(sample.data, 2, self.CONFIG, nu)
        for got, expected in zip(fitted, want):
            assert got.tobytes() == expected.tobytes()
        assert trace == want_trace
        log_joint, _ = _whole_array_log_joint(
            np.ascontiguousarray(sample.data.T), *fitted[:2], model._chol, nu)
        assert mixture_loglik(model, sample) == float(_normalize_columns(log_joint).mean())

    @pytest.mark.parametrize("n", [50, BLOCK - 1, BLOCK, BLOCK + 1, 100_003])
    def test_seeding_matches_whole_array(self, n):
        x = sample_tmix(synth_dgp(6, 8), n, seed=n).data
        for n_comp in (1, 2, 3):
            got = _kmeanspp_responsibilities(x, n_comp, np.random.default_rng(n_comp))
            want = _whole_array_kmeanspp(x, n_comp, np.random.default_rng(n_comp))
            assert got.tobytes() == want.tobytes()

    def test_working_set_bounded(self):
        # one d x n copy plus N x n arrays; whole-array passes read 4.9x
        sample = sample_tmix(synth_dgp(10, 5), 200_000, seed=33)
        tracemalloc.start()
        try:
            em_fit_tmix(sample, 2, np.array([4.0, 2.5]), EMConfig(seed=0, max_iters=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sample.data.nbytes


class TestSynthDgp:
    def test_deterministic(self):
        a = synth_dgp(6, seed=21)
        b = synth_dgp(6, seed=21)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.scales, b.scales)
        c = synth_dgp(6, seed=22)
        assert not np.array_equal(a.scales, c.scales)

    def test_magnitudes_and_weight_range(self):
        m = synth_dgp(12, seed=23)
        assert 0.6 <= m.weights[0] <= 0.8
        assert np.abs(m.locations).max() < 0.02
        assert np.diag(m.scales[0]).mean() == pytest.approx(1e-4, rel=1.0)
        assert tuple(m.dof) == (4.0, 2.5)

    def test_cholesky_sweep_high_dimension(self):
        # every generated scale matrix must factor; spot the whole seed range
        for seed in range(1000):
            synth_dgp(350, seed=seed)  # constructor runs Cholesky

    def test_pipeline_smoke(self):
        from riskbudget import (Budgets, ExpectedShortfall, SolverConfig,
                                es_tmix, reference_solve)
        model = synth_dgp(4, seed=24)
        cfg = SolverConfig(method="reference", stop_tol=1e-8)
        report = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), model, cfg)
        assert report.weights.values.min() > 0.0
        y = report.raw.values
        h = 1e-5
        grad = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            grad[i] = (es_tmix(model, y + e, 0.95)
                       - es_tmix(model, y - e, 0.95)) / (2 * h)
        grad -= 0.25 / y
        assert np.abs(grad).max() < 1e-8

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            synth_dgp(1, seed=0)


class TestModelIO:
    def test_json_round_trip(self, tmp_path, tmix_demo, gmix_stressed):
        for model in (tmix_demo, gmix_stressed):
            path = tmp_path / "model.json"
            rb.save_model(model, path)
            back = rb.load_model(path)
            assert type(back) is type(model)
            assert np.array_equal(back.weights, model.weights)

    def test_reject_non_spd(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "gmix", "p": [1.0], "mu": [[0, 0]],'
                        ' "scale": [[[1.0, 2.0], [2.0, 1.0]]]}')
        with pytest.raises(ModelError):
            rb.load_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="line"):
            rb.load_model(path)

    def test_sample_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(25)
        sample = ReturnSample(rng.normal(size=(50, 3)))
        for header in (False, True):
            path = tmp_path / f"sample_{header}.csv"
            rb.save_sample(sample, path, header=header)
            back = rb.load_sample(path, header=header)
            assert np.array_equal(back.data, sample.data)


def _oracle_save_sample(data, path, header):
    # the csv.writer + repr writer the bulk writer must match byte for byte
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"asset_{i + 1}" for i in range(data.shape[1])])
        for row in data:
            writer.writerow([repr(float(v)) for v in row])


class TestSampleCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(26)
        data = rng.standard_t(3.0, size=(200, 4)) * 1e-2
        data[:5] = [[1e-05, 5e-324, -0.0, 1e+22],
                    [9.999e-05, -1e-05, 0.0, -1e+22],
                    [1.0, -2.5, 1e16, 123456789.0],
                    [0.1, 1 / 3, -5e-324, 2.2250738585072014e-308],
                    [1.7976931348623157e308, 1e-300, 0.30000000000000004, -7.0]]
        for header in (False, True):
            got, want = tmp_path / f"got_{header}.csv", tmp_path / f"want_{header}.csv"
            rb.save_sample(ReturnSample(data), got, header=header)
            _oracle_save_sample(data, want, header)
            assert got.read_bytes() == want.read_bytes()
            back = rb.load_sample(got, header=header).data
            assert np.array_equal(back, data)
            assert np.array_equal(np.signbit(back), np.signbit(data))

    def test_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        data = np.random.default_rng(27).normal(size=(10, 3))
        monkeypatch.setattr(rb.models, "_CSV_BLOCK_ROWS", 3)
        rb.save_sample(ReturnSample(data), tmp_path / "got.csv")
        _oracle_save_sample(data, tmp_path / "want.csv", False)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("n", [50_000, 200_000])
    def test_memory_bounded(self, n):
        # 65,536-row blocks of Python objects read 41.6 and 54.5 MB here
        sample = sample_tmix(synth_dgp(10, 5), n, seed=34)
        tracemalloc.start()
        try:
            rb.save_sample(sample, os.devnull)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    @pytest.mark.parametrize("text, header", [
        ("1.0,2.0\r\n3.0\r\n", False),
        ("1.0,2.0\r\n3.0,abc\r\n", False),
        ("1.0,2.0\r\n3.0,\r\n", False),
        ("asset_1,asset_2\r\n1.0,2.0\r\n", False),
        ("", False),
        ("", True),
        ("asset_1,asset_2\r\n", True),
    ])
    def test_bad_input_rejected(self, tmp_path, text, header):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                rb.load_sample(path, header=header)
