import csv
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import gammaln, logsumexp

import riskbudget as rb
from riskbudget import (EMConfig, GaussianMixture, ReturnSample,
                        StudentTMixture, em_fit_gmix, em_fit_tmix,
                        loss_cdf_tmix, loss_pdf_tmix, sample_gmix,
                        sample_tmix, synth_dgp)
from riskbudget.core import InputError
from riskbudget.models import (ModelError, _kmeanspp_responsibilities,
                               _safe_cholesky, mixture_loglik)


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

    def test_covariance_mixture(self, gmix_stressed):
        # covariance of a two-point mixture: within + between parts
        m = gmix_stressed
        p = m.weights
        mbar = p @ m.means
        want = sum(p[k] * (m.covariances[k]
                           + np.outer(m.means[k] - mbar, m.means[k] - mbar))
                   for k in range(2))
        assert np.abs(m.covariance() - want).max() < 1e-15


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
        x = sample_gmix(gmix_calm, 10 ** 5, seed=3).data
        cov = np.cov(x.T)
        target = gmix_calm.covariances[0]
        assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()

    def test_stressed_mixture_negative_skew(self, gmix_stressed):
        x = sample_gmix(gmix_stressed, 10 ** 5, seed=4).data
        assert stats.skew(x[:, 1]) < 0.0

    def test_collapsed_mixture_is_gaussian(self):
        mu = np.array([0.01, -0.02])
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        two = GaussianMixture(np.array([0.5, 0.5]), np.array([mu, mu]),
                              np.array([cov, cov]))
        one = GaussianMixture(np.array([1.0]), np.array([mu]), np.array([cov]))
        a = sample_gmix(two, 20_000, seed=5).data
        b = sample_gmix(one, 20_000, seed=6).data
        proj = np.array([0.7, 0.3])
        stat = stats.ks_2samp(a @ proj, b @ proj)
        assert stat.pvalue > 0.01


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


class TestEMGaussian:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4000, 3)) @ np.diag([1.0, 2.0, 0.5]) + [0.1, -0.2, 0.3]
        sample = ReturnSample(x)
        fitted = em_fit_gmix(sample, 1, EMConfig(seed=0))
        assert np.abs(fitted.means[0] - x.mean(axis=0)).max() < 1e-9
        want_cov = np.cov(x.T, ddof=0)
        assert np.abs(fitted.covariances[0] - want_cov).max() < 1e-9

    def test_underestimates_heavy_tail_quantile(self, tmix_demo):
        # mis-specification oracle: a Gaussian-mixture fit on t-mixture data
        # widens one component enough to cover the 99.5% loss quantile, but
        # the extreme tail stays strictly below the empirical one
        n = 10 ** 6
        data = sample_tmix(tmix_demo, n, seed=16)
        fitted = em_fit_gmix(data, 2, EMConfig(seed=0, tol=1e-7, max_iters=150))
        y = np.full(4, 0.25)
        sim = sample_gmix(fitted, n, seed=17)
        emp_q = np.quantile(-(data.data @ y), 0.9999)
        fit_q = np.quantile(-(sim.data @ y), 0.9999)
        assert fit_q < emp_q

    def test_label_permutation_invariance(self, gmix_stressed):
        x = sample_gmix(gmix_stressed, 300, seed=18)
        swapped = GaussianMixture(gmix_stressed.weights[::-1],
                                  gmix_stressed.means[::-1],
                                  gmix_stressed.covariances[::-1])
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
            mats[k], chols[k] = _safe_cholesky(0.5 * (scatter + scatter.T), config.ridge)

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
        sample = sample_gmix(gmix_stressed, 2 * 10 ** 4, seed=32)
        fitted, trace = em_fit_gmix(sample, 2, self.CONFIG, return_trace=True)
        p, mu, mats, want_trace = _oracle_em(sample.data, 2, self.CONFIG)
        assert len(trace) == len(want_trace)
        _assert_rel_close(fitted.weights, p, 1e-9)
        _assert_rel_close(fitted.means, mu, 1e-9)
        _assert_rel_close(fitted.covariances, mats, 1e-9)
        _assert_rel_close(trace, want_trace, 1e-12)
        want = _oracle_loglik(sample.data, fitted.weights, fitted.means, fitted._chol)
        assert abs(mixture_loglik(fitted, sample) - want) <= 1e-12 * abs(want)


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
