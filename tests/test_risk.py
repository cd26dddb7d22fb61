import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq

import riskbudget as rb
from riskbudget import (Budgets, Deviation, DeviationPlusMean, ESMeanMixture,
                        ExpectedShortfall, Spectral, SpecError,
                        Volatility, empirical_var_method7, es_tmix, var_tmix)
from riskbudget.cli import main
from riskbudget.models import StudentTMixture
from riskbudget.risk import (_es_tmix_value_grad, _portfolio_params, _t_cdf, _t_pdf,
                             deviation_objective, deviation_subgradient,
                             empirical_risk, ru_objective, ru_subgradient,
                             spectral_objective, spectral_subgradient,
                             volatility_value_and_gradient)
from conftest import empirical_es, loss_cdf_tmix, loss_pdf_tmix

B2 = Budgets.equal(2)
B3 = Budgets.equal(3)
ES95 = {"measure": "es", "alpha": 0.95}


def single_t(nu=4.0, d=2, scale=1.0, loc=None):
    mu = np.zeros((1, d)) if loc is None else np.array([loc], dtype=float)
    lam = np.array([np.eye(d) * scale])
    return StudentTMixture(np.array([1.0]), mu, lam, np.array([nu]))


class TestMeasureSpecs:
    def test_validation(self):
        with pytest.raises(SpecError):
            ExpectedShortfall(alpha=1.0)
        with pytest.raises(SpecError):
            ExpectedShortfall(alpha=0.0)
        with pytest.raises(SpecError):
            ESMeanMixture(beta=0.0, delta=1.0, alpha=0.95)
        with pytest.raises(SpecError):
            Spectral(c=1.0)  # constant distortion is degenerate
        with pytest.raises(SpecError):
            Spectral(c=0.5, nodes=0)
        with pytest.raises(SpecError):
            Deviation(a=1.0, b=1.0, p=0.5)
        with pytest.raises(SpecError):
            Deviation(a=0.0, b=1.0, p=2.0)
        # deviation plus expected loss is homogeneous of one degree only at p=1
        with pytest.raises(SpecError):
            DeviationPlusMean(a=1.0, b=1.0, p=2.0, delta=1.0)
        with pytest.raises(SpecError):
            rb.measure_from_dict({"measure": "deviation_mean", "a": 1, "b": 1, "p": 2})

    def test_homogenization_power(self):
        assert Volatility().power == 2.0
        assert ExpectedShortfall(0.95).power == 1.0
        assert Spectral(c=0.05).power == 1.0
        assert Deviation(1.0, 1.0, 3.0).power == 3.0

    def test_json_round_trip(self):
        specs = [Volatility(), ExpectedShortfall(0.9),
                 ESMeanMixture(beta=1.0, delta=-1.0, alpha=0.95),
                 Spectral(c=0.05, nodes=12, subtract_mean=True),
                 Deviation(a=2.0, b=1.0, p=1.5),
                 DeviationPlusMean(a=1.0, b=1.0, p=1.0, delta=1.0)]
        for spec in specs:
            assert rb.measure_from_dict({"measure": spec.kind, **asdict(spec)}) == spec

    @pytest.mark.parametrize("doc", [
        {"measure": "es", "alpha": "x"},
        {"measure": "es_mean", "alpha": 0.9, "delta": "x"},
        {"measure": "spectral", "c": 0.5, "nodes": 2.5},
        {"measure": "spectral", "c": 0.5, "nodes": True},
        {"measure": "spectral", "c": 0.5, "subtract_mean": "false"},
        {"measure": "spectral", "c": 0.5, "node": 5},
        {"measure": "deviation", "a": float("nan"), "b": 1, "p": 1},
        # grids whose coefficients are all 0/0, or underflow to 0 at the first node
        {"measure": "spectral", "c": 1e-4, "nodes": 3},
        {"measure": "spectral", "c": 0.005, "nodes": 1000}])
    def test_bad_measure_document_rejected(self, tmp_path, capsys, recwarn, doc):
        with pytest.raises(SpecError):
            rb.measure_from_dict(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": doc, "solver": {"max_iters": 5}}))
        code = main(["solve", "--method", "osbgd", "--sample-size", "2000",
                     "--model", str(rb.bundled_model_path("tmix4_demo")),
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not recwarn.list


class TestVarTmix:
    def test_standard_t_quantile(self):
        # independent oracle: high-precision inversion of the t cdf
        model = single_t(nu=4.0, d=2, scale=0.5)  # y=(1,1) gives unit scale
        v = var_tmix(model, np.array([1.0, 1.0]), 0.95)
        assert abs(v - stats.t.ppf(0.95, 4.0)) < 1e-9
        assert abs(v - 2.13185) < 1e-5

    def test_median_of_symmetric_loss(self):
        model = single_t(nu=5.0, d=3, scale=2.0, loc=[0.01, -0.02, 0.03])
        y = np.array([0.2, 0.3, 0.5])
        assert abs(var_tmix(model, y, 0.5) - (-(y @ model.locations[0]))) < 1e-10

    def test_positive_homogeneity(self, tmix_demo):
        y = np.array([0.17958, 0.28127, 0.30483, 0.23432])
        base = var_tmix(tmix_demo, y, 0.95)
        for lam in (0.1, 7.0):
            scaled = var_tmix(tmix_demo, lam * y, 0.95)
            assert abs(scaled - lam * base) <= 1e-12 * abs(lam * base)

    def test_cdf_consistency(self, tmix_demo):
        y = np.array([0.17958, 0.28127, 0.30483, 0.23432])
        v = var_tmix(tmix_demo, y, 0.95)
        assert abs(loss_cdf_tmix(tmix_demo, y, v) - 0.95) < 1e-10


class TestEsTmix:
    def test_unit_scale_against_quadrature(self):
        # oracle: ES = (1/(1-a)) int_a^1 VaR_s ds by adaptive quadrature
        expected, err = quad(lambda s: stats.t.ppf(s, 4.0), 0.95, 1.0,
                             epsabs=1e-13, limit=200)
        expected /= 0.05
        assert err < 1e-10
        model = single_t(nu=4.0, d=2, scale=0.5)
        got = es_tmix(model, np.array([1.0, 1.0]), 0.95)
        assert abs(got - expected) < 1e-9
        assert abs(got - 3.2028704021) < 1e-8

    def test_reference_portfolio_risk(self, tmix_demo):
        theta = np.array([0.17958, 0.28127, 0.30483, 0.23432])
        got = es_tmix(tmix_demo, theta, 0.95)
        assert abs(got - 4 * 0.00806) < 2e-4

    def test_positive_homogeneity(self, tmix_demo):
        y = np.array([0.1, 0.4, 0.2, 0.3])
        base = es_tmix(tmix_demo, y, 0.95)
        for lam in (0.1, 7.0):
            assert abs(es_tmix(tmix_demo, lam * y, 0.95) - lam * base) <= 1e-12 * lam * base

    def test_es_dominates_var(self, tmix_demo):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = np.exp(rng.normal(size=4))
            alpha = float(rng.uniform(0.85, 0.99))
            assert es_tmix(tmix_demo, y, alpha) >= var_tmix(tmix_demo, y, alpha)

    def test_low_dof_rejected(self):
        with pytest.raises(rb.models.ModelError):
            single_t(nu=0.9)

    @pytest.mark.parametrize("which", ["tmix_demo", "synth_dgp10"])
    def test_gradient_matches_central_differences(self, which, tmix_demo):
        model = tmix_demo if which == "tmix_demo" else rb.synth_dgp(10, seed=11)
        rng = np.random.default_rng(12)
        for alpha in (0.9, 0.95, 0.99):
            y = np.exp(0.5 * rng.standard_normal(model.dim))
            value, grad = _es_tmix_value_grad(model, y, alpha)
            assert value == es_tmix(model, y, alpha)
            h = 1e-5
            fd = np.empty(model.dim)
            for i in range(model.dim):
                e = np.zeros(model.dim)
                e[i] = h
                fd[i] = (es_tmix(model, y + e, alpha) - es_tmix(model, y - e, alpha)) / (2 * h)
            assert np.abs(fd - grad).max() <= 1e-6 * np.abs(grad).max()
            # Euler: the ES is positively homogeneous of degree one
            assert abs(y @ grad - value) <= 1e-12 * abs(value)


class TestEmpiricalQuantile:
    def test_hand_evaluated(self):
        losses = np.arange(1.0, 11.0)
        assert abs(empirical_var_method7(losses, 0.8) - 8.2) < 1e-12

    def test_endpoints(self):
        losses = np.array([3.0, 1.0, 2.0, 5.0])
        assert empirical_var_method7(losses, 0.0) == 1.0
        assert empirical_var_method7(losses, 1.0) == 5.0

    def test_constant_vector(self):
        losses = np.full(9, 4.2)
        for alpha in (0.0, 0.3, 0.77, 1.0):
            assert empirical_var_method7(losses, alpha) == 4.2

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.normal(size=rng.integers(2, 60))
            alpha = float(rng.uniform())
            assert abs(empirical_var_method7(x, alpha)
                       - np.quantile(x, alpha)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_var_method7(np.array([]), 0.5)

    def test_one_partition_matches_two(self):
        # oracle: the upper neighbour taken from a second full partition
        def two_partitions(x, alpha):
            h = (x.size - 1) * alpha
            j = int(np.floor(h))
            g = h - j
            lo = np.partition(x, j)[j]
            if g == 0.0 or j + 1 >= x.size:
                return float(lo)
            hi = np.partition(x, j + 1)[j + 1]
            return float(lo + g * (hi - lo))

        rng = np.random.default_rng(32)
        for n in (1, 2, 3, 7, 128, 3500, 100_000):
            for x in (rng.standard_t(3, size=n), np.round(rng.normal(size=n), 1)):
                for alpha in (0.0, 0.05, 0.5, 0.9, 0.95, 0.975, 0.99, 1.0):
                    assert empirical_var_method7(x, alpha) == two_partitions(x, alpha)


class TestEmpiricalEs:
    def test_brute_force_tail(self):
        losses = np.arange(1.0, 11.0)
        assert empirical_es(losses, 0.8) == np.mean([9.0, 10.0])

    def test_alpha_zero_is_overall_mean(self):
        losses = np.arange(1.0, 11.0)
        assert empirical_es(losses, 0.0) == 5.5

    def test_constant(self):
        assert empirical_es(np.full(5, 2.5), 0.6) == 2.5

    def test_shift_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=501)
        for c in (-3.0, 0.7):
            assert abs(empirical_es(x + c, 0.9) - (empirical_es(x, 0.9) + c)) < 1e-10


class TestRuObjective:
    def test_dead_hinge_single_loss(self):
        spec = ExpectedShortfall(0.95)
        batch = np.array([[-1.5, -0.5]])  # single row, losses -y'x
        y = np.array([1.0, 1.0])
        loss = 2.0
        got = ru_objective(spec, B2, y, np.array([loss]), batch)
        assert got == loss - float(B2.values @ np.log(y))

    def test_scan_oracle_discrete_uniform(self):
        # oracle: dense 1-d scan of the RU expression over zeta
        losses = np.arange(1.0, 11.0)
        alpha = 0.8

        def ru_part(z):
            return z + np.maximum(losses - z, 0.0).mean() / (1.0 - alpha)

        grid = np.linspace(-5.0, 20.0, 100001)
        vals = np.array([ru_part(z) for z in grid])
        assert abs(vals.min() - 9.5) < 1e-9
        band = grid[vals <= vals.min() + 1e-12]
        assert band.min() >= 8.0 - 1e-3 and band.max() <= 9.0 + 1e-3
        # package evaluation at a band point reproduces the scan minimum
        batch = -losses[:, None] / 2.0
        y = np.array([2.0])
        spec = ExpectedShortfall(alpha)
        val = ru_objective(spec, Budgets(np.array([1.0])), y, np.array([8.5]), batch)
        assert abs((val + np.log(2.0)) - 9.5) < 1e-12

    def test_es_minus_mean_identity(self):
        # RU part of the ES-E mixture at its minimum matches the empirical
        # estimators on an atom-aligned level
        rng = np.random.default_rng(21)
        losses = rng.normal(size=100)
        losses -= losses.mean()
        alpha = 0.8
        spec = ESMeanMixture(beta=1.0, delta=-1.0, alpha=alpha)
        batch = -losses[:, None]
        y = np.array([1.0])
        budgets = Budgets(np.array([1.0]))
        zs = np.sort(losses)
        vals = [ru_objective(spec, budgets, y, np.array([z]), batch) for z in zs]
        want = empirical_es(losses, alpha) - losses.mean()
        assert abs(min(vals) - want) < 1e-12


class TestRuSubgradient:
    def test_dead_hinge(self):
        spec = ExpectedShortfall(0.95)
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(64, 3))
        y = np.array([0.4, 0.3, 0.3])
        zeta = np.array([(-(batch @ y)).max() + 1.0])
        g_y, g_z = ru_subgradient(spec, B3, y, zeta, batch)
        assert g_z[0] == 1.0
        assert np.allclose(g_y, -B3.values / y, rtol=0, atol=0)

    def test_fully_active_hinge(self):
        spec = ExpectedShortfall(0.95)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(32, 2))
        y = np.array([0.5, 0.5])
        zeta = np.array([(-(batch @ y)).min() - 1.0])
        _, g_z = ru_subgradient(spec, B2, y, zeta, batch)
        assert abs(g_z[0] - (1.0 - 20.0)) < 1e-12

    def test_matches_finite_differences(self):
        spec = ESMeanMixture(beta=1.3, delta=-0.4, alpha=0.9)
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(200, 3))
        y = np.array([0.8, 1.1, 0.6])
        zeta = np.array([float(np.quantile(-(batch @ y), 0.9)) + 0.037])
        _assert_subgradient_matches_fd(
            lambda yy, zz: ru_objective(spec, B3, yy, zz, batch),
            lambda yy, zz: ru_subgradient(spec, B3, yy, zz, batch),
            y, zeta)


def _safe_zeta(losses, level, h=1e-6, pad=20.0):
    """Threshold near the requested quantile but away from hinge kinks."""
    s = np.sort(np.asarray(losses, dtype=float))
    k = min(max(int(level * s.size), 1), s.size - 2)
    lo = max(k - 5, 0)
    hi = min(k + 5, s.size - 2)
    gaps = s[lo + 1:hi + 2] - s[lo:hi + 1]
    j = lo + int(np.argmax(gaps))
    assert gaps.max() > 2 * pad * h, "sample too dense for a kink-free probe"
    return 0.5 * (s[j] + s[j + 1])


def _assert_subgradient_matches_fd(obj, grad, y, zeta, rel=1e-5, h=1e-6):
    g_y, g_z = grad(y, zeta)
    fd_y = np.empty_like(g_y)
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = h
        fd_y[i] = (obj(y + e, zeta) - obj(y - e, zeta)) / (2 * h)
    fd_z = np.empty_like(g_z)
    for k in range(zeta.size):
        e = np.zeros(zeta.size)
        e[k] = h
        fd_z[k] = (obj(y, zeta + e) - obj(y, zeta - e)) / (2 * h)
    scale = max(np.abs(np.concatenate([g_y, g_z])).max(), 1e-12)
    assert np.abs(fd_y - g_y).max() <= rel * scale
    assert np.abs(fd_z - g_z).max() <= rel * scale


def _oracle_spectral_grid(c, nodes):
    # oracle: the midpoint-rule discretization of (1-s) dh(s), written out from (c, nodes)
    ds = 0.999 / nodes
    s = (np.arange(nodes) + 0.5) * ds
    hprime = (1.0 / c - 1.0) * s ** (1.0 / c - 2.0) / c
    coeff = (1.0 - s) * hprime * ds
    return s, coeff / coeff.sum()


class TestSpectralGrid:
    @pytest.mark.parametrize("c", [0.01, 0.05, 0.2, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("nodes", [1, 2, 7, 20, 33, 100])
    def test_grid_matches_oracle_bytes(self, c, nodes):
        spec = Spectral(c=c, nodes=nodes)
        levels, coeff = _oracle_spectral_grid(c, nodes)
        assert spec.levels.tobytes() == levels.tobytes()
        assert spec.coeff.tobytes() == coeff.tobytes()
        for arr in (spec.levels, spec.coeff):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_single_node(self):
        spec = Spectral(c=0.3, nodes=1)
        assert spec.levels.size == 1
        assert spec.coeff[0] == 1.0
        assert abs(spec.levels[0] - 0.999 / 2.0) < 1e-15

    def test_tail_concentration_c005(self):
        # oracle (1-s) h'(s) ds evaluated on the grid: increasing through the
        # 19th node with a dip at the final one, and far more tail mass than
        # a milder distortion
        spec = Spectral(c=0.05, nodes=20)
        diffs = np.diff(spec.coeff)
        assert np.all(diffs[:18] > 0.0)
        assert diffs[18] < 0.0
        mild = Spectral(c=0.5, nodes=20)
        assert spec.coeff[-5:].sum() > mild.coeff[-5:].sum()

    def test_coefficients_normalized(self):
        for c in (0.05, 0.3, 0.9):
            spec = Spectral(c=c, nodes=33)
            assert abs(spec.coeff.sum() - 1.0) < 1e-12
            assert np.all(spec.coeff > 0.0)


class TestSpectralObjective:
    def test_single_node_collapses_to_ru(self):
        spec = Spectral(c=0.5, nodes=1)
        es = ExpectedShortfall(0.4995)  # the one node's level
        assert spec.levels[0] == es.alpha and spec.coeff[0] == 1.0
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(77, 3))
        y = np.array([0.5, 0.8, 0.2])
        zeta = np.array([0.3])
        a = spectral_objective(spec, B3, y, zeta, batch)
        b = ru_objective(es, B3, y, zeta, batch)
        assert abs(a - b) < 1e-15

    def test_full_sample_minimum_matches_per_node_scan(self):
        # oracle: per-node scan over all sample atoms (the RU expression is
        # piecewise linear in zeta, so its minimum sits on an atom)
        rng = np.random.default_rng(14)
        losses = rng.standard_t(df=3, size=1000)
        spec = Spectral(c=0.2, nodes=5)
        scan_total = 0.0
        zeta_star = np.empty(spec.nodes)
        for k, (s, c) in enumerate(zip(spec.levels, spec.coeff)):
            node_vals = np.array([z + np.maximum(losses - z, 0.0).mean() / (1 - s)
                                  for z in losses])
            scan_total += c * node_vals.min()
            zeta_star[k] = losses[node_vals.argmin()]
        batch = -losses[:, None]
        y = np.array([1.0])
        budgets = Budgets(np.array([1.0]))
        got = spectral_objective(spec, budgets, y, zeta_star, batch)
        assert abs(got - scan_total) < 1e-10

    def test_heavier_distortion_dominates(self):
        rng = np.random.default_rng(15)
        losses = rng.standard_t(df=2.5, size=20000)
        vals = {}
        for c in (0.05, 0.5):
            vals[c] = empirical_risk(Spectral(c=c, nodes=20), losses)
        assert vals[0.05] >= vals[0.5]

    def test_zeta_length_mismatch(self):
        spec = Spectral(c=0.2, nodes=4)
        with pytest.raises(ValueError):
            spectral_objective(spec, B2, np.array([1.0, 1.0]),
                               np.zeros(3), np.zeros((5, 2)))

    def test_subtract_mean_equals_plain_minus_mean(self):
        rng = np.random.default_rng(16)
        batch = rng.normal(size=(301, 2))
        y = np.array([0.7, 0.5])
        spec0 = Spectral(c=0.1, nodes=6)
        spec1 = Spectral(c=0.1, nodes=6, subtract_mean=True)
        zeta = np.linspace(-1.0, 1.0, 6)
        losses = -(batch @ y)
        a = spectral_objective(spec0, B2, y, zeta, batch)
        b = spectral_objective(spec1, B2, y, zeta, batch)
        assert abs((a - losses.mean()) - b) < 1e-12

    def test_subgradient_matches_fd(self):
        spec = Spectral(c=0.2, nodes=4, subtract_mean=True)
        rng = np.random.default_rng(17)
        batch = rng.normal(size=(150, 3))
        y = np.array([0.9, 0.7, 1.2])
        zeta = np.quantile(-(batch @ y), spec.levels) + 0.0123
        _assert_subgradient_matches_fd(
            lambda yy, zz: spectral_objective(spec, B3, yy, zz, batch),
            lambda yy, zz: spectral_subgradient(spec, B3, yy, zz, batch),
            y, zeta)


class TestDeviationObjective:
    def test_least_squares_identity(self):
        rng = np.random.default_rng(18)
        batch = rng.normal(size=(500, 2))
        y = np.array([1.3, 0.4])
        losses = -(batch @ y)
        spec = Deviation(1.0, 1.0, 2.0)
        budgets = B2
        vals = [deviation_objective(spec, budgets, y, np.array([z]), batch)
                for z in np.linspace(losses.mean() - 1, losses.mean() + 1, 2001)]
        at_mean = deviation_objective(spec, budgets, y, np.array([losses.mean()]), batch)
        assert at_mean <= min(vals) + 1e-12
        barrier = -float(budgets.values @ np.log(y))
        assert abs((at_mean - barrier) - losses.var()) < 1e-12

    def test_mad_discrete_uniform(self):
        losses = np.arange(1.0, 11.0)
        spec = Deviation(1.0, 1.0, 1.0)
        batch = -losses[:, None]
        y = np.array([1.0])
        budgets = Budgets(np.array([1.0]))

        def pre_penalty(z):
            return deviation_objective(spec, budgets, y, np.array([z]), batch)

        grid = np.linspace(0.0, 11.0, 11001)
        vals = np.array([pre_penalty(z) for z in grid])
        band = grid[vals <= vals.min() + 1e-12]
        assert abs(vals.min() - 2.5) < 1e-12
        assert band.min() >= 5.0 - 1e-3 and band.max() <= 6.0 + 1e-3

    def test_es_minus_mean_hinge_form(self):
        # a = alpha/(1-alpha), b = 1, p = 1 at an atom-aligned level
        losses = np.arange(1.0, 11.0)
        spec = Deviation(a=4.0, b=1.0, p=1.0)
        batch = -losses[:, None]
        y = np.array([1.0])
        budgets = Budgets(np.array([1.0]))
        vals = [deviation_objective(spec, budgets, y, np.array([z]), batch)
                for z in np.linspace(0, 11, 11001)]
        want = empirical_es(losses, 0.8) - losses.mean()
        assert abs(min(vals) - want) < 1e-9

    def test_subgradient_matches_fd(self):
        for spec in (Deviation(1.0, 1.0, 2.0), Deviation(2.0, 0.5, 1.5),
                     DeviationPlusMean(1.0, 1.0, 1.0, delta=1.0)):
            rng = np.random.default_rng(19)
            batch = rng.normal(size=(120, 3))
            y = np.array([0.6, 1.0, 0.9])
            zeta = np.array([0.21])
            _assert_subgradient_matches_fd(
                lambda yy, zz, s=spec: deviation_objective(s, B3, yy, zz, batch),
                lambda yy, zz, s=spec: deviation_subgradient(s, B3, yy, zz, batch),
                y, zeta)


# The six step functions as they stood before they were written for few NumPy
# calls. Kept as the oracle the step functions must reproduce bit for bit.

def _oracle_losses(y, batch):
    return -(batch @ y)


def _oracle_barrier(budgets, y):
    return float(-np.dot(budgets.values, np.log(y)))


def _oracle_ru_objective(spec, budgets, y, zeta, batch):
    alpha, beta, delta = spec.alpha, spec.beta, spec.delta
    z = float(zeta[0])
    losses = _oracle_losses(y, batch)
    ru = z + np.maximum(losses - z, 0.0).mean() / (1.0 - alpha)
    val = beta * ru + _oracle_barrier(budgets, y)
    if delta != 0.0:
        val += delta * losses.mean()
    return float(val)


def _oracle_ru_subgradient(spec, budgets, y, zeta, batch):
    alpha, beta, delta = spec.alpha, spec.beta, spec.delta
    z = float(zeta[0])
    losses = _oracle_losses(y, batch)
    tail = losses > z
    g_zeta = beta * (1.0 - tail.mean() / (1.0 - alpha))
    g_y = -beta * (batch * tail[:, None]).mean(axis=0) / (1.0 - alpha) - budgets.values / y
    if delta != 0.0:
        g_y = g_y - delta * batch.mean(axis=0)
    return g_y, np.array([g_zeta])


def _oracle_spectral_objective(spec, budgets, y, zeta, batch):
    losses = _oracle_losses(y, batch)
    hinge = np.maximum(losses[:, None] - zeta[None, :], 0.0).mean(axis=0)
    nodes = zeta + hinge / (1.0 - spec.levels)
    val = float(np.dot(spec.coeff, nodes)) + _oracle_barrier(budgets, y)
    if spec.subtract_mean:
        val -= losses.mean()
    return val


def _oracle_spectral_subgradient(spec, budgets, y, zeta, batch):
    losses = _oracle_losses(y, batch)
    tail = losses[:, None] > zeta[None, :]
    g_zeta = spec.coeff * (1.0 - tail.mean(axis=0) / (1.0 - spec.levels))
    node_w = spec.coeff / (1.0 - spec.levels)
    g_y = -(batch.T @ tail) @ node_w / len(losses) - budgets.values / y
    if spec.subtract_mean:
        g_y = g_y + batch.mean(axis=0)
    return g_y, g_zeta


def _oracle_deviation_objective(spec, budgets, y, zeta, batch):
    a, b, p, delta = spec.a, spec.b, spec.p, spec.delta
    z = float(zeta[0])
    losses = _oracle_losses(y, batch)
    pos = np.maximum(losses - z, 0.0)
    neg = np.maximum(z - losses, 0.0)
    val = (a ** p * pos ** p + b ** p * neg ** p).mean() + _oracle_barrier(budgets, y)
    if delta != 0.0:
        val += delta * losses.mean()
    return float(val)


def _oracle_deviation_subgradient(spec, budgets, y, zeta, batch):
    a, b, p, delta = spec.a, spec.b, spec.p, spec.delta
    z = float(zeta[0])
    losses = _oracle_losses(y, batch)
    if p == 1.0:
        w_pos = a * (losses > z).astype(float)
        w_neg = b * (losses < z).astype(float)
    else:
        pos = np.maximum(losses - z, 0.0)
        neg = np.maximum(z - losses, 0.0)
        w_pos = p * a ** p * pos ** (p - 1.0)
        w_neg = p * b ** p * neg ** (p - 1.0)
    g_zeta = float(np.mean(-w_pos + w_neg))
    g_y = -(batch * (w_pos - w_neg)[:, None]).mean(axis=0) - budgets.values / y
    if delta != 0.0:
        g_y = g_y - delta * batch.mean(axis=0)
    return g_y, np.array([g_zeta])


def _oracle_step_pair(spec, budgets):
    if isinstance(spec, (ExpectedShortfall, ESMeanMixture)):
        objective, subgradient = _oracle_ru_objective, _oracle_ru_subgradient
    elif isinstance(spec, Spectral):
        objective, subgradient = _oracle_spectral_objective, _oracle_spectral_subgradient
    else:
        objective, subgradient = _oracle_deviation_objective, _oracle_deviation_subgradient
    return (lambda *a: objective(spec, budgets, *a),
            lambda *a: subgradient(spec, budgets, *a))


# the nine measures of tests/test_solver.py's Euler audit
STEP_SPECS = [
    Volatility(), ExpectedShortfall(0.9), ESMeanMixture(1.0, -1.0, 0.9),
    Spectral(0.1, 8), Spectral(0.1, 8, subtract_mean=True),
    Deviation(1.0, 1.0, 2.0), Deviation(2.0, 1.0, 1.0),
    Deviation(2.0, 0.5, 1.5), DeviationPlusMean(1.0, 1.0, 1.0, delta=1.0)]


class TestStepOracle:
    @pytest.mark.parametrize("spec", STEP_SPECS, ids=rb.measure_label)
    def test_steps_match_oracle_bits(self, spec):
        rng = np.random.default_rng(rb.derive_seed("step-oracle", spec.label()))
        n_zeta = spec.nodes if isinstance(spec, Spectral) else 1
        for m in (1, 44, 128):
            for case in range(40):
                d = 3 if case % 2 else 10
                budgets = Budgets(rng.dirichlet(np.ones(d)))
                batch = 0.02 * rng.standard_t(4, size=(m, d))
                if case % 4 == 3:
                    batch = np.round(batch, 2)   # tied losses
                y = rng.uniform(0.05, 1.0, size=d)
                losses = -(batch @ y)
                # each threshold on a loss point, below every loss (full
                # tail), above every loss (empty tail) or anywhere between
                picks = rng.integers(4, size=n_zeta)
                zeta = np.where(picks == 0, losses[rng.integers(m, size=n_zeta)],
                                np.where(picks == 1, losses.min() - 0.01,
                                         np.where(picks == 2, losses.max() + 0.01,
                                                  rng.uniform(losses.min(), losses.max(),
                                                              size=n_zeta))))
                got = [f(y, zeta, batch) for f in rb.solver._step_pair(spec, budgets)]
                want = [f(y, zeta, batch) for f in _oracle_step_pair(spec, budgets)]
                assert type(got[0]) is type(want[0])
                assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                for g, w in zip(got[1], want[1]):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()


class TestVolatility:
    def test_identity_two_assets(self):
        value, grad = volatility_value_and_gradient(np.eye(2), np.array([1.0, 1.0]))
        assert abs(value - np.sqrt(2.0)) < 1e-15
        assert np.abs(grad - 1.0 / np.sqrt(2.0)).max() < 1e-15

    def test_table_row_euler_audit(self, gmix_calm):
        from riskbudget import euler_audit
        sigma = gmix_calm.scales[0]
        theta = np.array([0.60916, 0.22200, 0.16884])
        report = euler_audit(theta, *volatility_value_and_gradient(sigma, theta),
                             Budgets.equal(3))
        assert np.abs(report.budget_errors).max() < 1e-3

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            volatility_value_and_gradient(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                          np.array([1.0, 1.0]))


class TestMeasureProperties:
    SPECS = [Volatility(), ExpectedShortfall(0.9),
             ESMeanMixture(beta=1.0, delta=-1.0, alpha=0.9),
             Spectral(c=0.1, nodes=8), Spectral(c=0.1, nodes=8, subtract_mean=True),
             Deviation(1.0, 1.0, 2.0), Deviation(2.0, 1.0, 1.0),
             DeviationPlusMean(1.0, 1.0, 1.0, delta=1.0)]

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(30)
        losses = rng.standard_t(df=4, size=999) + 0.3
        for spec in self.SPECS:
            base = empirical_risk(spec, losses)
            for lam in (0.5, 1.0, 3.0):
                scaled = empirical_risk(spec, lam * losses)
                assert abs(scaled - lam * base) <= 1e-10 * max(1.0, abs(lam * base))

    def test_subadditivity_spot_check(self):
        from riskbudget.risk import _ru_node_minimum, _sorted_with_tails

        def ru_es(x, alpha=0.9):
            s, tails = _sorted_with_tails(x)
            return _ru_node_minimum(s, tails, alpha)

        rng = np.random.default_rng(31)
        specs = [Spectral(c=0.1, nodes=8), Deviation(1.0, 1.0, 2.0),
                 Deviation(2.0, 1.0, 1.0)]
        for _ in range(100):
            n = int(rng.integers(50, 400))
            z1 = rng.standard_t(df=3, size=n)
            z2 = rng.standard_t(df=5, size=n) * rng.uniform(0.5, 2.0)
            assert ru_es(z1 + z2) <= ru_es(z1) + ru_es(z2) + 1e-10
            for spec in specs:
                lhs = empirical_risk(spec, z1 + z2)
                rhs = empirical_risk(spec, z1) + empirical_risk(spec, z2)
                assert lhs <= rhs + 1e-10

    def test_deviation_translation_invariance(self):
        rng = np.random.default_rng(32)
        losses = rng.normal(size=400)
        for spec in (Deviation(1.0, 1.0, 2.0), Deviation(1.0, 1.0, 1.0),
                     Deviation(3.0, 1.0, 1.0), Deviation(0.9, 0.4, 2.0)):
            base = empirical_risk(spec, losses)
            for c in (-2.0, 5.0):
                assert abs(empirical_risk(spec, losses + c) - base) < 1e-8 * max(1, abs(base))

    def test_positivity_warning(self):
        from riskbudget import RiskPositivityWarning
        from riskbudget.risk import warn_if_nonpositive_risk
        with pytest.warns(RiskPositivityWarning):
            warn_if_nonpositive_risk(ExpectedShortfall(0.9),
                                     lambda w: -1.0, 3)


# loss_cdf_tmix, loss_pdf_tmix, var_tmix and _es_tmix_value_grad as they stood
# when they took the Student-t cdf and density from scipy.stats.t. Kept as the
# oracles the scipy.special helpers must reproduce bit for bit.

def _oracle_loss_cdf(model, y, z):
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights, stats.t.cdf((z + m) / sig, model.dof)))


def _oracle_loss_pdf(model, y, z):
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights / sig, stats.t.pdf((z + m) / sig, model.dof)))


def _oracle_var_tmix(model, y, alpha):
    sig, m = _portfolio_params(model, y)
    p, nu = model.weights, model.dof

    def cdf(z):
        return float(np.dot(p, stats.t.cdf((z + m) / sig, nu)))

    radius = float(np.abs(m).max() + 10.0 * sig.max())
    lo, hi = -radius, radius
    while cdf(lo) > alpha:
        lo *= 2.0
    while cdf(hi) < alpha:
        hi *= 2.0
    return float(brentq(lambda z: cdf(z) - alpha, lo, hi, xtol=1e-300, rtol=8.9e-16))


def _oracle_es_tmix_value_grad(model, y, alpha):
    yv = np.asarray(y, dtype=float)
    v = _oracle_var_tmix(model, yv, alpha)
    sig, m = _portfolio_params(model, yv)
    nu = model.dof
    t = (v + m) / sig
    f = stats.t.pdf(t, nu)
    above = stats.t.cdf(-t, nu)
    upper = (nu + t * t) / (nu - 1.0) * f
    terms = sig * (nu + t * t) / (nu - 1.0) * f - m * above
    value = float(np.dot(model.weights, terms) / (1.0 - alpha))
    p = model.weights / (1.0 - alpha)
    grad = (p * upper / sig) @ (model.scales @ yv) - (p * above) @ model.locations
    return value, grad


def _t_grid(rng):
    special = [0.0, 1e-300, 1e150, np.inf, 1.0]
    t = np.concatenate([special, np.negative(special),
                        rng.standard_normal(2000) * 3.0,
                        rng.standard_t(1.5, 2000)])
    nu = np.concatenate([[1.0 + 1e-7, 1.5, 2.5, 4.0, 30.0, 1e3, 1e6],
                         np.exp(rng.uniform(np.log(1.0 + 1e-7), np.log(1e6), 40))])
    return t, nu


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStudentTOracle:
    def test_helpers_match_scipy_stats_on_pairs(self):
        # the K = 2 shape of the mixture evaluators: one t and one dof per
        # component; every edge value meets every dof pair, every random value one
        t, nu = _t_grid(np.random.default_rng(71))
        pairs = [nu[k:k + 2] for k in range(0, len(nu) - 1)]
        cases = [(ti, q) for ti in t[:10] for q in pairs]
        cases += [(ti, pairs[i % len(pairs)]) for i, ti in enumerate(t[10:])]
        for ti, q in cases:
            pair_t = np.array([ti, -0.5 * ti])
            assert _same_bits(_t_cdf(pair_t, q), stats.t.cdf(pair_t, q))
            assert _same_bits(_t_pdf(pair_t, q), stats.t.pdf(pair_t, q))

    def test_helpers_match_scipy_stats_on_long_arrays(self):
        t, nu = _t_grid(np.random.default_rng(73))
        for v in nu:
            assert _same_bits(_t_cdf(t, v), stats.t.cdf(t, v))
            assert _same_bits(_t_pdf(t, v), stats.t.pdf(t, v))
        rows = np.resize(nu, t.shape)
        assert _same_bits(_t_cdf(t, rows), stats.t.cdf(t, rows))
        assert _same_bits(_t_pdf(t, rows), stats.t.pdf(t, rows))

    @pytest.mark.parametrize("which", ["tmix_demo", "synth_dgp10"])
    def test_evaluators_match_oracles(self, which, tmix_demo):
        model = tmix_demo if which == "tmix_demo" else rb.synth_dgp(10, seed=31)
        rng = np.random.default_rng(74)
        for _ in range(15):
            y = np.exp(0.7 * rng.standard_normal(model.dim))
            alpha = float(rng.uniform(0.8, 0.995))
            for z in (-0.3, -1e-3, 0.0, 2e-3, 0.05, 1.0):
                assert loss_cdf_tmix(model, y, z) == _oracle_loss_cdf(model, y, z)
                assert loss_pdf_tmix(model, y, z) == _oracle_loss_pdf(model, y, z)
            assert var_tmix(model, y, alpha) == _oracle_var_tmix(model, y, alpha)
            value, grad = _es_tmix_value_grad(model, y, alpha)
            want_value, want_grad = _oracle_es_tmix_value_grad(model, y, alpha)
            assert value == want_value and _same_bits(grad, want_grad)

    @pytest.mark.parametrize("which", ["tmix_demo", "synth_dgp10"])
    def test_reference_report_matches_oracle(self, which, tmix_demo, monkeypatch):
        model = tmix_demo if which == "tmix_demo" else rb.synth_dgp(10, seed=32)
        b = np.linspace(1.0, 2.0, model.dim)
        budgets = Budgets(b / b.sum())

        def report_json():
            report = rb.reference_solve(ExpectedShortfall(0.95), budgets, model)
            return json.dumps(report.to_dict(include_timing=False))

        got = report_json()
        monkeypatch.setattr("riskbudget.solver._es_tmix_value_grad", _oracle_es_tmix_value_grad)
        monkeypatch.setattr("riskbudget.solver.var_tmix", _oracle_var_tmix)
        monkeypatch.setattr("riskbudget.solver.es_tmix",
                            lambda *a: _oracle_es_tmix_value_grad(*a)[0])
        assert got == report_json()

    def test_package_import_loads_no_scipy(self):
        # the package takes the t cdf and density from scipy.special, and
        # imports scipy.special, scipy.optimize and scipy.linalg inside their
        # callers: each would add its import time to every CLI process
        assert _scipy_loaded_by(None) == (set(), False)

    @pytest.mark.parametrize("command, measure, loaded", [
        ("sample", ES95, set()), ("sgd", ES95, set()), ("osbgd", ES95, set()),
        ("msbgd", ES95, set()), ("sgd", {"measure": "spectral", "c": 0.05, "nodes": 8}, set()),
        ("osbgd", {"measure": "deviation", "a": 1, "b": 1, "p": 1}, set()),
        ("fit", ES95, {"scipy.special", "scipy.linalg"}),
        ("reference", ES95, {"scipy.special", "scipy.optimize", "scipy.linalg"})],
        ids=["sample", "sgd", "osbgd", "msbgd", "sgd-spectral", "osbgd-deviation", "fit",
             "reference"])
    def test_cli_command_loads_only_what_it_runs(self, tmp_path, tmix_demo, command,
                                                 measure, loaded):
        model = str(rb.bundled_model_path("tmix4_demo"))
        sample = str(tmp_path / "s.csv")
        rb.save_sample(rb.sample_model(tmix_demo, 2000, seed=5), sample)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": measure,
                                   "solver": {"epochs": 1, "max_iters": 3,
                                              "resample_size": 2000}}))
        solve = ["solve", "--config", str(cfg), "--method", command]
        argv = {"sample": ["sample", "--model", model, "-n", "500"],
                "sgd": solve + ["--sample", sample], "osbgd": solve + ["--sample", sample],
                "msbgd": solve + ["--model", model],
                "fit": ["fit", "--sample", sample, "--family", "tmix", "--nu", "4.0,2.5"],
                "reference": ["reference", "--model", model]}[command]
        assert _scipy_loaded_by(argv + ["--out", str(tmp_path)]) == (loaded, bool(loaded))


def _scipy_loaded_by(argv):
    """Which of scipy.stats, scipy.special, scipy.optimize and scipy.linalg a
    fresh interpreter holds, and whether it holds any scipy module at all,
    after importing the package and, unless argv is None, running
    riskbudget.cli.main(argv), which must exit 0."""
    script = ("import json, sys, riskbudget, riskbudget.cli\n"
              "argv = json.loads(sys.argv[1])\n"
              "code = 0 if argv is None else riskbudget.cli.main(argv)\n"
              "named = ('scipy.stats', 'scipy.special', 'scipy.optimize', 'scipy.linalg')\n"
              "print(json.dumps([code, any(m == 'scipy' or m.startswith('scipy.')"
              " for m in sys.modules)] + [m for m in named if m in sys.modules]))")
    src = str(Path(rb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, any_scipy, *loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return set(loaded), any_scipy
