"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a plain pytest -s run doubles as the
acceptance report.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats
from scipy.integrate import quad

import riskbudget as rb
from riskbudget import (Budgets, Deviation, ESMeanMixture, ExpectedShortfall,
                        SolverConfig, Spectral, Volatility, empirical_var_method7,
                        es_tmix, l1_accuracy, multistart_uniqueness_check,
                        reference_solve, sgd_solve, var_tmix)
from riskbudget.bench import ExperimentSpec, run_accuracy_study, run_measure_comparison
from riskbudget.cli import main
from riskbudget.models import StudentTMixture
from riskbudget.risk import (deviation_objective, deviation_subgradient,
                             empirical_risk, ru_objective, ru_subgradient,
                             spectral_objective, spectral_subgradient)
from conftest import (CALM_VOL_ROW, STRESSED_ES_ROW, STRESSED_VOL_ROW,
                      TABLE_CONTRIBUTION, TABLE_WEIGHTS, empirical_es)


def golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_reference_table_reproduction(tmix_demo):
    with criterion("reference-table: weights within 5e-4, contributions within 5e-5, < 10 s"):
        t0 = time.perf_counter()
        report = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        elapsed = time.perf_counter() - t0
        assert np.abs(report.weights.values - TABLE_WEIGHTS).max() <= 5e-4
        assert np.abs(report.contributions.contributions - TABLE_CONTRIBUTION).max() <= 5e-5
        assert elapsed < 10.0


def test_sgd_table_reproduction(tmix_demo):
    with criterion("sgd-table: median 100L1 over 5 seeds <= 0.3, < 60 s per seed"):
        budgets = Budgets.equal(4)
        spec = ExpectedShortfall(0.95)
        reference = reference_solve(spec, budgets, tmix_demo).weights
        accs = []
        for seed in range(5):
            sample = rb.sample_tmix(tmix_demo, 10 ** 6, seed=1000 + seed)
            t0 = time.perf_counter()
            report = sgd_solve(spec, budgets, sample,
                               SolverConfig(method="sgd", batch_size=128,
                                            epochs=10, averaging_fraction=0.2,
                                            seed=2000 + seed))
            assert time.perf_counter() - t0 < 60.0
            accs.append(l1_accuracy(report.weights, reference))
        assert float(np.median(accs)) <= 0.3


def test_measure_comparison_calm_block(gmix_calm):
    with criterion("comparison-calm: volatility row within 0.5, "
                   "mean-insensitive rows pairwise within 0.7"):
        measures = [Volatility(), Deviation(1.0, 1.0, 1.0),
                    ESMeanMixture(beta=1.0, delta=-1.0, alpha=0.95),
                    Spectral(c=0.05, nodes=20, subtract_mean=True)]
        rows, _ = run_measure_comparison(gmix_calm, measures, Budgets.equal(3),
                                         SolverConfig(method="sgd", epochs=10),
                                         sample_size=10 ** 6, seed=777)
        weights = {label: w for label, w, _ in rows}
        vol = weights["volatility"]
        assert l1_accuracy(vol, CALM_VOL_ROW) <= 0.5
        labels = list(weights)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert l1_accuracy(weights[labels[i]], weights[labels[j]]) <= 0.7


def test_measure_comparison_stressed_block(gmix_stressed):
    with criterion("comparison-stressed: ES row within 1.5, ES asset-1 < vol asset-1"):
        measures = [Volatility(), ExpectedShortfall(0.95)]
        rows, _ = run_measure_comparison(gmix_stressed, measures, Budgets.equal(3),
                                         SolverConfig(method="sgd", epochs=10),
                                         sample_size=10 ** 6, seed=777)
        weights = {label: w for label, w, _ in rows}
        es_row = weights["es(0.95)"]
        vol_row = weights["volatility"]
        assert l1_accuracy(es_row, STRESSED_ES_ROW) <= 1.5
        assert es_row[0] < vol_row[0]
        assert l1_accuracy(vol_row, STRESSED_VOL_ROW) <= 1.5


def test_accuracy_study_desk_scale():
    with criterion("accuracy-study: model-free means within 2.0 of each other and "
                   "inside [3, 9]; well-specified-parameters accuracies < 1.0"):
        spec = ExperimentSpec(dims=(10,), repetitions=10, alpha=0.95,
                              n_hist=3500, sim_size=10 ** 6,
                              settings=("model_free", "true_params"),
                              master_seed=90_210)
        rows = {(r.setting, r.method): r for r in run_accuracy_study(spec)}
        for row in rows.values():
            assert row.errors == ""
        mf_sgd = rows[("model_free", "sgd")].acc_mean
        mf_os = rows[("model_free", "osbgd")].acc_mean
        assert abs(mf_sgd - mf_os) <= 2.0
        assert 3.0 <= mf_sgd <= 9.0 and 3.0 <= mf_os <= 9.0
        for method in ("sgd", "osbgd", "msbgd"):
            assert rows[("true_params", method)].acc_mean < 1.0
        # sanity band: model-based methods agree within 4x summed standard errors
        m = spec.repetitions
        based = [rows[("true_params", meth)] for meth in ("sgd", "osbgd", "msbgd")]
        for i in range(3):
            for j in range(i + 1, 3):
                band = 4.0 * (based[i].acc_std + based[j].acc_std) / np.sqrt(m)
                assert abs(based[i].acc_mean - based[j].acc_mean) < band


def test_ru_semianalytic_equivalence():
    with criterion("ru-equivalence: quadrature+search matches es/var within 1e-6 "
                   "at 20 random (y, alpha) pairs"):
        nu = 4.0
        rng = np.random.default_rng(59)
        model = StudentTMixture(np.array([1.0]),
                                np.array([[2e-3, -1e-3, 5e-4]]),
                                np.array([[[4e-4, 1e-4, 5e-5],
                                           [1e-4, 2e-4, 3e-5],
                                           [5e-5, 3e-5, 1e-4]]]),
                                np.array([nu]))
        for _ in range(20):
            y = np.exp(0.7 * rng.standard_normal(3))
            alpha = float(rng.uniform(0.85, 0.985))
            sig = float(np.sqrt(y @ model.scales[0] @ y))
            m = float(-(y @ model.locations[0]))

            def expected_excess(z):
                t = (z - m) / sig
                val, _ = quad(lambda u: (u - t) * stats.t.pdf(u, nu), t, np.inf,
                              epsabs=1e-13, limit=300)
                return sig * val

            def ru(z):
                return z + expected_excess(z) / (1.0 - alpha)

            lo = m
            hi = m + 30.0 * sig
            zeta_star = golden_section(ru, lo, hi, tol=1e-9)
            assert abs(ru(zeta_star) - es_tmix(model, y, alpha)) < 1e-6
            assert abs(zeta_star - var_tmix(model, y, alpha)) < 1e-6


def test_discrete_oracle():
    with criterion("discrete-oracle: method-7 quantile 8.2, tail mean 9.5, "
                   "RU minimum 9.5 on the flat band [8, 9]"):
        losses = np.arange(1.0, 11.0)
        assert abs(empirical_var_method7(losses, 0.8) - 8.2) < 1e-12
        assert empirical_es(losses, 0.8) == 9.5
        grid = np.linspace(0.0, 12.0, 120001)

        def ru(z):
            return z + np.maximum(losses - z, 0.0).mean() / 0.2

        vals = np.array([ru(z) for z in grid])
        assert abs(vals.min() - 9.5) < 1e-9
        band = grid[np.abs(vals - 9.5) < 1e-12]
        assert abs(band.min() - 8.0) < 1e-4 and abs(band.max() - 9.0) < 1e-4
        inside = np.linspace(8.0, 9.0, 101)
        assert np.abs(np.array([ru(z) for z in inside]) - 9.5).max() < 1e-12


def _kink_free_points(rng, spec_kind, n_batch=160, d=3):
    """Random evaluation points keeping every hinge argument off its kink."""
    while True:
        batch = rng.standard_normal((n_batch, d))
        y = np.exp(0.4 * rng.standard_normal(d))
        losses = -(batch @ y)
        if spec_kind == "spectral":
            levels = Spectral(c=0.2, nodes=4).levels
            zeta = np.quantile(losses, levels) + 0.013
            gaps = np.abs(losses[:, None] - zeta[None, :]).min()
        else:
            zeta = np.array([float(np.quantile(losses, 0.82)) + 0.017])
            gaps = np.abs(losses - zeta[0]).min()
        if gaps > 1e-4:
            return batch, y, zeta


def test_subgradient_finite_difference_agreement():
    with criterion("subgradients: RU, spectral, deviation match central "
                   "differences (h=1e-6) within rel 1e-5 at 100 points each"):
        budgets = Budgets.equal(3)
        h = 1e-6
        cases = [
            ("ru", ESMeanMixture(beta=1.1, delta=-0.5, alpha=0.9),
             ru_objective, ru_subgradient),
            ("spectral", Spectral(c=0.2, nodes=4, subtract_mean=True),
             spectral_objective, spectral_subgradient),
            ("deviation", Deviation(a=1.7, b=0.6, p=1.0),
             deviation_objective, deviation_subgradient),
            ("deviation", Deviation(a=1.2, b=0.8, p=2.0),
             deviation_objective, deviation_subgradient),
        ]
        for kind, spec, obj_fn, grad_fn in cases:
            rng = np.random.default_rng(rb.derive_seed(kind, spec.power))
            for _ in range(100):
                batch, y, zeta = _kink_free_points(rng, kind)
                obj = lambda yy, zz: obj_fn(spec, budgets, yy, zz, batch)
                g_y, g_z = grad_fn(spec, budgets, y, zeta, batch)
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
                scale = max(np.abs(np.concatenate([g_y, g_z])).max(), 1.0)
                assert np.abs(fd_y - g_y).max() <= 1e-5 * scale
                assert np.abs(fd_z - g_z).max() <= 1e-5 * scale


def test_property_suite(tmix_demo, demo_sample_1m):
    with criterion("property-suite: homogeneity, ES>=VaR, translation "
                   "invariance, Euler bounds, multistart, risk reduction"):
        rng = np.random.default_rng(61)
        budgets = Budgets.equal(4)
        spec = ExpectedShortfall(0.95)

        # positive homogeneity and ES >= VaR on random portfolios
        for _ in range(10):
            y = np.exp(0.5 * rng.standard_normal(4))
            alpha = float(rng.uniform(0.85, 0.99))
            es = es_tmix(tmix_demo, y, alpha)
            assert es >= var_tmix(tmix_demo, y, alpha)
            for lam in (0.5, 3.0):
                assert abs(es_tmix(tmix_demo, lam * y, alpha) - lam * es) <= 1e-10 * lam * es

        # deviation translation invariance on random samples
        losses = rng.standard_t(df=5, size=2000)
        for dev in (Deviation(1.0, 1.0, 2.0), Deviation(2.0, 1.0, 1.0)):
            base = empirical_risk(dev, losses)
            assert abs(empirical_risk(dev, losses + 3.7) - base) <= 1e-10 * max(1, base)

        # Euler residual bounds: reference 1e-3, SGD 1e-2 (relative)
        ref = reference_solve(spec, budgets, tmix_demo)
        assert ref.contributions.max_relative_error() < 1e-3
        sgd = sgd_solve(spec, budgets, demo_sample_1m,
                        SolverConfig(method="sgd", epochs=10, seed=62))
        assert sgd.contributions.max_relative_error() < 1e-2

        # multistart uniqueness: SGD from 5 random interior starts
        worst = multistart_uniqueness_check(
            spec, budgets, demo_sample_1m,
            SolverConfig(method="sgd", epochs=10, seed=63), starts=5)
        assert worst < 0.5

        # risk reduction: solving the budget problem beats holding budgets
        for _ in range(3):
            b = Budgets(rng.dirichlet(np.full(4, 5.0)))
            solved = reference_solve(spec, b, tmix_demo)
            assert solved.contributions.total_risk <= es_tmix(tmix_demo, b.values, 0.95) + 1e-8


def test_output_determinism(tmp_path):
    with criterion("determinism: identical config and seed give byte-identical output"):
        model_path = str(rb.bundled_model_path("tmix4_demo"))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = tmp_path / f"cfg_{run}.json"
            cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                       "solver": {"epochs": 3}}))
            code = main(["solve", "--method", "sgd", "--model", model_path,
                         "--sample-size", "50000", "--seed", "17",
                         "--config", str(cfg), "--no-timing", "--out", str(out)])
            assert code == 0
            blobs.append((out / "solve_report.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert b"wall_time" not in blobs[0]
