import json
import threading
from dataclasses import replace

import numpy as np
import pytest

import riskbudget as rb
from riskbudget import (Budgets, DivergenceError, ExpectedShortfall,
                        ReturnSample, SolverConfig, StepSchedule, Volatility,
                        es_tmix, l1_accuracy, msbgd_solve,
                        multistart_uniqueness_check, osbgd_solve,
                        reference_solve, sgd_solve)
from riskbudget import solver as solver_mod
from riskbudget.models import StudentTMixture, derive_seed, sample_model
from riskbudget.risk import (ZetaState, empirical_objective_risk,
                             empirical_risk, warn_if_nonpositive_risk)


def iid_t_model(d, sigma2=1e-4, nu=4.0):
    return StudentTMixture(np.array([1.0]), np.zeros((1, d)),
                           np.array([np.eye(d) * sigma2]), np.array([nu]))


def colored_sample(target_cov, n, seed):
    """Sample whose empirical covariance is exactly the target."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, target_cov.shape[0]))
    z -= z.mean(axis=0)
    white = np.linalg.cholesky(np.cov(z.T, ddof=0))
    colored = z @ np.linalg.inv(white).T @ np.linalg.cholesky(target_cov).T
    return ReturnSample(colored)


class TestSgdSolve:
    def test_exchangeable_assets_equal_weights(self):
        # sample-optimum noise at n=1e6 sits near the tolerance, so judge
        # the median of three independent runs
        model = iid_t_model(2, nu=6.0)
        accs = []
        for seed in (31, 131, 231):
            sample = rb.sample_tmix(model, 10 ** 6, seed=seed)
            report = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(2), sample,
                               SolverConfig(method="sgd", epochs=10, seed=seed + 1))
            accs.append(l1_accuracy(report.weights, np.array([0.5, 0.5])))
        assert np.median(accs) <= 0.2

    def test_skewed_budgets_euler_audit(self, tmix_demo):
        budgets = Budgets(np.array([0.7, 0.1, 0.1, 0.1]))
        sample = rb.sample_tmix(tmix_demo, 4 * 10 ** 6, seed=101)
        report = sgd_solve(ExpectedShortfall(0.95), budgets, sample,
                           SolverConfig(method="sgd", epochs=6, seed=102))
        theta = report.weights.values
        h = 1e-4
        grad = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            grad[i] = (es_tmix(tmix_demo, theta + e, 0.95)
                       - es_tmix(tmix_demo, theta - e, 0.95)) / (2 * h)
        total = es_tmix(tmix_demo, theta, 0.95)
        errors = theta * grad - budgets.values * total
        assert np.abs(errors).max() < 1e-3 * total

    def test_deterministic_bitwise(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 50_000, seed=34)
        cfg = SolverConfig(method="sgd", epochs=2, seed=35)
        a = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample, cfg)
        b = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample, cfg)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.zeta.values, b.zeta.values)

    def test_divergence_detected_with_iteration(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 10_000, seed=36)
        cfg = SolverConfig(method="sgd", epochs=5, seed=37,
                           step_schedule=StepSchedule(kind="constant", base=1e9),
                           grad_clip=0.0)
        with pytest.raises(DivergenceError) as exc:
            sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample, cfg)
        assert exc.value.iteration is not None

    def test_report_weights_match_raw(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 30_000, seed=38)
        report = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                           SolverConfig(method="sgd", epochs=2, seed=39))
        renorm = rb.normalize(report.raw)
        assert np.abs(renorm.values - report.weights.values).max() <= 1e-12

    def test_report_serialization(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 20_000, seed=52)
        report = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                           SolverConfig(method="sgd", epochs=2, seed=53))
        doc = report.to_dict(include_timing=False, trace_limit=50)
        assert "wall_time" not in doc
        assert len(doc["objective_trace"]) == 50
        assert doc["weights"] == report.weights.values.tolist()
        row = report.to_csv_row(include_timing=False)
        assert row[0] == "sgd"
        assert [float(v) for v in row[3:]] == report.weights.values.tolist()

    def test_trace_length(self, tmix_demo):
        n, batch, epochs = 10_000, 128, 3
        sample = rb.sample_tmix(tmix_demo, n, seed=40)
        report = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                           SolverConfig(method="sgd", epochs=epochs,
                                        batch_size=batch, seed=41,
                                        record_iterates=True))
        want = epochs * int(np.ceil(n / batch)) + 1
        assert report.objective_trace.shape[0] == want
        assert report.iterate_trace.shape[0] == want

    def test_small_sample_rejected(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 64, seed=42)
        with pytest.raises(ValueError):
            sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                      SolverConfig(method="sgd", batch_size=128))


class TestOsbgdSolve:
    def test_symmetric_volatility(self):
        cov = np.array([[0.04, 0.02], [0.02, 0.04]])  # equal vols, corr 0.5
        sample = colored_sample(cov, 5000, seed=43)
        report = osbgd_solve(Volatility(), Budgets.equal(2), sample,
                             SolverConfig(method="osbgd"))
        assert l1_accuracy(report.weights, np.array([0.5, 0.5])) <= 0.05

    def test_duplicated_asset_equal_weights(self):
        rng = np.random.default_rng(44)
        x = rng.standard_t(df=5, size=20_000) * 0.01
        sample = ReturnSample(np.column_stack([x, x]))
        report = osbgd_solve(ExpectedShortfall(0.95), Budgets.equal(2), sample,
                             SolverConfig(method="osbgd"))
        assert l1_accuracy(report.weights, np.array([0.5, 0.5])) <= 0.05

    def test_single_asset_rejected(self):
        sample = ReturnSample(np.random.default_rng(0).normal(size=(100, 1)))
        with pytest.raises(ValueError):
            osbgd_solve(ExpectedShortfall(0.95), Budgets(np.array([1.0])),
                        sample, SolverConfig(method="osbgd"))

    def test_capped_run_returns_best_iterate(self, gmix_stressed):
        # BB steps on the piecewise-linear tail mean oscillate; a run cut at
        # max_iters must hand back its lowest-objective iterate, not its last
        from riskbudget.solver import _bb_descent, _sample_risk
        spec = ExpectedShortfall(0.9)
        budgets = Budgets(np.array([0.5, 0.3, 0.2]))
        x = rb.sample_model(gmix_stressed, 3000, seed=7).data
        risk = _sample_risk(spec, x / empirical_risk(spec, -(x @ budgets.values)))
        y, trace, iters, _ = _bb_descent(risk, budgets, budgets.values.copy(),
                                         SolverConfig(method="osbgd", stop_tol=0.0),
                                         60, stop_on_objective=True)
        f = risk(y)[0] - float(budgets.values @ np.log(y))
        assert iters == 60
        assert f == trace[:, 1].min() < trace[-1, 1]

    def test_tracks_sgd_on_same_sample(self, demo_sample_1m, tmix_demo):
        budgets = Budgets.equal(4)
        spec = ExpectedShortfall(0.95)
        os_rep = osbgd_solve(spec, budgets, demo_sample_1m,
                             SolverConfig(method="osbgd"))
        sgd_rep = sgd_solve(spec, budgets, demo_sample_1m,
                            SolverConfig(method="sgd", epochs=10, seed=45))
        assert l1_accuracy(os_rep.weights, sgd_rep.weights) <= 0.2

    def test_sample_scaling_leaves_weights(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 100_000, seed=46)
        spec = ExpectedShortfall(0.95)
        cfg = SolverConfig(method="osbgd")
        base = osbgd_solve(spec, Budgets.equal(4), sample, cfg)
        for lam in (0.2, 40.0):
            scaled = osbgd_solve(spec, Budgets.equal(4),
                                 ReturnSample(sample.data * lam), cfg)
            assert l1_accuracy(base.weights, scaled.weights) <= 0.1


class TestMsbgdSolve:
    def test_exchangeable_assets(self):
        model = iid_t_model(3)
        report = msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(3), model,
                             SolverConfig(method="msbgd", max_iters=60,
                                          resample_size=100_000, seed=47))
        assert l1_accuracy(report.weights, np.full(3, 1 / 3)) <= 0.3

    def test_matches_reference(self, tmix_demo):
        ref = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        report = msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo,
                             SolverConfig(method="msbgd", max_iters=60,
                                          resample_size=100_000, seed=48))
        assert l1_accuracy(report.weights, ref.weights) <= 1.0

    def test_deterministic(self, tmix_demo):
        cfg = SolverConfig(method="msbgd", max_iters=20,
                           resample_size=20_000, seed=49)
        a = msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        b = msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(a.objective_trace, b.objective_trace)


def _serial_msbgd(spec, budgets, model, config):
    """msbgd as it stood before the prefetch pool: each sample drawn on the
    calling thread when the descent asks for it. The oracle the pooled
    solve must reproduce byte for byte."""
    def draw(key):
        return sample_model(model, config.resample_size,
                            derive_seed(config.seed, "msbgd", key)).data

    x0 = draw(0)
    d = model.dim
    warn_if_nonpositive_risk(spec, lambda w: empirical_risk(spec, -(x0 @ w)), d)
    scale = solver_mod._standardization_constant(
        spec, -(x0 @ rb.normalize(budgets.values).values))
    y = solver_mod._initial_allocation(budgets, None)

    def fresh_risk(k):
        return solver_mod._sample_risk(spec, (x0 if k == 0 else draw(k)) / scale)

    iters_fixed = config.max_iters or 60
    cfg = config if config.last_k is not None else replace(config, last_k=5)
    _, trace, iters, tail = solver_mod._bb_descent(
        None, budgets, y, cfg, iters_fixed, stop_on_objective=False,
        fresh_risk=fresh_risk)
    y_avg = np.mean(tail, axis=0)
    raw = rb.RawAllocation(y_avg / scale)
    weights = rb.normalize(raw)
    audit_data = draw("audit")
    zeta = spec.init_zeta(-((audit_data / scale) @ y_avg))
    report = solver_mod._empirical_report(spec, budgets, weights, audit_data)
    return rb.SolveReport(weights, raw, ZetaState(zeta), report, trace, 0.0,
                          iters, config.seed, "msbgd")


class _DrawFailed(Exception):
    pass


class TestMsbgdPrefetch:
    @pytest.mark.parametrize("spec", [ExpectedShortfall(0.95), Volatility()],
                             ids=["es", "volatility"])
    @pytest.mark.parametrize("max_iters, size", [(1, 3000), (7, 2 * 4096 + 3), (25, 5000)])
    def test_matches_serial_oracle(self, tmix_demo, spec, max_iters, size):
        budgets = Budgets(np.array([0.4, 0.3, 0.2, 0.1]))
        cfg = SolverConfig(method="msbgd", max_iters=max_iters, resample_size=size,
                           seed=50 + max_iters)
        got = msbgd_solve(spec, budgets, tmix_demo, cfg).to_dict(include_timing=False)
        want = _serial_msbgd(spec, budgets, tmix_demo, cfg).to_dict(include_timing=False)
        assert json.dumps(got) == json.dumps(want)

    def test_draw_error_reaches_caller_and_threads_end(self, tmix_demo, monkeypatch):
        cfg = SolverConfig(method="msbgd", max_iters=10, resample_size=2000, seed=51)
        budgets = Budgets.equal(4)
        threads = threading.active_count()
        msbgd_solve(ExpectedShortfall(0.95), budgets, tmix_demo, cfg)
        assert threading.active_count() == threads

        failing_seed = derive_seed(cfg.seed, "msbgd", 2)

        def third_draw_fails(model, n, seed):
            if seed == failing_seed:
                raise _DrawFailed("third draw")
            return sample_model(model, n, seed)

        monkeypatch.setattr(solver_mod, "sample_model", third_draw_fails)
        with pytest.raises(_DrawFailed):
            msbgd_solve(ExpectedShortfall(0.95), budgets, tmix_demo, cfg)
        assert threading.active_count() == threads

    def test_draws_stay_two_ahead(self, tmix_demo, monkeypatch):
        # a draw for iteration j may start once the descent has taken the
        # samples of iterations 0..j-3, never earlier
        cfg = SolverConfig(method="msbgd", max_iters=12, resample_size=2000, seed=52)
        keys = {derive_seed(cfg.seed, "msbgd", k): k for k in range(cfg.max_iters + 1)}
        keys[derive_seed(cfg.seed, "msbgd", "audit")] = cfg.max_iters + 1
        lock = threading.Lock()
        used = [0]
        started = {}
        sample_risk = solver_mod._sample_risk

        def recording_draw(model, n, seed):
            with lock:
                started[keys[seed]] = used[0]
            return sample_model(model, n, seed)

        def counting_risk(spec, xs):
            with lock:
                used[0] += 1
            return sample_risk(spec, xs)

        monkeypatch.setattr(solver_mod, "sample_model", recording_draw)
        monkeypatch.setattr(solver_mod, "_sample_risk", counting_risk)
        msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        assert sorted(started) == list(range(cfg.max_iters + 2))
        for key, uses in started.items():
            assert uses >= key - 2


class TestReferenceSolve:
    def test_equal_correlation_inverse_vol(self):
        # closed form: with equal pairwise correlations the ERC volatility
        # portfolio weights are inversely proportional to volatilities
        vols = np.array([0.1, 0.2, 0.4])
        corr = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
        cov = corr * np.outer(vols, vols)
        model = rb.GaussianMixture(np.array([1.0]), np.zeros((1, 3)),
                                   np.array([cov]))
        report = reference_solve(Volatility(), Budgets.equal(3), model)
        want = (1 / vols) / (1 / vols).sum()
        assert l1_accuracy(report.weights, want) < 1e-4

    def test_fixed_point_of_contributions(self, tmix_demo):
        first = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        contrib = first.contributions.contributions
        budgets = Budgets(contrib / contrib.sum())
        second = reference_solve(ExpectedShortfall(0.95), budgets, tmix_demo)
        assert l1_accuracy(first.weights, second.weights) < 0.05

    def test_objective_trace_non_increasing(self, tmix_demo):
        report = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        vals = report.objective_trace[:, 1]
        assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_needs_exact_evaluator(self, tmix_demo):
        with pytest.raises(rb.SpecError):
            reference_solve(rb.Deviation(1.0, 1.0, 2.0), Budgets.equal(4), tmix_demo)
        # ES-mean with beta=1, delta=0 shares the ES threshold form, not its evaluator
        with pytest.raises(rb.SpecError):
            reference_solve(rb.ESMeanMixture(1.0, 0.0, 0.95), Budgets.equal(4), tmix_demo)
        with pytest.raises(rb.SpecError):
            reference_solve(rb.Spectral(0.1), Budgets.equal(4), tmix_demo)

    def test_es_needs_tmix(self, gmix_calm):
        with pytest.raises(rb.SpecError):
            reference_solve(ExpectedShortfall(0.95), Budgets.equal(3), gmix_calm)


EULER_AUDIT_SPECS = [
    Volatility(), ExpectedShortfall(0.9), rb.ESMeanMixture(1.0, -1.0, 0.9),
    rb.Spectral(0.1, 8), rb.Spectral(0.1, 8, subtract_mean=True),
    rb.Deviation(1.0, 1.0, 2.0), rb.Deviation(2.0, 1.0, 1.0),
    rb.Deviation(2.0, 0.5, 1.5), rb.DeviationPlusMean(1.0, 1.0, 1.0, delta=1.0)]


@pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
def test_every_measure_passes_euler_audit(spec, gmix_stressed):
    # the solved portfolio's Euler contributions must match the budgets for
    # every measure the spec classes accept
    sample = rb.sample_model(gmix_stressed, 20_000, seed=5)
    budgets = Budgets(np.array([0.5, 0.3, 0.2]))
    report = osbgd_solve(spec, budgets, sample,
                         SolverConfig(method="osbgd", stop_tol=1e-12))
    assert np.abs(report.contributions.budget_errors).max() < 1e-3


@pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
def test_loss_weights_match_central_differences(spec):
    losses = np.random.default_rng(13).standard_t(df=5, size=300)
    # gaps between losses exceed h, so no step crosses a kink of a
    # piecewise-linear measure
    assert np.diff(np.sort(losses)).min() > 1e-6
    _, w = empirical_objective_risk(spec, losses)
    h = 1e-8
    fd = np.empty(losses.size)
    for i in range(losses.size):
        up, down = losses.copy(), losses.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (empirical_objective_risk(spec, up)[0]
                 - empirical_objective_risk(spec, down)[0]) / (2 * h)
    assert np.abs(fd - w).max() <= 1e-5 * np.abs(w).max()


@pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
def test_loss_weights_satisfy_euler(spec):
    # the objective risk is positively homogeneous of degree `power` in the
    # losses, so its exact gradient reproduces power * value
    for n, seed in ((300, 13), (1000, 14), (1001, 15)):
        losses = np.random.default_rng(seed).standard_t(df=5, size=n)
        value, w = empirical_objective_risk(spec, losses)
        assert abs(w @ losses - spec.power * value) <= 1e-12 * np.abs(w * losses).sum()


@pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
def test_osbgd_scale_invariant_and_permutation_equivariant(spec, gmix_stressed):
    sample = rb.sample_model(gmix_stressed, 5_000, seed=8)
    b = np.array([0.5, 0.3, 0.2])
    cfg = SolverConfig(method="osbgd")
    base = osbgd_solve(spec, Budgets(b), sample, cfg).weights.values
    for lam in (0.03, 7.0):
        scaled = osbgd_solve(spec, Budgets(b), ReturnSample(sample.data * lam), cfg)
        assert l1_accuracy(scaled.weights, base) <= 1e-6
    perm = np.array([2, 0, 1])
    permuted = osbgd_solve(spec, Budgets(b[perm]), ReturnSample(sample.data[:, perm]), cfg)
    assert l1_accuracy(permuted.weights, base[perm]) <= 1e-6


class TestRiskReduction:
    def test_solved_risk_below_budget_portfolio(self, tmix_demo):
        # specifying budgets rather than weights can only reduce risk
        rng = np.random.default_rng(50)
        for _ in range(5):
            b = Budgets(rng.dirichlet(np.full(4, 6.0)))
            report = reference_solve(ExpectedShortfall(0.95), b, tmix_demo)
            assert (report.contributions.total_risk
                    <= es_tmix(tmix_demo, b.values, 0.95) + 1e-8)

    def test_empirical_counterpart(self, demo_sample_1m):
        spec = ExpectedShortfall(0.95)
        budgets = Budgets(np.array([0.4, 0.3, 0.2, 0.1]))
        report = osbgd_solve(spec, budgets, demo_sample_1m,
                             SolverConfig(method="osbgd"))
        risk_solved = empirical_risk(spec, -(demo_sample_1m.data @ report.weights.values))
        risk_at_b = empirical_risk(spec, -(demo_sample_1m.data @ budgets.values))
        assert risk_solved <= risk_at_b + 1e-8


class TestMultistart:
    def test_volatility_reference(self, gmix_calm):
        worst = multistart_uniqueness_check(
            Volatility(), Budgets.equal(3), gmix_calm,
            SolverConfig(method="reference", seed=51), starts=5)
        assert worst < 0.01

    def test_single_start_rejected(self, gmix_calm):
        with pytest.raises(ValueError):
            multistart_uniqueness_check(Volatility(), Budgets.equal(3), gmix_calm,
                                        SolverConfig(method="reference"), starts=1)
