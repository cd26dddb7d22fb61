import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import riskbudget as rb
from riskbudget import (Budgets, DivergenceError, ExpectedShortfall,
                        ReturnSample, SolverConfig, Volatility,
                        es_tmix, l1_accuracy, msbgd_solve,
                        multistart_uniqueness_check, osbgd_solve,
                        reference_solve, sgd_solve)
from riskbudget import solver as solver_mod
from riskbudget.models import StudentTMixture, derive_seed, sample_model
from riskbudget.risk import (ZetaState, _hinge_power, dev_inner_zeta,
                             empirical_objective_risk, empirical_risk)
from conftest import empirical_es


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
        cfg = SolverConfig(method="sgd", epochs=5, seed=37, step_base=1e9,
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

    def test_tiny_averaging_fraction_averages_the_last_iterate(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 5000, seed=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                               SolverConfig(epochs=1, averaging_fraction=1e-17,
                                            record_iterates=True))
        last = report.iterate_trace[-1]
        assert np.all(np.isfinite(report.weights.values))
        assert np.array_equal(report.zeta.values, last[5:6])
        assert np.allclose(report.weights.values, last[6:], rtol=1e-12, atol=0.0)

    def test_small_sample_rejected(self, tmix_demo):
        sample = rb.sample_tmix(tmix_demo, 64, seed=42)
        with pytest.raises(ValueError):
            sgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                      SolverConfig(method="sgd", batch_size=128))

    def test_gather_holds_no_epoch_of_rows(self):
        # a batch above the gather cap is gathered alone; gathering the whole
        # permutation at once would copy the sample (16 MB here)
        x = rb.sample_model(rb.synth_dgp(10, 5), 200_000, seed=67).data
        tracemalloc.start()
        try:
            sgd_solve(ExpectedShortfall(0.95), Budgets.equal(10), ReturnSample(x),
                      SolverConfig(batch_size=20_000, epochs=1, seed=68))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


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
        risk = _sample_risk(spec, x, empirical_risk(spec, -(x @ budgets.values)))
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

    @pytest.mark.parametrize("budgets, y0", [(Budgets.equal(9), None),
                                             (Budgets.equal(10), np.ones(9))],
                             ids=["budgets", "y0"])
    def test_checks_inputs_before_drawing(self, monkeypatch, budgets, y0):
        draws = []
        monkeypatch.setattr(solver_mod, "sample_model", lambda *a, **k: draws.append(a))
        with pytest.raises(rb.InputError):
            msbgd_solve(ExpectedShortfall(0.95), budgets, rb.synth_dgp(10, 5),
                        SolverConfig(method="msbgd"), y0=y0)
        assert draws == []

    @pytest.mark.parametrize("last_k", [1, 3, 7, 10])
    def test_averages_exactly_last_k_iterates(self, tmix_demo, monkeypatch, last_k):
        seen = {}
        start, descent = solver_mod._start, solver_mod._bb_descent

        def recording_start(*args):
            seen["scale"], y = start(*args)
            return seen["scale"], y

        def recording_descent(*args, **kwargs):
            out = descent(*args, **kwargs)
            seen["ys"] = [y.copy() for y in out[3]]
            return out

        monkeypatch.setattr(solver_mod, "_start", recording_start)
        monkeypatch.setattr(solver_mod, "_bb_descent", recording_descent)
        cfg = SolverConfig(method="msbgd", max_iters=7, resample_size=3000, seed=54,
                           last_k=last_k)
        report = msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        ys = seen["ys"]
        assert len(ys) == report.iterations == 7
        want = np.mean(ys[-last_k:], axis=0) / seen["scale"]
        assert np.array_equal(report.raw.values, want)
        if last_k < 7:
            assert not np.allclose(report.raw.values,
                                   np.mean(ys, axis=0) / seen["scale"], rtol=1e-12)


class TestSolverConfig:
    @pytest.mark.parametrize("key, value", [
        ("step_schedule", {"kind": "constant", "base": 1e9}), ("kind", "constant"),
        ("exponent", 0.75)])
    def test_removed_schedule_keys_rejected(self, key, value):
        with pytest.raises(rb.InputError):
            solver_mod.config_from_dict({key: value})
        with pytest.raises(rb.InputError):
            solver_mod.config_from_dict({key: value}, base=SolverConfig(epochs=3))

    @pytest.mark.parametrize("method", ["sgd", "osbgd"])
    def test_sgd_and_osbgd_ignore_last_k(self, tmix_demo, method):
        sample = rb.sample_tmix(tmix_demo, 5_000, seed=55)
        base = SolverConfig(method=method, epochs=2, seed=56)
        docs = [json.dumps(rb.solve(ExpectedShortfall(0.95), Budgets.equal(4), sample,
                                    replace(base, last_k=k)).to_dict(include_timing=False))
                for k in (1, 5, 40)]
        assert docs[0] == docs[1] == docs[2]

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5),
        ("batch_size", 0), ("last_k", 0), ("resample_size", 0), ("resample_size", 1e5),
        ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.0), ("seed", -1),
        ("seed", 1.0), ("step_base", float("nan")), ("step_base", float("inf")),
        ("step_base", "0.1"), ("grad_clip", -1.0), ("grad_clip", float("inf")),
        ("stop_tol", float("nan")), ("stop_tol", -1e-6), ("averaging_fraction", "0.2"),
        ("method", "nope"), ("record_iterates", "no")])
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(rb.InputError, match=field):
            SolverConfig(**{field: value})
        with pytest.raises(rb.InputError, match=field):
            solver_mod.config_from_dict({field: value})

    def test_edge_values_accepted(self):
        cfg = SolverConfig(epochs=1, batch_size=1, last_k=1, resample_size=1, max_iters=1,
                           seed=np.int64(0), step_base=-1.0, grad_clip=0.0, stop_tol=0.0)
        assert cfg.max_iters == 1
        assert SolverConfig(max_iters=None, seed=2 ** 64 - 1).max_iters is None


def _serial_msbgd(spec, budgets, model, config):
    """msbgd as it stood before the prefetch pool: each sample drawn on the
    calling thread when the descent asks for it. The oracle the pooled
    solve must reproduce byte for byte."""
    def draw(key):
        return sample_model(model, config.resample_size,
                            derive_seed(config.seed, "msbgd", key)).data

    x0 = draw(0)
    scale, y = solver_mod._start(spec, budgets, x0, None)

    iters_fixed = config.max_iters or 60
    samples = (x0 if k == 0 else draw(k) for k in range(iters_fixed + 1))
    _, trace, iters, ys = solver_mod._bb_descent(
        lambda yy: solver_mod._sample_risk(spec, next(samples), scale)(yy),
        budgets, y, config, iters_fixed, stop_on_objective=False)
    y_avg = np.mean(ys[-config.last_k:], axis=0)
    raw = rb.RawAllocation(y_avg / scale)
    weights = rb.normalize(raw)
    audit_data = draw("audit")
    zeta = spec.init_zeta(-(audit_data @ raw.values))
    report = solver_mod._empirical_report(spec, budgets, weights, audit_data)
    return rb.SolveReport(weights, raw, ZetaState(zeta), report, trace, 0.0,
                          iters, config.seed, "msbgd")


class _DrawFailed(Exception):
    pass


class _RiskFailed(Exception):
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

        def third_draw_fails(model, n, seed, out=None):
            if seed == failing_seed:
                raise _DrawFailed("third draw")
            return sample_model(model, n, seed, out=out)

        monkeypatch.setattr(solver_mod, "sample_model", third_draw_fails)
        with pytest.raises(_DrawFailed):
            msbgd_solve(ExpectedShortfall(0.95), budgets, tmix_demo, cfg)
        assert threading.active_count() == threads

    def test_descent_error_reaches_caller_and_draws_stop(self, tmix_demo, monkeypatch):
        # evaluating sample 4 fails: the error reaches the caller, the threads
        # end, and no draw past 4 + _PREFETCH_DRAWS starts
        cfg = SolverConfig(method="msbgd", max_iters=12, resample_size=2000, seed=54)
        keys = {derive_seed(cfg.seed, "msbgd", k): k for k in range(cfg.max_iters + 1)}
        keys[derive_seed(cfg.seed, "msbgd", "audit")] = cfg.max_iters + 1
        lock = threading.Lock()
        started, evaluated = [], []
        sample_risk = solver_mod._sample_risk

        def recording_draw(model, n, seed, out=None):
            with lock:
                started.append(keys[seed])
            return sample_model(model, n, seed, out=out)

        def failing_risk(spec, x, scale):
            evaluated.append(x)
            if len(evaluated) == 5:
                raise _RiskFailed("sample 4")
            return sample_risk(spec, x, scale)

        monkeypatch.setattr(solver_mod, "sample_model", recording_draw)
        monkeypatch.setattr(solver_mod, "_sample_risk", failing_risk)
        threads = threading.active_count()
        with pytest.raises(_RiskFailed):
            msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        assert threading.active_count() == threads
        assert max(started) <= 4 + solver_mod._PREFETCH_DRAWS

    def test_priming_stops_at_the_audit_draw(self, tmix_demo, monkeypatch):
        # more draw threads than draws: only the start, the one iteration's
        # sample and the audit sample are drawn
        monkeypatch.setattr(solver_mod, "_PREFETCH_DRAWS", 4)
        cfg = SolverConfig(method="msbgd", max_iters=1, resample_size=2000, seed=55)
        seeds = []

        def recording_draw(model, n, seed, out=None):
            seeds.append(seed)
            return sample_model(model, n, seed, out=out)

        monkeypatch.setattr(solver_mod, "sample_model", recording_draw)
        msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        assert len(seeds) == cfg.max_iters + 2
        assert set(seeds) == {derive_seed(cfg.seed, "msbgd", k) for k in (0, 1, "audit")}

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

        def recording_draw(model, n, seed, out=None):
            with lock:
                started[keys[seed]] = used[0]
            return sample_model(model, n, seed, out=out)

        def counting_risk(spec, x, scale):
            with lock:
                used[0] += 1
            return sample_risk(spec, x, scale)

        monkeypatch.setattr(solver_mod, "sample_model", recording_draw)
        monkeypatch.setattr(solver_mod, "_sample_risk", counting_risk)
        msbgd_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo, cfg)
        assert sorted(started) == list(range(cfg.max_iters + 2))
        for key, uses in started.items():
            assert uses >= key - 2

    @pytest.mark.parametrize("prefetch", [2, 4])
    def test_evaluates_only_ring_memory(self, tmix_demo, monkeypatch, prefetch):
        # the start, every resample and the audit sample are views of the
        # solve's ring: max_iters + 2 samples in _PREFETCH_DRAWS + 2 buffers.
        # Four draw threads on a short switch interval: a slot written while
        # its sample is still in use would change the bytes
        monkeypatch.setattr(solver_mod, "_PREFETCH_DRAWS", prefetch)
        spec, budgets = ExpectedShortfall(0.95), Budgets(np.array([0.4, 0.3, 0.2, 0.1]))
        cfg = SolverConfig(method="msbgd", max_iters=9, resample_size=3001, seed=53)
        want = _serial_msbgd(spec, budgets, tmix_demo, cfg).to_dict(include_timing=False)
        roots = []
        sample_risk = solver_mod._sample_risk

        def recording_risk(spec, x, scale):
            root = x
            while root.base is not None:
                root = root.base
            roots.append(root)
            return sample_risk(spec, x, scale)

        monkeypatch.setattr(solver_mod, "_sample_risk", recording_risk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = msbgd_solve(spec, budgets, tmix_demo, cfg).to_dict(include_timing=False)
        finally:
            sys.setswitchinterval(interval)
        assert len(roots) == cfg.max_iters + 2
        assert len({id(r) for r in roots}) <= prefetch + 2
        assert json.dumps(got) == json.dumps(want)


class TestDescentsReadTheSample:
    @pytest.mark.parametrize("method", ["osbgd", "msbgd"])
    def test_no_standardized_copy(self, tmix_demo, monkeypatch, method):
        # the descents and their audits evaluate each drawn array itself
        drawn, seen = [], []
        draw, sample_risk = solver_mod.sample_model, solver_mod._sample_risk

        def recording_draw(model, n, seed, out=None):
            sample = draw(model, n, seed, out=out)
            drawn.append(sample.data)
            return sample

        def recording_risk(spec, x, scale):
            seen.append(x)
            return sample_risk(spec, x, scale)

        monkeypatch.setattr(solver_mod, "sample_model", recording_draw)
        monkeypatch.setattr(solver_mod, "_sample_risk", recording_risk)
        cfg = SolverConfig(method=method, max_iters=6, resample_size=3000, seed=57)
        data = tmix_demo
        if method == "osbgd":
            data = rb.sample_model(tmix_demo, 3000, seed=57)
            drawn.append(data.data)
        rb.solve(ExpectedShortfall(0.95), Budgets.equal(4), data, cfg)
        assert all(any(x is d for d in drawn) for x in seen)
        # osbgd: the descent and the audit on its one sample; msbgd: the start,
        # each iteration's resample and the audit sample, each a draw of its own
        assert len(seen) == (2 if method == "osbgd" else cfg.max_iters + 2)
        assert len({id(x) for x in seen}) == (1 if method == "osbgd" else len(seen))


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


def _replaced_risk(spec, x):
    """The per-class full-sample risk evaluators that spec.risk now derives
    from the objective value, kept as oracles."""
    if isinstance(spec, Volatility):
        return float(x.std())
    if isinstance(spec, (ExpectedShortfall, rb.ESMeanMixture)):
        val = spec.beta * empirical_es(x, spec.alpha)
    else:
        z = dev_inner_zeta(spec, x)
        hinge_mean = float(_hinge_power(x, z, spec.a, spec.b, spec.p).mean())
        val = hinge_mean ** (1.0 / spec.p)
    if spec.delta != 0.0:
        val += spec.delta * float(x.mean())
    return val


class TestDerivedRisk:
    @staticmethod
    def _loss_samples(seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 300, 3500):
            x = rng.standard_t(df=5, size=n)
            yield x
            yield np.round(x, 1)    # tied losses

    @pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
    def test_risk_is_objective_value_to_one_over_power(self, spec):
        for losses in self._loss_samples(31):
            value = empirical_objective_risk(spec, losses)[0]
            assert empirical_risk(spec, losses) == value ** (1.0 / spec.power)

    @pytest.mark.parametrize("spec", [s for s in EULER_AUDIT_SPECS
                                      if not isinstance(s, rb.Spectral)],
                             ids=rb.measure_label)
    def test_matches_replaced_evaluators(self, spec):
        # bit-equal, except that volatility's x.var() ** 0.5 may round one
        # ulp away from x.std(), which takes a correctly rounded sqrt
        for losses in self._loss_samples(32):
            got, want = empirical_risk(spec, losses), _replaced_risk(spec, losses)
            if isinstance(spec, Volatility):
                assert abs(got - want) <= np.spacing(want)
            else:
                assert got == want

    @pytest.mark.parametrize("nodes", [1, 8, 20])
    @pytest.mark.parametrize("subtract_mean", [False, True])
    def test_spectral_sort_only_risk_matches_derived(self, nodes, subtract_mean):
        spec = rb.Spectral(0.1, nodes, subtract_mean=subtract_mean)
        for losses in self._loss_samples(nodes):
            assert spec.risk(losses) == spec.objective_and_weights(losses)[0] ** (1.0 / spec.power)


    @pytest.mark.parametrize("spec", [ExpectedShortfall(0.9), ExpectedShortfall(0.5),
                                      rb.ESMeanMixture(1.0, -1.0, 0.9),
                                      rb.ESMeanMixture(2.0, 0.5, 0.95)],
                             ids=rb.measure_label)
    def test_ru_value_only_risk_matches_evaluator(self, spec):
        for losses in self._loss_samples(33):
            assert spec.risk(losses) == spec.objective_and_weights(losses)[0]


def _per_probe_risks(spec, x):
    # the positivity probes as they were evaluated one at a time
    d = x.shape[1]
    probes = [np.full(d, 1.0 / d)]
    for i in range(d):
        w = np.full(d, 0.1 / (d - 1))
        w[i] = 0.9
        probes.append(w)
    return [empirical_risk(spec, -(x @ w)) for w in probes]


class TestPositivityProbes:
    @pytest.mark.parametrize("spec", [s for s in EULER_AUDIT_SPECS if s._probe_positivity],
                             ids=rb.measure_label)
    @pytest.mark.parametrize("d", [3, 10])
    def test_grouped_probes_match_per_probe(self, spec, d, monkeypatch):
        x = rb.sample_model(rb.synth_dgp(d, 7), 20_000, seed=58).data
        blocks = []
        warn = solver_mod.warn_if_nonpositive_risk

        def recording(spec, risks_at, d):
            def recorded(block):
                blocks.append((len(block), list(risks_at(block))))
                return blocks[-1][1]
            warn(spec, recorded, d)

        monkeypatch.setattr(solver_mod, "warn_if_nonpositive_risk", recording)
        solver_mod._start(spec, Budgets.equal(d), x, None)
        assert all(size <= 2 for size, _ in blocks)
        got = [r for _, risks in blocks for r in risks]
        want = _per_probe_risks(spec, x)
        assert len(got) == len(want) == d + 1
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)

    @pytest.mark.parametrize("spec", [ExpectedShortfall(0.5), rb.Spectral(0.1, 8)],
                             ids=rb.measure_label)
    def test_nonpositive_probes_warn_as_per_probe(self, spec):
        # a large positive mean on two assets makes some probes' risk negative
        x = (np.random.default_rng(59).normal(size=(5000, 4))
             + np.array([3.0, 3.0, -3.0, 0.0]))
        bad = sum(r <= 0.0 for r in _per_probe_risks(spec, x))
        assert 0 < bad < 5
        with pytest.warns(rb.RiskPositivityWarning) as record:
            solver_mod._start(spec, Budgets.equal(4), x, None)
        assert [str(w.message) for w in record] == [
            f"{rb.measure_label(spec)} is non-positive on {bad} probe portfolio(s); "
            "risk budgets are not meaningful there"]

    def test_probes_hold_no_loss_block(self):
        # two probes' losses at a time, never an n x (d + 1) block
        x = rb.sample_model(rb.synth_dgp(10, 5), 200_000, seed=60).data
        tracemalloc.start()
        try:
            solver_mod._start(ExpectedShortfall(0.95), Budgets.equal(10), x, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * x.nbytes


class TestOneEvaluationPerAudit:
    @staticmethod
    def _count(monkeypatch, name):
        calls = [0]
        original = getattr(solver_mod, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_mod, name, counted)
        return calls

    @pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
    def test_empirical_report_evaluates_once(self, spec, gmix_stressed, monkeypatch):
        data = rb.sample_model(gmix_stressed, 3000, seed=6).data
        weights = rb.normalize(rb.RawAllocation(np.array([0.2, 0.3, 0.5])))
        objective_calls = self._count(monkeypatch, "empirical_objective_risk")
        risk_calls = self._count(monkeypatch, "empirical_risk")
        report = solver_mod._empirical_report(spec, Budgets(np.array([0.5, 0.3, 0.2])),
                                              weights, data)
        assert (objective_calls[0], risk_calls[0]) == (1, 0)
        total = report.total_risk
        assert total == empirical_risk(spec, -(data @ weights.values))
        assert abs(report.contributions.sum() - total) <= 1e-12 * abs(total)

    def test_es_reference_audits_from_one_evaluation(self, tmix_demo, monkeypatch):
        es_calls = self._count(monkeypatch, "es_tmix")
        report = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        # d + 1 positivity probes and no audit call
        assert es_calls[0] == tmix_demo.dim + 1
        total = report.contributions.total_risk
        assert total == es_tmix(tmix_demo, report.weights.values, 0.95)
        assert abs(report.contributions.contributions.sum() - total) <= 1e-12 * total


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

    @pytest.mark.parametrize("starts", [3.0, "3"])
    def test_non_integer_starts_rejected(self, gmix_calm, starts):
        with pytest.raises(rb.InputError, match="starts"):
            multistart_uniqueness_check(Volatility(), Budgets.equal(3), gmix_calm,
                                        SolverConfig(method="reference"), starts=starts)


def _oracle_sgd_solve(spec, budgets, sample, config, y0=None):
    """sgd_solve as it stood before its loop was trimmed: the whole sample
    standardized up front, the clip switch read per step and np.isfinite
    checks. It calls the same step functions, whose own oracle is in
    tests/test_risk.py; together they pin SGD reports to the earlier bytes."""
    x = sample.data
    n, d = x.shape
    if config.epochs < 1:
        raise rb.InputError("need at least one epoch")
    if n < config.batch_size:
        raise rb.InputError(f"sample of {n} rows is smaller than one batch ({config.batch_size})")
    scale, y = solver_mod._start(spec, budgets, x, y0)
    objective, subgradient = solver_mod._step_pair(spec, budgets)
    xs = x / scale

    floor = 1e-8 * y.mean()
    rng = np.random.default_rng(config.seed)
    batches_per_epoch = int(np.ceil(n / config.batch_size))
    total = config.epochs * batches_per_epoch
    avg_start = int(np.floor(total * (1.0 - config.averaging_fraction)))

    order = rng.permutation(n)
    first = xs[order[:config.batch_size]]
    zeta = spec.init_zeta(-(first @ y))
    obj0 = objective(y, zeta, first)
    if not np.isfinite(obj0):
        raise rb.NumericError("non-finite objective at the starting point")
    if config.step_base > 0.0:
        base = config.step_base
    else:
        base = 1.0 / (d * max(abs(obj0), 1e-12))
    g_y0, g_z0 = subgradient(y, zeta, first)
    cap = config.grad_clip * (1.0 + float(np.sqrt(g_y0 @ g_y0 + g_z0 @ g_z0)))

    trace = np.empty((total + 1, 2))
    iterates = None
    n_zeta = zeta.size
    if config.record_iterates:
        iterates = np.empty((total + 1, 1 + d + n_zeta + d))
        iterates[0] = [0.0, *y, *zeta, *(y / y.sum())]

    y_sum = np.zeros(d)
    zeta_sum = np.zeros(n_zeta)
    n_avg = 0
    k = 0
    bs = config.batch_size
    chunk_rows = max(solver_mod._GATHER_ROWS // bs, 1) * bs
    for epoch in range(config.epochs):
        if epoch > 0:
            order = rng.permutation(n)
        for chunk_start in range(0, n, chunk_rows):
            chunk = xs[order[chunk_start:chunk_start + chunk_rows]]
            for start in range(0, len(chunk), bs):
                batch = chunk[start:start + bs]
                value = objective(y, zeta, batch)
                if not math.isfinite(value) or abs(value) > solver_mod.DIVERGENCE_THRESHOLD:
                    raise DivergenceError(
                        f"objective {value!r} diverged at iteration {k}", iteration=k)
                trace[k] = (k, value)
                g_y, g_z = subgradient(y, zeta, batch)
                norm = math.sqrt(g_y @ g_y + g_z @ g_z)
                if config.grad_clip > 0.0 and norm > cap:
                    g_y = g_y * (cap / norm)
                    g_z = g_z * (cap / norm)
                gamma = base / (1.0 + k) ** solver_mod._STEP_EXPONENT
                y = np.maximum(y - gamma * g_y, floor)
                zeta = zeta - gamma * g_z
                k += 1
                if not np.all(np.isfinite(y)) or not np.all(np.isfinite(zeta)):
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
    return solver_mod._finish("sgd", spec, budgets, config, scale, x, y_sum / n_avg,
                              zeta_sum / n_avg, trace, 0.0, total, iterates)


class TestSgdLoopOracle:
    CONFIGS = [SolverConfig(epochs=2, seed=60),
               SolverConfig(epochs=1, seed=61, record_iterates=True),
               SolverConfig(epochs=1, seed=62, grad_clip=0.05),   # clips nearly every step
               SolverConfig(epochs=1, seed=63, step_base=0.02),
               SolverConfig(epochs=2, seed=64, batch_size=44, averaging_fraction=0.5)]

    @pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
    # a ragged last batch of one row, and a sample smaller than one gather chunk
    @pytest.mark.parametrize("n", [64 * 128 + 1, 1000])
    def test_reports_match_oracle_bytes(self, spec, gmix_stressed, n):
        sample = rb.sample_model(gmix_stressed, n, seed=65)
        budgets = Budgets(np.array([0.5, 0.3, 0.2]))
        for cfg in self.CONFIGS:
            got = sgd_solve(spec, budgets, sample, cfg)
            want = _oracle_sgd_solve(spec, budgets, sample, cfg)
            assert (json.dumps(got.to_dict(include_timing=False))
                    == json.dumps(want.to_dict(include_timing=False)))
            if cfg.record_iterates:
                assert got.iterate_trace.tobytes() == want.iterate_trace.tobytes()
            else:
                assert got.iterate_trace is None and want.iterate_trace is None

    @pytest.mark.parametrize("spec", EULER_AUDIT_SPECS, ids=rb.measure_label)
    # the objective diverges at iteration 2; the first iterate overflows
    @pytest.mark.parametrize("step_base, y0", [(1e9, None), (1e308, np.full(3, 1e-3))])
    def test_divergence_matches_oracle(self, spec, gmix_stressed, step_base, y0):
        sample = rb.sample_model(gmix_stressed, 10_000, seed=66)
        budgets = Budgets(np.array([0.5, 0.3, 0.2]))
        cfg = SolverConfig(epochs=5, seed=37, step_base=step_base, grad_clip=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as got:
                sgd_solve(spec, budgets, sample, cfg, y0=y0)
            with pytest.raises(DivergenceError) as want:
                _oracle_sgd_solve(spec, budgets, sample, cfg, y0=y0)
        assert str(got.value) == str(want.value)
        assert got.value.iteration == want.value.iteration
