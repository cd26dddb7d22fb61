import numpy as np
import pytest

from riskbudget import (Budgets, InputError, InvalidAllocationError,
                        NumericError, RawAllocation, Weights, euler_audit,
                        l1_accuracy, normalize)


class TestNormalize:
    def test_symmetric(self):
        w = normalize(RawAllocation(np.array([2.0, 2.0, 2.0, 2.0])))
        assert np.array_equal(w.values, np.full(4, 0.25))

    def test_direct_ratio(self):
        w = normalize(np.array([1.0, 3.0]))
        assert np.array_equal(w.values, np.array([0.25, 0.75]))

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(InvalidAllocationError):
            normalize(np.array([1.0, 0.0]))
        with pytest.raises(InvalidAllocationError):
            normalize(np.array([1.0, -2.0]))
        with pytest.raises(InvalidAllocationError):
            normalize(np.array([1.0, np.nan]))
        with pytest.raises(InvalidAllocationError):
            normalize(np.array([1.0, np.inf]))

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = np.exp(rng.normal(size=rng.integers(2, 12)) * 2.0)
            w1 = normalize(y)
            w2 = normalize(RawAllocation(w1.values))
            assert np.array_equal(w1.values, w2.values)

    def test_scale_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            y = np.exp(rng.normal(size=5))
            lam = float(np.exp(rng.normal() * 3.0))
            a = normalize(y).values
            b = normalize(lam * y).values
            assert np.abs(a - b).max() < 1e-14


class TestSimplexTypes:
    def test_budget_sum_tolerance(self):
        Budgets(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(InvalidAllocationError):
            Budgets(np.array([0.5, 0.51]))
        with pytest.raises(InputError):
            Budgets(np.array([0.5, 0.6]))

    def test_weights_positive(self):
        with pytest.raises(InvalidAllocationError):
            Weights(np.array([1.0, 0.0]))

    def test_equal_budgets(self):
        b = Budgets.equal(7)
        assert b.dim == 7
        assert abs(b.values.sum() - 1.0) <= 1e-12

    def test_values_read_only(self):
        b = Budgets.equal(3)
        with pytest.raises(ValueError):
            b.values[0] = 0.9


class TestL1Accuracy:
    def test_identity(self):
        w = np.array([0.3, 0.7])
        assert l1_accuracy(w, w) == 0.0

    def test_maximal_on_2simplex(self):
        assert l1_accuracy(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 200.0

    def test_benchmark_deviation_sum(self):
        # the benchmark per-asset deviations sum to 0.00078, i.e. 0.078 on
        # the 100-L1 scale; 5-decimal weight vectors reproduce it to the
        # rounding granularity of the printed digits
        deviations = np.array([0.00005, 0.00038, 0.00034, 0.00001])
        assert abs(100.0 * deviations.sum() - 0.078) < 1e-12
        ref = np.array([0.17958, 0.28127, 0.30483, 0.23432])
        sgd = np.array([0.17954, 0.28165, 0.30449, 0.23432])
        # each of the four printed differences carries up to 1e-5 rounding
        assert abs(l1_accuracy(ref, sgd) - 0.078) <= 100 * 4e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_accuracy(np.ones(2) / 2, np.ones(3) / 3)


class TestEulerAudit:
    @staticmethod
    def _vol_fns(sigma):
        def risk(t):
            return float(np.sqrt(t @ sigma @ t))

        def grad(t):
            return sigma @ t / risk(t)

        return risk, grad

    def test_symmetric_identity(self):
        risk, grad = self._vol_fns(np.eye(2))
        t = np.array([0.5, 0.5])
        report = euler_audit(t, risk(t), grad(t), Budgets.equal(2))
        assert np.abs(report.budget_errors).max() < 1e-15

    def test_contributions_sum_to_total(self):
        # direct y' Sigma y identity: Euler residual is pure float noise
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            a = rng.normal(size=(d, d + 2))
            sigma = a @ a.T / d
            theta = rng.dirichlet(np.ones(d) * 5.0)
            risk, grad = self._vol_fns(sigma)
            report = euler_audit(theta, risk(theta), grad(theta), Budgets.equal(d))
            assert abs(report.contributions.sum() - report.total_risk) < 1e-10

    @pytest.mark.parametrize("total", [0.0, -1e-3, float("nan"), float("inf")])
    def test_total_risk_not_positive_rejected(self, total):
        with pytest.raises(NumericError, match="not positive"):
            euler_audit(np.array([0.5, 0.5]), total, np.array([1.0, 1.0]), Budgets.equal(2))

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NumericError):
            euler_audit(np.array([0.5, 0.5]), 1.0, np.array([np.nan, 1.0]),
                        Budgets.equal(2))
