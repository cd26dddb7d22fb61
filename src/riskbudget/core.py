"""Domain types for allocations and budgets, simplex arithmetic, and the
Euler risk-decomposition audit shared by all solvers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# sum-to-one tolerance; inputs violating it by more are rejected, not fixed
SIMPLEX_ATOL = 1e-12


class InputError(ValueError):
    """Malformed user input (files, configs, dimensions)."""


class InvalidAllocationError(InputError):
    """An allocation, weight, or budget vector violates its invariants."""


class NumericError(RuntimeError):
    """A numeric routine failed (lost bracket, non-finite values, no convergence)."""


class DivergenceError(NumericError):
    """An iterative solver diverged."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def _is_int(value, least: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _positive_vector(x, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidAllocationError(f"{what} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InvalidAllocationError(f"{what} has non-finite components")
    if np.any(v <= 0.0):
        raise InvalidAllocationError(f"{what} must be strictly positive componentwise")
    v = v.copy()
    v.setflags(write=False)
    return v


def _simplex_vector(x, what: str) -> np.ndarray:
    v = _positive_vector(x, what)
    if abs(v.sum() - 1.0) > SIMPLEX_ATOL:
        raise InvalidAllocationError(
            f"{what} sum to {v.sum()!r}, off the simplex by more than {SIMPLEX_ATOL}"
        )
    return v


@dataclass(frozen=True)
class Budgets:
    """Risk budgets: strictly positive shares of total risk summing to one."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _simplex_vector(self.values, "budgets"))

    @property
    def dim(self) -> int:
        return self.values.size

    @classmethod
    def equal(cls, d: int) -> "Budgets":
        """Equal-risk-contribution budgets 1/d."""
        return cls(np.full(d, 1.0 / d))


@dataclass(frozen=True)
class Weights:
    """Portfolio weights on the open simplex (long-only, fully invested)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _simplex_vector(self.values, "weights"))

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RawAllocation:
    """Unnormalized allocation on the open positive orthant."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _positive_vector(self.values, "allocation"))

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RiskContributionReport:
    """Euler decomposition of portfolio risk into per-asset contributions.

    contributions[i] = theta_i * d_i R(theta); budget_errors[i] is the absolute
    gap contributions[i] - b_i * total_risk (absolute, so it stays meaningful
    when total risk is small).
    """

    contributions: np.ndarray
    total_risk: float
    budget_errors: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.contributions, dtype=float)
        e = np.asarray(self.budget_errors, dtype=float)
        c.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "contributions", c)
        object.__setattr__(self, "budget_errors", e)
        object.__setattr__(self, "total_risk", float(self.total_risk))

    def max_relative_error(self) -> float:
        return float(np.abs(self.budget_errors).max() / abs(self.total_risk))


def _values_of(x) -> np.ndarray:
    if isinstance(x, (Budgets, Weights, RawAllocation)):
        return x.values
    return np.asarray(x, dtype=float)


def normalize(raw) -> Weights:
    """Map a raw positive allocation to simplex weights y / sum(y).

    Inputs already on the simplex to within a few ulp pass through
    unchanged, which makes normalize bitwise idempotent; otherwise the
    largest component absorbs the float residual of the division so the
    result sums to exactly 1.0 whenever the summation lattice allows it.
    """
    y = raw.values if isinstance(raw, RawAllocation) else RawAllocation(_values_of(raw)).values
    if abs(y.sum() - 1.0) <= 4.0 * np.finfo(float).eps:
        return Weights(y)
    w = y / y.sum()
    s = w.sum()
    if s != 1.0:
        w = w.copy()
        j = int(np.argmax(w))
        w[j] = w[j] - (s - 1.0)
        s = w.sum()
        for _ in range(32):
            if s == 1.0:
                break
            w[j] = np.nextafter(w[j], np.inf if s < 1.0 else -np.inf)
            s = w.sum()
    return Weights(w)


def l1_accuracy(theta_a, theta_b) -> float:
    """Scaled Manhattan distance 100 * ||a - b||_1 between weight vectors."""
    a = _values_of(theta_a)
    b = _values_of(theta_b)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(100.0 * np.abs(a - b).sum())


def euler_audit(theta, total: float, grad, budgets: Budgets) -> RiskContributionReport:
    """Audit a solved portfolio against its risk budgets, given the risk
    R(theta) > 0 and its gradient as evaluated at the weights theta."""
    t = _values_of(theta)
    total = float(total)
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient in Euler audit")
    contributions = t * grad
    errors = contributions - budgets.values * total
    return RiskContributionReport(contributions, total, errors)
