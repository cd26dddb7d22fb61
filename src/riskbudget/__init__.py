"""Risk budgeting portfolios for positively homogeneous, sub-additive risk
measures, solved through convex and stochastic reformulations."""

from importlib import resources

from .core import (Budgets, DivergenceError, InputError,
                   InvalidAllocationError, NumericError, RawAllocation,
                   RiskContributionReport, Weights, euler_audit, l1_accuracy,
                   normalize)
from .models import (EMConfig, GaussianMixture, ReturnSample, StudentTMixture,
                     derive_seed, em_fit_gmix, em_fit_tmix, load_model,
                     load_sample, sample_model, sample_tmix, save_model,
                     save_sample, synth_dgp)
from .risk import (Deviation, DeviationPlusMean, ESMeanMixture,
                   ExpectedShortfall, RiskMeasureSpec, RiskPositivityWarning,
                   Spectral, SpecError, Volatility, ZetaState,
                   deviation_objective, deviation_subgradient, empirical_risk,
                   empirical_var_method7, es_tmix, measure_from_dict,
                   measure_label, ru_objective, ru_subgradient,
                   spectral_objective, spectral_subgradient, var_tmix,
                   volatility_value_and_gradient)
from .solver import (SolveReport, SolverConfig, msbgd_solve,
                     multistart_uniqueness_check, osbgd_solve, reference_solve,
                     sgd_solve, solve)
from .bench import (BenchRow, ExperimentSpec, run_accuracy_study,
                    run_measure_comparison)

__version__ = "0.1.0"


def bundled_model_path(name: str):
    """Path to one of the packaged demo model files (without extension)."""
    return resources.files("riskbudget").joinpath("data", f"{name}.json")
