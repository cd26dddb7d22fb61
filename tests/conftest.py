import numpy as np
import pytest

import riskbudget as rb
from riskbudget.risk import _portfolio_params, _t_cdf, _t_pdf

# reference portfolio of the bundled four-asset Student-t demo model
TABLE_WEIGHTS = np.array([0.17958, 0.28127, 0.30483, 0.23432])
TABLE_CONTRIBUTION = 0.00806

# three-asset Gaussian comparison targets (calm regime / with stress regime)
CALM_VOL_ROW = np.array([0.60916, 0.22200, 0.16884])
STRESSED_ES_ROW = np.array([0.44055, 0.21511, 0.34434])
STRESSED_VOL_ROW = np.array([0.52700, 0.22882, 0.24418])


def empirical_es(losses, alpha):
    """Tail mean of the losses at or above the method-7 empirical quantile."""
    x = np.asarray(losses, dtype=float).ravel()
    return float(x[x >= rb.empirical_var_method7(x, alpha)].mean())


def loss_cdf_tmix(model, y, z: float) -> float:
    """P(-y'X <= z): mixture of standard-t cdfs at (z + y'mu_k) / sqrt(y'L_k y)."""
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights, _t_cdf((z + m) / sig, model.dof)))


def loss_pdf_tmix(model, y, z: float) -> float:
    """Density of the loss -y'X at z."""
    sig, m = _portfolio_params(model, y)
    return float(np.dot(model.weights / sig, _t_pdf((z + m) / sig, model.dof)))


@pytest.fixture(scope="session")
def tmix_demo():
    return rb.load_model(rb.bundled_model_path("tmix4_demo"))


@pytest.fixture(scope="session")
def gmix_calm():
    return rb.load_model(rb.bundled_model_path("gmix3_calm"))


@pytest.fixture(scope="session")
def gmix_stressed():
    return rb.load_model(rb.bundled_model_path("gmix3_stressed"))


@pytest.fixture(scope="session")
def demo_sample_1m(tmix_demo):
    return rb.sample_tmix(tmix_demo, 10 ** 6, seed=20_001)
