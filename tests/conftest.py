import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from rnmlab.potential import (compute_droplet, make_custom_radial, make_ginibre,
                              make_tabulated_radial)
from rnmlab.orthopoly import default_grid, weighted_kernel
from rnmlab.sampler import (SamplerConfig, collect_mcmc, sample_dpp,
                            sample_ginibre_matrix, stream_rng)


def spline_field():
    """q = r^2/2 + r^4/4 tabulated on 600 knots, each column splined on its
    own: a custom field from arbitrary callables, independent of the CLI's
    quintic Hermite interpolant (``make_tabulated_radial``)."""
    r = np.linspace(0.0, 6.0, 600)
    return make_custom_radial(CubicSpline(r, r**2 / 2 + r**4 / 4), CubicSpline(r, r + r**3),
                              CubicSpline(r, 1.0 + 3.0 * r**2), 10.0, name="spline")


def tabulated_quartic():
    """The table the CI's custom-field step writes: q = r^2/2 + r^4/4 on
    [0, 6], through the CLI's interpolant (``make_tabulated_radial``)."""
    r = np.linspace(0.0, 6.0, 600)
    return make_tabulated_radial(r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2, 10.0)


@pytest.fixture(scope="session")
def ginibre():
    return make_ginibre()


@pytest.fixture(scope="session")
def ginibre_droplet(ginibre):
    return compute_droplet(ginibre, 1.0)


@pytest.fixture(scope="session")
def kern16(ginibre):
    return weighted_kernel(ginibre, 16.0, 16)


@pytest.fixture(scope="session")
def kern64(ginibre):
    return weighted_kernel(ginibre, 64.0, 64)


@pytest.fixture(scope="session")
def kern128(ginibre):
    return weighted_kernel(ginibre, 128.0, 128)


@pytest.fixture(scope="session")
def grid16(ginibre):
    return default_grid(ginibre, 16.0, 16)


# --- sample banks (session-wide so module tests and the acceptance suite
# --- share the expensive draws)


@pytest.fixture(scope="session")
def matrix_bank_n64():
    rng = stream_rng(20240801, 0)
    return [sample_ginibre_matrix(64, rng) for _ in range(2000)]


@pytest.fixture(scope="session")
def matrix_bank_n16():
    rng = stream_rng(20240802, 0)
    return [sample_ginibre_matrix(16, rng) for _ in range(2000)]


@pytest.fixture(scope="session")
def dpp_bank_n16(kern16):
    cfg = SamplerConfig(master_seed=20240803)
    rng = stream_rng(20240803, 0)
    return [sample_dpp(kern16, cfg, rng) for _ in range(2000)]


@pytest.fixture(scope="session")
def mcmc_bank_n16(ginibre):
    cfg = SamplerConfig(master_seed=20240804)
    rng = stream_rng(20240804, 0)
    return collect_mcmc(ginibre, 16.0, 16, cfg, rng, 2000)
