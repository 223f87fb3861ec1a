"""Numerical laboratory for eigenvalue statistics of random normal matrix
ensembles in the plane: weighted-polynomial kernels, droplets and equilibrium
measures, exact and Monte Carlo samplers, fluctuation statistics with their
Gaussian-limit predictions, exact cumulant combinatorics, and the Berezin /
bulk-scaling toolbox."""

from .potential import (
    Potential,
    RadialProfile,
    Droplet,
    PotentialError,
    DropletGeometryError,
    make_ginibre,
    make_radial_power,
    make_custom_radial,
    make_tabulated_radial,
    compute_droplet,
)
from .orthopoly import (
    QuadratureGrid,
    OrthonormalBasis,
    WeightedKernel,
    DivergentNormError,
    UnsupportedPotentialError,
    GridResolutionError,
    default_grid,
    radial_norms,
    weighted_kernel,
    offdiagonal_decay_profile,
    fit_decay_rate,
)

from .sampler import (
    PointConfiguration,
    SamplerConfig,
    stream_rng,
    sample_dpp,
    sample_ginibre_matrix,
    sample_mcmc,
    collect_mcmc,
)
from .statistics import (
    TestFunction,
    FluctuationReport,
    SupportError,
    bump,
    re_coordinate,
    fluct_values,
    trace_statistic,
    equilibrium_integral,
    mean_prediction,
    variance_prediction,
    covariance_prediction,
    gradient_pair_integral,
    clt_report,
    covariance_check,
    tilting_check,
    boundary_statistics,
    jarque_bera,
)
from .cumulants import (
    CompositionTerm,
    compositions,
    composition_terms,
    stirling2,
    zero_sum_identity,
    s_k,
    g_k_eval,
    diagonal_laplacian_check,
    mixed_derivative_sum,
    gaussian_pair_integrals,
    dpp_cumulant,
)
from .berezin import (
    BerezinKernel,
    AnchorError,
    berezin_kernel,
    berezin_transform,
    conditional_basis,
    conditional_one_point,
    conditional_identity_check,
    conditional_expectation_identity,
    wavefunction_measure,
    exterior_harmonic_measure_check,
    exterior_poisson_density,
    limit_kernel_modulus,
    rescaled_kernel,
    conditioned_onepoint_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
