from dataclasses import replace

import numpy as np
import pytest

from rnmlab.berezin import (AnchorError, berezin_kernel, berezin_transform,
                            conditional_basis, conditional_expectation_identity,
                            conditional_identity_check, conditional_one_point,
                            conditioned_onepoint_profile,
                            exterior_harmonic_measure_check,
                            exterior_poisson_density, limit_kernel_modulus,
                            rescaled_kernel, wavefunction_measure)
from rnmlab.orthopoly import (UnsupportedPotentialError, default_grid,
                              radial_norms, weighted_kernel)
from rnmlab.potential import make_ginibre, make_radial_power
from rnmlab.statistics import bump


@pytest.fixture(scope="module")
def pot():
    return make_ginibre()


@pytest.fixture(scope="module")
def kern32(pot):
    return weighted_kernel(pot, 32.0, 32)


@pytest.fixture(scope="module")
def grid32(pot):
    return default_grid(pot, 32.0, 32)


# ---------------------------------------------------------------------------
# Berezin density


def test_origin_anchor_closed_form(kern32):
    # K(0, w) keeps only the constant mode, so B^{<0>}(w) = n e^{-n |w|^2}
    n = 32
    for w in (0.0, 0.2, 0.5 + 0.1j):
        assert berezin_kernel(kern32, 0.0).density(w) == \
            pytest.approx(n * np.exp(-n * abs(w) ** 2), rel=1e-10)


@pytest.mark.parametrize("anchor", [0.0, 0.5, 1.2])
def test_mass_is_one(kern32, grid32, anchor):
    assert berezin_kernel(kern32, anchor).mass(grid32) == pytest.approx(1.0, abs=1e-6)


def test_density_at_anchor_equals_one_point(kern32):
    for z0 in (0.3, 0.7 + 0.2j):
        assert berezin_kernel(kern32, z0).density(z0) == \
            pytest.approx(float(kern32.one_point(z0)), rel=1e-10)


def test_density_nonnegative(kern32, grid32):
    dens = berezin_kernel(kern32, 0.6).density(grid32.nodes)
    assert np.all(dens >= 0.0)


@pytest.mark.parametrize("n, n_theta, ring_step", [
    pytest.param(32, 12, 1, id="aliased-n32-ntheta12"),
    pytest.param(256, None, 40, id="default-n256"),
])
def test_density_grid_matches_pointwise(pot, n, n_theta, ring_step):
    # one FFT per ring against the point-wise kernel on the grid's own nodes;
    # at n_theta < n the modes fold mod n_theta as the grid angles alias them
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n, n_theta=n_theta)
    radii = grid.radial_nodes[::ring_step]
    for anchor in (0.3 + 0.2j, -0.5j):
        bk = berezin_kernel(kern, anchor)
        dens = bk.density(radii[:, None] * np.exp(1j * grid.thetas)[None, :])
        assert np.allclose(bk.density_grid(radii, grid.n_theta), dens,
                           rtol=1e-9, atol=1e-12 * np.max(dens))


def _product_grid_mass(bk, grid):
    """The grid sum of the density through the (ring x mode) @ (mode x angle)
    product: the oracle of the Parseval mass."""
    kern = bk.kernel
    logmag = kern.log_modes(bk.anchor) + kern.log_modes(grid.radial_nodes)
    shift = np.max(logmag, axis=1)
    k = np.arange(kern.n)
    S = np.exp(logmag - shift[:, None]) @ \
        np.exp(1j * k[:, None] * (np.angle(bk.anchor) - grid.thetas)[None, :])
    dens = np.abs(S) ** 2 * np.exp(2.0 * shift - bk.log_r1_anchor)[:, None]
    return float(grid.integrate(dens))


@pytest.mark.parametrize("n, n_theta", [(32, None), (32, 12), (128, None)])
def test_mass_is_product_grid_sum(pot, n, n_theta):
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n, n_theta=n_theta)
    for anchor in (0.0, 0.4 - 0.3j, 1.2j):
        bk = berezin_kernel(kern, anchor)
        assert bk.mass(grid) == pytest.approx(_product_grid_mass(bk, grid), rel=1e-13)


def test_underflowing_anchor_raises(pot):
    kern = weighted_kernel(pot, 64.0, 64)
    with pytest.raises(AnchorError, match="log-domain"):
        berezin_kernel(kern, 6.0)


# ---------------------------------------------------------------------------
# Berezin transform


def test_transform_of_constant_is_mass(kern32, grid32):
    from dataclasses import replace
    f = bump(0.0, 0.5)
    one = replace(f, value=lambda z: np.ones(np.asarray(z).shape),
                  gradient=lambda z: np.zeros(np.asarray(z).shape + (2,)),
                  laplacian_std=lambda z: np.zeros(np.asarray(z).shape))
    out = berezin_transform(kern32, one, 0.4, grid32)
    assert out.value == pytest.approx(1.0, abs=1e-6)


def test_transform_positivity(kern32, grid32):
    f = bump(0.2, 0.3)
    out = berezin_transform(kern32, f, 0.25, grid32)
    assert out.value >= 0.0


def test_transform_expansion_residual_n128(pot):
    kern = weighted_kernel(pot, 128.0, 128)
    grid = default_grid(pot, 128.0, 128)
    f = bump(0.0, 0.5)
    out = berezin_transform(kern, f, 0.1, grid)
    assert abs(out.expansion_residual) <= 0.15 * abs(out.correction)


def test_transform_expansion_residual_shrinks(pot):
    f = bump(0.0, 0.5)
    res = {}
    for n in (64, 256):
        kern = weighted_kernel(pot, float(n), n)
        grid = default_grid(pot, float(n), n)
        res[n] = abs(berezin_transform(kern, f, 0.1, grid).expansion_residual)
    assert res[256] < res[64]


# ---------------------------------------------------------------------------
# conditional (pinned) process


def test_conditional_norms_are_shifted(pot):
    n = 16
    base = radial_norms(pot, float(n), n)
    cond = conditional_basis(pot, n)
    assert cond.n == n - 1
    assert np.allclose(cond.log_norms, base.log_norms[1:])


def test_conditional_identity_residual(pot):
    assert conditional_identity_check(pot, 16) <= 1e-10


def test_conditional_identity_quartic(pot):
    assert conditional_identity_check(make_radial_power(2), 12) <= 1e-10


def test_conditional_minimal_case(pot):
    # n = 2: R1 - R1tilde telescopes to exactly the constant-mode term
    n = 2
    kern = weighted_kernel(pot, float(n), n)
    h0 = float(np.exp(radial_norms(pot, float(n), n).log_norms[0]))
    z = np.array([0.3, 0.9, 1.4], dtype=complex)
    lhs = kern.one_point(z) - conditional_one_point(pot, n, z)
    rhs = np.exp(-n * np.abs(z) ** 2) / h0
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_conditional_single_point_is_empty(pot):
    # n = 1: pinning the only point at 0 leaves no points, so the conditioned
    # density is 0 and R1_1 is the Berezin density itself
    z = np.array([[0.0, 0.4], [1.1j, 2.5]], dtype=complex)
    out = conditional_one_point(pot, 1, z)
    assert out.shape == z.shape
    assert np.all(out == 0.0)
    assert conditional_identity_check(pot, 1) <= 1e-12


def test_conditional_origin_density_closed_form(pot):
    # B^{<0>}(z) = e^{-nQ(z)} / h_0 for radial fields
    n = 12
    kern = weighted_kernel(pot, float(n), n)
    h0 = float(np.exp(radial_norms(pot, float(n), n).log_norms[0]))
    z = 0.4 + 0.2j
    assert berezin_kernel(kern, 0.0).density(z) == \
        pytest.approx(np.exp(-n * abs(z) ** 2) / h0, rel=1e-10)


def test_conditional_expectation_identity(pot):
    f = bump(0.0, 0.5)
    assert conditional_expectation_identity(pot, 16, f) <= 1e-8


def test_conditional_expectation_identity_power_field():
    # lap Q(0) = 0 here; the identity itself needs no expansion at the anchor
    f = bump(0.1 + 0.05j, 0.3)
    assert conditional_expectation_identity(make_radial_power(2), 16, f) <= 1e-8


def test_transform_rejects_anchor_where_laplacian_vanishes():
    kern = weighted_kernel(make_radial_power(2), 16.0, 16)
    with pytest.raises(AnchorError, match="lap Q"):
        berezin_transform(kern, bump(0.0, 0.5), 0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("family", ["ginibre", "power2"])
def test_pinned_checks_match_pointwise(family, n):
    # both checks evaluate the densities once per ring; here they are written
    # out over every node of the grid
    pot = make_ginibre() if family == "ginibre" else make_radial_power(2)
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n)
    z = grid.nodes
    b0 = berezin_kernel(kern, 0.0).density(z)
    r1 = kern.one_point(z)
    r1_pinned = conditional_one_point(pot, n, z)
    pointwise = float(np.max(np.abs(b0 - (r1 - r1_pinned))))
    assert abs(conditional_identity_check(pot, n, grid) - pointwise) <= 1e-12

    f = bump(0.1 + 0.05j, 0.3)
    vals = np.real(f.value(z))
    e = [float(np.real(grid.integrate(vals * d))) for d in (b0, r1, r1_pinned)]
    pointwise = abs(e[0] - (e[1] - e[2]))
    assert abs(conditional_expectation_identity(pot, n, f, grid) - pointwise) <= 1e-12


# ---------------------------------------------------------------------------
# wave-function measure


def test_wavefunction_total_mass(pot):
    prof = wavefunction_measure(pot, 64)
    assert prof.total_mass == pytest.approx(1.0, abs=1e-10)


def test_wavefunction_ring_concentration(pot):
    prof = wavefunction_measure(pot, 256, ring_halfwidth=0.1)
    assert prof.ring_mass >= 0.95
    assert prof.droplet_radius == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [1, 2])
def test_wavefunction_ring_mass_closed_form(p):
    # |z|^{2p} under the top mode's density is Gamma(n/p, rate n), so the
    # ring mass is a difference of regularized incomplete gamma functions
    from scipy.special import gammainc
    n, h = 64, 0.1
    prof = wavefunction_measure(make_radial_power(p), n, ring_halfwidth=h)
    lo, hi = prof.droplet_radius - h, prof.droplet_radius + h
    ref = gammainc(n / p, n * hi ** (2 * p)) - gammainc(n / p, n * lo ** (2 * p))
    assert prof.ring_mass == pytest.approx(ref, abs=1e-12)


def test_wavefunction_angular_uniformity(pot):
    # |z|^{2(n-1)} e^{-nQ} is radial, so the angular marginal is uniform
    prof = wavefunction_measure(pot, 32)
    assert prof.angular_uniformity == 0.0


# ---------------------------------------------------------------------------
# fields without a radial profile


@pytest.mark.parametrize("build", [
    lambda p: weighted_kernel(p, 8.0, 8),
    lambda p: conditional_identity_check(p, 8),
    lambda p: wavefunction_measure(p, 8),
], ids=["weighted_kernel", "conditional_identity_check", "wavefunction_measure"])
def test_field_without_radial_profile_is_rejected(pot, build):
    # radial_norms is the one place that rejects such a field
    with pytest.raises(UnsupportedPotentialError):
        build(replace(pot, radial_profile=None))


# ---------------------------------------------------------------------------
# exterior anchors / harmonic measure


def test_exterior_poisson_density_normalized():
    thetas = 2.0 * np.pi * np.arange(1024) / 1024
    dens = exterior_poisson_density(1.5, 1.0, thetas)
    assert np.sum(dens) * (2 * np.pi / 1024) == pytest.approx(1.0, abs=1e-12)


def test_exterior_marginal_matches_poisson(pot):
    kern = weighted_kernel(pot, 256.0, 256)
    out = exterior_harmonic_measure_check(kern, 1.5)
    assert out.l1_distance <= 0.1
    assert out.mass_outside <= 0.1


def test_far_anchor_marginal_approaches_uniform(pot):
    # the marginal tracks the exterior Poisson kernel, whose own distance to
    # uniform at radius s is 2R/(s - R); assert that envelope and the
    # monotone approach to the uniform wavefunction limit
    kern = weighted_kernel(pot, 64.0, 64)
    uniform = 1.0 / (2.0 * np.pi)
    devs = {}
    for s in (3.0, 10.0):
        out = exterior_harmonic_measure_check(kern, s)
        devs[s] = float(np.max(np.abs(out.marginal - uniform))) / uniform
        assert devs[s] <= 2.0 / (s - 1.0) + 0.02
    assert devs[10.0] < devs[3.0]


def test_interior_anchor_rejected(pot):
    kern = weighted_kernel(pot, 64.0, 64)
    with pytest.raises(AnchorError):
        exterior_harmonic_measure_check(kern, 0.9)


# ---------------------------------------------------------------------------
# bulk scaling limit


def test_limit_kernel_modulus_identities():
    z = np.array([0.3 + 1j, -0.5, 2.0j])
    assert np.allclose(limit_kernel_modulus(z, z), 1.0)
    w = np.array([0.1, 0.2 - 0.4j, 1.0])
    assert np.allclose(limit_kernel_modulus(z, w),
                       np.exp(-0.5 * np.abs(z - w) ** 2))


def test_rescaled_kernel_matches_limit(pot):
    kern = weighted_kernel(pot, 128.0, 128)
    pts = np.linspace(-1.4, 1.4, 3)
    zg = (pts[:, None] + 1j * pts[None, :]).ravel()
    kn = rescaled_kernel(kern, 0.0, zg[:, None], zg[None, :])
    dev = np.abs(np.abs(kn) - limit_kernel_modulus(zg[:, None], zg[None, :]))
    assert float(dev.max()) <= 0.05


def test_rescaled_kernel_warns_near_boundary(pot):
    kern = weighted_kernel(pot, 32.0, 32)
    with pytest.warns(RuntimeWarning, match="boundary"):
        rescaled_kernel(kern, 0.95, 0.0, 0.0)


@pytest.mark.parametrize("p", [2, 3])
def test_rescaled_kernel_rejects_anchor_where_laplacian_vanishes(p):
    # lap Q(0) = 0 on |z|^(2p), p >= 2: the scale sqrt(n lap Q) would be 0
    kern = weighted_kernel(make_radial_power(p), 32.0, 32)
    with pytest.raises(AnchorError, match="lap Q"):
        rescaled_kernel(kern, 0.0, 0.0, 0.0)


def test_conditioned_profile_limit():
    prof = conditioned_onepoint_profile(128)
    assert float(np.max(np.abs(prof.values - prof.prediction))) <= 0.02
    # full repulsion at the pinned eigenvalue, saturation at distance
    assert prof.values[0] == pytest.approx(0.0, abs=1e-10)
    idx = np.searchsorted(prof.distances, 2.0)
    assert prof.values[idx] == pytest.approx(1.0 - np.exp(-4.0), abs=0.02)
    assert np.all(np.diff(prof.values) > -0.02)
