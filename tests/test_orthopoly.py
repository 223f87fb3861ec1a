import math

import mpmath
import numpy as np
import pytest

from rnmlab.orthopoly import (DivergentNormError, QuadratureGrid,
                              UnsupportedPotentialError, bergman_approx,
                              default_grid, diagonal_expansion_residual,
                              fit_decay_rate, nystrom_matrix, offdiagonal_decay_profile,
                              radial_norms, weighted_kernel)
from rnmlab.potential import make_custom_radial, make_ginibre, make_radial_power

from conftest import spline_field


# ---------------------------------------------------------------------------
# grids


def test_grid_total_mass():
    grid = QuadratureGrid.disk(1.3, n_radial=120, n_theta=64)
    assert grid.weights.sum() == pytest.approx(1.3**2, abs=1e-10)


def test_grid_angular_exactness():
    grid = QuadratureGrid.disk(1.0, n_radial=40, n_theta=32)
    theta = np.angle(grid.nodes)
    w = grid.weights
    for k in (1, 5, 31):
        assert abs(np.sum(w * np.exp(1j * k * theta))) < 1e-12


# ---------------------------------------------------------------------------
# radial norms


def test_ginibre_norms_match_gamma():
    basis = radial_norms(make_ginibre(), 1.0, 3)
    assert np.allclose(basis.norms, [1.0, 1.0, 2.0], rtol=1e-12)
    basis2 = radial_norms(make_ginibre(), 2.0, 1)
    assert basis2.norms[0] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_gamma_oracle_many_orders(p):
    # Q = |z|^{2p}: log h_k = lgamma((k+1)/p) - log p - ((k+1)/p) log m
    m, n = 8.0, 24
    pot = make_ginibre() if p == 1 else make_radial_power(p)
    basis = radial_norms(pot, m, n)
    exact = np.array([math.lgamma((k + 1) / p) - math.log(p) - (k + 1) / p * math.log(m)
                      for k in range(n)])
    assert np.allclose(basis.log_norms, exact, atol=1e-12)


def test_spline_norms_match_knot_rule():
    # q is a cubic on each knot interval of the CLI-style spline field, so a
    # 16-node Gauss-Legendre rule on every knot interval of [0, 6] (far past
    # the decay of the top integrand) is converged; the norms' equal panels
    # straddle the knots, where the third derivative of q jumps
    pot = spline_field()
    m, n = 32.0, 32
    knots = pot.radial_profile.q.x
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(knots)[:, None]
    r = (knots[:-1, None] + half * (x + 1.0)).ravel()
    terms = np.log(2.0 * (half * w).ravel() * r) - m * pot.radial_profile.q(r) \
        + np.arange(n)[:, None] * 2.0 * np.log(r)
    peak = terms.max(axis=1)
    exact = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    assert np.allclose(radial_norms(pot, m, n).log_norms, exact, rtol=0.0, atol=1e-12)


def test_divergent_norm_raises():
    # logarithmic growth: q = rho log(1+r^2) keeps lap Q > 0 but the norms
    # diverge once the degree outruns m * rho
    rho = 1.0
    pot = make_custom_radial(
        q=lambda r: rho * np.log1p(np.asarray(r, dtype=float) ** 2),
        dq=lambda r: 2.0 * rho * np.asarray(r) / (1.0 + np.asarray(r) ** 2),
        d2q=lambda r: 2.0 * rho * (1.0 - np.asarray(r) ** 2) / (1.0 + np.asarray(r) ** 2) ** 2,
        growth_exponent=rho,
    )
    with pytest.raises(DivergentNormError, match="m/n > 1/rho"):
        radial_norms(pot, 4.0, 8)
    # at m = 3.6, n = 3 the top integrand falls only like r^{-2.2}: no window
    # below r = 1e6 holds it, and the grid no longer cuts it off there
    with pytest.raises(DivergentNormError, match="farther above 1/rho"):
        default_grid(pot, 3.6, 3)


def test_radial_monomials_orthogonal_on_grid():
    pot = make_ginibre()
    m, n = 8.0, 6
    grid = default_grid(pot, m, n, n_radial=200, n_theta=64)
    z = grid.nodes
    w = grid.weights * np.exp(-m * pot.evaluate(z))
    V = z[:, None] ** np.arange(n)[None, :]
    gram = (V.conj() * w[:, None]).T @ V
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10


# ---------------------------------------------------------------------------
# kernel evaluation


def test_kernel_matches_closed_form():
    # the complex off-diagonal kernel, phase included
    pot = make_ginibre()
    m = n = 8
    kern = weighted_kernel(pot, float(m), n)
    pts = np.linspace(-0.8, 0.8, 5)
    zs = (pts[:, None] + 1j * pts[None, :]).ravel()[:5]
    ws = (pts[None, :] - 1j * pts[:, None]).ravel()[:5]
    for z in zs:
        for w in ws:
            closed = m * sum((m * z * np.conj(w)) ** k / math.factorial(k)
                             for k in range(n))
            closed *= np.exp(-0.5 * m * (abs(z) ** 2 + abs(w) ** 2))
            assert kern.weighted(z, w) == pytest.approx(closed, abs=1e-7)


def test_kernel_at_origin_is_m(kern16):
    assert kern16.weighted(0.0, 0.0) == pytest.approx(16.0)
    assert kern16.one_point(0.0) == pytest.approx(16.0)


def test_hermitian_symmetry(kern16):
    rng = np.random.default_rng(5)
    z = 1.2 * (rng.random(6) - 0.5) + 1.2j * (rng.random(6) - 0.5)
    w = 1.2 * (rng.random(6) - 0.5) + 1.2j * (rng.random(6) - 0.5)
    assert np.allclose(kern16.weighted(z, w), np.conj(kern16.weighted(w, z)),
                       rtol=1e-12)


def test_one_point_near_center_poisson_tail(kern64):
    n = 64
    r1 = kern64.one_point(0.0 + 0.0j)
    # R1(0) = n * P(Poisson(0) < n) = n exactly at the center
    assert abs(r1 - n) <= 1e-3 * n
    # closed-form partial exponential sum at a nonzero bulk point
    lam = n * 0.3**2
    cdf = sum(math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
              for k in range(n))
    assert kern64.one_point(0.3) == pytest.approx(n * cdf, rel=1e-10)


def test_trace_is_n(kern16, grid16):
    assert kern16.trace_on(grid16) == pytest.approx(16.0, abs=1e-6)


def test_reproducing_property(kern16, grid16):
    rng = np.random.default_rng(11)
    zs = 0.9 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
    F = kern16.features(grid16.nodes)
    for z in zs:
        kw = kern16.weighted(z, grid16.nodes)
        lhs = (grid16.weights * kw) @ F
        rhs = kern16.features(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_nystrom_projection_idempotent():
    pot = make_ginibre()
    m = n = 8
    grid = default_grid(pot, float(m), n, n_radial=60, n_theta=32)
    K = nystrom_matrix(weighted_kernel(pot, float(m), n), grid)
    assert np.max(np.abs(K @ K - K)) < 1e-6
    assert np.trace(K).real == pytest.approx(n, abs=1e-6)
    assert np.max(np.abs(K - K.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# diagonal expansion (bulk one-point asymptotics)


def test_diagonal_expansion_budget(kern64):
    resid = diagonal_expansion_residual(kern64, 0.3)
    assert resid <= 3.0 / 64


def test_diagonal_expansion_decay_closed_form_oracle():
    # at z = 0.3 the true residual n * P(Poisson(n|z|^2) >= n) is far below
    # float64 resolution of R1, so the decay in m is certified with the
    # closed-form partial exponential sum in extended precision
    def oracle_residual(n):
        mpmath.mp.dps = 60
        lam = mpmath.mpf(n) * mpmath.mpf("0.09")
        cdf = sum(mpmath.e**(-lam) * lam**k / mpmath.factorial(k) for k in range(n))
        return float(n * (1 - cdf))

    r32, r128 = oracle_residual(32), oracle_residual(128)
    assert r128 < r32
    assert r32 < 3.0 / 32


def test_diagonal_expansion_power_potential():
    pot = make_radial_power(2)
    m, n = 64.0, 32  # tau = 0.5, droplet radius (tau/2)^(1/4)
    kern = weighted_kernel(pot, m, n)
    z = 0.5
    resid = diagonal_expansion_residual(kern, z)
    assert resid <= 0.1 * pot.laplacian(z)


# ---------------------------------------------------------------------------
# off-diagonal decay


def test_offdiagonal_profile_closed_form(kern64):
    # K(0, h) keeps only the constant mode: |K_w| = n exp(-n |h|^2 / 2)
    prof = offdiagonal_decay_profile(kern64, 0.0, [0.5])
    assert prof[0] <= 64 * np.exp(-64 * 0.125) * (1 + 1e-9)
    assert prof[0] == pytest.approx(64 * np.exp(-64 * 0.125), rel=1e-9)


def test_offdiagonal_profile_monotone(kern64):
    radii = np.linspace(0.05, 0.8, 12)
    prof = offdiagonal_decay_profile(kern64, 0.0, radii)
    assert np.all(np.diff(prof) < 0)


def test_decay_rate_scales_with_sqrt_m():
    pot = make_ginibre()
    radii = np.linspace(0.05, 0.6, 10)
    rates = {}
    for n in (25, 100):
        kern = weighted_kernel(pot, float(n), n)
        prof = offdiagonal_decay_profile(kern, 0.2, radii)
        rates[n], eps = fit_decay_rate(radii, prof, float(n))
        assert eps > 0
    assert rates[100] >= 2.0 * rates[25]


# ---------------------------------------------------------------------------
# first-order approximating kernel


def test_bergman_approx_ginibre_closed_form():
    pot = make_ginibre()
    m = 64.0
    z, w = 0.3 + 0.1j, 0.25 - 0.05j
    val = bergman_approx(pot, m, z, w)
    expected = m * np.exp(m * (z * np.conj(w) - 0.5 * (abs(z) ** 2 + abs(w) ** 2)))
    assert val == pytest.approx(expected, rel=1e-12)


def test_bergman_approx_close_to_true_kernel(kern64):
    val = bergman_approx(make_ginibre(), 64.0, 0.3, 0.3)
    true = kern64.weighted(0.3, 0.3)
    assert abs(val - true) <= 3.0 / 64


def test_bergman_approx_quartic_diagonal():
    pot = make_radial_power(2)
    z = 0.6 + 0.2j
    val = bergman_approx(pot, 32.0, z, z)
    # on the diagonal the weighted exponent cancels: value = m * lap Q(z)
    assert val == pytest.approx(32.0 * pot.laplacian(z), rel=1e-12)


def test_bergman_approx_needs_polarization():
    pot = make_custom_radial(
        q=lambda r: np.asarray(r, dtype=float) ** 2,
        dq=lambda r: 2.0 * np.asarray(r, dtype=float),
        d2q=lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float)),
        growth_exponent=4.0,
    )
    with pytest.raises(UnsupportedPotentialError):
        bergman_approx(pot, 8.0, 0.1, 0.1)


# ---------------------------------------------------------------------------
# near-diagonal shape (Gaussian envelope of the weighted kernel)


def test_near_diagonal_gaussian_shape_ginibre(kern64):
    m = 64.0
    z0 = 0.2 + 0.1j
    hs = np.linspace(0.01, np.log(m) / np.sqrt(m), 8)
    vals = np.abs(kern64.weighted(z0, z0 + hs))
    ref = m * np.exp(-m * hs**2 / 2.0)
    assert np.allclose(vals, ref, rtol=1e-6)


def test_near_diagonal_gaussian_shape_power():
    pot = make_radial_power(2)
    m, n = 128.0, 64  # tau = 0.5
    kern = weighted_kernel(pot, m, n)
    z0 = 0.5
    lap = float(pot.laplacian(z0))
    # at finite m the neglected cubic exponent term is ~ m |h|^3 |d lap Q|;
    # keep it below the 10% budget (the full log m / sqrt m window is an
    # m -> infinity statement)
    dlap = 8.0 * z0
    h_max = min(np.log(m) / np.sqrt(m), (0.05 / (m * dlap)) ** (1.0 / 3.0))
    hs = np.linspace(0.2 * h_max, h_max, 6)
    vals = np.abs(kern.weighted(z0, z0 + hs))
    ref = m * lap * np.exp(-m * lap * hs**2 / 2.0)
    assert np.allclose(vals, ref, rtol=0.10)


def test_two_point_cyclic_shape(kern64):
    # R_2(z, z+h) = |K_w|^2 should follow m^2 lapQ^2 e^{-m lapQ |h|^2}
    m = 64.0
    z0 = 0.25
    hs = np.linspace(0.02, 0.3, 6)
    vals = np.abs(kern64.weighted(z0, z0 + hs)) ** 2
    ref = m**2 * np.exp(-m * hs**2)
    assert np.allclose(vals, ref, rtol=1e-5)
