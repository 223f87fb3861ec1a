import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rnmlab.berezin import conditional_expectation_identity
from rnmlab.cumulants import gaussian_pair_integrals
from rnmlab.orthopoly import QuadratureGrid, UnsupportedPotentialError
from rnmlab.potential import compute_droplet, make_ginibre, make_radial_power
from rnmlab.sampler import PointConfiguration, stream_rng
from rnmlab.statistics import (SupportError, boundary_statistics, bump,
                               clt_report, covariance_check,
                               covariance_prediction, equilibrium_integral,
                               fluct_values, gradient_pair_integral, jarque_bera,
                               mean_prediction, re_coordinate, tilting_check,
                               trace_statistic, variance_prediction)

from conftest import tabulated_quartic


# ---------------------------------------------------------------------------
# the bump statistic


def test_bump_center_value():
    g = bump(0.3 + 0.1j, 0.4)
    assert g.value(0.3 + 0.1j) == pytest.approx(1.0)


def test_bump_vanishes_flat_at_boundary():
    g = bump(0.0, 0.5)
    boundary = 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    assert np.allclose(g.value(boundary), 0.0)
    near = 0.4999995 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    assert np.max(np.abs(g.gradient(near))) < 1e-8
    outside = 0.8 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    assert np.allclose(g.value(outside), 0.0)
    assert np.allclose(g.gradient(outside), 0.0)


def test_bump_gradient_matches_finite_differences():
    g = bump(0.1 - 0.2j, 0.6)
    rng = np.random.default_rng(7)
    z = (rng.random(20) - 0.35) + 1j * (rng.random(20) - 0.15)
    h = 1e-7
    fx = (g.value(z + h) - g.value(z - h)) / (2 * h)
    fy = (g.value(z + 1j * h) - g.value(z - 1j * h)) / (2 * h)
    grad = np.asarray(g.gradient(z))
    scale = np.maximum(np.abs(grad), 1e-3)
    assert np.max(np.abs(np.stack([fx, fy], axis=-1) - grad) / scale) < 1e-6


def test_bump_laplacian_matches_finite_differences():
    g = bump(0.0, 0.5)
    z = np.array([0.05 + 0.1j, 0.2, -0.3j, 0.25 + 0.25j])
    h = 1e-4
    fd = (g.value(z + h) + g.value(z - h) + g.value(z + 1j * h) + g.value(z - 1j * h)
          - 4 * g.value(z)) / h**2
    assert np.allclose(fd, g.laplacian_std(z), rtol=1e-4, atol=1e-6)


def test_bump_dirichlet_energy_dual_quadrature():
    g = bump(0.0, 0.5)
    via_grid = gradient_pair_integral(g, g)

    def integrand(r):
        u = 4.0 * r * r
        gg = np.exp(1.0 - 1.0 / (1.0 - u))
        dg = gg * (-1.0 / (1.0 - u) ** 2) * 8.0 * r
        return 2.0 * dg**2 * r

    via_quad, _ = quad(integrand, 0.0, 0.5, limit=200)
    assert via_grid == pytest.approx(via_quad, abs=1e-8)
    # scale invariance of the planar Dirichlet integral: the value is exactly 2
    assert via_grid == pytest.approx(2.0, abs=1e-9)
    g = bump(0.0, 0.2)
    assert gradient_pair_integral(g, g) == pytest.approx(2.0, abs=1e-8)


def test_re_coordinate_derivatives_match_mpmath():
    # x exp(1 - 1/(1 - t^2)), t = |z| - 2, on the taper 2 < |z| < 3, where
    # the closed forms meet mpmath's derivatives; flat (lap = 0) elsewhere
    f = re_coordinate(2.0, 3.0)
    radii = np.array([2.01, 2.2, 2.45, 2.7, 2.9])
    z = (radii[:, None] * np.exp(1j * np.array([0.3, 2.5, 4.0]))[None, :]).ravel()
    grad, lap = np.asarray(f.gradient(z)), np.asarray(f.laplacian_std(z))

    def F(x, y):
        t = mpmath.sqrt(x**2 + y**2) - 2
        return x * mpmath.exp(1 - 1 / (1 - t**2))

    with mpmath.workdps(40):
        for zi, gi, li in zip(z, grad, lap):
            xy = (mpmath.mpf(zi.real), mpmath.mpf(zi.imag))
            exact = np.array([float(mpmath.diff(F, xy, d)) for d in ((1, 0), (0, 1))])
            exact_lap = float(mpmath.diff(F, xy, (2, 0)) + mpmath.diff(F, xy, (0, 2)))
            assert np.max(np.abs(gi - exact)) <= 1e-10 * np.max(np.abs(exact))
            assert abs(li - exact_lap) <= 1e-10 * abs(exact_lap)
    flat = np.array([0.0, 0.3 + 0.4j, -1.5j, 1.999, 2.0, 3.0, -3.5 + 1j])
    assert np.all(f.laplacian_std(flat) == 0.0)


# ---------------------------------------------------------------------------
# fluctuation values


def test_fluct_zero_function(ginibre_droplet):
    g = bump(0.0, 0.5)
    zero = bump(0.0, 0.5)
    from dataclasses import replace
    zero = replace(zero, value=lambda z: np.zeros(np.asarray(z).shape),
                   gradient=lambda z: np.zeros(np.asarray(z).shape + (2,)),
                   laplacian_std=lambda z: np.zeros(np.asarray(z).shape))
    cfg = PointConfiguration(points=np.array([0.1 + 0.1j, -0.2j]), meta={})
    assert fluct_values([cfg], zero, ginibre_droplet)[0] == 0.0


def test_fluct_single_point_matches_radial_quadrature(ginibre_droplet):
    g = bump(0.0, 0.5)
    lam = 0.17 - 0.22j
    cfg = PointConfiguration(points=np.array([lam]), meta={})
    base, _ = quad(lambda r: 2.0 * r * np.exp(1.0 - 1.0 / (1.0 - 4 * r * r)), 0.0, 0.5)
    expected = float(np.real(g.value(lam))) - base
    assert fluct_values([cfg], g, ginibre_droplet)[0] == pytest.approx(expected, abs=1e-9)


def test_fluct_point_outside_support_shifts_deterministically(ginibre_droplet):
    g = bump(0.0, 0.5)
    pts = np.array([0.1 + 0.05j, 0.2j])
    cfg1 = PointConfiguration(points=pts, meta={})
    cfg2 = PointConfiguration(points=np.append(pts, 0.8), meta={})
    delta = fluct_values([cfg2], g, ginibre_droplet)[0] - fluct_values([cfg1], g, ginibre_droplet)[0]
    assert delta == pytest.approx(-equilibrium_integral(g, ginibre_droplet), abs=1e-12)


def test_fluct_linearity(ginibre_droplet, matrix_bank_n16):
    f = bump(0.0, 0.4)
    g = bump(0.1, 0.3)
    from dataclasses import replace
    # g is off-centre, so the combination is not radial like f
    combo = replace(
        f,
        radial=False,
        value=lambda z: 2.0 * f.value(z) - 3.0 * g.value(z),
        gradient=lambda z: 2.0 * np.asarray(f.gradient(z)) - 3.0 * np.asarray(g.gradient(z)),
        laplacian_std=lambda z: 2.0 * np.asarray(f.laplacian_std(z)) - 3.0 * np.asarray(g.laplacian_std(z)),
    )
    for cfgp in matrix_bank_n16[:5]:
        lhs = fluct_values([cfgp], combo, ginibre_droplet)[0]
        rhs = 2.0 * fluct_values([cfgp], f, ginibre_droplet)[0] \
            - 3.0 * fluct_values([cfgp], g, ginibre_droplet)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bank, g", [
    ("matrix_bank_n64", bump(0.0, 0.5)),
    ("dpp_bank_n16", bump(0.3 + 0.2j, 0.4)),
    ("matrix_bank_n16", re_coordinate(2.0, 3.0)),
])
def test_fluct_values_match_per_configuration_loop(request, ginibre_droplet, bank, g):
    samples = request.getfixturevalue(bank)
    loop = np.array([trace_statistic(c, g) - len(c.points) * equilibrium_integral(g, ginibre_droplet)
                     for c in samples])
    got = fluct_values(samples, g, ginibre_droplet)
    assert got.dtype == loop.dtype and got.tobytes() == loop.tobytes()


def test_fluct_values_empty_and_ragged_banks(ginibre_droplet):
    g = bump(0.0, 0.5)
    assert fluct_values([], g, ginibre_droplet).shape == (0,)
    ragged = [PointConfiguration(points=np.zeros(k), meta={}) for k in (3, 4, 3)]
    with pytest.raises(ValueError, match=r"sizes \[3, 4\]"):
        fluct_values(ragged, g, ginibre_droplet)


def test_prediction_caches_stay_bounded(ginibre):
    # droplets hash by identity, so every fresh droplet is a new cache key
    g = bump(0.0, 0.5)
    for fn in (equilibrium_integral, mean_prediction):
        fn.cache_clear()
        maxsize = fn.cache_info().maxsize
        for _ in range(maxsize + 4):
            fn(g, compute_droplet(ginibre, 1.0))
        assert fn.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# CLT report


def test_mean_prediction_zero_for_ginibre(ginibre_droplet):
    assert mean_prediction(bump(0.0, 0.5), ginibre_droplet) == pytest.approx(0.0, abs=1e-14)
    assert mean_prediction(bump(0.2, 0.3), ginibre_droplet) == pytest.approx(0.0, abs=1e-14)
    # nor has |z|^2 as the power family's p = 1 an atom at the origin
    assert make_ginibre().subleading_atoms == make_radial_power(1).subleading_atoms == ()


@pytest.mark.parametrize("p", [2, 3])
def test_mean_prediction_power_field_origin_atom(p):
    # nu = (1/2) lap log lap Q of |z|^(2p) has mass (p-1)/2 at the origin and
    # no density elsewhere; the exact finite-n mean C_1 - n int g dsigma of
    # the centred bump approaches it from below, the gap shrinking at every
    # 4x step of n (0.211, 0.109, 0.051 for p = 2; 0.676, 0.508, 0.329 for
    # p = 3); with the atom left out (e_g = 0) the gap would grow instead
    from rnmlab.cumulants import dpp_cumulant
    from rnmlab.orthopoly import default_grid, weighted_kernel
    pot = make_radial_power(p)
    drop = compute_droplet(pot, 1.0)
    g = bump(0.0, 0.5)
    e_g = mean_prediction(g, drop)
    assert e_g == pytest.approx(0.5 * (p - 1), abs=1e-14)
    assert mean_prediction(bump(0.3, 0.2), drop) == pytest.approx(0.0, abs=1e-14)
    gaps = []
    for n in (16, 64, 256):
        kern = weighted_kernel(pot, float(n), n)
        c1 = dpp_cumulant(kern, default_grid(pot, float(n), n), g, 1)
        gaps.append(e_g - (c1 - n * equilibrium_integral(g, drop)))
    assert gaps[0] > 0.0
    assert all(0.0 < b <= 0.8 * a for a, b in zip(gaps, gaps[1:]))


def test_clt_report_bulk_support_enforced(ginibre_droplet, matrix_bank_n16):
    pot = make_ginibre()
    with pytest.raises(SupportError, match="bulk"):
        clt_report(matrix_bank_n16[:10], bump(0.5, 0.5), ginibre_droplet, pot)


def test_clt_report_matrix_n64(matrix_bank_n64, ginibre_droplet):
    # the sharp variance oracle at finite n is the exact trace-formula second
    # cumulant (the asymptotic Dirichlet value is still ~15% away at n = 64;
    # the approach to that limit is checked deterministically, through the
    # exact variances at n = 16..256, in clause (b) of acceptance criterion 4)
    from rnmlab.cumulants import dpp_cumulant
    from rnmlab.orthopoly import default_grid, weighted_kernel
    pot = make_ginibre()
    g = bump(0.0, 0.5)
    rep = clt_report(matrix_bank_n64, g, ginibre_droplet, pot)
    assert rep.n_samples == 2000
    assert rep.predicted_mean == pytest.approx(0.0, abs=1e-12)
    assert rep.predicted_variance == pytest.approx(0.5, abs=1e-9)
    assert abs(rep.mean - rep.predicted_mean) <= 3.0 * rep.mcse_mean
    kern = weighted_kernel(pot, 64.0, 64)
    c2 = dpp_cumulant(kern, default_grid(pot, 64.0, 64), g, 2)
    assert abs(rep.variance - c2) <= 3.0 * rep.mcse_variance
    assert abs(rep.skewness) <= 3.0 * rep.mcse_skewness
    assert abs(rep.excess_kurtosis) <= 3.0 * rep.mcse_kurtosis


def test_variance_is_order_one_in_n(matrix_bank_n16, matrix_bank_n64, ginibre_droplet):
    g = bump(0.0, 0.5)
    v16 = fluct_values(matrix_bank_n16, g, ginibre_droplet).var(ddof=1)
    v64 = fluct_values(matrix_bank_n64, g, ginibre_droplet).var(ddof=1)
    assert v64 < 1.5 * v16
    assert v16 < 1.5 * v64


def test_jarque_bera_gaussian_at_n64(matrix_bank_n64, ginibre_droplet):
    x = fluct_values(matrix_bank_n64, bump(0.0, 0.5), ginibre_droplet)
    assert jarque_bera(x) < 9.21  # 1% critical value of chi^2_2


# ---------------------------------------------------------------------------
# covariance checks


def test_covariance_reduces_to_variance(matrix_bank_n64, ginibre_droplet):
    g = bump(0.0, 0.5)
    out = covariance_check(matrix_bank_n64, g, g, ginibre_droplet)
    x = fluct_values(matrix_bank_n64, g, ginibre_droplet)
    assert out.empirical == pytest.approx(float(x.var(ddof=1)), rel=1e-12)
    assert out.predicted == pytest.approx(0.5, abs=1e-9)


def test_covariance_disjoint_supports(matrix_bank_n64, ginibre_droplet):
    f = bump(-0.45, 0.2)
    g = bump(0.45, 0.2)
    out = covariance_check(matrix_bank_n64, f, g, ginibre_droplet)
    assert out.predicted == pytest.approx(0.0, abs=1e-12)
    assert abs(out.empirical) <= 3.0 * out.mcse


def test_covariance_bilinearity(matrix_bank_n64, ginibre_droplet):
    g = bump(0.0, 0.5)
    g2 = replace(g,
                 value=lambda z: 2.0 * g.value(z),
                 gradient=lambda z: 2.0 * np.asarray(g.gradient(z)),
                 laplacian_std=lambda z: 2.0 * np.asarray(g.laplacian_std(z)))
    a = covariance_check(matrix_bank_n64, g, g2, ginibre_droplet)
    b = covariance_check(matrix_bank_n64, g, g, ginibre_droplet)
    assert a.empirical == pytest.approx(2.0 * b.empirical, rel=1e-12)
    assert a.predicted == pytest.approx(2.0 * b.predicted, rel=1e-10)
    sym = covariance_check(matrix_bank_n64, g2, g, ginibre_droplet)
    assert sym.empirical == pytest.approx(a.empirical, rel=1e-12)


@pytest.mark.parametrize("supports", [
    ((0.0, 0.5), (0.1 + 0.1j, 0.2)),         # nested
    ((0.25 + 0.1j, 0.35), (0.6, 0.2)),       # overlapping
    ((-0.5, 0.3), (0.5j, 0.25)),             # disjoint
], ids=["nested", "overlapping", "disjoint"])
def test_covariance_prediction_matches_enclosing_disk(supports):
    # the prediction integrates over the smaller support disk; the reference
    # takes a finer rule on a disk that encloses both supports
    f, g = (bump(c, r) for c, r in supports)
    (c1, r1), (c2, r2) = supports
    grid = QuadratureGrid.disk(0.5 * abs(c1 - c2) + max(r1, r2), n_radial=600, n_theta=512)
    z = 0.5 * (c1 + c2) + grid.nodes
    ref = 0.25 * float(np.sum(grid.weights * np.sum(
        np.asarray(f.gradient(z)) * np.asarray(g.gradient(z)), axis=-1)))
    got = covariance_prediction(f, g)
    assert abs(got - ref) <= 1e-12
    assert abs(got - covariance_prediction(g, f)) <= 1e-14
    if abs(c1 - c2) >= r1 + r2:
        assert got == 0.0


def test_gradient_integrals_computed_once():
    calls = []

    def counting(t):
        def gradient(z):
            calls.append(np.shape(z))
            return t.gradient(z)
        return replace(t, gradient=gradient)

    f, g = counting(bump(0.0, 0.5)), counting(bump(0.2, 0.3))
    first = (variance_prediction(g), covariance_prediction(f, g))
    assert calls
    calls.clear()
    assert (variance_prediction(g), covariance_prediction(f, g)) == first
    assert calls == []


@pytest.mark.parametrize("size", [0, 1])
def test_covariance_needs_two_samples(matrix_bank_n64, ginibre_droplet, size):
    # below 2 samples the sample covariance is undefined: an error, not nan
    g = bump(0.0, 0.5)
    with pytest.raises(ValueError, match="at least 2 samples"):
        covariance_check(matrix_bank_n64[:size], g, g, ginibre_droplet)
    assert np.isfinite(covariance_check(matrix_bank_n64[:2], g, g, ginibre_droplet).empirical)


# ---------------------------------------------------------------------------
# exponential tilting


def test_tilting_ginibre_n16(ginibre_droplet):
    pot = make_ginibre()
    g = bump(0.0, 0.5)
    lam_grid = np.linspace(-1.0, 1.0, 9)
    # Kostlan: n |lambda_k|^2, k = 1..n, are independent Gamma(k), so for the
    # radial bump this bank has the statistic's exact law; angles play no role
    rng = stream_rng(61, 0)
    radii = np.sqrt(rng.standard_gamma(np.arange(1.0, 17.0), size=(100_000, 16)) / 16)
    bank = [PointConfiguration(points=r) for r in radii]
    res = tilting_check(bank, g, lam_grid, ginibre_droplet)
    # F'(0) is the plain fluctuation mean; prediction e_g = 0
    mid = res.rows[4]
    assert mid.lam == 0.0
    assert abs(mid.derivative) < 0.05
    assert res.second_derivative_min >= 0.0
    assert not res.low_ess
    # the recovered slope is the finite-n log-MGF curvature; its sharp oracle
    # is the exact trace-formula second cumulant (at n = 16 that value is
    # still ~36% below the asymptotic slope, which only bounds it above)
    from rnmlab.cumulants import dpp_cumulant
    from rnmlab.orthopoly import default_grid, weighted_kernel
    kern = weighted_kernel(pot, 16.0, 16)
    c2 = dpp_cumulant(kern, default_grid(pot, 16.0, 16), g, 2)
    assert abs(res.slope - c2) <= 0.15 * c2
    assert res.slope < res.slope_prediction


# ---------------------------------------------------------------------------
# boundary statistics (constant-Laplacian case)


def test_boundary_re_coordinate(ginibre_droplet):
    f = re_coordinate(2.0, 3.0)
    pred = boundary_statistics(f, ginibre_droplet)
    assert pred.e_f == pytest.approx(0.0, abs=1e-12)
    assert pred.interior_energy == pytest.approx(1.0, abs=1e-9)
    assert pred.exterior_energy == pytest.approx(1.0, abs=1e-9)
    assert pred.v_f2 == pytest.approx(0.5, abs=1e-9)


def test_boundary_constant_function(ginibre_droplet):
    from dataclasses import replace
    f = re_coordinate(2.0, 3.0)
    one = replace(f,
                  value=lambda z: np.ones(np.asarray(z).shape),
                  gradient=lambda z: np.zeros(np.asarray(z).shape + (2,)),
                  laplacian_std=lambda z: np.zeros(np.asarray(z).shape))
    pred = boundary_statistics(one, ginibre_droplet)
    assert pred.e_f == pytest.approx(0.0, abs=1e-12)
    assert pred.v_f2 == pytest.approx(0.0, abs=1e-12)


def test_boundary_rejects_varying_laplacian():
    drop = compute_droplet(make_radial_power(2), 1.0)
    with pytest.raises(UnsupportedPotentialError):
        boundary_statistics(re_coordinate(2.0, 3.0), drop)


def test_boundary_variance_monte_carlo(matrix_bank_n64, ginibre_droplet):
    f = re_coordinate(2.0, 3.0)
    pred = boundary_statistics(f, ginibre_droplet)
    vals = fluct_values(matrix_bank_n64, f, ginibre_droplet)
    mean = vals.mean()
    var = vals.var(ddof=1)
    assert abs(mean - pred.e_f) <= 3.0 * vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(var - pred.v_f2) <= 0.15 * pred.v_f2


# ---------------------------------------------------------------------------
# disk integrals ring by ring


def _node_sum(center, radius, *factors, n_theta=256):
    """The full node sum over QuadratureGrid.disk(radius): every 2-D node
    weight times the product of the factors there."""
    grid = QuadratureGrid.disk(radius, n_theta=n_theta)
    z = center + grid.nodes
    out = grid.weights
    for f in factors:
        out = out * np.asarray(f(z), dtype=float)
    return float(np.sum(out))


def _grad_dot(f, g):
    return lambda z: np.sum(np.asarray(f.gradient(z)) * np.asarray(g.gradient(z)), axis=-1)


_RING_FIELDS = {"ginibre": make_ginibre, "power2": lambda: make_radial_power(2),
                "quartic": tabulated_quartic}
_RING_STATS = {"centred": lambda R: bump(0.0, 0.5 * R),
               "off-centre": lambda R: bump(0.3 * R + 0.2j * R, 0.4 * R),
               "re": lambda R: re_coordinate(0.6 * R, 0.9 * R)}


@pytest.mark.parametrize("stat", list(_RING_STATS))
@pytest.mark.parametrize("field", list(_RING_FIELDS))
def test_ring_sums_match_node_sums(field, stat):
    drop = compute_droplet(_RING_FIELDS[field](), 1.0)
    g = _RING_STATS[stat](drop.radius)
    R = drop.radius
    ref_eq = _node_sum(0.0, R, g.value, drop.equilibrium_density)
    ref_mean = _node_sum(0.0, R, g.value, drop.nu_density) + sum(
        mass * float(np.real(g.value(complex(p)))) for p, mass in drop.potential.subleading_atoms)
    scale = _node_sum(0.0, R, lambda z: np.abs(g.value(z)), drop.equilibrium_density)
    assert abs(equilibrium_integral(g, drop) - ref_eq) <= 1e-13 * scale
    # the finite-difference nu of a tabulated field varies by up to 3.3e-9
    # relative over the nodes of one ring, so one evaluation per ring moves
    # its mean by up to about 1e-11 (8.7e-12 measured) against the node sum
    tol = 1e-10 if field == "quartic" and g.radial else 1e-13
    assert abs(mean_prediction(g, drop) - ref_mean) <= tol * max(abs(ref_mean), scale)
    if g.compactly_supported:
        c, r = g.support_center, g.support_radius
        assert variance_prediction(g) == pytest.approx(
            0.25 * _node_sum(c, r, _grad_dot(g, g)), rel=1e-13)
        h = _RING_STATS["off-centre"](R)
        t = g if g.support_radius <= h.support_radius else h
        assert covariance_prediction(g, h) == pytest.approx(0.25 * _node_sum(
            t.support_center, t.support_radius, _grad_dot(g, h)), rel=1e-13)
    if field == "ginibre":
        interior = _node_sum(0.0, R, _grad_dot(g, g), n_theta=512)
        assert boundary_statistics(g, drop).interior_energy == pytest.approx(interior, rel=1e-13)


@pytest.mark.parametrize("field", ["ginibre", "power2"])
def test_radial_shortcut_matches_block_path(field):
    drop = compute_droplet(_RING_FIELDS[field](), 1.0)
    g = bump(0.0, 0.5 * drop.radius)
    grid = QuadratureGrid.disk(drop.radius)
    for fn in (lambda z: g.value(z) * drop.equilibrium_density(z),
               lambda z: g.value(z) * drop.nu_density(z), _grad_dot(g, g)):
        fast = grid.ring_means(fn, radial=True)
        slow = grid.ring_means(fn)
        assert fast.shape == slow.shape == grid.radial_nodes.shape
        assert np.allclose(fast, slow, rtol=1e-13, atol=1e-13 * np.max(np.abs(slow)))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


_LOW_MEMORY = {
    "equilibrium_integral": lambda d: equilibrium_integral(bump(0.0, 0.5), d),
    "mean_prediction": lambda d: mean_prediction(bump(0.2 + 0.1j, 0.3), d),
    "variance_prediction-centred": lambda d: variance_prediction(bump(0.0, 0.5)),
    "variance_prediction-off-centre": lambda d: variance_prediction(bump(0.2 + 0.1j, 0.3)),
    "covariance_prediction-centred": lambda d: covariance_prediction(bump(0.0, 0.5),
                                                                     bump(0.0, 0.3)),
    "covariance_prediction-off-centre": lambda d: covariance_prediction(
        bump(0.0, 0.5), bump(0.2 + 0.1j, 0.3)),
    "boundary_statistics": lambda d: boundary_statistics(re_coordinate(2.0, 3.0), d),
    "conditional_expectation_identity": lambda d: conditional_expectation_identity(
        d.potential, 16, bump(0.2 + 0.1j, 0.3)),
    "gaussian_pair_integrals": lambda d: gaussian_pair_integrals.__wrapped__(),
}


@pytest.mark.parametrize("case", list(_LOW_MEMORY))
def test_disk_integrals_hold_no_grid_array(case, ginibre_droplet):
    # a 400 x 256 grid is 1.6 MB of complex nodes; ring blocks of at most
    # 8192 nodes keep each of these calls (fresh statistics, so no cache
    # hit) far below that
    run = _LOW_MEMORY[case]
    run(ginibre_droplet)  # warm the module caches (rules, kernels' norms)
    assert _peak_bytes(lambda: run(ginibre_droplet)) < 2_000_000
