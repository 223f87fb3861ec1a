import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from rnmlab import orthopoly
from rnmlab.berezin import wavefunction_measure
from rnmlab.orthopoly import (_NORM_CUT, _PANELS, DivergentNormError, QuadratureGrid,
                              _norm_bands, _norm_window, default_grid, fit_decay_rate,
                              offdiagonal_decay_profile, radial_norms, weighted_kernel)
from rnmlab.potential import make_custom_radial, make_ginibre, make_radial_power

from conftest import spline_field, tabulated_quartic


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


def test_disk_builds_node_arrays_on_first_read():
    # a 400 x 256 disk is 1.6 MB of complex nodes; it holds only its rings
    # until nodes or weights are read, and then the product-grid arrays
    QuadratureGrid.disk(1.0)  # the cached 400-node rule: a 400 x 400 eigenproblem
    tracemalloc.start()
    try:
        grid = QuadratureGrid.disk(1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    r, wr, n = grid.radial_nodes, grid.radial_weights, grid.n_theta
    z = r[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))[None, :]
    wa = np.broadcast_to((2.0 / n) * (wr * r)[:, None], z.shape)
    assert grid.nodes.tobytes() == z.ravel().tobytes()
    assert grid.weights.tobytes() == wa.ravel().copy().tobytes()
    assert grid.nodes is grid.nodes and grid.weights is grid.weights


@pytest.mark.parametrize("n_theta", [64, 256, 512, 10_000])
def test_ring_means_are_node_means(n_theta):
    # blocks of rings (one ring when n_theta exceeds the block) see the
    # nodes themselves, so each ring's mean is the mean over its nodes
    grid = QuadratureGrid.disk(0.9, n_radial=50, n_theta=n_theta)
    c = 0.1 - 0.2j

    def fn(z):
        return np.cos(3.0 * z.real) * np.exp(z.imag) + np.abs(z - 0.3)

    want = fn(c + grid.nodes).reshape(-1, n_theta).mean(axis=1)
    assert grid.ring_means(fn, center=c).tobytes() == want.tobytes()


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


def _log1p_field(rho=1.0):
    return make_custom_radial(
        q=lambda r: rho * np.log1p(np.asarray(r, dtype=float) ** 2),
        dq=lambda r: 2.0 * rho * np.asarray(r) / (1.0 + np.asarray(r) ** 2),
        d2q=lambda r: 2.0 * rho * (1.0 - np.asarray(r) ** 2) / (1.0 + np.asarray(r) ** 2) ** 2,
        growth_exponent=rho,
    )


_NORM_FIELDS = {
    "ginibre-1024": (make_ginibre, 1024.0, 1024),
    "power2-256": (lambda: make_radial_power(2), 256.0, 256),
    "power3-64": (lambda: make_radial_power(3), 64.0, 64),
    "quartic-64": (tabulated_quartic, 64.0, 64),
    "log1p-24": (_log1p_field, 40.0, 24),
}


def _dense_norm_terms(pot, m, n, k):
    """log of every term of the norm rule for the modes k: rows of
    k log r^2 + log(node weight * 2r) - m q(r) over all _PANELS x 16 nodes."""
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * _norm_window(pot, m, n) / _PANELS
    r = (half * (2.0 * np.arange(_PANELS)[:, None] + x + 1.0)).ravel()
    base = np.log(2.0 * half * np.tile(w, _PANELS) * r) - m * pot.radial_profile.q(r)
    return k[:, None] * 2.0 * np.log(r) + base


@pytest.mark.parametrize("case", list(_NORM_FIELDS))
def test_banded_norms_match_dense_sum(case):
    make, m, n = _NORM_FIELDS[case]
    pot = make()
    got = radial_norms(pot, m, n).log_norms
    for k in np.array_split(np.arange(n), max(1, n // 128)):
        terms = _dense_norm_terms(pot, m, n, k)
        peak = terms.max(axis=1)
        dense = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
        assert np.all(np.abs(got[k] - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("build", ["radial_law", "wavefunction_measure"])
def test_norm_window_solved_once_per_kernel(build, monkeypatch):
    # the basis records the end of its rule; the radial law and the
    # wave-function measure read it there instead of solving the window again
    original = orthopoly._norm_window
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("rnmlab") and \
                getattr(module, "_norm_window", None) is original:
            monkeypatch.setattr(module, "_norm_window", counted)
    pot = make_radial_power(2)
    if build == "radial_law":
        weighted_kernel(pot, 16.0, 16).radial_law
    else:
        wavefunction_measure(pot, 16)
    assert calls == [(pot, 16.0, 16)]


@pytest.mark.parametrize("case", ["ginibre-1024", "power3-64", "quartic-64", "log1p-24"])
def test_norm_bands_drop_below_window_cut(case):
    # the terms outside each mode's band weigh less than e^-40 of its norm,
    # the cut of the window itself, and the largest term is inside
    make, m, n = _NORM_FIELDS[case]
    pot = make()
    half = 0.5 * _norm_window(pot, m, n) / _PANELS
    lo, hi = _norm_bands(pot, m, n, 2.0 * half * np.arange(_PANELS + 1))
    k = np.arange(0, n, max(1, n // 64))
    terms = _dense_norm_terms(pot, m, n, k)
    shifted = np.exp(terms - terms.max(axis=1, keepdims=True))
    inside = np.zeros_like(shifted, dtype=bool)
    for row, j in enumerate(k):
        inside[row, 16 * lo[j]:16 * hi[j]] = True
    assert np.all(inside[np.arange(k.size), terms.argmax(axis=1)])
    outside = np.where(inside, 0.0, shifted).sum(axis=1) / shifted.sum(axis=1)
    assert np.all(outside < math.exp(-40.0))


def test_norm_bands_keep_peak_panel():
    # on coarse panels no edge but the top one is within the cut of the top
    # edge value; the peak lies in one of the two panels at that edge
    pot, m, n = make_ginibre(), 4096.0, 4096
    edges = np.linspace(0.0, 1.5, 7)  # peaks of the top modes near r = 1
    lo, hi = _norm_bands(pot, m, n, edges)
    f = (2.0 * (n - 1) + 1.0) * np.log(edges[1:]) - m * edges[1:] ** 2
    top = 1 + int(np.argmax(f))
    assert np.sort(f)[-2] < f.max() - 60.0  # a lone live edge
    assert (lo[-1], hi[-1]) == (top - 1, top + 1)
    assert np.all(lo <= hi - 1)


def _dense_norm_bands(pot, m, n, edges):
    """The bands by the whole n x (panels + 1) matrix of edge values: each
    mode's first and last edge within the cut of its largest."""
    w = np.polynomial.legendre.leggauss(16)[1]
    panels = edges.size - 1
    cut = _NORM_CUT + np.log(w.size * panels) + np.log(w.max() / w.min())
    with np.errstate(divide="ignore"):
        f = (2.0 * np.arange(n) + 1.0)[:, None] * np.log(edges)
    f -= m * np.asarray(pot.radial_profile.q(edges), dtype=float)
    live = f >= f.max(axis=1, keepdims=True) - cut
    first = live.argmax(axis=1)
    last = panels - live[:, ::-1].argmax(axis=1)
    return np.maximum(first - 1, 0), np.minimum(last + 1, panels)


@pytest.mark.parametrize("field", ["ginibre", "power2", "power3", "quartic"])
def test_norm_bands_match_dense_rule(field):
    pot = {"ginibre": make_ginibre, "power2": lambda: make_radial_power(2),
           "power3": lambda: make_radial_power(3), "quartic": tabulated_quartic}[field]()
    for n in (1, 2, 17, 256, 4096):
        edges = np.linspace(0.0, _norm_window(pot, float(n), n), _PANELS + 1)
        lo, hi = _norm_bands(pot, float(n), n, edges)
        want_lo, want_hi = _dense_norm_bands(pot, float(n), n, edges)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


@pytest.mark.parametrize("p, n", [(1, 4096), (2, 1024)])
def test_gamma_oracle_large_n(p, n):
    pot = make_ginibre() if p == 1 else make_radial_power(p)
    basis = radial_norms(pot, float(n), n)
    k = np.arange(n)
    exact = np.array([math.lgamma((j + 1) / p) for j in k]) - math.log(p) \
        - (k + 1) / p * math.log(n)
    assert np.all(np.abs(basis.log_norms - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))


def test_divergent_norm_raises():
    # logarithmic growth: q = rho log(1+r^2) keeps lap Q > 0 but the norms
    # diverge once the degree outruns m * rho
    pot = _log1p_field(rho=1.0)
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


def test_ring_weights_sum_each_ring():
    grid = QuadratureGrid.disk(1.3, n_radial=40, n_theta=32)
    per_ring = grid.weights.reshape(40, 32).sum(axis=1)
    assert np.allclose(grid.ring_weights, per_ring, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("family", ["ginibre", "power2"])
def test_trace_on_matches_pointwise(family, n):
    # trace_on sums one R1 value per ring; the node sum is its reference
    pot = make_ginibre() if family == "ginibre" else make_radial_power(2)
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n)
    pointwise = float(np.real(grid.integrate(kern.one_point(grid.nodes))))
    assert abs(kern.trace_on(grid) - pointwise) <= 1e-12 * n


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
    U = weighted_kernel(pot, float(m), n).features(grid.nodes) * np.sqrt(grid.weights)[:, None]
    K = U @ U.conj().T  # Nystrom matrix sqrt(w_a) K_w(z_a, z_b) sqrt(w_b)
    assert np.max(np.abs(K @ K - K)) < 1e-6
    assert np.trace(K).real == pytest.approx(n, abs=1e-6)
    assert np.max(np.abs(K - K.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# diagonal expansion (bulk one-point asymptotics)


def _diagonal_residual(kern, z):
    # | R1(z) - m lap Q(z) - (1/2) lap log lap Q(z) |, the bulk expansion error
    pot = kern.potential
    return abs(kern.one_point(z) - (kern.m * pot.laplacian(z) + pot.subleading_density(z)))


def test_diagonal_expansion_budget(kern64):
    resid = _diagonal_residual(kern64, 0.3)
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
    resid = _diagonal_residual(kern, z)
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
