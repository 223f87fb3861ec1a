import numpy as np
import pytest

from rnmlab.potential import (DropletGeometryError, PotentialError, _solve_rdq,
                              compute_droplet, make_custom_radial,
                              make_ginibre, make_radial_power,
                              make_tabulated_radial)
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import spline_field


def test_ginibre_values():
    pot = make_ginibre()
    assert pot.evaluate(1 + 1j) == pytest.approx(2.0)
    assert pot.laplacian(0.3) == pytest.approx(1.0)


def test_power_matches_ginibre_at_p1():
    # one field under two names: every callable agrees bit for bit, with the
    # same dtype, on arrays and scalars, down to 0 and past overflow
    pot = make_radial_power(1)
    gin = make_ginibre()
    assert (gin.name, pot.name) == ("ginibre", "power1")
    assert gin.growth_exponent == pot.growth_exponent
    assert gin.subleading_atoms == pot.subleading_atoms == ()
    inputs = [np.array([0.0, 0.1, 0.5 + 0.2j, -1.3j, 2.0, 1e300]), 0.0, 0.3 + 0.4j, 1e300]

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    with np.errstate(over="ignore", invalid="ignore"):
        for z in inputs:
            r = np.abs(z)
            for name in ("evaluate", "laplacian", "gradient", "subleading_closed",
                         "subleading_density"):
                assert same(getattr(gin, name)(z), getattr(pot, name)(z)), name
            for name in ("q", "dq", "d2q"):
                assert same(getattr(gin.radial_profile, name)(r),
                            getattr(pot.radial_profile, name)(r)), name


def test_power_laplacian_and_subleading():
    pot = make_radial_power(2)
    assert pot.laplacian(1.0) == pytest.approx(4.0)
    # log of the quarter-Laplacian is harmonic away from the origin
    assert pot.subleading_density(0.5) == pytest.approx(0.0, abs=1e-12)


def test_custom_radial_quartic_laplacian():
    pot = make_custom_radial(
        q=lambda r: np.asarray(r) ** 2 + np.asarray(r) ** 4 / 4.0,
        dq=lambda r: 2.0 * np.asarray(r) + np.asarray(r) ** 3,
        d2q=lambda r: 2.0 + 3.0 * np.asarray(r) ** 2,
        growth_exponent=10.0,
    )
    # (q'' + q'/r)/4 at r=1: (5 + 3)/4 = 2
    assert pot.laplacian(1.0) == pytest.approx(2.0)


def test_custom_subleading_at_origin():
    # q = r^2/2 + r^4/4: quarter-Laplacian 1/2 + r^2, and the subleading
    # density (1/2) lap log lap Q / 4 is 1 / (4 (1/2 + r^2)^2), finite at 0;
    # the same profile in closed form and splined as the CLI builds it
    poly = make_custom_radial(
        q=lambda r: np.asarray(r) ** 2 / 2.0 + np.asarray(r) ** 4 / 4.0,
        dq=lambda r: np.asarray(r) + np.asarray(r) ** 3,
        d2q=lambda r: 1.0 + 3.0 * np.asarray(r) ** 2,
        growth_exponent=10.0,
    )
    r = np.array([0.0, 1e-3, 0.1])
    exact = 1.0 / (4.0 * (0.5 + r**2) ** 2)
    for pot in (poly, spline_field()):
        vals = pot.subleading_density(r.astype(complex))
        assert np.allclose(vals, exact, rtol=1e-7)
        assert np.max(np.abs(vals - exact)) <= 1e-9
        assert pot.subleading_density(0.0) == pytest.approx(1.0, rel=1e-7)


def test_custom_radial_matches_ginibre():
    pot = make_custom_radial(
        q=lambda r: np.asarray(r) ** 2,
        dq=lambda r: 2.0 * np.asarray(r),
        d2q=lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float)),
        growth_exponent=10.0,
    )
    gin = make_ginibre()
    z = np.linspace(0.05, 3.0, 40).astype(complex)
    assert np.allclose(pot.evaluate(z), gin.evaluate(z))
    assert np.allclose(pot.laplacian(z), gin.laplacian(z), atol=1e-12)


def test_custom_radial_rejects_log_profile():
    with pytest.raises(PotentialError, match="r ="):
        make_custom_radial(
            q=lambda r: np.log(np.asarray(r)),
            dq=lambda r: 1.0 / np.asarray(r),
            d2q=lambda r: -1.0 / np.asarray(r) ** 2,
            growth_exponent=1.0,
        )


def _quintic_columns(r):
    """q = r^2 + 0.3 r^3 + 0.1 r^4 + 0.05 r^5 (strictly subharmonic) with q', q''."""
    return (r**2 + 0.3 * r**3 + 0.1 * r**4 + 0.05 * r**5,
            2.0 * r + 0.9 * r**2 + 0.4 * r**3 + 0.25 * r**4,
            2.0 + 1.8 * r + 1.2 * r**2 + 1.0 * r**3)


def _benchmark_table():
    """The benchmark's custom field: q = r^2/2 + r^4/4 on 600 knots over [0, 6]."""
    r = np.linspace(0.0, 6.0, 600)
    return make_tabulated_radial(r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2, 10.0)


def test_tabulated_radial_reproduces_quintic():
    # non-uniform knots from r = 0.05, like the table of
    # test_build_potential_families; 0.01 and 0.02 lie below the first knot
    r = 0.05 + 3.95 * np.linspace(0.0, 1.0, 25) ** 1.5
    prof = make_tabulated_radial(r, *_quintic_columns(r), 10.0).radial_profile
    x = np.concatenate([[0.01, 0.02], np.linspace(0.05, 4.0, 1001), r])
    for got, exact in zip((prof.q(x), prof.dq(x), prof.d2q(x)), _quintic_columns(x)):
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12


def test_tabulated_radial_derivatives_are_derivatives_of_q():
    # a profile that is not a piecewise polynomial: the interpolant differs
    # from it, but its q' and q'' are still the derivatives of its q, and it
    # meets the table (q, q', q'') of every knot (C^2); the table spans make_custom_radial's
    # probe annulus, so no extrapolated piece decides its subharmonicity check
    r = np.linspace(0.0, 10.0, 101)
    prof = make_tabulated_radial(r, r**2 + np.sin(r), 2.0 * r + np.cos(r),
                                 2.0 - np.sin(r), 10.0).radial_profile
    x = np.linspace(0.013, 9.987, 400)
    e = 1e-5
    for f, df in ((prof.q, prof.dq), (prof.dq, prof.d2q)):
        central = (f(x + e) - f(x - e)) / (2.0 * e)
        assert np.max(np.abs(df(x) - central)) <= 1e-8
    knots, below = r[1:-1], np.nextafter(r[1:-1], -np.inf)
    for f, col in ((prof.q, knots**2 + np.sin(knots)),
                   (prof.dq, 2.0 * knots + np.cos(knots)),
                   (prof.d2q, 2.0 - np.sin(knots))):
        assert np.max(np.abs(f(knots) - col)) <= 1e-13
        assert np.max(np.abs(f(below) - col)) <= 1e-11


def test_tabulated_radial_droplet_radius():
    # r q'(r) = r^2 + r^4 = 2 at r = 1
    assert abs(compute_droplet(_benchmark_table(), 1.0).radius - 1.0) <= 1e-14


def test_tabulated_radial_nu_density_closed_form():
    # q'' is the second derivative of the q column's interpolant; the finite
    # differences of subleading_density then cost digits against splining the
    # q'' column on its own (about 4.7e-8 here against 4e-10)
    drop = compute_droplet(_benchmark_table(), 1.0)
    r = np.array([0.0, 1e-3, 0.1, 0.5, 0.9])
    exact = 1.0 / (4.0 * (0.5 + r**2) ** 2)
    assert np.max(np.abs(drop.nu_density(r.astype(complex)) - exact)) <= 1e-7


@pytest.mark.parametrize("rows", [2400, 6000])
def test_tabulated_radial_fine_table_past_its_last_knot(rows):
    # fine tables ending at r = 6, short of make_custom_radial's probe
    # (r <= 10) and compute_droplet's (r <= 10 sqrt(2 tau)): past the last
    # knot q is that knot's Taylor quadratic, and the rounding of the end
    # piece's c_3 .. c_5 does not grow with (r - 6) / h
    x = np.linspace(6.0, 14.0, 801)[1:]
    r = np.linspace(0.05, 6.0, rows)
    prof = make_tabulated_radial(r, r**2, 2.0 * r, np.full_like(r, 2.0), 10.0).radial_profile
    for got, exact in zip((prof.q(x), prof.dq(x), prof.d2q(x)), (x**2, 2.0 * x, 2.0)):
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13
    r = np.linspace(0.0, 6.0, rows)
    pot = make_tabulated_radial(r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2, 10.0)
    prof, u = pot.radial_profile, x - 6.0
    taylor = (342.0 + 222.0 * u + 54.5 * u**2, 222.0 + 109.0 * u, 109.0)
    for got, exact in zip((prof.q(x), prof.dq(x), prof.d2q(x)), taylor):
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13
    assert abs(compute_droplet(pot, 1.0).radius - 1.0) <= 1e-14


@pytest.mark.parametrize("rows", [600, 6000])
def test_tabulated_radial_fine_table_below_its_first_knot(rows):
    # a quartic tabulated from r = 1 only: below the first knot the
    # interpolant still reproduces it, with no (r_0 / h)^5 growth of rounding
    r = np.linspace(1.0, 6.0, rows)
    prof = make_tabulated_radial(r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2,
                                 10.0).radial_profile
    x = np.geomspace(1e-3, 1.0, 300)
    exact = (x**2 / 2 + x**4 / 4, x + x**3, 1.0 + 3.0 * x**2)
    for got, want in zip((prof.q(x), prof.dq(x), prof.d2q(x)), exact):
        assert np.max(np.abs(got - want)) <= 1e-11


def test_radial_profile_consistency():
    for pot in (make_ginibre(), make_radial_power(3)):
        prof = pot.radial_profile
        r = np.array([0.3, 0.8, 1.7])
        for theta in np.linspace(0.0, 2 * np.pi, 9):
            z = r * np.exp(1j * theta)
            assert np.allclose(pot.evaluate(z), prof.q(r), rtol=0, atol=1e-12)


def test_laplacian_finite_difference_consistency():
    pot = make_radial_power(2)
    prof = pot.radial_profile
    r = np.linspace(0.2, 1.5, 7)
    h = 1e-4
    d2 = (prof.q(r + h) - 2 * prof.q(r) + prof.q(r - h)) / h**2
    d1 = (prof.q(r + h) - prof.q(r - h)) / (2 * h)
    assert np.allclose((d2 + d1 / r) / 4.0, pot.laplacian(r.astype(complex)), rtol=1e-5)


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0])
def test_ginibre_droplet_radius_scaling(tau):
    drop = compute_droplet(make_ginibre(), tau)
    assert drop.radius == pytest.approx(np.sqrt(tau), abs=1e-11)
    assert abs(drop.radius / np.sqrt(tau) - 1.0) <= 1e-15


def test_quartic_droplet_radius():
    drop = compute_droplet(make_radial_power(2), 1.0)
    assert drop.radius == pytest.approx(2.0 ** -0.25, abs=1e-11)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_power_droplet_radius_to_full_precision(p, tau):
    radius = compute_droplet(make_radial_power(p), tau).radius
    assert abs(radius / (tau / p) ** (1.0 / (2 * p)) - 1.0) <= 1e-15


@pytest.mark.parametrize("pot", [make_ginibre(), make_radial_power(2), spline_field()],
                         ids=lambda pot: pot.name)
def test_rdq_solve_matches_brentq(pot):
    # scipy's brentq on r q'(r) - c is the oracle for both roots the package
    # takes: the droplet radius (c = 2 tau) and the peak of the norm window's
    # integrand r^{2n-1} e^{-m q} (c = (2n - 1) / m)
    dq = pot.radial_profile.dq

    def oracle(c):
        return brentq(lambda r: r * float(dq(r)) - c, 1e-12, 4.0, xtol=1e-15, rtol=8.9e-16)

    for tau in (0.25, 1.0, 2.0):
        radius = compute_droplet(pot, tau).radius
        assert radius == pytest.approx(oracle(2.0 * tau), rel=1e-13)
    for m, n in ((16.0, 16), (32.0, 16), (64.0, 64), (4.0, 3), (1.0, 1)):
        c = (2 * n - 1) / m
        assert _solve_rdq(dq, c, 1e-12, 4.0) == pytest.approx(oracle(c), rel=1e-13)


@pytest.mark.parametrize("pot,tau", [
    (make_ginibre(), 1.0),
    (make_ginibre(), 0.25),
    (make_radial_power(2), 1.0),
    (make_radial_power(3), 0.7),
])
def test_equilibrium_mass_is_one(pot, tau):
    drop = compute_droplet(pot, tau)
    mass, _ = quad(lambda r: 2.0 * r * float(drop.equilibrium_density(complex(r))),
                   0.0, drop.radius, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_balance_equation_at_radius():
    for pot, tau in [(make_ginibre(), 0.5), (make_radial_power(2), 1.3)]:
        drop = compute_droplet(pot, tau)
        resid = drop.radius * float(pot.radial_profile.dq(drop.radius)) - 2.0 * tau
        assert abs(resid) < 1e-10


def test_nu_density_vanishes_for_power_fields():
    for pot in (make_ginibre(), make_radial_power(2)):
        drop = compute_droplet(pot, 1.0)
        z = np.linspace(0.05, 0.95 * drop.radius, 12).astype(complex)
        assert np.allclose(drop.nu_density(z), 0.0, atol=1e-12)
        outside = np.array([1.5 * drop.radius], dtype=complex)
        assert drop.nu_density(outside)[0] == 0.0


def test_custom_nu_density_finite_differences():
    # q = r^2 + r^4/4: lap Q = 1 + r^2, log lap Q = log(1+r^2),
    # (1/2) lap log(1+r^2) = (1/2) * (1/4) * lap_std = (1/8) * 4/(1+r^2)^2
    pot = make_custom_radial(
        q=lambda r: np.asarray(r) ** 2 + np.asarray(r) ** 4 / 4.0,
        dq=lambda r: 2.0 * np.asarray(r) + np.asarray(r) ** 3,
        d2q=lambda r: 2.0 + 3.0 * np.asarray(r) ** 2,
        growth_exponent=10.0,
    )
    drop = compute_droplet(pot, 1.0)
    r = np.array([0.25, 0.5, 0.75]) * drop.radius
    expected = 0.5 / (1.0 + r**2) ** 2
    assert np.allclose(drop.nu_density(r.astype(complex)), expected, rtol=1e-7)


def test_droplet_rejects_non_monotone_balance():
    # For radial fields strict subharmonicity is equivalent to r q'(r)
    # increasing (4 lap Q = (r q')'/r), so make_custom_radial cannot emit such
    # a profile; compute_droplet still guards against hand-built fields.
    from rnmlab.potential import Potential, RadialProfile

    def dq(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * r * (1.0 - 0.8 * np.exp(-4.0 * (r - 1.0) ** 2))

    profile = RadialProfile(
        q=lambda r: np.asarray(r, dtype=float) ** 2,  # inconsistent on purpose
        dq=dq,
        d2q=lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float)),
    )
    pot = Potential(name="dipped", evaluate=lambda z: np.abs(z) ** 2,
                    laplacian=lambda z: np.ones(np.asarray(z).shape),
                    gradient=lambda z: np.stack([2 * np.asarray(z).real,
                                                 2 * np.asarray(z).imag], axis=-1),
                    growth_exponent=4.0, radial_profile=profile)
    with pytest.raises(DropletGeometryError, match="unsupported droplet geometry"):
        compute_droplet(pot, 1.0)


def test_tau_must_be_below_growth_exponent():
    with pytest.raises(PotentialError):
        compute_droplet(make_ginibre(), 11.0)
