import numpy as np
import pytest

from rnmlab.potential import (DropletGeometryError, PotentialError, _solve_rdq,
                              compute_droplet, make_custom_radial,
                              make_ginibre, make_radial_power)
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import spline_field


def test_ginibre_values():
    pot = make_ginibre()
    assert pot.evaluate(1 + 1j) == pytest.approx(2.0)
    assert pot.laplacian(0.3) == pytest.approx(1.0)
    z = 0.7 * np.exp(1j * np.pi / 3)
    assert pot.analytic_extension(z, np.conj(z)) == pytest.approx(abs(z) ** 2)


def test_power_matches_ginibre_at_p1():
    pot = make_radial_power(1)
    gin = make_ginibre()
    z = np.array([0.1, 0.5 + 0.2j, -1.3j, 2.0])
    assert np.allclose(pot.evaluate(z), gin.evaluate(z))
    assert np.allclose(pot.laplacian(z), gin.laplacian(z))
    assert np.allclose(pot.gradient(z), gin.gradient(z))


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


def test_growth_margin_positive():
    for pot in (make_ginibre(), make_radial_power(2)):
        drop = compute_droplet(pot, 1.0)
        radii = np.linspace(3 * drop.radius, 10 * drop.radius, 50)
        assert np.all(pot.growth_margin(radii) > 0.0)


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
