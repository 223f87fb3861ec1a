"""External fields on the plane, their droplets and equilibrium measures.

Conventions shared by the whole package: the area measure is dA = d^2z / pi,
and ``laplacian`` always means the quarter-Laplacian  d dbar = (1/4)(d_xx + d_yy).
Only radial fields are supported natively, so every droplet is a closed disk
whose radius R solves the balance equation  R q'(R) = 2 tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class PotentialError(ValueError):
    """Field profile violates the standing assumptions (subharmonicity, growth)."""


class DropletGeometryError(ValueError):
    """Field does not produce a single disk droplet."""


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial data (q, q', q'') with Q(z) = q(|z|); callables accept arrays."""

    q: Callable
    dq: Callable
    d2q: Callable


@dataclass(frozen=True, eq=False)
class Potential:
    """An external field Q with the derivative data the rest of the code needs.

    ``subleading_closed`` is (1/2) * lap(log lap Q) when known in closed form
    (identically 0 for the power family away from the origin).
    ``subleading_atoms`` lists the point masses (point, mass) of the
    correction measure nu = (1/2) lap(log lap Q) that a density cannot carry:
    for |z|^(2p), log lap Q = const + (p - 1) log|z|^2 puts mass (p - 1)/2
    at the origin.
    """

    name: str
    evaluate: Callable
    laplacian: Callable
    gradient: Callable
    growth_exponent: float
    radial_profile: Optional[RadialProfile] = None
    subleading_closed: Optional[Callable] = None
    subleading_atoms: tuple = ()

    def subleading_density(self, z, step: Optional[float] = None):
        """(1/2) lap(log lap Q) at z; closed form if known, else central
        differences on the radial profile with Richardson extrapolation."""
        z = np.asarray(z, dtype=complex)
        if self.subleading_closed is not None:
            return self.subleading_closed(z)
        if self.radial_profile is None:
            raise PotentialError("need a radial profile for the finite-difference "
                                 "subleading term")
        r = np.abs(z)
        h = 1e-3 if step is None else step

        def log_lap(rr):
            val = self.laplacian(rr.astype(complex))
            return np.log(val)

        def quarter_lap_radial(rr, hh):
            f0 = log_lap(rr)
            fp = log_lap(rr + hh)
            fm = log_lap(rr - hh)
            d2 = (fp - 2.0 * f0 + fm) / hh**2
            d1 = (fp - fm) / (2.0 * hh)
            # f'(r)/r -> f''(0) at the origin, where f is even in r
            with np.errstate(invalid="ignore", divide="ignore"):
                return 0.25 * (d2 + np.where(rr > 0, d1 / rr, d2))

        coarse = quarter_lap_radial(r, h)
        fine = quarter_lap_radial(r, 0.5 * h)
        return 0.5 * ((4.0 * fine - coarse) / 3.0)


@dataclass(frozen=True, eq=False)
class Droplet:
    """Disk droplet of a radial field at a fixed tau, with its measures.

    ``equilibrium_density`` is the density of the equilibrium measure
    (tau^-1 * lap Q on the disk, 0 outside) and ``nu_density`` the density of
    the signed correction measure (1/2) lap(log lap Q) restricted to the disk.
    """

    tau: float
    radius: float
    equilibrium_density: Callable
    nu_density: Callable
    potential: Potential


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def make_ginibre() -> Potential:
    """Q(z) = |z|^2: quarter-Laplacian identically 1, polarization z*wbar."""
    return _power_field(1, "ginibre")


def make_radial_power(p: int) -> Potential:
    """Q(z) = |z|^(2p) for integer p >= 1; p = 1 reproduces the Ginibre field."""
    if int(p) != p or p < 1:
        raise PotentialError(f"power must be an integer >= 1, got {p!r}")
    p = int(p)
    return _power_field(p, f"power{p}")


def _power_field(p: int, name: str) -> Potential:
    """Q(z) = |z|^(2p) under the given name.  Neither public factory calls the
    other, so a wrapper around one of them never runs inside the other."""

    def evaluate(z):
        z = _as_complex(z)
        return np.abs(z) ** (2 * p)

    def lap(z):
        z = _as_complex(z)
        return p**2 * np.abs(z) ** (2 * p - 2)

    def gradient(z):
        z = _as_complex(z)
        r = np.abs(z)
        # d/dx |z|^{2p} = 2p |z|^{2p-2} x, likewise for y
        fac = 2.0 * p * r ** (2 * p - 2)
        return np.stack([fac * z.real, fac * z.imag], axis=-1)

    profile = RadialProfile(
        q=lambda r: np.asarray(r, dtype=float) ** (2 * p),
        dq=lambda r: 2.0 * p * np.asarray(r, dtype=float) ** (2 * p - 1),
        d2q=lambda r: 2.0 * p * (2 * p - 1) * np.asarray(r, dtype=float) ** (2 * p - 2),
    )
    return Potential(
        name=name,
        evaluate=evaluate,
        laplacian=lap,
        gradient=gradient,
        growth_exponent=4.0,
        radial_profile=profile,
        # log lap Q = const + (p-1) log|z|^2 is harmonic away from the origin,
        # and (1/2) lap of (p-1) log|z|^2 is mass (p-1)/2 at 0 (dA = d^2z/pi)
        subleading_closed=lambda z: np.zeros(np.asarray(z).shape, dtype=float),
        subleading_atoms=((0j, 0.5 * (p - 1)),) if p > 1 else (),
    )


_PROBE_RADII = np.geomspace(1e-3, 10.0, 400)


def make_custom_radial(q, dq, d2q, growth_exponent: float, name: str = "custom") -> Potential:
    """Field from a user-supplied radial profile, with the subleading term by
    finite differences.

    Rejects profiles whose quarter-Laplacian (q'' + q'/r)/4 is not strictly
    positive on the probe annulus 1e-3 <= r <= 10, reporting the offending
    radius.
    """
    profile = RadialProfile(q=q, dq=dq, d2q=d2q)

    def lap_radial(r):
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, 1e-300)
        return 0.25 * (np.asarray(d2q(rr), dtype=float) + np.asarray(dq(rr), dtype=float) / rr)

    vals = lap_radial(_PROBE_RADII)
    bad = np.where(vals <= 0.0)[0]
    if bad.size:
        raise PotentialError(
            "profile is not strictly subharmonic: quarter-Laplacian "
            f"{vals[bad[0]]:.3e} <= 0 at r = {_PROBE_RADII[bad[0]]:.6g}"
        )

    def evaluate(z):
        z = _as_complex(z)
        return np.asarray(q(np.abs(z)), dtype=float)

    def lap(z):
        z = _as_complex(z)
        return lap_radial(np.abs(z))

    def gradient(z):
        z = _as_complex(z)
        r = np.maximum(np.abs(z), 1e-300)
        fac = np.asarray(dq(r), dtype=float) / r
        return np.stack([fac * z.real, fac * z.imag], axis=-1)

    return Potential(
        name=name,
        evaluate=evaluate,
        laplacian=lap,
        gradient=gradient,
        growth_exponent=float(growth_exponent),
        radial_profile=profile,
    )


def make_tabulated_radial(r, q, dq, d2q, growth_exponent: float,
                          name: str = "custom") -> Potential:
    """Field from a radial profile tabulated at knots r: the C^2 piecewise
    quintic Hermite interpolant of (q, q', q'') with ``make_custom_radial``'s
    checks.

    On [r_j, r_{j+1}], with h = r_{j+1} - r_j and t = (r - r_j) / h, q is the
    quintic sum_k c_k t^k that matches q, q' and q'' at both knots, so it
    reproduces polynomials up to degree 5, and the field's q' and q'' are the
    derivatives of that q.  Below r_0, q is the same rule's quintic between
    r_0 and a knot at least r_0 further out, so it still reproduces degree 5
    down to r = 0; beyond the last knot it is that knot's Taylor quadratic.
    Neither extension carries the high coefficients of a narrow end piece
    far past its knot, where their rounding would grow like (distance / h)^5.
    Rejects tables with fewer than 2 rows, a non-finite entry or radii that
    are not strictly increasing.
    """
    r, q, dq, d2q = (np.asarray(col, dtype=float) for col in (r, q, dq, d2q))
    if r.ndim != 1 or any(col.shape != r.shape for col in (q, dq, d2q)):
        raise PotentialError("profile columns r, q, q', q'' must be 1-d and of equal length")
    if r.size < 2:
        raise PotentialError(f"profile table needs at least 2 rows, got {r.size}")
    for label, col in (("r", r), ("q", q), ("q'", dq), ("q''", d2q)):
        if not np.all(np.isfinite(col)):
            bad = int(np.argmin(np.isfinite(col)))
            raise PotentialError(f"profile table has a non-finite {label} in row {bad + 1}")
    h = np.diff(r)
    if not np.all(h > 0.0):
        bad = int(np.argmin(h > 0.0))
        raise PotentialError("profile radii must be strictly increasing: "
                             f"r = {r[bad + 1]!r} follows r = {r[bad]!r}")

    # pieces: below r_0, the piece from r_0 to the first knot r_m with
    # r_m >= 2 r_0 (the last knot if the table stops short of 2 r_0), so
    # every radius r >= 0 lies at t >= -1 and the rounding of c_3 .. c_5 is
    # not amplified; then one piece per interval; from r_{k-1} on, the last
    # knot's Taylor quadratic.  searchsorted on the knots picks the piece
    # directly: 0 below r_0, j + 1 on [r_j, r_{j+1}), k from r_{k-1} on
    m = min(max(int(np.searchsorted(r, 2.0 * r[0])), 1), r.size - 1)
    lo = np.append(0, np.arange(r.size - 1))
    hi = np.append(m, np.arange(1, r.size))
    h = r[hi] - r[lo]
    c0, c1, c2 = q[lo], h * dq[lo], 0.5 * h**2 * d2q[lo]
    y = q[hi] - (c0 + c1 + c2)
    d = h * dq[hi] - (c1 + 2.0 * c2)
    s = h**2 * d2q[hi] - 2.0 * c2
    coef = [np.append(ck, end) for ck, end in zip(
        (c0, c1, c2, 10.0 * y - 4.0 * d + 0.5 * s, -15.0 * y + 7.0 * d - s,
         6.0 * y - 3.0 * d + 0.5 * s),
        (q[-1], dq[-1], 0.5 * d2q[-1], 0.0, 0.0, 0.0))]
    # the Taylor piece has h = 1, so its t is r - r_{k-1}
    left, h = np.append(r[lo], r[-1]), np.append(h, 1.0)

    def derivative(order):
        # one column per piece: the t-coefficients of d^order q / dr^order,
        # highest degree first, then the piece's left knot and 1/h
        table = np.stack([math.perm(k, order) * coef[k] / h**order
                          for k in range(5, order - 1, -1)] + [left, 1.0 / h])

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            c = table[:, np.searchsorted(r, x, side="right")]
            t = (x - c[-2]) * c[-1]
            out = c[0]
            for ck in c[1:-2]:
                out = out * t + ck
            return out

        return evaluate

    return make_custom_radial(derivative(0), derivative(1), derivative(2),
                              growth_exponent, name=name)


def _solve_rdq(dq, c: float, lo: float, hi: float) -> float:
    """The smallest double r in (lo, hi] with r q'(r) >= c, by bisection to
    adjacent doubles; r q'(r) must be increasing, below c at lo and not below
    it at hi."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if mid * float(dq(mid)) < c else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


def compute_droplet(pot: Potential, tau: float) -> Droplet:
    """Disk droplet: radius solves r q'(r) = 2 tau, to adjacent doubles.

    Requires a radial profile with r q'(r) strictly increasing where probed
    (this is what guarantees the droplet is a disk).
    """
    if pot.radial_profile is None:
        raise DropletGeometryError("droplet computation needs a radial profile")
    if not (0.0 < tau < pot.growth_exponent):
        raise PotentialError(f"tau must lie in (0, growth_exponent), got {tau}")
    dq = pot.radial_profile.dq

    r_max = 10.0 * np.sqrt(2.0 * tau)
    while r_max * float(dq(r_max)) <= 2.0 * tau:
        r_max *= 2.0
        if r_max > 1e6:
            raise PotentialError(
                f"no droplet radius in (0, 1e6): r q'(r) never reaches 2 tau = {2*tau}")

    probe = np.linspace(1e-6, r_max, 512)
    f_probe = probe * np.asarray(dq(probe), dtype=float)
    scale = np.max(np.abs(f_probe))
    if np.any(np.diff(f_probe) < -1e-10 * scale):
        i = int(np.argmax(np.diff(f_probe) < -1e-10 * scale))
        raise DropletGeometryError(
            f"unsupported droplet geometry: r q'(r) decreases near r = {probe[i]:.4g}")

    radius = _solve_rdq(dq, 2.0 * tau, 1e-9, r_max)

    lap_probe = pot.laplacian(np.linspace(0.25 * radius, 2.0 * radius, 257).astype(complex))
    if np.any(np.asarray(lap_probe) <= 0.0):
        raise PotentialError("quarter-Laplacian is not positive on the working annulus")

    def equilibrium_density(z):
        z = _as_complex(z)
        inside = np.abs(z) <= radius
        return np.where(inside, pot.laplacian(z) / tau, 0.0)

    fd_step = 1e-3 * radius

    def nu_density(z):
        z = _as_complex(z)
        inside = np.abs(z) <= radius
        vals = pot.subleading_density(z, step=fd_step)
        return np.where(inside, vals, 0.0)

    return Droplet(tau=float(tau), radius=radius,
                   equilibrium_density=equilibrium_density,
                   nu_density=nu_density, potential=pot)
