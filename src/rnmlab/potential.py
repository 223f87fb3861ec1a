"""External fields on the plane, their droplets and equilibrium measures.

Conventions shared by the whole package: the area measure is dA = d^2z / pi,
and ``laplacian`` always means the quarter-Laplacian  d dbar = (1/4)(d_xx + d_yy).
Only radial fields are supported natively, so every droplet is a closed disk
whose radius R solves the balance equation  R q'(R) = 2 tau.
"""

from __future__ import annotations

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

    ``analytic_extension`` is the polarization psi(z, wbar) with
    psi(z, conj(z)) = Q(z), available for fields with a closed form (e.g.
    (z*wbar)^p).  ``polarized_laplacian`` extends the quarter-Laplacian the
    same way; ``subleading_closed`` is (1/2) * lap(log lap Q) when known in
    closed form (identically 0 for the power family away from the origin).
    """

    name: str
    evaluate: Callable
    laplacian: Callable
    gradient: Callable
    growth_exponent: float
    radial_profile: Optional[RadialProfile] = None
    analytic_extension: Optional[Callable] = None
    polarized_laplacian: Optional[Callable] = None
    polarized_subleading: Optional[Callable] = None
    subleading_closed: Optional[Callable] = None

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

    def growth_margin(self, radii):
        """Q(r) - rho*log r^2 on a radial grid; positive where growth holds."""
        r = np.asarray(radii, dtype=float)
        return self.evaluate(r.astype(complex)) - self.growth_exponent * np.log(r**2)


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

    def evaluate(z):
        z = _as_complex(z)
        return np.abs(z) ** 2

    def lap(z):
        z = _as_complex(z)
        return np.ones(z.shape, dtype=float) if z.shape else np.float64(1.0)

    def gradient(z):
        z = _as_complex(z)
        return np.stack([2.0 * z.real, 2.0 * z.imag], axis=-1)

    profile = RadialProfile(
        q=lambda r: np.asarray(r, dtype=float) ** 2,
        dq=lambda r: 2.0 * np.asarray(r, dtype=float),
        d2q=lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float)),
    )
    return Potential(
        name="ginibre",
        evaluate=evaluate,
        laplacian=lap,
        gradient=gradient,
        growth_exponent=4.0,
        radial_profile=profile,
        analytic_extension=lambda z, wbar: _as_complex(z) * _as_complex(wbar),
        polarized_laplacian=lambda z, wbar: np.ones_like(_as_complex(z) * _as_complex(wbar), dtype=complex),
        polarized_subleading=lambda z, wbar: np.zeros_like(_as_complex(z) * _as_complex(wbar), dtype=complex),
        subleading_closed=lambda z: np.zeros(np.asarray(z).shape, dtype=float),
    )


def make_radial_power(p: int) -> Potential:
    """Q(z) = |z|^(2p) for integer p >= 1; p = 1 reproduces the Ginibre field."""
    if int(p) != p or p < 1:
        raise PotentialError(f"power must be an integer >= 1, got {p!r}")
    p = int(p)

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
        name=f"power{p}",
        evaluate=evaluate,
        laplacian=lap,
        gradient=gradient,
        growth_exponent=4.0,
        radial_profile=profile,
        analytic_extension=lambda z, wbar: (_as_complex(z) * _as_complex(wbar)) ** p,
        polarized_laplacian=lambda z, wbar: p**2 * (_as_complex(z) * _as_complex(wbar)) ** (p - 1),
        polarized_subleading=lambda z, wbar: np.zeros_like(_as_complex(z) * _as_complex(wbar), dtype=complex),
        # log lap Q = const + (p-1) log|z|^2 is harmonic away from the origin
        subleading_closed=lambda z: np.zeros(np.asarray(z).shape, dtype=float),
    )


_PROBE_RADII = np.geomspace(1e-3, 10.0, 400)


def make_custom_radial(q, dq, d2q, growth_exponent: float, name: str = "custom") -> Potential:
    """Field from a user-supplied radial profile; no analytic extension.

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
