"""Berezin kernels and transforms of the determinantal ensemble, the
conditional (one eigenvalue pinned) process, the wave-function measure of the
top polynomial, exterior harmonic-measure profiles, and the bulk scaling
limit with kernel  exp(z conj(w) - (|z|^2 + |w|^2)/2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .orthopoly import (OrthonormalBasis, QuadratureGrid, WeightedKernel,
                        _shifted_phase_sum, default_grid, radial_norms,
                        weighted_kernel)
from .potential import Potential, compute_droplet, make_ginibre


class AnchorError(ValueError):
    """Berezin anchor placed where the evaluation is not meaningful."""


@dataclass(frozen=True, eq=False)
class BerezinKernel:
    """Probability density w -> |K(z0,w)|^2 e^{-m(Q(z0)+Q(w))} / R1(z0)."""

    anchor: complex
    kernel: WeightedKernel
    log_r1_anchor: float

    def log_density(self, w):
        logabs, _ = self.kernel.log_weighted(self.anchor, np.asarray(w, dtype=complex))
        return 2.0 * logabs - self.log_r1_anchor

    def density(self, w):
        return np.exp(self.log_density(w))

    def density_grid(self, radii, thetas) -> np.ndarray:
        """Density on the product grid radii x thetas, shape (n_r, n_theta).

        The anchored kernel factorizes into a (radius x mode) @ (mode x angle)
        product, which is far cheaper than point-wise evaluation on large
        grids.
        """
        radii = np.asarray(radii, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        kern = self.kernel
        k = np.arange(kern.n)
        th0 = np.angle(self.anchor) if self.anchor != 0 else 0.0
        logmag = kern.log_modes(self.anchor) + kern.log_modes(radii)
        shift = np.max(logmag, axis=1)
        P = np.exp(logmag - shift[:, None])
        E = np.exp(1j * k[:, None] * (th0 - thetas)[None, :])
        S = P @ E
        return np.abs(S) ** 2 * np.exp(2.0 * shift - self.log_r1_anchor)[:, None]

    def mass(self, grid: QuadratureGrid) -> float:
        return float(grid.integrate(self.density_grid(grid.radial_nodes, grid.thetas)))


def _berezin_kernel_unchecked(kern: WeightedKernel, z0: complex) -> BerezinKernel:
    log_r1 = float(kern.log_one_point(complex(z0)))
    return BerezinKernel(anchor=complex(z0), kernel=kern, log_r1_anchor=log_r1)


def berezin_kernel(kern: WeightedKernel, z0: complex) -> BerezinKernel:
    bk = _berezin_kernel_unchecked(kern, z0)
    if bk.log_r1_anchor < np.log(1e-300):
        raise AnchorError(
            f"one-point density underflows at anchor {z0}; inspect log-domain "
            "diagnostics (e.g. the angular-marginal profile) instead")
    return bk


def berezin_density(kern: WeightedKernel, z0: complex, w) -> float:
    """Density of the Berezin measure attached to the anchor z0 at w."""
    out = berezin_kernel(kern, z0).density(w)
    return float(out) if np.ndim(out) == 0 else out


class BerezinTransformResult(NamedTuple):
    value: float
    expansion_residual: float
    correction: float


def berezin_transform(kern: WeightedKernel, f, z0: complex,
                      grid: Optional[QuadratureGrid] = None) -> BerezinTransformResult:
    """B f(z0) = int f(w) B^{z0}(w) dA(w) by quadrature, together with the
    residual of the first-order expansion  B f = f + lap f / (m lap Q):
    residual = m (B f(z0) - f(z0)) - lap f(z0) / lap Q(z0), quarter-Laplacian
    on both sides."""
    if grid is None:
        grid = default_grid(kern.potential, kern.m, kern.n)
    bk = berezin_kernel(kern, z0)
    dens = bk.density_grid(grid.radial_nodes, grid.thetas)
    vals = np.asarray(np.real(f.value(grid.nodes)), dtype=float)
    value = float(grid.integrate(vals * dens.ravel()))
    z0c = complex(z0)
    quarter_lap_f = 0.25 * float(np.real(f.laplacian_std(z0c)))
    correction = quarter_lap_f / float(kern.potential.laplacian(z0c))
    f0 = float(np.real(f.value(z0c)))
    residual = kern.m * (value - f0) - correction
    return BerezinTransformResult(value=value, expansion_residual=residual,
                                  correction=correction)


# ---------------------------------------------------------------------------
# conditional (pinned) ensemble, radial anchor at the origin


def conditional_basis(pot: Potential, n: int) -> OrthonormalBasis:
    """Basis of the (n-1)-point process conditioned on an eigenvalue at the
    origin: weight |z|^2 e^{-nQ}, whose monomial norms are the base norms
    shifted by one degree."""
    base = radial_norms(pot, float(n), n)
    return OrthonormalBasis(m=float(n), n=n - 1, potential=pot,
                            log_norms=base.log_norms[1:].copy())


def conditional_one_point(pot: Potential, n: int, z) -> np.ndarray:
    """One-point density of the conditioned (n-1)-point process,
    sum_{k<=n-2} |z|^{2(k+1)} e^{-nQ} / h_{k+1}: modes 1..n-1 of the
    n-point kernel.  At n = 1 the pinned process is empty and the density 0."""
    kern = weighted_kernel(pot, float(n), n)
    if n == 1:
        return np.zeros(np.shape(z))
    L, s = _shifted_phase_sum(2.0 * kern.log_modes(z)[..., 1:])
    return np.exp(L) * s


def conditional_identity_check(pot: Potential, n: int,
                               grid: Optional[QuadratureGrid] = None) -> float:
    """Max-grid residual of the pinned-process identity
    B^{<0>}(z) = R1_n(z) - R1tilde_{n-1}(z)  for a radial field, anchor 0."""
    kern = weighted_kernel(pot, float(n), n)
    if grid is None:
        grid = default_grid(pot, float(n), n)
    bk = berezin_kernel(kern, 0.0)
    lhs = bk.density(grid.nodes)
    rhs = kern.one_point(grid.nodes) - conditional_one_point(pot, n, grid.nodes)
    return float(np.max(np.abs(lhs - rhs)))


def conditional_expectation_identity(pot: Potential, n: int, f,
                                     grid: Optional[QuadratureGrid] = None) -> float:
    """Residual of  B f(0) = E_n(trace f) - E_{n-1}^{<0>}(trace f), both sides
    by quadrature from the two one-point densities."""
    kern = weighted_kernel(pot, float(n), n)
    if grid is None:
        grid = default_grid(pot, float(n), n)
    lhs = berezin_transform(kern, f, 0.0, grid).value
    vals = np.asarray(np.real(f.value(grid.nodes)), dtype=float)
    e_n = float(np.real(grid.integrate(vals * kern.one_point(grid.nodes))))
    e_cond = float(np.real(grid.integrate(vals * conditional_one_point(pot, n, grid.nodes))))
    return abs(lhs - (e_n - e_cond))


# ---------------------------------------------------------------------------
# wave-function measure of the top polynomial


class WavefunctionProfile(NamedTuple):
    total_mass: float
    ring_mass: float
    ring_halfwidth: float
    droplet_radius: float
    angular_uniformity: float


def wavefunction_measure(pot: Potential, n: int,
                         ring_halfwidth: float = 0.1) -> WavefunctionProfile:
    """The probability density |p_{n-1}(z)|^2 e^{-nQ(z)} of the top
    orthonormal polynomial for weight e^{-nQ}: total mass, mass in the ring
    | |z| - R | < halfwidth, and the angular uniformity defect (identically 0
    for radial fields, where the density is radial)."""
    from scipy.integrate import quad
    kern = weighted_kernel(pot, float(n), n)
    radius = compute_droplet(pot, 1.0).radius

    def density_r(r):
        # radial density of the measure in r (includes the 2r of dA)
        return 2.0 * r * np.exp(2.0 * kern.log_modes(r)[n - 1])

    lo = max(radius - ring_halfwidth, 0.0)
    hi = radius + ring_halfwidth
    total, _ = quad(density_r, 0.0, max(4.0 * radius, hi * 1.5),
                    points=[radius], limit=200)
    ring, _ = quad(density_r, lo, hi, limit=200)
    return WavefunctionProfile(total_mass=float(total), ring_mass=float(ring),
                               ring_halfwidth=ring_halfwidth,
                               droplet_radius=radius, angular_uniformity=0.0)


# ---------------------------------------------------------------------------
# exterior anchors and harmonic measure


class HarmonicMeasureCheck(NamedTuple):
    l1_distance: float
    mass_outside: float
    outside_radius: float
    thetas: np.ndarray
    marginal: np.ndarray
    poisson: np.ndarray


def exterior_poisson_density(z0: complex, radius: float, thetas) -> np.ndarray:
    """Harmonic measure density (w.r.t. d theta) of the disk complement seen
    from the exterior point z0: (|z0|^2 - R^2) / (2 pi |z0 - R e^{i theta}|^2)."""
    z0 = complex(z0)
    th = np.asarray(thetas, dtype=float)
    return (abs(z0) ** 2 - radius**2) / (2.0 * np.pi *
                                         np.abs(z0 - radius * np.exp(1j * th)) ** 2)


def exterior_harmonic_measure_check(kern: WeightedKernel,
                                    z0: complex) -> HarmonicMeasureCheck:
    """Angular marginal of the Berezin measure at an exterior anchor against
    the exterior Poisson kernel of the droplet disk (L1 on a 512-angle circle
    grid), plus the mass beyond 1.1 R (which must vanish as n grows: the
    finite-n ring straddles the boundary, so the margin excludes it)."""
    pot = kern.potential
    radius = compute_droplet(pot, kern.n / kern.m).radius
    if abs(z0) <= 1.1 * radius - 1e-12:
        raise AnchorError(f"exterior anchor must satisfy |z0| > 1.1 R = {1.1*radius:.4g}")
    grid = default_grid(pot, kern.m, kern.n, n_theta=512)
    r = grid.radial_nodes
    wr = grid.radial_weights
    thetas = grid.thetas

    # far anchors legitimately underflow R1 itself; the density ratio stays
    # representable in the log domain, so skip the point-wise guard here
    bk = _berezin_kernel_unchecked(kern, z0)
    dens = bk.density_grid(r, thetas)

    marginal = (wr * r) @ dens / np.pi  # density w.r.t. d theta
    poisson = exterior_poisson_density(z0, radius, thetas)
    dtheta = 2.0 * np.pi / grid.n_theta
    l1 = float(np.sum(np.abs(marginal - poisson)) * dtheta)
    outside_radius = 1.1 * radius
    outside = r > outside_radius
    mass_outside = float(np.sum((wr[outside] * r[outside]) @ dens[outside]) * dtheta / np.pi)
    return HarmonicMeasureCheck(l1_distance=l1, mass_outside=mass_outside,
                                outside_radius=outside_radius,
                                thetas=thetas, marginal=marginal, poisson=poisson)


# ---------------------------------------------------------------------------
# bulk scaling limit


def limit_kernel_modulus(z, w) -> np.ndarray:
    """|exp(z conj(w) - (|z|^2 + |w|^2)/2)| = exp(-|z - w|^2 / 2)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.exp(-0.5 * np.abs(z - w) ** 2)


def rescaled_kernel(kern: WeightedKernel, z0: complex, z, w):
    """Kernel of the process rescaled about the bulk anchor z0 by
    sqrt(n lap Q(z0)):  k_n(z, w) = K_w(z0 + z/s, w0 + w/s) / (n lap Q(z0)).

    Only |k_n| is canonical (cocycle phases drop out of all determinants);
    compare moduli against exp(-|z-w|^2/2).
    """
    z0 = complex(z0)
    lap0 = float(kern.potential.laplacian(z0))
    radius = compute_droplet(kern.potential, kern.n / kern.m).radius
    scale = np.sqrt(kern.n * lap0)
    if radius - abs(z0) < 9.0 / scale:
        warnings.warn(f"anchor {z0} is within 9/sqrt(n lap Q) of the droplet "
                      "boundary; the bulk limit degrades there", RuntimeWarning)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return kern.weighted(z0 + z / scale, z0 + w / scale) / (kern.n * lap0)


class ConditionedProfile(NamedTuple):
    distances: np.ndarray
    values: np.ndarray
    prediction: np.ndarray


def conditioned_onepoint_profile(n: int, z0: complex = 0.0,
                                 distances: Optional[Sequence[float]] = None) -> ConditionedProfile:
    """Rescaled one-point density of the |z|^2 ensemble conditioned on an
    eigenvalue at the bulk anchor, versus the limit 1 - exp(-|z - z0|^2).

    Uses the pinned-process identity: the conditioned rescaled one-point
    function is (R1 - Berezin density)/n evaluated at z0 + s/sqrt(n).
    """
    if distances is None:
        distances = np.linspace(0.0, 3.0, 31)
    distances = np.asarray(distances, dtype=float)
    pot = make_ginibre()
    kern = weighted_kernel(pot, float(n), n)
    bk = berezin_kernel(kern, complex(z0))
    pts = complex(z0) + distances / np.sqrt(n)
    values = (kern.one_point(pts) - bk.density(pts)) / n
    return ConditionedProfile(distances=distances, values=np.asarray(values),
                              prediction=1.0 - np.exp(-distances**2))
