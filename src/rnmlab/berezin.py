"""Berezin kernels and transforms of the determinantal ensemble, the
conditional (one eigenvalue pinned) process, the wave-function measure of the
top polynomial, exterior harmonic-measure profiles, and the bulk scaling
limit with kernel  exp(z conj(w) - (|z|^2 + |w|^2)/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .orthopoly import (_PANELS, OrthonormalBasis, QuadratureGrid, WeightedKernel,
                        _panel_rule, _shifted_phase_sum, default_grid, radial_norms,
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

    def density(self, w):
        logabs, _ = self.kernel.log_weighted(self.anchor, np.asarray(w, dtype=complex))
        return np.exp(2.0 * logabs - self.log_r1_anchor)

    def _ring_modes(self, radii, n_theta: int):
        """Ring r's angular profile as Fourier coefficients: the density at
        angle 2 pi t / n_theta is |sum_j a[r, j] e^{-2 pi i j t / n_theta}|^2
        scale[r].  a[r, k] = P[r, k] e^{i k theta0}, with P the anchored
        kernel's modes over their ring maximum; modes beyond n_theta fold
        onto k mod n_theta, the grid's own aliasing."""
        kern = self.kernel
        k = np.arange(kern.n)
        th0 = np.angle(self.anchor) if self.anchor != 0 else 0.0
        logmag = kern.log_modes(self.anchor) + kern.log_modes(np.asarray(radii, dtype=float))
        shift = np.max(logmag, axis=1)
        a = np.exp(logmag - shift[:, None]) * np.exp(1j * k * th0)
        if kern.n > n_theta:
            a = np.pad(a, ((0, 0), (0, -kern.n % n_theta)))
            a = a.reshape(a.shape[0], -1, n_theta).sum(axis=1)
        return a, np.exp(2.0 * shift - self.log_r1_anchor)

    def density_grid(self, radii, n_theta: int) -> np.ndarray:
        """Density on the product grid radii x (n_theta uniform angles
        2 pi t / n_theta), shape (n_r, n_theta): one FFT of length n_theta
        per ring."""
        a, scale = self._ring_modes(radii, n_theta)
        return np.abs(np.fft.fft(a, n=n_theta, axis=1)) ** 2 * scale[:, None]

    def mass(self, grid: QuadratureGrid) -> float:
        """Grid mass of the density, at no angle: by Parseval each ring's
        angular mean is sum_j |a[r, j]|^2 scale[r], so the node sum is
        ``ring_weights`` against those means."""
        a, scale = self._ring_modes(grid.radial_nodes, grid.n_theta)
        return float(grid.ring_weights @ (np.sum(np.abs(a) ** 2, axis=1) * scale))


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


class BerezinTransformResult(NamedTuple):
    value: float
    expansion_residual: float
    correction: float


def berezin_transform(kern: WeightedKernel, f, z0: complex,
                      grid: Optional[QuadratureGrid] = None) -> BerezinTransformResult:
    """B f(z0) = int f(w) B^{z0}(w) dA(w) by quadrature, together with the
    residual of the first-order expansion  B f = f + lap f / (m lap Q):
    residual = m (B f(z0) - f(z0)) - lap f(z0) / lap Q(z0), quarter-Laplacian
    on both sides.  The quadrature runs block by block (``ring_blocks``): f
    times ``density_grid`` on a block's rings, averaged over each ring, then
    ``ring_weights`` against those means.  The expansion needs lap Q(z0) > 0:
    an anchor where it vanishes (the origin of a power field) raises
    AnchorError."""
    z0c = complex(z0)
    lap_q = float(kern.potential.laplacian(z0c))
    if not lap_q > 0.0:
        raise AnchorError(f"lap Q({z0c}) = {lap_q:.3g}: the expansion "
                          "B f = f + lap f / (m lap Q) needs lap Q > 0 at the anchor")
    if grid is None:
        grid = default_grid(kern.potential, kern.m, kern.n)
    bk = berezin_kernel(kern, z0)
    r = grid.radial_nodes
    means = [np.mean(np.real(f.value(z)) * bk.density_grid(r[rings], grid.n_theta), axis=1)
             for rings, z in grid.ring_blocks()]
    value = float(grid.ring_weights @ np.concatenate(means))
    quarter_lap_f = 0.25 * float(np.real(f.laplacian_std(z0c)))
    correction = quarter_lap_f / lap_q
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
                            log_norms=base.log_norms[1:].copy(), r_cut=base.r_cut)


def _pinned_one_point(kern: WeightedKernel, z) -> np.ndarray:
    """Modes 1..n-1 of the one-point sum of kern; 0 when n = 1."""
    if kern.n == 1:
        return np.zeros(np.shape(z))
    L, s = _shifted_phase_sum(2.0 * kern.log_modes(z)[..., 1:])
    return np.exp(L) * s


def conditional_one_point(pot: Potential, n: int, z) -> np.ndarray:
    """One-point density of the conditioned (n-1)-point process,
    sum_{k<=n-2} |z|^{2(k+1)} e^{-nQ} / h_{k+1}: modes 1..n-1 of the
    n-point kernel.  At n = 1 the pinned process is empty and the density 0."""
    return _pinned_one_point(weighted_kernel(pot, float(n), n), z)


def _pinned_densities(pot: Potential, n: int, grid: Optional[QuadratureGrid]):
    """The grid (``default_grid`` if None) and B^{<0>}, R1_n and
    R1tilde_{n-1} on its radial nodes, all three from one n-point kernel."""
    kern = weighted_kernel(pot, float(n), n)
    if grid is None:
        grid = default_grid(pot, float(n), n)
    r = grid.radial_nodes
    return (grid, berezin_kernel(kern, 0.0).density(r), kern.one_point(r),
            _pinned_one_point(kern, r))


def conditional_identity_check(pot: Potential, n: int,
                               grid: Optional[QuadratureGrid] = None) -> float:
    """Max-grid residual of the pinned-process identity
    B^{<0>}(z) = R1_n(z) - R1tilde_{n-1}(z)  for a radial field, anchor 0.

    With the anchor at 0 all three densities depend on |z| alone, so the max
    over the grid nodes is the max over the radial nodes, up to the rounding
    of |r e^{i theta}|: one evaluation per ring, not per node."""
    _, b0, r1, r1_pinned = _pinned_densities(pot, n, grid)
    return float(np.max(np.abs(b0 - (r1 - r1_pinned))))


def conditional_expectation_identity(pot: Potential, n: int, f,
                                     grid: Optional[QuadratureGrid] = None) -> float:
    """Residual of  B f(0) = E_n(trace f) - E_{n-1}^{<0>}(trace f), all three
    the grid integral of f against a density: B^{<0>}, R1_n, R1tilde_{n-1}.

    The densities are radial and every node of a ring has the same weight,
    so each grid integral is exactly the dot product of the radial density
    with f's ring integrals, ``ring_weights`` times ``ring_means`` of f, which
    need not be radial.
    """
    grid, b0, r1, r1_pinned = _pinned_densities(pot, n, grid)
    f_rings = grid.ring_weights * grid.ring_means(
        lambda z: np.asarray(np.real(f.value(z)), dtype=float))
    return abs(float(f_rings @ b0) - (float(f_rings @ r1) - float(f_rings @ r1_pinned)))


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
    for radial fields, where the density is radial).

    Both masses are composite Gauss-Legendre sums (``_panel_rule``) of the
    radial density.  The total takes the 8-node rule on the _PANELS panels of
    [0, r_cut] that ``RadialLaw`` uses; the norm h_{n-1} came from the
    16-node rule, so a total of 1 checks one rule against the other.  The
    ring takes the 16-node rule on panels of that width or narrower.
    """
    kern = weighted_kernel(pot, float(n), n)
    radius = compute_droplet(pot, 1.0).radius
    window = kern.basis.r_cut

    def mass(a, b, panels, order):
        # the density in r includes the 2r of dA
        r, w = _panel_rule(a, b, panels, order)
        return float(w @ (2.0 * r * np.exp(2.0 * kern.log_modes(r)[:, n - 1])))

    total = mass(0.0, window, _PANELS, 8)
    lo = max(radius - ring_halfwidth, 0.0)
    hi = radius + ring_halfwidth
    ring = mass(lo, hi, max(1, math.ceil(_PANELS * (hi - lo) / window)), 16)
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
    rw = grid.ring_weights / (2.0 * np.pi)  # ring weights per unit angle
    thetas = grid.thetas

    # far anchors legitimately underflow R1 itself; the density ratio stays
    # representable in the log domain, so skip the point-wise guard here
    bk = _berezin_kernel_unchecked(kern, z0)
    dens = bk.density_grid(r, grid.n_theta)

    marginal = rw @ dens  # density w.r.t. d theta
    poisson = exterior_poisson_density(z0, radius, thetas)
    dtheta = 2.0 * np.pi / grid.n_theta
    l1 = float(np.sum(np.abs(marginal - poisson)) * dtheta)
    outside_radius = 1.1 * radius
    outside = r > outside_radius
    mass_outside = float(np.sum(rw[outside] @ dens[outside]) * dtheta)
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
    compare moduli against exp(-|z-w|^2/2).  The rescaling needs lap Q(z0) > 0:
    an anchor where it vanishes (the origin of a power field) raises AnchorError.
    """
    z0 = complex(z0)
    lap0 = float(kern.potential.laplacian(z0))
    if not lap0 > 0.0:
        raise AnchorError(f"lap Q({z0}) = {lap0:.3g}: the rescaling by "
                          "sqrt(n lap Q) needs lap Q > 0 at the anchor")
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


def conditioned_onepoint_profile(n: int, z0: complex = 0.0) -> ConditionedProfile:
    """Rescaled one-point density of the |z|^2 ensemble conditioned on an
    eigenvalue at the bulk anchor, versus the limit 1 - exp(-|z - z0|^2), at
    the distances s = 0, 0.1, ..., 3.

    Uses the pinned-process identity: the conditioned rescaled one-point
    function is (R1 - Berezin density)/n evaluated at z0 + s/sqrt(n).
    """
    distances = np.linspace(0.0, 3.0, 31)
    pot = make_ginibre()
    kern = weighted_kernel(pot, float(n), n)
    bk = berezin_kernel(kern, complex(z0))
    pts = complex(z0) + distances / np.sqrt(n)
    values = (kern.one_point(pts) - bk.density(pts)) / n
    return ConditionedProfile(distances=distances, values=np.asarray(values),
                              prediction=1.0 - np.exp(-distances**2))
