"""Orthonormal polynomial bases for planar weights e^{-mQ} and the
associated weighted reproducing kernels.

All kernel arithmetic runs in log-magnitude + phase form, so the
exponentially large intermediate factors appearing at m >= 64 never
overflow; only the (bounded) weighted combinations are exponentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss as _leggauss_uncached

from .potential import Potential, _solve_rdq, compute_droplet


class DivergentNormError(ValueError):
    """Monomial norm integral diverges: the n/m window exceeds the growth rate."""


class UnsupportedPotentialError(ValueError):
    """Operation needs field data (radial profile, polarization) that is absent."""


class GridResolutionError(ValueError):
    """Quadrature grid too coarse to represent the kernel faithfully."""


@lru_cache(maxsize=32)
def leggauss(n: int):
    return _leggauss_uncached(n)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product grid implementing integration against dA = d^2z / pi.

    Radial direction: Gauss-Legendre on [0, r_cut].  Angular direction:
    n_theta uniform nodes, which integrate e^{ik theta} exactly for
    0 < |k| < n_theta.  ``weights`` absorb the polar Jacobian and the 1/pi.
    """

    r_cut: float
    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    n_theta: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def disk(cls, r_cut: float, n_radial: int = 400, n_theta: int = 256) -> "QuadratureGrid":
        x, w = leggauss(n_radial)
        r = 0.5 * r_cut * (x + 1.0)
        wr = 0.5 * r_cut * w
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        z = r[:, None] * np.exp(1j * theta)[None, :]
        wa = np.broadcast_to((2.0 / n_theta) * (wr * r)[:, None], z.shape)
        return cls(r_cut=float(r_cut), radial_nodes=r, radial_weights=wr,
                   n_theta=int(n_theta), nodes=z.ravel(), weights=wa.ravel().copy())

    @property
    def thetas(self) -> np.ndarray:
        """The n_theta uniform angles of the product grid."""
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    def integrate(self, values) -> complex:
        return np.sum(self.weights * np.asarray(values).ravel())


def default_grid(pot: Potential, m: float, n: int,
                 n_radial: int = 400, n_theta: Optional[int] = None) -> QuadratureGrid:
    """Grid sized for a degree-(n-1) kernel at weight e^{-mQ}: [0, 2R], widened
    to the window of the radial norms (``_norm_window``) where that is wider."""
    r_cut = 2.0 * compute_droplet(pot, n / m).radius
    if n >= 1:
        r_cut = max(r_cut, _norm_window(pot, m, n))
    if n_theta is None:
        n_theta = max(256, 4 * n)
    return QuadratureGrid.disk(r_cut, n_radial=n_radial, n_theta=n_theta)


# ---------------------------------------------------------------------------
# radial norms


def _norm_window(pot: Potential, m: float, n: int) -> float:
    """r past which r^{2n-1} e^{-m q(r)}, the integrand of h_{n-1}, stays
    below e^{-40} of its peak; every h_k with k < n decays faster there."""
    prof = pot.radial_profile
    a = 2 * n - 1
    rho = pot.growth_exponent

    def ell(r):
        return a * np.log(r) - m * float(prof.q(r))

    hi = 1.0
    while m * hi * float(prof.dq(hi)) <= a:
        hi *= 2.0
        if hi > 1e9:
            raise DivergentNormError(
                f"h_{n - 1} diverges for m={m}, n={n}: need m/n > 1/rho (rho = {rho})")
    r_peak = _solve_rdq(prof.dq, a / m, 1e-12, hi)
    floor = ell(r_peak) - 40.0
    r_cut = max(r_peak, 1e-3)
    while ell(r_cut) > floor:
        r_cut *= 1.25
        if r_cut > 1e6:
            raise DivergentNormError(
                f"h_{n - 1} has not decayed by e^-40 at r = 1e6 for m={m}, n={n}: "
                f"need m/n farther above 1/rho (rho = {rho})")
    return r_cut


_PANELS = 512  # panels of the composite radial rule on [0, _norm_window]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal basis of analytic polynomials of degree < n for a radial
    weight e^{-mQ}: phi_k = z^k / sqrt(h_k), stored as log h_k, the log of
    the squared monomial norms."""

    m: float
    n: int
    potential: Potential
    log_norms: np.ndarray

    # A class attribute, not a field: the benchmark's span tracer
    # (bench/tracer.py) still reads ``basis.mode`` to name a cumulant path.
    mode = "radial"

    @property
    def norms(self) -> np.ndarray:
        return np.exp(self.log_norms)


def radial_norms(pot: Potential, m: float, n: int) -> OrthonormalBasis:
    """Squared monomial norms h_k = int r^{2k} e^{-m q(r)} 2r dr, k < n.

    One composite rule, _PANELS equal panels x 16 Gauss-Legendre nodes on
    [0, _norm_window] (past which even the top integrand has fallen by
    e^{-40}), gives every log h_k in one pass, each sum shifted by its largest
    term.  A divergent top norm (n/m beyond the growth exponent) raises
    DivergentNormError.
    """
    if pot.radial_profile is None:
        raise UnsupportedPotentialError("radial_norms needs a radial profile")
    x, w = leggauss(16)
    half = 0.5 * _norm_window(pot, m, max(n, 1)) / _PANELS
    r = (half * (2.0 * np.arange(_PANELS)[:, None] + x + 1.0)).ravel()
    base = np.log(2.0 * half * np.tile(w, _PANELS) * r) \
        - m * np.asarray(pot.radial_profile.q(r), dtype=float)
    lr2 = 2.0 * np.log(r)
    logs = np.empty(n)
    step = max(1, _CHUNK // r.size)
    for lo in range(0, n, step):
        k = np.arange(lo, min(n, lo + step))
        L, s = _shifted_phase_sum(base + k[:, None] * lr2)
        logs[lo:lo + step] = L + np.log(s)
    return OrthonormalBasis(m=float(m), n=int(n), potential=pot, log_norms=logs)


# ---------------------------------------------------------------------------
# weighted kernel


def _shifted_phase_sum(logmag, phase=None, axis=-1):
    """(L, s) with sum exp(logmag + i*phase) = exp(L) * s, L the running max;
    without a phase the sum is real."""
    L = np.max(logmag, axis=axis, keepdims=True)
    L = np.where(np.isfinite(L), L, 0.0)
    terms = np.subtract(logmag, L)
    np.exp(terms, out=terms)
    if phase is not None:
        terms = terms * np.exp(1j * phase)
    return np.squeeze(L, axis=axis), np.sum(terms, axis=axis)


_CHUNK = 1 << 22  # cap on batch * n intermediate entries

_LOG_FLOOR = -1e250  # stands in for log(0); k * floor still underflows exp to 0


def _safe_log(x):
    with np.errstate(divide="ignore"):
        out = np.log(x)
    return np.maximum(out, _LOG_FLOOR)


@dataclass(frozen=True, eq=False)
class WeightedKernel:
    """Evaluator for the weighted kernel K(z,w) e^{-m(Q(z)+Q(w))/2} and the
    one-point density R1(z) = K(z,z) e^{-mQ(z)} of the rank-n projection."""

    basis: OrthonormalBasis
    potential: Potential

    @property
    def m(self) -> float:
        return self.basis.m

    @property
    def n(self) -> int:
        return self.basis.n

    # -- radial modes ---------------------------------------------------------

    def log_modes(self, z):
        """log|psi_k(z)| = k log|z| - (1/2) log h_k - (m/2) Q(z), shape
        z.shape + (n,); psi_k(z) = z^k e^{-mQ(z)/2} / sqrt(h_k)."""
        b = self.basis
        z = np.asarray(z, dtype=complex)
        k = np.arange(b.n)
        lr = np.asarray(_safe_log(np.abs(z)))
        halfq = 0.5 * b.m * np.asarray(b.potential.evaluate(z), dtype=float)
        out = k * lr[..., None]  # in place from here: the same rounding, fewer temporaries
        out -= 0.5 * b.log_norms
        out -= halfq[..., None]
        return out

    def _by_rows(self, fn, dtype, *args, width=()):
        """fn over the broadcast, flattened args in blocks of at most
        _CHUNK / n points; shape broadcast shape + width."""
        args = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in args))
        flats = [a.ravel() for a in args]
        out = np.empty((flats[0].size,) + width, dtype=dtype)
        step = max(1, _CHUNK // max(self.n, 1))
        for lo in range(0, out.shape[0], step):
            out[lo:lo + step] = fn(*(f[lo:lo + step] for f in flats))
        return out.reshape(args[0].shape + width)

    # -- feature vectors ----------------------------------------------------

    def features(self, z):
        """psi_j(z) = phi_j(z) e^{-mQ(z)/2}; shape z.shape + (n,).

        The squared row norm is R1(z) and K_w(z, w) = <psi(z), psi(w)>.
        """
        return self._by_rows(self._features_chunk, complex, z, width=(self.n,))

    def _features_chunk(self, z):
        k = np.arange(self.n)
        return np.exp(self.log_modes(z)) * np.exp(1j * k * np.angle(z)[:, None])

    # -- kernel values ------------------------------------------------------

    def log_weighted(self, z, w):
        """(log|.|, arg) of the weighted kernel; safe at any magnitude."""
        out = self._by_rows(self._log_weighted_chunk, complex, z, w)
        return out.real, out.imag

    def _log_weighted_chunk(self, z, w):
        phase = np.arange(self.n) * (np.angle(z) - np.angle(w))[:, None]
        logmag = self.log_modes(z)
        logmag += self.log_modes(w)
        L, s = _shifted_phase_sum(logmag, phase)
        with np.errstate(divide="ignore"):
            return L + np.log(s)

    def weighted(self, z, w):
        logabs, phase = self.log_weighted(z, w)
        return np.exp(logabs) * np.exp(1j * phase)

    def log_one_point(self, z):
        return self._by_rows(self._log_one_point_chunk, float, z)

    def _log_one_point_chunk(self, z):
        logmag = self.log_modes(z)
        logmag *= 2.0
        L, s = _shifted_phase_sum(logmag)
        return L + np.log(s)

    def one_point(self, z):
        """R1(z) >= 0; tiny negative round-off is clamped, anything worse raises."""
        val = np.exp(self.log_one_point(z))
        val = np.asarray(val)
        if np.any(val < -1e-12):
            raise FloatingPointError("one-point density came out negative")
        out = np.clip(val, 0.0, None)
        return out if out.shape else float(out)

    def trace_on(self, grid: QuadratureGrid) -> float:
        return float(np.real(grid.integrate(self.one_point(grid.nodes))))

    @cached_property
    def radial_law(self) -> "RadialLaw":
        """Law of |z| under R1/n with the droplet radius; built once per kernel."""
        return RadialLaw.of(self)


def _panel(breaks, x):
    """Index j of the panel [breaks[j], breaks[j+1]) holding x, clipped."""
    return np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, _PANELS - 1)


def _law_mass(kern: WeightedKernel, a, b):
    """8-node Gauss-Legendre integral of 2r R1(r)/n over each [a, b], and
    R1(b)/n."""
    x, w = leggauss(8)
    half = 0.5 * (b - a)
    t = np.concatenate([a[:, None] + half[:, None] * (x + 1.0), b[:, None]], axis=1)
    dens = kern.one_point(t.astype(complex)) / kern.n
    return half * ((2.0 * t[:, :-1] * dens[:, :-1]) @ w), dens[:, -1]


@dataclass(frozen=True, eq=False)
class RadialLaw:
    """Law of |z| under the normalized one-point density R1/n of a radial
    kernel, and the droplet radius at tau = n/m.

    ``table`` holds the CDF of 2r R1(r)/n at the panel ``edges`` of
    ``radial_norms`` (_PANELS panels on [0, _norm_window]) from the 8-node
    Gauss-Legendre rule on each panel, divided by its total.  The norms come
    from the 16-node rule, so the total equals 1 to 1e-10 (trace = n) only
    when both rules resolve every mode.  Quantiles come from the table by
    linear interpolation in r^2 plus two Newton steps in r^2, where R1(0) > 0
    keeps the slope away from zero; the same 8-node rule on the part of a
    panel below r gives F between the edges.
    """

    kern: WeightedKernel
    edges: np.ndarray
    table: np.ndarray
    total: float
    droplet_radius: float

    @classmethod
    def of(cls, kern: WeightedKernel) -> "RadialLaw":
        pot, m, n = kern.potential, kern.m, kern.n
        edges = np.linspace(0.0, _norm_window(pot, m, n), _PANELS + 1)
        table = np.concatenate([[0.0], np.cumsum(_law_mass(kern, edges[:-1], edges[1:])[0])])
        total = float(table[-1])
        if not abs(total - 1.0) <= 1e-10:
            raise GridResolutionError(
                f"radial law has mass {total:.12f} on [0, {edges[-1]:.4g}], "
                "not 1 (trace != n)")
        return cls(kern=kern, edges=edges, table=table / total, total=total,
                   droplet_radius=compute_droplet(pot, n / m).radius)

    def _in_panel(self, j, r):
        """(F(r), dF/d(r^2)) for r in or near panel j."""
        mass, dens = _law_mass(self.kern, self.edges[j], r)
        return self.table[j] + mass / self.total, dens / self.total

    def cdf(self, r):
        """P(|z| <= r) under R1/n (r in [0, r_cut])."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return self._in_panel(_panel(self.edges, r), r)[0]

    def quantile(self, u):
        """r with F(r) = u, for u in [0, 1)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        j = _panel(self.table, u)
        s_lo, s_hi = self.edges[j] ** 2, self.edges[j + 1] ** 2
        c_lo, c_hi = self.table[j], self.table[j + 1]
        s = s_lo + (u - c_lo) / (c_hi - c_lo) * (s_hi - s_lo)
        for _ in range(2):
            F, slope = self._in_panel(j, np.sqrt(s))
            step = np.divide(F - u, slope, out=np.zeros_like(s), where=slope > 0)
            s = np.clip(s - step, 0.0, self.edges[-1] ** 2)
        return np.sqrt(s)


def weighted_kernel(pot: Potential, m: float, n: int) -> WeightedKernel:
    """Kernel of the radial norms; a field without a radial profile raises
    UnsupportedPotentialError."""
    return WeightedKernel(radial_norms(pot, m, n), pot)


def diagonal_expansion_residual(kern: WeightedKernel, z) -> float:
    """| R1(z) - m lap Q(z) - (1/2) lap log lap Q(z) |, the bulk expansion
    error; O(1/m) at bulk points (|z| <= 0.75 R)."""
    z = np.asarray(z, dtype=complex)
    pred = kern.m * np.asarray(kern.potential.laplacian(z), dtype=float) \
        + np.asarray(kern.potential.subleading_density(z), dtype=float)
    resid = np.abs(kern.one_point(z) - pred)
    return float(resid) if resid.shape == () else resid


def offdiagonal_decay_profile(kern: WeightedKernel, z0, radii) -> np.ndarray:
    """max over 64 angles of |weighted kernel(z0, z0 + h)| for each |h| in radii."""
    theta = 2.0 * np.pi * np.arange(64) / 64
    radii = np.asarray(radii, dtype=float)
    h = radii[:, None] * np.exp(1j * theta)[None, :]
    logabs, _ = kern.log_weighted(np.asarray(z0, dtype=complex), np.asarray(z0) + h)
    return np.exp(np.max(logabs, axis=-1))


def fit_decay_rate(radii, profile, m: float):
    """Least-squares decay rate of an envelope profile, and its epsilon in the
    e^{-eps sqrt(m) |h|} parametrization."""
    radii = np.asarray(radii, dtype=float)
    profile = np.asarray(profile, dtype=float)
    keep = profile > 1e-280  # underflow floor
    if np.count_nonzero(keep) < 3:
        raise ValueError("profile underflows on nearly all radii; reduce them")
    slope, _ = np.polyfit(radii[keep], -np.log(profile[keep]), 1)
    return float(slope), float(slope / np.sqrt(m))


def bergman_approx(pot: Potential, m: float, z, w):
    """First-order approximating kernel, weighted:
    (m b0(z, wbar) + b1(z, wbar)) e^{m psi(z, wbar) - m(Q(z)+Q(w))/2}.

    Usable near the anti-diagonal; needs the field's polarization data.
    """
    if pot.analytic_extension is None or pot.polarized_laplacian is None:
        raise UnsupportedPotentialError(
            f"field {pot.name!r} carries no analytic extension")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    wbar = np.conj(w)
    psi = pot.analytic_extension(z, wbar)
    b0 = pot.polarized_laplacian(z, wbar)
    b1 = pot.polarized_subleading(z, wbar) if pot.polarized_subleading is not None else 0.0
    logmag = m * np.real(psi) - 0.5 * m * (np.asarray(pot.evaluate(z), dtype=float)
                                           + np.asarray(pot.evaluate(w), dtype=float))
    return (m * b0 + b1) * np.exp(logmag) * np.exp(1j * m * np.imag(psi))


def nystrom_matrix(kern: WeightedKernel, grid: QuadratureGrid) -> np.ndarray:
    """Hermitian Nystrom matrix sqrt(w_a) K_w(z_a, z_b) sqrt(w_b).

    Dense (G x G); meant for modest grids when checking projection identities.
    """
    U = kern.features(grid.nodes) * np.sqrt(grid.weights)[:, None]
    return U @ U.conj().T
