"""Orthonormal polynomial bases for planar weights e^{-mQ} and the
associated weighted reproducing kernels.

All kernel arithmetic runs in log-magnitude + phase form, so the
exponentially large intermediate factors appearing at m >= 64 never
overflow; only the (bounded) weighted combinations are exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss as _leggauss_uncached
from numpy.polynomial.polynomial import polyfromroots, polyint

from .potential import Potential, _solve_rdq, compute_droplet


class DivergentNormError(ValueError):
    """Monomial norm integral diverges: the n/m window exceeds the growth rate."""


class UnsupportedPotentialError(ValueError):
    """Operation needs field data that is absent (a radial profile) or field
    structure the formula assumes (a constant Laplacian near the boundary)."""


class GridResolutionError(ValueError):
    """Quadrature grid too coarse to represent the kernel faithfully."""


@lru_cache(maxsize=32)
def leggauss(n: int):
    return _leggauss_uncached(n)


def _panel_rule(a: float, b: float, panels: int, order: int):
    """(nodes, weights) of the composite rule on [a, b]: ``order``
    Gauss-Legendre nodes on each of ``panels`` equal panels, panel by panel."""
    x, w = leggauss(order)
    half = 0.5 * (b - a) / panels
    r = (a + half * (2.0 * np.arange(panels)[:, None] + x + 1.0)).ravel()
    return r, np.tile(half * w, panels)


def _uniform_angles(n: int) -> np.ndarray:
    """The n angles 2 pi j / n, j < n."""
    return 2.0 * np.pi * np.arange(n) / n


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product grid implementing integration against dA = d^2z / pi.

    Radial direction: Gauss-Legendre on [0, r_cut].  Angular direction:
    n_theta uniform nodes, which integrate e^{ik theta} exactly for
    0 < |k| < n_theta.  ``weights`` absorb the polar Jacobian and the 1/pi;
    they and ``nodes``, 2-D arrays that ``ring_means`` never needs, are built on first read.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    n_theta: int

    @classmethod
    def disk(cls, r_cut: float, n_radial: int = 400, n_theta: int = 256) -> "QuadratureGrid":
        r, wr = _panel_rule(0.0, r_cut, 1, n_radial)
        return cls(radial_nodes=r, radial_weights=wr, n_theta=int(n_theta))

    @property
    def thetas(self) -> np.ndarray:
        """The n_theta uniform angles of the product grid."""
        return _uniform_angles(self.n_theta)

    def _ring_nodes(self, r) -> np.ndarray:
        """The nodes r e^{i theta} of the rings of radii r, one row per ring."""
        return r[:, None] * np.exp(1j * self.thetas)[None, :]

    @cached_property
    def nodes(self) -> np.ndarray:
        return self._ring_nodes(self.radial_nodes).ravel()

    @cached_property
    def weights(self) -> np.ndarray:
        wa = (2.0 / self.n_theta) * (self.radial_weights * self.radial_nodes)
        return np.repeat(wa, self.n_theta)

    @property
    def ring_weights(self) -> np.ndarray:
        """Sum over theta of each ring's node weights, 2 r w_r: the nodes of a
        ring share one weight, so integrate(h(nodes)) = ring_weights @ ring_means(h)."""
        return 2.0 * self.radial_nodes * self.radial_weights

    def ring_means(self, fn, center: complex = 0.0, radial: bool = False) -> np.ndarray:
        """Mean of fn over each ring's nodes about ``center``, from blocks of at
        most _RING_BLOCK nodes; with ``radial`` (fn invariant under rotations
        about ``center``) one evaluation per ring, at center + r."""
        r = self.radial_nodes
        if radial:
            return np.asarray(fn(center + r.astype(complex)))
        rows = max(1, _RING_BLOCK // self.n_theta)
        return np.concatenate([np.asarray(fn(center + self._ring_nodes(r[i:i + rows])))
                               .mean(axis=-1) for i in range(0, r.size, rows)])

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


_NORM_CUT = 40.0  # log-units by which the top integrand falls at the window's end


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
    floor = ell(r_peak) - _NORM_CUT
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
    the squared monomial norms.  ``r_cut`` ends the radial rule of the norms
    (``_norm_window``)."""

    m: float
    n: int
    potential: Potential
    log_norms: np.ndarray
    r_cut: float

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
    e^{-40}), gives every log h_k, each sum shifted by its largest term.
    Mode k is summed only on its live panels (``_norm_bands``): those whose
    larger edge value of (2k+1) log r - m q(r) is within T of the top edge
    value, which drops less than e^{-40} of h_k when lap Q >= 0 makes that
    function concave in log r.  A group of consecutive modes shares one
    window that starts at the group's first band and covers every band of
    the group, so no term needs masking; groups hold at most _CHUNK terms.
    All windows have one width (the last ones cut short at r_cut): the
    widest band plus a slack that balances the terms it adds (n * slack
    panels) against the groups it saves (about span / slack, span =
    lo_{n-1} - lo_0), taking a group's fixed cost, a dozen numpy calls, as
    that of one mode summed over all _PANELS panels.
    A divergent top norm (n/m beyond the growth exponent) raises
    DivergentNormError.
    """
    if pot.radial_profile is None:
        raise UnsupportedPotentialError("radial_norms needs a radial profile")
    r_cut = _norm_window(pot, m, max(n, 1))
    r, w = _panel_rule(0.0, r_cut, _PANELS, 16)
    base = np.log(2.0 * w * r) - m * np.asarray(pot.radial_profile.q(r), dtype=float)
    lr2 = 2.0 * np.log(r)
    lo, hi = _norm_bands(pot, m, n, np.linspace(0.0, r_cut, _PANELS + 1))
    slack = math.sqrt(_PANELS * (lo[-1] - lo[0]) / n) if n else 0.0
    width = min(_PANELS, int(np.max(hi - lo, initial=1)) + math.ceil(slack))
    cap = max(1, _CHUNK // (16 * width))
    logs = np.empty(n)
    k0 = 0
    while k0 < n:
        s = lo[k0]
        # lo and hi grow with k: the group ends before the first band
        # that leaves the window
        k1 = k0 + 1 + int(np.searchsorted(hi[k0 + 1:k0 + cap], s + width, side="right"))
        win = slice(16 * s, 16 * (s + width))
        terms = np.arange(k0, k1)[:, None] * lr2[win]
        terms += base[win]
        L, total = _shifted_phase_sum(terms)
        logs[k0:k1] = L + np.log(total)
        k0 = k1
    return OrthonormalBasis(m=float(m), n=int(n), potential=pot, log_norms=logs,
                            r_cut=r_cut)


def _norm_bands(pot: Potential, m: float, n: int, edges: np.ndarray):
    """Panels [lo_k, hi_k) on which the integrand of h_k lives, for k < n;
    panel j of the rule lies between ``edges[j]`` and ``edges[j + 1]``.

    f_k(r) = (2k+1) log r - m q(r), the log of the integrand up to 2, is
    concave in log r when r q'(r) is nondecreasing (lap Q >= 0, the premise
    ``_solve_rdq`` also needs).  So on a panel that does not hold the peak
    of f_k the largest term sits at an edge, and f_k at the edges bounds
    every term there.  A panel is live when its larger edge value is within
    T of the top edge value; the two panels at the top edge, one of which
    holds the peak, are live by that rule.  T is the window's cut plus
    log(node count) plus log(largest / smallest Gauss-Legendre weight), so
    the dropped terms together weigh less than e^{-40} times a term of the
    smallest weight at the top edge value.
    Rows of f differ by 2 log r, which grows with r, so the top edge, lo and
    hi are nondecreasing in k, and each live set is an interval around the
    top edge: each mode's search starts from the previous mode's band.
    """
    w = leggauss(16)[1]
    panels = edges.size - 1
    cut = float(_NORM_CUT + np.log(w.size * panels) + np.log(w.max() / w.min()))
    with np.errstate(divide="ignore"):
        log_e = np.log(edges).tolist()  # -inf at the origin, never live
    mq = (m * np.asarray(pot.radial_profile.q(edges), dtype=float)).tolist()
    lo, hi = [], []
    top = first = last = 0
    for k in range(n):
        c = 2.0 * k + 1.0
        f_top = c * log_e[top] - mq[top]
        while top < panels and c * log_e[top + 1] - mq[top + 1] >= f_top:
            top += 1
            f_top = c * log_e[top] - mq[top]
        floor = f_top - cut
        while c * log_e[first] - mq[first] < floor:
            first += 1
        last = max(last, top)
        while last < panels and c * log_e[last + 1] - mq[last + 1] >= floor:
            last += 1
        # every panel with a live edge
        lo.append(max(first - 1, 0))
        hi.append(min(last + 1, panels))
    return np.array(lo, dtype=int), np.array(hi, dtype=int)


# ---------------------------------------------------------------------------
# weighted kernel


def _shifted_phase_sum(logmag, phase=None):
    """(L, s) with sum exp(logmag + i*phase) = exp(L) * s over the last axis, L
    the running max; without a phase the sum is real.  Shifts and exponentiates
    logmag in place."""
    L = np.max(logmag, axis=-1, keepdims=True)
    L = np.where(np.isfinite(L), L, 0.0)
    terms = np.subtract(logmag, L, out=logmag)
    np.exp(terms, out=terms)
    if phase is not None:
        terms = terms * np.exp(1j * phase)
    return np.squeeze(L, axis=-1), np.sum(terms, axis=-1)


_CHUNK = 1 << 22  # cap on batch * n intermediate entries
_RING_BLOCK = 8192  # cap on the nodes of one block of ``QuadratureGrid.ring_means``

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
    # Results that depend on this kernel, so they live and die with it (the
    # moment series of cumulants.dpp_cumulant).  Each entry is replaced whole
    # by one store, so threads sharing a kernel at worst repeat work.
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def potential(self) -> Potential:
        return self.basis.potential

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
        """R1(z) = exp(log R1(z)) >= 0; a float at a scalar z."""
        out = np.exp(self.log_one_point(z))
        return out if out.shape else float(out)

    def trace_on(self, grid: QuadratureGrid) -> float:
        """Grid mass of R1, which is n when the grid resolves the kernel; R1 is
        radial (so is the basis), so it is evaluated once per ring."""
        return float(grid.ring_weights @ grid.ring_means(self.one_point, radial=True))

    @cached_property
    def radial_law(self) -> "RadialLaw":
        """Law of |z| under R1/n with the droplet radius; built once per kernel."""
        return RadialLaw.of(self)


def _panel(breaks, x):
    """Index j of the panel [breaks[j], breaks[j+1]) holding x, clipped."""
    return np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, _PANELS - 1)


@lru_cache(maxsize=1)
def _antiderivative_map() -> np.ndarray:
    """8 x 9 matrix taking the values g of a function at the 8 Gauss-Legendre
    nodes t_i of [0, 1] to the coefficients of t^0 .. t^8 of int_0^t p, p the
    degree-7 interpolant of g; row i integrates the Lagrange polynomial of t_i."""
    t = 0.5 * (leggauss(8)[0] + 1.0)
    rows = []
    for i in range(8):
        others = np.delete(t, i)
        rows.append(polyint(polyfromroots(others) / np.prod(t[i] - others)))
    out = np.array(rows)
    out.flags.writeable = False  # one cached array for every caller
    return out


def _horner(coef, t):
    """(F, dF/dt) at t of the polynomials with coefficient rows ``coef``,
    lowest degree first."""
    F = coef[:, -1]
    dF = np.zeros_like(t)
    for k in range(coef.shape[1] - 2, -1, -1):
        dF = dF * t + F
        F = F * t + coef[:, k]
    return F, dF


@dataclass(frozen=True, eq=False)
class RadialLaw:
    """Law of |z| under the normalized one-point density R1/n of a radial
    kernel, and the droplet radius at tau = n/m.

    ``table`` holds the CDF of 2r R1(r)/n at the panel ``edges`` of
    ``radial_norms`` (_PANELS panels on [0, r_cut] of the basis) from the
    8-node Gauss-Legendre rule on each panel, divided by its total.  The
    norms come from the 16-node rule, so the total equals 1 to 1e-10
    (trace = n) only when both rules resolve every mode.  The same node values give the CDF
    inside panel j as a polynomial F_j(t) = table[j] + int_0^t p_j in
    t = (r - e_j) / (e_{j+1} - e_j), p_j the degree-7 interpolant of the
    density at the nodes; the rule is interpolatory, so F_j(1) = table[j+1]
    to rounding.  ``coef`` holds the coefficients of t^0 .. t^8 of every F_j.
    ``cdf`` evaluates F_j by Horner's rule, and ``quantile`` starts from the
    table by linear interpolation in r^2 and takes three Newton steps on F_j,
    whose derivative is p_j; neither calls the kernel.
    """

    edges: np.ndarray
    table: np.ndarray
    coef: np.ndarray
    droplet_radius: float

    @classmethod
    def of(cls, kern: WeightedKernel) -> "RadialLaw":
        pot, m, n, r_cut = kern.potential, kern.m, kern.n, kern.basis.r_cut
        edges = np.linspace(0.0, r_cut, _PANELS + 1)
        r, w = (a.reshape(_PANELS, 8) for a in _panel_rule(0.0, r_cut, _PANELS, 8))
        dens = 2.0 * r * (kern.one_point(r.astype(complex)) / n)
        table = np.concatenate([[0.0], np.cumsum(np.sum(w * dens, axis=1))])
        total = float(table[-1])
        if not abs(total - 1.0) <= 1e-10:
            raise GridResolutionError(
                f"radial law has mass {total:.12f} on [0, {edges[-1]:.4g}], "
                "not 1 (trace != n)")
        table /= total
        coef = (r_cut / _PANELS / total) * (dens @ _antiderivative_map())
        coef[:, 0] = table[:-1]
        return cls(edges=edges, table=table, coef=coef,
                   droplet_radius=compute_droplet(pot, n / m).radius)

    def cdf(self, r):
        """P(|z| <= r) under R1/n; r is clamped to [0, r_cut]."""
        r = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), 0.0, self.edges[-1])
        j = _panel(self.edges, r)
        lo, hi = self.edges[j], self.edges[j + 1]
        return _horner(self.coef[j], (r - lo) / (hi - lo))[0]

    def quantile(self, u):
        """r with F(r) = u, for u in [0, 1)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        j = _panel(self.table, u)
        lo, hi = self.edges[j], self.edges[j + 1]
        c_lo, c_hi = self.table[j], self.table[j + 1]
        s = lo ** 2 + (u - c_lo) / (c_hi - c_lo) * (hi ** 2 - lo ** 2)
        t = (np.sqrt(s) - lo) / (hi - lo)
        coef = self.coef[j]
        for _ in range(3):
            F, slope = _horner(coef, t)
            step = np.divide(F - u, slope, out=np.zeros_like(t), where=slope > 0)
            t = np.clip(t - step, 0.0, 1.0)
        return lo + t * (hi - lo)


def weighted_kernel(pot: Potential, m: float, n: int) -> WeightedKernel:
    """Kernel of the radial norms; a field without a radial profile raises
    UnsupportedPotentialError."""
    return WeightedKernel(radial_norms(pot, m, n))


def offdiagonal_decay_profile(kern: WeightedKernel, z0, radii) -> np.ndarray:
    """max over 64 angles of |weighted kernel(z0, z0 + h)| for each |h| in radii."""
    radii = np.asarray(radii, dtype=float)
    h = radii[:, None] * np.exp(1j * _uniform_angles(64))[None, :]
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
