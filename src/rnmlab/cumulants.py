"""Exact combinatorics behind the cumulant expansion of linear statistics,
the Gaussian pair integrals that control the limiting variance, and exact
finite-n cumulants of any order from the power series of the Fredholm
log-determinant.

Coefficients are exact rationals (fractions.Fraction); only function values
are floats, so the combinatorial cancellations stay exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .orthopoly import GridResolutionError, QuadratureGrid, WeightedKernel

def compositions(k: int, parts: int):
    """Ordered tuples of ``parts`` positive integers summing to k."""
    for cuts in itertools.combinations(range(1, k), parts - 1):
        bounds = (0,) + cuts + (k,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


@dataclass(frozen=True)
class CompositionTerm:
    """One term of the cumulant expansion: composition (k_1..k_j) of k with
    exact coefficient (-1)^(j-1)/j * k!/(k_1! ... k_j!)."""

    j: int
    parts: tuple
    coefficient: Fraction


@lru_cache(maxsize=None)
def composition_terms(k: int):
    terms = []
    kfac = math.factorial(k)
    for j in range(1, k + 1):
        lead = Fraction((-1) ** (j - 1), j)
        for parts in compositions(k, j):
            denom = math.prod(math.factorial(p) for p in parts)
            terms.append(CompositionTerm(j=j, parts=parts,
                                         coefficient=lead * Fraction(kfac, denom)))
    return tuple(terms)


def stirling2(k: int, j: int) -> Fraction:
    """Stirling number of the second kind via the alternating-sum formula."""
    if not (0 <= j <= k):
        raise ValueError(f"need 0 <= j <= k, got k={k}, j={j}")
    if j == 0:
        return Fraction(1 if k == 0 else 0)
    total = sum((-1) ** r * math.comb(j, r) * (j - r) ** k for r in range(j + 1))
    return Fraction(total, math.factorial(j))


def zero_sum_identity(k: int) -> Fraction:
    """sum_j (-1)^(j-1)/j sum_{compositions} 1/(k_1!...k_j!), the sum of the
    ``composition_terms`` coefficients over k!; exactly 0 for k >= 2."""
    return sum((t.coefficient for t in composition_terms(k)), Fraction(0)) \
        / math.factorial(k)


def s_k(k: int) -> Fraction:
    """Exact value of the quadratic composition sum
    sum_j (-1)^(j-1)/j sum k!(sum_i k_i(k_i-1))/(k_1!...k_j!) over the
    ``composition_terms``; equals 2 at k = 2 and 0 for every k >= 3."""
    return sum((t.coefficient * sum(p * (p - 1) for p in t.parts)
                for t in composition_terms(k)), Fraction(0))


def g_k_eval(g, points: Sequence[complex]) -> float:
    """Composition-sum statistic of k points: exact rational coefficients
    against float function values.  Vanishes identically on the diagonal."""
    vals = [float(np.real(g.value(np.asarray(p, dtype=complex)))) for p in points]
    k = len(points)
    total = 0.0
    for term in composition_terms(k):
        prod = 1.0
        for slot, power in enumerate(term.parts):
            prod *= vals[slot] ** power
        total += float(term.coefficient) * prod
    return total


_FD_STEP = 1e-4  # coarse finite-difference step of the diagonal derivative checks


class DiagonalCheck(NamedTuple):
    value: float
    reference: float


def _second_diff(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def _richardson(fn, h):
    return (4.0 * fn(0.5 * h) - fn(h)) / 3.0


def diagonal_laplacian_check(g, lam: complex, k: int) -> DiagonalCheck:
    """Quarter-Laplacian of the k-point composition statistic on the diagonal,
    by central differences with Richardson extrapolation, against the exact
    diagonal value |grad g|^2 / 2 (k = 2) or 0 (k >= 3)."""
    lam = complex(lam)

    def lap_sum(h):
        base = [lam] * k
        total = 0.0
        for i in range(k):
            for direction in (1.0, 1j):
                def sect(t, i=i, direction=direction):
                    pts = list(base)
                    pts[i] = lam + direction * t
                    return g_k_eval(g, pts)
                total += _second_diff(sect, 0.0, h)
        return 0.25 * total

    value = _richardson(lap_sum, _FD_STEP)
    if k == 2:
        grad = np.asarray(g.gradient(lam), dtype=float)
        reference = 0.5 * float(np.sum(grad**2))
    else:
        reference = 0.0
    return DiagonalCheck(value=float(value), reference=reference)


def mixed_derivative_sum(g, lam: complex, k: int) -> complex:
    """sum_{i<j} d_i dbar_j of the composition statistic on the diagonal
    (mixed Wirtinger derivatives by finite differences).  Equals
    -|dbar g|^2 at k = 2 and is purely imaginary for k >= 3."""
    lam = complex(lam)

    def cross(i, j, di, dj, h):
        # d^2/(du_i dv_j) by the 4-point stencil, u,v in {x,y} per di,dj
        def at(si, sj):
            pts = [lam] * k
            pts[i] = lam + si * h * di
            pts[j] = lam + sj * h * dj
            return g_k_eval(g, pts)
        return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * h**2)

    def one_pair(i, j, h):
        xx = cross(i, j, 1.0, 1.0, h)
        yy = cross(i, j, 1j, 1j, h)
        xy = cross(i, j, 1.0, 1j, h)
        yx = cross(i, j, 1j, 1.0, h)
        return 0.25 * ((xx + yy) + 1j * (xy - yx))

    total = 0.0 + 0.0j
    for i in range(k):
        for j in range(i + 1, k):
            total += _richardson(lambda h: one_pair(i, j, h), _FD_STEP)
    return complex(total)


class PairIntegrals(NamedTuple):
    J: complex
    J_conj: complex
    L_same: complex
    L_opposite: complex


@lru_cache(maxsize=1)
def gaussian_pair_integrals() -> PairIntegrals:
    """The four Gaussian pair integrals
        int p(xi1, xi2) e^{xi1 conj(xi2) - |xi1|^2 - |xi2|^2} dA(xi1) dA(xi2)
    for p = xi1 xi2, conj(xi1 xi2), xi1 conj(xi2), conj(xi1) xi2, by 4-D
    polar x polar quadrature.  The first three vanish; the last equals 1.

    The (r, rho) part of the integrand depends on the angles only through
    theta - phi, so the 4-D tensor sum is assembled from a radial reduction
    V(psi) followed by the full double angular sum.  V is summed for
    psi <= pi by radial rows; V(2 pi - psi) = conj V(psi) gives the rest.
    """
    grid = QuadratureGrid.disk(7.0, n_radial=96, n_theta=112)
    r, wr, psi, n_theta = grid.radial_nodes, grid.radial_weights, grid.thetas, grid.n_theta
    dtheta = 2.0 * np.pi / n_theta

    upper = n_theta // 2 + 1  # psi_l <= pi
    phase = np.exp(1j * psi[:upper])
    V = np.zeros(upper, dtype=complex)
    for a, wa in zip(r, wr):
        weight = (wa * wr) * (a * r) ** 2  # measure r dr * prefactor r
        arg = np.multiply.outer(a * r, phase)
        arg -= (a**2 + r**2)[:, None]
        V += weight @ np.exp(arg, out=arg)
    V = np.concatenate([V, np.conj(V[1:n_theta - upper + 1][::-1])])

    idx = np.arange(n_theta)
    diff = (idx[:, None] - idx[None, :]) % n_theta
    Vmat = V[diff]
    th = psi[:, None]
    ph = psi[None, :]
    scale = dtheta**2 / np.pi**2

    J = scale * np.sum(np.exp(1j * (th + ph)) * Vmat)
    J_conj = scale * np.sum(np.exp(-1j * (th + ph)) * Vmat)
    L_same = scale * np.sum(np.exp(1j * (th - ph)) * Vmat)
    L_opposite = scale * np.sum(np.exp(-1j * (th - ph)) * Vmat)
    return PairIntegrals(J=complex(J), J_conj=complex(J_conj),
                         L_same=complex(L_same), L_opposite=complex(L_opposite))


def _moment_matrices(kern: WeightedKernel, grid: QuadratureGrid, g, powers):
    """(B_p for p in powers), B_p = A_p / p! of g on the grid, from one product.

    M[r, j] M[r, l] = r^{j+l} e^{-mq(r)} / sqrt(h_j h_l) depends on j + l
    alone.  With V[r, s] = ring_weight_r r^s e^{-mq(r) - c_s} (s < 2n - 1,
    c_s the column's log-maximum) and C_p[r, d] the mean of g^p e^{i d theta}
    over ring r, G_p = V^T C_p gives the Hermitian A_p, for l >= j
    A_p[j, l] = e^{c_{j+l} - (log h_j + log h_l)/2} G_p[j + l, l - j].  log h
    is convex, so the prefactor is at most about e^{c_s} / h_{s/2}.  A radial
    g is sampled once per ring, at its radial node, and keeps d < D = 1, so
    its A_p are diagonal; any other g is sampled block by block
    (``ring_blocks``) and keeps d < D = n, aliasing mod n_theta exactly as
    the grid sum does.  The real and imaginary parts of every C_p go side by
    side into one real (n_r, 2 P D) array R, so G = V^T R is one real
    product, and each A_p is gathered from G entry by entry; no full-grid
    array is built.
    """
    n, r, lh = kern.n, grid.radial_nodes, kern.basis.log_norms
    V = np.arange(2 * n - 1) * np.log(r)[:, None] \
        - kern.m * np.asarray(kern.potential.evaluate(r), dtype=float)[:, None]
    c = V.max(axis=0)
    V -= c
    np.exp(V, out=V)
    V *= grid.ring_weights[:, None]
    if getattr(g, "radial", False):
        D, blocks = 1, [(slice(None), r.astype(complex)[:, None])]
    else:
        D, blocks = n, grid.ring_blocks()
    R = np.empty((r.size, 2, len(powers), D))
    for rings, z in blocks:
        gv = np.asarray(np.real(g.value(z)), dtype=float)
        for i, p in enumerate(powers):
            C = np.fft.ifft(gv**p, axis=1)[:, np.arange(D) % gv.shape[1]]
            R[rings, 0, i], R[rings, 1, i] = C.real, C.imag
    # one real product on a contiguous array: each entry is the same for any
    # number of powers, so a series extended in steps is bit-identical
    G = (V.T @ R.reshape(r.size, -1)).reshape(-1, 2, len(powers), D)
    j = np.arange(n)
    s, d = j[:, None] + j, j - j[:, None]
    live, lower = np.abs(d) < D, d < 0
    s_live, d_live = s[live], np.abs(d[live])
    scale = np.exp(c[s] - 0.5 * (lh[:, None] + lh))
    A = np.zeros((len(powers), n, n), dtype=complex)
    for i, p in enumerate(powers):
        A[i].real[live] = G[s_live, 0, i, d_live]
        A[i].imag[live] = G[s_live, 1, i, d_live]
        np.conjugate(A[i], out=A[i], where=lower)
        A[i] *= scale / math.factorial(p)
    return tuple(A)


def _moment_series(kern: WeightedKernel, grid: QuadratureGrid, g, k: int):
    """(B_1, ..., B_k) of g on the grid (``_moment_matrices``).  The kernel's
    memo holds the B_p of one (grid, g), matched by identity, and a call
    extends them to order k, so C_2, C_3 and C_4 of one statistic build each
    B_p once; the values do not depend on the order of the calls.  g's
    values on the grid are not held (as many nodes as the grid, against
    k n^2 entries for the B_p): an extension evaluates g again.  Before a
    build, the trace guard checks the kernel's grid mass, tr A_0 = n."""
    held = kern.memo.get("moments")
    B = held[2] if held is not None and held[0] is grid and held[1] is g else ()
    if len(B) < k:
        trace = kern.trace_on(grid)
        if abs(trace - kern.n) > 1e-4:
            raise GridResolutionError(
                f"grid too coarse: trace {trace:.6f} deviates from n = {kern.n}")
        B += _moment_matrices(kern, grid, g, range(len(B) + 1, k + 1))
        kern.memo["moments"] = (grid, g, B)
    return B[:k]


def dpp_cumulant(kern: WeightedKernel, grid: QuadratureGrid, g, k: int) -> float:
    """Exact finite-n cumulant C_k of the linear statistic of g, any k >= 1:
    k! times the lambda^k coefficient of the Fredholm log-determinant
    log E e^{lambda sum g} = log det(I + sum_{p>=1} lambda^p A_p / p!).

    The moment matrices are the grid quadratures
    A_p[j, l] = sum_a w_a conj(psi_j(z_a)) g(z_a)^p psi_l(z_a), summed in
    another order by one Hankel-Toeplitz product (``_moment_matrices``),
    exact for any n_theta; they come from the kernel's moment series
    (``_moment_series``), so the orders of one statistic on one grid share
    them.  With B_p = A_p / p! and the inverse series W_0 = I,
    W_q = -sum_{p<=q} B_p W_{q-p}, the derivative of the log-determinant
    gives C_k = (k-1)! sum_{p<=k} p tr(B_p W_{k-p}): O(k^2) products of
    n x n matrices, diagonal ones for a radial g.
    """
    if k < 1:
        raise ValueError("cumulant order must be >= 1")
    B = (None,) + _moment_series(kern, grid, g, k)
    W = [None]  # W_0 = I is never formed
    for q in range(1, k):
        W.append(-B[q] - sum(B[p] @ W[q - p] for p in range(1, q)))
    total = k * np.trace(B[k]) + sum(p * np.sum(B[p] * W[k - p].T) for p in range(1, k))
    total = complex(math.factorial(k - 1) * total)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"cumulant came out non-real: {total}")
    return float(total.real)
