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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .orthopoly import GridResolutionError, QuadratureGrid, WeightedKernel, leggauss

ExactRational = Fraction


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


def stirling2_recurrence(k: int, j: int) -> Fraction:
    """Cross-check route: S(k,j) = j S(k-1,j) + S(k-1,j-1)."""
    table = [[Fraction(0)] * (j + 1) for _ in range(k + 1)]
    table[0][0] = Fraction(1)
    for kk in range(1, k + 1):
        for jj in range(1, min(kk, j) + 1):
            table[kk][jj] = jj * table[kk - 1][jj] + table[kk - 1][jj - 1]
    return table[k][j]


def zero_sum_identity(k: int) -> Fraction:
    """sum_j (-1)^(j-1)/j sum_{compositions} 1/(k_1!...k_j!); exactly 0 for k >= 2."""
    total = Fraction(0)
    for j in range(1, k + 1):
        lead = Fraction((-1) ** (j - 1), j)
        for parts in compositions(k, j):
            total += lead / math.prod(math.factorial(p) for p in parts)
    return total

def s_k(k: int) -> Fraction:
    """Exact value of the quadratic composition sum
    sum_j (-1)^(j-1)/j sum k!(sum_i k_i(k_i-1))/(k_1!...k_j!);
    equals 2 at k = 2 and 0 for every k >= 3."""
    total = Fraction(0)
    kfac = math.factorial(k)
    for j in range(1, k + 1):
        lead = Fraction((-1) ** (j - 1), j)
        for parts in compositions(k, j):
            quad = sum(p * (p - 1) for p in parts)
            total += lead * Fraction(kfac * quad,
                                     math.prod(math.factorial(p) for p in parts))
    return total


def _value_fn(g) -> Callable:
    return getattr(g, "value", g)


def g_k_eval(g, points: Sequence[complex]) -> float:
    """Composition-sum statistic of k points: exact rational coefficients
    against float function values.  Vanishes identically on the diagonal."""
    val = _value_fn(g)
    vals = [float(np.real(val(np.asarray(p, dtype=complex)))) for p in points]
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
            coarse = one_pair(i, j, _FD_STEP)
            fine = one_pair(i, j, 0.5 * _FD_STEP)
            total += (4.0 * fine - coarse) / 3.0
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
    V(psi) followed by the full double angular sum.
    """
    n_radial, n_theta, r_max = 96, 112, 7.0
    x, w = leggauss(n_radial)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * w
    psi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    dtheta = 2.0 * np.pi / n_theta

    rr = r[:, None]
    pp = r[None, :]
    weight = (wr[:, None] * wr[None, :]) * (rr * pp) ** 2  # measure r dr * prefactor r
    V = np.empty(n_theta, dtype=complex)
    for l, ps in enumerate(psi):
        V[l] = np.sum(weight * np.exp(rr * pp * np.exp(1j * ps) - rr**2 - pp**2))

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


def _is_radial(g) -> bool:
    return bool(getattr(g, "radial", False))


def _angular_moment(M, rw, h):
    """A[j, l] = sum_r rw_r M[r, j] M[r, l] c(r, l - j) for real h on the
    (radial node, angle) product grid, c(r, d) the mean of h e^{i d theta}
    over ring r.  A is Hermitian, so it is filled from its diagonals d >= 0;
    frequencies alias mod n_theta exactly as the grid sum does."""
    n, n_theta = M.shape[1], h.shape[1]
    c = np.fft.ifft(h, axis=1) * rw[:, None]
    A = np.empty((n, n), dtype=complex)
    j = np.arange(n)
    for d in range(n):
        diag = (M[:, :n - d] * M[:, d:]).T @ c[:, d % n_theta]
        A[j[d:], j[:n - d]] = np.conj(diag)
        A[j[:n - d], j[d:]] = diag
    return A


def dpp_cumulant(kern: WeightedKernel, grid: QuadratureGrid, g, k: int) -> float:
    """Exact finite-n cumulant C_k of the linear statistic of g, any k >= 1:
    k! times the lambda^k coefficient of the Fredholm log-determinant
    log E e^{lambda sum g} = log det(I + sum_{p>=1} lambda^p A_p / p!).

    The moment matrices are the grid quadratures
    A_p[j, l] = sum_a w_a conj(psi_j(z_a)) g(z_a)^p psi_l(z_a).  With
    B_p = A_p / p! and the inverse series W_0 = I,
    W_q = -sum_{p<=q} B_p W_{q-p}, the derivative of the log-determinant
    gives C_k = (k-1)! sum_{p<=k} p tr(B_p W_{k-p}): O(k^2) products of
    n x n matrices.  psi_j(r e^{i theta}) = M[r, j] e^{i j theta} on the
    polar grid, so A_p comes by one of two routes:

    - radial g: A_p is a diagonal radial quadrature and the products are
      elementwise;
    - any other g: A_p[j, l] sums M[r, j] M[r, l] over r against the FFT of
      g^p on ring r at frequency l - j (``_angular_moment``): the grid sum in
      another order, exact for any n_theta.

    The trace guard checks the kernel's grid mass, tr A_0 = n.
    """
    if k < 1:
        raise ValueError("cumulant order must be >= 1")

    val = _value_fn(g)
    r = grid.radial_nodes
    rw = 2.0 * r * grid.radial_weights
    logm = kern.log_modes(r)  # log|psi_j(r)|: (radial node, mode)
    T = np.exp(2.0 * logm) * rw[:, None]
    trace = float(np.sum(T))
    if _is_radial(g):
        points, mul, tr = r.astype(complex), np.multiply, np.sum
        moment = lambda h: T.T @ h  # diagonal of A_p
    else:
        points, mul, tr = grid.nodes, np.matmul, np.trace
        M = np.exp(logm)
        moment = lambda h: _angular_moment(M, rw, h.reshape(r.size, grid.n_theta))
    if abs(trace - kern.n) > 1e-4:
        raise GridResolutionError(
            f"grid too coarse: trace {trace:.6f} deviates from n = {kern.n}")
    gv = np.asarray(np.real(val(points)), dtype=float)
    B = [None] + [moment(gv**p) / math.factorial(p) for p in range(1, k + 1)]
    W = [None]  # W_0 = I is never formed
    for q in range(1, k):
        W.append(-B[q] - sum(mul(B[p], W[q - p]) for p in range(1, q)))
    total = k * tr(B[k]) + sum(p * np.sum(B[p] * W[k - p].T) for p in range(1, k))
    total = complex(math.factorial(k - 1) * total)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"cumulant came out non-real: {total}")
    return float(total.real)
