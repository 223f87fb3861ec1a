import gc
import math
import sys
import threading
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import rnmlab.cumulants
from rnmlab.cumulants import (composition_terms, compositions,
                              diagonal_laplacian_check, dpp_cumulant,
                              g_k_eval, gaussian_pair_integrals,
                              mixed_derivative_sum, s_k, stirling2,
                              zero_sum_identity)
from rnmlab.orthopoly import (GridResolutionError, QuadratureGrid, WeightedKernel,
                              default_grid, weighted_kernel)
from rnmlab.potential import compute_droplet, make_ginibre, make_radial_power
from rnmlab.sampler import sample_ginibre_matrix, stream_rng
from rnmlab.statistics import (bump, equilibrium_integral, fluct_values,
                               variance_prediction)


# ---------------------------------------------------------------------------
# compositions and Stirling numbers


def test_compositions_count():
    # ordered compositions of k into j parts: C(k-1, j-1)
    for k in range(1, 9):
        for j in range(1, k + 1):
            got = sum(1 for _ in compositions(k, j))
            assert got == math.comb(k - 1, j - 1)


def brute_force_stirling(k, j):
    # count surjections of k labelled items onto j labelled classes / j!
    from itertools import product
    count = 0
    for assign in product(range(j), repeat=k):
        if len(set(assign)) == j:
            count += 1
    return Fraction(count, math.factorial(j))


def stirling2_recurrence(k, j):
    # second route: S(k, j) = j S(k-1, j) + S(k-1, j-1)
    table = [[Fraction(0)] * (j + 1) for _ in range(k + 1)]
    table[0][0] = Fraction(1)
    for kk in range(1, k + 1):
        for jj in range(1, min(kk, j) + 1):
            table[kk][jj] = jj * table[kk - 1][jj] + table[kk - 1][jj - 1]
    return table[k][j]


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(3, 3) == 1
    for k in range(1, 8):
        assert stirling2(k, 0) == 0
    assert stirling2(0, 0) == 1


def test_stirling_brute_force_and_recurrence():
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert stirling2(k, j) == brute_force_stirling(k, j)
            assert stirling2(k, j) == stirling2_recurrence(k, j)


@pytest.mark.parametrize("k", range(2, 11))
def test_zero_sum_identity_exact(k):
    assert zero_sum_identity(k) == 0


def test_zero_sum_identity_k1():
    assert zero_sum_identity(1) == 1


@pytest.mark.parametrize("k", range(2, 11))
def test_quadratic_sum_exact(k):
    assert s_k(k) == (2 if k == 2 else 0)


def generating_function_coefficient(k):
    """k! [t^k] of t^2 (1 - (1 - e^t)^k), exact series arithmetic."""
    order = k + 1
    # series of (1 - e^t) = -(t + t^2/2! + ...)
    base = [Fraction(0)] + [-Fraction(1, math.factorial(i)) for i in range(1, order + 1)]

    def mul(a, b):
        out = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j <= order:
                    out[i + j] += ai * bj
        return out

    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(k):
        power = mul(power, base)
    # t^2 * (1 - power): coefficient of t^k is (1 - power)[k - 2]
    coeff = (Fraction(1) if k == 2 else Fraction(0)) - power[k - 2]
    return coeff * math.factorial(k)


@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_quadratic_sum_generating_function_oracle(k):
    assert s_k(k) == generating_function_coefficient(k)


def test_composition_coefficients_sum_to_stirling():
    # sum over compositions at fixed j of k!/(k_1!..k_j!) = j! S(k, j)
    k = 6
    for j in range(1, k + 1):
        total = sum(t.coefficient for t in composition_terms(k) if t.j == j)
        expected = Fraction((-1) ** (j - 1), j) * math.factorial(j) * stirling2(k, j)
        assert total == expected


# ---------------------------------------------------------------------------
# the k-point composition statistic


def test_g2_closed_form():
    g = bump(0.0, 0.75)
    rng = np.random.default_rng(3)
    for _ in range(5):
        l1, l2 = (rng.random(2) - 0.5) + 1j * (rng.random(2) - 0.5)
        expected = g.value(l1) ** 2 - g.value(l1) * g.value(l2)
        assert g_k_eval(g, [l1, l2]) == pytest.approx(float(expected), abs=1e-14)


@pytest.mark.parametrize("k", range(2, 7))
def test_gk_vanishes_on_diagonal(k):
    g = bump(0.0, 0.75)
    rng = np.random.default_rng(k)
    for _ in range(4):
        lam = complex(rng.random() - 0.5, rng.random() - 0.5)
        assert abs(g_k_eval(g, [lam] * k)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_first_derivative_sum_vanishes_on_diagonal(k):
    # d/d lambda of G_k(lambda 1_k) = sum_i (d_i G_k): vanishes identically
    g = bump(0.0, 0.75)
    lam = 0.21 - 0.13j
    h = 1e-5
    for direction in (1.0, 1j):
        plus = g_k_eval(g, [lam + direction * h] * k)
        minus = g_k_eval(g, [lam - direction * h] * k)
        assert abs((plus - minus) / (2 * h)) < 1e-8


def test_diagonal_laplacian_k2_matches_gradient():
    g = bump(0.0, 0.5)
    check = diagonal_laplacian_check(g, 0.2, 2)
    assert check.reference > 0
    assert check.value == pytest.approx(check.reference, rel=1e-5)


def test_diagonal_laplacian_k3_vanishes():
    g = bump(0.0, 0.5)
    check = diagonal_laplacian_check(g, 0.2, 3)
    assert abs(check.value) < 1e-6


def test_mixed_derivative_k2_antiholomorphic():
    g = bump(0.0, 0.5)
    lam = 0.2 + 0.05j
    z2 = mixed_derivative_sum(g, lam, 2)
    grad = np.asarray(g.gradient(lam), dtype=float)
    # |dbar g|^2 = (gx^2 + gy^2)/4 for real g
    expected = -0.25 * float(np.sum(grad**2))
    assert z2.real == pytest.approx(expected, rel=1e-5)
    assert abs(z2.imag) < 1e-8


def test_mixed_derivative_k3_pure_imaginary():
    g = bump(0.0, 0.5)
    z3 = mixed_derivative_sum(g, 0.17 - 0.08j, 3)
    assert abs(z3.real) < 1e-6


# ---------------------------------------------------------------------------
# Gaussian pair integrals


def test_gaussian_pair_integrals():
    pairs = gaussian_pair_integrals()
    assert abs(pairs.J) < 1e-8
    assert abs(pairs.J_conj) < 1e-8
    assert abs(pairs.L_same) < 1e-8
    assert abs(pairs.L_opposite - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# trace-formula cumulants


@pytest.fixture(scope="module")
def ginibre_pot():
    return make_ginibre()


def test_first_cumulant_is_expected_trace(ginibre_pot):
    n = 16
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n)
    g = bump(0.0, 0.5)
    c1 = dpp_cumulant(kern, grid, g, 1)
    vals = np.asarray(np.real(g.value(grid.nodes)))
    direct = float(np.real(grid.integrate(vals * kern.one_point(grid.nodes))))
    assert c1 == pytest.approx(direct, abs=1e-8)


def test_second_cumulant_approaches_dirichlet_prediction(ginibre_pot):
    g = bump(0.0, 0.5)
    v_pred = variance_prediction(g)
    n = 128
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n)
    c2 = dpp_cumulant(kern, grid, g, 2)
    assert c2 >= 0.0
    assert abs(c2 - v_pred) <= 0.10 * v_pred


def test_third_cumulant_decays(ginibre_pot):
    g = bump(0.0, 0.5)
    out = {}
    for n in (32, 128):
        kern = weighted_kernel(ginibre_pot, float(n), n)
        grid = default_grid(ginibre_pot, float(n), n)
        out[n] = {k: dpp_cumulant(kern, grid, g, k) for k in (2, 3)}
    assert abs(out[128][3]) < abs(out[32][3])
    assert abs(out[128][3]) <= 0.05 * out[128][2] ** 1.5


def test_radial_and_general_paths_agree(ginibre_pot):
    n = 12
    g_rad = bump(0.0, 0.5)
    g_gen = bump(0.1, 0.5)  # off-center: forces the full moment-matrix path
    for pot in (ginibre_pot, make_radial_power(2)):
        kern = weighted_kernel(pot, float(n), n)
        grid = default_grid(pot, float(n), n, n_radial=200, n_theta=64)
        for k in (1, 2, 3, 4):
            fast = dpp_cumulant(kern, grid, g_rad, k)
            # same statistic through every frequency band by disabling the radial flag
            slow = dpp_cumulant(kern, grid, replace(g_rad, radial=False), k)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-10)
            dpp_cumulant(kern, grid, g_gen, k)  # must run without error


@pytest.mark.parametrize("pot", [make_ginibre(), make_radial_power(2)],
                         ids=["ginibre", "power2"])
def test_all_frequencies_match_ring_means_at_n512(pot):
    # every band d < n of the moment matrices carries the prefactor
    # e^{c_{j+l} - (log h_j + log h_l)/2}; at n = 512 it must stay finite
    # and leave the centred bump's C_2 where the d = 0 band puts it
    n = 512
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n)
    g = bump(0.0, 0.5)
    ring = dpp_cumulant(kern, grid, g, 2)
    full = dpp_cumulant(kern, grid, replace(g, radial=False), 2)
    assert np.isfinite(full)
    assert full == pytest.approx(ring, rel=0, abs=1e-12)


def test_cumulant_shift_invariance(ginibre_pot):
    # adding a constant on the whole plane shifts C_1 by n*c and leaves C_2
    # unchanged; emulate with a bump scaled against a wider bump since the
    # statistic must stay compactly supported
    n = 12
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n, n_radial=200, n_theta=64)
    g = bump(0.0, 0.5)
    t = 1.7
    scaled = replace(
        g,
        value=lambda z, f=g.value: t * f(z),
        gradient=lambda z, f=g.gradient: t * np.asarray(f(z)),
        laplacian_std=lambda z, f=g.laplacian_std: t * np.asarray(f(z)),
    )
    for k in (1, 2, 3, 4):
        ck = dpp_cumulant(kern, grid, g, k)
        ck_scaled = dpp_cumulant(kern, grid, scaled, k)
        assert ck_scaled == pytest.approx(t**k * ck, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("center, n, k_max, grid_kw", [
    pytest.param(0.0, 8, 9, {}, id="radial"),
    pytest.param(0.1, 12, 5, {"n_radial": 200, "n_theta": 64}, id="general"),
])
def test_recursion_matches_composition_route(ginibre_pot, center, n, k_max, grid_kw):
    # oracle: sum over the compositions of k of coefficient x
    # tr(A_{p_1} ... A_{p_j}), with A_p = F^H diag(g^p) F from the features
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n, **grid_kw)
    g = bump(center, 0.5)
    F = kern.features(grid.nodes) * np.sqrt(grid.weights)[:, None]
    gv = np.real(g.value(grid.nodes))
    A = {p: F.conj().T @ (gv[:, None] ** p * F) for p in range(1, k_max + 1)}
    for k in range(1, k_max + 1):
        oracle = sum(float(t.coefficient) * np.trace(reduce(np.matmul, [A[p] for p in t.parts]))
                     for t in composition_terms(k))
        assert abs(oracle.imag) < 1e-11
        assert dpp_cumulant(kern, grid, g, k) == pytest.approx(oracle.real, rel=0, abs=1e-11)


def _feature_route(kern, grid, g, k_max):
    """C_1..C_k_max from A_p = F^H diag(g^p) F on the feature rows, through
    the log-det recursion written out in full matrices."""
    F = kern.features(grid.nodes) * np.sqrt(grid.weights)[:, None]
    gv = np.real(g.value(grid.nodes))
    B = [None] + [F.conj().T @ (gv[:, None] ** p * F) / math.factorial(p)
                  for p in range(1, k_max + 1)]
    W = [np.eye(kern.n)]
    for q in range(1, k_max):
        W.append(-sum(B[p] @ W[q - p] for p in range(1, q + 1)))
    return {k: math.factorial(k - 1) * sum(p * np.trace(B[p] @ W[k - p])
                                           for p in range(1, k + 1)).real
            for k in range(1, k_max + 1)}


@pytest.mark.parametrize("n, grid_kw", [
    pytest.param(12, {"n_radial": 200, "n_theta": 16}, id="aliasing-n12-ntheta16"),
    pytest.param(64, {}, id="default-n64"),
])
def test_angular_route_is_exact_reordering(ginibre_pot, n, grid_kw):
    # the angular-FFT moment matrices are the feature-row quadrature summed
    # in another order, so they agree to rounding even when n_theta < 2n - 1
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n, **grid_kw)
    g = bump(0.3 + 0.2j, 0.4)
    oracle = _feature_route(kern, grid, g, 4)
    for k in range(1, 5):
        assert dpp_cumulant(kern, grid, g, k) == pytest.approx(oracle[k], rel=0, abs=1e-12)


def test_radial_basis_never_builds_features(ginibre_pot, monkeypatch):
    n = 16
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n)

    def no_features(self, z):
        raise AssertionError("feature matrix built for a radial-basis kernel")

    monkeypatch.setattr(WeightedKernel, "features", no_features)
    c2 = dpp_cumulant(kern, grid, bump(0.3 + 0.2j, 0.4), 2)
    assert 0.0 < c2 < 1.0


def test_moment_series_independent_of_call_order(ginibre_pot, monkeypatch):
    # the kernel's series is extended on demand and replaced when the grid
    # or the statistic changes; every value equals a fresh kernel's bit for bit
    n = 24
    grid = default_grid(ginibre_pot, float(n), n)
    other = default_grid(ginibre_pot, float(n), n, n_theta=128)
    g, h = bump(0.3 + 0.2j, 0.4), bump(0.0, 0.5)
    expect = {(id(gr), id(f), k): dpp_cumulant(weighted_kernel(ginibre_pot, float(n), n),
                                               gr, f, k)
              for gr in (grid, other) for f in (g, h) for k in (2, 3, 4)}
    built = []  # the orders p of every B_p built
    original = rnmlab.cumulants._moment_matrices
    monkeypatch.setattr(rnmlab.cumulants, "_moment_matrices",
                        lambda kern, gr, f, powers: built.extend(powers)
                        or original(kern, gr, f, powers))
    kern = weighted_kernel(ginibre_pot, float(n), n)
    for gr, f, k in [(grid, g, 4), (grid, g, 2), (other, g, 3), (grid, g, 3),
                     (grid, h, 2), (grid, g, 2), (grid, h, 4), (grid, h, 3)]:
        assert dpp_cumulant(kern, gr, f, k) == expect[id(gr), id(f), k]
    assert len(built) == 4 + 3 + 3 + 2 + 2 + 4  # one build per order of each new series
    built.clear()
    for k in (2, 3, 4):
        dpp_cumulant(kern, grid, g, k)
    assert len(built) == 4  # C_2, C_3, C_4 of one statistic: B_1..B_4 once


def test_moment_series_dies_with_its_kernel(ginibre_pot):
    n = 16
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid, replaced = (default_grid(ginibre_pot, float(n), n) for _ in range(2))
    g = bump(0.3 + 0.2j, 0.4)
    dpp_cumulant(kern, replaced, g, 3)
    dpp_cumulant(kern, grid, g, 3)
    refs = [weakref.ref(obj) for obj in (kern, grid, replaced)]
    del kern, grid, replaced
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_moment_series_shared_by_threads(ginibre_pot):
    # threads sharing one kernel replace its series whole: a lost store only
    # repeats work, and every value still equals a fresh kernel's
    n = 16
    grid = default_grid(ginibre_pot, float(n), n, n_theta=64)
    stats = [bump(0.3 + 0.2j, 0.4), bump(-0.2j, 0.3), bump(0.0, 0.5)]
    jobs = [(f, k) for f in stats for k in (4, 2, 3)]
    expect = [dpp_cumulant(weighted_kernel(ginibre_pot, float(n), n), grid, f, k)
              for f, k in jobs]
    kern = weighted_kernel(ginibre_pot, float(n), n)
    results, errors = {}, []

    def worker(w):
        try:
            for rep in range(3):
                for i in range(w, w + len(jobs)):
                    i %= len(jobs)
                    results[w, rep, i] = dpp_cumulant(kern, grid, *jobs[i])
        except Exception as exc:  # reported below: a thread's error is lost otherwise
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 6 * 3 * len(jobs)
    assert all(v == expect[i] for (_, _, i), v in results.items())


def test_grid_gate_rejects_coarse_grid(ginibre_pot):
    n = 32
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = QuadratureGrid.disk(0.8, n_radial=30, n_theta=16)  # truncates the mass
    with pytest.raises(GridResolutionError):
        dpp_cumulant(kern, grid, bump(0.0, 0.5), 2)


def test_trace_cumulants_match_empirical(ginibre_pot):
    n = 16
    kern = weighted_kernel(ginibre_pot, float(n), n)
    grid = default_grid(ginibre_pot, float(n), n)
    drop = compute_droplet(ginibre_pot, 1.0)
    g = bump(0.0, 0.5)
    rng = stream_rng(424242, 0)
    samples = [sample_ginibre_matrix(n, rng) for _ in range(10_000)]
    x = fluct_values(samples, g, drop) + n * equilibrium_integral(g, drop)
    c1 = dpp_cumulant(kern, grid, g, 1)
    c2 = dpp_cumulant(kern, grid, g, 2)
    nsamp = len(x)
    assert abs(x.mean() - c1) <= 3.0 * x.std(ddof=1) / np.sqrt(nsamp)
    assert abs(x.var(ddof=1) - c2) <= 3.0 * x.var(ddof=1) * np.sqrt(2.0 / (nsamp - 1))
