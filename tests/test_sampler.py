from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare, gamma, ks_2samp

from rnmlab.orthopoly import (GridResolutionError, WeightedKernel,
                              radial_norms, weighted_kernel)
from rnmlab.potential import compute_droplet, make_ginibre, make_radial_power
from rnmlab.sampler import (SamplerConfig, collect_mcmc, mcmc_log_ratio,
                            sample_dpp, sample_ginibre_matrix, sample_mcmc,
                            stream_rng)
from rnmlab.statistics import bump, trace_statistic

from conftest import spline_field


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(thin_stride=0)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in_sweeps=-1)
    with pytest.raises(ValueError):
        SamplerConfig(proposal_scale=0.0)


def test_stream_rng_deterministic_and_distinct():
    a = stream_rng(123, 0).random(4)
    b = stream_rng(123, 0).random(4)
    c = stream_rng(123, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# exact determinantal sampler


def test_dpp_determinism(kern16):
    cfg = SamplerConfig(master_seed=99)
    s1 = sample_dpp(kern16, cfg, stream_rng(99, 0))
    s2 = sample_dpp(kern16, cfg, stream_rng(99, 0))
    assert np.array_equal(s1.points, s2.points)


def test_dpp_single_point_density_chi2():
    # n = 1, m = 1: the output density is e^{-|z|^2}, so |z|^2 ~ Exp(1)
    pot = make_ginibre()
    kern = weighted_kernel(pot, 1.0, 1)
    cfg = SamplerConfig(master_seed=5)
    rng = stream_rng(5, 0)
    draws = np.array([abs(sample_dpp(kern, cfg, rng).points[0]) ** 2
                      for _ in range(2000)])
    with np.errstate(divide="ignore"):  # top edge is deliberately +inf
        edges = -np.log(1.0 - np.linspace(0.0, 1.0, 21))  # Exp(1) quantiles
    counts, _ = np.histogram(draws, bins=edges)
    stat, pvalue = chisquare(counts)
    assert pvalue > 0.01


def test_dpp_mean_trace_abs2(dpp_bank_n16, kern16, grid16):
    vals = np.array([float(np.sum(np.abs(c.points) ** 2)) for c in dpp_bank_n16])
    target = float(np.real(grid16.integrate(
        np.abs(grid16.nodes) ** 2 * kern16.one_point(grid16.nodes))))
    # the quadrature target telescopes to sum_k h_{k+1}/h_k = n(n+1)/(2m)
    basis16 = radial_norms(make_ginibre(), 16.0, 17)
    h = basis16.norms
    assert target == pytest.approx(sum(h[k + 1] / h[k] for k in range(16)), rel=1e-8)
    assert target == pytest.approx(16 * 17 / (2 * 16.0), rel=1e-8)
    mcse = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * mcse


def test_dpp_sample_size_and_finiteness(dpp_bank_n16):
    for c in dpp_bank_n16[:50]:
        assert len(c.points) == 16
        assert np.all(np.isfinite(c.points.view(float)))
        assert c.meta["sampler"] == "dpp"
        assert c.meta["restarts"] == 0
        assert c.meta["proposals"] >= 16


@pytest.mark.parametrize("p", [1, 2])
def test_radial_law_matches_kostlan_mixture(p):
    # mode k of the power-p field puts m|z|^(2p) ~ Gamma((k+1)/p) (Kostlan's
    # law at p = 1), so the proposal law R1/n is the uniform mixture over k
    n, m = 16, 16.0
    law = weighted_kernel(make_radial_power(p), m, n).radial_law
    t = m * law.edges ** (2 * p)
    exact = np.mean([gamma.cdf(t, (k + 1) / p) for k in range(n)], axis=0)
    assert np.max(np.abs(law.table - exact)) <= 1e-12
    u = np.linspace(0.0, 1.0, 2001)[:-1]
    r = law.quantile(u)
    assert np.max(np.abs(law.cdf(r) - u)) <= 1e-12
    t = m * r ** (2 * p)
    assert np.max(np.abs(np.mean([gamma.cdf(t, (k + 1) / p) for k in range(n)], axis=0)
                         - u)) <= 1e-12


@pytest.mark.parametrize("field, seed", [("power2", 41), ("spline", 42)])
def test_dpp_mean_square_sum_exact(field, seed):
    # E sum |z|^2 = sum_k E|z|^2 under mode k = sum_{k<n} h_{k+1} / h_k
    pot = make_radial_power(2) if field == "power2" else spline_field()
    n, m = 8, 8.0
    kern = weighted_kernel(pot, m, n)
    cfg = SamplerConfig(master_seed=seed)
    rng = stream_rng(seed, 0)
    vals = np.array([np.sum(np.abs(sample_dpp(kern, cfg, rng).points) ** 2)
                     for _ in range(2000)])
    h = radial_norms(pot, m, n + 1).norms
    exact = float(np.sum(h[1:] / h[:-1]))
    mcse = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3.0 * mcse


def test_radial_law_trace_guard():
    # norms off by 1e-6 make the mass of R1/n differ from 1: trace != n
    basis = radial_norms(make_ginibre(), 8.0, 8)
    kern = WeightedKernel(replace(basis, log_norms=basis.log_norms + 1e-6), basis.potential)
    with pytest.raises(GridResolutionError):
        kern.radial_law


# ---------------------------------------------------------------------------
# Gaussian matrix route


def test_matrix_mean_square_radius(matrix_bank_n16):
    # equilibrium limit: int |z|^2 d sigma_1 = 2 int_0^1 r^3 dr = 1/2; at
    # finite n the exact expectation is (n+1)/(2n), and 2000 samples resolve
    # that 1/(2n) gap, so the sharp oracle is the finite-n value
    n = 16
    vals = np.array([np.mean(np.abs(c.points) ** 2) for c in matrix_bank_n16])
    mcse = vals.std(ddof=1) / np.sqrt(len(vals))
    exact = (n + 1) / (2.0 * n)
    assert abs(vals.mean() - exact) <= 3.0 * mcse
    assert abs(vals.mean() - 0.5) <= 1.0 / (2 * n) + 3.0 * mcse


def test_matrix_circular_law_concentration(matrix_bank_n64):
    frac = np.mean([np.mean(np.abs(c.points) > 1.1) for c in matrix_bank_n64])
    assert frac < 0.01


def test_matrix_vs_dpp_radius_distribution(matrix_bank_n16, dpp_bank_n16):
    r_mat = np.concatenate([np.abs(c.points) for c in matrix_bank_n16[:400]])
    r_dpp = np.concatenate([np.abs(c.points) for c in dpp_bank_n16[:400]])
    stat, pvalue = ks_2samp(r_mat, r_dpp)
    assert pvalue > 0.01


def test_matrix_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_ginibre_matrix(0, stream_rng(1, 0))


# ---------------------------------------------------------------------------
# Metropolis route


def test_mcmc_one_point_histogram_chi2(mcmc_bank_n16, kern16):
    # all points pooled against the normalized one-point density R1/n,
    # radially binned with equal-probability bins from the quadrature CDF
    pts = np.concatenate([c.points for c in mcmc_bank_n16])
    radii = np.abs(pts)
    rgrid = np.linspace(0.0, 3.0, 2001)
    dens = kern16.one_point(rgrid.astype(complex)) * 2.0 * rgrid / 16.0
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * np.diff(rgrid) / 2)])
    cdf /= cdf[-1]
    probs = np.linspace(0.0, 1.0, 16)[1:-1]
    edges = np.concatenate([[0.0], np.interp(probs, cdf, rgrid), [np.inf]])
    counts, _ = np.histogram(radii, bins=edges)
    stat, pvalue = chisquare(counts)
    assert pvalue > 0.01


def test_mcmc_quartic_support_radius():
    pot = make_radial_power(2)
    cfg = SamplerConfig(master_seed=31, burn_in_sweeps=800, thin_stride=10)
    samples = collect_mcmc(pot, 16.0, 16, cfg, stream_rng(31, 0), 150)
    top = np.array([np.max(np.abs(c.points)) for c in samples])
    target = 2.0 ** -0.25
    assert abs(np.median(top) - target) <= 0.1


def test_mcmc_acceptance_rate_registered(mcmc_bank_n16):
    rate = mcmc_bank_n16[-1].meta["acceptance_rate"]
    assert 0.1 <= rate <= 0.7


def test_mcmc_determinism():
    pot = make_ginibre()
    cfg = SamplerConfig(master_seed=8, burn_in_sweeps=50, thin_stride=5)
    a = collect_mcmc(pot, 8.0, 8, cfg, stream_rng(8, 0), 3)
    b = collect_mcmc(pot, 8.0, 8, cfg, stream_rng(8, 0), 3)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)


def _reference_mcmc(pot, m, n, cfg, rng, count):
    """One particle at a time, as documented for ``sample_mcmc``: per sweep
    the generator gives standard_normal((2, n)), then random(n); each step
    uses ``mcmc_log_ratio`` against the current positions plus the
    asymmetric-proposal correction."""
    radius = compute_droplet(pot, n / m).radius
    floor = float(pot.laplacian(complex(0.5 * radius)))

    def scale(z):
        return cfg.proposal_scale / np.sqrt(m * max(float(pot.laplacian(z)), floor))

    pts = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    accepted, sweep, out = 0, 0, []
    while len(out) < count:
        xi = rng.standard_normal((2, n))
        u = rng.random(n)
        for i in range(n):
            x = pts[i]
            s = scale(x)
            y = x + s * np.sqrt(0.5) * complex(xi[0, i], xi[1, i])
            log_t = mcmc_log_ratio(pts, i, y, pot, m)
            if np.isfinite(log_t):
                s_back = scale(y)
                d2 = abs(y - x) ** 2
                log_t += (-d2 / s_back**2 - 2.0 * np.log(s_back)) \
                    - (-d2 / s**2 - 2.0 * np.log(s))
            if np.log(u[i]) < log_t:
                pts[i] = y
                accepted += 1
        sweep += 1
        if sweep >= cfg.burn_in_sweeps and \
                (sweep - cfg.burn_in_sweeps) % cfg.thin_stride == 0:
            out.append((pts.copy(), accepted / (n * sweep)))
    return out


@pytest.mark.filterwarnings("ignore:Metropolis acceptance rate")  # 1-sweep burn-in
@pytest.mark.parametrize("field", ["ginibre", "power2"])
def test_mcmc_sweep_matches_scalar_reference(field):
    # power-2 has a non-constant lap Q, so the correction term is exercised;
    # a step that reads sweep-start instead of current positions fails here
    pot = make_ginibre() if field == "ginibre" else make_radial_power(2)
    n, m = 8, 8.0
    cfg = SamplerConfig(master_seed=11, burn_in_sweeps=1, thin_stride=1)
    got = collect_mcmc(pot, m, n, cfg, stream_rng(11, 0), 3)
    want = _reference_mcmc(pot, m, n, cfg, stream_rng(11, 0), 3)
    for conf, (pts, rate) in zip(got, want):
        assert np.max(np.abs(conf.points - pts)) <= 1e-12
        assert conf.meta["acceptance_rate"] == rate


def test_mcmc_mean_square_sum_exact():
    # Kostlan's exact E sum |z|^2 (as in test_dpp_mean_square_sum_exact) on a
    # field with non-constant lap Q; the MCSE is from 20 batch means, so it
    # allows for the chain's autocorrelation
    pot = make_radial_power(2)
    n, m = 8, 8.0
    cfg = SamplerConfig(master_seed=43, burn_in_sweeps=500, thin_stride=10)
    vals = np.array([np.sum(np.abs(c.points) ** 2)
                     for c in collect_mcmc(pot, m, n, cfg, stream_rng(43, 0), 1000)])
    h = radial_norms(pot, m, n + 1).norms
    exact = float(np.sum(h[1:] / h[:-1]))
    batch_means = vals.reshape(20, -1).mean(axis=1)
    mcse = batch_means.std(ddof=1) / np.sqrt(len(batch_means))
    assert abs(vals.mean() - exact) <= 4.0 * mcse


def test_mcmc_log_ratio_reciprocal():
    # Metropolis identity: the target log-ratio of a move and its reverse sum
    # to zero (detailed balance of the accept rule)
    pot = make_ginibre()
    rng = stream_rng(77, 0)
    pts = (rng.random(8) - 0.5) + 1j * (rng.random(8) - 0.5)
    prop = 0.3 - 0.2j
    forward = mcmc_log_ratio(pts, 2, prop, pot, 8.0)
    swapped = pts.copy()
    swapped[2] = prop
    backward = mcmc_log_ratio(swapped, 2, pts[2], pot, 8.0)
    assert forward == pytest.approx(-backward, abs=1e-12)


def test_mcmc_collision_rejected():
    pot = make_ginibre()
    pts = np.array([0.1 + 0.1j, -0.2j, 0.5])
    assert mcmc_log_ratio(pts, 0, pts[1], pot, 4.0) == -np.inf


def test_mcmc_integrability_guard():
    pot = make_ginibre()  # growth exponent 4
    cfg = SamplerConfig(master_seed=1)
    with pytest.raises(ValueError, match="integrable"):
        next(sample_mcmc(pot, 1.0, 8, cfg, stream_rng(1, 0)))


# ---------------------------------------------------------------------------
# shared invariants


def test_exchangeability_of_statistics(dpp_bank_n16, ginibre_droplet):
    g = bump(0.0, 0.5)
    rng = np.random.default_rng(0)
    for c in dpp_bank_n16[:10]:
        perm = c.points[rng.permutation(len(c.points))]
        from rnmlab.sampler import PointConfiguration
        assert trace_statistic(PointConfiguration(points=perm, meta={}), g) == \
            pytest.approx(trace_statistic(c, g), rel=1e-14)


def test_cross_sampler_trace_statistic_ks(dpp_bank_n16, matrix_bank_n16,
                                          mcmc_bank_n16, ginibre_droplet):
    g = bump(0.0, 0.5)
    banks = {"dpp": dpp_bank_n16, "matrix": matrix_bank_n16, "mcmc": mcmc_bank_n16}
    traces = {k: np.array([trace_statistic(c, g) for c in v])
              for k, v in banks.items()}
    for a, b in [("dpp", "matrix"), ("dpp", "mcmc"), ("matrix", "mcmc")]:
        stat, pvalue = ks_2samp(traces[a], traces[b])
        assert pvalue > 0.01, (a, b, pvalue)
