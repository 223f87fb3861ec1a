"""Three routes to eigenvalue configurations of the planar ensemble: exact
sequential sampling of the determinantal projection process of a radial field
(the Hough-Krishnapur-Peres-Virag chain with proposals from R1/n and the
exact projection-residual acceptance), eigenvalues of a complex Gaussian
matrix (the |z|^2 field at m = n), and single-particle Metropolis sweeps for
general radial fields.

Reproducibility contract: a configuration is fully determined by
(master_seed, chain_index); per-chain generators come from
numpy.random.SeedSequence(master_seed, spawn_key=(chain_index,)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .orthopoly import WeightedKernel
from .potential import Potential, compute_droplet


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and Metropolis schedule shared by the samplers.  The Metropolis
    step has no scale knob; its rule (``sample_mcmc``) runs the |z|^2 field
    at n = 16 near 60% acceptance."""

    master_seed: int = 0
    burn_in_sweeps: int = 2000
    thin_stride: int = 20

    def __post_init__(self):
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")
        if self.thin_stride < 1:
            raise ValueError("thin_stride must be >= 1")


@dataclass(frozen=True)
class PointConfiguration:
    """One sampled eigenvalue configuration plus its provenance tags."""

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts.view(float))):
            raise ValueError("configuration contains non-finite points")


def stream_rng(master_seed: int, chain_index: int = 0) -> np.random.Generator:
    """Deterministic per-chain generator derived from the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(chain_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _soft_radius_check(points: np.ndarray, radius: float, meta: dict) -> None:
    peak = float(np.max(np.abs(points)))
    if peak > 2.0 * radius:
        meta["radius_warning"] = peak
        warnings.warn(f"sample reaches |z| = {peak:.3f} > 2R = {2*radius:.3f}",
                      RuntimeWarning)


# ---------------------------------------------------------------------------
# exact determinantal sampling


def sample_dpp(kern: WeightedKernel, cfg: SamplerConfig,
               rng: np.random.Generator) -> PointConfiguration:
    """Exact draw from the rank-n projection process of a radial kernel.

    Hough-Krishnapur-Peres-Virag chain: proposals are iid from R1/n (radius
    from ``kern.radial_law``, uniform angle), and at step i a proposal z is
    accepted with probability ||P psi(z)||^2 / ||psi(z)||^2, P the projection
    away from the features of the i points accepted so far.  The accepted
    density is then ||P psi(z)||^2 / (n - i), the exact conditional
    intensity, so there is no envelope to estimate; the expected number of
    proposals is n H_n.  The accepted feature vector joins the basis by
    Gram-Schmidt.  Every kernel has a radial basis: ``weighted_kernel``
    rejects a field without a radial profile (UnsupportedPotentialError).
    """
    law = kern.radial_law
    n = kern.n
    pool = int(np.ceil(2 * n * np.log(n + 1)))
    basis = np.zeros((n, n), dtype=complex)
    points = np.empty(n, dtype=complex)
    i = used = 0
    while i < n:
        u = rng.random((3, pool))
        z = law.quantile(u[0]) * np.exp(2j * np.pi * u[1])
        feats = kern.features(z)
        norm2 = np.sum(np.abs(feats) ** 2, axis=-1)
        resid = norm2 - np.sum(np.abs(feats @ basis[:i].conj().T) ** 2, axis=-1)
        bound = u[2] * norm2
        j = 0
        while i < n:
            hit = np.flatnonzero(bound[j:] < resid[j:])
            if not hit.size:
                j = pool
                break
            j += int(hit[0])
            v = feats[j] - (basis[:i].conj() @ feats[j]) @ basis[:i]
            basis[i] = v / np.sqrt(np.vdot(v, v).real)
            points[i] = z[j]
            resid -= np.abs(feats @ basis[i].conj()) ** 2
            i += 1
            j += 1
        used += j

    meta = {"sampler": "dpp", "potential": kern.potential.name, "m": kern.m, "n": n,
            "master_seed": cfg.master_seed, "restarts": 0, "proposals": used}
    out = PointConfiguration(points=points, meta=meta)
    _soft_radius_check(points, law.droplet_radius, meta)
    return out


# ---------------------------------------------------------------------------
# Gaussian matrix eigenvalues


def sample_ginibre_matrix(n: int, rng: np.random.Generator) -> PointConfiguration:
    """Eigenvalues of an n x n matrix of iid centered complex Gaussians with
    variance 1/n; realizes the |z|^2 ensemble at m = n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = np.sqrt(0.5 / n)
    mat = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = np.linalg.eigvals(mat)
    if not np.all(np.isfinite(lam.view(float))):
        raise RuntimeError("eigenvalue solver failed to converge")
    return PointConfiguration(points=lam, meta={"sampler": "matrix", "n": n,
                                                "potential": "ginibre", "m": n})


# ---------------------------------------------------------------------------
# Metropolis MCMC


def _log_dist2(a: np.ndarray, b: np.ndarray, own: np.ndarray) -> np.ndarray:
    """log |a_i - b_k|^2, with 0 (the square set to 1) at the flat indices
    ``own``: the entries of a particle against itself, which the pair sums
    leave out."""
    d2 = np.abs(a[:, None] - b) ** 2
    np.put(d2, own, 1.0)
    return np.log(d2)


def sample_mcmc(pot: Potential, m: float, n: int, cfg: SamplerConfig,
                rng: np.random.Generator,
                chain_index: int = 0) -> Iterator[PointConfiguration]:
    """Metropolis chain for the joint eigenvalue density; yields a
    configuration every thin_stride sweeps after burn-in.

    A sweep is one Gaussian proposal per particle, in index order, with
    position-dependent scale s(z) = 1 / sqrt(m max(lap Q(z), floor));
    because the scale moves with the particle, the acceptance ratio carries the
    usual asymmetric-proposal correction on top of the target ratio.

    Each sweep draws ``rng.standard_normal((2, n))`` (real and imaginary
    parts xi of the steps) and then ``rng.random(n)`` (the acceptance
    uniforms u).  From the sweep-start positions x it forms the proposals
    y = x + s(x) sqrt(1/2) (xi_0 + i xi_1), and per particle the field term
    -m (Q(y) - Q(x)) plus the correction e (1 - r) + log r, where
    e = |y - x|^2 / s(x)^2 = (xi_0^2 + xi_1^2) / 2 and r = s(x)^2 / s(y)^2.
    s and Q of the current positions are carried from sweep to sweep.

    The pair term is two n x n log-distance matrices per sweep:
    stay[i, k] = log(|y_i - x_k|^2 / |x_i - x_k|^2) is particle i's pair term
    while every other particle sits at its sweep-start position, and
    moved[i, k] = log(|y_i - y_k|^2 / |x_i - y_k|^2) its term against k once
    k has moved.  Row sums of stay plus the rest of the log ratio minus log u
    give each particle's margin.  Decisions then go in index order: particle
    i moves iff its margin is > 0, and a move adds (moved - stay)[k, i] to the
    margin of every later particle k, one slice update, so each particle sees
    the current positions of those before it, as in the one-particle-at-a-time
    chain.  log |x_i - x_k|^2 is carried from sweep to sweep too, so a sweep
    computes the n x 2n matrix log |y_i - (x, y)_k|^2 and n x n sums and
    differences, plus one Python-level comparison per particle.

    A zero distance is log 0 = -inf, which makes the margin -inf or NaN, so a
    collision is a rejection; so is (with probability zero) a proposal onto
    the sweep-start position of an earlier particle that has since moved.
    tests/test_sampler.py checks a sweep against a scalar one-move reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m / n <= 1.0 / pot.growth_exponent:
        raise ValueError(f"joint density not integrable: need m/n > "
                         f"1/rho = {1.0/pot.growth_exponent}")
    radius = compute_droplet(pot, n / m).radius
    # lap Q floor keeps the step finite where the field degenerates (origin
    # of higher power fields)
    floor = float(pot.laplacian(complex(0.5 * radius)))
    root_half = np.sqrt(0.5)

    def half_scale(z):
        # s(z) sqrt(1/2), the spread of each coordinate of a step; 1 / ... then
        # * root_half, an order that keeps every seeded chain bit-identical
        return 1.0 / np.sqrt(m * np.maximum(pot.laplacian(z), floor)) * root_half

    points = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    # own entries of the n x 2n matrix against (x, y): y_i - x_i and y_i - y_i
    own = np.arange(n) * (2 * n + 1)
    own = np.concatenate((own, own + n))
    # carried from sweep to sweep: s sqrt(1/2), Q and log|x_i - x_k|^2 at the
    # current positions
    half = half_scale(points)
    q = pot.evaluate(points)
    xx = _log_dist2(points, points, np.arange(n) * (n + 1))
    accepted = 0
    warned = False
    sweep = 0
    while True:
        xi = rng.standard_normal((2, n))
        prop = points + half * (xi[0] + 1j * xi[1])
        half_prop = half_scale(prop)
        q_prop = pot.evaluate(prop)
        r = (half / half_prop) ** 2
        log_rest = -m * (q_prop - q) + 0.5 * (xi ** 2).sum(axis=0) * (1.0 - r) + np.log(r)
        log_u = np.log(rng.random(n))
        with np.errstate(divide="ignore", invalid="ignore"):
            both = _log_dist2(prop, np.concatenate((points, prop)), own)
            yx, yy = both[:, :n], both[:, n:]  # log|y_i - x_k|^2, log|y_i - y_k|^2
            stay = yx - xx
            margin = stay.sum(axis=1) + (log_rest - log_u)
            # delta[i, k] = (moved - stay)[k, i], the change in k's margin
            # when i moves (the matrix is symmetric)
            delta = yy - yx.T - stay
            acc = np.zeros(n, dtype=bool)
            for i in range(n):
                if margin[i] > 0.0:
                    acc[i] = True
                    accepted += 1
                    margin[i + 1:] += delta[i, i + 1:]
        points = np.where(acc, prop, points)
        half = np.where(acc, half_prop, half)
        q = np.where(acc, q_prop, q)
        # entry (i, k) of the new xx by (i moved, k moved): yy, yx, yx.T, xx
        xx = np.where(acc[:, None], np.where(acc, yy, yx), np.where(acc, yx.T, xx))
        sweep += 1
        if sweep < cfg.burn_in_sweeps:
            continue
        if (sweep - cfg.burn_in_sweeps) % cfg.thin_stride:
            continue
        rate = accepted / (n * sweep)
        meta = {"sampler": "mcmc", "potential": pot.name, "m": m, "n": n,
                "master_seed": cfg.master_seed, "chain_index": chain_index,
                "sweep": sweep, "acceptance_rate": rate}
        if not (0.1 <= rate <= 0.7):
            meta["acceptance_warning"] = True
            if not warned:
                warnings.warn(f"Metropolis acceptance rate {rate:.2f} outside "
                              "[0.1, 0.7]", RuntimeWarning)
                warned = True
        out = PointConfiguration(points=points.copy(), meta=meta)
        _soft_radius_check(points, radius, meta)
        yield out


def collect_mcmc(pot: Potential, m: float, n: int, cfg: SamplerConfig,
                 rng: np.random.Generator, count: int,
                 chain_index: int = 0) -> list:
    """First ``count`` thinned configurations of one chain."""
    stream = sample_mcmc(pot, m, n, cfg, rng, chain_index=chain_index)
    return [next(stream) for _ in range(count)]
