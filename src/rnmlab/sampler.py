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
    """Knobs shared by the samplers; defaults are calibrated so the |z|^2
    field at n = 16 runs near 60% Metropolis acceptance."""

    master_seed: int = 0
    burn_in_sweeps: int = 2000
    thin_stride: int = 20
    proposal_scale: float = 1.0

    def __post_init__(self):
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")
        if self.thin_stride < 1:
            raise ValueError("thin_stride must be >= 1")
        if self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be > 0")


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


def mcmc_log_ratio(points: np.ndarray, i: int, proposal: complex,
                   pot: Potential, m: float) -> float:
    """Log target ratio of the single-particle move lambda_i -> proposal:
    2 sum_k log|prop - lam_k| - 2 sum_k log|lam_i - lam_k| - m (Q(prop) - Q(lam_i)).
    Returns -inf when the proposal collides with an existing point."""
    lam = points[i]
    others = np.delete(points, i)
    dp = np.abs(proposal - others)
    if np.any(dp == 0.0):
        return -np.inf
    dc = np.abs(lam - others)
    return float(2.0 * (np.sum(np.log(dp)) - np.sum(np.log(dc)))
                 - m * (float(pot.evaluate(proposal)) - float(pot.evaluate(lam))))


def sample_mcmc(pot: Potential, m: float, n: int, cfg: SamplerConfig,
                rng: np.random.Generator,
                chain_index: int = 0) -> Iterator[PointConfiguration]:
    """Metropolis chain for the joint eigenvalue density; yields a
    configuration every thin_stride sweeps after burn-in.

    A sweep is one Gaussian proposal per particle, in index order, with
    position-dependent scale s(z) = proposal_scale / sqrt(m max(lap Q(z), floor));
    because the scale moves with the particle, the acceptance ratio carries the
    usual asymmetric-proposal correction on top of the target ratio.

    Particle i is still at its sweep-start position x_i when its turn comes,
    so all but the pair term is one array over the n particles per sweep.
    Each sweep draws ``rng.standard_normal((2, n))`` (real and imaginary
    parts of the steps) and then ``rng.random(n)`` (the acceptance
    uniforms u), and forms s(x), the proposals
    y = x + s(x) sqrt(1/2) (xi_0 + i xi_1), the backward scale s(y), the field
    term -m (Q(y) - Q(x)), the correction
    (-|y - x|^2/s(y)^2 - 2 log s(y)) - (-|y - x|^2/s(x)^2 - 2 log s(x)) and
    log u.  Only the pair term 2 sum_{k != i} log(|y_i - lam_k| / |x_i - lam_k|)
    is computed in the loop over i, against the current positions lam; a
    collision (|y_i - lam_k| = 0) is a rejection.  ``mcmc_log_ratio`` is the
    scalar form of the target part of this ratio.
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

    def step_scale(z):
        return cfg.proposal_scale / np.sqrt(m * np.maximum(pot.laplacian(z), floor))

    points = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    accepted = 0
    warned = False
    sweep = 0
    while True:
        start = points.copy()
        s = step_scale(start)
        xi = rng.standard_normal((2, n))
        prop = start + s * np.sqrt(0.5) * (xi[0] + 1j * xi[1])
        s_back = step_scale(prop)
        d2 = np.abs(prop - start) ** 2
        log_rest = (-m * (pot.evaluate(prop) - pot.evaluate(start))
                    + (-d2 / s_back**2 - 2.0 * np.log(s_back))
                    - (-d2 / s**2 - 2.0 * np.log(s)))
        log_u = np.log(rng.random(n))
        with np.errstate(divide="ignore"):  # log 0 = -inf rejects a collision
            for i in range(n):
                num = prop[i] - points
                den = start[i] - points
                num[i] = den[i] = 1.0
                pair = 2.0 * np.sum(np.log(np.abs(num / den)))
                if log_u[i] < pair + log_rest[i]:
                    points[i] = prop[i]
                    accepted += 1
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
