"""Linear eigenvalue statistics: fluctuation values, empirical cumulants with
Monte Carlo error bars, the Gaussian-limit predictions (mean from the
correction measure, variance from the Dirichlet integral), exponential
tilting consistency, and the constant-Laplacian boundary formulas.

Gradient and Laplacian conventions: ``gradient`` is the usual R^2 gradient
and ``laplacian_std`` the classical Laplacian; the quarter-Laplacian used by
the kernel expansion is converted explicitly at every call site.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .potential import Droplet, Potential
from .sampler import PointConfiguration
from .orthopoly import QuadratureGrid, UnsupportedPotentialError


class SupportError(ValueError):
    """Test function support violates a bulk-support precondition."""


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A smooth real statistic with its first two derivatives.

    ``support_center``/``support_radius`` describe a compact support disk;
    both None means globally supported.  ``radial`` marks invariance under
    rotations about the origin, which some evaluators exploit.
    """

    value: Callable
    gradient: Callable
    laplacian_std: Callable
    support_center: Optional[complex] = None
    support_radius: Optional[float] = None
    radial: bool = False

    @property
    def compactly_supported(self) -> bool:
        return self.support_radius is not None


def _smooth_step(s, order=0):
    """phi(s) = exp(1 - 1/(1 - s)) for s < 1, 0 from s = 1 on: the profile of
    ``bump`` (s = |z - c|^2 / r^2) and of ``re_coordinate``'s taper (s = t^2).
    At order 1 or 2, the list [phi, phi'] or [phi, phi', phi''], each 0 from
    s = 1 on; phi(0) = 1 and phi'(0) = phi''(0) = -1."""
    inside = s < 1.0
    s = np.where(inside, s, 0.5)
    g = np.exp(1.0 - 1.0 / (1.0 - s))
    out = [np.where(inside, g, 0.0)]
    if order >= 1:
        out.append(np.where(inside, -g / (1.0 - s) ** 2, 0.0))
    if order >= 2:
        out.append(np.where(inside, g * (1.0 / (1.0 - s) ** 4 - 2.0 / (1.0 - s) ** 3), 0.0))
    return out if order else out[0]


def bump(center: complex = 0.0, radius: float = 0.5) -> TestFunction:
    """The standard plateau-free bump: exp(1 - 1/(1 - |z-c|^2/r^2)) inside the
    disk, 0 outside, with closed-form gradient and classical Laplacian."""
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    c = complex(center)
    r2 = float(radius) ** 2

    def _u(z):
        return (np.abs(z - c) ** 2) / r2

    def value(z):
        return _smooth_step(_u(np.asarray(z, dtype=complex)))

    def gradient(z):
        z = np.asarray(z, dtype=complex)
        fac = _smooth_step(_u(z), 1)[1] * (2.0 / r2)
        return np.stack([fac * (z.real - c.real), fac * (z.imag - c.imag)], axis=-1)

    def laplacian_std(z):
        u = _u(np.asarray(z, dtype=complex))
        _, d1, d2 = _smooth_step(u, 2)
        # lap phi(u(z)) = phi''(u) |grad u|^2 + phi'(u) lap u,  |grad u|^2 = 4u/r^2,
        # lap u = 4/r^2; u is capped so that the zeros outside stay 0 at u = inf
        return d2 * (4.0 * np.minimum(u, 1.0) / r2) + d1 * (4.0 / r2)

    return TestFunction(value=value, gradient=gradient, laplacian_std=laplacian_std,
                        support_center=c, support_radius=float(radius),
                        radial=(c == 0.0))


def re_coordinate(taper_start: float = 2.0, taper_end: float = 3.0) -> TestFunction:
    """Re(z) w(|z|), w = phi(t^2) with t = (r - taper_start) / (taper_end -
    taper_start) clipped to [0, 1].  Globally supported; the taper sits far
    outside any droplet of interest so samples never see it."""
    if not (0 < taper_start < taper_end):
        raise ValueError("need 0 < taper_start < taper_end")
    a, bnd = float(taper_start), float(taper_end)
    width = bnd - a

    def _polar(z):
        z = np.asarray(z, dtype=complex)
        r = np.maximum(np.abs(z), 1e-300)
        return z, r, np.clip((r - a) / width, 0.0, 1.0)

    def value(z):
        z, _, t = _polar(z)
        return z.real * _smooth_step(t**2)

    def gradient(z):
        z, r, t = _polar(z)
        w, dw = _smooth_step(t**2, 1)
        dw *= 2.0 * t / width  # in place: phi'(t^2) becomes w'(r)
        gx = w + z.real * dw * (z.real / r)
        gy = z.real * dw * (z.imag / r)
        return np.stack([gx, gy], axis=-1)

    def laplacian_std(z):
        # lap(x w(r)) = x (w'' + w'/r) + 2 w' x/r = x (w'' + 3 w'/r); w'' jumps
        # at taper_start (phi'(0) = -1), and the plateau inside is flat
        z, r, t = _polar(z)
        _, d1, d2 = _smooth_step(t**2, 2)
        dw = d1 * (2.0 * t / width)
        d2w = (d2 * (4.0 * t**2) + 2.0 * d1) / width**2
        return np.where(t > 0.0, z.real * (d2w + 3.0 * dw / r), 0.0)

    return TestFunction(value=value, gradient=gradient, laplacian_std=laplacian_std,
                        support_center=None, support_radius=None, radial=False)


# ---------------------------------------------------------------------------
# quadrature helpers on a support disk


def _disk_integral(center: complex, radius: float, fn, radial: bool = False) -> float:
    """int of fn over the disk |z - center| <= radius against dA, on
    ``QuadratureGrid.disk(radius)`` ring by ring (``ring_means``)."""
    grid = QuadratureGrid.disk(radius)
    return float(grid.ring_weights @ grid.ring_means(fn, center, radial))


@lru_cache(maxsize=32)
def gradient_pair_integral(f: TestFunction, g: TestFunction) -> float:
    """int grad f . grad g dA, cached per pair of statistics.  The integrand
    vanishes outside either support, so the rule covers the smaller disk."""
    for t in (f, g):
        if not t.compactly_supported:
            raise SupportError("gradient integrals need compact supports")
    t = f if f.support_radius <= g.support_radius else g
    return _disk_integral(t.support_center, t.support_radius, lambda z: np.sum(
        np.asarray(f.gradient(z)) * np.asarray(g.gradient(z)), axis=-1), f.radial and g.radial)


def variance_prediction(g: TestFunction) -> float:
    """Limiting fluctuation variance (1/4) int |grad g|^2 dA."""
    return 0.25 * gradient_pair_integral(g, g)


def covariance_prediction(f: TestFunction, g: TestFunction) -> float:
    return 0.25 * gradient_pair_integral(f, g)


@lru_cache(maxsize=32)
def equilibrium_integral(g: TestFunction, drop: Droplet) -> float:
    """int g d(sigma_tau), cached per (statistic, droplet)."""
    return _disk_integral(0.0, drop.radius, lambda z: g.value(z) * drop.equilibrium_density(z),
                          g.radial)


@lru_cache(maxsize=32)
def mean_prediction(g: TestFunction, drop: Droplet) -> float:
    """Limiting fluctuation mean: the correction-measure integral of g, its
    density part on the disk plus sum mass * g(point) over the field's atoms
    (the origin of a power field |z|^(2p), p >= 2)."""
    total = _disk_integral(0.0, drop.radius, lambda z: g.value(z) * drop.nu_density(z), g.radial)
    for point, mass in drop.potential.subleading_atoms:
        total += mass * float(np.real(g.value(complex(point))))
    return total


# ---------------------------------------------------------------------------
# fluctuations and empirical reports


def trace_statistic(cfg: PointConfiguration, g: TestFunction) -> float:
    return float(np.sum(np.real(g.value(cfg.points))))


def fluct_values(samples: Sequence[PointConfiguration], g: TestFunction,
                 drop: Droplet) -> np.ndarray:
    """sum_j g(lambda_j) - n int g d(sigma_tau) for every configuration of a
    bank, with g evaluated once over the stacked (N, n) points; a bank of
    mixed sizes n raises ValueError."""
    if len(samples) == 0:
        return np.empty(0)
    sizes = sorted({c.points.size for c in samples})
    if len(sizes) > 1:
        raise ValueError(f"fluct_values needs configurations of one size, got sizes {sizes}")
    points = np.stack([c.points for c in samples])
    return np.sum(np.real(g.value(points)), axis=1) \
        - points.shape[1] * equilibrium_integral(g, drop)


def _skewness(x):
    x = np.asarray(x, dtype=float)
    s = x.std(ddof=1)
    return float(np.mean((x - x.mean()) ** 3) / s**3)


def _excess_kurtosis(x):
    x = np.asarray(x, dtype=float)
    s = x.std(ddof=1)
    return float(np.mean((x - x.mean()) ** 4) / s**4 - 3.0)


def _se_skewness(n):
    return np.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))


def _se_kurtosis(n):
    return 2.0 * _se_skewness(n) * np.sqrt((n**2 - 1.0) / ((n - 3) * (n + 5)))


def jarque_bera(x) -> float:
    """Moment-based normality statistic; chi^2_2 under the Gaussian null
    (1% critical value 9.21)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return n * (_skewness(x) ** 2 / 6.0 + _excess_kurtosis(x) ** 2 / 24.0)


@dataclass(frozen=True)
class FluctuationReport:
    n_samples: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    mcse_mean: float
    mcse_variance: float
    mcse_skewness: float
    mcse_kurtosis: float
    predicted_mean: float
    predicted_variance: float


def clt_report(samples: Sequence[PointConfiguration], g: TestFunction,
               drop: Droplet, pot: Potential) -> FluctuationReport:
    """Empirical moments of the fluctuation statistic with Monte Carlo
    standard errors, next to the Gaussian-limit predictions.  The statistic
    must be supported well inside the droplet."""
    if not g.compactly_supported or \
            abs(g.support_center) + g.support_radius > 0.9 * drop.radius:
        raise SupportError("test function not bulk-supported")
    if len(samples) < 4:
        raise ValueError(f"clt_report needs at least 4 samples, got {len(samples)}")
    x = fluct_values(samples, g, drop)
    n = len(x)
    var = float(x.var(ddof=1))
    return FluctuationReport(
        n_samples=n,
        mean=float(x.mean()),
        variance=var,
        skewness=_skewness(x),
        excess_kurtosis=_excess_kurtosis(x),
        mcse_mean=float(x.std(ddof=1) / np.sqrt(n)),
        mcse_variance=float(var * np.sqrt(2.0 / (n - 1))),
        mcse_skewness=float(_se_skewness(n)),
        mcse_kurtosis=float(_se_kurtosis(n)),
        predicted_mean=mean_prediction(g, drop),
        predicted_variance=variance_prediction(g),
    )


class CovarianceCheck(NamedTuple):
    empirical: float
    predicted: float
    mcse: float


def covariance_check(samples: Sequence[PointConfiguration], f: TestFunction,
                     g: TestFunction, drop: Droplet) -> CovarianceCheck:
    """Empirical covariance of the two fluctuation statistics against the
    polarized Dirichlet prediction (1/4) int grad f . grad g dA."""
    if len(samples) < 2:
        raise ValueError(f"covariance_check needs at least 2 samples, got {len(samples)}")
    xf = fluct_values(samples, f, drop)
    xg = fluct_values(samples, g, drop)
    n = len(xf)
    cov = float(np.cov(xf, xg, ddof=1)[0, 1])
    se = np.sqrt((xf.var(ddof=1) * xg.var(ddof=1) + cov**2) / (n - 1))
    return CovarianceCheck(empirical=cov, predicted=covariance_prediction(f, g),
                           mcse=float(se))


# ---------------------------------------------------------------------------
# exponential tilting


@dataclass(frozen=True)
class TiltingRow:
    lam: float
    derivative: float
    prediction: float
    ess_fraction: float


@dataclass(frozen=True)
class TiltingResult:
    rows: tuple
    slope: float
    slope_prediction: float
    intercept: float
    second_derivative_min: float
    low_ess: bool


def tilting_check(samples: Sequence[PointConfiguration], g: TestFunction,
                  lam_grid: Sequence[float], drop: Droplet) -> TiltingResult:
    """Derivative of the tilted log-moment-generating function of the
    fluctuation statistic over a bank, by reweighted Monte Carlo, against the
    affine prediction  e_g + lam * (1/4) int |grad g|^2 dA.  A lambda whose
    effective sample size falls below 5% of the bank sets ``low_ess``.
    """
    x = fluct_values(samples, g, drop)

    v_pred = variance_prediction(g)
    e_pred = mean_prediction(g, drop)
    rows = []
    derivs = []
    second_min = np.inf
    low_ess = False
    for lam in lam_grid:
        logw = lam * x
        logw -= logw.max()
        w = np.exp(logw)
        wsum = w.sum()
        ess = wsum**2 / (np.sum(w**2) * len(x))
        if ess < 0.05:
            low_ess = True
            warnings.warn(f"effective sample size {ess:.1%} at lambda={lam}; "
                          "enlarge the sample", RuntimeWarning)
        mean_w = float(np.sum(w * x) / wsum)
        var_w = float(np.sum(w * (x - mean_w) ** 2) / wsum)
        second_min = min(second_min, var_w)
        derivs.append(mean_w)
        rows.append(TiltingRow(lam=float(lam), derivative=mean_w,
                               prediction=e_pred + lam * v_pred,
                               ess_fraction=float(ess)))
    slope, intercept = np.polyfit(np.asarray(lam_grid, dtype=float),
                                  np.asarray(derivs), 1)
    return TiltingResult(rows=tuple(rows), slope=float(slope),
                         slope_prediction=v_pred, intercept=float(intercept),
                         second_derivative_min=float(second_min), low_ess=low_ess)


# ---------------------------------------------------------------------------
# boundary statistics (constant-Laplacian fields, disk droplet)


class BoundaryPrediction(NamedTuple):
    e_f: float
    v_f2: float
    interior_energy: float
    exterior_energy: float


def boundary_statistics(f: TestFunction, drop: Droplet) -> BoundaryPrediction:
    """Limit mean and variance of the fluctuation of a global statistic for a
    constant-Laplacian (Hele-Shaw type) field with disk droplet:

        e_f  = (1/4) int_boundary dn f ds           (ds = arclength / 2 pi)
        v_f2 = (1/4) [ int_disk |grad f|^2 dA
                       + Dirichlet energy of the bounded harmonic extension ]

    The harmonic extension is built from the Fourier coefficients of the
    boundary restriction; a non-constant Laplacian near the droplet raises
    UnsupportedPotentialError (the general mean formula carries extra terms
    that are out of scope here).
    """
    R = drop.radius
    pot = drop.potential
    probe = np.linspace(0.7 * R, 1.3 * R, 64).astype(complex)
    lap = np.asarray(pot.laplacian(probe), dtype=float)
    if np.max(np.abs(lap - lap[0])) > 1e-10 * max(1.0, abs(lap[0])):
        raise UnsupportedPotentialError(
            "boundary formulas are implemented only for constant-Laplacian fields")

    grid = QuadratureGrid.disk(R, n_theta=512)
    theta, n_theta = grid.thetas, grid.n_theta
    ring = R * np.exp(1j * theta)
    grad = np.asarray(f.gradient(ring))
    normal = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    dn = np.sum(grad * normal, axis=-1)
    e_f = 0.25 * R * float(np.mean(dn))

    coeff = np.fft.fft(np.asarray(f.value(ring), dtype=float)) / n_theta
    kk = np.fft.fftfreq(n_theta, d=1.0 / n_theta)
    exterior = 2.0 * float(np.sum(np.abs(kk) * np.abs(coeff) ** 2))

    interior = float(grid.ring_weights @ grid.ring_means(
        lambda z: np.sum(np.asarray(f.gradient(z)) ** 2, axis=-1), radial=f.radial))

    return BoundaryPrediction(e_f=e_f, v_f2=0.25 * (interior + exterior),
                              interior_energy=interior, exterior_energy=exterior)
