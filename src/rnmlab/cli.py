"""Command-line front end: config-file driven experiments with seeded
reproducibility and machine-readable CSV/JSON outputs.

Config files are flat ``key = value`` text with dotted section names
(``sampler.thin_stride = 20``); see the README for the schema.  Every check a
subcommand performs is emitted with its prediction and tolerance, and the
process exits 0 only if all enabled checks pass (1 on check failure, 2 on
configuration errors, 3 on numerical failures: an unresolved grid or a
floating-point error).  Identical config + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import berezin as bz
from . import cumulants as cu
from . import statistics as st
from .orthopoly import (GridResolutionError, default_grid, fit_decay_rate,
                        offdiagonal_decay_profile, weighted_kernel)
from .potential import (compute_droplet, make_ginibre, make_radial_power,
                        make_tabulated_radial)
from .sampler import (SamplerConfig, collect_mcmc, sample_dpp,
                      sample_ginibre_matrix, stream_rng)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling


def parse_config(path) -> dict:
    """Flat key = value file with dotted keys; '#' starts a comment."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _convert(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if "," in raw:
        return [_convert(x.strip()) for x in raw.split(",")]
    return raw


def cfg_get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return _convert(cfg[key])
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def build_potential(cfg: dict):
    family = str(cfg_get(cfg, "potential.family", "ginibre")).lower()
    if family == "ginibre":
        return make_ginibre()
    if family.startswith("power"):
        p = cfg_get(cfg, "potential.p", None)
        if p is None and family != "power":
            p = int(family.removeprefix("power").strip("() "))
        if p is None:
            raise ConfigError("power family needs potential.p")
        return make_radial_power(int(p))
    if family == "custom":
        path = cfg_get(cfg, "potential.profile_file", required=True)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[1] < 4:
            raise ConfigError("profile file needs CSV columns r,q,q',q''")
        rho = cfg_get(cfg, "potential.growth_exponent", 10.0)
        return make_tabulated_radial(*table.T[:4], rho)
    raise ConfigError(f"unknown potential family {family!r}")


def build_test_function(cfg: dict):
    kind = str(cfg_get(cfg, "test_function.kind", "bump")).lower()
    if kind == "bump":
        center = cfg_get(cfg, "test_function.center", 0.0)
        radius = cfg_get(cfg, "test_function.radius", 0.5)
        return st.bump(complex(center), float(radius))
    if kind == "re":
        return st.re_coordinate()
    raise ConfigError(f"unknown test function kind {kind!r}")


def resolve_mn(cfg: dict):
    """(m, n, tau) with m tau = n; tau defaults to n / m when m is set, else 1."""
    n = int(cfg_get(cfg, "n", 64))
    if n < 1:
        raise ConfigError("n must be >= 1")
    m = cfg_get(cfg, "m", None)
    if m is not None and not float(m) > 0:
        raise ConfigError(f"m must be > 0, got {m}")
    tau = float(cfg_get(cfg, "tau", 1.0 if m is None else n / float(m)))
    if not tau > 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    if m is None:
        m = n / tau
    elif not math.isclose(float(m) * tau, n, rel_tol=1e-9):
        raise ConfigError(f"m = {m}, tau = {tau} and n = {n} disagree: need m tau = n")
    return float(m), n, tau


def sampler_config(cfg: dict, seed: int) -> SamplerConfig:
    return SamplerConfig(
        master_seed=seed,
        burn_in_sweeps=int(cfg_get(cfg, "sampler.burn_in_sweeps", 2000)),
        thin_stride=int(cfg_get(cfg, "sampler.thin_stride", 20)),
    )


def require_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg_get(cfg, "seed", None)
    if seed is None:
        raise ConfigError("sampling needs an explicit seed (config key 'seed' "
                          "or --seed); wall-clock seeding is not supported")
    return int(seed)


def draw_samples(cfg: dict, pot, m, n, seed: int, count: int, threads: int):
    """Samples from the configured route, chains combined in index order."""
    kind = str(cfg_get(cfg, "sampler.kind", "matrix")).lower()
    chains = int(cfg_get(cfg, "chains", 1))
    if chains < 1:
        raise ConfigError(f"chains must be >= 1, got {chains}")
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    scfg = sampler_config(cfg, seed)
    per = [count // chains + (1 if i < count % chains else 0) for i in range(chains)]
    if kind == "dpp":
        # one kernel for every chain, its radial law built before any thread
        # reads it (cached_property takes no lock from Python 3.12 on)
        kern = weighted_kernel(pot, m, n)
        kern.radial_law

    def run_chain(idx: int):
        rng = stream_rng(seed, idx)
        if kind == "matrix":
            if pot.name != "ginibre" or m != n:
                raise ConfigError("matrix sampler applies to the ginibre "
                                  "potential with m = n only")
            return [sample_ginibre_matrix(n, rng) for _ in range(per[idx])]
        if kind == "dpp":
            return [sample_dpp(kern, scfg, rng) for _ in range(per[idx])]
        if kind == "mcmc":
            return collect_mcmc(pot, m, n, scfg, rng, per[idx], chain_index=idx)
        raise ConfigError(f"unknown sampler kind {kind!r}")

    # mcmc chains run serially: their sweep is Python bytecode under the
    # interpreter lock, so pooled chains take turns and lose to one thread
    if threads > 1 and chains > 1 and kind != "mcmc":
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run_chain, range(chains)))
    else:
        chunks = [run_chain(i) for i in range(chains)]
    out = []
    for chunk in chunks:
        out.extend(chunk)
    return out, kind


# ---------------------------------------------------------------------------
# output helpers


class Reporter:
    """Collects named checks and writes the JSON/CSV/gnuplot artifacts."""

    def __init__(self, out_dir: Path, subcommand: str, gnuplot: bool):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.sub = subcommand
        self.gnuplot = gnuplot
        self.checks = []
        self.extra = {}
        self.csvs = []

    def check(self, name: str, value: float, prediction: float, tolerance: float):
        ok = bool(abs(value - prediction) <= tolerance)
        self.checks.append({"name": name, "value": float(value),
                            "prediction": float(prediction),
                            "tolerance": float(tolerance), "pass": ok})
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: value={value:.6g} "
              f"prediction={prediction:.6g} tolerance={tolerance:.3g}")
        return ok

    def write_csv(self, name: str, header, rows):
        path = self.out / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.csvs.append((name, header))
        return path

    def finish(self) -> int:
        ok = all(c["pass"] for c in self.checks)
        summary = {"schema_version": SCHEMA_VERSION, "subcommand": self.sub,
                   "checks": self.checks, "pass": ok}
        summary.update(self.extra)
        path = self.out / f"{self.sub}_summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if self.gnuplot and self.csvs:
            lines = ["set datafile separator ','", "set key autotitle columnhead"]
            for name, header in self.csvs:
                cols = "2:3" if len(header) >= 3 else "1:2"
                lines.append(f"plot '{name}' using {cols} with linespoints")
                lines.append("pause -1")
            (self.out / f"{self.sub}.gp").write_text("\n".join(lines) + "\n")
        print(f"[{'PASS' if ok else 'FAIL'}] {self.sub}: summary in {path}")
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_identities(cfg, args, rep: Reporter) -> None:
    rows = []
    for k in range(2, 11):
        zs = cu.zero_sum_identity(k)
        sk = cu.s_k(k)
        target = Fraction(2 if k == 2 else 0)
        ok = (zs == 0) and (sk == target)
        rows.append([k, str(zs), str(sk), "exact pass" if ok else "FAIL"])
        rep.check(f"zero_sum_identity(k={k})", float(zs), 0.0, 0.0)
        rep.check(f"quadratic_sum(k={k})", float(sk), float(target), 0.0)
    pairs = cu.gaussian_pair_integrals()
    rep.check("pair_integral_J", abs(pairs.J), 0.0, 1e-8)
    rep.check("pair_integral_J_conj", abs(pairs.J_conj), 0.0, 1e-8)
    rep.check("pair_integral_L_same", abs(pairs.L_same), 0.0, 1e-8)
    rep.check("pair_integral_L_opposite", abs(pairs.L_opposite), 1.0, 1e-8)
    rep.write_csv("identities.csv", ["k", "zero_sum", "quadratic_sum", "status"], rows)


def cmd_kernel(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, tau = resolve_mn(cfg)
    kern = weighted_kernel(pot, m, n)
    drop = compute_droplet(pot, tau)
    radii = np.linspace(0.0, 0.5 * drop.radius, 11)
    z = (radii[:, None] * np.exp(1j * np.linspace(0.0, np.pi, 4))).ravel()
    r1 = kern.one_point(z)
    pred = m * pot.laplacian(z) + pot.subleading_density(z)
    resid = np.abs(r1 - pred)
    rep.write_csv("kernel_diagonal.csv", ["z_re", "z_im", "R1", "predicted", "residual"],
                  np.column_stack((z.real, z.imag, r1, pred, resid)).tolist())
    # np.max propagates a NaN residual, so it fails the check
    rep.check("diagonal_expansion_sup_residual", float(np.max(resid)), 0.0, 3.0 / m)

    hr = np.linspace(0.05, 0.8 * drop.radius, 16)
    profile = offdiagonal_decay_profile(kern, 0.3 * drop.radius, hr)
    rate, eps = fit_decay_rate(hr, profile, m)
    rep.write_csv("kernel_offdiagonal.csv", ["radius", "envelope"],
                  [[float(r), float(p)] for r, p in zip(hr, profile)])
    rep.extra["decay_rate"] = rate
    rep.extra["decay_epsilon"] = eps
    rep.check("offdiagonal_decay_epsilon_positive", float(eps > 0.0), 1.0, 0.0)


def cmd_sample(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, _ = resolve_mn(cfg)
    seed = require_seed(cfg, args)
    count = int(cfg_get(cfg, "samples", 100))
    fmt = str(cfg_get(cfg, "output.format", "csv")).lower()
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown output.format {fmt!r}")
    samples, kind = draw_samples(cfg, pot, m, n, seed, count, args.threads)
    if fmt == "csv":
        rows = [[i, j, z.real, z.imag]
                for i, c in enumerate(samples) for j, z in enumerate(c.points)]
        rep.write_csv("configurations.csv",
                      ["sample_id", "point_id", "re", "im"], rows)
    else:
        with open(rep.out / "configurations.jsonl", "w") as fh:
            for i, c in enumerate(samples):
                fh.write(json.dumps({"sample_id": i,
                                     "re": [z.real for z in c.points],
                                     "im": [z.imag for z in c.points]},
                                    sort_keys=True) + "\n")
    # a chain's last configuration carries its whole-chain acceptance rate;
    # samples come in chain order, so the dict keeps that order
    last = {c.meta["chain_index"]: c.meta["acceptance_rate"] for c in samples
            if "acceptance_rate" in c.meta}
    rates = list(last.values())
    meta = {"schema_version": SCHEMA_VERSION, "seed": seed,
            "potential": pot.name, "m": m, "n": n, "sampler": kind,
            "samples": count, "acceptance_rate_per_chain": rates,
            "acceptance_rate": float(np.mean(rates)) if rates else None}
    (rep.out / "sample_metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_clt(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, tau = resolve_mn(cfg)
    seed = require_seed(cfg, args)
    count = int(cfg_get(cfg, "samples", 2000))
    g = build_test_function(cfg)
    drop = compute_droplet(pot, tau)
    samples, kind = draw_samples(cfg, pot, m, n, seed, count, args.threads)
    report = st.clt_report(samples, g, drop, pot)
    vals = st.fluct_values(samples, g, drop)
    rep.write_csv("fluct_values.csv", ["sample_id", "fluct"],
                  [[i, float(v)] for i, v in enumerate(vals)])
    rep.extra["report"] = report.__dict__
    rep.check("fluct_mean", report.mean, report.predicted_mean, 3 * report.mcse_mean)
    rep.check("fluct_variance", report.variance, report.predicted_variance,
              max(3 * report.mcse_variance, 0.1 * report.predicted_variance))
    rep.check("fluct_skewness", report.skewness, 0.0, 3 * report.mcse_skewness)
    rep.check("fluct_excess_kurtosis", report.excess_kurtosis, 0.0,
              3 * report.mcse_kurtosis)


def cmd_cumulants(cfg, args, rep: Reporter) -> None:
    if "m" in cfg:
        raise ConfigError("cumulants sweeps n_list at one tau (m = n / tau for each n); "
                          "set tau instead of m")
    pot = build_potential(cfg)
    tau = float(cfg_get(cfg, "tau", 1.0))
    n_list = cfg_get(cfg, "n_list", [32, 64, 128])
    if isinstance(n_list, (int, float)):
        n_list = [int(n_list)]
    kmax = int(cfg_get(cfg, "cumulants.k_max", 3))
    g = build_test_function(cfg)
    v_pred = st.variance_prediction(g)
    drop = compute_droplet(pot, tau)
    rows = []
    results = {}
    for n in n_list:
        m = n / tau
        kern = weighted_kernel(pot, m, int(n))
        grid = default_grid(pot, m, int(n))
        for k in range(1, kmax + 1):
            ck = cu.dpp_cumulant(kern, grid, g, k)
            pred = {1: int(n) * st.equilibrium_integral(g, drop) +
                    st.mean_prediction(g, drop),
                    2: v_pred}.get(k, 0.0)
            rows.append([int(n), k, ck, pred])
            results[(int(n), k)] = ck
    rep.write_csv("cumulants.csv", ["n", "k", "C_k", "prediction"], rows)
    n_top = int(max(n_list))
    rep.check(f"C_2(n={n_top}) vs dirichlet prediction",
              results[(n_top, 2)], v_pred, 0.1 * v_pred)
    if kmax >= 3:
        rep.check(f"C_3(n={n_top}) small", results[(n_top, 3)], 0.0,
                  0.1 * results[(n_top, 2)] ** 1.5)


def cmd_berezin(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, tau = resolve_mn(cfg)
    kern = weighted_kernel(pot, m, n)
    grid = default_grid(pot, m, n)
    drop = compute_droplet(pot, tau)
    for a in (0.0, 0.5 * drop.radius, 1.2 * drop.radius):
        bk = bz.berezin_kernel(kern, complex(a))
        rep.check(f"berezin_mass(anchor={complex(a):.3g})", bk.mass(grid), 1.0, 1e-6)
    calm = bz.conditional_identity_check(pot, n, grid)
    rep.check("pinned_identity_residual", calm, 0.0, 1e-10)
    f = build_test_function(cfg)
    bef = bz.conditional_expectation_identity(pot, n, f, grid)
    rep.check("pinned_expectation_residual", bef, 0.0, 1e-8)
    z0 = complex(cfg_get(cfg, "berezin.transform_anchor", 0.1))
    bt = bz.berezin_transform(kern, f, z0, grid)
    rep.check("transform_expansion_residual", bt.expansion_residual, 0.0,
              0.15 * abs(bt.correction))
    bk0 = bz.berezin_kernel(kern, 0.0)
    radii = np.linspace(0.0, 3.0 / np.sqrt(n), 40)
    # B^{<0>}(w) = e^{-mQ(w)} / h_0 on a radial field: only the constant mode
    # of K(0, w) survives
    log_h0 = float(kern.basis.log_norms[0])
    rows = [[float(r), float(bk0.density(complex(r))),
             float(np.exp(-m * float(pot.evaluate(complex(r))) - log_h0))] for r in radii]
    rep.write_csv("berezin_profile.csv", ["radius", "density", "origin_prediction"], rows)


def cmd_scaling(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, _ = resolve_mn(cfg)
    kern = weighted_kernel(pot, m, n)
    z0 = complex(cfg_get(cfg, "scaling.anchor", 0.0))
    pts = np.linspace(-1.4, 1.4, 3)
    zg = (pts[:, None] + 1j * pts[None, :]).ravel()
    kn = bz.rescaled_kernel(kern, z0, zg[:, None], zg[None, :])
    dev = float(np.max(np.abs(np.abs(kn) -
                              bz.limit_kernel_modulus(zg[:, None], zg[None, :]))))
    rep.check("rescaled_kernel_sup_deviation", dev, 0.0, 0.05)
    prof = bz.conditioned_onepoint_profile(n, z0=z0)
    rep.write_csv("conditioned_profile.csv", ["distance", "value", "prediction"],
                  [[float(d), float(v), float(p)] for d, v, p
                   in zip(prof.distances, prof.values, prof.prediction)])
    rep.check("conditioned_onepoint_sup_deviation",
              float(np.max(np.abs(prof.values - prof.prediction))), 0.0, 0.02)


def cmd_boundary(cfg, args, rep: Reporter) -> None:
    pot = build_potential(cfg)
    m, n, tau = resolve_mn(cfg)
    seed = require_seed(cfg, args)
    count = int(cfg_get(cfg, "samples", 2000))
    drop = compute_droplet(pot, tau)
    f = st.re_coordinate(taper_start=2.0 * drop.radius, taper_end=3.0 * drop.radius)
    pred = st.boundary_statistics(f, drop)
    rep.extra["prediction"] = {"e_f": pred.e_f, "v_f2": pred.v_f2}
    samples, _ = draw_samples(cfg, pot, m, n, seed, count, args.threads)
    vals = st.fluct_values(samples, f, drop)
    rep.write_csv("boundary_fluct.csv", ["sample_id", "fluct"],
                  [[i, float(v)] for i, v in enumerate(vals)])
    mean = float(vals.mean())
    var = float(vals.var(ddof=1))
    rep.check("boundary_fluct_mean", mean, pred.e_f,
              3.0 * float(vals.std(ddof=1) / np.sqrt(len(vals))))
    rep.check("boundary_fluct_variance", var, pred.v_f2, 0.15 * pred.v_f2)


COMMANDS = {
    "identities": cmd_identities,
    "kernel": cmd_kernel,
    "sample": cmd_sample,
    "clt": cmd_clt,
    "cumulants": cmd_cumulants,
    "berezin": cmd_berezin,
    "scaling": cmd_scaling,
    "boundary": cmd_boundary,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnmlab",
        description="Random normal matrix laboratory: seeded, reproducible "
                    "eigenvalue-statistics experiments")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file with dotted sections")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config)")
    parser.add_argument("--out", type=Path, default=Path("rnmlab_out"),
                        help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sampling chains")
    parser.add_argument("--gnuplot", action="store_true",
                        help="also emit ready-to-render gnuplot scripts")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config) if args.config else {}
        rep = Reporter(args.out, args.subcommand, args.gnuplot)
        COMMANDS[args.subcommand](cfg, args, rep)
        return rep.finish()
    except (GridResolutionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
