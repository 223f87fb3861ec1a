"""The three benchmark workloads.

Each workload is a fixed pass of calls into the public functions of the
``rnmlab`` modules, with every input derived from the workload seed.  A run
repeats the identical pass, so the deterministic counts of one pass must
repeat exactly in the next; ``check`` verifies that, evaluates the
correctness gates and records the science checks as they come out.

* ``mc_fluctuations`` -- seeded sample banks (sampler-bound).
* ``exact_checks``    -- deterministic exact quantities (orthopoly/cumulants
  on 1e5-row feature matrices; sampler idle).
* ``cli_suite``       -- every CLI subcommand as its own process.

The per-draw latency metrics come from the sample banks on
``mc_fluctuations`` and from a fixed latency probe (the same three samplers
at the same sizes) on the other two workloads, whose draws are spread in
slices over the run and kept out of the pass time.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# Exact finite-n variance C_2 of the centred bump (radius 0.5) at n = 16,
# the oracle for the empirical variance gate; recomputed in the run by the
# radial cumulant path and compared to this value as well.
C2_BUMP_N16 = 0.3194

KS_ALPHA = 1e-4          # per-pair KS significance of the sampler agreement gate
VARIANCE_Z = 5.0         # standard errors allowed by the variance gate
EXACT_TOL = 1e-8         # trace = n, Berezin mass = 1, general vs radial C_2
NORM_TOL = 1e-9          # radial norms against the Gamma closed form

PROBE_SIZES = {"full": {"dpp16": 200, "mcmc16": 201, "matrix64": 200, "burn_in": 2000},
               "small": {"dpp16": 10, "mcmc16": 11, "matrix64": 10, "burn_in": 100}}


class Workload:
    """A seeded pass of operations, with its gates and science checks."""

    name = ""
    min_passes = 1
    SIZES: dict = {}

    def __init__(self, seed: int, scale: str, work_dir: Path):
        self.seed = int(seed)
        self.scale = scale
        self.size = self.SIZES[scale]
        self.work_dir = Path(work_dir)
        self.attempted = 0
        self.failed = 0
        self.gates: list = []
        self.science: list = []

    # -- bookkeeping ---------------------------------------------------------

    def call(self, fn, *args, **kwargs):
        """One operation: (result or None on failure, seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, perf_counter() - t0
        return out, perf_counter() - t0

    def gate(self, name: str, check):
        """A correctness gate; ``check`` returns (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
        self.gates.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def record(self, name: str, value, prediction, tolerance):
        """A science check, recorded as it comes out; never a failure."""
        try:
            value, prediction, tolerance = float(value), float(prediction), float(tolerance)
        except (TypeError, ValueError):  # the operation behind it failed
            value = prediction = tolerance = math.nan
        ok = abs(value - prediction) <= tolerance
        self.science.append({"name": name, "value": value, "prediction": prediction,
                             "tolerance": tolerance, "pass": bool(ok)})

    def import_modules(self):
        import rnmlab.berezin as B
        import rnmlab.cumulants as Cu
        import rnmlab.orthopoly as O
        import rnmlab.potential as P
        import rnmlab.sampler as S
        import rnmlab.statistics as St
        self.P, self.O, self.S, self.St, self.Cu, self.B = P, O, S, St, Cu, B

    def clear_caches(self):
        """Drop the package's memo caches so every pass pays the cold costs a
        fresh user process pays (quadrature rules, pair integrals, terms)."""
        for fn in (self.O.leggauss, self.Cu.gaussian_pair_integrals,
                   self.Cu.composition_terms, self.St.equilibrium_integral,
                   self.St.mean_prediction):
            while not hasattr(fn, "cache_clear"):  # under a tracing wrapper
                fn = fn.__wrapped__
            fn.cache_clear()

    def setup(self):
        self.import_modules()

    # -- latency probe -------------------------------------------------------

    probe = None
    probe_s = 0.0

    def checkpoints_per_pass(self) -> int:
        """Points in one pass where the latency probe advances a slice; 0 for
        a workload whose own draws give the latency metrics."""
        return 0

    def start_probe(self):
        """Set up the latency probe.  Its draws are spread in slices over the
        whole run (one before the passes, one at each checkpoint of the
        passes, the rest after them), so the latency metrics sample the same
        stretch of time as the passes; probe time is not pass time."""
        self.probe = Banks(self, PROBE_SIZES[self.scale], chain_base=100)
        self.probe_slices = self.checkpoints_per_pass() * self.min_passes + 2
        self.probe_slice = 0
        self.checkpoint()

    def checkpoint(self, final: bool = False):
        if self.probe is None:
            return
        t0 = perf_counter()
        self.probe_slice = min(self.probe_slice + 1, self.probe_slices - 1)
        self.probe.run(1.0 if final else self.probe_slice / self.probe_slices)
        self.probe_s += perf_counter() - t0

    def run_pass(self, index: int, tracer=None) -> dict:
        raise NotImplementedError

    def check(self, passes: list):
        """Gates on the first pass plus the repeat-exactly gate."""
        first = passes[0]["fingerprint"]
        for i, p in enumerate(passes[1:], 1):
            same = p["fingerprint"] == first
            diff = [k for k in first if p["fingerprint"].get(k) != first[k]]
            self.gate(f"pass {i} repeats pass 0 exactly", lambda: (same, diff or "identical"))


class Banks:
    """Seeded sample banks from the three samplers, every draw timed.

    Each bank has its own stream, so the draws do not depend on the order in
    which the banks are advanced.  The draws of all banks are interleaved,
    each bank spread evenly over the whole schedule, so every latency metric
    samples the same stretch of wall-clock time; ``run(until)`` performs the
    draws scheduled before the fraction ``until`` of the schedule.
    """

    def __init__(self, wl: Workload, sizes: dict, chain_base: int):
        P, O, S = wl.P, wl.O, wl.S
        self.wl = wl
        self.pot, _ = wl.call(P.make_ginibre)
        self.cfg = S.SamplerConfig(master_seed=wl.seed, burn_in_sweeps=sizes["burn_in"])
        self.banks = {}
        self.lat = {"dpp": [], "mcmc": [], "matrix": []}
        self.meta = {"dpp_proposals": 0, "dpp_restarts": 0, "mcmc_acceptance": None}
        streams = []
        for label, n, chain, lat in (("dpp16", 16, 0, "dpp"), ("dpp64", 64, 1, None)):
            if sizes.get(label):
                kern, _ = wl.call(O.weighted_kernel, self.pot, float(n), n)
                rng = S.stream_rng(wl.seed, chain_base + chain)
                streams.append((label, sizes[label],
                                lambda kern=kern, rng=rng: S.sample_dpp(kern, self.cfg, rng),
                                lat))
        if sizes.get("mcmc16"):
            rng = S.stream_rng(wl.seed, chain_base + 2)
            mcmc, _ = wl.call(S.sample_mcmc, self.pot, 16.0, 16, self.cfg, rng)
            streams.append(("mcmc16", sizes["mcmc16"], lambda: next(mcmc), "mcmc"))
        for label, n, chain, lat in (("matrix16", 16, 3, None), ("matrix64", 64, 4, "matrix")):
            if sizes.get(label):
                rng = S.stream_rng(wl.seed, chain_base + chain)
                streams.append((label, sizes[label],
                                lambda n=n, rng=rng: S.sample_ginibre_matrix(n, rng), lat))
        events = [((i + 0.5) / count, k, i) for k, (_, count, _, _) in enumerate(streams)
                  for i in range(count)]
        self.schedule = sorted(events)
        self.streams = streams
        self.done = 0
        for label, *_ in streams:
            self.banks[label] = []

    def run(self, until: float = 1.0):
        while self.done < len(self.schedule) and self.schedule[self.done][0] <= until:
            _, k, i = self.schedule[self.done]
            self.done += 1
            label, _, draw, lat = self.streams[k]
            conf, dt = self.wl.call(draw)
            if conf is None:
                continue
            self.banks[label].append(conf)
            if lat is not None and not (lat == "mcmc" and i == 0):
                # (the first MCMC configuration carries the burn-in)
                self.lat[lat].append(1e3 * dt)
            if label.startswith("dpp"):
                self.meta["dpp_proposals"] += conf.meta["proposals"]
                self.meta["dpp_restarts"] += conf.meta["restarts"]
            elif label == "mcmc16":
                self.meta["mcmc_acceptance"] = conf.meta["acceptance_rate"]

    @property
    def configs(self) -> int:
        return sum(len(b) for b in self.banks.values())


# ---------------------------------------------------------------------------


class McFluctuations(Workload):
    name = "mc_fluctuations"
    min_passes = 2
    SIZES = {"full": {"dpp16": 60, "dpp64": 4, "mcmc16": 60, "matrix16": 2000,
                      "matrix64": 100, "burn_in": 2000},
             "small": {"dpp16": 8, "dpp64": 4, "mcmc16": 8, "matrix16": 100,
                       "matrix64": 10, "burn_in": 100}}

    def setup(self):
        self.import_modules()
        rng = np.random.default_rng(self.seed)
        # covariance partner of the centred bump: an off-centre bulk bump
        self.cov_center = complex(0.25 * np.exp(2j * np.pi * rng.random()))

    def run_pass(self, index, tracer=None):
        P, St = self.P, self.St
        self.clear_caches()
        t0 = perf_counter()
        draws = Banks(self, self.size, chain_base=0)
        draws.run()
        pot, banks, meta = draws.pot, draws.banks, draws.meta
        drop, _ = self.call(P.compute_droplet, pot, 1.0)
        g, _ = self.call(St.bump, 0.0, 0.5)
        f, _ = self.call(St.bump, self.cov_center, 0.35)
        reports, covs = {}, {}
        for label, bank in banks.items():
            reports[label], _ = self.call(St.clt_report, bank, g, drop, pot)
            covs[label], _ = self.call(St.covariance_check, bank, g, f, drop)
        wall = perf_counter() - t0
        fingerprint = {
            "dpp_proposals": meta["dpp_proposals"], "dpp_restarts": meta["dpp_restarts"],
            "mcmc_acceptance": meta["mcmc_acceptance"],
            "bank_sizes": {k: len(v) for k, v in banks.items()},
            "fluct_means": {k: getattr(r, "mean", None) for k, r in reports.items()},
        }
        return {"wall_s": wall, "latencies": draws.lat, "configs": draws.configs,
                "fingerprint": fingerprint, "banks": banks, "reports": reports,
                "covs": covs, "pot": pot, "g": g}

    def check(self, passes):
        super().check(passes)
        from scipy.stats import ks_2samp
        first = passes[0]
        banks, g = first["banks"], first["g"]
        St, O, Cu = self.St, self.O, self.Cu
        traces = {k: np.array([St.trace_statistic(c, g) for c in banks[k]])
                  for k in ("dpp16", "mcmc16", "matrix16")}
        pairs = (("dpp16", "mcmc16"), ("dpp16", "matrix16"), ("mcmc16", "matrix16"))
        for a, b in pairs:
            def ks(a=a, b=b):
                p = ks_2samp(traces[a], traces[b]).pvalue
                return p >= KS_ALPHA, f"p={p:.4g} (alpha {KS_ALPHA})"
            self.gate(f"KS trace statistic {a} vs {b}", ks)

        def variance():
            kern = O.weighted_kernel(first["pot"], 16.0, 16)
            grid = O.default_grid(first["pot"], 16.0, 16)
            c2 = Cu.dpp_cumulant(kern, grid, g, 2)
            pooled = np.concatenate([traces["dpp16"], traces["matrix16"]])
            emp = float(np.var(pooled, ddof=1))
            se = c2 * math.sqrt(2.0 / (len(pooled) - 1))
            ok = abs(emp - c2) <= VARIANCE_Z * se and abs(c2 - C2_BUMP_N16) < 5e-5
            return ok, f"empirical {emp:.4f} vs exact C_2 {c2:.4f} (n={len(pooled)}, se {se:.4f})"
        self.gate("variance of exact samplers vs exact C_2 at n=16", variance)

        for label, rep in first["reports"].items():
            if rep is None:
                continue
            self.record(f"{label} fluct_mean", rep.mean, rep.predicted_mean, 3 * rep.mcse_mean)
            self.record(f"{label} fluct_variance", rep.variance, rep.predicted_variance,
                        max(3 * rep.mcse_variance, 0.1 * rep.predicted_variance))
            self.record(f"{label} fluct_skewness", rep.skewness, 0.0, 3 * rep.mcse_skewness)
            self.record(f"{label} fluct_excess_kurtosis", rep.excess_kurtosis, 0.0,
                        3 * rep.mcse_kurtosis)
        for label, cov in first["covs"].items():
            if cov is not None:
                self.record(f"{label} covariance", cov.empirical, cov.predicted, 3 * cov.mcse)


# ---------------------------------------------------------------------------


def _bulk_point(rng, radius):
    return complex(radius * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


class ExactChecks(Workload):
    name = "exact_checks"
    SIZES = {"full": {"kernel_ns": (16, 32, 64, 128, 256), "norms_n": 1024, "power2_n": 256,
                      "radial_ns": (32, 128), "general_ns": (64, 128), "ks": (2, 3, 4),
                      "trace_n": 128, "berezin_ns": (32, 64, 128, 256), "pinned_n": 64,
                      "harmonic_n": 64, "wave_n": 128, "scaling_n": 128, "gate_n": 32,
                      "identity_k": 10},
             "small": {"kernel_ns": (16, 32, 64), "norms_n": 128, "power2_n": 64,
                       "radial_ns": (32,), "general_ns": (32,), "ks": (2, 3),
                       "trace_n": 64, "berezin_ns": (32, 64), "pinned_n": 32,
                       "harmonic_n": 32, "wave_n": 64, "scaling_n": 64, "gate_n": 16,
                       "identity_k": 6}}

    def setup(self):
        self.import_modules()
        rng = np.random.default_rng(self.seed)
        ang = 2 * np.pi * rng.random()
        self.general_center = complex((0.2 + 0.1 * rng.random()) * np.exp(1j * ang))
        self.test_center = _bulk_point(rng, 0.3)
        self.anchors = {n: _bulk_point(rng, 0.5) for n in self.size["berezin_ns"]}
        self.transform_anchor = _bulk_point(rng, 0.3)
        self.exterior_anchor = complex(1.5 * np.exp(2j * np.pi * rng.random()))
        self.scaling_anchor = _bulk_point(rng, 0.15)

    def checkpoints_per_pass(self):
        return 7 + len(self.size["general_ns"]) * len(self.size["ks"])

    def run_pass(self, index, tracer=None):
        P, O, St, Cu, B = self.P, self.O, self.St, self.Cu, self.B
        sz = self.size
        self.clear_caches()
        call = self.call
        probe_before = self.probe_s
        t0 = perf_counter()
        pot, _ = call(P.make_ginibre)
        pot2, _ = call(P.make_radial_power, 2)
        kern, grid = {}, {}
        for n in sz["kernel_ns"]:
            kern[n], _ = call(O.weighted_kernel, pot, float(n), n)
            grid[n], _ = call(O.default_grid, pot, float(n), n)
        norms, _ = call(O.radial_norms, pot, float(sz["norms_n"]), sz["norms_n"])
        norms2, _ = call(O.radial_norms, pot2, float(sz["power2_n"]), sz["power2_n"])
        self.checkpoint()
        centred, _ = call(St.bump, 0.0, 0.5)
        off, _ = call(St.bump, self.general_center, 0.4)
        ftest, _ = call(St.bump, self.test_center, 0.3)
        cum = {}
        for n in sz["radial_ns"]:
            for k in sz["ks"]:
                cum[f"radial n={n} k={k}"], _ = call(Cu.dpp_cumulant, kern[n], grid[n], centred, k)
        self.checkpoint()
        for n in sz["general_ns"]:
            for k in sz["ks"]:
                cum[f"general n={n} k={k}"], _ = call(Cu.dpp_cumulant, kern[n], grid[n], off, k)
                self.checkpoint()
        gn = sz["gate_n"]
        c2_radial, _ = call(Cu.dpp_cumulant, kern[gn], grid[gn], centred, 2)
        c2_general, _ = call(lambda: Cu.dpp_cumulant(kern[gn], grid[gn],
                                                     replace(centred, radial=False), 2))
        self.checkpoint()
        tn = sz["trace_n"]
        trace, _ = call(lambda: kern[tn].trace_on(grid[tn]))
        self.checkpoint()
        masses, transforms = {}, {}
        for n in sz["berezin_ns"]:
            bk, _ = call(B.berezin_kernel, kern[n], self.anchors[n])
            masses[n], _ = call(lambda: bk.mass(grid[n]))
            transforms[n], _ = call(B.berezin_transform, kern[n], ftest,
                                    self.transform_anchor, grid[n])
        self.checkpoint()
        pn = sz["pinned_n"]
        pinned, _ = call(B.conditional_identity_check, pot, pn)
        pinned_exp, _ = call(B.conditional_expectation_identity, pot, pn, ftest)
        self.checkpoint()
        harmonic, _ = call(B.exterior_harmonic_measure_check, kern[sz["harmonic_n"]],
                           self.exterior_anchor)
        wave, _ = call(B.wavefunction_measure, pot, sz["wave_n"])
        sn = sz["scaling_n"]
        pts = np.linspace(-1.4, 1.4, 5)
        zg = (pts[:, None] + 1j * pts[None, :]).ravel()
        rescaled, _ = call(B.rescaled_kernel, kern[sn], self.scaling_anchor,
                           zg[:, None], zg[None, :])
        profile, _ = call(B.conditioned_onepoint_profile, sn, self.scaling_anchor)
        pairs, _ = call(Cu.gaussian_pair_integrals)
        identities = {}
        for k in range(2, sz["identity_k"] + 1):
            identities[k] = (call(Cu.zero_sum_identity, k)[0], call(Cu.s_k, k)[0])
        wall = perf_counter() - t0 - (self.probe_s - probe_before)
        self.checkpoint()
        fingerprint = {"cumulants": cum, "trace": trace, "c2_gate": (c2_radial, c2_general),
                       "masses": masses, "pinned": (pinned, pinned_exp),
                       "norms_top": None if norms is None else float(norms.log_norms[-1])}
        return {"wall_s": wall, "fingerprint": fingerprint, "norms": norms, "norms2": norms2,
                "trace": trace, "c2": (c2_radial, c2_general), "masses": masses,
                "transforms": transforms, "cum": cum, "pinned": pinned,
                "pinned_exp": pinned_exp, "harmonic": harmonic, "wave": wave,
                "rescaled": rescaled, "zg": zg, "profile": profile, "pairs": pairs,
                "identities": identities, "centred": centred}

    def check(self, passes):
        super().check(passes)
        r = passes[0]
        sz = self.size

        def general_vs_radial():
            a, b = r["c2"]
            return abs(a - b) <= EXACT_TOL * max(1.0, abs(a)), f"radial {a!r} general {b!r}"
        self.gate(f"general vs radial C_2, centred bump, n={sz['gate_n']}", general_vs_radial)
        self.gate(f"trace = n at n={sz['trace_n']}",
                  lambda: (abs(r["trace"] - sz["trace_n"]) <= EXACT_TOL * sz["trace_n"],
                           f"trace {r['trace']!r}"))
        for n, mass in r["masses"].items():
            self.gate(f"Berezin mass = 1 at n={n}",
                      lambda mass=mass: (abs(mass - 1.0) <= EXACT_TOL, f"mass {mass!r}"))

        def gamma_oracle(basis, p):
            # log h_k = lgamma((k+1)/p) - log p - ((k+1)/p) log m
            ks = np.arange(basis.n)
            ref = np.array([math.lgamma((k + 1) / p) for k in ks]) - math.log(p) \
                - (ks + 1) / p * math.log(basis.m)
            err = float(np.max(np.abs(basis.log_norms - ref)))
            return err <= NORM_TOL, f"max |log h_k - closed form| = {err:.3g}"
        self.gate(f"radial_norms vs Gamma closed form, ginibre n={sz['norms_n']}",
                  lambda: gamma_oracle(r["norms"], 1))
        self.gate(f"radial_norms vs Gamma closed form, power-2 n={sz['power2_n']}",
                  lambda: gamma_oracle(r["norms2"], 2))

        v_pred = self.St.variance_prediction(r["centred"])
        for key, value in r["cum"].items():
            if key.startswith("radial") and value is not None:
                k = int(key.rsplit("k=", 1)[1])
                self.record(f"C_{k} {key}", value, v_pred if k == 2 else 0.0,
                            0.1 * v_pred if k == 2 else 0.05)
        for n, tr in r["transforms"].items():
            if tr is not None:
                self.record(f"Berezin transform expansion n={n}", tr.expansion_residual, 0.0,
                            0.15 * abs(tr.correction))
        self.record("pinned identity residual", r["pinned"], 0.0, 1e-10)
        self.record("pinned expectation residual", r["pinned_exp"], 0.0, 1e-8)
        if r["harmonic"] is not None:
            self.record("harmonic measure L1", r["harmonic"].l1_distance, 0.0, 0.1)
        if r["wave"] is not None:
            self.record("wave-function total mass", r["wave"].total_mass, 1.0, 1e-6)
        if r["rescaled"] is not None:
            zg = r["zg"]
            dev = np.max(np.abs(np.abs(r["rescaled"]) - self.B.limit_kernel_modulus(
                zg[:, None], zg[None, :])))
            self.record("rescaled kernel sup deviation", dev, 0.0, 0.05)
        if r["profile"] is not None:
            prof = r["profile"]
            self.record("conditioned one-point sup deviation",
                        np.max(np.abs(prof.values - prof.prediction)), 0.0, 0.02)
        if r["pairs"] is not None:
            self.record("pair integral L_opposite", abs(r["pairs"].L_opposite), 1.0, 1e-8)
            self.record("pair integral J", abs(r["pairs"].J), 0.0, 1e-8)
        for k, (zs, sk) in r["identities"].items():
            self.record(f"zero_sum_identity k={k}", zs, 0.0, 0.0)
            self.record(f"quadratic_sum k={k}", sk, 2.0 if k == 2 else 0.0, 0.0)


# ---------------------------------------------------------------------------


def _profile_table(path: Path, rows: int):
    """Custom radial field q(r) = r^2/2 + r^4/4 (quarter-Laplacian 1/2 + r^2,
    droplet radius 1 at tau = 1), tabulated as the CLI's r,q,q',q'' CSV."""
    r = np.linspace(0.0, 6.0, rows)
    table = np.column_stack([r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2])
    np.savetxt(path, table, delimiter=",", header="r,q,dq,d2q", comments="", fmt="%.17g")


def _write_config(path: Path, entries: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _complex_text(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}j"


def _hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class CliSuite(Workload):
    name = "cli_suite"
    min_passes = 2  # the second pass checks byte-identical outputs
    SIZES = {"full": {"clt_samples": 200, "cum_n_list": "16, 32", "sample_n": 64,
                      "sample_count": 100, "boundary_n": 32, "boundary_count": 500,
                      "berezin_n": 32, "kernel_n": 64, "scaling_n": 64,
                      "custom_kernel_n": 32, "custom_samples": 20, "burn_in": 500},
             "small": {"clt_samples": 40, "cum_n_list": "16", "sample_n": 16,
                       "sample_count": 20, "boundary_n": 16, "boundary_count": 50,
                       "berezin_n": 16, "kernel_n": 16, "scaling_n": 32,
                       "custom_kernel_n": 16, "custom_samples": 5, "burn_in": 100}}
    SUBPROCESS_TIMEOUT = 150

    def setup(self):
        import rnmlab.cli  # noqa: F401  -- the import cost is this workload's set-up
        self.import_modules()
        sz = self.size
        rng = np.random.default_rng(self.seed)
        self.cli_seed = int(rng.integers(1, 2**31))
        cfg = self.work_dir / "configs"
        cfg.mkdir(parents=True, exist_ok=True)
        profile = cfg / "profile.csv"
        _profile_table(profile, 600)
        cum_center = _complex_text(complex(0.25 * np.exp(2j * np.pi * rng.random())))
        test_center = _complex_text(_bulk_point(rng, 0.3))
        configs = {
            "clt": {"n": 16, "samples": sz["clt_samples"], "chains": 4, "sampler.kind": "dpp"},
            "cumulants": {"n_list": sz["cum_n_list"], "cumulants.k_max": 3,
                          "test_function.center": cum_center, "test_function.radius": 0.4},
            "sample": {"n": sz["sample_n"], "samples": sz["sample_count"],
                       "sampler.kind": "matrix"},
            "boundary": {"n": sz["boundary_n"], "samples": sz["boundary_count"]},
            "berezin": {"n": sz["berezin_n"], "test_function.center": test_center,
                        "test_function.radius": 0.3,
                        "berezin.transform_anchor": round(0.3 * rng.random(), 6)},
            "kernel": {"n": sz["kernel_n"]},
            "scaling": {"n": sz["scaling_n"], "scaling.anchor": round(0.1 * rng.random(), 6)},
            "kernel_custom": {"potential.family": "custom", "potential.profile_file": profile,
                              "n": sz["custom_kernel_n"]},
            "sample_custom": {"potential.family": "custom", "potential.profile_file": profile,
                              "n": 16, "samples": sz["custom_samples"], "sampler.kind": "mcmc",
                              "sampler.burn_in_sweeps": sz["burn_in"],
                              "output.format": "jsonl"},
        }
        self.invocations = []
        for label, entries in configs.items():
            path = cfg / f"{label}.cfg"
            _write_config(path, entries)
            sub = label.split("_")[0]
            argv = [sub, "--config", str(path), "--seed", str(self.cli_seed)]
            if sub == "clt":
                argv += ["--threads", "2"]
            self.invocations.append((label, sub, argv))
        self.invocations.append(("identities", "identities", ["identities"]))
        # configurations delivered by the sampling subcommands, per pass
        self.configs_per_pass = sz["clt_samples"] + sz["sample_count"] + \
            sz["boundary_count"] + sz["custom_samples"]

    def checkpoints_per_pass(self):
        return len(self.invocations)

    def run_pass(self, index, tracer=None):
        out_root = self.work_dir / f"pass{index}"
        walls, exits, trees, child_traces, imports = {}, {}, {}, [], []
        probe_before = self.probe_s
        t0 = perf_counter()
        for label, sub, argv in self.invocations:
            out = out_root / label
            if tracer is not None:
                spans = out_root / f"{label}.spans.json"
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans)]
            else:
                cmd = [sys.executable, "-m", "rnmlab.cli"]
            proc, dt = self.call(subprocess.run, cmd + argv + ["--out", str(out)],
                                 capture_output=True, timeout=self.SUBPROCESS_TIMEOUT)
            walls[sub] = walls.get(sub, 0.0) + dt
            exits[label] = None if proc is None else proc.returncode
            if proc is not None and proc.returncode not in (0, 1):
                self.failed += 1
                sys.stderr.write(f"{label}: exit {proc.returncode}\n"
                                 f"{proc.stderr.decode(errors='replace')[-2000:]}\n")
            if tracer is not None and proc is not None and spans.is_file():
                dump = json.loads(spans.read_text())
                imports.append(dump.pop("import_s"))
                child_traces.append(dump)
            self.checkpoint()
        wall = perf_counter() - t0 - (self.probe_s - probe_before)
        for label, _, _ in self.invocations:
            out = out_root / label
            trees[label] = _hash_tree(out) if out.is_dir() else {}
        written = sum(p.stat().st_size for p in out_root.rglob("*")
                      if p.is_file() and not p.name.endswith(".spans.json"))
        return {"wall_s": wall, "configs": self.configs_per_pass, "walls": walls,
                "exits": exits, "bytes": written, "child_traces": child_traces,
                "imports": imports, "fingerprint": {"exits": exits, "files": trees}}

    def check(self, passes):
        first = passes[0]
        for i, p in enumerate(passes[1:], 1):
            for label, _, _ in self.invocations:
                a, b = first["fingerprint"]["files"][label], p["fingerprint"]["files"][label]
                self.gate(f"{label}: pass {i} output byte-identical to pass 0",
                          lambda a=a, b=b: (bool(a) and a == b,
                                            f"{len(a)} files" if a == b else
                                            f"differs: {sorted(set(a.items()) ^ set(b.items()))[:3]}"))
        for label, code in first["exits"].items():
            self.record(f"{label} exit code (0 = all checks pass)", code, 0, 0)
            summary = self.work_dir / "pass0" / label / f"{label.split('_')[0]}_summary.json"
            if summary.is_file():
                for c in json.loads(summary.read_text())["checks"]:
                    self.record(f"{label}: {c['name']}", c["value"], c["prediction"],
                                c["tolerance"])


WORKLOADS = {cls.name: cls for cls in (McFluctuations, ExactChecks, CliSuite)}
