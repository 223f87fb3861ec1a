"""Span recorder for the traced benchmark run.

The wrappers are installed on attributes of the ``rnmlab`` modules and
classes from outside; nothing in the package itself is edited.  Each wrapped
call records one span ``(name_id, start, end, parent, thread)`` in memory;
``parent`` is the index of the enclosing span on the same thread, or -1.
Counters recorded at the same boundaries (rows computed, proposals drawn,
composition terms, ...) sit next to the spans.  Everything is written out
once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import statistics
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("potential", "orthopoly", "sampler", "statistics", "cumulants",
          "berezin", "cli")

# Every workload reports every per-layer metric of BENCHMARK.json; a layer
# the workload leaves idle reads 0.
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CLI_SUBCOMMANDS = ("identities", "kernel", "sample", "clt", "cumulants",
                   "berezin", "scaling", "boundary")

# Span names whose call counts and busy times are reported directly.
_CALLS = ("orthopoly.radial_norms", "orthopoly.default_grid",
          "orthopoly.features", "cumulants.dpp_cumulant.radial",
          "cumulants.dpp_cumulant.general")
_BUSY = ("potential", "orthopoly.radial_norms", "orthopoly.default_grid",
         "orthopoly.features", "orthopoly.one_point", "orthopoly.log_weighted",
         "sampler.dpp", "sampler.mcmc", "sampler.matrix",
         "statistics.fluct_values", "statistics.clt_report",
         "statistics.covariance_check", "statistics.predictions",
         "cumulants.dpp_cumulant.radial", "cumulants.dpp_cumulant.general",
         "cumulants.identities", "cumulants.pair_integrals",
         "berezin.mass", "berezin.transform", "berezin.conditional",
         "berezin.harmonic", "berezin.wavefunction", "berezin.scaling")


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.mcmc_rates: dict[int, float] = {}
        self.span_work: dict[int, Counter] = {}  # work inside open general-path spans
        self._chain_ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid):
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append((idx, nid))
        return idx, parent

    def _inside(self, name):
        """Index of the innermost open span called ``name`` on this thread,
        or None."""
        nid = self._name_ids.get(name)
        for idx, open_nid in reversed(self._stack()):
            if open_nid == nid:
                return idx
        return None

    def _close(self, idx, parent, nid, t0, t1):
        self._stack().pop()
        self.spans[idx] = (nid, t0, t1, parent, threading.get_ident())

    def wrap(self, name, fn, after=None):
        """Wrapper recording one span per call.  ``name`` is a string or a
        callable of the call arguments; ``after(idx, args, kwargs, out)``
        updates counters under the lock once the call returns, ``idx`` being
        the index of the call's span."""
        static = None if callable(name) else self._nid(name)

        def wrapper(*args, **kwargs):
            nid = static if static is not None else self._nid(name(args, kwargs))
            idx, parent = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, nid, t0, perf_counter())
            if after is not None:
                with self._lock:
                    after(idx, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, genfn, on_item):
        """Wrapper for a generator function: one span per ``next``."""
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            chain = next(self._chain_ids)

            def traced():
                first = True
                while True:
                    idx, parent = self._open(nid)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(idx, parent, nid, t0, perf_counter())
                        return
                    t1 = perf_counter()
                    self._close(idx, parent, nid, t0, t1)
                    with self._lock:
                        on_item(chain, item, first, t1 - t0)
                    first = False
                    yield item

            return traced()

        wrapper.__wrapped__ = genfn
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every ``rnmlab`` module attribute bound to ``original`` at
        ``replacement`` (modules import each other's functions by name)."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rnmlab" or modname.startswith("rnmlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original, after))

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def _wrap_potential(self, pot):
        prof = pot.radial_profile
        if prof is not None:
            prof = dataclasses.replace(
                prof, q=self.wrap("potential", prof.q),
                dq=self.wrap("potential", prof.dq),
                d2q=self.wrap("potential", prof.d2q))
        fields = {f: self.wrap("potential", getattr(pot, f))
                  for f in ("evaluate", "laplacian", "gradient")}
        return dataclasses.replace(pot, radial_profile=prof, **fields)

    def _patch_factory(self, module, attr):
        original = getattr(module, attr)

        def factory(*args, **kwargs):
            return self._wrap_potential(original(*args, **kwargs))

        self._replace_everywhere(original, factory)

    def install(self):
        """Wrap the public entry points of the seven modules."""
        import rnmlab.berezin as B
        import rnmlab.cli as C
        import rnmlab.cumulants as Cu
        import rnmlab.orthopoly as O
        import rnmlab.potential as P
        import rnmlab.sampler as S
        import rnmlab.statistics as St

        for attr in ("make_ginibre", "make_radial_power", "make_custom_radial"):
            self._patch_factory(P, attr)
        self._patch_function(P, "compute_droplet", "potential")
        self._patch_method(P.Potential, "subleading_density", "potential")

        counts = self.counts
        general = "cumulants.dpp_cumulant.general"

        def work_inside_general(key, amount):
            """Charge work to the enclosing general-path cumulant call."""
            idx = self._inside(general)
            if idx is not None:
                self.span_work.setdefault(idx, Counter())[key] += amount

        def count_modes(idx, args, kwargs, out):
            counts["orthopoly.radial_norms.modes"] += out.n

        def count_rows(idx, args, kwargs, out):
            rows = int(np.size(args[1] if len(args) > 1 else kwargs["z"]))
            counts["orthopoly.features.rows"] += rows
            counts["orthopoly.features.bytes_computed"] += rows * args[0].n * 16
            work_inside_general("rows", rows)

        self._patch_function(O, "radial_norms", "orthopoly.radial_norms", count_modes)
        self._patch_function(O, "default_grid", "orthopoly.default_grid")
        self._patch_method(O.WeightedKernel, "features", "orthopoly.features", count_rows)
        self._patch_method(O.WeightedKernel, "one_point", "orthopoly.one_point")
        self._patch_method(O.WeightedKernel, "log_weighted", "orthopoly.log_weighted")

        def count_dpp(idx, args, kwargs, out):
            counts["sampler.dpp.draws"] += 1
            counts["sampler.dpp.points"] += len(out.points)
            counts["sampler.dpp.proposals"] += int(out.meta["proposals"])
            counts["sampler.dpp.restarts"] += int(out.meta["restarts"])

        def count_mcmc(chain, item, first, seconds):
            counts["sampler.mcmc.configs"] += 1
            if first:
                counts["sampler.mcmc.burn_in_s"] += seconds
            self.mcmc_rates[chain] = float(item.meta["acceptance_rate"])

        def count_matrix(idx, args, kwargs, out):
            counts["sampler.matrix.draws"] += 1

        self._patch_function(S, "sample_dpp", "sampler.dpp", count_dpp)
        original_mcmc = S.sample_mcmc
        self._replace_everywhere(
            original_mcmc, self.wrap_generator("sampler.mcmc", original_mcmc, count_mcmc))
        self._patch_function(S, "sample_ginibre_matrix", "sampler.matrix", count_matrix)

        self._patch_function(St, "fluct_values", "statistics.fluct_values")
        self._patch_function(St, "clt_report", "statistics.clt_report")
        self._patch_function(St, "covariance_check", "statistics.covariance_check")
        for attr in ("variance_prediction", "mean_prediction", "equilibrium_integral",
                     "covariance_prediction", "gradient_pair_integral",
                     "boundary_statistics"):
            self._patch_function(St, attr, "statistics.predictions")

        def cumulant_path(args, kwargs):
            kern, g = args[0], (args[2] if len(args) > 2 else kwargs["g"])
            radial = kern.basis.mode == "radial" and bool(getattr(g, "radial", False))
            return "cumulants.dpp_cumulant." + ("radial" if radial else "general")

        def count_cumulant(idx, args, kwargs, out):
            # Flops of the general path, from the feature rows the call
            # computed and the composition terms it asked for: k moment
            # matrices F^H diag(g^p) F of n^2 complex multiply-adds per row,
            # and one n x n matrix product per extra part of each term.
            work = self.span_work.pop(idx, None)
            if work is not None:
                n = args[0].n
                k = args[3] if len(args) > 3 else kwargs["k"]
                counts[general + ".flops_computed"] += \
                    8 * n * n * (k * work["rows"] + n * work["products"])

        def count_terms(idx, args, kwargs, out):
            counts["cumulants.composition_terms"] += len(out)
            work_inside_general("products", sum(len(t.parts) - 1 for t in out))

        self._patch_function(Cu, "dpp_cumulant", cumulant_path, count_cumulant)
        self._patch_function(Cu, "composition_terms", "cumulants.composition_terms",
                             count_terms)
        for attr in ("zero_sum_identity", "s_k", "stirling2", "g_k_eval",
                     "diagonal_laplacian_check", "mixed_derivative_sum"):
            self._patch_function(Cu, attr, "cumulants.identities")
        self._patch_function(Cu, "gaussian_pair_integrals", "cumulants.pair_integrals")

        self._patch_method(B.BerezinKernel, "mass", "berezin.mass")
        self._patch_function(B, "berezin_transform", "berezin.transform")
        for attr in ("conditional_basis", "conditional_one_point",
                     "conditional_identity_check", "conditional_expectation_identity"):
            self._patch_function(B, attr, "berezin.conditional")
        self._patch_function(B, "exterior_harmonic_measure_check", "berezin.harmonic")
        self._patch_function(B, "wavefunction_measure", "berezin.wavefunction")
        for attr in ("rescaled_kernel", "conditioned_onepoint_profile"):
            self._patch_function(B, attr, "berezin.scaling")

        self._patch_function(C, "run", "cli.run")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        spans = [s for s in self.spans if s is not None]
        return {"names": list(self.names),
                "spans": [[nid, round(t0, 9), round(t1, 9), parent, tid]
                          for nid, t0, t1, parent, tid in spans],
                "counts": dict(self.counts),
                "mcmc_rates": list(self.mcmc_rates.values())}


def _span_totals(trace: dict):
    """Per span name: (calls, busy, self) seconds.  Busy time counts a span
    only when no enclosing span has the same name, so recursion through a
    layer is not counted twice; self time subtracts the direct children."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for nid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls, busy, self_s = Counter(), Counter(), Counter()
    for i, (nid, t0, t1, parent, _) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            busy[name] += t1 - t0
    return calls, busy, self_s


def per_layer_metrics(traces: list, cli_walls: dict, cli_bytes: int,
                      cli_imports: list, overhead_s: float) -> dict:
    """Fold span dumps (one per traced process) into the per-layer metrics."""
    calls, busy, self_s, counts = Counter(), Counter(), Counter(), Counter()
    rates = []
    n_spans = 0
    for trace in traces:
        c, b, s = _span_totals(trace)
        calls.update(c)
        busy.update(b)
        self_s.update(s)
        counts.update(trace["counts"])
        rates.extend(trace["mcmc_rates"])
        n_spans += len(trace["spans"])

    values = {}
    values["potential.calls"] = calls["potential"]
    for name in _CALLS:
        values[f"{name}.calls"] = calls[name]
    for name in _BUSY:
        values[f"{name}.busy_s"] = busy[name]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                        if k == layer or k.startswith(layer + "."))
    for key in ("orthopoly.radial_norms.modes", "orthopoly.features.rows",
                "orthopoly.features.bytes_computed", "sampler.dpp.draws",
                "sampler.dpp.restarts", "sampler.mcmc.configs",
                "sampler.mcmc.burn_in_s", "sampler.matrix.draws",
                "cumulants.dpp_cumulant.general.flops_computed",
                "cumulants.composition_terms"):
        values[key] = counts[key]
    values["sampler.dpp.self_s"] = self_s["sampler.dpp"]
    points, proposals = counts["sampler.dpp.points"], counts["sampler.dpp.proposals"]
    values["sampler.dpp.proposals_per_point"] = proposals / points if points else 0.0
    values["sampler.dpp.accept_ratio"] = points / proposals if proposals else 0.0
    values["sampler.mcmc.acceptance_rate"] = statistics.fmean(rates) if rates else 0.0
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = cli_walls.get(sub, 0.0)
    values["cli.import_s"] = statistics.median(cli_imports) if cli_imports else 0.0
    values["cli.bytes_written"] = cli_bytes
    values["trace.spans"] = n_spans
    values["trace.overhead_s"] = overhead_s
    spec = json.loads(SPEC.read_text())["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
