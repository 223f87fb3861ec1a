"""Workload process, started fresh by ``run.py`` with ``PYTHONPATH=src``.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE SCALE WORK_DIR [--setup-only]

Sets the workload up (imports and seeded input generation), prints
``ready``, and with ``--setup-only`` exits there.  Otherwise:

* untraced (TRACE 0): repeats the identical pass until SECONDS are used
  (at least the workload's minimum number of passes), runs the latency
  probe where the workload has one, evaluates the gates and writes the
  end-to-end metrics to WORK_DIR/result.json;
* traced (TRACE 1): one untraced pass, then one pass with the span
  wrappers installed; the difference of their wall times is the tracing
  overhead.  Spans go to WORK_DIR/spans.json and the per-layer metrics to
  WORK_DIR/result.json.
"""

import json
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS

# A run never starts a pass it expects to end after this many seconds of
# measurement, so the whole run stays inside the 180 s limit.
MEASURE_BUDGET_S = 120.0


def _latency_metrics(latencies: dict) -> tuple:
    """Mean and p90 of each per-draw latency (the bounded metrics) and the
    median (reported, not bounded: the host alternates between two speeds
    about 1.5x apart for seconds at a time, so the median of a run jumps
    between the two modes while the mean moves with the share of time spent
    in each)."""
    metrics, medians, samples = {}, {}, {}
    for key, name in (("dpp", "dpp_draw_ms"), ("mcmc", "mcmc_config_ms"),
                      ("matrix", "matrix_draw_ms")):
        vals = np.asarray(latencies[key], dtype=float)
        stats = {"mean": float(vals.mean()) if vals.size else 0.0,
                 "p90": float(np.percentile(vals, 90)) if vals.size else 0.0}
        for stat, value in stats.items():
            metrics[f"{name}.{stat}"] = {"value": value, "unit": "ms"}
            samples[f"{name}.{stat}"] = int(vals.size)
        medians[f"{name}.p50"] = {"value": float(np.median(vals)) if vals.size else 0.0,
                                  "unit": "ms"}
        samples[f"{name}.p50"] = int(vals.size)
    return metrics, medians, samples


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def untraced(wl, seconds: float) -> dict:
    if wl.checkpoints_per_pass():
        wl.start_probe()
    passes = []
    start = perf_counter()
    while True:
        passes.append(wl.run_pass(len(passes)))
        elapsed = perf_counter() - start
        last = passes[-1]["wall_s"]
        if len(passes) >= wl.min_passes and (elapsed + last > seconds
                                             or elapsed + last > MEASURE_BUDGET_S):
            break
    wl.checkpoint(final=True)
    wl.check(passes)

    probe = wl.probe
    latencies = probe.lat if probe is not None else {
        k: sum((p["latencies"][k] for p in passes), []) for k in ("dpp", "mcmc", "matrix")}
    # Configurations the passes deliver over the pass time; a workload whose
    # passes deliver none (exact_checks) reports its latency probe's rate.
    configs = sum(p.get("configs", 0) for p in passes)
    rate = configs / sum(p["wall_s"] for p in passes) if configs \
        else probe.configs / wl.probe_s
    metrics = {"wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                          "unit": "s"},
               "configs_per_s": {"value": rate, "unit": "1/s"}}
    lat, medians, samples = _latency_metrics(latencies)
    metrics.update(lat)
    samples["wall_s"] = len(passes)
    metrics["peak_rss_mb"] = {"value": _peak_rss_mb(wl.name == "cli_suite"), "unit": "MB"}
    return {"metrics": metrics, "medians": medians, "samples": samples,
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "latency_source": "probe" if probe is not None else "passes",
            "configs_source": "passes" if configs else "probe",
            "latencies_ms": latencies}


def traced(wl, work_dir: Path) -> dict:
    base = wl.run_pass(0)
    tracer = Tracer()
    tracer.install()
    try:
        tr = wl.run_pass(1, tracer=tracer)
    finally:
        tracer.uninstall()
    wl.check([base, tr])
    own = tracer.dump()
    (work_dir / "spans.json").write_text(json.dumps(own))
    metrics = per_layer_metrics(
        [own] + tr.get("child_traces", []), base.get("walls", {}), base.get("bytes", 0),
        tr.get("imports", []), tr["wall_s"] - base["wall_s"])
    return {"metrics": metrics, "passes": 2,
            "untraced_wall_s": base["wall_s"], "traced_wall_s": tr["wall_s"]}


def main() -> int:
    workload, seed, seconds, trace, scale, work_dir = sys.argv[1:7]
    setup_only = "--setup-only" in sys.argv[7:]
    warnings.simplefilter("ignore", RuntimeWarning)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](int(seed), scale, work_dir)
    wl.setup()
    print("ready", flush=True)
    if setup_only:
        return 0
    if trace == "1":
        out = traced(wl, work_dir)
    else:
        out = untraced(wl, float(seconds))
    import scipy
    out.update({"attempted": wl.attempted, "failed": wl.failed, "gates": wl.gates,
                "science": wl.science,
                "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                             "scipy": scipy.__version__}})
    (work_dir / "result.json").write_text(json.dumps(out, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
