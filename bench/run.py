"""rnmlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter with ``PYTHONPATH=src`` and BLAS pinned to one thread (the CLI's
``clt`` gets ``--threads 2``, so no run uses more threads than the 2 cores
the benchmark was sized for).  Load is one closed loop: one call, or one CLI
process, at a time.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; ``setup_s`` is the median over several fresh
interpreters of the time from launch to ready (imports plus seeded input
generation).  With ``--trace 1`` it carries the per-layer metrics of a
traced pass, including self times and the tracing overhead.  Lines before
it report the run environment, every metric with its unit and sample
count, the correctness gates and the science checks.  Everything the run
writes goes under ``.bench_out/`` in the checkout.

Workloads, metrics and bounds: ``BENCHMARK.json``; the predicted effect of
each ROADMAP item: ``bench/README.md``; a reduced-size check of the runner
itself: ``python3 bench/selftest.py``.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_fluctuations", "exact_checks", "cli_suite")
BLAS_THREADS = 1
SETUP_PROBES = 3          # extra fresh interpreters timed to ready, before and
                          # again after the workload process (2 x 3 + 1 per run)
RUN_LIMIT_S = 170.0       # the whole run, children included


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str:
    """Commit of the checkout from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Child:
    """A workload process in its own session, killed as a group on timeout."""

    def __init__(self, args, work_dir: Path, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), args.scale, str(work_dir)]
        if setup_only:
            cmd.append("--setup-only")
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        self.setup_s = None

    def wait(self, deadline: float) -> int:
        """Exit code, or -1 when the deadline passed and the group was killed."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - perf_counter()))
        if ready and self.proc.stdout.readline().strip() == "ready":
            self.setup_s = perf_counter() - self.t0
        try:
            self.proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        return self.proc.returncode

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()


def run(args) -> int:
    if not (ROOT / "src" / "rnmlab" / "__init__.py").is_file():
        print(f"error: no rnmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setups = []

    def probe_setup(first: int) -> bool:
        for i in range(first, first + SETUP_PROBES):
            child = Child(args, run_dir / f"setup{i}", setup_only=True)
            if child.wait(deadline) != 0 or child.setup_s is None:
                print("error: set-up probe failed", file=sys.stderr)
                return False
            setups.append(child.setup_s)
        return True

    # Set-up probes on both sides of the workload process sample two stretches
    # of time half a minute apart, so one slow stretch of the host moves the
    # median less.
    if args.trace == 0 and not probe_setup(0):
        return 1
    main_child = Child(args, run_dir, setup_only=False)
    code = main_child.wait(deadline)
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 1
    if main_child.setup_s is not None:
        setups.append(main_child.setup_s)
    if args.trace == 0 and not probe_setup(SETUP_PROBES):
        return 1
    result = json.loads((run_dir / "result.json").read_text())
    metrics = result["metrics"]
    samples = result.get("samples", {})
    attempted, failed = result["attempted"], result["failed"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        samples["setup_s"] = len(setups)
        metrics["ops_ok_ratio"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "blas_threads": BLAS_THREADS,
           **result["versions"], "git_commit": git_commit(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "scale": args.scale}
    medians = result.get("medians", {})
    report = {"environment": env, "metrics": metrics, "medians": medians, "samples": samples,
              "setup_samples_s": setups,
              "attempted": attempted, "failed": failed,
              "ops_failed_ratio": failed / attempted, "gates": result["gates"],
              "science": result["science"], "run_s": perf_counter() - start,
              **{k: result[k] for k in ("passes", "pass_wall_s", "latency_source",
                                        "configs_source", "latencies_ms",
                                        "untraced_wall_s", "traced_wall_s")
                 if k in result}}
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        n = samples.get(name)
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    for name, m in medians.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  (n={samples[name]}; reported, not bounded)")
    print(f"  ops_failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if "untraced_wall_s" in result:
        print(f"  trace: untraced pass {result['untraced_wall_s']:.3f} s, traced pass "
              f"{result['traced_wall_s']:.3f} s; spans in {run_dir / 'spans.json'}")
    for g in result["gates"]:
        print(f"  gate [{'ok' if g['ok'] else 'FAILED'}] {g['name']}: {g['detail']}")
    red = [s for s in result["science"] if not s["pass"]]
    print(f"  science checks: {len(result['science']) - len(red)} pass, {len(red)} fail "
          "(recorded, not counted as failures)")
    for s in red:
        print(f"    [red] {s['name']}: value={s['value']:.6g} prediction={s['prediction']:.6g}"
              f" tolerance={s['tolerance']:.3g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' shrinks every size (used by selftest.py)")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
