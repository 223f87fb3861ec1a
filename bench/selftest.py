"""Reduced-size self-test of the benchmark runner.

    python3 bench/selftest.py        # from the checkout root; about two minutes

For every workload, at ``--scale small``:

* an untraced run ends with a JSON line holding exactly ``correct``,
  ``attempted``, ``failed`` and ``metrics``; it is correct, and its metrics
  are exactly the ``end_to_end`` metrics of BENCHMARK.json, each with its
  unit and a finite positive value;
* two traced runs at the same seed emit exactly the ``per_layer`` metrics
  with their units, and every count among them (unit other than seconds)
  repeats exactly from one run to the other;
* the span files of the traced run (the workload process's own, plus one
  per CLI process on ``cli_suite``) are well-formed: valid name ids,
  start <= end, parents earlier in the list, on the same thread and
  enclosing their children; together they hold at least one span.

Finally the runner must fail, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Exits 0 when every
check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
failures = []


def expect(ok: bool, message: str):
    print(f"  [{'ok' if ok else 'FAIL'}] {message}")
    if not ok:
        failures.append(message)


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(result, spec_metrics, label):
    expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result line has exactly correct/attempted/failed/metrics")
    if result is None:
        return
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, {result['failed']} of {result['attempted']} operations failed")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    expect(set(got) == set(want), f"{label}: metric names match BENCHMARK.json "
           f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
    bad_units = [k for k in want if k in got and got[k].get("unit") != want[k]]
    expect(not bad_units, f"{label}: every metric carries its unit {bad_units or ''}")
    return got


def check_spans(path: Path):
    data = json.loads(path.read_text())
    names, spans = data["names"], data["spans"]
    problems = []
    for i, (nid, t0, t1, parent, tid) in enumerate(spans):
        if not 0 <= nid < len(names):
            problems.append(f"span {i}: name id {nid}")
        if t1 < t0:
            problems.append(f"span {i}: ends before it starts")
        if parent != -1:
            if not 0 <= parent < i:
                problems.append(f"span {i}: parent {parent}")
                continue
            _, p0, p1, _, ptid = spans[parent]
            if ptid != tid or t0 < p0 or t1 > p1:
                problems.append(f"span {i}: not enclosed by its parent")
        if len(problems) > 5:
            break
    expect(not problems and isinstance(data["counts"], dict),
           f"{path.relative_to(ROOT)}: {len(spans)} well-formed spans {problems[:3] or ''}")
    return len(spans)


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        print(workload)
        proc = run(workload, 0)
        got = check_metrics(last_json(proc), SPEC["end_to_end"], "untraced")
        if got:
            bad = [k for k, m in got.items()
                   if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                           and m["value"] > 0)]
            expect(not bad, f"untraced: every end-to-end value finite and positive {bad or ''}")

        traced = []
        for attempt in range(2):
            proc = run(workload, 1)
            traced.append(check_metrics(last_json(proc), SPEC["per_layer"],
                                        f"traced run {attempt + 1}"))
            if attempt == 0:
                run_dir = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1"
                total = sum(check_spans(path) for path in
                            [run_dir / "spans.json", *sorted(run_dir.rglob("*.spans.json"))])
                expect(total > 0, f"the traced run recorded {total} spans")
        if all(traced):
            counts = [k for k, m in traced[0].items() if m["unit"] != "s"]
            differ = [k for k in counts if traced[0][k]["value"] != traced[1][k]["value"]]
            expect(not differ, f"{len(counts)} per-layer counts repeat exactly at seed {SEED} "
                   f"{differ or ''}")

    print("bare directory")
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(workloads[0], 0, cwd=bare)
    expect(proc.returncode != 0 and last_json(proc) is None,
           f"without the sources the runner exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {'FAILED: ' + str(len(failures)) if failures else 'all checks hold'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
