"""Run the benchmark several times per workload and print every metric.

    python3 perfbench/summary.py --runs 10                 # end-to-end, all workloads
    python3 perfbench/summary.py --runs 5 --workloads e5-spectral
    python3 perfbench/summary.py --runs 2 --trace 1        # per-layer metrics
    python3 perfbench/summary.py --runs 10 --sets 2        # also compare two sets

Runs one workload process at a time, each with another seed.  For each
workload it prints every metric by name and unit with its median,
quartiles and sample count.  End-to-end runs add the per-command times and
``failed_frac``, and check each spread (quartile distance over median)
against a third of the metric's bound in ``BENCHMARK.json``.  With ``--sets 2``
the second set's medians are compared with the first's.  Raw results go
to ``.perfbench_out/summary-*.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
FIRST_SEED = 1


def unit_of(name):
    """Unit of a detail-line command metric, from its suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_cal", "cal"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return ""


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def stats(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("nan")
    return median, q1, q3, spread


def collect(workloads, runs, seconds, trace):
    results = {}
    for workload in workloads:
        rows = []
        for seed in range(FIRST_SEED, FIRST_SEED + runs):
            started = time.perf_counter()
            detail, result = run_once(workload, seed, seconds, trace)
            rows.append({"seed": seed, "detail": detail, "result": result,
                         "elapsed_s": time.perf_counter() - started})
            print(f"  {workload} seed {seed}: {time.perf_counter() - started:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        results[workload] = rows
    return results


def series(rows, trace):
    """metric -> (unit, values) across the runs of one workload."""
    out = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            out.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        if trace == 0:
            for name, value in row["detail"]["commands"].items():
                if name not in row["result"]["metrics"]:
                    out.setdefault(name, (unit_of(name), []))[1].append(value)
            attempted, failed = row["result"]["attempted"], row["result"]["failed"]
            out.setdefault("failed_frac", ("ratio", []))[1].append(failed / attempted)
    return out


def report(spec, results, trace, previous=None):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, rows in results.items():
        print(f"\n{workload}  ({len(rows)} runs)")
        print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'n':>3s} {'spread':>8s}  check")
        for name, (unit, values) in series(rows, trace).items():
            median, q1, q3, spread = stats(values)
            check = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                ok = spread < bound / 3
                steady &= ok
                check = f"spread {'<' if ok else '>='} bound/3 = {bound / 3:.3f}"
                if previous is not None:
                    before = stats(series(previous[workload], trace)[name][1])[0]
                    worse = (median - before) / before
                    if bounds[name]["better"] == "higher":
                        worse = -worse
                    ok = worse <= bound
                    steady &= ok
                    check += f"; vs set 1 {worse:+.3f} {'<=' if ok else '>'} {bound}"
            print(f"  {name:40s} {unit:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(values):3d} {spread:8.4f}  {check}")
    return steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    sets = []
    for number in range(args.sets):
        print(f"set {number + 1}", file=sys.stderr)
        sets.append(collect(workloads, args.runs, seconds, args.trace))
    steady = True
    for number, results in enumerate(sets):
        print(f"\n=== set {number + 1} ===")
        steady &= report(spec, results, args.trace, sets[0] if number else None)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"summary-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "sets": sets},
                               indent=1), encoding="utf-8")
    print(f"\nraw results: {path}")
    if args.trace == 0:
        print("every spread and drift within its limit" if steady
              else "SOME SPREAD OR DRIFT EXCEEDS ITS LIMIT")
    return 0


if __name__ == "__main__":
    sys.exit(main())
