"""lqshift benchmark: run one workload for a while and print one JSON result.

    python3 perfbench/run.py --workload deep-certify --seed 1 --seconds 30 --trace 0

Run from a checkout; the program under test is imported from ``src/``.
Commands run in-process through ``lqshift.cli.main``, one round after
another, until ``--seconds`` have passed (and at least a few rounds ran).
With ``--trace 0`` the last line carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, from a
traced run that follows a shorter untraced one.  The line before it is a
JSON record of the environment, per-command times and any failures.
"""

import os

# A plain single-threaded baseline: pin BLAS and OpenMP before numpy loads.
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3            # rounds per untraced run, however long they take
MIN_TRACED_ROUNDS = 2     # so that counts can be compared across rounds
SETUP_SAMPLES = 15
SETUP_CAL_UNITS = 20      # calibration units timed before and after each set-up
NOMINAL_UNIT_S = 2.5e-3   # deep calibration unit on a quiet reference host
WALL_GUARD_S = 150.0      # start no round that could end past this


def import_cli():
    """``lqshift.cli`` from this checkout's sources, or exit non-zero."""
    package = ROOT / "src" / "lqshift"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lqshift sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import lqshift.cli
    if Path(lqshift.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported lqshift from {lqshift.cli.__file__}")
    return lqshift.cli


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read BENCHMARK.json: {exc}")


def environment():
    import numpy as np

    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.is_file() else "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lqshift").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "l2": cache(2), "l3": cache(3),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_pin": THREAD_PIN, "cpu_pin": sorted(os.sched_getaffinity(0)),
        "git_commit": commit or "not a git checkout",
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(args):
    """Set-up time at the nominal host speed, and the plain samples.

    Each sample is a fresh process's wall time from process start through
    ``import lqshift`` and input generation to being ready for the first
    command.  It is divided by the deep calibration unit timed just before
    and after it, so a slow spell on the host cancels out, and the median
    over samples is converted back to seconds at ``NOMINAL_UNIT_S``.
    """
    calibrate = reference.Calibrator("deep")
    samples, units = [], [calibrate(SETUP_CAL_UNITS)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit("perfbench: set-up process failed")
        units.append(calibrate(SETUP_CAL_UNITS))
    scaled = [wall / (0.5 * (before + after))
              for wall, before, after in zip(samples, units, units[1:])]
    return NOMINAL_UNIT_S * statistics.median(scaled), samples


def measure(runner, workload, seconds, min_rounds):
    """Run rounds for ``seconds`` (at least ``min_rounds``); returns per-round records."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        longest = max((sum(r["wall"] for r in rnd) for rnd in rounds), default=0.0)
        if rounds and time.perf_counter() - STARTED + 1.5 * longest > WALL_GUARD_S:
            break
        rounds.append(runner.round(workload))
    return rounds


def medians(rows):
    """Median of each key over the dicts in ``rows``."""
    keys = {key for row in rows for key in row}
    return {key: statistics.median(row[key] for row in rows if key in row) for key in keys}


def end_to_end(runner, workload, seconds):
    """Untraced rounds; returns (rounds, metrics)."""
    rounds = measure(runner, workload, seconds, MIN_ROUNDS)
    computed = workloads.command_metrics(rounds)
    computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, computed


def per_layer(runner, workload, seconds, main, spec, spans_path):
    """A short untraced run, then traced rounds; returns (untraced, all rounds, metrics)."""
    begun = time.perf_counter()
    untraced = measure(runner, workload, seconds / 3.0, 1)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        runner.main, runner.tracer = tracer.wrap(main, "cli.main"), tracer
        traced = measure(runner, workload, seconds - (time.perf_counter() - begun),
                         MIN_TRACED_ROUNDS)
    commands = {(r["round"], r["index"]): r["command"] for r in runner.records}
    layers = [tracing.round_layers(tracer, rnd[0]["round"], commands) for rnd in traced]
    computed = medians(layers)
    for name in (m["name"] for m in spec["per_layer"] if m["unit"] == "count"):
        if len({row.get(name) for row in layers}) > 1:
            print(f"perfbench: {name} differs between traced rounds", file=sys.stderr)
        elif name in computed:
            computed[name] = int(computed[name])
    plain = workloads.command_metrics(untraced)
    # compared in calibration units, so a slow spell does not pass for overhead
    overhead = workloads.command_metrics(traced)["wall_cal"] / plain["wall_cal"] - 1.0
    computed["trace.overhead_frac"] = overhead
    computed["trace.overhead_s"] = overhead * plain["wall_s"]
    computed["cli.overhead_s"] = plain["cli_overhead_s"]
    rejected, base = (workload.impostor_counts() if hasattr(workload, "impostor_counts")
                      else (0, 0))
    computed["optimality.impostors_improvable"] = base
    computed["optimality.impostor_reject_ratio"] = rejected / base if base else 0.0
    tracer.write(spans_path, commands)
    return untraced, untraced + traced, computed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print 'ready', exit")
    args = parser.parse_args(argv)
    # One CPU for the whole run, set-up processes included: the vCPUs of a
    # shared host change speed independently, and the calibration kernel
    # must run where the work it scales runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = load_spec()
    cli = import_cli()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        runner = workloads.Runner(cli.main, workload.calibration)
        setup_s, setup_samples = measure_setup(args)
        if args.trace == 0:
            plain, computed = end_to_end(runner, workload, args.seconds)
            rounds = plain
            computed["setup_s"] = setup_s
            declared = spec["end_to_end"]
        else:
            plain, rounds, computed = per_layer(
                runner, workload, args.seconds, cli.main, spec,
                OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            declared = spec["per_layer"]
        missing = [m["name"] for m in declared if m["name"] not in computed]
        if missing:
            raise SystemExit(f"perfbench: metrics not computed: {missing}")

        records = [r for rnd in rounds for r in rnd]
        failed = [r for r in records if r["problems"]]
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds), "environment": environment(),
            "setup_samples_s": setup_samples,
            "round_walls_s": [sum(r["wall"] for r in rnd) for rnd in plain],
            "round_cal": [sum(r["wall"] / r["unit"] for r in rnd) for rnd in plain],
            "commands": workloads.command_metrics(plain),
            "failures": [{"round": r["round"], "command": r["command"],
                          "problems": r["problems"][:3]} for r in failed[:10]],
        }
        print(json.dumps({"perfbench": detail}, sort_keys=True))
        print(json.dumps({
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
