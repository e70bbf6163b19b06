"""Command line interface.

Subcommands: ``validate``, ``spectrum``, ``solve``, ``verify``,
``equivalence``, ``example5``.  Every command prints a JSON report to
stdout (and to ``--out`` when given).  Exit codes: 0 success, 2 invalid
instance, 3 ``solve`` stopped at its iteration cap, 4 binary-control
budget exceeded, 5 bad control file, 1 for other failures including failed
optimality checks.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time

import numpy as np

from .errors import (
    BudgetExceededError,
    ControlFileError,
    InstanceFormatError,
    LqshiftError,
)
from .io import (
    instance_digest,
    load_control_csv,
    load_instance,
    make_report,
    report_json,
    with_depth,
    write_control_csv,
)
from .model import (
    ControlDomain,
    cost_constant,
    cost_direct,  # unused here; the benchmark tracer rebinds it
    example5_instance,
    validate_instance,
)
from .optimality import (
    DEFAULT_MSA_MAX_ITER,
    hamiltonian_mu,
    msa_candidate_search,
    run_checks,
)
from .oracle import (
    DEFAULT_BUDGET,
    brute_force_binary,
    equivalence_check,
)
from .spectral import certify_concavity, lambda_max


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _parse_mu(text: str) -> float | None:
    return None if text == "auto" else _finite_float(text)


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _parse_depths(text: str) -> list[int]:
    try:
        depths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("depths must be comma-separated integers")
    if not depths or any(d < 1 for d in depths):
        raise argparse.ArgumentTypeError("depths must be positive integers")
    if len(set(depths)) != len(depths):
        raise argparse.ArgumentTypeError("depths must not repeat")
    return depths


def _resolve_mu(args, inst):
    """Returns (mu, the result keys the spectral solve adds)."""
    if args.mu is not None:
        return args.mu, {}
    report = lambda_max(inst)
    return report.mu, {"spectral": report.to_dict()}


def _stage_clock(timings: dict):
    """``clock(stage, fn, *args)`` calls ``fn`` and adds its wall time, also
    when it raises, to ``timings[stage]``."""
    def clock(stage, fn, *fn_args, **fn_kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*fn_args, **fn_kwargs)
        finally:
            timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - t0)
    return clock


def _instance_command(command, args) -> tuple[int, dict]:
    """Load the instance at ``--depth``, run ``command`` and wrap its result.

    ``command(args, inst, domain, clock)`` returns ``(code, result,
    parameters)``; ``clock`` is a :func:`_stage_clock` over the report's
    ``timings``.
    """
    inst, domain = load_instance(args.instance)
    if args.depth is not None:
        inst = with_depth(inst, args.depth)
    timings = {}
    clock = _stage_clock(timings)
    code, result, parameters = command(args, inst, domain, clock)
    if hasattr(args, "mu"):
        parameters["mu"] = "auto" if args.mu is None else args.mu
    return code, make_report(args.command, result, digest=instance_digest(inst, domain),
                             parameters=parameters, timings=timings)


def cmd_validate(args, inst, domain, clock):
    report = validate_instance(inst, domain)
    result = dict(report.to_dict(), depth=inst.depth, n=inst.n, k=inst.k)
    return (0 if report.ok else 2), result, {}


def cmd_spectrum(args, inst, domain, clock):
    report = clock("spectrum", lambda_max, inst)
    result = report.to_dict()
    if args.certify:
        result["concavity"] = clock("certify", certify_concavity, inst, report.mu,
                                    top=report.lambda_max).to_dict()
    return 0, result, {}


def cmd_solve(args, inst, domain, clock):
    mu, spectral = clock("spectrum", _resolve_mu, args, inst)
    start = None
    if args.start:
        start = clock("load_control", load_control_csv, args.start, domain, inst.tree,
                      kind="binary")
    search = clock("search", msa_candidate_search, inst, domain, mu, start=start,
                   max_iter=args.max_iter)
    checks = clock("checks", run_checks, inst, search.control, mu,
                   trajectory=search.trajectory)
    if args.control_out:
        write_control_csv(args.control_out, search.control)
    result = {"mu": mu, "search": search.to_dict(), "checks": checks.to_dict(), **spectral}
    return (3 if search.status == "max-iter" else 0), result, {"max_iter": args.max_iter}


def cmd_verify(args, inst, domain, clock):
    control = clock("load_control", load_control_csv, args.control, domain, inst.tree,
                    kind=args.kind)
    mu, spectral = clock("spectrum", _resolve_mu, args, inst)
    checks = clock("checks", run_checks, inst, control, mu)
    return ((0 if checks.ok else 1), {**checks.to_dict(), **spectral},
            {"control": str(args.control), "kind": args.kind})


def cmd_equivalence(args, inst, domain, clock):
    cert, oracle = clock("equivalence", equivalence_check, inst, domain, mu=args.mu,
                         budget=args.budget)
    if args.control_out:
        write_control_csv(args.control_out, oracle.control)
    return ((0 if cert.ok else 1), {**cert.to_dict(), "oracle": oracle.to_dict()},
            {"budget": args.budget})


_EXAMPLE5_COLUMNS = ("depth", "cost_ones", "lambda_max", "mu",
                    "hamiltonian_quadratic", "hamiltonian_linear")
_EXTRAPOLATED = ("cost_ones", "lambda_max", "hamiltonian_quadratic", "hamiltonian_linear")


def cmd_example5(args) -> tuple[int, dict]:
    domain = ControlDomain.free(1)
    zeros1 = np.zeros((1, 1))
    rows = []
    timings = {}
    clock = _stage_clock(timings)
    for depth in args.depths:
        inst = example5_instance(depth)
        spectral = clock("spectrum", lambda_max, inst)
        h_plus, h_minus = (float(hamiltonian_mu(inst, 0, zeros1, sign * np.ones((1, 1)),
                                                zeros1, zeros1, spectral.mu)[0])
                           for sign in (1.0, -1.0))
        row = {
            "depth": depth,
            "cost_ones": cost_constant(inst, np.ones(1)),
            "lambda_max": spectral.lambda_max,
            "mu": spectral.mu,
            "hamiltonian_quadratic": 0.5 * (h_plus + h_minus),
            "hamiltonian_linear": 0.5 * (h_plus - h_minus),
        }
        try:
            oracle = clock("oracle", brute_force_binary, inst, domain, budget=args.budget)
            row["optimum"] = {"cost": oracle.cost, "enumerated": oracle.enumerated,
                              "tie_count": oracle.tie_count}
        except BudgetExceededError as exc:
            row["optimum"] = None
            row["optimum_skipped"] = str(exc)
        rows.append(row)

    result: dict = {"depths": rows}
    if len(args.depths) >= 2:
        d1, d2 = sorted(args.depths)[-2:]
        r1, r2 = (next(r for r in rows if r["depth"] == d) for d in (d1, d2))
        result["extrapolated"] = {"from_depths": [d1, d2], **{
            key: (d2 * r2[key] - d1 * r1[key]) / (d2 - d1) for key in _EXTRAPOLATED}}
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_EXAMPLE5_COLUMNS + ("optimal_cost",))
            for row in rows:
                optimum = row["optimum"]
                writer.writerow([repr(row[key]) for key in _EXAMPLE5_COLUMNS]
                                + ["" if optimum is None else repr(optimum["cost"])])
    out = make_report("example5", result,
                      parameters={"depths": args.depths, "budget": args.budget},
                      timings=timings)
    return 0, out


def _add_common(parser, *, instance=True, mu=False):
    if instance:
        parser.add_argument("instance", help="path to an instance JSON file")
        parser.add_argument("--depth", type=_positive_int, default=None,
                            help="re-discretize to this tree depth")
    if mu:
        parser.add_argument("--mu", type=_parse_mu, default=None,
                            help="shift value; default 'auto' computes -lambda_max")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared: parse with it, never modify it."""
    parser = argparse.ArgumentParser(
        prog="lqshift",
        description="Solve and certify binary-control linear-quadratic "
                    "problems on exact scenario trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    _add_common(p)
    p.set_defaults(func=functools.partial(_instance_command, cmd_validate))

    p = sub.add_parser("spectrum", help="top eigenvalue and shift")
    _add_common(p)
    p.add_argument("--certify", action="store_true",
                   help="also certify concavity of the shifted cost")
    p.set_defaults(func=functools.partial(_instance_command, cmd_spectrum))

    p = sub.add_parser("solve", help="search for a binary optimum")
    _add_common(p, mu=True)
    p.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MSA_MAX_ITER)
    p.add_argument("--start", default=None, help="CSV control file to start from")
    p.add_argument("--control-out", default=None,
                   help="write the found control to this CSV file")
    p.set_defaults(func=functools.partial(_instance_command, cmd_solve))

    p = sub.add_parser("verify", help="run optimality checks on a control file")
    _add_common(p, mu=True)
    p.add_argument("--control", required=True, help="CSV control file")
    p.add_argument("--kind", choices=["binary", "relaxed"], default="binary")
    p.set_defaults(func=functools.partial(_instance_command, cmd_verify))

    p = sub.add_parser("equivalence",
                       help="certify the shifted problem against the binary optimum")
    _add_common(p, mu=True)
    p.add_argument("--samples", type=_positive_int,
                   help="ignored (the relaxed minimum is exact); to be removed")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=_nonnegative_int, help="ignored, as --samples")
    p.add_argument("--control-out", default=None,
                   help="write the binary optimum to this CSV file")
    p.set_defaults(func=functools.partial(_instance_command, cmd_equivalence))

    p = sub.add_parser("example5", help="closed-form benchmark study")
    _add_common(p, instance=False)
    p.add_argument("--depths", type=_parse_depths, default=[2, 4, 8, 10])
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--csv", default=None, help="write a per-depth table to this file")
    p.set_defaults(func=cmd_example5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except InstanceFormatError as exc:
        report = {"error": "invalid-instance",
                  "issues": [{"path": p, "message": m} for p, m in exc.issues]}
        code = 2
    except BudgetExceededError as exc:
        report = {"error": "budget-exceeded", "required": exc.required,
                  "budget": exc.budget}
        code = 4
    except ControlFileError as exc:
        report = {"error": "bad-control-file", "message": str(exc)}
        code = 5
    except (LqshiftError, ValueError, OSError) as exc:
        report = {"error": "failed", "message": str(exc)}
        code = 1
    text = report_json(report)
    out_path = getattr(args, "out", None)
    if out_path:
        # written first, so a failed write leaves stdout one error document
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            code, text = 1, report_json({"error": "failed", "message": str(exc)})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
