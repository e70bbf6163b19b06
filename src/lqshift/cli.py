"""Command line interface.

Subcommands: ``validate``, ``spectrum``, ``solve``, ``verify``,
``equivalence``, ``example5``.  Every command prints a JSON report to
stdout (and to ``--out`` when given).  Exit codes: 0 success, 2 invalid
instance, 3 ``solve`` stopped at its iteration cap, 4 enumeration budget
exceeded, 5 bad control file, 1 for other failures including failed
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
    ControlProcess,
    cost_direct,
    example5_instance,
    validate_instance,
)
from .model import ControlDomain
from .optimality import (
    DEFAULT_MSA_MAX_ITER,
    hamiltonian_mu,
    msa_candidate_search,
    run_checks,
)
from .oracle import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
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


def _damping(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in (0, 1]")
    return value


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
    return depths


def _load(args) -> tuple:
    inst, domain = load_instance(args.instance)
    if getattr(args, "depth", None) is not None:
        inst = with_depth(inst, args.depth)
    return inst, domain


def _resolve_mu(args, inst):
    """Returns (mu, spectral dict or None)."""
    if args.mu is not None:
        return args.mu, None
    report = lambda_max(inst)
    return report.mu, report.to_dict()


def cmd_validate(args) -> tuple[int, dict]:
    inst, domain = _load(args)
    report = validate_instance(inst, domain)
    result = report.to_dict()
    result["depth"] = inst.depth
    result["n"] = inst.n
    result["k"] = inst.k
    out = make_report("validate", result, digest=instance_digest(inst, domain))
    return (0 if report.ok else 2), out


def cmd_spectrum(args) -> tuple[int, dict]:
    inst, domain = _load(args)
    t0 = time.perf_counter()
    report = lambda_max(inst)
    timings = {"spectrum": time.perf_counter() - t0}
    result = report.to_dict()
    if args.certify:
        t0 = time.perf_counter()
        cert = certify_concavity(inst, report.mu, top=report.lambda_max)
        timings["certify"] = time.perf_counter() - t0
        result["concavity"] = cert.to_dict()
    out = make_report("spectrum", result, digest=instance_digest(inst, domain),
                      timings=timings)
    return 0, out


def cmd_solve(args) -> tuple[int, dict]:
    inst, domain = _load(args)
    timings = {}
    t0 = time.perf_counter()
    mu, spectral = _resolve_mu(args, inst)
    timings["spectrum"] = time.perf_counter() - t0
    start = None
    if args.start:
        t0 = time.perf_counter()
        start = load_control_csv(args.start, domain, inst.tree, kind="binary")
        timings["load_control"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    search = msa_candidate_search(inst, domain, mu, start=start,
                                  max_iter=args.max_iter, damping=args.damping)
    timings["search"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    checks = run_checks(inst, search.control, mu, trajectory=search.trajectory)
    timings["checks"] = time.perf_counter() - t0
    if args.control_out:
        write_control_csv(args.control_out, search.control)
    result = {
        "mu": mu,
        "search": search.to_dict(),
        "checks": checks.to_dict(),
    }
    if spectral is not None:
        result["spectral"] = spectral
    out = make_report("solve", result, digest=instance_digest(inst, domain),
                      parameters={"max_iter": args.max_iter,
                                  "damping": args.damping,
                                  "mu": "auto" if args.mu is None else args.mu},
                      timings=timings)
    return (3 if search.status == "max-iter" else 0), out


def cmd_verify(args) -> tuple[int, dict]:
    inst, domain = _load(args)
    t0 = time.perf_counter()
    control = load_control_csv(args.control, domain, inst.tree, kind=args.kind)
    timings = {"load_control": time.perf_counter() - t0}
    t0 = time.perf_counter()
    mu, spectral = _resolve_mu(args, inst)
    timings["spectrum"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    checks = run_checks(inst, control, mu)
    timings["checks"] = time.perf_counter() - t0
    result = checks.to_dict()
    if spectral is not None:
        result["spectral"] = spectral
    out = make_report("verify", result, digest=instance_digest(inst, domain),
                      parameters={"control": str(args.control), "kind": args.kind,
                                  "mu": "auto" if args.mu is None else args.mu},
                      timings=timings)
    return (0 if checks.ok else 1), out


def cmd_equivalence(args) -> tuple[int, dict]:
    inst, domain = _load(args)
    timings = {}
    t0 = time.perf_counter()
    cert, oracle = equivalence_check(inst, domain, mu=args.mu,
                                     samples=args.samples, budget=args.budget,
                                     seed=args.seed)
    timings["equivalence"] = time.perf_counter() - t0
    result = cert.to_dict()
    result["oracle"] = oracle.to_dict()
    if args.control_out:
        write_control_csv(args.control_out, oracle.control)
    out = make_report("equivalence", result, digest=instance_digest(inst, domain),
                      parameters={"samples": args.samples, "budget": args.budget,
                                  "seed": args.seed,
                                  "mu": "auto" if args.mu is None else args.mu},
                      timings=timings)
    return (0 if cert.ok else 1), out


def cmd_example5(args) -> tuple[int, dict]:
    domain = ControlDomain.free(1)
    rows = []
    for depth in args.depths:
        inst = example5_instance(depth)
        ones = ControlProcess.constant(domain, inst.tree, np.ones(1), "binary")
        cost_ones = cost_direct(inst, ones)
        spectral = lambda_max(inst)
        zeros1 = np.zeros((1, 1))
        h_plus = float(hamiltonian_mu(inst, 0, zeros1, np.ones((1, 1)),
                                      zeros1, zeros1, spectral.mu)[0])
        h_minus = float(hamiltonian_mu(inst, 0, zeros1, -np.ones((1, 1)),
                                       zeros1, zeros1, spectral.mu)[0])
        row = {
            "depth": depth,
            "cost_ones": cost_ones,
            "lambda_max": spectral.lambda_max,
            "mu": spectral.mu,
            "spectral_method": spectral.method,
            "hamiltonian_quadratic": 0.5 * (h_plus + h_minus),
            "hamiltonian_linear": 0.5 * (h_plus - h_minus),
        }
        try:
            oracle = brute_force_binary(inst, domain, budget=args.budget)
            row["optimum"] = {"cost": oracle.cost, "enumerated": oracle.enumerated,
                              "tie_count": oracle.tie_count}
        except BudgetExceededError as exc:
            row["optimum"] = None
            row["optimum_skipped"] = f"enumeration needs {exc.required} evaluations"
        rows.append(row)

    result: dict = {"depths": rows}
    if len(args.depths) >= 2:
        d1, d2 = sorted(args.depths)[-2:]
        if d1 != d2:
            r1 = next(r for r in rows if r["depth"] == d1)
            r2 = next(r for r in rows if r["depth"] == d2)

            def extrap(key):
                return (d2 * r2[key] - d1 * r1[key]) / (d2 - d1)

            result["extrapolated"] = {
                "from_depths": [d1, d2],
                "cost_ones": extrap("cost_ones"),
                "lambda_max": extrap("lambda_max"),
                "hamiltonian_quadratic": extrap("hamiltonian_quadratic"),
                "hamiltonian_linear": extrap("hamiltonian_linear"),
            }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["depth", "cost_ones", "lambda_max", "mu",
                             "hamiltonian_quadratic", "hamiltonian_linear",
                             "optimal_cost"])
            for row in rows:
                writer.writerow([
                    row["depth"], repr(row["cost_ones"]), repr(row["lambda_max"]),
                    repr(row["mu"]), repr(row["hamiltonian_quadratic"]),
                    repr(row["hamiltonian_linear"]),
                    "" if row["optimum"] is None else repr(row["optimum"]["cost"]),
                ])
    out = make_report("example5", result,
                      parameters={"depths": args.depths, "budget": args.budget})
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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="top eigenvalue and shift")
    _add_common(p)
    p.add_argument("--certify", action="store_true",
                   help="also certify concavity of the shifted cost")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("solve", help="search for a binary optimum")
    _add_common(p, mu=True)
    p.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MSA_MAX_ITER)
    p.add_argument("--damping", type=_damping, default=1.0)
    p.add_argument("--start", default=None, help="CSV control file to start from")
    p.add_argument("--control-out", default=None,
                   help="write the found control to this CSV file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run optimality checks on a control file")
    _add_common(p, mu=True)
    p.add_argument("--control", required=True, help="CSV control file")
    p.add_argument("--kind", choices=["binary", "relaxed"], default="binary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("equivalence",
                       help="certify the shifted problem against enumeration")
    _add_common(p, mu=True)
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--control-out", default=None,
                   help="write the enumerated optimum to this CSV file")
    p.set_defaults(func=cmd_equivalence)

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
    except (LqshiftError, ValueError) as exc:
        report = {"error": "failed", "message": str(exc)}
        code = 1
    text = report_json(report)
    sys.stdout.write(text)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
