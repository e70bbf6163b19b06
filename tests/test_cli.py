import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import lqshift as lq
from lqshift.cli import build_parser, main
from lqshift.tree import NODE_BYTES_BOUND

from oracles import random_instance


@pytest.fixture
def bench_file(tmp_path, bench2, free1):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(lq.dump_instance(bench2, free1)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, bench_file, tmp_path):
    out_file = tmp_path / "report.json"
    code, report = run_cli(capsys, "validate", bench_file, "--out", str(out_file))
    assert code == 0
    assert report["tool"] == "lqshift"
    assert report["command"] == "validate"
    assert report["result"]["valid"] is True
    assert report["result"]["depth"] == 2
    assert "instance_digest" in report
    assert json.loads(out_file.read_text()) == report


def test_validate_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "k": 1, "T": 1.0, "depth": 1,
                               "coefficients": {}, "bogus": True}))
    code, report = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert report["error"] == "invalid-instance"
    assert any(issue["path"] == "/bogus" for issue in report["issues"])
    code, report = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2


HUGE = 10 ** 400  # a JSON integer literal too wide for a float


@pytest.mark.parametrize("path, message", [
    ("/T", "must be a positive finite number"),
    ("/domain/halfspaces/0/bound", "must be a finite number"),
    ("/x0", "contains non-finite entries"),
    ("/coefficients/D", "contains non-finite entries"),
])
def test_huge_integer_literals_are_invalid_instances(capsys, tmp_path, path, message):
    def at(where):
        return HUGE if path == where else 1

    doc = {"n": 1, "k": 1, "T": at("/T"), "depth": 2, "x0": [-at("/x0")],
           "coefficients": {"D": [[at("/coefficients/D")]]},
           "domain": {"halfspaces": [{"normal": [1],
                                      "bound": at("/domain/halfspaces/0/bound")}]}}
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert str(HUGE) in bad.read_text()
    code, report = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert report == {"error": "invalid-instance",
                      "issues": [{"path": path, "message": message}]}


def test_depth_override(capsys, bench_file):
    code, report = run_cli(capsys, "validate", bench_file, "--depth", "3")
    assert code == 0
    assert report["result"]["depth"] == 3


def test_spectrum(capsys, bench_file):
    code, report = run_cli(capsys, "spectrum", bench_file)
    assert code == 0
    result = report["result"]
    assert set(result) == {"lambda_max", "mu", "iterations", "residual"}
    assert abs(result["lambda_max"] - 2.0) <= 1e-8
    assert result["mu"] == -result["lambda_max"]

    code, report = run_cli(capsys, "spectrum", bench_file, "--certify")
    assert code == 0
    assert report["result"]["concavity"]["ok"] is True
    assert set(report["result"]["concavity"]) == {
        "mu", "ok", "worst", "tol", "pivot_min", "pivot_level"}
    # the dense and power cross-checks are library calls the CLI does not offer
    assert _exit_code(capsys, "spectrum", bench_file, "--method", "dense") == 2


def test_solve(capsys, bench_file, tmp_path, bench2, free1):
    control_file = tmp_path / "found.csv"
    code, report = run_cli(capsys, "solve", bench_file,
                           "--control-out", str(control_file))
    assert code == 0
    result = report["result"]
    assert result["search"]["status"] == "fixed-point"
    assert result["search"]["cost"] == 0.0
    assert result["checks"]["ok"] is True
    assert set(result["spectral"]) == {"lambda_max", "mu", "iterations", "residual"}
    assert report["parameters"]["mu"] == "auto"
    loaded = lq.load_control_csv(control_file, free1, bench2.tree)
    for m in range(2):
        assert not np.any(loaded.process.levels[m])


def test_solve_iteration_cap_exit_code(capsys, bench_file, tmp_path,
                                       bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    start = tmp_path / "start.csv"
    lq.write_control_csv(start, ones)
    code, report = run_cli(capsys, "solve", bench_file,
                           "--start", str(start), "--max-iter", "1")
    assert code == 3
    assert report["result"]["search"]["status"] == "max-iter"


def test_verify(capsys, bench_file, tmp_path, bench2, free1):
    zero = tmp_path / "zero.csv"
    lq.write_control_csv(zero, lq.ControlProcess.constant(free1, bench2.tree, np.zeros(1)))
    code, report = run_cli(capsys, "verify", bench_file, "--control", str(zero))
    assert code == 0
    assert report["result"]["ok"] is True
    assert set(report["result"]["checks"]) == \
        {"stationarity", "remark1_signs", "general_smp"}

    ones = tmp_path / "ones.csv"
    lq.write_control_csv(
        ones, lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary"))
    code, report = run_cli(capsys, "verify", bench_file,
                           "--control", str(ones), "--mu", "-2.0")
    assert code == 1
    assert report["result"]["ok"] is False
    assert report["result"]["checks"]["stationarity"]["ok"] is False
    # explicit mu skips the spectral solve
    assert "spectral" not in report["result"]


def test_verify_bad_control_file(capsys, bench_file, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("level,index,u1\n0,0,banana\n")
    code, report = run_cli(capsys, "verify", bench_file, "--control", str(bad))
    assert code == 5
    assert report["error"] == "bad-control-file"


def test_unreadable_control_files_exit_5(capsys, bench_file, tmp_path):
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin.csv"
    latin.write_bytes("level,index,u1\n0,0,0.0\n1,0,0.0\n1,1,0.0\n# \xe9\n"
                      .encode("latin-1"))
    for path in (folder, latin):
        for argv in (("verify", bench_file, "--control", str(path)),
                     ("solve", bench_file, "--start", str(path))):
            code, report = run_cli(capsys, *argv)
            assert code == 5, argv
            assert report["error"] == "bad-control-file"
            assert report["message"].startswith(f"cannot read {path}")


def test_equivalence(capsys, bench_file):
    code, report = run_cli(capsys, "equivalence", bench_file)
    assert code == 0
    result = report["result"]
    assert result["ok"] is True
    assert result["binary"]["enumerated"] == 8
    assert result["oracle"]["cost"] == 0.0

    code, report = run_cli(capsys, "equivalence", bench_file, "--budget", "4")
    assert code == 4
    assert report["error"] == "budget-exceeded"
    assert report["required"] == 8


def test_equivalence_certifies_a_given_mu(capsys):
    """A given mu that does not make the quadratic part concave fails the
    certificate, and the report carries the true lambda_max, not -mu."""
    code, report = run_cli(capsys, "equivalence", EXAMPLE5, "--depth", "3",
                           "--mu", "-1")
    assert code == 1
    result = report["result"]
    assert result["ok"] is False
    assert result["lambda_max"] == pytest.approx(3.0 - 2.0 / 3, rel=1e-12)
    concavity = result["concavity"]
    assert concavity["ok"] is False and concavity["mu"] == -1.0
    assert concavity["worst"] == pytest.approx(result["lambda_max"] - 1.0)
    assert result["stationarity"]["ok"] is True
    assert result["warnings"] == [
        "the shift does not make the quadratic part concave: the Riccati test "
        f"fails at level {concavity['pivot_level']}"]

    code, report = run_cli(capsys, "equivalence", EXAMPLE5, "--depth", "3",
                           "--mu", "-3")
    assert code == 0
    assert report["result"]["concavity"]["ok"] is True
    assert report["result"]["warnings"] == []


@pytest.mark.parametrize("argv, parameters, timings", [
    (["validate"], None, None),
    (["spectrum"], None, {"spectrum"}),
    (["spectrum", "--certify"], None, {"spectrum", "certify"}),
    (["solve"], {"max_iter", "mu"}, {"spectrum", "search", "checks"}),
    (["solve", "--start", "CONTROL"], {"max_iter", "mu"},
     {"spectrum", "load_control", "search", "checks"}),
    (["verify", "--control", "CONTROL"], {"control", "kind", "mu"},
     {"load_control", "spectrum", "checks"}),
    (["equivalence"], {"budget", "mu"}, {"equivalence"}),
    (["example5"], {"depths", "budget"}, {"spectrum", "oracle"}),
], ids=["validate", "spectrum", "spectrum-certify", "solve", "solve-start", "verify",
        "equivalence", "example5"])
def test_report_envelope(capsys, tmp_path, bench_file, bench2, free1,
                         argv, parameters, timings):
    """Which of instance_digest, parameters and timings each command's
    report has, and their keys."""
    control = tmp_path / "zero.csv"
    lq.write_control_csv(control, lq.ControlProcess.constant(free1, bench2.tree, np.zeros(1)))
    command, *options = [str(control) if arg == "CONTROL" else arg for arg in argv]
    instance = [] if command == "example5" else [bench_file]
    code, report = run_cli(capsys, command, *instance, *options)
    assert code == 0
    envelope = {"tool", "version", "command", "result"}
    envelope |= {"instance_digest"} if instance else set()
    envelope |= {"parameters"} if parameters else set()
    envelope |= {"timings"} if timings else set()
    assert set(report) == envelope
    assert report["command"] == command
    assert set(report.get("parameters", ())) == (parameters or set())
    assert set(report.get("timings", ())) == (timings or set())


def test_example5_study(capsys, tmp_path):
    table = tmp_path / "table.csv"
    code, report = run_cli(capsys, "example5", "--depths", "2,4",
                           "--budget", "100", "--csv", str(table))
    assert code == 0
    rows = report["result"]["depths"]
    assert [row["depth"] for row in rows] == [2, 4]
    row_keys = {"depth", "cost_ones", "lambda_max", "mu", "hamiltonian_quadratic",
                "hamiltonian_linear", "optimum"}
    assert set(rows[0]) == row_keys
    assert set(rows[1]) == row_keys | {"optimum_skipped"}
    assert rows[0]["optimum"]["cost"] == 0.0
    # depth 4 needs 2^15 evaluations, above the tiny budget
    assert rows[1]["optimum"] is None
    assert "optimum_skipped" in rows[1]

    extrap = report["result"]["extrapolated"]
    assert extrap["from_depths"] == [2, 4]
    assert abs(extrap["cost_ones"] - 1.0) <= 1e-12
    assert abs(extrap["lambda_max"] - 3.0) <= 1e-8
    assert abs(extrap["hamiltonian_quadratic"] - 2.0) <= 1e-8
    assert abs(extrap["hamiltonian_linear"] + 1.5) <= 1e-8

    lines = table.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("depth,")


def test_argparse_contract(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["spectrum"])  # instance path is required
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["solve", "x.json", "--mu", "abc"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["example5", "--depths", "0,2"])


def _exit_code(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    capsys.readouterr()
    return excinfo.value.code


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_mu_is_rejected(capsys, bench_file, tmp_path, value):
    control = tmp_path / "ones.csv"
    for argv in (("verify", bench_file, "--control", str(control)),
                 ("solve", bench_file),
                 ("equivalence", bench_file)):
        assert _exit_code(capsys, *argv, f"--mu={value}") == 2, argv


@pytest.mark.parametrize("argv", [
    ("equivalence", "--depth", "0"),
    ("solve", "--max-iter", "0"),
    ("solve", "--max-iter", "-3"),
    ("equivalence", "--samples", "0"),
    ("equivalence", "--samples", "-1"),
    ("equivalence", "--samples", "1.5"),
    ("validate", "--depth", "0"),
    ("validate", "--depth", "-1"),
    ("spectrum", "--depth", "0"),
    ("spectrum", "--depth", "-1"),
])
def test_count_options_must_be_positive(capsys, bench_file, argv):
    command, *options = argv
    assert _exit_code(capsys, command, bench_file, *options) == 2


@pytest.mark.parametrize("options", [
    ("example5", "--depths", "2,4,4"),
    ("example5", "--depths", "4,2,4"),
    ("solve", "--max-iter", "x"),
    ("verify", "--mu", "abc"),
    ("equivalence", "--mu", "x"),
    ("solve", "--depth", "0"),
    ("verify", "--depth", "1.5"),
    ("equivalence", "--depth", "-1"),
    ("example5", "--depths", "2,x"),
    ("example5", "--depths", ","),
    ("verify", "--kind", "fuzzy"),
    ("spectrum", "--depth", "1.5"),
    ("equivalence", "--budget", "-5"),
    ("equivalence", "--budget", "0"),
    ("example5", "--budget", "-5"),
    ("equivalence", "--seed", "-1"),
    ("example5", "--budget", "0"),
    ("equivalence", "--seed", "1.5"),
])
def test_option_values_are_checked(capsys, bench_file, tmp_path, options):
    command, *rest = options
    argv = {"verify": (command, bench_file, "--control", str(tmp_path / "u.csv")),
            "example5": (command,)}.get(command, (command, bench_file))
    assert _exit_code(capsys, *argv, *rest) == 2


OPTIONS = {
    "validate": {"--depth", "--out"},
    "spectrum": {"--depth", "--out", "--certify"},
    "solve": {"--depth", "--mu", "--out", "--max-iter", "--start", "--control-out"},
    "verify": {"--depth", "--mu", "--out", "--control", "--kind"},
    "equivalence": {"--depth", "--mu", "--out", "--samples", "--budget", "--seed",
                    "--control-out"},
    "example5": {"--out", "--depths", "--budget", "--csv"},
}


def test_option_inventory(capsys, bench_file):
    """Every subcommand offers exactly the options listed here, besides
    ``--help``; adding or removing one is an edit to this table."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    found = {name: {option for action in sub._actions for option in action.option_strings
                    if not isinstance(action, argparse._HelpAction)}
             for name, sub in subparsers.choices.items()}
    assert found == OPTIONS
    assert _exit_code(capsys, "solve", bench_file, "--damping", "0.5") == 2


def test_option_bounds_are_accepted(capsys, bench_file):
    code, report = run_cli(capsys, "example5", "--depths", "2", "--budget", "1")
    assert code == 0
    assert report["result"]["depths"][0]["optimum"] is None
    code, report = run_cli(capsys, "equivalence", bench_file, "--seed", "0")
    assert code == 0
    assert "seed" not in report["parameters"]


def test_smallest_counts_run(capsys, bench_file):
    """``--samples`` and ``--seed`` still parse, and change nothing: the
    relaxed minimum is exact."""
    code, plain = run_cli(capsys, "equivalence", bench_file)
    assert code == 0
    for flags in (("--samples", "1"), ("--samples", "64", "--seed", "7")):
        code, report = run_cli(capsys, "equivalence", bench_file, *flags)
        assert code == 0
        assert report["parameters"] == plain["parameters"] == {"budget": 10 ** 6, "mu": "auto"}
        assert report["result"] == plain["result"]
    assert plain["result"]["relaxed"] == {"min_cost": 0.0, "margin": 0.0, "slack": 5e-09}


EXAMPLE5 = str(resources.files("lqshift").joinpath("data/example5.json"))


def test_refusals_past_the_digit_limit_keep_their_exit_codes(capsys):
    """Depth 14 ranges over 2**16383 controls, 4,932 digits: more than an
    int prints, so the count is reported as text."""
    code, report = run_cli(capsys, "example5", "--depths", "2,14")
    assert code == 0
    shallow, deep = report["result"]["depths"]
    assert shallow["optimum"]["cost"] == 0.0
    assert deep["optimum"] is None
    assert deep["optimum_skipped"] == (
        "the optimum ranges over 2**16383 binary controls, budget is 1000000")
    code, report = run_cli(capsys, "equivalence", EXAMPLE5, "--depth", "14")
    assert code == 4
    assert report == {"error": "budget-exceeded", "required": "2**16383",
                      "budget": 1000000}


def test_example5_rows_run_past_the_node_memory_bound(capsys):
    """Depth 30 has 2**30 nodes a level: the all-ones cost comes from one
    second moment per level, and only the optimum is skipped."""
    code, report = run_cli(capsys, "example5", "--depths", "2,30")
    assert code == 0
    shallow, deep = report["result"]["depths"]
    assert shallow["cost_ones"] == 0.75
    assert deep["cost_ones"] == pytest.approx(1.5 - 31 / 60, rel=1e-12, abs=0)
    assert deep["optimum"] is None


def test_deep_trees_run_where_nothing_is_per_node(capsys):
    code, report = run_cli(capsys, "spectrum", EXAMPLE5, "--depth", "200", "--certify")
    assert code == 0
    result = report["result"]
    assert result["lambda_max"] == pytest.approx(3.0 - 2.0 / 200, rel=1e-12)
    assert result["concavity"]["ok"] is True
    code, report = run_cli(capsys, "validate", EXAMPLE5, "--depth", "200")
    assert code == 0
    assert report["result"]["depth"] == 200


@pytest.mark.parametrize("argv", [
    ("solve", EXAMPLE5, "--depth", "40"),
    # 4 ** 13 leaf states, once the budget admits the 2 ** 8191 controls
    ("equivalence", EXAMPLE5, "--depth", "13", "--budget", str(2 ** 8191)),
    # no address space holds the coefficients at this depth, so even
    # unguarded it fails at once instead of allocating
    ("validate", EXAMPLE5, "--depth", str(HUGE)),
    ("example5", "--depths", str(HUGE)),
])
def test_memory_bound_is_a_json_error(capsys, argv):
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert report["error"] == "failed"
    assert f"memory bound of {NODE_BYTES_BOUND} bytes" in report["message"]


def test_solve_builds_each_trajectory_once(capsys, monkeypatch, tmp_path):
    """The checks reuse the trajectory the search ended on: a fixed point
    after I iterations builds I trajectories, a cycle detected at iteration
    I builds I - 1, and only at the cap is the last iterate swept anew."""
    import lqshift.optimality as optimality

    built = []
    original = optimality.Trajectory.of
    monkeypatch.setattr(optimality.Trajectory, "of", staticmethod(
        lambda inst, u: built.append(1) or original(inst, u)))
    extra = {"fixed-point": 0, "cycle": -1, "max-iter": 1}
    seen = set()
    control_file = tmp_path / "found.csv"
    for seed in range(10):
        inst, domain = random_instance(seed, depth_max=4)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(json.dumps(lq.dump_instance(inst, domain)))
        for options in ((), ("--mu", "0"), ("--mu", "0", "--max-iter", "2")):
            built.clear()
            code, report = run_cli(capsys, "solve", str(path), *options,
                                   "--control-out", str(control_file))
            assert code in (0, 1, 3)
            result = report["result"]
            search = result["search"]
            seen.add(search["status"])
            assert len(built) == search["iterations"] + extra[search["status"]], \
                (seed, options)
            control = lq.load_control_csv(control_file, domain, inst.tree)
            assert result["checks"] == json.loads(lq.report_json(
                lq.run_checks(inst, control, result["mu"]).to_dict()))
    assert seen == set(extra)


@pytest.mark.parametrize("key, value", [
    ("n", 10 ** 7), ("k", 10 ** 7), ("depth", HUGE),
], ids=["n", "k", "depth"])
def test_coefficients_beyond_the_memory_bound_are_invalid_instances(
        capsys, tmp_path, key, value):
    """The loader refuses the sizes before allocating any coefficient; even
    unguarded, each size asks for more than an address space holds."""
    doc = json.loads(resources.files("lqshift").joinpath("data/example5.json").read_text())
    doc[key] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert report["error"] == "invalid-instance"
    [issue] = report["issues"]
    assert issue["path"] == f"/{key}"
    assert f"memory bound of {NODE_BYTES_BOUND} bytes" in issue["message"]


def test_verify_repeats_the_equivalence_stationarity(capsys, tmp_path):
    """The enumerated optimum that equivalence writes gets, from verify at
    the same shift, the stationarity verdict and violation equivalence
    reports for it."""
    control = tmp_path / "optimum.csv"
    for seed in (3, 11, 17):
        inst, domain = random_instance(seed, depth_max=3)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(json.dumps(lq.dump_instance(inst, domain)))
        for mu in ("auto", "-3"):
            code, report = run_cli(capsys, "equivalence", str(path), "--mu", mu,
                                   "--control-out", str(control))
            assert code in (0, 1)
            expected = report["result"]["stationarity"]
            code, report = run_cli(capsys, "verify", str(path), "--mu", mu,
                                   "--control", str(control))
            stationarity = report["result"]["checks"]["stationarity"]
            assert {key: stationarity[key] for key in expected} == expected, (seed, mu)


def test_near_binary_control_files_read_as_their_vertices(capsys, tmp_path):
    """A control file that writes each 1 as 0.9999999995, within the
    membership tolerance, verifies as the exact file does, and solve
    started from it writes the vertex back."""
    exact, near = tmp_path / "exact.csv", tmp_path / "near.csv"
    written, written_near = tmp_path / "written.csv", tmp_path / "written-near.csv"
    for seed in (3, 5, 11, 17):
        inst, domain = random_instance(seed, depth_max=3)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(json.dumps(lq.dump_instance(inst, domain)))
        run_cli(capsys, "equivalence", str(path), "--control-out", str(exact))
        # the file writes each 1 as 1.0, and its integer fields hold no "."
        near.write_bytes(exact.read_bytes().replace(b"1.0", b"0.9999999995"))
        assert b"0.9999999995" in near.read_bytes(), seed
        (code, report), (near_code, near_report) = [
            run_cli(capsys, "verify", str(path), "--control", str(f)) for f in (exact, near)]
        assert near_code == code
        assert near_report["result"] == report["result"], seed
        assert near_report["result"]["cost"] == near_report["result"]["cost_shifted"]
        for start, out in ((exact, written), (near, written_near)):
            run_cli(capsys, "solve", str(path), "--start", str(start),
                    "--control-out", str(out))
        assert written_near.read_bytes() == written.read_bytes(), seed
        assert b",1.0" in written.read_bytes() and b"0.99" not in written.read_bytes()


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON token {name}")


def _example5_with(tmp_path, name, fields=(), **coefficients):
    """The file ``name``: Example 5 with top-level ``fields`` and
    ``coefficients`` replaced."""
    doc = json.loads(Path(EXAMPLE5).read_text())
    doc.update(fields)
    doc["coefficients"].update(coefficients)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _overflow_instance(tmp_path, scale=1e300, depth=4):
    """Example 5 with ``x0 = A = scale``."""
    return _example5_with(tmp_path, "overflow.json", {"depth": depth, "x0": [scale]},
                          A=[[scale]])


def _overflow_verify(tmp_path, scale=1e300, depth=4):
    """verify of the all-ones control on Example 5 with ``x0 = A = scale``."""
    path = _overflow_instance(tmp_path, scale, depth)
    inst, domain = lq.load_instance(path)
    control = tmp_path / "ones.csv"
    lq.write_control_csv(control, lq.ControlProcess.constant(domain, inst.tree,
                                                             np.ones(1), "binary"))
    return ["verify", path, "--control", str(control), "--mu", "-3"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, depth", [(1e300, 4), (1e200, 6)])
def test_verify_fails_on_overflow(capsys, tmp_path, scale, depth):
    """A state that overflows fails the command with strict JSON instead of
    passing every check at a violation of -inf."""
    code = main(_overflow_verify(tmp_path, scale, depth))
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 1
    assert report["error"] == "failed"
    assert "overflows" in report["message"]


def test_one_parser_serves_every_call(capsys, bench_file, bench2, free1, tmp_path):
    """main reuses one parser; options one call sets do not leak into the
    next, so each result equals the one a fresh parser gives."""
    assert build_parser() is build_parser()
    control = tmp_path / "ones.csv"
    lq.write_control_csv(control, lq.ControlProcess.constant(free1, bench2.tree,
                                                             np.ones(1), "binary"))
    verify = ["verify", bench_file, "--mu", "-2", "--control", str(control)]
    for argv in (verify + ["--kind", "relaxed"], verify,
                 ["spectrum", bench_file, "--certify"], ["spectrum", bench_file]):
        code, report = run_cli(capsys, *argv)
        args = build_parser.__wrapped__().parse_args(argv)
        fresh_code, fresh = args.func(args)
        assert code == fresh_code
        assert report["result"] == json.loads(lq.report_json(fresh["result"])), argv


SRC = Path(__file__).resolve().parents[1] / "src"


def _written_verify(tmp_path):
    """verify of the control that solve writes for Example 5."""
    control = tmp_path / "found.csv"
    assert main(["solve", EXAMPLE5, "--control-out", str(control)]) == 0
    return ["verify", EXAMPLE5, "--control", str(control)]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "note": "caf\xe9"}')
    return ["validate", str(path)]


@pytest.mark.parametrize("argv, code", [
    (lambda tmp: ["validate", EXAMPLE5], 0),
    (lambda tmp: ["spectrum", EXAMPLE5, "--certify"], 0),
    # nothing in the spectral report grows with the number of nodes
    (lambda tmp: ["spectrum", EXAMPLE5, "--depth", "2200"], 0),
    (lambda tmp: ["solve", EXAMPLE5], 0),
    (_written_verify, 0),
    (lambda tmp: ["equivalence", EXAMPLE5], 0),
    (lambda tmp: ["example5", "--depths", "2,3"], 0),
    (_overflow_verify, 1),
    (lambda tmp: ["equivalence", _overflow_instance(tmp, depth=2), "--mu", "-3"], 1),
    # costs overflow while lambda_max stays finite
    (lambda tmp: ["equivalence", _example5_with(tmp, "x0.json", {"depth": 2, "x0": [1e300]})],
     1),
    (lambda tmp: ["equivalence", _example5_with(tmp, "x0.json", {"depth": 2, "x0": [1e300]}),
                  "--mu", "-3"], 1),
    (lambda tmp: ["validate", _example5_with(tmp, "huge.json", Q=[[1e308]], G=[[1.7e308]])],
     0),
    (lambda tmp: ["validate", str(tmp)], 2),
    (_not_utf8, 2),
    (lambda tmp: ["solve", EXAMPLE5, "--control-out", str(tmp / "missing" / "x.csv")], 1),
    (lambda tmp: ["example5", "--depths", "2", "--csv", str(tmp / "missing" / "t.csv")], 1),
    (lambda tmp: ["spectrum", EXAMPLE5, "--out", str(tmp / "missing" / "r.json")], 1),
], ids=["validate", "spectrum", "spectrum-deep", "solve", "verify", "equivalence", "example5",
        "verify-overflow", "equivalence-overflow", "equivalence-x0-overflow",
        "equivalence-x0-overflow-mu", "validate-huge-weights",
        "validate-directory", "validate-not-utf8",
        "solve-unwritable-control", "example5-unwritable-csv", "spectrum-unwritable-out"])
def test_each_command_runs_clean_in_its_own_process(capsys, tmp_path, argv, code):
    """``python -m lqshift.cli`` runs one command per process, as the
    ``lqshift`` script does: the exit code is the expected one, stdout is
    strict JSON and stderr is empty, also under the smallest limit Python
    allows on printing wide integers."""
    argv = argv(tmp_path)
    capsys.readouterr()
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)  # numpy's warnings must reach stderr
    env["PYTHONINTMAXSTRDIGITS"] = "640"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "lqshift.cli", *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    json.loads(done.stdout, parse_constant=_refuse_constant)
    assert done.stderr == ""
