import json
from importlib import resources

import numpy as np
import pytest

import lqshift as lq
from lqshift.cli import main
from lqshift.tree import NODE_BYTES_BOUND


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
    assert result["method"] == "riccati"
    assert abs(result["lambda_max"] - 2.0) <= 1e-8
    assert result["mu"] == -result["lambda_max"]
    assert "timings" in report

    code, report = run_cli(capsys, "spectrum", bench_file, "--method", "dense")
    assert code == 0
    assert report["result"]["method"] == "dense"
    assert abs(report["result"]["lambda_max"] - 2.0) <= 1e-8

    code, report = run_cli(capsys, "spectrum", bench_file,
                           "--method", "power", "--certify")
    assert code == 0
    assert report["result"]["method"] == "power"
    assert report["result"]["concavity"]["ok"] is True


def test_spectrum_non_convergence(capsys, bench_file):
    code, report = run_cli(capsys, "spectrum", bench_file,
                           "--method", "power", "--max-iter", "1")
    assert code == 3
    assert report["error"] == "non-convergence"
    assert report["iterations"] == 1


def test_solve(capsys, bench_file, tmp_path, bench2, free1):
    control_file = tmp_path / "found.csv"
    code, report = run_cli(capsys, "solve", bench_file,
                           "--control-out", str(control_file))
    assert code == 0
    result = report["result"]
    assert result["search"]["status"] == "fixed-point"
    assert result["search"]["cost"] == 0.0
    assert result["checks"]["ok"] is True
    assert result["spectral"]["method"] == "riccati"
    assert report["parameters"]["mu"] == "auto"
    assert set(report["timings"]) == {"spectrum", "search", "checks"}
    loaded = lq.load_control_csv(control_file, free1, bench2.tree)
    for m in range(2):
        assert not np.any(loaded.process.level(m))


def test_solve_iteration_cap_exit_code(capsys, bench_file, tmp_path,
                                       bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    start = tmp_path / "start.csv"
    lq.write_control_csv(start, ones)
    code, report = run_cli(capsys, "solve", bench_file,
                           "--start", str(start), "--max-iter", "1")
    assert code == 3
    assert report["result"]["search"]["status"] == "max-iter"
    assert set(report["timings"]) == {"spectrum", "load_control", "search", "checks"}


def test_verify(capsys, bench_file, tmp_path, bench2, free1):
    zero = tmp_path / "zero.csv"
    lq.write_control_csv(zero, lq.ControlProcess.zero(free1, bench2.tree))
    code, report = run_cli(capsys, "verify", bench_file, "--control", str(zero))
    assert code == 0
    assert report["result"]["ok"] is True
    assert set(report["result"]["checks"]) == \
        {"stationarity", "remark1_signs", "general_smp"}
    assert set(report["timings"]) == {"load_control", "spectrum", "checks"}

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

    code, report = run_cli(capsys, "verify", bench_file, "--control", str(zero),
                           "--no-second-order")
    assert code == 0
    assert "general_smp" not in report["result"]["checks"]


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
    code, report = run_cli(capsys, "equivalence", bench_file,
                           "--samples", "256")
    assert code == 0
    result = report["result"]
    assert result["ok"] is True
    assert result["binary"]["enumerated"] == 8
    assert result["oracle"]["cost"] == 0.0

    code, report = run_cli(capsys, "equivalence", bench_file, "--budget", "4")
    assert code == 4
    assert report["error"] == "budget-exceeded"
    assert report["required"] == 8


def test_example5_study(capsys, tmp_path):
    table = tmp_path / "table.csv"
    code, report = run_cli(capsys, "example5", "--depths", "2,4",
                           "--budget", "100", "--csv", str(table))
    assert code == 0
    rows = report["result"]["depths"]
    assert [row["depth"] for row in rows] == [2, 4]
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
    ("spectrum", "--method", "power", "--max-iter", "0"),
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3", "tiny"])
def test_power_tolerance_must_be_positive_and_finite(capsys, bench_file, value):
    argv = ("spectrum", bench_file, "--method", "power", f"--tol={value}")
    assert _exit_code(capsys, *argv) == 2


@pytest.mark.parametrize("options", [
    ("solve", "--damping", "nan"),
    ("solve", "--damping", "0"),
    ("solve", "--damping", "-0.5"),
    ("solve", "--damping", "1.5"),
    ("solve", "--damping", "inf"),
    ("solve", "--stationarity-tol", "nan"),
    ("solve", "--remark1-tol", "inf"),
    ("solve", "--smp-tol", "-inf"),
    ("verify", "--smp-tol", "nan"),
    ("verify", "--smp-tol", "inf"),
    ("verify", "--stationarity-tol", "-inf"),
    ("verify", "--remark1-tol", "nan"),
    ("equivalence", "--budget", "-5"),
    ("equivalence", "--budget", "0"),
    ("example5", "--budget", "-5"),
    ("equivalence", "--seed", "-1"),
    ("spectrum", "--method", "power", "--seed", "-1"),
    ("spectrum", "--seed", "1.5"),
])
def test_option_values_are_checked(capsys, bench_file, tmp_path, options):
    command, *rest = options
    argv = {"verify": (command, bench_file, "--control", str(tmp_path / "u.csv")),
            "example5": (command,)}.get(command, (command, bench_file))
    assert _exit_code(capsys, *argv, *rest) == 2


def test_option_bounds_are_accepted(capsys, bench_file):
    code, report = run_cli(capsys, "solve", bench_file, "--damping", "1",
                           "--smp-tol", "0", "--stationarity-tol=-1e-300")
    assert code == 0
    assert report["parameters"]["damping"] == 1.0
    code, report = run_cli(capsys, "example5", "--depths", "2", "--budget", "1")
    assert code == 0
    assert report["result"]["depths"][0]["optimum"] is None
    code, report = run_cli(capsys, "equivalence", bench_file, "--seed", "0")
    assert code == 0
    assert report["parameters"]["seed"] == 0
    code, report = run_cli(capsys, "spectrum", bench_file, "--method", "power",
                           "--seed", "0")
    assert code == 0
    assert report["parameters"]["seed"] == 0


def test_smallest_counts_run(capsys, bench_file):
    code, report = run_cli(capsys, "equivalence", bench_file, "--samples", "1")
    assert code == 0
    assert report["result"]["relaxed"]["samples"] == 1


EXAMPLE5 = str(resources.files("lqshift").joinpath("data/example5.json"))


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
    ("equivalence", EXAMPLE5, "--samples", "1000000000"),
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
        inst, domain = lq.random_instance(seed, depth_max=4)
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
