"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench

A corrupted report, a wrong exit code, a wrong optimality verdict or a
crash must count as a failed command; the tracer must count what the benchmark claims and put every
name it rebinds back.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lqshift  # noqa: E402
import lqshift.cli as cli  # noqa: E402
import lqshift.operators  # noqa: E402
import lqshift.optimality  # noqa: E402
import lqshift.tree  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "e5-spectral": dict(depths=(2, 4), spectrum_depths=(3, 5)),
    "deep-certify": dict(instances=1, depth=5, impostors=3),
    "enum-equivalence": dict(depth=2, samples=200),
}


@pytest.fixture
def small(tmp_path):
    def build(name):
        return workloads.WORKLOADS[name](ROOT, tmp_path, 7, **SMALL[name])
    return build


def corrupting(command, edit):
    """``cli.main`` whose ``command`` reports pass through ``edit(code, result)``,
    which may change the result in place and returns the exit code."""
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue())
        if argv[0] == command:
            code = edit(code, report["result"])
        sys.stdout.write(json.dumps(report))
        return code
    return main


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_rounds_pass(small, name):
    workload = small(name)
    runner = workloads.Runner(cli.main, workload.calibration)
    runner.round(workload)
    runner.round(workload)
    assert [r["problems"] for r in runner.records if r["problems"]] == []
    assert all(r["wall"] > 0 and r["unit"] > 0 for r in runner.records)


def _set(key_path, value):
    def edit(code, result):
        *head, last = key_path
        target = result
        for key in head:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
        return code
    return edit


CORRUPTIONS = [
    ("e5-spectral", "example5", _set(("depths", 0, "lambda_max"), lambda x: x * (1 + 1e-6))),
    ("e5-spectral", "example5", _set(("depths", 1, "cost_ones"), lambda x: x + 1e-9)),
    ("e5-spectral", "spectrum", _set(("concavity", "ok"), False)),
    ("e5-spectral", "spectrum", lambda code, r: 3),
    ("deep-certify", "solve", _set(("search", "status"), "max-iter")),
    ("deep-certify", "solve", _set(("checks", "cost_shifted"), lambda c: np.nextafter(c, 1e9))),
    ("deep-certify", "verify", lambda code, r: 1 - code),
    ("deep-certify", "verify", _set(("cost",), lambda c: c + 1e-6)),
    ("deep-certify", "verify", _set(("checks", "general_smp", "violation"), lambda v: v + 5.0)),
    ("enum-equivalence", "equivalence", _set(("binary", "max_shift_gap"), 5e-324)),
    ("enum-equivalence", "equivalence", _set(("binary", "enumerated"), lambda n: n - 1)),
    ("enum-equivalence", "equivalence", _set(("binary", "best_cost"), lambda c: c - 1e-9)),
    ("enum-equivalence", "equivalence", _set(("ok",), False)),
]


@pytest.mark.parametrize("name,command,edit", CORRUPTIONS)
def test_corrupted_output_is_counted_as_failed(small, name, command, edit):
    runner = workloads.Runner(corrupting(command, edit))
    runner.round(small(name))
    # a corrupted solve also fails the verify that must reproduce it
    assert all(r["problems"] for r in runner.records if r["command"] == command)


def test_accepting_an_improvable_impostor_is_counted_as_failed(small):
    def accept(code, result):
        result["ok"] = True    # every control verified optimal, exit code to match
        return 0
    workload = small("deep-certify")
    runner = workloads.Runner(corrupting("verify", accept))
    runner.round(workload)   # writes the control the impostors are made from
    runner.round(workload)
    item = workload.items[0]
    dt = item["doc"]["T"] / workload.depth
    improvable = [imp["reference_cost"] - item["reference_cost"]
                  > workloads.CLEAR_GAIN * 2.0 ** -imp["level"] * dt
                  for imp in item["impostors"]]
    assert any(improvable)
    impostors = [r for r in runner.records if r["round"] == 1][2:]
    assert [any("accepted an impostor" in p for p in r["problems"])
            for r in impostors] == improvable


def _accept_everything(monkeypatch):
    monkeypatch.setattr(lqshift.optimality.MPReport, "ok", property(lambda self: True))


def _reject_stationary(monkeypatch):
    check = lqshift.optimality.check_stationarity
    monkeypatch.setattr(lqshift.optimality, "check_stationarity",
                        lambda *a, **k: dataclasses.replace(check(*a, **k), ok=False))


@pytest.mark.parametrize("mutate", [_accept_everything, _reject_stationary])
def test_a_wrong_optimality_verdict_is_counted_as_failed(small, monkeypatch, mutate):
    mutate(monkeypatch)
    runner = workloads.Runner(cli.main)
    runner.round(small("deep-certify"))
    assert runner.records and all(r["problems"] for r in runner.records)


def test_crash_is_counted_as_failed(small):
    def main(argv):
        raise RuntimeError("boom")
    runner = workloads.Runner(main)
    runner.round(small("enum-equivalence"))
    assert len(runner.records) == 1
    assert runner.records[0]["problems"] == ["raised RuntimeError('boom')"]


def test_reference_cost_matches_library():
    doc = reference.draw_instance(np.random.default_rng(3), n=2, k=2, depth=4)
    inst, _ = lqshift.load_instance(doc)
    rng = np.random.default_rng(4)
    levels = [rng.integers(0, 2, size=(5, 1 << m, 2)).astype(float) for m in range(4)]
    np.testing.assert_allclose(reference.cost(doc, levels), lqshift.cost_many(inst, levels),
                               rtol=1e-12, atol=1e-12)
    dense = lqshift.lambda_max(inst, method="dense").lambda_max
    assert reference.lambda_max_estimate(doc, 4) == pytest.approx(dense, rel=1e-9)


def traced_rounds(workload, rounds=2):
    tracer = tracing.Tracer()
    runner = workloads.Runner(cli.main)
    with tracing.instrumented(tracer):
        runner.main, runner.tracer = tracer.wrap(cli.main, "cli.main"), tracer
        for _ in range(rounds):
            runner.round(workload)
    commands = {(r["round"], r["index"]): r["command"] for r in runner.records}
    assert not any(r["problems"] for r in runner.records)
    return [tracing.round_layers(tracer, n, commands) for n in range(rounds)]


def test_traced_counts_repeat_and_match_the_program(small):
    first, second = traced_rounds(small("deep-certify"))
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["optimality.sweeps_per_check"] == 7  # 4 forward + 3 backward
    assert first["spectral.power_iterations"] == first["operators.apply_N_count"] == 0

    first, second = traced_rounds(small("enum-equivalence"))
    assert first["oracle.enumerated"] == second["oracle.enumerated"] == 7 ** 3
    assert first["oracle.cost_evals_per_control"] == 2.0


def test_instrumentation_restores_every_name():
    before = {(id(owner), attr): getattr(owner, attr)
              for owner, attr, _ in tracing.bindings(tracing.Tracer())}
    with tracing.instrumented(tracing.Tracer()):
        assert lqshift.operators._bsde_levels is not before[
            (id(lqshift.operators), "_bsde_levels")]
    after = {(id(owner), attr): getattr(owner, attr)
             for owner, attr, _ in tracing.bindings(tracing.Tracer())}
    assert before == after
    assert lqshift.tree.AdaptedProcess.__init__.__qualname__ == "AdaptedProcess.__init__"


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, None, (0, 0)],
             ["spectral.lambda_max", 1.0, 6.0, 0, (0, 0)],
             ["operators._apply_N_levels", 2.0, 5.0, 1, (0, 0)],
             ["io.report_json", 7.0, 8.0, 0, (0, 0)]]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
