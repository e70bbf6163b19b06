"""The traced benchmark rebinds names in lqshift's modules, so renaming or
deleting one of them breaks it.  These tests read ``perfbench/tracing.py``
without importing it as a package module and check each binding resolves."""

import types
from pathlib import Path

import numpy as np
import pytest

import lqshift as lq
from lqshift import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists(tracing):
    bindings = tracing.bindings(tracing.Tracer())
    assert bindings
    for owner, attr, replacement in bindings:
        assert replacement is not getattr(owner, attr), attr


def test_checks_run_through_the_traced_names(tracing, bench2, free1):
    """run_checks and equivalence_check, called as the CLI calls them, reach
    the checks and sweeps through the module globals the tracer rebinds."""
    tracer = tracing.Tracer()
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    with tracing.instrumented(tracer):
        cli.run_checks(bench2, ones, -2.0)
        cli.equivalence_check(bench2, free1, mu=-2.0)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"optimality.check_stationarity", "optimality.check_remark1_signs",
            "optimality.check_general_smp", "optimality.solve_second_adjoint",
            "model.forward_state", "operators.solve_linear_bsde",
            "spectral.shifted_cost"} <= names
    parents = {tracer.spans[span[tracing.PARENT]][tracing.NAME]
               for span in tracer.spans
               if span[tracing.NAME] == "optimality.check_stationarity"}
    assert parents == {"optimality.run_checks", "oracle.equivalence_check"}
