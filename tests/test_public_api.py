"""The public API, spelled out: adding or removing a name from ``lqshift``
is an edit to this list.  The README's library quickstart runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import lqshift as lq

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AdaptedProcess",
    "BudgetExceededError",
    "ControlDomain",
    "ControlFileError",
    "ControlProcess",
    "ConvergenceError",
    "DegenerateDomainError",
    "InstanceFormatError",
    "LQInstance",
    "LqshiftError",
    "MPReport",
    "Trajectory",
    "VertexEnumerationError",
    "assemble_N_dense",
    "brute_force_binary",
    "build_tree",
    "certify_concavity",
    "check_general_smp",
    "check_remark1_signs",
    "check_stationarity",
    "cost_direct",
    "cost_many",
    "dump_instance",
    "equivalence_check",
    "example5_instance",
    "forward_state",
    "hamiltonian_mu",
    "instance_digest",
    "lambda_max",
    "load_control_csv",
    "load_instance",
    "make_report",
    "martingale_representation",
    "msa_candidate_search",
    "report_json",
    "run_checks",
    "sample_relaxed_levels",
    "shifted_cost",
    "shifted_cost_many",
    "solve_first_adjoint",
    "solve_linear_bsde",
    "solve_second_adjoint",
    "validate_instance",
    "with_depth",
    "write_control_csv",
]


def test_public_api_inventory():
    assert sorted(lq.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(lq, name) is not None, name
    # test references live in tests/oracles.py, not in the package
    for name in ("apply_N", "hamiltonian_mu_gradient", "inner_product_running"):
        assert not hasattr(lq, name), name


def test_readme_quickstart_prints_its_output():
    """The "Library quickstart" block, run in a fresh interpreter, prints the
    "Output:" block that follows it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    code, output = re.fullmatch(r"\s*```python\n(.*?)```\s*Output:\s*```\n(.*?)```.*",
                                section, re.DOTALL).groups()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == output
