"""Solver and certificates for stochastic linear-quadratic control with
binary (bang-bang) control sets on exact binary scenario trees.

The pipeline: represent the cost through its control-space operator N,
shift by ``mu = -lambda_max(N)`` to make the problem concave without
changing it on binary controls, characterize optima through a discrete
maximum principle with first- and second-order checks, and cross-validate
everything against exhaustive enumeration on small trees.
"""

from .errors import (
    BudgetExceededError,
    ControlFileError,
    ConvergenceError,
    DegenerateDomainError,
    InstanceFormatError,
    LqshiftError,
    VertexEnumerationError,
)
from .io import (
    PACKAGE_VERSION,
    dump_instance,
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
    ControlProcess,
    LQInstance,
    cost_direct,
    cost_many,
    example5_instance,
    forward_state,
    sample_relaxed_levels,
    validate_instance,
)
from .operators import (
    assemble_N_dense,
    solve_linear_bsde,
)
from .optimality import (
    MPReport,
    Trajectory,
    check_general_smp,
    check_remark1_signs,
    check_stationarity,
    hamiltonian_mu,
    msa_candidate_search,
    run_checks,
    solve_first_adjoint,
    solve_second_adjoint,
)
from .oracle import (
    brute_force_binary,
    equivalence_check,
    random_instance,
)
from .spectral import (
    certify_concavity,
    lambda_max,
    shifted_cost,
    shifted_cost_many,
)
from .tree import (
    AdaptedProcess,
    build_tree,
    martingale_representation,
)

__version__ = PACKAGE_VERSION

__all__ = [
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
    "random_instance",
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
