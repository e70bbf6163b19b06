"""Reference constructions of the state maps, their adjoints and the cost.

These build explicitly what the library only applies: the fundamental
matrices of the homogeneous dynamics, the affine split of the state, the
adjoint images ``L* xi + Lhat* eta``, the leaf inner product and the cost
as a quadratic in the control.  The tests compare the library's sweeps
and the operator N against them; the library itself never calls them.
Two plain forms of library computations live here as well: the operator
N applied to a control process, and the node-wise control gradient of the
shifted Hamiltonian, which ``Trajectory.gradient`` matches bit for bit.
The binary enumeration keeps its plain form here too: every control
decoded digit by digit and costed with ``cost_many``, the reference for
the screened enumeration of ``lqshift.oracle``.  So does the lambda_max search: plain
bisection on the Riccati test, the reference for the secant search of
``lqshift.spectral``.  And the second-order spike test: the per-vertex
deficit ``delta . (g - 1/2 H delta)`` over a ``(nodes, V, k)`` array, the
reference for the vertex-pair tables of ``lqshift.optimality``.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from lqshift.errors import BudgetExceededError, LqshiftError
from lqshift.model import (
    ControlDomain,
    ControlProcess,
    LQInstance,
    _forward_levels,
    as_process,
    cost_many,
)
from lqshift.oracle import DEFAULT_BUDGET, ENUM_CHUNK, OracleResult
from lqshift.operators import _apply_N_levels, solve_linear_bsde
from lqshift.optimality import CheckResult, Trajectory, _worst, solve_second_adjoint
from lqshift.spectral import RICCATI_REL_WIDTH, _riccati_pd, _step_blocks
from lqshift.tree import AdaptedProcess, ScenarioTree, _weighted_dot_levels


def leaf_dot(tree: ScenarioTree, a: np.ndarray, b: np.ndarray) -> float:
    """Expectation ``E[ <a, b> ]`` of two ``(2**N, dim)`` leaf arrays."""
    return float(tree.path_prob(tree.depth) * np.sum(a * b))


def _control_levels(inst: LQInstance, u):
    """Accept a ControlProcess or AdaptedProcess, return its level list."""
    proc = as_process(u)
    if not isinstance(proc, AdaptedProcess):
        raise TypeError("expected a control process")
    if proc.tree != inst.tree or proc.dim != inst.k:
        raise ValueError("control does not match the instance tree or control dimension")
    return proc.levels


def _zero_control(inst: LQInstance):
    return [np.zeros((inst.tree.num_nodes(m), inst.k)) for m in range(inst.depth)]


def apply_N(inst: LQInstance, u) -> list:
    """Apply ``N = R + L* Q L + S L + L* S^T + Lhat* G Lhat`` to a control;
    returns its level list."""
    return _apply_N_levels(inst, _control_levels(inst, u))


def hamiltonian_mu_gradient(inst: LQInstance, level: int, x, u, p, q,
                            mu: float = 0.0):
    """Control gradient of the shifted Hamiltonian, node-wise."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = level
    return (p @ inst.B[m] + q @ inst.D[m] - x @ inst.S[m].T + 0.5 * mu
            - (u @ inst.R[m] + mu * u))


# -- fundamental matrices ----------------------------------------------------


@dataclass(frozen=True)
class FundamentalMatrices:
    """Node-wise propagators of the homogeneous dynamics and their inverses.

    ``phi[m][j]`` maps the initial state to the state at node ``(m, j)``
    under ``u = 0, b = sigma = 0``.  ``phi_inv`` integrates the companion
    inverse equation; ``phi_inv @ phi`` drifts from the identity at a rate
    set by the coefficient sizes, so ``max_inverse_defect`` is a diagnostic,
    not an invariant.
    """

    tree: ScenarioTree
    phi: tuple
    phi_inv: tuple
    max_inverse_defect: float
    degenerate: bool


def fundamental_matrices(inst: LQInstance, singular_tol: float = 1e-10) -> FundamentalMatrices:
    tree = inst.tree
    n, dt, s = inst.n, tree.dt, tree.sqrt_dt
    eye = np.eye(n)
    phi = [np.broadcast_to(eye, (1, n, n)).copy()]
    psi = [np.broadcast_to(eye, (1, n, n)).copy()]
    for m in range(tree.depth):
        step_up = eye + dt * inst.A[m] + s * inst.C[m]
        step_dn = eye + dt * inst.A[m] - s * inst.C[m]
        c_sq = inst.C[m] @ inst.C[m]
        inv_up = eye + dt * (c_sq - inst.A[m]) - s * inst.C[m]
        inv_dn = eye + dt * (c_sq - inst.A[m]) + s * inst.C[m]
        cur, cur_inv = phi[-1], psi[-1]
        nxt = np.empty((2 * cur.shape[0], n, n))
        nxt[0::2] = step_up @ cur
        nxt[1::2] = step_dn @ cur
        nxt_inv = np.empty_like(nxt)
        nxt_inv[0::2] = cur_inv @ inv_up
        nxt_inv[1::2] = cur_inv @ inv_dn
        phi.append(nxt)
        psi.append(nxt_inv)
    defect = 0.0
    min_det = np.inf
    for p, pi in zip(phi, psi):
        defect = max(defect, float(np.max(np.abs(pi @ p - eye))))
        min_det = min(min_det, float(np.min(np.abs(np.linalg.det(p)))))
    return FundamentalMatrices(
        tree=tree,
        phi=tuple(p.copy() for p in phi),
        phi_inv=tuple(p.copy() for p in psi),
        max_inverse_defect=defect,
        degenerate=bool(min_det < singular_tol),
    )


# -- affine state decomposition ----------------------------------------------


@dataclass(frozen=True)
class StateDecomposition:
    """The three affine pieces of the state: level lists on levels
    ``0 .. N-1`` and ``(2**N, n)`` leaf arrays.

    ``from_initial + from_control + source`` reproduces the full state
    exactly (the scheme is affine, so the split is not approximate).
    """

    from_initial: list
    from_initial_terminal: np.ndarray
    from_control: list
    from_control_terminal: np.ndarray
    source: list
    source_terminal: np.ndarray

    def state(self) -> tuple:
        """``(running, leaves)``, the full state."""
        running = [a + b + c for a, b, c in
                   zip(self.from_initial, self.from_control, self.source)]
        return (running, self.from_initial_terminal + self.from_control_terminal
                + self.source_terminal)


def decompose_state(inst: LQInstance, u) -> StateDecomposition:
    u_levels = _control_levels(inst, u)
    zero0 = np.zeros(inst.n)
    zero_u = _zero_control(inst)
    hom_run, hom_term = _forward_levels(inst, zero_u, inst.x0, inhomogeneous=False)
    ctl_run, ctl_term = _forward_levels(inst, u_levels, zero0, inhomogeneous=False)
    src_run, src_term = _forward_levels(inst, zero_u, zero0, inhomogeneous=True)
    return StateDecomposition(
        from_initial=hom_run,
        from_initial_terminal=hom_term,
        from_control=ctl_run,
        from_control_terminal=ctl_term,
        source=src_run,
        source_terminal=src_term,
    )


# -- adjoint images ----------------------------------------------------------


@dataclass(frozen=True)
class AdjointImage:
    """Image of ``(xi, eta)`` under the adjoints of the state maps.

    ``xi`` is a state-dimension level list and ``eta`` a leaf array.
    ``control`` is ``L* xi + Lhat* eta`` (a control-dimension level list)
    and ``initial`` is ``Gamma* xi + Gammahat* eta`` (a state
    vector), so that exactly, in the tree inner products,

        <L u, xi> + <Lhat u, eta> = <u, control>,
        <Gamma x, xi> + <Gammahat x, eta> = <x, initial>.
    """

    control: list
    initial: np.ndarray


def adjoint_apply(inst: LQInstance, xi: list, eta: np.ndarray) -> AdjointImage:
    p, p_mean, q = solve_linear_bsde(inst, xi, eta)
    out = [p_mean[m] @ inst.B[m] + q[m] @ inst.D[m] for m in range(inst.depth)]
    return AdjointImage(control=out, initial=p[0][0])


# -- the cost as a quadratic -------------------------------------------------


@dataclass(frozen=True)
class QuadraticCost:
    """The cost as an explicit quadratic in the control:

        J(u) = 1/2 <N u, u> + <linear, u> + 1/2 constant,

    with ``linear`` and ``constant`` collecting the initial-state and source
    contributions.  Agrees with direct simulation to rounding.
    """

    instance: LQInstance
    linear: list
    constant: float

    def value(self, u) -> float:
        inst = self.instance
        u_levels = _control_levels(inst, u)
        nu = _apply_N_levels(inst, u_levels)
        return float(
            0.5 * _weighted_dot_levels(inst.tree, nu, u_levels)
            + _weighted_dot_levels(inst.tree, self.linear, u_levels)
            + 0.5 * self.constant
        )


def quadratic_functional(inst: LQInstance) -> QuadraticCost:
    tree = inst.tree
    z_run_levels, z_term = _forward_levels(inst, _zero_control(inst), inst.x0,
                                           inhomogeneous=True)
    qz = [z_run_levels[m] @ inst.Q[m] for m in range(tree.depth)]
    gz = z_term @ inst.G
    image = adjoint_apply(inst, xi=qz, eta=gz)
    linear = [c + z @ inst.S[m].T
              for m, (c, z) in enumerate(zip(image.control, z_run_levels))]
    constant = _weighted_dot_levels(tree, qz, z_run_levels) + leaf_dot(tree, gz, z_term)
    return QuadraticCost(instance=inst, linear=linear, constant=float(constant))


# -- binary enumeration ------------------------------------------------------


def decode_levels_reference(tree: ScenarioTree, verts: np.ndarray, codes: np.ndarray):
    """Mixed-radix decode of control indices, one digit at a time."""
    v_count = verts.shape[0]
    nodes = tree.num_nodes(tree.depth) - 1
    levels = []
    consumed = 0
    for m in range(tree.depth):
        count = tree.num_nodes(m)
        digits = np.empty((codes.shape[0], count), dtype=np.int64)
        for j in range(count):
            place = nodes - 1 - (consumed + j)
            digits[:, j] = (codes // v_count ** place) % v_count
        levels.append(verts[digits])
        consumed += count
    return levels


def brute_force_reference(inst: LQInstance, domain: ControlDomain,
                          budget: int = DEFAULT_BUDGET) -> tuple[OracleResult, float]:
    """Every binary control costed exactly with ``cost_many``, in code order.

    Also returns the largest ``|<u, u> - <1, u>|`` over those controls, the
    factor the shift ``mu/2`` multiplies.
    """
    verts = domain.binary_vertices()
    tree = inst.tree
    nodes = tree.num_nodes(tree.depth) - 1
    total = verts.shape[0] ** nodes
    if total > budget:
        raise BudgetExceededError(required=total, budget=budget)

    best = math.inf
    max_penalty = 0.0
    first = tie_count = 0
    for start in range(0, total, ENUM_CHUNK):
        codes = np.arange(start, min(start + ENUM_CHUNK, total), dtype=np.int64)
        levels = decode_levels_reference(tree, verts, codes)
        costs = cost_many(inst, levels)
        penalty = _weighted_dot_levels(tree, levels, [lvl - 1.0 for lvl in levels])
        max_penalty = max(max_penalty, float(np.max(np.abs(penalty))))
        lo = float(np.min(costs))
        if lo < best:
            best, tie_count = lo, 0
        if lo <= best:
            hits = costs == best
            if tie_count == 0:
                first = int(codes[np.argmax(hits)])
            tie_count += int(np.count_nonzero(hits))

    levels = decode_levels_reference(tree, verts, np.array([first], dtype=np.int64))
    control = ControlProcess.from_levels(domain, tree, [lvl[0] for lvl in levels], "binary")
    result = OracleResult(control=control, cost=best, enumerated=total,
                          tie_count=tie_count, recosted=total)
    return result, max_penalty


# -- lambda_max by bisection ---------------------------------------------------


def riccati_bisect_reference(inst: LQInstance):
    """Bracket lambda_max(N) by doubling, then bisect on the Riccati test.

    Returns ``(hi, width, chains)`` as the library's search does: ``hi`` is
    the smallest tested ``s`` at which the test passed, ``width`` the final
    bracket width and ``chains`` the number of tests run.
    """
    chains = 0

    def passes(s):
        nonlocal chains
        if not math.isfinite(s):
            raise LqshiftError("the Riccati test gives no finite bracket for lambda_max")
        chains += 1
        return _riccati_pd(inst, s)[0]

    if passes(1.0):
        hi, lo = 1.0, 0.0
        while passes(lo):
            hi, lo = lo, lo - 2.0 * (hi - lo)
    else:
        lo, hi = 1.0, 2.0
        while not passes(hi):
            lo, hi = hi, hi + 2.0 * (hi - lo)
    while hi - lo > RICCATI_REL_WIDTH * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi, hi - lo, chains


# -- second-order spike test, vertex by vertex ----------------------------------


def general_smp_reference(inst: LQInstance, traj: Trajectory) -> CheckResult:
    """``check_general_smp`` with ``delta = v - ubar`` formed for every node
    and vertex: the deficit ``delta . (g0 - 1/2 H delta)``, with ``H`` the
    level's diagonal block ``R - (D^T P D + dt B^T P B)`` at ``P = P_{m+1}``."""
    verts = traj.control.domain.binary_vertices()
    second = solve_second_adjoint(inst)
    blocks = _step_blocks(inst)

    def deficits():
        for m, (g, u) in enumerate(zip(traj.gradient(inst, 0.0), traj.control.levels)):
            hess = inst.R[m] - blocks(m, second[m + 1])[0]
            delta = verts[None, :, :] - u[:, None, :]
            yield np.sum(delta * (g[:, None, :] - 0.5 * delta @ hess), axis=-1)

    return _worst("general_smp", deficits(), verts)
