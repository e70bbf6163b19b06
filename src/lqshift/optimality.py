"""First- and second-order optimality machinery for the shifted problem.

With the shift ``mu = -lambda_max(N)`` the cost is concave along controls,
so candidate optima are characterized node-wise through the shifted
Hamiltonian

    H_mu(x, u, p, q) = <p, Ax + Bu + b> + <q, Cx + Du + sigma>
                       - 1/2 (<Qx, x> + 2 <Sx - (mu/2) e, u> + <(R + mu I) u, u>)

evaluated with the conditional mean of the next-level adjoint as ``p``.
That convention makes ``-grad_u H_mu`` the exact node gradient of the
discrete shifted cost, so the first-order checks are sharp at brute-force
optima instead of holding only up to discretization error.

The second adjoint is one n x n matrix per level, from the Lyapunov part
of the backward step the Riccati test in ``spectral`` runs.  With it the
second-order spike test equals the exact cost change of a one-node
switch, so all three checks run at rounding-level tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ControlDomain,
    ControlProcess,
    LQInstance,
    _cost_from_levels,
    cost_direct,  # unused here; the benchmark tracer rebinds it
    forward_state,
)
from .operators import solve_linear_bsde
from .spectral import _step_blocks, shifted_cost
from .tree import _node_dot

# every check passes when its violation is at most this rounding-level margin
CHECK_TOL = 1e-8
DEFAULT_MSA_MAX_ITER = 200


# -- first adjoint -------------------------------------------------------------


def solve_first_adjoint(inst: LQInstance, state, ubar):
    """Adjoint pair along a candidate trajectory.

    ``state`` is the ``(x_levels, x_term)`` pair :func:`forward_state`
    returns for ``ubar``.  Solves the backward equation with driver
    ``xi = -(Q xbar + S^T ubar)`` and terminal value ``eta = -G xbar_N``
    and returns its level lists ``(p, p_mean, q)``.
    """
    x_levels, x_term = state
    u_levels = ubar.levels
    xi = [-(x_levels[m] @ inst.Q[m] + u_levels[m] @ inst.S[m]) for m in range(inst.depth)]
    return solve_linear_bsde(inst, xi, -(x_term @ inst.G))


# -- Hamiltonian ----------------------------------------------------------------


def hamiltonian_mu(inst: LQInstance, level: int, x, u, p, q, mu: float = 0.0):
    """Node-wise shifted Hamiltonian values; inputs are level arrays."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = level
    drift = x @ inst.A[m].T + u @ inst.B[m].T + inst.b[m]
    diff = x @ inst.C[m].T + u @ inst.D[m].T + inst.sigma[m]
    quad_x = np.sum((x @ inst.Q[m]) * x, axis=-1)
    cross = np.sum((x @ inst.S[m].T - 0.5 * mu) * u, axis=-1)
    quad_u = np.sum(u @ inst.R[m] * u, axis=-1) + mu * np.sum(u * u, axis=-1)
    return (np.sum(p * drift, axis=-1) + np.sum(q * diff, axis=-1)
            - 0.5 * quad_x - cross - 0.5 * quad_u)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One candidate control with its cost and gradient base.

    Built once per control from one forward and one backward sweep, which
    are dropped once the cost and ``base`` are formed; the checks read
    these, and the control's domain and kind.  ``base[m]`` is the
    control-independent part ``pbar B + q D - x S^T`` of the shifted
    Hamiltonian gradient at level ``m``, with ``pbar`` the conditional-mean
    adjoint.
    """

    control: ControlProcess
    cost: float
    base: tuple

    @classmethod
    def of(cls, inst: LQInstance, control: ControlProcess) -> "Trajectory":
        # an overflow is refused below, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            state = x_levels, x_term = forward_state(inst, control)
            _, p_mean, q = solve_first_adjoint(inst, state, control)
            base = tuple(
                p_mean[m] @ inst.B[m] + q[m] @ inst.D[m] - x_levels[m] @ inst.S[m].T
                for m in range(inst.depth)
            )
            cost = float(_cost_from_levels(inst, control.levels, x_levels, x_term))
        if not (math.isfinite(cost) and all(np.isfinite(b).all() for b in base)):
            raise ValueError("the control's cost or gradient overflows")
        return cls(control, cost, base)

    def gradient(self, inst: LQInstance, mu: float):
        """grad_u H_mu, one level array at a time, in the float order of
        ``p B + q D - x S^T + mu/2 - (R u + mu u)``."""
        for m, (g, u) in enumerate(zip(self.base, self.control.levels)):
            yield (g + 0.5 * mu) - (u @ inst.R[m] + mu * u)


# -- checkers -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one node-wise optimality test.

    ``violation`` is the worst margin in the failing direction (negative
    values mean the condition holds strictly); the check passes when it does
    not exceed :data:`CHECK_TOL`.  ``level``/``index`` locate the worst node
    and ``witness`` is the comparison vertex or component there.
    """

    name: str
    ok: bool
    violation: float
    level: int
    index: int
    witness: tuple

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "violation": self.violation,
            "tol": CHECK_TOL,
            "worst_level": self.level,
            "worst_index": self.index,
            "witness": list(self.witness),
        }


def _worst(name, scores, witnesses):
    """The check ``name`` on per-level ``(nodes, columns)`` score arrays: its
    worst entry (``np.argmax`` order in a level, the earliest level on ties),
    witnessed by ``witnesses[column]``; a NaN or infinite worst is refused."""
    if len(witnesses) == 0:  # a vertex check on a domain without binary points
        raise ValueError("the binary control set is empty")
    worst = (-math.inf, 0, 0, 0)
    for m, score in enumerate(scores):
        j, c = np.unravel_index(np.argmax(score), score.shape)
        if not math.isfinite(score[j, c]):
            raise ValueError(f"the {name} check overflows at node ({m}, {j})")
        if score[j, c] > worst[0]:
            worst = (float(score[j, c]), m, int(j), int(c))
    violation, m, j, c = worst
    return CheckResult(name=name, ok=violation <= CHECK_TOL, violation=violation,
                       level=m, index=j, witness=tuple(witnesses[c]))


def check_stationarity(inst: LQInstance, traj: Trajectory, mu: float) -> CheckResult:
    """First-order maximum condition ``<grad H_mu, v - ubar> <= CHECK_TOL``
    over U, for the control ``ubar`` of ``traj``.

    Linear functionals attain their polytope maximum at vertices, so only
    the binary vertices are tested; this is exact, not a sampling check.
    """
    verts = traj.control.domain.binary_vertices()
    verts_t = np.ascontiguousarray(verts.T)  # a transposed view is 3-4x slower
    return _worst("stationarity",
                  (g @ verts_t - _node_dot(g, u)[:, None]
                   for g, u in zip(traj.gradient(inst, mu), traj.control.levels)),
                  verts)


def check_remark1_signs(inst: LQInstance, traj: Trajectory, mu: float) -> CheckResult:
    """Componentwise sign test for binary controls on the free cube.

    At a shifted optimum each component must satisfy ``grad_i <= 0`` where
    ``ubar_i = 0`` and ``grad_i >= 0`` where ``ubar_i = 1``.  Meaningful
    when the domain carries no halfspace cuts; with cuts the componentwise
    form can reject controls that are optimal subject to the constraints.
    """
    if traj.control.kind != "binary":
        raise ValueError("the sign test applies to binary controls")
    return _worst("remark1_signs",
                  ((1.0 - 2.0 * u) * g
                   for g, u in zip(traj.gradient(inst, mu), traj.control.levels)),
                  [(i,) for i in range(inst.k)])


# -- second adjoint -------------------------------------------------------------


def solve_second_adjoint(inst: LQInstance) -> np.ndarray:
    """Second adjoint, one n x n matrix per level, shape ``(depth + 1, n, n)``.

    The terminal value ``-G`` is the same on every leaf and the coefficients
    depend on the level only, so the martingale part vanishes and the exact
    discrete step is the Lyapunov part of the Riccati recursion:

        P_N = -G,    P_m = F^T P_{m+1} F + dt C^T P_{m+1} C - dt Q_m,

    with ``F = I + dt A_m``.  It does not depend on the candidate control.
    """
    dt = inst.tree.dt
    blocks = _step_blocks(inst)
    p = np.empty((inst.depth + 1, inst.n, inst.n))
    p[-1] = -inst.G
    for m in reversed(range(inst.depth)):
        step = blocks(m, p[m + 1])[2] - dt * inst.Q[m]
        p[m] = 0.5 * (step + step.T)
    return p


def check_general_smp(inst: LQInstance, traj: Trajectory) -> CheckResult:
    """Node-wise spike test at the control ``ubar`` of ``traj`` against
    every admissible vertex ``v``:

        H0(v) - H0(ubar) + 1/2 delta^T (D^T P D + dt B^T P B) delta <= CHECK_TOL,

    with ``delta = v - ubar``, the unshifted Hamiltonian H0 at the
    conditional-mean adjoint and ``P = P_{m+1}`` the next-level second
    adjoint.  A one-node switch perturbs the next level by
    ``B delta dt + D delta dW``, so the left side is exactly the cost
    decrease of that switch divided by the node's path weight
    ``2^-m dt``.  ``H0(v) - H0(ubar) = g0 . delta - 1/2 delta^T R delta``
    with ``g0`` the unshifted gradient; necessary at exhaustive binary
    optima.  A binary ``ubar`` is a vertex, so ``delta`` and ``1/2 H delta``
    are read exactly from ``(V, V, k)`` vertex-pair tables, one coordinate
    at a time, and no ``(nodes, V, k)`` array is built.
    """
    if traj.control.kind != "binary":
        raise ValueError("the spike test applies to binary controls")
    verts = traj.control.domain.binary_vertices()
    second = solve_second_adjoint(inst)
    blocks = _step_blocks(inst)
    diffs = verts[None, :, :] - verts[:, None, :]  # diffs[a, b] = v_b - v_a
    place = 2.0 ** np.arange(inst.k)  # u @ place is exact on 0/1 points
    vertex_of = np.zeros(2 ** inst.k, dtype=np.intp)
    vertex_of[(verts @ place).astype(np.intp)] = np.arange(len(verts))

    def deficits():
        for m, (g, u) in enumerate(zip(traj.gradient(inst, 0.0), traj.control.levels)):
            # H, the level's diagonal block of N: R minus the switch curvature
            half = 0.5 * diffs @ (inst.R[m] - blocks(m, second[m + 1])[0])
            own = np.take(vertex_of, (u @ place).astype(np.intp))  # ubar = v_own
            deficit = np.zeros((len(u), len(verts)))
            for i in range(inst.k):  # np.sum's order over the last axis
                term = np.take(half[:, :, i], own, axis=0)
                np.subtract(g[:, i, None], term, out=term)
                term *= np.take(diffs[:, :, i], own, axis=0)
                deficit += term
            yield deficit

    return _worst("general_smp", deficits(), verts)


# -- aggregated report -----------------------------------------------------------


@dataclass(frozen=True)
class MPReport:
    mu: float
    cost: float
    cost_shifted: float
    stationarity: CheckResult
    remark1: CheckResult | None
    general_smp: CheckResult | None

    @property
    def ok(self) -> bool:
        results = [self.stationarity, self.remark1, self.general_smp]
        return all(r.ok for r in results if r is not None)

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "cost": self.cost,
            "cost_shifted": self.cost_shifted,
            "ok": self.ok,
            "checks": {
                r.name: r.to_dict()
                for r in (self.stationarity, self.remark1, self.general_smp)
                if r is not None
            },
        }


def run_checks(inst: LQInstance, control: ControlProcess | Trajectory,
               mu: float) -> MPReport:
    """All applicable optimality checks for one candidate control.

    The sign test runs only for binary controls on an uncut domain, the
    second-order test only for binary controls.  One :class:`Trajectory`
    feeds the costs and every check: ``control`` itself when it is one,
    else ``Trajectory.of(inst, control)``.
    """
    traj = control if isinstance(control, Trajectory) else Trajectory.of(inst, control)
    control = traj.control
    shifted = shifted_cost(inst, control, mu, base_cost=traj.cost)
    stationarity = check_stationarity(inst, traj, mu)
    remark1 = smp = None
    if control.kind == "binary":
        if not control.domain.halfspaces:
            remark1 = check_remark1_signs(inst, traj, mu)
        smp = check_general_smp(inst, traj)
    return MPReport(mu=mu, cost=traj.cost, cost_shifted=shifted,
                    stationarity=stationarity, remark1=remark1, general_smp=smp)


# -- candidate search -------------------------------------------------------------


@dataclass(frozen=True)
class MsaResult:
    """The control a search ends on, held as its :class:`Trajectory`; the
    trajectory is left out of ``to_dict``."""

    trajectory: Trajectory
    cost_shifted: float
    status: str
    iterations: int
    history: tuple

    @property
    def control(self) -> ControlProcess:
        return self.trajectory.control

    @property
    def cost(self) -> float:
        return self.trajectory.cost

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "cost_shifted": self.cost_shifted,
            "status": self.status,
            "iterations": self.iterations,
            "history": list(self.history),
        }


def msa_candidate_search(inst: LQInstance, domain: ControlDomain, mu: float, *,
                         start: ControlProcess | None = None,
                         max_iter: int = DEFAULT_MSA_MAX_ITER) -> MsaResult:
    """Iterate node-wise Hamiltonian maximization over the binary vertices.

    Each sweep builds the current control's :class:`Trajectory`, which gives
    its shifted cost and the linearization of H_mu, and moves every node
    to the vertex maximizing the linearization, breaking ties toward the
    lexicographically smallest vertex.  At a shift that makes the shifted
    cost concave its linearization bounds it from above, so a sweep never
    raises it.  Revisiting a control detects a cycle, in which case the
    best-shifted-cost iterate seen is returned; hitting ``max_iter``
    returns the last iterate, swept once more for its trajectory.
    """
    verts = domain.binary_vertices()
    if verts.shape[0] == 0:
        raise ValueError("the binary control set is empty")
    verts_t = np.ascontiguousarray(verts.T)  # a transposed view is 3-4x slower
    tree = inst.tree
    if start is None:
        current = ControlProcess.constant(domain, tree, verts[0], "binary")
    else:
        if start.tree != tree or start.domain.k != domain.k:
            raise ValueError("start control does not match the instance")
        current = start

    seen = set()
    best = (math.inf, None)  # the least shifted cost seen, with its trajectory
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        key = np.packbits(current.process.values != 0.0).tobytes()
        if key in seen:
            status = "cycle"
            shifted, traj = best
            break
        seen.add(key)
        traj = Trajectory.of(inst, current)
        shifted = shifted_cost(inst, current, mu, base_cost=traj.cost)
        history.append(shifted)
        if shifted < best[0]:
            best = (shifted, traj)

        proposals = [verts.take(np.argmax(g @ verts_t, axis=1), axis=0)
                     for g in traj.gradient(inst, mu)]
        if all(np.array_equal(p, u) for p, u in zip(proposals, current.levels)):
            status = "fixed-point"
            break
        current = ControlProcess.from_levels(domain, tree, proposals, "binary")
    else:
        status = "max-iter"
        traj = Trajectory.of(inst, current)
        shifted = shifted_cost(inst, current, mu, base_cost=traj.cost)
    return MsaResult(trajectory=traj, cost_shifted=shifted, status=status,
                     iterations=it, history=tuple(history))
