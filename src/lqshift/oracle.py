"""Exact oracles for cross-checking the solver.

On a depth-N tree a binary control picks one admissible vertex per running
node, so the feasible set is finite: ``V ** (2^N - 1)`` controls for ``V``
vertices a node.  The coefficients depend on the level, not on the node,
and two subtrees are independent given their root states, so the exact
minimum over that set is one Bellman recursion per level over the states
reachable from ``x0``: at most ``(2V)^m`` of them at level ``m``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import (
    ControlDomain,
    ControlProcess,
    LQInstance,
    _flat_matmul,
    cost_many,
    sample_relaxed_levels,  # unused here; the benchmark tracer rebinds it
)
from .optimality import CheckResult, Trajectory, check_stationarity
from .spectral import ConcavityCertificate, certify_concavity, lambda_max, shifted_cost_many
from .tree import ScenarioTree, check_node_memory

DEFAULT_BUDGET = 10 ** 6
BINARY_SHIFT_TOL = 1e-11
RELAXED_MARGIN_TOL = 1e-9


def _decode_levels(tree: ScenarioTree, verts: np.ndarray, codes: np.ndarray):
    """Mixed-radix decode of control codes into per-level vertex arrays; the
    root is the most significant digit, so codes order controls lexicographically."""
    v_count = verts.shape[0]
    nodes = tree.num_nodes(tree.depth) - 1
    levels = []
    for m in range(tree.depth):
        first = tree.num_nodes(m) - 1  # nodes on the levels above m
        place = nodes - 1 - np.arange(first, first + tree.num_nodes(m))
        levels.append(verts[codes[:, None] // np.power(v_count, place) % v_count])
    return levels


def _control_count(v_count: int, exponent: int):
    """``v_count ** exponent`` for ``exponent = 2^N - 1``, as an ``int``, or as
    the text ``"V**E"`` where it has more digits than Python prints
    (``sys.get_int_max_str_digits``); an E that long is written ``(2**N - 1)``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # 2 ** (4 limit) > 10 ** limit: only a count that may print is formed
    if exponent * (v_count.bit_length() - 1) <= 4 * limit:
        count = v_count ** exponent
        if count < 10 ** limit:
            return count
    if exponent < 10 ** limit:
        return f"{v_count}**{exponent}"
    return f"{v_count}**(2**{exponent.bit_length()} - 1)"


def _stage(inst: LQInstance, m: int, x, u):
    """Per-node running cost ``<Q x, x> + 2 <S x, u> + <R u, u>`` at level ``m``."""
    return (np.sum(_flat_matmul(x, inst.Q[m]) * x, axis=-1)
            + 2.0 * np.sum(_flat_matmul(x, inst.S[m].T) * u, axis=-1)
            + np.sum(_flat_matmul(u, inst.R[m]) * u, axis=-1))


@dataclass(frozen=True)
class OracleResult:
    """Exact minimum of the true cost over the ``enumerated`` binary controls.

    ``control`` is the lexicographically smallest of the ``tie_count``
    controls at the recursion's float minimum, and ``cost`` its ``cost_many``.
    """

    control: ControlProcess
    cost: float
    enumerated: int
    tie_count: int

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "enumerated": self.enumerated,
            "tie_count": self.tie_count,
        }


def _vertex_minimum(inst: LQInstance, verts: np.ndarray, budget: int, offset=0.0, kind="binary"):
    """Least total over the controls taking a vertex of ``verts`` at every
    node, by backward recursion, with ``offset[v]`` added to vertex ``v``'s
    stage term; returns ``(levels, count, W_0(x0), ties)``.

    The forward pass stacks the states reachable at level ``m + 1`` as
    ``(states, V, 2, n)``.  Backward, ``W_N(x) = 1/2 p_N <G x, x>`` with
    ``p_m = 2**-m``, and ``W_m(x)`` is the least over the vertices of ``1/2
    dt p_m (stage_m(x, v) + offset[v])`` plus the two children's values
    (``np.fmin``: a NaN total loses to any number).  The lowest vertex among
    exact float ties at each state, read from the root down, gives the
    lexicographically smallest minimizer ``levels``; the tie counts
    multiply up, in ``int64`` where ``count`` fits and in Python ints
    otherwise.

    ``budget`` bounds ``count = V ** (2^N - 1)``, which a refusal reports,
    naming the controls ``kind``, as an ``int``, or as the text ``"V**E"``
    where it is too long to print.  The ``(2V)^N`` last-level states are
    checked against the node memory bound before anything is allocated.
    """
    tree = inst.tree
    v_count = verts.shape[0]
    exponent = tree.num_nodes(tree.depth) - 1
    # bit lengths first, since V ** E >= 2 ** (E floor(log2 V)): a deep
    # refusal never forms the exact count
    total = None
    if exponent * (v_count.bit_length() - 1) <= int(budget).bit_length():
        total = v_count ** exponent
    if total is None or total > budget:
        raise BudgetExceededError(_control_count(v_count, exponent), budget, kind)
    check_node_memory((2 * v_count) ** tree.depth, max(inst.n, inst.k))

    dt, s = tree.dt, tree.sqrt_dt
    states = [inst.x0[None, :]]
    for m in range(tree.depth):
        x = states[-1]
        drift = (_flat_matmul(x, inst.A[m].T)[:, None] + verts @ inst.B[m].T) + inst.b[m]
        diff = (_flat_matmul(x, inst.C[m].T)[:, None] + verts @ inst.D[m].T) + inst.sigma[m]
        base = x[:, None] + dt * drift
        states.append(np.stack([base + s * diff, base - s * diff], axis=2).reshape(-1, inst.n))

    leaf = states.pop()
    value = 0.5 * tree.path_prob(tree.depth) * np.sum(_flat_matmul(leaf, inst.G) * leaf, axis=-1)
    # every partial count is at most total: machine ints below 2**63, Python ints past it
    ties = np.ones(value.shape, dtype=np.int64 if total < 2 ** 63 else object)
    choice = [None] * tree.depth
    for m in reversed(range(tree.depth)):
        pair = value.reshape(-1, v_count, 2)
        totals = (0.5 * dt * tree.path_prob(m)
                  * (_stage(inst, m, states[m][:, None], verts) + offset)
                  + pair[..., 0] + pair[..., 1])
        value = np.fmin.reduce(totals, axis=1)
        tied = totals == value[:, None]
        choice[m] = np.argmax(tied, axis=1)
        kids = ties.reshape(-1, v_count, 2)
        ties = np.where(tied, kids[..., 0] * kids[..., 1], 0).sum(axis=1)

    levels = []
    at = np.zeros(1, dtype=np.int64)  # each node's state index on its level
    for m in range(tree.depth):
        v = choice[m][at]
        levels.append(verts[v])
        at = (2 * (at * v_count + v)[:, None] + np.arange(2)).ravel()
    return levels, total, float(value[0]), int(ties[0])


# an overflowing cost comes out as inf or NaN, and all-NaN costs are refused
# below, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def brute_force_binary(inst: LQInstance, domain: ControlDomain,
                       budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Minimum of the cost over every binary control: :func:`_vertex_minimum`
    over the binary vertices, whose root value is the optimum.

    Rounding: the recursion and ``cost_many`` add the same exact terms in
    different orders, each through at most ``r`` roundings, and ``B`` (the
    cost of the all-ones control under absolute coefficients) bounds their
    absolute sum.  So each is within ``gamma_r B`` of the exact cost: the
    control returned costs at most ``2 gamma_r B`` above the optimum, and
    ``cost``, its ``cost_many``, is within ``3 gamma_r B``.
    """
    verts = domain.binary_vertices()
    if verts.shape[0] == 0:
        raise ValueError("the binary control set is empty")
    if verts.shape[1] != inst.k:
        raise ValueError("domain dimension does not match the instance")
    levels, total, value, ties = _vertex_minimum(inst, verts, budget)
    if math.isnan(value):
        raise ValueError("every binary control has a NaN cost")
    control = ControlProcess.from_levels(domain, inst.tree, levels, "binary")
    cost = float(cost_many(inst, [lvl[None] for lvl in control.levels])[0])
    return OracleResult(control=control, cost=cost, enumerated=total, tie_count=ties)


# -- equivalence certificate -----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Evidence that minimizing the shifted cost solves the binary problem.

    Four ingredients: the Riccati test certifies that the shift makes the
    quadratic part concave up to ``tol`` (``concavity``); the shifted and
    raw costs agree on every binary control (``binary_max_shift_gap`` bounds
    their difference, from the binary vertices); the relaxed minimum, which
    a concave cost attains at a control of relaxed vertices, is not below
    the binary one, ``oracle.cost`` (``relaxed_margin``, 0.0 where every
    relaxed vertex is binary); and the binary minimizer passes the
    first-order check (``stationarity``).  ``relaxed_slack``, ``tol/2 T
    max_v <v, v>``, bounds how far a relaxed control may sit below that
    minimum when concavity holds only up to ``tol``.
    """

    mu: float
    lambda_max: float
    concavity: ConcavityCertificate
    oracle: OracleResult
    binary_max_shift_gap: float
    relaxed_min_cost: float
    relaxed_slack: float
    stationarity: CheckResult

    @property
    def relaxed_margin(self) -> float:
        return self.relaxed_min_cost - self.oracle.cost

    @property
    def warnings(self) -> tuple:
        if self.concavity.ok:
            return ()
        return (f"the shift does not make the quadratic part concave: the Riccati "
                f"test fails at level {self.concavity.pivot_level}",)

    @property
    def ok(self) -> bool:
        return bool(self.concavity.ok and self.binary_max_shift_gap <= BINARY_SHIFT_TOL
                    and self.relaxed_margin >= -RELAXED_MARGIN_TOL and self.stationarity.ok)

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "lambda_max": self.lambda_max,
            "concavity": self.concavity.to_dict(),
            "binary": {
                "enumerated": self.oracle.enumerated,
                "best_cost": self.oracle.cost,
                "max_shift_gap": self.binary_max_shift_gap,
            },
            "relaxed": {
                "min_cost": self.relaxed_min_cost,
                "margin": self.relaxed_margin,
                "slack": self.relaxed_slack,
            },
            "stationarity": {
                "ok": self.stationarity.ok,
                "violation": self.stationarity.violation,
            },
            "oracle": self.oracle.to_dict(),
            "warnings": list(self.warnings),
            "ok": self.ok,
        }


# as in brute_force_binary: Trajectory.of refuses a cost that overflows
@np.errstate(over="ignore", invalid="ignore")
def equivalence_check(inst: LQInstance, domain: ControlDomain, *,
                      mu: float | None = None,
                      budget: int = DEFAULT_BUDGET) -> EquivalenceCertificate:
    """Certify that the shift ``mu``, by default ``-lambda_max``, makes the
    relaxed minimum the binary one: the concavity test at ``mu``, the binary
    optimum and the relaxed minimum over controls of relaxed vertices (both
    by :func:`_vertex_minimum`, under ``budget``), and stationarity at that
    optimum; see :class:`EquivalenceCertificate`."""
    lam = lambda_max(inst).lambda_max
    mu_val = -lam if mu is None else float(mu)
    concavity = certify_concavity(inst, mu_val, top=lam)

    oracle = brute_force_binary(inst, domain, budget=budget)
    # A control's <u, u> - <1, u> sums one vertex term per node with
    # weights dt 2**-m, which add up to T: this bounds every control's gap,
    # and is exactly 0.0 on 0/1 vertices.
    verts = domain.binary_vertices()
    max_gap = 0.5 * abs(mu_val) * inst.T * float(
        np.max(np.abs(np.sum(verts * (verts - 1.0), axis=-1))))

    rv = domain.relaxed_vertices()
    relaxed_min = oracle.cost
    if len(rv) > len(verts):  # the relaxed vertices hold the binary ones, exactly
        levels = _vertex_minimum(inst, rv, budget, mu_val * np.sum(rv * (rv - 1.0), axis=-1),
                                 "vertex-valued")[0]
        relaxed_min = float(shifted_cost_many(inst, [lvl[None] for lvl in levels], mu_val)[0])
    slack = 0.5 * concavity.tol * inst.T * float(np.max(np.sum(rv * rv, axis=-1)))

    return EquivalenceCertificate(
        mu=mu_val, lambda_max=lam, concavity=concavity, oracle=oracle,
        binary_max_shift_gap=max_gap, relaxed_min_cost=relaxed_min, relaxed_slack=slack,
        stationarity=check_stationarity(inst, Trajectory.of(inst, oracle.control), mu_val),
    )
