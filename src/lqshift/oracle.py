"""Exact and sampling oracles for cross-checking the solver.

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
    sample_relaxed_levels,
)
from .optimality import Trajectory, check_stationarity
from .spectral import ConcavityCertificate, certify_concavity, lambda_max, shifted_cost_many
from .tree import ScenarioTree, check_node_memory

DEFAULT_BUDGET = 10 ** 6
DEFAULT_SAMPLES = 10 ** 4
RELAXED_SLICE = 2048
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


# an overflowing cost comes out as inf or NaN, and all-NaN costs are refused
# below, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def brute_force_binary(inst: LQInstance, domain: ControlDomain,
                       budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Minimum of the cost over every binary control, by backward recursion.

    The forward pass stacks the states reachable at level ``m + 1`` as
    ``(states, V, 2, n)``: each state of level ``m`` under each vertex, up
    and down.  Backward, ``W_N(x) = 1/2 p_N <G x, x>`` with ``p_m = 2**-m``,
    and ``W_m(x)`` is the least over the vertices of ``1/2 dt p_m
    stage_m(x, v)`` plus the two children's values (``np.fmin``: a NaN total
    loses to any number).  A control's cost is the sum of these node terms,
    so ``W_0(x0)`` is the optimum.  Taking the lowest vertex among exact
    float ties at each state, read from the root down, gives the
    lexicographically smallest minimizer; the tie counts multiply up.

    Rounding: the recursion and ``cost_many`` add the same exact terms in
    different orders, each term through at most ``r`` roundings, and ``B``
    (the cost of the all-ones control under absolute coefficients) bounds
    their absolute sum.  So each is within ``gamma_r B`` of the exact cost:
    the control returned costs at most ``2 gamma_r B`` above the optimum,
    exactly, and ``cost``, its ``cost_many``, is within ``3 gamma_r B``.

    ``budget`` bounds the number of controls, ``V ** (2^N - 1)``, which a
    refusal reports as an ``int``, or as the text ``"V**E"`` where it has
    too many digits to print.  The ``(2V)^N`` last-level states are checked
    against the node memory bound before anything is allocated.
    """
    verts = domain.binary_vertices()
    if verts.shape[0] == 0:
        raise ValueError("the binary control set is empty")
    if verts.shape[1] != inst.k:
        raise ValueError("domain dimension does not match the instance")
    tree = inst.tree
    v_count = verts.shape[0]
    exponent = tree.num_nodes(tree.depth) - 1
    # bit lengths first, since V ** E >= 2 ** (E floor(log2 V)): a deep
    # refusal never forms the exact count
    total = None
    if exponent * (v_count.bit_length() - 1) <= int(budget).bit_length():
        total = v_count ** exponent
    if total is None or total > budget:
        raise BudgetExceededError(required=_control_count(v_count, exponent), budget=budget)
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
    ties = np.ones(value.shape, dtype=object)  # Python ints: counts pass 2**63
    choice = [None] * tree.depth
    for m in reversed(range(tree.depth)):
        pair = value.reshape(-1, v_count, 2)
        totals = (0.5 * dt * tree.path_prob(m) * _stage(inst, m, states[m][:, None], verts)
                  + pair[..., 0] + pair[..., 1])
        value = np.fmin.reduce(totals, axis=1)
        tied = totals == value[:, None]
        choice[m] = np.argmax(tied, axis=1)
        ties = np.sum(np.where(tied, np.prod(ties.reshape(-1, v_count, 2), axis=-1), 0), axis=1)
    if math.isnan(value[0]):
        raise ValueError("every binary control has a NaN cost")

    levels = []
    at = np.zeros(1, dtype=np.int64)  # each node's state index on its level
    for m in range(tree.depth):
        v = choice[m][at]
        levels.append(verts[v])
        at = (2 * (at * v_count + v)[:, None] + np.arange(2)).ravel()
    control = ControlProcess.from_levels(domain, tree, levels, "binary")
    cost = float(cost_many(inst, [lvl[None] for lvl in control.levels])[0])
    return OracleResult(control=control, cost=cost, enumerated=total,
                        tie_count=int(ties[0]))


# -- equivalence certificate -----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Evidence that minimizing the shifted cost solves the binary problem.

    Four ingredients: the Riccati test certifies that the shift makes the
    quadratic part concave (``concavity``); the shifted and raw costs agree
    on every binary control (``binary_max_shift_gap`` bounds their
    difference, from the binary vertices); no sampled relaxed control beats
    the binary minimum of the shifted cost; and the binary minimizer passes
    the first-order check.  ``warnings`` names the level where the concavity
    test fails, and flags domains whose relaxation has non-binary vertices,
    where vertex attainment arguments weaken.
    """

    mu: float
    lambda_max: float
    concavity: ConcavityCertificate
    binary_enumerated: int
    binary_best_cost: float
    binary_max_shift_gap: float
    relaxed_samples: int
    relaxed_min_cost: float
    relaxed_margin: float
    stationarity_ok: bool
    stationarity_violation: float
    warnings: tuple
    ok: bool

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "lambda_max": self.lambda_max,
            "concavity": self.concavity.to_dict(),
            "binary": {
                "enumerated": self.binary_enumerated,
                "best_cost": self.binary_best_cost,
                "max_shift_gap": self.binary_max_shift_gap,
            },
            "relaxed": {
                "samples": self.relaxed_samples,
                "min_cost": self.relaxed_min_cost,
                "margin": self.relaxed_margin,
            },
            "stationarity": {
                "ok": self.stationarity_ok,
                "violation": self.stationarity_violation,
            },
            "warnings": list(self.warnings),
            "ok": self.ok,
        }


# as in brute_force_binary: Trajectory.of refuses a cost that overflows
@np.errstate(over="ignore", invalid="ignore")
def equivalence_check(inst: LQInstance, domain: ControlDomain, *,
                      mu: float | None = None,
                      samples: int = DEFAULT_SAMPLES,
                      budget: int = DEFAULT_BUDGET,
                      seed: int = 0) -> tuple[EquivalenceCertificate, OracleResult]:
    lam = lambda_max(inst).lambda_max
    mu_val = -lam if mu is None else float(mu)
    concavity = certify_concavity(inst, mu_val, top=lam)

    oracle = brute_force_binary(inst, domain, budget=budget)
    best = oracle.cost
    # A binary control's <u, u> - <1, u> sums one vertex term per node with
    # weights dt 2**-m, which add up to T: this bounds every control's gap,
    # and is exactly 0.0 on 0/1 vertices.
    verts = domain.binary_vertices()
    max_gap = 0.5 * abs(mu_val) * inst.T * float(
        np.max(np.abs(np.sum(verts * (verts - 1.0), axis=-1))))

    rng = np.random.default_rng(seed)
    relaxed = sample_relaxed_levels(domain, inst.tree, samples, rng)
    # costed in slices: a sweep's temporaries scale with the batch it costs
    relaxed_min = min(
        float(np.min(shifted_cost_many(
            inst, [lvl[at:at + RELAXED_SLICE] for lvl in relaxed], mu_val)))
        for at in range(0, samples, RELAXED_SLICE))
    margin = relaxed_min - best

    stat = check_stationarity(inst, Trajectory.of(inst, oracle.control), mu_val)

    warnings = []
    if not concavity.ok:
        warnings.append(
            f"the shift does not make the quadratic part concave: the Riccati "
            f"test fails at level {concavity.pivot_level}")
    if domain.halfspaces:
        rv = domain.relaxed_vertices()
        if rv.size and np.any(np.abs(rv * (rv - 1.0)) > 1e-12):
            warnings.append(
                "the relaxed polytope has non-binary vertices; the sampled "
                "bound does not certify binary attainment")
    ok = (concavity.ok and max_gap <= BINARY_SHIFT_TOL
          and margin >= -RELAXED_MARGIN_TOL and stat.ok)
    cert = EquivalenceCertificate(
        mu=mu_val, lambda_max=lam, concavity=concavity,
        binary_enumerated=oracle.enumerated, binary_best_cost=best,
        binary_max_shift_gap=max_gap,
        relaxed_samples=samples, relaxed_min_cost=relaxed_min,
        relaxed_margin=float(margin),
        stationarity_ok=stat.ok, stationarity_violation=stat.violation,
        warnings=tuple(warnings), ok=bool(ok),
    )
    return cert, oracle
