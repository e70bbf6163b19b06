"""Exhaustive and sampling oracles for cross-checking the solver.

On a depth-N tree a binary control picks one admissible vertex per running
node, so the whole feasible set is finite and can be enumerated exactly
when ``V ** (2^N - 1)`` fits a budget.  The enumeration orders controls as
mixed-radix integers: the root node is the most significant digit and each
digit indexes the lexicographically sorted vertex list, so the smallest
integer is the lexicographically smallest control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import (
    COEFFICIENTS,
    ControlDomain,
    ControlProcess,
    LQInstance,
    _cost_from_levels,
    _flat_matmul,
    _forward_levels,
    cost_many,
    sample_relaxed_levels,
)
from .optimality import Trajectory, check_stationarity
from .spectral import ConcavityCertificate, certify_concavity, lambda_max, shifted_cost_many
from .tree import ScenarioTree, check_node_memory

DEFAULT_BUDGET = 10 ** 6
DEFAULT_SAMPLES = 10 ** 4
ENUM_CHUNK = 8192
RELAXED_SLICE = 2048
BINARY_SHIFT_TOL = 1e-11
RELAXED_MARGIN_TOL = 1e-9


def random_instance(seed: int, *, n_max: int = 2, k_max: int = 2,
                    depth_max: int = 2, with_sources: bool | None = None):
    """Seeded small random instance on ``[0, 1]`` with a free control domain.

    Coefficients are level-dependent with entries uniform on [-1, 1]; the
    symmetric blocks are symmetrized.  Half the seeds get zero sources
    (``b = sigma = 0``) unless ``with_sources`` pins the choice.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    depth = int(rng.integers(1, depth_max + 1))

    def u(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    def sym(stack):
        return 0.5 * (stack + np.swapaxes(stack, -1, -2))

    sources = bool(rng.integers(0, 2)) if with_sources is None else with_sources
    inst = LQInstance(
        n=n, k=k, T=1.0, depth=depth,
        A=u(depth, n, n), B=u(depth, n, k), C=u(depth, n, n), D=u(depth, n, k),
        b=u(depth, n) if sources else np.zeros((depth, n)),
        sigma=u(depth, n) if sources else np.zeros((depth, n)),
        Q=sym(u(depth, n, n)), S=u(depth, k, n), R=sym(u(depth, k, k)),
        G=sym(u(n, n)), x0=u(n),
    )
    return inst, ControlDomain.free(k)


def _decode_digits(tree: ScenarioTree, v_count: int, codes: np.ndarray):
    """Mixed-radix digits of control codes, one ``(codes, 2**m)`` array per level."""
    nodes = tree.num_nodes(tree.depth) - 1
    digits = []
    for m in range(tree.depth):
        first = tree.num_nodes(m) - 1  # nodes on the levels above m
        place = nodes - 1 - np.arange(first, first + tree.num_nodes(m))
        digits.append(codes[:, None] // np.power(v_count, place) % v_count)
    return digits


def _decode_levels(tree: ScenarioTree, verts: np.ndarray, codes: np.ndarray):
    """Mixed-radix decode of control indices into per-level vertex arrays."""
    return [verts[d] for d in _decode_digits(tree, verts.shape[0], codes)]


def _stage(inst: LQInstance, m: int, x, u):
    """Per-node running cost ``<Q x, x> + 2 <S x, u> + <R u, u>`` at level ``m``."""
    return (np.sum(_flat_matmul(x, inst.Q[m]) * x, axis=-1)
            + 2.0 * np.sum(_flat_matmul(x, inst.S[m].T) * u, axis=-1)
            + np.sum(_flat_matmul(u, inst.R[m]) * u, axis=-1))


def _cost_tables(inst: LQInstance, verts: np.ndarray, codes: np.ndarray, lead: int):
    """Cost tables of the units whose first controls are ``codes``.

    A unit fixes levels ``0 .. N-2`` and the first ``lead`` nodes of the
    last running level.  The control that extends unit ``p`` by vertex
    ``v_j`` at each remaining node ``j`` costs ``head[p] + sum_j
    table[p, j, v_j]`` in exact arithmetic: a last-level node adds its
    stage term and the terminal terms of its two leaves, which depend on
    nothing else.  One forward sweep, batched over the units and the
    vertices, gives every state involved.
    """
    tree = inst.tree
    last = tree.depth - 1
    digits = _decode_digits(tree, verts.shape[0], codes)
    fixed = digits.pop()[:, :lead]
    prefix = [verts[d] for d in digits]
    shape = (codes.shape[0], verts.shape[0], tree.num_nodes(last))
    u_last = np.broadcast_to(verts[:, None, :], shape + (inst.k,))
    x_levels, x_term = _forward_levels(
        inst, [lvl[:, None] for lvl in prefix] + [u_last], inst.x0)
    part = 0.0
    for m in range(last):
        level = np.sum(_stage(inst, m, x_levels[m], prefix[m][:, None]), axis=(-2, -1))
        part = part + tree.path_prob(m) * level
    leaf = np.sum(_flat_matmul(x_term, inst.G) * x_term, axis=-1)
    table = 0.5 * (tree.dt * tree.path_prob(last)
                   * _stage(inst, last, x_levels[last], verts[:, None, :])
                   + tree.path_prob(tree.depth) * (leaf[..., 0::2] + leaf[..., 1::2]))
    table = np.broadcast_to(table, shape).transpose(0, 2, 1)
    head = 0.5 * tree.dt * part + np.sum(
        np.take_along_axis(table[:, :lead], fixed[..., None], -1), axis=(1, 2))
    return head, table[:, lead:]


def _cost_bound(inst: LQInstance) -> float:
    """Bound on the absolute terms of the cost of any binary control.

    This is the cost of the all-ones control with every coefficient and
    ``x0`` replaced by its absolute value, and the noise folded into the
    drift (``dt |C| / sqrt(dt) = sqrt(dt) |C|``): both children of a node
    then carry ``X + dt (|A| X + |B| 1 + |b|) + sqrt(dt) (|C| X + |D| 1 +
    |sigma|)``, which bounds the absolute terms each state expands into.
    """
    s = inst.tree.sqrt_dt
    values = {name: np.abs(getattr(inst, name)) for name in COEFFICIENTS}
    for drift, noise in (("A", "C"), ("B", "D"), ("b", "sigma")):
        values[drift] = values[drift] + values[noise] / s
        values[noise] = np.zeros_like(values[noise])
    mag = LQInstance(n=inst.n, k=inst.k, T=inst.T, depth=inst.depth, **values)
    ones = [np.ones((inst.tree.num_nodes(m), inst.k)) for m in range(inst.depth)]
    x_levels, x_term = _forward_levels(mag, ones, mag.x0)
    return float(_cost_from_levels(mag, ones, x_levels, x_term))


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive minimum of the true cost over binary controls.

    ``control`` is the lexicographically smallest control attaining the
    exact float minimum and ``tie_count`` counts every control that does.
    ``recosted`` counts the controls whose cost was evaluated exactly: the
    contender units times their block.  It is not in ``to_dict``.
    """

    control: ControlProcess
    cost: float
    enumerated: int
    tie_count: int
    recosted: int

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
    """Minimum of the cost over every binary control, by enumeration.

    A unit fixes the levels ``0 .. N-2`` and the leading digits of the last
    running level: its ``block`` controls share a code range and all but
    the last-level terms of the cost.  A control's screened total is the
    unit's head plus one table entry per free node, added left to right,
    and is within ``delta``, a running error bound that covers that order,
    of the cost ``cost_many`` gives.  Float addition is monotone, so the
    unit's least total, its head plus each node's table minimum added in
    that order, is bit for bit its smallest screened total.  A control in a
    unit whose least total exceeds the smallest, ``m``, by more than ``2
    delta`` costs more than ``m + delta``, which bounds the cost of the
    control screened at ``m``: it cannot attain the minimum.  Every control
    of the other units (NaN ones included) is recosted with ``cost_many``
    in code order, which gives the result that costing all of them gives.
    """
    verts = domain.binary_vertices()
    if verts.shape[0] == 0:
        raise ValueError("the binary control set is empty")
    if verts.shape[1] != inst.k:
        raise ValueError("domain dimension does not match the instance")
    tree = inst.tree
    nodes = tree.num_nodes(tree.depth) - 1
    v_count = verts.shape[0]
    total = v_count ** nodes
    if total > budget:
        raise BudgetExceededError(required=total, budget=budget)
    # the budget bounds the batch, but not one control: one vertex gives total 1
    check_node_memory(nodes, inst.k)

    # at least one free node: a unit's table covers all its vertices anyway
    free = tree.num_nodes(tree.depth - 1)
    while free > 1 and v_count ** free > ENUM_CHUNK:
        free -= 1
    block = v_count ** free
    lead = tree.num_nodes(tree.depth - 1) - free
    units = total // block
    # Each term of the cost passes through at most this many roundings in
    # either evaluation: dot products and Euler updates on every level for
    # the two state factors, then the node and leaf sums taken as
    # sequential.  Doubled, which also covers rounding in the bound itself.
    width = inst.n + inst.k
    rounds = 2 * (2 * tree.depth * (width + 4) + 2 ** (tree.depth + 1) * width + 16)
    unit_roundoff = np.finfo(float).eps / 2
    gamma = rounds * unit_roundoff / (1.0 - rounds * unit_roundoff)
    delta = 2.0 * gamma * _cost_bound(inst)

    # A table sweep over c // V units allocates about what c controls do.
    sweep = max(1, ENUM_CHUNK // v_count)
    least = np.empty(units)
    for start in range(0, units, sweep):
        ids = np.arange(start, min(start + sweep, units), dtype=np.int64)
        head, table = _cost_tables(inst, verts, ids * block, lead)
        terms = np.column_stack([head, np.min(table, axis=-1)])
        least[start:start + ids.shape[0]] = np.cumsum(terms, axis=1)[:, -1]
    cut = np.min(least, initial=math.inf, where=~np.isnan(least)) + 2.0 * delta
    contenders = np.flatnonzero(~(least > cut))

    best = math.inf
    first = tie_count = 0
    batch = max(1, ENUM_CHUNK // block)
    offsets = np.arange(block, dtype=np.int64)
    for at in range(0, contenders.shape[0], batch):
        codes = (contenders[at:at + batch, None] * block + offsets).ravel()
        costs = cost_many(inst, _decode_levels(tree, verts, codes))
        lo = float(np.min(costs))
        if lo < best:
            best, tie_count = lo, 0
        if lo <= best:
            hits = costs == best
            if tie_count == 0:  # codes increase, so this is the smallest
                first = int(codes[np.argmax(hits)])
            tie_count += int(np.count_nonzero(hits))
    if tie_count == 0:
        raise ValueError("every binary control has a NaN cost")

    levels = _decode_levels(tree, verts, np.array([first], dtype=np.int64))
    control = ControlProcess.from_levels(domain, tree, [lvl[0] for lvl in levels], "binary")
    return OracleResult(control=control, cost=best, enumerated=total,
                        tie_count=tie_count, recosted=contenders.shape[0] * block)


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
