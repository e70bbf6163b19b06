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
    ControlDomain,
    ControlProcess,
    LQInstance,
    cost_many,
    sample_relaxed_levels,
)
from .optimality import check_stationarity, DEFAULT_STATIONARITY_TOL
from .spectral import lambda_max, shifted_cost_many
from .tree import ScenarioTree, _weighted_dot_levels, check_node_memory

DEFAULT_BUDGET = 10 ** 6
DEFAULT_SAMPLES = 10 ** 4
ENUM_CHUNK = 8192
TIE_CAP = 16
BINARY_SHIFT_TOL = 1e-11
RELAXED_MARGIN_TOL = 1e-9


def random_instance(seed: int, *, n_max: int = 2, k_max: int = 2,
                    depth_max: int = 2, T: float = 1.0,
                    with_sources: bool | None = None):
    """Small random instance plus a free control domain, deterministic in seed.

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
        n=n, k=k, T=T, depth=depth,
        A=u(depth, n, n), B=u(depth, n, k), C=u(depth, n, n), D=u(depth, n, k),
        b=u(depth, n) if sources else np.zeros((depth, n)),
        sigma=u(depth, n) if sources else np.zeros((depth, n)),
        Q=sym(u(depth, n, n)), S=u(depth, k, n), R=sym(u(depth, k, k)),
        G=sym(u(n, n)), x0=u(n),
    )
    return inst, ControlDomain.free(k)


def _decode_levels(tree: ScenarioTree, verts: np.ndarray, codes: np.ndarray):
    """Mixed-radix decode of control indices into per-level vertex arrays."""
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


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive minimum of the true cost over binary controls.

    ``ties`` lists every enumerated control attaining the exact same float
    minimum (capped), lexicographically smallest first; ``control`` is
    ``ties[0]``.  ``max_penalty`` is the largest ``|<u, u> - <1, u>|`` over
    the enumerated controls, the factor the shift ``mu/2`` multiplies; it
    is exactly 0.0 on 0/1 vertices and is left out of ``to_dict``.
    """

    control: ControlProcess
    cost: float
    enumerated: int
    ties: tuple
    tie_count: int
    max_penalty: float

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "enumerated": self.enumerated,
            "tie_count": self.tie_count,
        }


def brute_force_binary(inst: LQInstance, domain: ControlDomain,
                       budget: int = DEFAULT_BUDGET,
                       chunk: int = ENUM_CHUNK) -> OracleResult:
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

    best = math.inf
    max_penalty = 0.0
    tie_codes: list[int] = []
    tie_count = 0
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        levels = _decode_levels(tree, verts, codes)
        costs = cost_many(inst, levels)
        penalty = _weighted_dot_levels(tree, levels, [lvl - 1.0 for lvl in levels])
        max_penalty = max(max_penalty, float(np.max(np.abs(penalty))))
        lo = float(np.min(costs))
        if lo < best:
            best = lo
            tie_codes = []
            tie_count = 0
        if lo <= best:
            hits = codes[costs == best]
            tie_count += int(hits.shape[0])
            for code in hits[: max(0, TIE_CAP - len(tie_codes))]:
                tie_codes.append(int(code))

    tie_levels = _decode_levels(tree, verts, np.asarray(tie_codes, dtype=np.int64))
    ties = tuple(
        ControlProcess.from_levels(
            domain, tree, [lvl[i] for lvl in tie_levels], "binary")
        for i in range(len(tie_codes))
    )
    return OracleResult(control=ties[0], cost=best, enumerated=total,
                        ties=ties, tie_count=tie_count, max_penalty=max_penalty)


# -- equivalence certificate -----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Evidence that minimizing the shifted cost solves the binary problem.

    Three ingredients: the shifted and raw costs agree on every enumerated
    binary control (``binary_max_shift_gap`` is ``|mu|/2`` times the
    oracle's ``max_penalty``, from the pass that finds the optimum); no
    sampled relaxed control beats the binary minimum of the shifted cost;
    and the binary minimizer passes the first-order check.  ``warnings``
    flags domains whose relaxation has non-binary vertices, where vertex
    attainment arguments weaken.
    """

    mu: float
    lambda_max: float
    spectral_method: str
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
            "spectral_method": self.spectral_method,
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


def equivalence_check(inst: LQInstance, domain: ControlDomain, *,
                      mu: float | None = None,
                      samples: int = DEFAULT_SAMPLES,
                      budget: int = DEFAULT_BUDGET,
                      seed: int = 0,
                      binary_tol: float = BINARY_SHIFT_TOL,
                      relaxed_tol: float = RELAXED_MARGIN_TOL,
                      stationarity_tol: float = DEFAULT_STATIONARITY_TOL,
                      ) -> tuple[EquivalenceCertificate, OracleResult]:
    if mu is None:
        report = lambda_max(inst)
        mu_val, lam, method = report.mu, report.lambda_max, report.method
    else:
        mu_val, lam, method = float(mu), -float(mu), "given"

    oracle = brute_force_binary(inst, domain, budget=budget)
    best = oracle.cost
    max_gap = 0.5 * abs(mu_val) * oracle.max_penalty

    rng = np.random.default_rng(seed)
    relaxed = sample_relaxed_levels(domain, inst.tree, samples, rng)
    relaxed_shifted = shifted_cost_many(inst, relaxed, mu_val)
    relaxed_min = float(np.min(relaxed_shifted))
    margin = relaxed_min - best

    stat = check_stationarity(inst, oracle.control, mu_val, stationarity_tol)

    warnings = []
    if domain.halfspaces:
        rv = domain.relaxed_vertices()
        if rv.size and np.any(np.abs(rv * (rv - 1.0)) > 1e-12):
            warnings.append(
                "the relaxed polytope has non-binary vertices; the sampled "
                "bound does not certify binary attainment")
    ok = (max_gap <= binary_tol and margin >= -relaxed_tol and stat.ok)
    cert = EquivalenceCertificate(
        mu=mu_val, lambda_max=lam, spectral_method=method,
        binary_enumerated=oracle.enumerated, binary_best_cost=best,
        binary_max_shift_gap=max_gap,
        relaxed_samples=samples, relaxed_min_cost=relaxed_min,
        relaxed_margin=float(margin),
        stationarity_ok=stat.ok, stationarity_violation=stat.violation,
        warnings=tuple(warnings), ok=bool(ok),
    )
    return cert, oracle
