"""Linear-quadratic problem data on a scenario tree.

An :class:`LQInstance` bundles piecewise-constant coefficients for the
controlled linear dynamics

    X_{n+1} = X_n + (A_n X_n + B_n u_n + b_n) dt + (C_n X_n + D_n u_n + s_n) dW_n

with the quadratic cost

    J(u) = E[ 1/2 sum_n (<Q_n X_n, X_n> + 2 <S_n X_n, u_n> + <R_n u_n, u_n>) dt
              + 1/2 <G X_N, X_N> ],

where none of Q, R, G is assumed definite.  Controls take values in the
binary set ``U = C intersect {0,1}^k`` described by a
:class:`ControlDomain`; its relaxation replaces ``{0,1}^k`` by the unit box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomainError, VertexEnumerationError
from .tree import NODE_BYTES_BOUND, AdaptedProcess, ScenarioTree, build_tree, check_node_memory

SYMMETRY_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
BINARY_VERTEX_CAP = 20
RELAXED_VERTEX_DIM_CAP = 12

# The instance schema, name -> (dims, per_level): ``dims`` spells the shape
# of one value in the state and control dimensions n and k, and a
# ``per_level`` coefficient stacks one value per tree level.  The loader
# reports issues in this order.
COEFFICIENTS = {
    "A": ("nn", True), "B": ("nk", True), "C": ("nn", True), "D": ("nk", True),
    "Q": ("nn", True), "S": ("kn", True), "R": ("kk", True),
    "b": ("n", True), "sigma": ("n", True), "G": ("nn", False), "x0": ("n", False),
}


def coefficient_shape(name: str, n: int, k: int) -> tuple:
    """Shape of one value of coefficient ``name``."""
    return tuple({"n": n, "k": k}[d] for d in COEFFICIENTS[name][0])


def check_coefficient_memory(n: int, k: int, depth: int) -> None:
    """Refuse coefficients of these sizes before they are allocated: a
    ``ValueError`` when the ``(depth,) + shape`` float64 stacks, with ``G``
    and ``x0``, take more than :data:`NODE_BYTES_BOUND` bytes."""
    needed = 8 * sum(math.prod(coefficient_shape(name, n, k)) * (depth if per_level else 1)
                     for name, (_, per_level) in COEFFICIENTS.items())
    if needed > NODE_BYTES_BOUND:
        raise ValueError(
            f"coefficients for n={n}, k={k}, depth={depth} need {needed} bytes, "
            f"above the memory bound of {NODE_BYTES_BOUND} bytes"
        )


def _as_float_array(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _symmetrize_stack(mats, name):
    """Symmetrize ``(..., d, d)`` matrices, rejecting skew parts beyond
    tolerance; holds one stack-sized temporary at a time.

    An exactly symmetric stack is returned as it is, since the mean of m
    and m^T is m bit for bit.  Otherwise the halves are added, which
    cannot overflow where ``m + m^T`` would.
    """
    with np.errstate(over="ignore"):  # an infinite skew part is rejected below
        skew = mats - np.swapaxes(mats, -1, -2)
    defect = float(np.max(np.abs(skew, out=skew)))
    del skew
    if defect == 0.0:
        return mats
    scale = max(1.0, float(mats.max()), -float(mats.min()))
    if defect > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    half = 0.5 * mats
    return half + np.swapaxes(half, -1, -2)


def _flat_matmul(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x @ M`` for a coefficient ``M`` (a matrix or a vector), as one 2-D
    product over all leading axes of ``x``.

    numpy multiplies a stack one BLAS call per element, each on a few rows;
    a batch of ``(2**m, n)`` level arrays is one ``(batch * 2**m, n)``
    matrix instead.  A 2-D ``x`` is multiplied as it is, so one control's
    sweep keeps its float order.
    """
    if x.ndim <= 2:
        return x @ M
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(x.shape[:-1] + M.shape[1:])


@dataclass(frozen=True, eq=False)
class LQInstance:
    """Problem data; coefficient index ``m`` applies on ``[t_m, t_{m+1})``."""

    n: int
    k: int
    T: float
    depth: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    G: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        n, k, depth = int(self.n), int(self.k), int(self.depth)
        if n < 1 or k < 1:
            raise ValueError("state and control dimensions must be >= 1")
        tree = build_tree(depth, float(self.T))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_tree", tree)
        for name, (_, per_level) in COEFFICIENTS.items():
            shape = ((depth,) if per_level else ()) + coefficient_shape(name, n, k)
            arr = _as_float_array(getattr(self, name), shape, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            if name in ("Q", "R", "G"):
                arr = _symmetrize_stack(arr, name)
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def tree(self) -> ScenarioTree:
        return self._tree

    @classmethod
    def constant(cls, *, depth, n, k, T=1.0, A=None, B=None, C=None,
                 D=None, b=None, sigma=None, Q=None, S=None, R=None, G=None,
                 x0=None) -> "LQInstance":
        """Build an ``n``-state, ``k``-control instance with time-independent
        coefficients.

        Omitted coefficients are zero, and a scalar given for a square
        coefficient is that multiple of the identity.
        """
        given = locals()  # the coefficient arguments by name
        check_coefficient_memory(n, k, depth)

        values = {}
        for name, (_, per_level) in COEFFICIENTS.items():
            shape, val = coefficient_shape(name, n, k), given[name]
            if val is None:
                val = np.zeros(shape)
            elif np.ndim(val) == 0 and len(shape) == 2 and shape[0] == shape[1]:
                val = float(val) * np.eye(shape[0])
            val = np.asarray(val, dtype=float).reshape(shape)
            values[name] = np.tile(val, (depth,) + (1,) * len(shape)) if per_level else val
        return cls(n=n, k=k, T=T, depth=depth, **values)


def example5_instance(depth: int) -> "LQInstance":
    """Pure control-noise scalar instance ``dX = u dW`` on [0, 1], indefinite cost.

    The cost ``E[ int (X^2 - u^2/2) dt + X(T)^2 ]`` collapses, for any
    adapted control, to the explicit weight form
    ``sum_m E[u_m^2] (3/2 - t_{m+1}) dt`` on the tree, which makes every
    pipeline stage checkable in closed form.  The binary optimum is
    ``u = 0``.
    """
    return LQInstance.constant(depth=depth, n=1, k=1, D=1.0, Q=2.0, R=-1.0, G=2.0)


@dataclass(frozen=True, eq=False)
class ControlDomain:
    """Control-value constraint set.

    ``halfspaces`` lists pairs ``(g, h)`` meaning ``<g, u> <= h``; the binary
    set is ``U = {0,1}^k`` filtered by the halfspaces, the relaxed set is the
    unit box filtered the same way.  An empty list means the whole space.
    """

    k: int
    halfspaces: tuple = ()

    def __post_init__(self):
        k = int(self.k)
        if k < 1:
            raise ValueError("control dimension must be >= 1")
        object.__setattr__(self, "k", k)
        cleaned = []
        for g, h in self.halfspaces:
            g = np.asarray(g, dtype=float).reshape(k)
            if not np.all(np.isfinite(g)) or not math.isfinite(float(h)):
                raise ValueError("halfspace coefficients must be finite")
            g = g.copy()
            g.setflags(write=False)
            cleaned.append((g, float(h)))
        object.__setattr__(self, "halfspaces", tuple(cleaned))

    @classmethod
    def free(cls, k: int) -> "ControlDomain":
        return cls(k=k)

    def _memo(self, key, compute):
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def binary_vertices(self) -> np.ndarray:
        return self._memo("binary", lambda: enumerate_binary_vertices(self))

    def relaxed_vertices(self) -> np.ndarray:
        return self._memo("relaxed", lambda: relaxed_vertices(self))

    def contains_relaxed(self, points: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean mask over ``(..., k)`` points for relaxed membership."""
        pts = np.asarray(points, dtype=float)
        ok = np.all((pts >= -tol) & (pts <= 1.0 + tol), axis=-1)
        for g, h in self.halfspaces:
            ok &= _flat_matmul(pts, g) <= h + tol
        return ok

    def contains_binary(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over ``(..., k)`` points for membership in ``U``, up
        to :data:`MEMBERSHIP_TOL` per coordinate.

        That tolerance is below 0.5, so the only corner within it of a point
        is the nearest one: a point belongs to U exactly when it lies within
        the tolerance of its rounded corner and that corner is a binary
        vertex.
        """
        pts = np.asarray(points, dtype=float)
        corner = np.rint(pts)
        with np.errstate(invalid="ignore"):  # inf - inf is nan, hence not a member
            near = np.abs(pts - corner) <= MEMBERSHIP_TOL
        ok = np.all(near & ((corner == 0.0) | (corner == 1.0)), axis=-1)
        corner[~ok] = 0.0  # keeps nan and inf out of the halfspace products
        for g, h in self.halfspaces:
            ok &= corner @ g <= h + MEMBERSHIP_TOL
        return ok


def enumerate_binary_vertices(domain: ControlDomain) -> np.ndarray:
    """All points of ``{0,1}^k`` satisfying the halfspaces, in lexicographic order."""
    if domain.k > BINARY_VERTEX_CAP:
        raise VertexEnumerationError(
            f"k = {domain.k} exceeds the binary enumeration cap {BINARY_VERTEX_CAP}"
        )
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=domain.k)))
    keep = np.ones(corners.shape[0], dtype=bool)
    for g, h in domain.halfspaces:
        keep &= corners @ g <= h + MEMBERSHIP_TOL
    return corners[keep]


def relaxed_vertices(domain: ControlDomain) -> np.ndarray:
    """Extreme points of the relaxed set (unit box cut by the halfspaces).

    Without halfspaces these are the box corners.  With halfspaces the
    vertices are enumerated by solving every ``k``-subset of the active
    constraint candidates, which is adequate at the dimensions this package
    targets.
    """
    k = domain.k
    if not domain.halfspaces:
        if k > RELAXED_VERTEX_DIM_CAP:
            raise VertexEnumerationError(
                f"k = {k} exceeds the vertex enumeration cap {RELAXED_VERTEX_DIM_CAP}"
            )
        return np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    rows = []
    rhs = []
    for i in range(k):
        e = np.zeros(k)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(0.0)  # u_i = 0
        rows.append(e)
        rhs.append(1.0)  # u_i = 1
    for g, h in domain.halfspaces:
        rows.append(np.asarray(g))
        rhs.append(float(h))
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    total = math.comb(len(rows), k)
    if k > RELAXED_VERTEX_DIM_CAP or total > 100_000:
        raise VertexEnumerationError(
            f"vertex enumeration needs {total} candidate systems; too many"
        )
    found = []
    for subset in itertools.combinations(range(len(rows)), k):
        M = rows[list(subset)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, rhs[list(subset)])
        if not bool(domain.contains_relaxed(v)):
            continue
        if not any(np.max(np.abs(v - w)) <= 1e-9 for w in found):
            found.append(v)
    found.sort(key=tuple)
    return np.asarray(found) if found else np.zeros((0, k))


@dataclass(frozen=True, eq=False)
class ControlProcess:
    """An adapted control with a declared value set.

    ``kind`` is ``"binary"`` (every node value lies in ``U``) or
    ``"relaxed"`` (values lie in the relaxed polytope); membership is
    verified node-wise on construction to :data:`MEMBERSHIP_TOL`.  A binary
    value is then held as the vertex it lies within that tolerance of.
    """

    process: AdaptedProcess
    domain: ControlDomain
    kind: str = "binary"

    def __post_init__(self):
        if self.process.dim != self.domain.k:
            raise ValueError(
                f"control dimension {self.process.dim} does not match domain k={self.domain.k}"
            )
        if self.kind not in ("binary", "relaxed"):
            raise ValueError(f"kind must be 'binary' or 'relaxed', got {self.kind!r}")
        check = (self.domain.contains_binary if self.kind == "binary"
                 else self.domain.contains_relaxed)
        values = np.concatenate(self.process.levels)
        ok = check(values)
        if not np.all(ok):  # name the first node outside, as the CSV reader does
            node = int(np.argmin(ok))
            m = (node + 1).bit_length() - 1
            raise ValueError(
                f"control value {values[node]} at node ({m}, {node + 1 - (1 << m)}) "
                f"is outside the {self.kind} control set"
            )
        if self.kind == "binary":
            exact = np.rint(values) + 0.0
            if not np.array_equal(exact, values):
                object.__setattr__(self, "process", AdaptedProcess(self.tree, [
                    exact[(1 << m) - 1:(2 << m) - 1] for m in range(self.tree.depth)]))

    @property
    def tree(self) -> ScenarioTree:
        return self.process.tree

    @property
    def levels(self):
        return self.process.levels

    @property
    def dim(self) -> int:
        return self.process.dim

    @classmethod
    def from_levels(cls, domain: ControlDomain, tree: ScenarioTree, levels,
                    kind: str = "binary") -> "ControlProcess":
        return cls(AdaptedProcess(tree, levels), domain, kind)

    @classmethod
    def constant(cls, domain: ControlDomain, tree: ScenarioTree, value,
                 kind: str = "binary") -> "ControlProcess":
        return cls(AdaptedProcess.constant(tree, value), domain, kind)


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "valid": self.ok,
            "issues": [{"path": p, "message": m} for p, m in self.issues],
        }


def validate_instance(inst: LQInstance, domain: ControlDomain) -> ValidationReport:
    """Coherence checks across the instance and its control domain.

    Shape, symmetry, and finiteness violations are rejected by the
    constructors already; this confirms the cross-object facts: matching
    control dimensions and a nonempty binary control set.
    """
    issues = []
    if domain.k != inst.k:
        issues.append(("/domain", f"domain k={domain.k} != instance k={inst.k}"))
    try:
        if domain.binary_vertices().shape[0] == 0:
            issues.append(("/domain/halfspaces", "binary control set U is empty"))
    except VertexEnumerationError as exc:
        issues.append(("/domain", str(exc)))
    return ValidationReport(tuple(issues))


# -- forward dynamics and cost ----------------------------------------------


def _forward_levels(inst: LQInstance, u_levels, x0, *, inhomogeneous: bool = True):
    """Explicit Euler sweep.

    All arrays may carry leading batch axes.  Returns the running level list
    (levels ``0 .. N-1``) and the leaf array.
    """
    tree = inst.tree
    # running levels plus leaves, for one control
    check_node_memory(2 * tree.num_nodes(tree.depth) - 1, inst.n)
    dt, s = tree.dt, tree.sqrt_dt
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = x[None, :]  # (1, n): the single level-0 node
    x_levels = []
    for m in range(tree.depth):
        x_levels.append(x)
        u = u_levels[m]
        drift = _flat_matmul(x, inst.A[m].T) + _flat_matmul(u, inst.B[m].T)
        diff = _flat_matmul(x, inst.C[m].T) + _flat_matmul(u, inst.D[m].T)
        if inhomogeneous:
            drift = drift + inst.b[m]
            diff = diff + inst.sigma[m]
        base = x + dt * drift
        up = base + s * diff
        down = base - s * diff
        nxt = np.empty(up.shape[:-2] + (2 * up.shape[-2], up.shape[-1]))
        nxt[..., 0::2, :] = up
        nxt[..., 1::2, :] = down
        x = nxt
    return x_levels, x


def forward_state(inst: LQInstance, u):
    """Integrate the controlled dynamics from ``inst.x0`` along the tree.

    Returns ``(x_levels, x_term)``: the state on levels ``0 .. N-1`` as a
    list of ``(2**m, n)`` arrays, and the ``(2**N, n)`` leaf array.
    """
    if u.tree != inst.tree or u.dim != inst.k:
        raise ValueError("control does not match the instance tree or control dimension")
    return _forward_levels(inst, u.levels, inst.x0)


def _cost_from_levels(inst: LQInstance, u_levels, x_levels, x_term):
    """Quadratic cost from precomputed state levels; batched."""
    tree = inst.tree
    total = 0.0
    for m in range(tree.depth):
        x, u = x_levels[m], u_levels[m]
        level_sum = (np.sum(_flat_matmul(x, inst.Q[m]) * x, axis=(-2, -1))
                     + 2.0 * np.sum(_flat_matmul(x, inst.S[m].T) * u, axis=(-2, -1))
                     + np.sum(_flat_matmul(u, inst.R[m]) * u, axis=(-2, -1)))
        total = total + tree.path_prob(m) * level_sum
    total = total * tree.dt
    gx = _flat_matmul(x_term, inst.G)
    total = total + tree.path_prob(tree.depth) * np.sum(gx * x_term, axis=(-2, -1))
    return 0.5 * total


def cost_direct(inst: LQInstance, u) -> float:
    """Evaluate the cost by forward simulation and weighted summation."""
    x_levels, x_term = forward_state(inst, u)
    return float(_cost_from_levels(inst, u.levels, x_levels, x_term))


def cost_constant(inst: LQInstance, value) -> float:
    """Cost of the control equal to ``value`` at every node, in O(depth)
    memory: from the second moment ``Z = E[z z^T]`` of ``z = (x, 1)``, which
    holds the state's mean and second moment, one per level.

    An Euler step maps ``z`` to ``P z +- sqrt(dt) W z`` with ``P = [[I + dt A,
    dt (B u + b)], [0, 1]]`` and ``W = [[C, D u + sigma], [0, 0]]``; the two
    branches' cross terms cancel, so ``Z' = P Z P^T + dt W Z W^T``.  The
    running cost is ``<K, Z>`` with ``K = [[Q, S^T u], [u^T S, <R u, u>]]``.
    """
    n, dt = inst.n, inst.tree.dt
    u = np.asarray(value, dtype=float).reshape(inst.k)
    z = np.append(inst.x0, 1.0)
    Z = np.outer(z, z)
    P, W, K = np.eye(n + 1), np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    total = 0.0
    for m in range(inst.depth):
        K[:n, :n], K[:n, n], K[n, :n] = inst.Q[m], u @ inst.S[m], u @ inst.S[m]
        K[n, n] = u @ inst.R[m] @ u
        total += dt * np.sum(K * Z)
        P[:n, :n], P[:n, n] = np.eye(n) + dt * inst.A[m], dt * (inst.B[m] @ u + inst.b[m])
        W[:n, :n], W[:n, n] = inst.C[m], inst.D[m] @ u + inst.sigma[m]
        Z = P @ Z @ P.T + dt * (W @ Z @ W.T)
    return float(0.5 * (total + np.sum(inst.G * Z[:n, :n])))


def cost_many(inst: LQInstance, u_levels):
    """Costs of a batch of controls given as ``(batch, 2**m, k)`` level arrays."""
    x_levels, x_term = _forward_levels(inst, u_levels, inst.x0)
    return _cost_from_levels(inst, u_levels, x_levels, x_term)


# -- relaxed sampling --------------------------------------------------------


def sample_relaxed_levels(domain: ControlDomain, tree: ScenarioTree, count: int,
                          rng: np.random.Generator):
    """Draw ``count`` relaxed controls, uniform per node over the relaxed set.

    Box proposals are rejection-filtered against the halfspaces one node at a
    time.  Raises :class:`DegenerateDomainError` when almost everything is
    rejected (acceptance below 0.1 percent).
    """
    nodes = tree.num_nodes(tree.depth) - 1
    check_node_memory(int(count) * nodes, domain.k)
    draw = rng.uniform(size=(count, nodes, domain.k))
    if domain.halfspaces:
        bad = ~domain.contains_relaxed(draw, tol=0.0)
        rate = (bad.size - np.count_nonzero(bad)) / bad.size
        if rate < 1e-3:
            raise DegenerateDomainError(
                f"relaxed rejection sampling accepts only {rate:.2e} of the unit box"
            )
        while np.any(bad):
            idx = np.nonzero(bad)
            draw[idx] = rng.uniform(size=(len(idx[0]), domain.k))
            bad[idx] = ~domain.contains_relaxed(draw[idx], tol=0.0)
    offsets = np.cumsum([0] + [tree.num_nodes(m) for m in range(tree.depth)])
    return [draw[:, offsets[m]:offsets[m + 1], :] for m in range(tree.depth)]
