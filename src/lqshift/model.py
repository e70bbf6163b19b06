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

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomainError, VertexEnumerationError
from .tree import NODE_BYTES_BOUND, AdaptedProcess, ScenarioTree, build_tree, check_node_memory

SYMMETRY_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
BINARY_VERTEX_CAP = 20
RELAXED_SYSTEM_CAP = 100_000
# levels per cost_constant batch: four (chunk, n + 1, n + 1) stacks, 128 KB at n = 1
COST_LEVEL_CHUNK = 1024

# The instance schema, name -> (dims, per_level): ``dims`` spells the shape
# of one value in the state and control dimensions n and k, and a
# ``per_level`` coefficient stacks one value per tree level.  The loader
# reports issues in this order.
COEFFICIENTS = {
    "A": ("nn", True), "B": ("nk", True), "C": ("nn", True), "D": ("nk", True),
    "Q": ("nn", True), "S": ("kn", True), "R": ("kk", True),
    "b": ("n", True), "sigma": ("n", True), "G": ("nn", False), "x0": ("n", False),
}


@functools.lru_cache(maxsize=256, typed=True)
def coefficient_shapes(n: int, k: int) -> tuple:
    """The schema in the dimensions ``n`` and ``k``: ``(name, shape of one
    value, per_level)`` triples in :data:`COEFFICIENTS` order."""
    return tuple((name, tuple({"n": n, "k": k}[d] for d in dims), per_level)
                 for name, (dims, per_level) in COEFFICIENTS.items())


def check_coefficient_memory(n: int, k: int, depth: int) -> None:
    """Refuse coefficients of these sizes before they are allocated: a
    ``ValueError`` when the ``(depth,) + shape`` float64 stacks, with ``G``
    and ``x0``, take more than :data:`NODE_BYTES_BOUND` bytes."""
    needed = 8 * sum(math.prod(shape) * (depth if per_level else 1)
                     for _, shape, per_level in coefficient_shapes(n, k))
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
    if (mats == np.swapaxes(mats, -1, -2)).all():
        return mats
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


class _Memoized:
    """A per-object memo for data derived from a frozen dataclass's fields.
    A copy made by the constructor, as ``with_depth`` makes one, starts
    with an empty memo."""

    def _memo(self, key, compute):
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = value = compute()
            if isinstance(value, np.ndarray):  # every later caller reads the same array
                value.setflags(write=False)
        return cache[key]


@dataclass(frozen=True, eq=False)
class LQInstance(_Memoized):
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
        for name, shape, per_level in coefficient_shapes(n, k):
            shape = (depth,) + shape if per_level else shape
            arr = _as_float_array(getattr(self, name), shape, name)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            if name in ("Q", "R", "G"):
                arr = _symmetrize_stack(arr, name)
            # a view is copied: a writable base could change it after the checks
            arr = arr.copy() if arr.base is not None else np.ascontiguousarray(arr)
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
        depth = operator.index(depth)  # a level count: 2.0 is refused

        values = {}
        for name, shape, per_level in coefficient_shapes(n, k):
            val = given[name]
            if val is None:
                val = np.zeros(shape)
            elif np.ndim(val) == 0 and len(shape) == 2 and shape[0] == shape[1]:
                val = float(val) * np.eye(shape[0])
            val = np.asarray(val, dtype=float).reshape(shape)
            values[name] = val[None].repeat(depth, axis=0) if per_level else val
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
class ControlDomain(_Memoized):
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

    def binary_vertices(self) -> np.ndarray:
        return self._memo("binary", lambda: enumerate_binary_vertices(self))

    def relaxed_vertices(self) -> np.ndarray:
        return self._memo("relaxed", lambda: relaxed_vertices(self))

    def _membership(self, points, corner=None, tol: float = MEMBERSHIP_TOL):
        """The membership rule: a per-coordinate test ``(..., k)`` and a
        per-point halfspace test ``(...)`` over ``(..., k)`` points.

        Relaxed: coordinates in ``[-tol, 1 + tol]``, halfspaces met within
        ``tol``.  Binary, given ``corner``, the points' ``np.rint``: each
        coordinate within ``tol`` (below 0.5) of the corner's, 0 or 1, and
        the halfspaces met within ``tol`` at the corner.  With ``points``
        None the corner's exact 0/1 values pass, and their test is None.
        """
        at = points if corner is None else corner
        coords, cuts = None, np.ones(at.shape[:-1], bool)
        with np.errstate(invalid="ignore", over="ignore"):  # a nan is not a member
            if corner is None:
                coords = (points >= -tol) & (points <= 1.0 + tol)
            elif points is not None:
                coords = (np.abs(points - corner) <= tol) & ((corner == 0.0) | (corner == 1.0))
            for g, h in self.halfspaces:
                cuts &= _flat_matmul(at, g) <= h + tol
        return coords, cuts

    def contains_relaxed(self, points: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean mask over ``(..., k)`` points for relaxed membership."""
        coords, cuts = self._membership(np.asarray(points, dtype=float), tol=tol)
        return coords.all(-1) & cuts

    def contains_binary(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over ``(..., k)`` points for membership in ``U``, up
        to :data:`MEMBERSHIP_TOL` per coordinate."""
        pts = np.asarray(points, dtype=float)
        coords, cuts = self._membership(pts, np.rint(pts))
        return coords.all(-1) & cuts


def _corners(k: int, codes: np.ndarray) -> np.ndarray:
    """The points of {0,1}^k with the bits of uint32 ``codes``, the first highest."""
    return ((codes[:, None] >> np.arange(k - 1, -1, -1, dtype=np.uint32)) & 1).astype(float)


def enumerate_binary_vertices(domain: ControlDomain) -> np.ndarray:
    """All points of ``{0,1}^k`` satisfying the halfspaces, in lexicographic
    order: corner ``i`` holds the bits of ``i``."""
    k = domain.k
    if k > BINARY_VERTEX_CAP:
        raise VertexEnumerationError(
            f"k = {k} exceeds the binary enumeration cap {BINARY_VERTEX_CAP}"
        )
    codes = np.arange(1 << k, dtype=np.uint32)
    if domain.halfspaces:  # tested 2**16 corners at a time; only the kept ones are built
        codes = np.concatenate([c[domain._membership(None, _corners(k, c))[1]] for c in
                                (codes[lo:lo + (1 << 16)] for lo in range(0, 1 << k, 1 << 16))])
    return _corners(k, codes)


def relaxed_vertices(domain: ControlDomain) -> np.ndarray:
    """Extreme points of the relaxed set (unit box cut by the halfspaces),
    in lexicographic order: the basic solutions of a bounded-variable LP,
    whose ``s`` coordinates ``F`` in (0, 1) solve ``s`` cuts ``S`` with
    ``G[S, F]`` nonsingular, the others 0 or 1.  Each ``(S, F)`` and corner
    is one candidate point, all solved in one stack per ``s``, and counted
    against :data:`RELAXED_SYSTEM_CAP` first; ``s = 0`` is the binary set."""
    if not domain.halfspaces:
        return domain.binary_vertices()
    k, m, tol = domain.k, len(domain.halfspaces), MEMBERSHIP_TOL
    total = sum(math.comb(m, s) * math.comb(k, s) << (k - s) for s in range(min(m, k) + 1))
    if total > RELAXED_SYSTEM_CAP:
        raise VertexEnumerationError(
            f"vertex enumeration needs {total} candidate points; too many"
        )
    G, h = (np.array(part) for part in zip(*domain.halfspaces))
    found = [domain.binary_vertices()]
    for s in range(1, min(m, k) + 1):
        cuts, fixed = (np.array(list(itertools.combinations(range(n), s))) for n in (m, k))
        free = np.array([[j for j in range(k) if j not in F] for F in fixed.tolist()],
                        dtype=np.intp).reshape(len(fixed), k - s)
        systems = G[cuts[None, :, :, None], fixed[:, None, None, :]]  # (F, S, s, s)
        pair_f, pair_s = np.nonzero(~(np.abs(np.linalg.det(systems)) < 1e-12))
        corners = _corners(k - s, np.arange(1 << (k - s), dtype=np.uint32))
        rhs = (h[cuts[pair_s]][:, :, None]
               - G[cuts[pair_s][:, :, None], free[pair_f][:, None, :]] @ corners.T)
        u = np.linalg.solve(systems[pair_f, pair_s], rhs)  # (pairs, s, corners)
        corner, pair = np.nonzero(((u > tol) & (u < 1.0 - tol)).all(axis=1).T)
        points, at = np.empty((len(pair), k)), np.arange(len(pair))[:, None]
        points[at, fixed[pair_f[pair]]] = u[pair, :, corner]
        points[at, free[pair_f[pair]]] = corners[corner]
        keep = domain.contains_relaxed(points)
        # A vertex on more than s cuts is solved once per cut set.  Only the
        # run with its corner and F, in (corner, F, S) order, can repeat it:
        # drop each point within 1e-9 (max norm) of one kept before it there.
        group, points = (corner * len(fixed) + pair_f[pair])[keep], points[keep]
        rank = np.arange(len(group)) - np.searchsorted(group, group)  # place in its run
        kept = np.ones(len(group), bool)
        for r in range(1, int(rank.max(initial=0)) + 1):
            j = np.flatnonzero(rank == r)
            for q in range(1, r + 1):
                kept[j] &= ~kept[j - q] | (np.abs(points[j] - points[j - q]).max(1) > 1e-9)
        found.append(points[kept])
    found = np.concatenate(found)
    return found[np.lexsort(found.T[::-1])]


@dataclass(frozen=True, eq=False)
class ControlProcess:
    """An adapted control with a declared value set.

    ``kind`` is ``"binary"`` (every node value lies in ``U``) or
    ``"relaxed"`` (values lie in the relaxed polytope); membership is
    verified on construction by the domain's rule, to
    :data:`MEMBERSHIP_TOL`.  A binary value is then held as the vertex it
    lies within that tolerance of, the corner the rule tested.
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
        values = self.process.values
        corner = np.rint(values) if self.kind == "binary" else None
        coords, cuts = self.domain._membership(values, corner)
        if not (coords.all() and cuts.all()):
            # name the first node outside, as the CSV reader does
            node = int(np.argmin(coords.all(-1) & cuts))
            m = (node + 1).bit_length() - 1
            raise ValueError(
                f"control value {values[node]} at node ({m}, {node + 1 - (1 << m)}) "
                f"is outside the {self.kind} control set"
            )
        if corner is not None:
            corner += 0.0  # -0.0 becomes 0.0
            if not np.array_equal(corner, values):
                object.__setattr__(self, "process", AdaptedProcess(self.tree, [
                    corner[(1 << m) - 1:(2 << m) - 1] for m in range(self.tree.depth)]))

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


def _interleave(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Rows ``up[j]`` and ``down[j]`` at rows ``2j`` and ``2j + 1``; leading
    batch axes allowed.  One contiguous concatenation and one row ``take``,
    where writes into the strided slots ``[..., 0::2, :]`` loop over the
    short last axis."""
    h = up.shape[-2]
    order = np.empty(2 * h, dtype=np.intp)
    order[0::2] = np.arange(h)
    order[1::2] = np.arange(h, 2 * h)
    return np.concatenate([up, down], axis=-2).take(order, axis=-2)


def _forward_levels(inst: LQInstance, u_levels, x0, *, inhomogeneous: bool = True):
    """Explicit Euler sweep.

    All arrays may carry leading batch axes.  Returns the running level list
    (levels ``0 .. N-1``) and the leaf array.  Products take contiguous
    copies of the transposed coefficients and ``b``, ``sigma`` are tiled to
    the level's rows (see the layout rule in :mod:`lqshift.tree`).
    """
    tree = inst.tree
    # running levels plus leaves, for one control
    check_node_memory(2 * tree.num_nodes(tree.depth) - 1, inst.n)
    dt, s = tree.dt, tree.sqrt_dt
    At, Bt, Ct, Dt = (np.ascontiguousarray(np.swapaxes(M, -1, -2))
                      for M in (inst.A, inst.B, inst.C, inst.D))
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = x[None, :]  # (1, n): the single level-0 node
    x_levels = []
    for m in range(tree.depth):
        x_levels.append(x)
        u = u_levels[m]
        drift = _flat_matmul(x, At[m]) + _flat_matmul(u, Bt[m])
        diff = _flat_matmul(x, Ct[m]) + _flat_matmul(u, Dt[m])
        if inhomogeneous:
            rows = drift.shape[-2]
            drift = drift + inst.b[m:m + 1].repeat(rows, axis=0)
            diff = diff + inst.sigma[m:m + 1].repeat(rows, axis=0)
        base = x + dt * drift
        x = _interleave(base + s * diff, base - s * diff)
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
    K, P, W and the ``<K, Z>`` are formed :data:`COST_LEVEL_CHUNK` levels at
    a time by the per-level products, stacked; only ``Z'`` goes level by level.
    """
    n, dt = inst.n, inst.tree.dt
    u = np.asarray(value, dtype=float).reshape(inst.k)
    z = np.append(inst.x0, 1.0)
    Z = np.outer(z, z)
    total = 0.0
    for lo in range(0, inst.depth, COST_LEVEL_CHUNK):
        level = slice(lo, lo + COST_LEVEL_CHUNK)
        K, P, W, Zs = np.zeros((4, len(inst.Q[level]), n + 1, n + 1))
        uS = u @ inst.S[level]
        K[:, :n, :n], K[:, :n, n], K[:, n, :n] = inst.Q[level], uS, uS
        K[:, n, n] = ((u @ inst.R[level])[:, None] @ u)[:, 0]
        P[:, :n, :n], P[:, n, n] = np.eye(n) + dt * inst.A[level], 1.0
        P[:, :n, n] = dt * (inst.B[level] @ u + inst.b[level])
        W[:, :n, :n], W[:, :n, n] = inst.C[level], inst.D[level] @ u + inst.sigma[level]
        for j, (Pm, Wm) in enumerate(zip(P, W)):
            Zs[j] = Z
            Z = Pm @ Z @ Pm.T + dt * (Wm @ Z @ Wm.T)
        for running in (K * Zs).sum(axis=(1, 2)).tolist():
            total += dt * running
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
