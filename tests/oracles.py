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
the backward recursion of ``lqshift.oracle``.  So does the lambda_max search: plain
bisection on the Riccati test, the reference for the secant search of
``lqshift.spectral``.  And the binary vertices: the corners listed by
``itertools.product`` and kept by ``contains_binary``, the reference for the
bit-built corners of ``enumerate_binary_vertices``; beside them, one point's
membership in the binary or relaxed set as FORMAT.md defines it, in Python
floats.  And the relaxed vertices: every k-subset of the bound and cut
equations solved on its own, the reference for the enumeration of
``relaxed_vertices`` by fractional support.  And the second-order spike test: the per-vertex
deficit ``delta . (g - 1/2 H delta)`` over a ``(nodes, V, k)`` array, the
reference for the vertex-pair tables of ``lqshift.optimality``.  And the
two-pass relaxed sampler, which tests membership over the whole draw once
for the acceptance rate and once more for the rejected nodes, with each
halfspace product taken over the stacked points: the reference for the
one-pass ``sample_relaxed_levels``.  And the instance construction: one
value stacked over the levels by ``np.tile``, the symmetric coefficients
checked and symmetrized through the skew part's largest entry, and the
constant control's cost summed level by level, the references for the
repeated stacks, the exact symmetry test and the batched blocks of
``lqshift.model``.  And the control table reader as it was before its
byte-level path, every file parsed by ``np.loadtxt``: the reference for
the values and messages of ``lqshift.io.load_control_csv``.  Two fixtures
close the list: the seeded ``random_instance`` family most tests draw
from, and ``cost_bound``, the scale against which they measure rounding in
a cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import csv
import itertools
import math

import numpy as np

from lqshift.errors import (BudgetExceededError, ControlFileError, DegenerateDomainError,
                            LqshiftError)
from lqshift.model import (
    COEFFICIENTS,
    MEMBERSHIP_TOL,
    SYMMETRY_TOL,
    ControlDomain,
    ControlProcess,
    LQInstance,
    _cost_from_levels,
    _forward_levels,
    cost_many,
)
from lqshift.oracle import DEFAULT_BUDGET, OracleResult
from lqshift.operators import _apply_N_levels, solve_linear_bsde
from lqshift.optimality import CheckResult, Trajectory, _worst, solve_second_adjoint
from lqshift.spectral import RICCATI_REL_WIDTH, _riccati_pd, _step_blocks
from lqshift.tree import ScenarioTree, _weighted_dot_levels, check_node_memory


# controls costed per batch by the plain enumeration
ENUM_CHUNK = 8192


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


def cost_bound(inst: LQInstance) -> float:
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


def leaf_dot(tree: ScenarioTree, a: np.ndarray, b: np.ndarray) -> float:
    """Expectation ``E[ <a, b> ]`` of two ``(2**N, dim)`` leaf arrays."""
    return float(tree.path_prob(tree.depth) * np.sum(a * b))


def _control_levels(inst: LQInstance, u):
    """Accept a ControlProcess or AdaptedProcess, return its level list."""
    if u.tree != inst.tree or u.dim != inst.k:
        raise ValueError("control does not match the instance tree or control dimension")
    return u.levels


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


# -- instance construction ---------------------------------------------------


def symmetrize_reference(mats: np.ndarray, name: str) -> np.ndarray:
    """Symmetrize ``(..., d, d)`` matrices through the skew part: its largest
    entry is the defect; a zero defect returns ``mats``, one above
    ``SYMMETRY_TOL`` times ``max(1, |mats|)`` is refused, any other adds the
    halves of m and m^T."""
    with np.errstate(over="ignore"):
        skew = mats - np.swapaxes(mats, -1, -2)
    defect = float(np.max(np.abs(skew)))
    if defect == 0.0:
        return mats
    scale = max(1.0, float(mats.max()), -float(mats.min()))
    if defect > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    half = 0.5 * mats
    return half + np.swapaxes(half, -1, -2)


def coefficient_stacks_reference(n: int, k: int, depth: int, values: dict) -> dict:
    """The stacks an instance holds for ``values``, name -> one value or, for
    a per-level coefficient, one value per level: a single value of a
    per-level coefficient tiled over the levels by ``np.tile``, then ``Q``,
    ``R`` and ``G`` through :func:`symmetrize_reference`."""
    stacks = {}
    for name, (dims, per_level) in COEFFICIENTS.items():
        shape = tuple({"n": n, "k": k}[d] for d in dims)
        arr = np.asarray(values[name], dtype=float)
        if per_level and arr.shape == shape:
            arr = np.tile(arr, (depth,) + (1,) * len(shape))
        if name in ("Q", "R", "G"):
            arr = symmetrize_reference(arr, name)
        stacks[name] = np.ascontiguousarray(arr)
    return stacks


def cost_constant_reference(inst: LQInstance, value) -> float:
    """The constant control's cost from the second moment of ``(x, 1)``, with
    K, P and W filled in and ``<K, Z>`` summed one level at a time."""
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
                          tie_count=tie_count)
    return result, max_penalty


# -- binary vertices and membership -------------------------------------------


def enumerate_binary_vertices_reference(domain: ControlDomain) -> np.ndarray:
    """The points of ``{0,1}^k`` in ``itertools.product`` order, kept by
    ``contains_binary``."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=domain.k)))
    return corners[domain.contains_binary(corners)]


def member_reference(domain: ControlDomain, point, kind: str) -> bool:
    """One point's membership as FORMAT.md defines it, in Python floats.

    Binary: each coordinate lies within ``MEMBERSHIP_TOL`` of 0 or 1, and
    the rounded corner meets each halfspace within the tolerance.  Relaxed:
    each coordinate lies in ``[-tol, 1 + tol]``, and each halfspace holds
    within the tolerance at the point."""
    tol = MEMBERSHIP_TOL
    point = [float(x) for x in point]
    if kind == "binary":
        if not all(abs(x) <= tol or abs(x - 1.0) <= tol for x in point):
            return False
        point = [float(round(x)) for x in point]
    elif not all(-tol <= x <= 1.0 + tol for x in point):
        return False
    return all(sum(float(a) * x for a, x in zip(g, point)) <= h + tol
               for g, h in domain.halfspaces)


# -- relaxed vertices --------------------------------------------------------


def relaxed_vertices_reference(domain: ControlDomain) -> np.ndarray:
    """Vertices of the relaxed set, one candidate system at a time: every
    ``k``-subset of the bound and halfspace equations in
    ``itertools.combinations`` order, skipped where the determinant is below
    1e-12, solved, kept when it lies in the relaxed set and is not within
    1e-9 of a vertex found earlier; sorted.  Without halfspaces this
    enumerates the box corners."""
    k = domain.k
    rows = np.concatenate([np.repeat(np.eye(k), 2, axis=0),
                           np.reshape([g for g, _ in domain.halfspaces], (-1, k))])
    rhs = np.array([0.0, 1.0] * k + [h for _, h in domain.halfspaces])
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


# -- relaxed sampling --------------------------------------------------------


def _relaxed_member_reference(domain: ControlDomain, pts: np.ndarray) -> np.ndarray:
    """Relaxed membership at tolerance 0 over ``(..., k)`` points."""
    ok = np.all((pts >= 0.0) & (pts <= 1.0), axis=-1)
    for g, h in domain.halfspaces:
        ok &= pts @ g <= h
    return ok


def sample_relaxed_reference(domain: ControlDomain, tree: ScenarioTree, count: int,
                             rng: np.random.Generator):
    """Box proposals rejection-filtered node by node, testing the first
    draw twice: once for the acceptance rate, once for the nodes to redraw."""
    nodes = tree.num_nodes(tree.depth) - 1
    draw = rng.uniform(size=(count, nodes, domain.k))
    if domain.halfspaces:
        accepted_first = int(np.sum(_relaxed_member_reference(domain, draw)))
        rate = accepted_first / float(count * nodes)
        if rate < 1e-3:
            raise DegenerateDomainError(
                f"relaxed rejection sampling accepts only {rate:.2e} of the unit box"
            )
        bad = ~_relaxed_member_reference(domain, draw)
        while np.any(bad):
            idx = np.nonzero(bad)
            draw[idx] = rng.uniform(size=(len(idx[0]), domain.k))
            bad[idx] = ~_relaxed_member_reference(domain, draw[idx])
    offsets = np.cumsum([0] + [tree.num_nodes(m) for m in range(tree.depth)])
    return [draw[:, offsets[m]:offsets[m + 1], :] for m in range(tree.depth)]


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


# -- the control table reader before its byte-level path ----------------------


def range_error_reference(m: int, j: int, depth: int) -> str | None:
    if not 0 <= m < depth:
        return f"level {m} outside 0..{depth - 1}"
    if not 0 <= j < 1 << m:
        return f"index {j} outside 0..{(1 << m) - 1}"
    return None


def unparsed_row_error_reference(row: str, width: int, depth: int) -> str:
    """Why one row the bulk parser refused is bad, in the row-by-row terms."""
    fields = next(csv.reader([row]), [])
    if len(fields) != width:
        return f"expected {width} fields"
    try:
        m, j = int(fields[0]), int(fields[1])
        for value in fields[2:]:
            float(value)
    except ValueError:
        return "non-numeric field"
    # an integer too wide for int64 is out of range; other literals only
    # Python reads (``1_0``, non-ASCII digits) stay non-numeric
    return range_error_reference(m, j, depth) or "non-numeric field"


def validate_rows_reference(table, depth: int):
    """Rows per node, and the first row breaking a per-row rule as
    ``(row, message)`` or None; the rules apply in the order level range,
    index range, node given twice, non-finite value."""
    level, index = table["level"], table["index"]
    level_ok = (level >= 0) & (level < depth)
    start = np.left_shift(1, np.where(level_ok, level, 0))
    placed = level_ok & (index >= 0) & (index < start)
    node = np.where(placed, start - 1 + index, -1)
    counts = np.bincount(node[placed], minlength=(1 << depth) - 1)
    bad = ~placed | ~np.all(np.isfinite(table["u"]), axis=1)
    again = np.zeros_like(bad)  # rows naming a node an earlier row named
    if counts.max(initial=0) > 1:
        _, first = np.unique(node, return_index=True)
        again[placed] = True
        again[first] = False
        bad |= again
    if not bad.any():
        return counts, None
    r = int(np.argmax(bad))
    m, j = int(level[r]), int(index[r])
    message = range_error_reference(m, j, depth) or (
        f"node ({m}, {j}) given twice" if again[r] else "non-finite value")
    return counts, (r, message)


def canonical_values_reference(table, depth: int):
    """The values of a table whose rows are every node once, in node order
    (level by level, index ascending) and finite, as one contiguous
    ``(nodes, k)`` array; None for any other table."""
    if len(table) != (1 << depth) - 1:
        return None
    first = 1 << np.arange(depth)  # each level's first node number, plus one
    level = np.repeat(np.arange(depth), first)
    if not np.array_equal(table["level"], level):
        return None
    if not np.array_equal(table["index"], np.arange(1, len(table) + 1) - first[level]):
        return None
    values = np.ascontiguousarray(table["u"])
    return values if np.isfinite(values).all() else None


def load_control_csv_reference(path, domain: ControlDomain, tree: ScenarioTree,
                     kind: str = "binary") -> ControlProcess:
    """``lqshift.io.load_control_csv`` before its byte-level path: every
    file read as text and parsed by ``np.loadtxt``.  The reference for the
    byte path's values, messages and their order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        raise ControlFileError(f"file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ControlFileError(f"cannot read {path}: {exc}")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ControlFileError("empty control file")
    header = [h.strip() for h in next(csv.reader(lines[:1]), [])]
    expected = ["level", "index"] + [f"u{i + 1}" for i in range(domain.k)]
    if header != expected:
        raise ControlFileError(
            f"header {header} does not match expected {expected}")
    # k values and one row count per node, sized from the depth
    check_node_memory(tree.num_nodes(tree.depth) - 1, domain.k + 1)
    body = lines[1:]
    rows = list(filter(None, body))
    dtype = np.dtype([("level", np.int64), ("index", np.int64),
                      ("u", np.float64, (domain.k,))])

    def parse(chunk):
        if not chunk:
            return np.zeros(0, dtype=dtype)
        return np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)

    def fail(r, message):
        line = int(np.flatnonzero(list(map(bool, body)))[r]) + 2
        raise ControlFileError(f"line {line}: {message}")

    try:
        table = parse(rows)
    except ValueError:
        # bisect for the first row the parser refuses; earlier rows go first
        good, bad = 0, len(rows)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                parse(rows[:mid])
                good = mid
            except ValueError:
                bad = mid
        _, error = validate_rows_reference(parse(rows[:good]), tree.depth)
        if error is None:
            error = good, unparsed_row_error_reference(rows[good], len(expected), tree.depth)
        fail(*error)
    values = canonical_values_reference(table, tree.depth)
    if values is None:  # rows out of node order, or a row to refuse
        counts, error = validate_rows_reference(table, tree.depth)
        if error:
            fail(*error)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            node = int(missing[0]) + 1
            m = node.bit_length() - 1
            raise ControlFileError(f"node ({m}, {node - (1 << m)}) is missing")
        values = np.empty((counts.size, domain.k))
        start = np.left_shift(1, table["level"])
        values[start - 1 + table["index"]] = table["u"]
    levels = [values[(1 << m) - 1:(1 << (m + 1)) - 1] for m in range(tree.depth)]
    try:
        return ControlProcess.from_levels(domain, tree, levels, kind)
    except ValueError as exc:
        raise ControlFileError(str(exc))
