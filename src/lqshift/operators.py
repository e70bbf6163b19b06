"""Operator form of the control-to-state map and the cost Hessian.

The Euler scheme is affine in the initial state, the control, and the
source terms, so the state splits as

    X = Gamma x0 + L u + f          (running levels)
    X_N = Gammahat x0 + Lhat u + fhat   (leaves)

with L, Lhat linear in u.  The adjoints L*, Lhat* are realized by a single
backward pass (a linear backward equation on the tree), which makes the
self-adjoint operator

    N = R + L* Q L + S L + L* S^T + Lhat* G Lhat

applicable in one forward plus one backward sweep.  The same sweeps, run on
a whole batch of controls at once, assemble an explicit matrix for N in a
weighted node basis when the tree is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LQInstance, StatePath, _forward_levels, as_process
from .tree import (
    RUNNING,
    TERMINAL,
    AdaptedProcess,
    ScenarioTree,
    inner_product_running,
    inner_product_terminal,
    martingale_representation,
)

DENSE_DIMENSION_CAP = 4096


def _control_levels(inst: LQInstance, u):
    """Accept a ControlProcess or running AdaptedProcess, return its level list."""
    proc = as_process(u)
    if not isinstance(proc, AdaptedProcess) or proc.kind != RUNNING:
        raise TypeError("expected a running control process")
    if proc.tree != inst.tree or proc.dim != inst.k:
        raise ValueError("control does not match the instance tree or control dimension")
    return proc.levels


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
    """The three affine pieces of the state, each at running and terminal times.

    ``from_initial + from_control + source`` reproduces the full state
    exactly (the scheme is affine, so the split is not approximate).
    """

    from_initial: AdaptedProcess
    from_initial_terminal: AdaptedProcess
    from_control: AdaptedProcess
    from_control_terminal: AdaptedProcess
    source: AdaptedProcess
    source_terminal: AdaptedProcess

    def state(self) -> StatePath:
        return StatePath(
            running=self.from_initial + self.from_control + self.source,
            terminal=self.from_initial_terminal + self.from_control_terminal
            + self.source_terminal,
        )


def decompose_state(inst: LQInstance, u) -> StateDecomposition:
    u_levels = _control_levels(inst, u)
    tree = inst.tree
    zero0 = np.zeros(inst.n)
    hom_run, hom_term = _forward_levels(inst, None, inst.x0, inhomogeneous=False)
    ctl_run, ctl_term = _forward_levels(inst, u_levels, zero0, inhomogeneous=False)
    src_run, src_term = _forward_levels(inst, None, zero0, inhomogeneous=True)
    return StateDecomposition(
        from_initial=AdaptedProcess.running(tree, hom_run),
        from_initial_terminal=AdaptedProcess.terminal(tree, hom_term),
        from_control=AdaptedProcess.running(tree, ctl_run),
        from_control_terminal=AdaptedProcess.terminal(tree, ctl_term),
        source=AdaptedProcess.running(tree, src_run),
        source_terminal=AdaptedProcess.terminal(tree, src_term),
    )


# -- backward equation --------------------------------------------------------


@dataclass(frozen=True)
class BsdeSolution:
    """Solution of the linear backward equation

        p_N = eta,
        p_m = E[p_{m+1} | F_m] + (A_m^T E[p_{m+1} | F_m] + C_m^T q_m + xi_m) dt,

    where ``(E[p_{m+1}|F_m], q_m)`` is the martingale representation of the
    next level.  ``p_mean`` stores that conditional mean; the adjoint
    identities below pair it, not ``p`` itself, with the controls.
    """

    p: AdaptedProcess
    p_mean: AdaptedProcess
    q: AdaptedProcess
    p_terminal: AdaptedProcess

    @property
    def initial(self) -> np.ndarray:
        return self.p.level(0)[0].copy()


def _bsde_levels(inst: LQInstance, xi_levels, eta):
    """Backward sweep on raw level arrays; supports leading batch axes."""
    tree = inst.tree
    dt = tree.dt
    p = np.asarray(eta, dtype=float)
    depth = tree.depth
    p_levels = [None] * depth
    pbar_levels = [None] * depth
    q_levels = [None] * depth
    for m in reversed(range(depth)):
        pbar, q = martingale_representation(p, dt)
        drift = pbar @ inst.A[m] + q @ inst.C[m]
        if xi_levels is not None:
            drift = drift + xi_levels[m]
        p = pbar + dt * drift
        p_levels[m] = p
        pbar_levels[m] = pbar
        q_levels[m] = q
    return p_levels, pbar_levels, q_levels


def solve_linear_bsde(inst: LQInstance, xi=None, eta=None) -> BsdeSolution:
    """Solve the backward equation with running driver ``xi`` and target ``eta``.

    Either argument may be ``None`` for zero.  Both are state-dimension
    processes on the instance tree.
    """
    tree = inst.tree
    if eta is None:
        eta_arr = np.zeros((tree.num_nodes(tree.depth), inst.n))
    else:
        if eta.kind != TERMINAL or eta.tree != tree or eta.dim != inst.n:
            raise ValueError("eta must be a terminal process of state dimension")
        eta_arr = eta.leaves
    xi_levels = None
    if xi is not None:
        if xi.kind != RUNNING or xi.tree != tree or xi.dim != inst.n:
            raise ValueError("xi must be a running process of state dimension")
        xi_levels = xi.levels
    p_levels, pbar_levels, q_levels = _bsde_levels(inst, xi_levels, eta_arr)
    return BsdeSolution(
        p=AdaptedProcess.running(tree, p_levels),
        p_mean=AdaptedProcess.running(tree, pbar_levels),
        q=AdaptedProcess.running(tree, q_levels),
        p_terminal=AdaptedProcess.terminal(tree, eta_arr),
    )


@dataclass(frozen=True)
class AdjointImage:
    """Image of ``(xi, eta)`` under the adjoints of the state maps.

    ``control`` is ``L* xi + Lhat* eta`` (a control-dimension running
    process) and ``initial`` is ``Gamma* xi + Gammahat* eta`` (a state
    vector), so that exactly, in the tree inner products,

        <L u, xi> + <Lhat u, eta> = <u, control>,
        <Gamma x, xi> + <Gammahat x, eta> = <x, initial>.
    """

    control: AdaptedProcess
    initial: np.ndarray
    solution: BsdeSolution


def adjoint_apply(inst: LQInstance, xi=None, eta=None) -> AdjointImage:
    sol = solve_linear_bsde(inst, xi, eta)
    tree = inst.tree
    out = [
        sol.p_mean.level(m) @ inst.B[m] + sol.q.level(m) @ inst.D[m]
        for m in range(tree.depth)
    ]
    return AdjointImage(
        control=AdaptedProcess.running(tree, out),
        initial=sol.initial,
        solution=sol,
    )


# -- the operator N -----------------------------------------------------------


def _apply_N_levels(inst: LQInstance, u_levels):
    """N applied to raw control level arrays; supports leading batch axes."""
    x_levels, x_term = _forward_levels(inst, u_levels, np.zeros(inst.n),
                                       inhomogeneous=False)
    xi = [
        x_levels[m] @ inst.Q[m] + u_levels[m] @ inst.S[m]
        for m in range(inst.depth)
    ]
    eta = x_term @ inst.G
    _, pbar_levels, q_levels = _bsde_levels(inst, xi, eta)
    return [
        u_levels[m] @ inst.R[m]
        + x_levels[m] @ inst.S[m].T
        + pbar_levels[m] @ inst.B[m]
        + q_levels[m] @ inst.D[m]
        for m in range(inst.depth)
    ]


def apply_N(inst: LQInstance, u) -> AdaptedProcess:
    """Apply ``N = R + L* Q L + S L + L* S^T + Lhat* G Lhat`` to a control."""
    u_levels = _control_levels(inst, u)
    return AdaptedProcess.running(inst.tree, _apply_N_levels(inst, u_levels))


@dataclass(frozen=True)
class QuadraticCost:
    """The cost as an explicit quadratic in the control:

        J(u) = 1/2 <N u, u> + <linear, u> + 1/2 constant,

    with ``linear`` and ``constant`` collecting the initial-state and source
    contributions.  Agrees with direct simulation to rounding.
    """

    instance: LQInstance
    linear: AdaptedProcess
    constant: float

    def value(self, u) -> float:
        u_levels = _control_levels(self.instance, u)
        proc = AdaptedProcess.running(self.instance.tree, u_levels)
        nu = apply_N(self.instance, proc)
        return float(
            0.5 * inner_product_running(nu, proc)
            + inner_product_running(self.linear, proc)
            + 0.5 * self.constant
        )


def quadratic_functional(inst: LQInstance) -> QuadraticCost:
    tree = inst.tree
    z_run_levels, z_term = _forward_levels(inst, None, inst.x0, inhomogeneous=True)
    z = AdaptedProcess.running(tree, z_run_levels)
    qz = AdaptedProcess.running(tree, [z_run_levels[m] @ inst.Q[m]
                                       for m in range(tree.depth)])
    gz = AdaptedProcess.terminal(tree, z_term @ inst.G)
    zhat = AdaptedProcess.terminal(tree, z_term)
    image = adjoint_apply(inst, xi=qz, eta=gz)
    sz = AdaptedProcess.running(tree, [z_run_levels[m] @ inst.S[m].T
                                       for m in range(tree.depth)])
    linear = image.control + sz
    constant = inner_product_running(qz, z) + inner_product_terminal(gz, zhat)
    return QuadraticCost(instance=inst, linear=linear, constant=float(constant))


# -- dense representation ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Matrix of N in the weighted node basis.

    Basis vectors are node-component indicators scaled by
    ``1/sqrt(2^{-m} dt)`` so that the running inner product becomes the
    plain Euclidean dot of coefficient vectors; N is then represented by a
    symmetric matrix whose eigenvalues are the operator spectrum.
    """

    tree: ScenarioTree
    k: int
    matrix: np.ndarray
    symmetry_defect: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def _weights(self):
        dt = self.tree.dt
        return [np.sqrt(self.tree.path_prob(m) * dt) for m in range(self.tree.depth)]

    def flatten(self, u) -> np.ndarray:
        proc = as_process(u)
        w = self._weights()
        return np.concatenate([
            (proc.level(m) * w[m]).reshape(-1) for m in range(self.tree.depth)
        ])

    def unflatten(self, vec: np.ndarray) -> AdaptedProcess:
        w = self._weights()
        levels = []
        pos = 0
        for m in range(self.tree.depth):
            count = self.tree.num_nodes(m) * self.k
            levels.append(vec[pos:pos + count].reshape(self.tree.num_nodes(m), self.k)
                          / w[m])
            pos += count
        return AdaptedProcess.running(self.tree, levels)


def dense_dimension(inst: LQInstance) -> int:
    return inst.k * (inst.tree.num_nodes(inst.depth) - 1)


def assemble_N_dense(inst: LQInstance, cap: int = DENSE_DIMENSION_CAP) -> DenseOperator:
    tree = inst.tree
    k = inst.k
    total = dense_dimension(inst)
    if total > cap:
        raise ValueError(
            f"dense representation needs dimension {total}, above the cap {cap}"
        )
    dt = tree.dt
    u_levels = []
    offset = 0
    for m in range(tree.depth):
        nodes = tree.num_nodes(m)
        scale = 1.0 / np.sqrt(tree.path_prob(m) * dt)
        arr = np.zeros((total, nodes, k))
        idx = offset + np.arange(nodes * k)
        arr[idx, np.repeat(np.arange(nodes), k), np.tile(np.arange(k), nodes)] = scale
        u_levels.append(arr)
        offset += nodes * k
    image = _apply_N_levels(inst, u_levels)
    columns_by_row = np.concatenate([
        image[m].reshape(total, -1) * np.sqrt(tree.path_prob(m) * dt)
        for m in range(tree.depth)
    ], axis=1)
    mat = columns_by_row.T
    defect = float(np.max(np.abs(mat - mat.T))) if total else 0.0
    sym = 0.5 * (mat + mat.T)
    return DenseOperator(tree=tree, k=k, matrix=sym, symmetry_defect=defect)
