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

from .model import LQInstance, _forward_levels, as_process
from .tree import AdaptedProcess, ScenarioTree, martingale_representation

DENSE_DIMENSION_CAP = 4096


# -- backward equation --------------------------------------------------------


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
        p = pbar + dt * (pbar @ inst.A[m] + q @ inst.C[m] + xi_levels[m])
        p_levels[m] = p
        pbar_levels[m] = pbar
        q_levels[m] = q
    return p_levels, pbar_levels, q_levels


def solve_linear_bsde(inst: LQInstance, xi, eta):
    """Solve the linear backward equation

        p_N = eta,
        p_m = E[p_{m+1} | F_m] + (A_m^T E[p_{m+1} | F_m] + C_m^T q_m + xi_m) dt,

    where ``(E[p_{m+1}|F_m], q_m)`` is the martingale representation of the
    next level.  ``xi`` is a list of ``(2**m, n)`` level arrays and ``eta``
    a ``(2**N, n)`` leaf array.  Returns the level lists ``(p, p_mean, q)``.
    ``p_mean`` is the conditional mean; the adjoints of the state maps pair
    it, not ``p`` itself, with the controls.
    """
    tree = inst.tree
    shapes = [(tree.num_nodes(m), inst.n) for m in range(tree.depth + 1)]
    if np.shape(eta) != shapes[-1]:
        raise ValueError(f"eta must be a leaf array of shape {shapes[-1]}")
    if [np.shape(a) for a in xi] != shapes[:-1]:
        raise ValueError(f"xi must be one (2**m, {inst.n}) array per level m < {tree.depth}")
    return _bsde_levels(inst, xi, eta)


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
        return AdaptedProcess(self.tree, levels)


def dense_dimension(inst: LQInstance) -> int:
    return inst.k * (inst.tree.num_nodes(inst.depth) - 1)


def assemble_N_dense(inst: LQInstance) -> DenseOperator:
    tree = inst.tree
    k = inst.k
    total = dense_dimension(inst)
    if total > DENSE_DIMENSION_CAP:
        raise ValueError(
            f"dense representation needs dimension {total}, "
            f"above the cap {DENSE_DIMENSION_CAP}"
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
