"""Binary scenario trees and tree-indexed adapted processes.

The driving noise on ``[0, T]`` is discretised by a non-recombining binary
tree of depth ``N``: level ``n`` carries ``2**n`` nodes, node ``(n, j)``
branches to ``(n+1, 2j)`` ("up") and ``(n+1, 2j+1)`` ("down") with
probability one half each, and the noise increment over the step is
``+sqrt(dt)`` on the up branch and ``-sqrt(dt)`` on the down branch.
Increments are therefore exactly zero mean with variance ``dt`` node by
node, path probabilities are exact dyadics ``2**-n``, and every expectation
is a finite weighted sum.  Identities that hold in exact arithmetic can be
tested here at machine precision instead of Monte-Carlo accuracy.

An :class:`AdaptedProcess` attaches one ``dim``-vector to every node of
the running levels ``0 .. N-1``; it is the validated, immutable container
for controls.  Computed processes (the state, the adjoints, gradients) are
plain lists of ``(2**n, dim)`` level arrays, plus a ``(2**N, dim)`` leaf
array where the process has a terminal value.  Adaptedness is structural:
a node holds a single value, so a value cannot depend on branches below
its node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Per-node arrays double with every level, so the guard bounds their bytes,
# not the depth: code that builds no such array runs at any depth.
NODE_BYTES_BOUND = 256 * 2 ** 20


@dataclass(frozen=True)
class ScenarioTree:
    """Non-recombining binary event tree over ``[0, horizon]``."""

    depth: int
    horizon: float

    @property
    def dt(self) -> float:
        return self.horizon / self.depth

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    def num_nodes(self, level: int) -> int:
        return 1 << level

    def path_prob(self, level: int) -> float:
        # exact dyadic, never an accumulated product
        return 2.0 ** (-level)


def check_node_memory(nodes: int, width: int) -> None:
    """Refuse an allocation of per-node values before it is made.

    ``nodes`` nodes with ``width`` float64 values each take
    ``8 * nodes * width`` bytes; a ``ValueError`` naming that size and
    :data:`NODE_BYTES_BOUND` is raised when it exceeds the bound.
    """
    needed = 8 * int(nodes) * int(width)
    if needed > NODE_BYTES_BOUND:
        raise ValueError(
            f"per-node values need {needed} bytes, above the memory bound of "
            f"{NODE_BYTES_BOUND} bytes"
        )


def build_tree(depth: int, horizon: float) -> ScenarioTree:
    """Build a binary scenario tree with ``2**depth`` leaves.

    ``depth`` must be a positive integer and ``horizon`` a positive finite
    float.  The tree itself stores no per-node data, so any depth is
    accepted; code that allocates per-node values calls
    :func:`check_node_memory` first.
    """
    if not isinstance(depth, (int, np.integer)) or isinstance(depth, bool):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    return ScenarioTree(depth=depth, horizon=horizon)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class AdaptedProcess:
    """A vector-valued process on the running levels ``0 .. N-1`` of a tree.

    Values are stored per level as read-only ``(2**n, dim)`` arrays in
    ``levels``; the class is a validated container with no arithmetic.
    """

    __slots__ = ("tree", "dim", "levels")

    def __init__(self, tree: ScenarioTree, levels):
        levels = list(levels)
        if len(levels) != tree.depth:
            raise ValueError(
                f"running process needs {tree.depth} level arrays, got {len(levels)}"
            )
        arrays = []
        dim = None
        for n, arr in enumerate(levels):
            nodes = tree.num_nodes(n)
            a = np.asarray(arr, dtype=float)
            if a.ndim == 1:
                a = a[:, None]
            if a.ndim != 2 or a.shape[0] != nodes:
                raise ValueError(
                    f"level array has shape {np.shape(arr)}, expected ({nodes}, dim)"
                )
            if dim is None:
                dim = a.shape[1]
            elif a.shape[1] != dim:
                raise ValueError("level arrays disagree on the value dimension")
            arrays.append(_freeze(a))
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "levels", tuple(arrays))

    def __setattr__(self, name, value):
        raise AttributeError("AdaptedProcess is immutable")

    @classmethod
    def constant(cls, tree: ScenarioTree, value) -> "AdaptedProcess":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        check_node_memory(tree.num_nodes(tree.depth), v.size)
        return cls(tree, [np.tile(v, (tree.num_nodes(n), 1)) for n in range(tree.depth)])


# -- level-wise probabilistic operations -----------------------------------


def martingale_representation(values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Split next-level values into conditional mean and increment slope.

    Returns ``(mean, slope)`` with ``values = mean + slope * dW`` exactly,
    where ``dW = +sqrt(dt)`` on even (up) children and ``-sqrt(dt)`` on odd
    (down) children.  ``mean``, the plain average of the two children, is
    the conditional expectation under equal branch probabilities.  The
    representation is unique because each parent has exactly two children.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-2] % 2:
        raise ValueError("level array must have an even number of nodes")
    up = v[..., 0::2, :]
    down = v[..., 1::2, :]
    mean = 0.5 * (up + down)
    slope = (up - down) / (2.0 * math.sqrt(dt))
    return mean, slope


# -- inner products ---------------------------------------------------------


def _node_dot(a, b):
    """Node-wise ``np.sum(a * b, axis=-1)``, adding in order from +0.0: bit
    for bit ``np.sum`` below 8 terms, where it adds in order too."""
    total = a[..., 0] * b[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def _weighted_dot_levels(tree: ScenarioTree, a_levels, b_levels):
    """Running inner product ``E[ sum_n <a_n, b_n> dt ]``; supports leading batch axes."""
    total = 0.0
    for n, (a, b) in enumerate(zip(a_levels, b_levels)):
        total = total + tree.path_prob(n) * np.sum(a * b, axis=(-2, -1))
    return total * tree.dt
