"""Top eigenvalue of the cost Hessian and the concavity-inducing shift.

The quadratic part of the cost is ``1/2 <N u, u>`` with N self-adjoint but
typically indefinite.  Choosing ``mu = -lambda_max(N)`` makes the shifted
quadratic ``1/2 <(N + mu I) u, u>`` concave, and since a binary control
satisfies ``u_i^2 = u_i`` node-wise, the shifted cost

    J_mu(u) = J(u) + mu/2 <u, u> - mu/2 <1, u>

agrees with J exactly on binary controls.

lambda_max comes from a definiteness test: ``sI - N`` is positive definite
exactly when its block LDL^T, taken in backward tree order, has positive
pivots.  The coefficients depend on the level only, so every node of a
level shares one k x k pivot, produced by a backward Riccati recursion
(the discrete indefinite-LQ condition of Ait Rami, Chen and Zhou).  One
test costs O(depth (n^3 + k^3)) and never builds the 2^N-node tree.
Scalar instances (n = k = 1) run the same chain on Python floats, in the
same order of operations, so their results are bit-identical to the
matrix chain's without numpy's per-call overhead on 1 x 1 arrays.

Each test also returns a margin, the smallest pivot eigenvalue where it
fails (over all levels where it passes), which near lambda_max is
continuous in s and changes sign there.  The search brackets lambda_max
by doubling, then closes in on the margin's root by regula falsi with the
Illinois rule, bisecting where the margins cannot be trusted (Brent's
safeguards in spirit); it takes about 10 tests where bisection to the
same width takes 46.  The result is the upper end of the final bracket,
a shift where the test passed, within ``RICCATI_REL_WIDTH`` (relative)
of one where it failed, so ``mu = -hi`` is certified, not estimated.
The dense eigendecomposition (``method="dense"``) and ``_power_iteration``
remain only as test cross-checks; no command of the CLI reaches them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, LqshiftError
from .model import LQInstance
from .operators import _apply_N_levels, assemble_N_dense
from .tree import _weighted_dot_levels, check_node_memory

POWER_PROBES = 16
RICCATI_REL_WIDTH = 1e-13
CONCAVITY_TOL = 1e-8


@dataclass(frozen=True)
class SpectralReport:
    lambda_max: float
    mu: float
    iterations: int = 0
    residual: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


# -- Riccati definiteness test ---------------------------------------------------


def _step_blocks(inst: LQInstance):
    """The blocks of one backward step, as a function of the level.

    Returns ``blocks(m, p)`` giving ``(uu, ux, xx)`` from ``W = M^T p M``,
    ``M = [F C B D]`` and ``F = I + dt A_m``, for a next-level matrix ``p``:

        uu = D^T p D + dt B^T p B
        ux = B^T p F + D^T p C
        xx = F^T p F + dt C^T p C

    The Riccati test, the second adjoint (``xx - dt Q_m``) and the switch
    curvature of the spike test (``uu``) all read their products here.
    """
    n, k, dt = inst.n, inst.k, inst.tree.dt
    stack = np.concatenate([np.eye(n) + dt * inst.A, inst.C, inst.B, inst.D], axis=2)
    f, c = slice(0, n), slice(n, 2 * n)
    b, d = slice(2 * n, 2 * n + k), slice(2 * n + k, None)

    def blocks(m: int, p: np.ndarray):
        w = stack[m].T @ (p @ stack[m])
        return w[d, d] + dt * w[b, b], w[b, f] + w[d, c], w[f, f] + dt * w[c, c]

    return blocks


def _riccati_pd(inst: LQInstance, s: float):
    """Whether ``sI - N`` is positive definite in the tree inner product.

    Returns ``(ok, level, margin)``.  The recursion runs backward from
    ``P = -G`` on the blocks of ``_step_blocks``:

        Huu = dt (sI - R + uu)
        Hux = dt (-S + ux)
        Hxx = -dt Q + xx
        P  <- Hxx - Hux^T Huu^{-1} Hux

    and fails when a Cholesky factorisation of Huu fails or P stops being
    finite.  ``margin`` is the smallest eigenvalue of the pivot ``Huu / dt``
    at the level where the test fails, or over all levels when it passes,
    and -inf once P is not finite; ``level`` is where the test fails, or
    where the smallest pivot sits when it passes.  Near lambda_max the
    margin is continuous in ``s`` and changes sign there.  Scalar instances
    run :func:`_riccati_pd_scalar`, which gives the same bits.
    """
    if inst.n == inst.k == 1:
        return _riccati_pd_scalar(inst, s)
    return _riccati_pd_matrix(inst, s)


def _scalar_chain_inputs(inst: LQInstance):
    """The scalar chain's per-level coefficients, as lists of Python
    floats: ``F = 1 + dt A``, ``C``, ``B``, ``D``, ``R``, ``-dt S`` and
    ``-dt Q``.  Built once per instance."""
    def build():
        dt = inst.tree.dt
        A, B, C, D, Q, S, R = (getattr(inst, name)[:, 0, 0].tolist() for name in "ABCDQSR")
        return ([1.0 + dt * a for a in A], C, B, D, R,
                [-dt * x for x in S], [-dt * x for x in Q])

    return inst._memo("riccati_scalar", build)


def _riccati_pd_scalar(inst: LQInstance, s: float):
    """:func:`_riccati_pd_matrix` for ``n == k == 1`` on Python floats, with
    its operations in its order.  Cholesky is ``sqrt(huu)``, which fails on
    ``huu <= 0`` and, like numpy's, passes NaN on to P."""
    dt = inst.tree.dt
    F, C, B, D, R, ux0, xx0 = _scalar_chain_inputs(inst)
    p = -float(inst.G[0, 0])
    margin, at = math.inf, inst.depth - 1
    for m in reversed(range(inst.depth)):
        f, c, b, d = F[m], C[m], B[m], D[m]
        uu = d * (p * d) + dt * (b * (p * b))
        ux = b * (p * f) + d * (p * c)
        xx = f * (p * f) + dt * (c * (p * c))
        huu = dt * (s - R[m]) + dt * uu
        hux = ux0[m] + dt * ux
        hxx = xx0[m] + xx
        if huu <= 0.0:
            return False, m, huu / dt
        y = hux / math.sqrt(huu)
        p = hxx - y * y
        p = 0.5 * (p + p)  # the matrix chain's symmetrisation: inf where p + p overflows
        if not math.isfinite(p):
            return False, m, -math.inf
        if huu / dt < margin:  # ties keep the deepest level, as argmin does
            margin, at = huu / dt, m
    return True, at, margin


def _matrix_chain_inputs(inst: LQInstance):
    """The matrix chain's level-only inputs: the step blocks of
    :func:`_step_blocks`, ``-dt S`` and ``-dt Q``.  Built once per instance."""
    dt = inst.tree.dt
    return inst._memo("riccati_matrix", lambda: (_step_blocks(inst), -dt * inst.S, -dt * inst.Q))


# an overflowing chain fails the test below, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _riccati_pd_matrix(inst: LQInstance, s: float):
    """:func:`_riccati_pd` on k x k pivots, for instances of any shape."""
    dt = inst.tree.dt
    blocks, ux0, xx0 = _matrix_chain_inputs(inst)
    uu0 = dt * (s * np.eye(inst.k) - inst.R)
    p = -inst.G
    pivots = []
    for m in reversed(range(inst.depth)):
        uu, ux, xx = blocks(m, p)
        huu = uu0[m] + dt * uu
        hux = ux0[m] + dt * ux
        hxx = xx0[m] + xx
        pivots.append(huu / dt)
        try:
            chol = np.linalg.cholesky(huu)
        except np.linalg.LinAlgError:
            return False, m, float(np.linalg.eigvalsh(pivots[-1])[0])
        y = np.linalg.solve(chol, hux)
        p = hxx - y.T @ y
        p = 0.5 * (p + p.T)
        # numpy's Cholesky passes NaN and inf through silently; they end up in P
        if not np.isfinite(p).all():
            return False, m, -math.inf
    smallest = np.linalg.eigvalsh(np.stack(pivots))[:, 0]
    at = int(np.argmin(smallest))
    return True, inst.depth - 1 - at, float(smallest[at])


def _riccati_secant(inst: LQInstance):
    """Bracket lambda_max(N) by doubling, then close in on the margin's root.

    The steps are regula falsi on the margin of :func:`_riccati_pd`, with
    the Illinois rule halving the margin of an end kept twice in a row.  A
    step bisects instead when the failing end's margin is not finite, when
    the two ends' margins come from different levels (they are then values
    of different functions of ``s``), or when the bracket has not halved in
    two steps.  Every trial stays ``0.45 tol`` inside the bracket, so once a
    trial lands next to the root the following one closes the other end.
    Returns ``(hi, width, chains)``: ``hi`` is the smallest tested ``s`` at
    which the Riccati test passed, ``width`` the final bracket width and
    ``chains`` the number of tests run.
    """
    chains = 0

    def test(s):
        nonlocal chains
        if not math.isfinite(s):
            raise LqshiftError("the Riccati test gives no finite bracket for lambda_max")
        chains += 1
        ok, level, margin = _riccati_pd(inst, s)
        # a margin whose sign disagrees with the test is rounding at the root
        return ok, max(margin, 0.0) if ok else min(margin, 0.0), level

    # step down from s = 1 while the test passes, up while it fails
    s, step, ends = 1.0, 1.0, {}
    while len(ends) < 2:
        ok, f, level = test(s)
        ends[ok] = (s, f, level)
        s += -step if ok else step
        step *= 2.0
    (hi, f_hi, at_hi), (lo, f_lo, at_lo) = ends[True], ends[False]
    kept = None  # the end the last step kept
    widths = [math.inf, math.inf]  # bracket widths two steps and one step back
    while True:
        tol = RICCATI_REL_WIDTH * max(1.0, abs(hi))
        width = hi - lo
        if width <= tol:
            break
        if (-math.inf < f_lo < f_hi and at_lo == at_hi
                and width <= 0.5 * widths[0]):
            s = hi - f_hi * (width / (f_hi - f_lo))
        else:
            s = lo + 0.5 * width
        s = min(max(s, lo + 0.45 * tol), hi - 0.45 * tol)
        widths = [widths[1], width]
        ok, f, level = test(s)
        if ok:
            hi, f_hi, at_hi = s, f, level
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo, at_lo = s, f, level
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
    return hi, hi - lo, chains


# -- power iteration (cross-check) ------------------------------------------------


def _random_unit_levels(inst: LQInstance, rng) -> list:
    tree = inst.tree
    check_node_memory(tree.num_nodes(tree.depth) - 1, inst.k)
    levels = [rng.standard_normal((tree.num_nodes(m), inst.k))
              for m in range(tree.depth)]
    norm = math.sqrt(_weighted_dot_levels(tree, levels, levels))
    if norm == 0.0:
        levels = [np.ones((tree.num_nodes(m), inst.k)) for m in range(tree.depth)]
        norm = math.sqrt(_weighted_dot_levels(tree, levels, levels))
    return [lvl / norm for lvl in levels]


def _power_iteration(inst: LQInstance, tol: float, max_iter: int, seed: int):
    """Largest eigenvalue of N by power iteration on N + cI.

    The positive offset c is sized from operator-norm probes so that the
    spectrum of N + cI is positive and its top eigenvalue is
    lambda_max(N) + c.  Everything runs in the weighted (tree) inner
    product, on raw level arrays.  Returns ``(lambda_max, iterations,
    residual, c)``.
    """
    tree = inst.tree
    rng = np.random.default_rng(seed)

    def norm(levels):
        return math.sqrt(_weighted_dot_levels(tree, levels, levels))

    probe_norm = 0.0
    for _ in range(POWER_PROBES):
        v = _random_unit_levels(inst, rng)
        probe_norm = max(probe_norm, norm(_apply_N_levels(inst, v)))
    c = max(4.0 * probe_norm, 1e-12)

    v = _random_unit_levels(inst, rng)
    rho_prev = None
    for it in range(1, max_iter + 1):
        nv = _apply_N_levels(inst, v)
        w = [nv[m] + c * v[m] for m in range(tree.depth)]
        rho = float(_weighted_dot_levels(tree, w, v))
        residual = norm([w[m] - rho * v[m] for m in range(tree.depth)])
        scale = max(1.0, abs(rho))
        if rho_prev is not None and abs(rho - rho_prev) <= tol * scale \
                and residual <= 10.0 * tol * scale:
            if rho <= 0.01 * c:
                raise ConvergenceError(
                    "power iteration converged to a spurious eigenvalue "
                    f"(rho = {rho:.3e} against offset c = {c:.3e})",
                    residual=residual, iterations=it)
            return rho - c, it, residual, c
        rho_prev = rho
        w_norm = norm(w)
        if w_norm == 0.0:
            raise ConvergenceError(
                "power iterate vanished; the offset cannot separate the spectrum",
                residual=residual, iterations=it)
        v = [w[m] / w_norm for m in range(tree.depth)]
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        residual=residual, iterations=max_iter)


def lambda_max(inst: LQInstance, method: str = "riccati") -> SpectralReport:
    """Compute lambda_max(N) and the shift mu = -lambda_max.

    ``method`` is ``"riccati"`` (a safeguarded secant search on the Riccati
    test; ``iterations`` counts the tests and ``residual`` is the final
    bracket width) or ``"dense"`` (eigendecomposition of the assembled
    matrix, a test oracle).
    """
    if method == "riccati":
        top, width, chains = _riccati_secant(inst)
        return SpectralReport(lambda_max=top, mu=-top, iterations=chains, residual=width)
    if method == "dense":
        top = float(np.linalg.eigvalsh(assemble_N_dense(inst).matrix)[-1])
        return SpectralReport(lambda_max=top, mu=-top)
    raise ValueError(f"unknown method {method!r}")


# -- shifted cost --------------------------------------------------------------


def shifted_cost(inst: LQInstance, u, mu: float, base_cost: float) -> float:
    """``base_cost``, the cost of ``u``, plus ``mu/2`` times the weighted
    ``<u, u - 1>``."""
    levels = u.levels
    penalty = _weighted_dot_levels(inst.tree, levels, [lvl - 1.0 for lvl in levels])
    return float(base_cost + 0.5 * mu * penalty)


def shifted_cost_many(inst: LQInstance, u_levels, mu: float):
    from .model import cost_many

    # <u, u> - <1, u> as one weighted sum of u * (u - 1), which is exactly
    # 0.0 on 0/1 node values, so binary controls keep their cost bit for bit
    penalty = _weighted_dot_levels(inst.tree, u_levels, [lvl - 1.0 for lvl in u_levels])
    return cost_many(inst, u_levels) + 0.5 * mu * penalty


# -- concavity certificate ------------------------------------------------------


@dataclass(frozen=True)
class ConcavityCertificate:
    """Whether N + mu I is negative definite up to ``tol`` (:data:`CONCAVITY_TOL`).

    ``worst`` is the top eigenvalue of N + mu I.  ``pivot_min`` and
    ``pivot_level`` are the margin and level of the test chain at
    ``s = tol - mu`` (see :func:`_riccati_pd`): the smallest eigenvalue of
    the level pivots ``Huu / dt`` and where it occurs, or the pivot's
    smallest eigenvalue where the chain fails.
    """

    mu: float
    ok: bool
    worst: float
    tol: float
    pivot_min: float
    pivot_level: int

    def to_dict(self) -> dict:
        return asdict(self)


def certify_concavity(inst: LQInstance, mu: float, *, top: float) -> ConcavityCertificate:
    """Check that N + mu I is negative definite up to :data:`CONCAVITY_TOL`.

    The definiteness test runs on ``(CONCAVITY_TOL - mu) I - N``, so ``ok``
    is a certificate either way; ``worst`` is ``top + mu``, with ``top`` the
    lambda_max the caller already holds.
    """
    ok, level, margin = _riccati_pd(inst, CONCAVITY_TOL - mu)
    return ConcavityCertificate(mu=mu, ok=ok, worst=top + mu, tol=CONCAVITY_TOL,
                                pivot_min=margin, pivot_level=level)
