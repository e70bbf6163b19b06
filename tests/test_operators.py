"""Structural identities of the state maps, the adjoints, and the operator N.

The tree inner products are finite sums, so the adjoint and reconstruction
identities hold to rounding, not to a discretization tolerance.  The
tolerances below are therefore far tighter than anything a scheme error could
meet by accident.
"""

import numpy as np
import pytest

import lqshift as lq
from lqshift.tree import _weighted_dot_levels

from oracles import (
    adjoint_apply,
    apply_N,
    decompose_state,
    fundamental_matrices,
    leaf_dot,
    quadratic_functional,
)


def random_xi_eta(inst, rng):
    tree = inst.tree
    xi = [rng.normal(size=(tree.num_nodes(m), inst.n)) for m in range(tree.depth)]
    eta = rng.normal(size=(tree.num_nodes(tree.depth), inst.n))
    return xi, eta


def random_control_process(inst, rng):
    tree = inst.tree
    return lq.AdaptedProcess(
        tree, [rng.normal(size=(tree.num_nodes(m), inst.k)) for m in range(tree.depth)])


def test_bsde_with_constant_running_source(bench2):
    tree = bench2.tree
    xi = lq.AdaptedProcess.constant(tree, [1.0])
    p, p_mean, q = lq.solve_linear_bsde(bench2, xi.levels, np.zeros((tree.num_nodes(2), 1)))
    # A = C = 0, so the value just integrates the source backward
    np.testing.assert_allclose(p[0], [[1.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p[1], [[0.5], [0.5]], rtol=0, atol=1e-15)
    assert not any(np.any(lvl) for lvl in q)
    # the last level averages the zero target
    assert np.max(np.abs(p_mean[-1])) == 0.0
    np.testing.assert_allclose(p[0][0], [1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p_mean[0], [[0.5]], rtol=0, atol=1e-15)


def test_bsde_rejects_mismatched_data(bench2):
    tree = bench2.tree
    xi = lq.AdaptedProcess.constant(tree, np.zeros(1)).levels
    eta = np.zeros((tree.num_nodes(2), 1))
    with pytest.raises(ValueError):
        lq.solve_linear_bsde(bench2, lq.AdaptedProcess.constant(tree, np.zeros(2)).levels, eta)
    with pytest.raises(ValueError):
        # a running level, not the leaves
        lq.solve_linear_bsde(bench2, xi, np.zeros((tree.num_nodes(1), 1)))


def test_adjoint_duality_is_exact():
    for seed in range(30):
        inst, _ = lq.random_instance(seed, depth_max=3)
        rng = np.random.default_rng(1000 + seed)
        xi, eta = random_xi_eta(inst, rng)
        image = adjoint_apply(inst, xi=xi, eta=eta)
        u = random_control_process(inst, rng)
        dec = decompose_state(inst, u)

        tree = inst.tree
        lhs = _weighted_dot_levels(tree, image.control, u.levels)
        rhs = _weighted_dot_levels(tree, xi, dec.from_control) \
            + leaf_dot(inst.tree, eta, dec.from_control_terminal)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * scale

        lhs0 = float(image.initial @ inst.x0)
        rhs0 = _weighted_dot_levels(tree, xi, dec.from_initial) \
            + leaf_dot(inst.tree, eta, dec.from_initial_terminal)
        assert abs(lhs0 - rhs0) <= 1e-10 * max(1.0, abs(lhs0))


def test_state_decomposition_reconstructs():
    for seed in (2, 7, 12):
        inst, _ = lq.random_instance(seed, depth_max=3, with_sources=True)
        rng = np.random.default_rng(seed)
        u = random_control_process(inst, rng)
        dec = decompose_state(inst, u)
        x_levels, x_term = lq.forward_state(inst, u)
        running, leaves = dec.state()
        for got, want in zip(running, x_levels, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(leaves - x_term)) <= 1e-12
        # and the control piece vanishes for the zero control
        zero = lq.AdaptedProcess.constant(inst.tree, np.zeros(inst.k))
        dec0 = decompose_state(inst, zero)
        assert not any(np.any(lvl) for lvl in dec0.from_control)
        assert np.max(np.abs(dec0.from_control_terminal)) == 0.0


def test_apply_N_benchmark_values(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    image = apply_N(bench2, ones)
    np.testing.assert_allclose(image[0], [[2.0]], rtol=0, atol=1e-14)
    np.testing.assert_allclose(image[1], [[1.0], [1.0]], rtol=0, atol=1e-14)
    # the cost has no affine part here, so <Nu, u> = 2 J(u)
    assert _weighted_dot_levels(bench2.tree, image, ones.levels) \
        == pytest.approx(1.5, abs=1e-14)


def test_quadratic_functional_matches_direct_cost():
    for seed in range(12):
        inst, domain = lq.random_instance(seed, depth_max=3)
        func = quadratic_functional(inst)
        rng = np.random.default_rng(40 + seed)
        for _ in range(3):
            u = random_control_process(inst, rng)
            direct = lq.cost_direct(inst, u)
            assert abs(func.value(u) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_dense_operator_benchmark(bench2):
    op = lq.assemble_N_dense(bench2)
    assert op.matrix.shape == (3, 3)
    np.testing.assert_allclose(op.matrix, np.diag([2.0, 1.0, 1.0]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(op.matrix), [1.0, 1.0, 2.0],
                               rtol=0, atol=1e-12)
    assert op.symmetry_defect <= 1e-9


def test_dense_matches_matrix_free():
    """In the weighted node basis, level m scaled by sqrt(2^-m dt) and
    flattened in level order, the dense matrix maps u to N u."""
    inst, _ = lq.random_instance(6, depth_max=3, with_sources=True)
    tree = inst.tree
    op = lq.assemble_N_dense(inst)
    weights = np.concatenate([np.full(tree.num_nodes(m) * inst.k,
                                      np.sqrt(tree.path_prob(m) * tree.dt))
                              for m in range(tree.depth)])
    rng = np.random.default_rng(17)
    for _ in range(4):
        u = random_control_process(inst, rng)
        dense_image = op.matrix @ (weights * np.concatenate(u.levels).ravel()) / weights
        free_image = np.concatenate(apply_N(inst, u)).ravel()
        assert np.max(np.abs(dense_image - free_image)) <= 1e-10


def test_dense_cap_is_enforced():
    inst = lq.example5_instance(13)
    with pytest.raises(ValueError, match="dimension 8191, above the cap 4096"):
        lq.assemble_N_dense(inst)


def test_fundamental_matrices_degenerate_example():
    # dt = 1 and C = 1 drives the down branch through zero
    inst = lq.LQInstance.constant(depth=1, n=1, k=1, C=1.0)
    fm = fundamental_matrices(inst)
    np.testing.assert_array_equal(fm.phi[0], np.ones((1, 1, 1)))
    np.testing.assert_array_equal(fm.phi[1].ravel(), [2.0, 0.0])
    np.testing.assert_array_equal(fm.phi_inv[1].ravel(), [1.0, 3.0])
    assert fm.degenerate
    assert fm.max_inverse_defect == 1.0


def test_fundamental_matrices_well_conditioned():
    inst = lq.LQInstance.constant(depth=6, n=2, k=1,
                                  A=[[0.1, 0.05], [0.0, 0.08]],
                                  C=[[0.12, 0.0], [0.03, 0.09]],
                                  B=[[1.0], [0.5]], D=[[0.4], [0.2]])
    fm = fundamental_matrices(inst)
    assert not fm.degenerate
    assert fm.max_inverse_defect < 2e-2


def variation_of_constants(inst, control, inverter):
    """Reconstruct the controlled state from the fundamental matrices.

    The accumulator integrates the inverse-transported inhomogeneity; with
    exact inverses the reconstruction telescopes and matches the forward
    sweep to rounding.
    """
    tree = inst.tree
    dt, s = tree.dt, tree.sqrt_dt
    fm = fundamental_matrices(inst)
    x_levels, x_term = lq.forward_state(inst, control)
    acc = np.asarray(inst.x0, dtype=float)[None, :]
    worst = 0.0
    for m in range(tree.depth):
        u = control.process.levels[m]
        drift = (u @ inst.B[m].T + inst.b[m]) * dt
        diff = u @ inst.D[m].T + inst.sigma[m]
        inv = inverter(fm, m + 1)
        up = acc + np.einsum("jab,jb->ja", inv[0::2], drift + s * diff)
        down = acc + np.einsum("jab,jb->ja", inv[1::2], drift - s * diff)
        nxt = np.empty((2 * acc.shape[0], inst.n))
        nxt[0::2] = up
        nxt[1::2] = down
        acc = nxt
        rebuilt = np.einsum("jab,jb->ja", fm.phi[m + 1], acc)
        target = x_levels[m + 1] if m + 1 < tree.depth else x_term
        worst = max(worst, float(np.max(np.abs(rebuilt - target))))
    return worst


def test_variation_of_constants_telescopes_exactly(free1):
    inst = lq.LQInstance.constant(depth=8, n=1, k=1, A=0.3, B=1.0, C=0.4,
                                  D=1.0, b=0.1, sigma=0.05, x0=[0.7])
    ones = lq.ControlProcess.constant(free1, inst.tree, np.ones(1), "binary")
    exact = variation_of_constants(
        inst, ones, lambda fm, lvl: np.linalg.inv(fm.phi[lvl]))
    assert exact <= 1e-10


def test_inverse_companion_defect_decays(free1):
    # the Euler companion is only first order, so its defect halves like
    # sqrt(dt); observed ratios per depth doubling are 1.45 to 1.50
    defects = []
    for depth in (2, 4, 8):
        inst = lq.LQInstance.constant(depth=depth, n=2, k=1,
                                      A=[[0.1, 0.05], [0.0, 0.08]],
                                      C=[[0.12, 0.0], [0.03, 0.09]],
                                      B=[[1.0], [0.5]], D=[[0.4], [0.2]],
                                      x0=[0.5, -0.2])
        defects.append(fundamental_matrices(inst).max_inverse_defect)
    assert defects[0] > defects[1] > defects[2]
    assert defects[0] / defects[1] >= 1.3
    assert defects[1] / defects[2] >= 1.3
