import numpy as np
import pytest

import lqshift as lq
from lqshift.tree import NODE_BYTES_BOUND, _node_dot, _weighted_dot_levels, check_node_memory

from oracles import leaf_dot


def test_tree_geometry():
    tree = lq.build_tree(3, 1.0)
    assert tree.depth == 3
    assert tree.horizon == 1.0
    assert tree.dt == pytest.approx(1.0 / 3.0, abs=0)
    assert tree.sqrt_dt == np.sqrt(tree.dt)
    assert [tree.num_nodes(n) for n in range(4)] == [1, 2, 4, 8]
    # dyadic weights are exact floats, not accumulated products
    assert tree.path_prob(3) == 0.125
    assert tree.path_prob(0) == 1.0


def test_build_tree_rejects_bad_arguments():
    for depth in (0, -1, 1.5, True, "2"):
        with pytest.raises(ValueError):
            lq.build_tree(depth, 1.0)
    for horizon in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            lq.build_tree(2, horizon)


def test_memory_guard(tmp_path):
    # the bound itself: one more value than fits is refused, naming both sizes
    check_node_memory(NODE_BYTES_BOUND // 8, 1)
    with pytest.raises(ValueError, match=f"{NODE_BYTES_BOUND + 8} bytes.*"
                                         f"memory bound of {NODE_BYTES_BOUND} bytes"):
        check_node_memory(NODE_BYTES_BOUND // 8 + 1, 1)

    # the tree and the instance hold no per-node data, so any depth builds
    assert lq.build_tree(200, 1.0).depth == 200
    inst = lq.example5_instance(40)
    tree = inst.tree
    free = lq.ControlDomain.free(1)
    one_vertex = lq.ControlDomain(k=1, halfspaces=(([1.0], 0.0),))
    control = tmp_path / "control.csv"
    lq.write_control_csv(control, lq.ControlProcess.constant(free, lq.build_tree(2, 1.0), np.zeros(1)))
    rng = np.random.default_rng(0)
    # the zero control as read-only views, which allocate nothing
    zero = [np.broadcast_to(0.0, (tree.num_nodes(m), 1)) for m in range(tree.depth)]
    # depth 40 needs terabytes per array: each call must refuse before allocating
    guarded = {
        "constant": lambda: lq.AdaptedProcess.constant(tree, [1.0]),
        "control constant": lambda: lq.ControlProcess.constant(free, tree, np.ones(1)),
        "forward sweep": lambda: lq.model._forward_levels(inst, zero, inst.x0),
        "control csv": lambda: lq.load_control_csv(control, free, tree),
        "relaxed samples": lambda: lq.sample_relaxed_levels(free, tree, 1, rng),
        "relaxed sample count": lambda: lq.sample_relaxed_levels(
            free, lq.build_tree(2, 1.0), 10 ** 9, rng),
        "one-vertex enumeration": lambda: lq.brute_force_binary(inst, one_vertex),
        "power start": lambda: lq.spectral._random_unit_levels(inst, rng),
    }
    for name, call in guarded.items():
        with pytest.raises(ValueError, match="memory bound"):
            call()
            pytest.fail(name)


def test_adapted_process_validation():
    tree = lq.build_tree(2, 1.0)
    good = [np.zeros((1, 2)), np.zeros((2, 2))]
    proc = lq.AdaptedProcess(tree, good)
    assert proc.dim == 2
    with pytest.raises(ValueError):
        lq.AdaptedProcess(tree, [np.zeros((1, 2))])
    with pytest.raises(ValueError):
        lq.AdaptedProcess(tree, [np.zeros((1, 2)), np.zeros((3, 2))])
    with pytest.raises(ValueError):
        lq.AdaptedProcess(tree, [np.zeros((1, 2)), np.zeros((2, 1))])
    with pytest.raises(ValueError):
        # the leaf level is not a running level
        lq.AdaptedProcess(tree, good + [np.zeros((4, 2))])


def test_adapted_process_is_immutable():
    tree = lq.build_tree(2, 1.0)
    proc = lq.AdaptedProcess.constant(tree, [1.0, 2.0])
    with pytest.raises(AttributeError):
        proc.dim = 5
    with pytest.raises(ValueError):
        proc.levels[0][0, 0] = 3.0
    # mutating the input afterwards must not leak into the process
    src = [np.ones((1, 1)), np.ones((2, 1))]
    proc2 = lq.AdaptedProcess(tree, src)
    src[0][0, 0] = 99.0
    assert proc2.levels[0][0, 0] == 1.0


def test_conditional_expectation_and_martingale_split():
    vals = np.array([[3.0], [1.0]])
    mean, slope = lq.martingale_representation(vals, dt=0.5)
    np.testing.assert_array_equal(mean, [[2.0]])
    np.testing.assert_allclose(slope, [[np.sqrt(2.0)]], rtol=0, atol=1e-15)
    # mean + slope * sqrt(dt) recovers the children exactly
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(8, 3))
    mean, slope = lq.martingale_representation(vals, dt=0.25)
    np.testing.assert_allclose(mean + 0.5 * slope, vals[0::2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(mean - 0.5 * slope, vals[1::2], rtol=0, atol=1e-15)


def test_inner_products_by_hand():
    tree = lq.build_tree(2, 1.0)
    u = lq.AdaptedProcess(tree, [np.array([[1.0]]), np.array([[1.0], [0.0]])])
    # dt * (1 + (1 + 0) / 2) = 0.5 * 1.5
    assert _weighted_dot_levels(tree, u.levels, u.levels) == pytest.approx(0.75, abs=1e-15)
    xi = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert leaf_dot(tree, xi, np.ones((4, 1))) == pytest.approx(2.5, abs=1e-15)


def test_node_dot_is_the_sum_bit_for_bit():
    """Below 8 terms the loop adds the products in np.sum's order, from
    +0.0, so even the sign of a zero and an overflow to inf agree."""
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e308, -1e308, 0.3])
    with np.errstate(all="ignore"):
        for width in range(1, 8):
            for trial in range(40):
                if trial % 2:
                    a, b = special[rng.integers(len(special), size=(2, 30, width))]
                else:
                    a, b = rng.standard_normal((2, 30, width)) * 10.0 ** rng.integers(
                        -8, 8, size=(2, 30, width))
                want, got = np.sum(a * b, axis=-1), _node_dot(a, b)
                assert np.array_equal(want, got, equal_nan=True)
                assert np.array_equal(np.signbit(want), np.signbit(got))
