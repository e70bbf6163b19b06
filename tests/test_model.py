import numpy as np
import pytest

import lqshift as lq
from lqshift.model import MEMBERSHIP_TOL, _flat_matmul, check_coefficient_memory, cost_constant

import oracles
from conftest import all_scalar_binary_controls

EPS = np.finfo(float).eps


def cost_closed_form(inst, control):
    """Benchmark identity: J(u) = sum_m E[u_m^2] (3/2 - t_{m+1}) dt."""
    tree = inst.tree
    total = 0.0
    for m in range(tree.depth):
        u = control.process.levels[m]
        mean_sq = tree.path_prob(m) * float(np.sum(u * u))
        total += mean_sq * (1.5 - (m + 1) * tree.dt) * tree.dt
    return total


def test_instance_shape_validation():
    with pytest.raises(ValueError, match="A"):
        lq.LQInstance(n=1, k=1, T=1.0, depth=2,
                      A=np.zeros((2, 2, 2)), B=np.zeros((2, 1, 1)),
                      C=np.zeros((2, 1, 1)), D=np.zeros((2, 1, 1)),
                      b=np.zeros((2, 1)), sigma=np.zeros((2, 1)),
                      Q=np.zeros((2, 1, 1)), S=np.zeros((2, 1, 1)),
                      R=np.zeros((2, 1, 1)), G=np.zeros((1, 1)), x0=np.zeros(1))
    with pytest.raises(ValueError):
        lq.LQInstance.constant(depth=2, n=1, k=1, x0=[0.0, 0.0])
    with pytest.raises(ValueError):
        lq.LQInstance.constant(depth=0, n=1, k=1)


def test_symmetric_blocks():
    # a visible asymmetry is rejected
    with pytest.raises(ValueError, match="symmetric"):
        lq.LQInstance.constant(depth=1, n=2, k=1, Q=[[1.0, 0.5], [0.0, 1.0]])
    # roundoff-level asymmetry is absorbed exactly
    inst = lq.LQInstance.constant(depth=1, n=2, k=1,
                                  Q=[[1.0, 1e-14], [0.0, 1.0]])
    np.testing.assert_array_equal(inst.Q[0], inst.Q[0].T)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetric_blocks_near_the_largest_float():
    """Symmetrizing never overflows: finite weights stay finite."""
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, Q=1e308, G=1.7e308)
    assert np.all(inst.Q == 1e308) and np.all(inst.G == 1.7e308)
    big = 1.7e308
    inst = lq.LQInstance.constant(depth=1, n=2, k=1,
                                  Q=[[big, big], [np.nextafter(big, 0.0), big]])
    assert np.all(np.isfinite(inst.Q))
    np.testing.assert_array_equal(inst.Q[0], inst.Q[0].T)
    # a skew part too large for a float is still a visible asymmetry
    with pytest.raises(ValueError, match="symmetric"):
        lq.LQInstance.constant(depth=1, n=2, k=1, Q=[[0.0, big], [-big, 0.0]])


def test_instance_arrays_are_frozen():
    inst = lq.example5_instance(2)
    with pytest.raises(ValueError):
        inst.Q[0, 0, 0] = 7.0


def test_constant_builder_defaults():
    # scalars broadcast to multiples of the identity on square blocks
    inst = lq.LQInstance.constant(depth=3, n=2, k=1, A=0.5, G=3.0)
    assert inst.A.shape == (3, 2, 2)
    np.testing.assert_array_equal(inst.A[0], 0.5 * np.eye(2))
    np.testing.assert_array_equal(inst.G, 3.0 * np.eye(2))
    # omitted coefficients are zero
    np.testing.assert_array_equal(inst.x0, np.zeros(2))
    assert not np.any(inst.Q)
    assert inst.B.shape == (3, 2, 1) and not np.any(inst.B)


def test_benchmark_instance_coefficients(bench2):
    assert (bench2.n, bench2.k, bench2.depth, bench2.T) == (1, 1, 2, 1.0)
    for name in ("A", "B", "C", "b", "sigma", "S"):
        assert not np.any(getattr(bench2, name))
    np.testing.assert_array_equal(bench2.D[:, 0, 0], [1.0, 1.0])
    np.testing.assert_array_equal(bench2.Q[:, 0, 0], [2.0, 2.0])
    np.testing.assert_array_equal(bench2.R[:, 0, 0], [-1.0, -1.0])
    np.testing.assert_array_equal(bench2.G, [[2.0]])
    np.testing.assert_array_equal(bench2.x0, [0.0])


def test_forward_state_by_hand(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    x_levels, x_term = lq.forward_state(bench2, ones)
    s = np.sqrt(0.5)
    np.testing.assert_array_equal(x_levels[0], [[0.0]])
    np.testing.assert_allclose(x_levels[1].ravel(), [s, -s],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(x_term.ravel(),
                               [2 * s, 0.0, 0.0, -2 * s], rtol=0, atol=1e-15)


def test_cost_by_hand(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    assert lq.cost_direct(bench2, ones) == pytest.approx(0.75, abs=1e-15)
    zero = lq.ControlProcess.constant(free1, bench2.tree, np.zeros(1))
    assert lq.cost_direct(bench2, zero) == 0.0


def test_cost_matches_closed_form(bits_control):
    inst = lq.example5_instance(4)
    rng = np.random.default_rng(11)
    nodes = inst.tree.num_nodes(4) - 1
    for _ in range(50):
        bits = rng.integers(0, 2, size=nodes).tolist()
        control = bits_control(inst.tree, bits)
        expected = cost_closed_form(inst, control)
        assert lq.cost_direct(inst, control) == pytest.approx(expected, abs=1e-12)


def test_constant_control_cost_matches_the_sweep():
    """The per-level second-moment form of a constant control's cost equals
    the forward sweep's to 1e-12, relative, at every depth both run."""
    cases = [(f"example 5 depth {d}", lq.example5_instance(d), np.ones(1))
             for d in range(1, 13)]
    for seed in range(40):
        inst, _ = oracles.random_instance(seed, n_max=3, k_max=3, depth_max=12,
                                          with_sources=seed % 2 == 0)
        value = np.random.default_rng(seed).uniform(size=inst.k)
        cases.append((f"seed {seed}", inst, value))
    for label, inst, value in cases:
        control = lq.ControlProcess.constant(lq.ControlDomain.free(inst.k), inst.tree,
                                             value, "relaxed")
        want = lq.cost_direct(inst, control)
        assert cost_constant(inst, value) == pytest.approx(want, rel=1e-12, abs=0), label


def test_constant_control_cost_runs_past_the_node_memory_bound():
    """Example 5's all-ones cost is 3/2 - (N + 1)/(2N) at depth N; at depth
    40 the sweep would need 2**40 nodes, the moment form one matrix."""
    for depth in (2, 30, 40, 1000):
        assert cost_constant(lq.example5_instance(depth), np.ones(1)) == pytest.approx(
            1.5 - (depth + 1) / (2.0 * depth), rel=1e-12, abs=0), depth


def test_cost_many_agrees_with_direct(free1):
    inst, domain = oracles.random_instance(3, with_sources=True)
    rng = np.random.default_rng(5)
    levels = lq.sample_relaxed_levels(domain, inst.tree, 16, rng)
    batch = lq.cost_many(inst, levels)
    for i in range(16):
        control = lq.ControlProcess.from_levels(
            domain, inst.tree, [lvl[i] for lvl in levels], "relaxed")
        assert batch[i] == pytest.approx(lq.cost_direct(inst, control), abs=1e-12)


def test_flat_matmul_leaves_two_dimensional_products_alone():
    rng = np.random.default_rng(2)
    for rows, n, k in ((1, 1, 1), (4, 2, 3), (64, 3, 2)):
        x = rng.uniform(-1.0, 1.0, size=(rows, n))
        M = rng.uniform(-1.0, 1.0, size=(k, n))
        for coef in (M.T, np.ascontiguousarray(M.T), M[0]):
            assert _flat_matmul(x, coef).tobytes() == (x @ coef).tobytes()
        stacked = rng.uniform(-1.0, 1.0, size=(3, 5, rows, n))
        assert _flat_matmul(stacked, M.T).shape == (3, 5, rows, k)
        assert _flat_matmul(stacked, M[0]).shape == (3, 5, rows)


def _three_axis_costs(inst, domain, prefix, points, kind, units=4):
    """Costs of the enumeration's layout: ``(units, 1, 2**m, k)`` prefix
    levels and a ``(units, V, nodes, k)`` broadcast view of ``points`` on
    the last running level, batched and one control at a time."""
    tree = inst.tree
    last = tree.depth - 1
    count = points.shape[0]
    u_last = np.broadcast_to(points[:, None, :], (units, count, tree.num_nodes(last), inst.k))
    batch = lq.cost_many(inst, prefix + [u_last])
    assert batch.shape == (units, count)
    for p in range(units):
        for v in range(count):
            control = lq.ControlProcess.from_levels(
                domain, tree, [lvl[p, 0] for lvl in prefix] + [u_last[p, v]], kind)
            yield batch[p, v], lq.cost_direct(inst, control)


@pytest.mark.parametrize("seed", range(12))
def test_batched_binary_sweeps_with_three_leading_axes_match_direct(seed):
    inst, domain = oracles.random_instance(seed, n_max=3, k_max=3, depth_max=3)
    if seed % 3 == 0:
        domain = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.5),))
    verts = domain.binary_vertices()
    rng = np.random.default_rng(seed)
    prefix = [verts[rng.integers(0, verts.shape[0], size=(4, 1, inst.tree.num_nodes(m)))]
              for m in range(inst.depth - 1)]
    for batched, direct in _three_axis_costs(inst, domain, prefix, verts, "binary"):
        assert abs(batched - direct) <= 4 * EPS * abs(direct)


@pytest.mark.parametrize("seed", range(12))
def test_batched_relaxed_sweeps_with_three_leading_axes_match_direct(seed):
    """Relaxed values round differently in a flattened product; the gap is
    measured against the cost's absolute terms, which bound the rounding."""
    inst, domain = oracles.random_instance(seed, n_max=3, k_max=3, depth_max=3)
    rng = np.random.default_rng(seed)
    prefix = [rng.uniform(size=(4, 1, inst.tree.num_nodes(m), inst.k))
              for m in range(inst.depth - 1)]
    points = rng.uniform(size=(5, inst.k))
    scale = oracles.cost_bound(inst)
    for batched, direct in _three_axis_costs(inst, domain, prefix, points, "relaxed"):
        assert abs(batched - direct) <= 4 * EPS * scale


def test_sign_flipped_benchmark_prefers_ones(free1):
    # negating (Q, R, G) turns the cost into a reward, so the all-ones
    # control becomes the unique minimizer
    flip = lq.LQInstance.constant(depth=1, n=1, k=1, D=1.0, Q=-2.0, R=1.0, G=-2.0)
    result = lq.brute_force_binary(flip, free1)
    assert result.cost == pytest.approx(-0.5, abs=1e-15)
    np.testing.assert_array_equal(result.control.process.levels[0], [[1.0]])


def test_free_domain_vertices():
    dom = lq.ControlDomain.free(2)
    np.testing.assert_array_equal(
        dom.binary_vertices(), [[0, 0], [0, 1], [1, 0], [1, 1]])
    np.testing.assert_array_equal(dom.relaxed_vertices(), dom.binary_vertices())
    assert dom.contains_binary(np.array([[0.0, 1.0]]))[0]
    assert not dom.contains_binary(np.array([[0.5, 1.0]]))[0]
    assert dom.contains_relaxed(np.array([[0.5, 0.5]]))[0]
    assert not dom.contains_relaxed(np.array([[1.2, 0.0]]))[0]


def test_binary_membership_matches_the_vertex_distance():
    """The nearest-corner test agrees with the distance to every vertex."""
    rng = np.random.default_rng(4)
    tol = MEMBERSHIP_TOL
    domains = [lq.ControlDomain.free(3),
               lq.ControlDomain(k=3, halfspaces=(([1.0, 1.0, 1.0], 1.5),)),
               lq.ControlDomain(k=3, halfspaces=(([1.0, -1.0, 0.0], -0.5),
                                                 ([0.0, 0.0, 1.0], 0.25))),
               lq.ControlDomain(k=3, halfspaces=(([1.0, 1.0, 1.0], -1.0),))]
    corners = rng.integers(0, 2, size=(4000, 3)).astype(float)
    offsets = rng.choice([0.0, tol, -tol, 2 * tol, -2 * tol, 0.5 * tol, 0.3, 0.5, -1.0],
                         size=corners.shape)
    points = np.concatenate([corners + offsets, rng.uniform(-0.5, 1.5, size=(2000, 3))])
    points[:40, 1] = [np.nan, np.inf, -np.inf, tol] * 10
    for dom in domains:
        verts = dom.binary_vertices()
        dist = np.abs(points[:, None, :] - verts).max(axis=-1)
        expected = dist.min(axis=-1) <= tol if len(verts) else np.zeros(len(points), bool)
        got = dom.contains_binary(points)
        np.testing.assert_array_equal(got, expected)
        assert not got[:3].any()  # nan and inf are never members
        np.testing.assert_array_equal(dom.contains_binary(points.reshape(2, -1, 3)),
                                      expected.reshape(2, -1))


def test_cut_domain_vertices():
    dom = lq.ControlDomain(k=2, halfspaces=((np.array([1.0, 1.0]), 1.5),))
    binary = dom.binary_vertices()
    np.testing.assert_array_equal(binary, [[0, 0], [0, 1], [1, 0]])
    relaxed = dom.relaxed_vertices()
    assert relaxed.shape == (5, 2)
    # the cut introduces two fractional corners
    rows = {tuple(np.round(v, 12)) for v in relaxed}
    assert (0.5, 1.0) in rows and (1.0, 0.5) in rows
    assert dom.contains_relaxed(np.array([[0.3, 0.3]]))[0]
    assert not dom.contains_relaxed(np.array([[0.9, 0.9]]))[0]


def test_empty_binary_set_is_fatal(free1):
    dom = lq.ControlDomain(k=1, halfspaces=((np.array([1.0]), -0.5),))
    assert dom.binary_vertices().shape[0] == 0
    inst = lq.example5_instance(1)
    report = lq.validate_instance(inst, dom)
    assert not report.ok
    assert [path for path, _ in report.issues] == ["/domain/halfspaces"]


def test_validate_instance_reports(free1, bench2):
    assert lq.validate_instance(bench2, free1).ok
    # dimension mismatch between domain and instance
    report = lq.validate_instance(bench2, lq.ControlDomain.free(2))
    assert [path for path, _ in report.issues] == ["/domain"]
    as_dict = report.to_dict()
    assert as_dict["valid"] is False
    assert [set(issue) for issue in as_dict["issues"]] == [{"path", "message"}]
    # non-finite coefficients never reach validation
    with pytest.raises(ValueError, match="non-finite"):
        lq.LQInstance.constant(depth=1, n=1, k=1, b=[np.inf])


def test_control_membership_enforced(free1, bench2):
    tree = bench2.tree
    with pytest.raises(ValueError, match="outside"):
        lq.ControlProcess.constant(free1, tree, [0.5], "binary")
    with pytest.raises(ValueError, match="outside"):
        lq.ControlProcess.constant(free1, tree, [2.0], "relaxed")
    half = lq.ControlProcess.constant(free1, tree, [0.5], "relaxed")
    assert half.kind == "relaxed"
    with pytest.raises(ValueError):
        lq.ControlProcess.constant(free1, tree, [0.0], "integer")
    with pytest.raises(ValueError, match="dimension"):
        lq.ControlProcess(lq.AdaptedProcess.constant(tree, np.zeros(1)), lq.ControlDomain.free(2))
    # the message names the first node outside, in level order
    deep = lq.build_tree(3, 1.0)
    levels = [np.zeros((1, 1)), np.array([[0.0], [0.5]]), np.full((4, 1), 0.5)]
    with pytest.raises(ValueError, match=r"at node \(1, 1\) is outside the binary"):
        lq.ControlProcess.from_levels(free1, deep, levels, "binary")


def test_near_binary_values_are_held_as_vertices(free1):
    tree = lq.build_tree(2, 1.0)
    levels = [np.array([[1.0 - 5e-10]]), np.array([[5e-10], [-5e-10]])]
    near = lq.ControlProcess.from_levels(free1, tree, levels, "binary")
    for got, want in zip(near.levels, ([[1.0]], [[0.0], [0.0]])):
        assert got.tobytes() == np.array(want).tobytes()  # no -0.0 either
    # exact values keep their arrays; relaxed values are not rounded
    exact = lq.AdaptedProcess(tree, [np.ones((1, 1)), np.zeros((2, 1))])
    assert lq.ControlProcess(exact, free1, "binary").process is exact
    relaxed = lq.ControlProcess.from_levels(free1, tree, levels, "relaxed")
    assert relaxed.levels[0][0, 0] == 1.0 - 5e-10
    with pytest.raises(ValueError, match=r"at node \(0, 0\) is outside the binary"):
        lq.ControlProcess.from_levels(free1, tree, [np.array([[1.0 - 2e-9]]), levels[1]])


def test_sampling_is_deterministic_and_feasible():
    dom = lq.ControlDomain(k=2, halfspaces=((np.array([1.0, 1.0]), 1.5),))
    tree = lq.build_tree(3, 1.0)
    a = lq.sample_relaxed_levels(dom, tree, 32, np.random.default_rng(9))
    b = lq.sample_relaxed_levels(dom, tree, 32, np.random.default_rng(9))
    for lvl_a, lvl_b in zip(a, b):
        np.testing.assert_array_equal(lvl_a, lvl_b)
        flat = lvl_a.reshape(-1, 2)
        assert np.all(dom.contains_relaxed(flat))


@pytest.mark.parametrize("g, h", [((1.0, 1.0, 1.0), 2.0), ((1.0, 1.0), 1.5),
                                  ((1.0, -1.0), 0.0), ((0.0, 1.0, -1.0), 0.0)])
def test_sampling_draws_what_the_two_pass_sampler_draws(g, h):
    """Sum cuts and order cuts: the same draws, and the same generator
    state after them."""
    dom = lq.ControlDomain(k=len(g), halfspaces=((np.array(g), h),))
    tree = lq.build_tree(3, 1.0)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = lq.sample_relaxed_levels(dom, tree, 300, rng)
        want = oracles.sample_relaxed_reference(dom, tree, 300, ref_rng)
        for lvl, ref in zip(got, want):
            assert np.array_equal(lvl, ref)
        assert rng.uniform() == ref_rng.uniform()


def test_sampling_refuses_at_the_two_pass_acceptance_rate():
    """Around the 0.1 percent floor, the sampler refuses exactly where the
    two-pass sampler does, with the same rate in its message."""
    tree = lq.build_tree(2, 1.0)
    outcomes = set()
    for h in (1e-4, 8e-4, 1e-3, 1.2e-3, 5e-3):
        dom = lq.ControlDomain(k=1, halfspaces=((np.array([1.0]), h),))
        for seed in range(3):
            def run(sampler):
                try:
                    return sampler(dom, tree, 500, np.random.default_rng(seed))
                except lq.DegenerateDomainError as exc:
                    return str(exc)
            got, want = run(lq.sample_relaxed_levels), run(oracles.sample_relaxed_reference)
            outcomes.add(isinstance(want, str))
            if isinstance(want, str):
                assert got == want
            else:
                assert not isinstance(got, str)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert outcomes == {True, False}


def test_degenerate_domain_sampling_raises():
    dom = lq.ControlDomain(k=1, halfspaces=((np.array([1.0]), 1e-4),))
    tree = lq.build_tree(2, 1.0)
    with pytest.raises(lq.DegenerateDomainError):
        lq.sample_relaxed_levels(dom, tree, 2000, np.random.default_rng(0))


def test_benchmark_landscape_is_exhaustive(bench2, bits_control):
    # all eight depth-2 control costs, dyadic and exact
    expected = {
        (0, 0, 0): 0.0, (0, 0, 1): 0.125, (0, 1, 0): 0.125, (0, 1, 1): 0.25,
        (1, 0, 0): 0.5, (1, 0, 1): 0.625, (1, 1, 0): 0.625, (1, 1, 1): 0.75,
    }
    for bits in all_scalar_binary_controls(bench2.tree):
        control = bits_control(bench2.tree, bits)
        value = lq.cost_direct(bench2, control)
        # squaring sqrt(dt) increments leaves a one-ulp residue
        assert value == pytest.approx(expected[tuple(bits)], abs=1e-14)


def test_coefficient_memory_bound():
    """Example 5's coefficients take (9 depth + 2) * 8 bytes, so the bound of
    2**28 bytes admits depth 3,728,270 and no more.  The check is
    arithmetic alone; nothing is allocated."""
    check_coefficient_memory(1, 1, 3_728_270)
    for sizes in ((1, 1, 3_728_271), (1, 1, 10 ** 9), (10 ** 7, 1, 1), (1, 10 ** 7, 1)):
        with pytest.raises(ValueError, match="memory bound"):
            check_coefficient_memory(*sizes)
