import itertools
import json
import math
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import lqshift as lq
import lqshift.model as model_mod
from lqshift.model import (COEFFICIENTS, MEMBERSHIP_TOL, _flat_matmul,
                           _interleave, check_coefficient_memory, cost_constant)

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


def test_coefficient_views_are_copied_before_they_are_checked():
    """A coefficient given as a view of a writable array is copied, so
    writing to its base afterwards changes neither the instance nor its
    digest (nor the symmetry the constructor checked)."""
    base = {name: np.zeros(((3,) if per_level else ()) + shape)
            for name, shape, per_level in model_mod.coefficient_shapes(2, 1)}
    base["Q"] += np.eye(2)
    base["R"] += 1.0
    views = {name: value[...] for name, value in base.items()}
    inst = lq.LQInstance(n=2, k=1, T=1.0, depth=3, **views)
    domain = lq.ControlDomain.free(1)
    stacks = {name: getattr(inst, name).copy() for name in COEFFICIENTS}
    digest = lq.instance_digest(inst, domain)
    for value in base.values():
        value.flat[1] = 5.0   # Q and R become asymmetric, the others move
    for name in COEFFICIENTS:
        assert getattr(inst, name).tobytes() == stacks[name].tobytes(), name
        assert views[name].flags.writeable   # the caller's view is left as it was
    assert lq.instance_digest(inst, domain) == digest


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


def _construction_case(seed):
    """A seeded instance document: n, k <= 3 and depth <= 8; each per-level
    coefficient given as one value or as one value per level; Q, R and G
    exactly symmetric on even seeds and skewed by at most 4e-13, below
    ``SYMMETRY_TOL``, on odd ones."""
    rng = np.random.default_rng(seed)
    n, k, depth = (int(v) for v in rng.integers(1, (4, 4, 9)))
    values = {}
    for name, (dims, per_level) in COEFFICIENTS.items():
        shape = tuple({"n": n, "k": k}[d] for d in dims)
        if per_level and rng.integers(2):
            shape = (depth,) + shape
        value = rng.uniform(-1.0, 1.0, shape)
        if name in ("Q", "R", "G"):
            value = value + np.swapaxes(value, -1, -2)
            if seed % 2:
                skew = rng.uniform(-1e-13, 1e-13, shape)
                value = value + (skew - np.swapaxes(skew, -1, -2))
        values[name] = value
    return n, k, depth, values


def _assert_reference_instance(inst, values, label, controls=None):
    """``inst`` holds the reference stacks of ``values`` byte for byte, and
    its digest and constant-control costs are those of an instance holding
    them; the controls are a binary, the all-ones and a uniform value
    unless given."""
    n, k, depth = inst.n, inst.k, inst.depth
    stacks = oracles.coefficient_stacks_reference(n, k, depth, values)
    for name, want in stacks.items():
        got = getattr(inst, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous, (label, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (label, name)
    reference = lq.LQInstance(n=n, k=k, T=inst.T, depth=depth, **stacks)
    domain = lq.ControlDomain.free(k)
    assert lq.instance_digest(inst, domain) == lq.instance_digest(reference, domain), label
    rng = np.random.default_rng(depth)
    if controls is None:
        controls = (rng.integers(0, 2, k), np.ones(k), rng.uniform(-1.0, 1.0, k))
    for value in controls:
        assert cost_constant(inst, value) == oracles.cost_constant_reference(
            reference, value), label


def test_construction_matches_the_reference_byte_for_byte():
    """On 300 seeded documents, an instance built from full stacks, from one
    value per coefficient by ``LQInstance.constant`` and from a JSON document
    by ``load_instance`` holds the stacks of ``np.tile`` stacking and the
    skew-part symmetrization, their digest and their constant-control costs
    bit for bit."""
    skewed = 0
    for seed in range(300):
        n, k, depth, values = _construction_case(seed)
        full, first = {}, {}
        for name, (dims, per_level) in COEFFICIENTS.items():
            value = values[name]
            levels = per_level and value.ndim > len(dims)
            full[name] = value if levels or not per_level else np.tile(
                value, (depth,) + (1,) * value.ndim)
            first[name] = value[0] if levels else value
            if name in ("Q", "R", "G"):
                skewed += not np.array_equal(value, np.swapaxes(value, -1, -2))
        doc = {"n": n, "k": k, "T": 1.0, "depth": depth, "x0": values["x0"].tolist(),
               "coefficients": {name: value.tolist() for name, value in values.items()
                                if name != "x0"}}
        loaded, _ = lq.load_instance(json.loads(json.dumps(doc)))
        _assert_reference_instance(loaded, values, f"load_instance, seed {seed}")
        _assert_reference_instance(lq.LQInstance(n=n, k=k, T=1.0, depth=depth, **full),
                                   values, f"LQInstance, seed {seed}")
        _assert_reference_instance(lq.LQInstance.constant(depth=depth, n=n, k=k, **first),
                                   first, f"LQInstance.constant, seed {seed}")
    assert skewed > 300  # the near-symmetric path is taken, not only the exact one


def test_example5_construction_matches_the_reference_byte_for_byte():
    """Example 5 at depths 2-200, built by ``example5_instance`` and loaded
    from the packaged file at depth 2 and resampled by ``with_depth``."""
    values = {name: np.zeros(((1,) * len(dims))) for name, (dims, _) in COEFFICIENTS.items()}
    values.update(D=[[1.0]], Q=[[2.0]], R=[[-1.0]], G=[[2.0]])
    packaged, _ = lq.load_instance(str(resources.files("lqshift").joinpath("data/example5.json")))
    for depth in range(2, 201):
        _assert_reference_instance(lq.example5_instance(depth), values, f"depth {depth}",
                                   controls=[np.ones(1)])
        _assert_reference_instance(lq.with_depth(packaged, depth), values,
                                   f"with_depth {depth}", controls=[np.ones(1)])


@pytest.mark.parametrize("name, value, message", [
    ("Q", [[1.0, 0.5], [0.6, 1.0]], "Q is not symmetric (defect 1.000e-01)"),
    ("R", [[1.0, 2e-12], [0.0, 1.0]], "R is not symmetric (defect 2.000e-12)"),
    ("G", [[1.0, 1e308], [-1e308, 1.0]], "G is not symmetric (defect inf)"),
    ("Q", [[1.0, np.nan], [np.nan, 1.0]], "Q contains non-finite entries"),
    ("G", [[1.0, 0.0], [0.0, np.inf]], "G contains non-finite entries"),
    ("S", [[1.0, 0.0]], "S must have shape (2, 2, 2), got (1, 2)"),
])
def test_construction_refusals_keep_their_messages(name, value, message):
    """The asymmetric, non-finite and wrong-shape refusals word themselves as
    the reference does, and the loader reports the asymmetric ones at
    ``/coefficients``."""
    n = k = depth = 2
    stacks = {other: np.zeros(((depth,) if lvl else ()) + shape)
              for other, shape, lvl in model_mod.coefficient_shapes(n, k)}
    stacks[name] = np.asarray(value) if name in ("G", "S") else np.array([value, value])
    with pytest.raises(ValueError) as caught:
        lq.LQInstance(n=n, k=k, T=1.0, depth=depth, **stacks)
    assert str(caught.value) == message
    if "symmetric" in message:
        with pytest.raises(ValueError, match=re.escape(message)):
            oracles.symmetrize_reference(stacks[name], name)
        doc = {"n": n, "k": k, "T": 1.0, "depth": depth, "coefficients": {name: value}}
        with pytest.raises(lq.InstanceFormatError) as caught:
            lq.load_instance(doc)
        assert caught.value.issues == [("/coefficients", message)]


def test_constant_control_cost_peaks_far_below_the_stacks():
    """``cost_constant`` builds its blocks ``COST_LEVEL_CHUNK`` levels at a
    time: on Example 5 at depth 100,000 it peaks below a tenth of the
    coefficient stacks, where one batch over all levels peaks above them."""
    inst = lq.example5_instance(100_000)
    stacks = sum(getattr(inst, name).nbytes for name in COEFFICIENTS)
    tracemalloc.start()
    try:
        cost_constant(inst, np.ones(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * stacks, (peak, stacks)


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


def test_interleave_is_the_strided_merge_bit_for_bit():
    """Children merged by concatenate and take sit where the strided writes
    ``nxt[..., 0::2, :] = up`` and ``nxt[..., 1::2, :] = down`` put them."""
    rng = np.random.default_rng(8)
    for shape in ((1, 1), (1, 2), (8, 3), (3, 1, 2), (4, 5, 8, 2), (2, 3, 16, 1)):
        up, down = rng.normal(size=(2,) + shape)
        nxt = np.empty(shape[:-2] + (2 * shape[-2], shape[-1]))
        nxt[..., 0::2, :] = up
        nxt[..., 1::2, :] = down
        merged = _interleave(up, down)
        assert merged.shape == nxt.shape
        assert merged.tobytes() == nxt.tobytes()


def test_membership_over_all_values_matches_the_node_masks():
    """The binary and relaxed masks, and a control's acceptance or its
    first node outside, agree with FORMAT.md's membership definition, in
    Python floats, on nan, inf, signed-zero, near-vertex, box-edge and
    halfspace values, on the free domain and two cut ones."""
    rng = np.random.default_rng(6)
    tol = MEMBERSHIP_TOL
    pool = np.array([0.0, -0.0, 1.0, tol, -tol, 1.0 + tol, 1.0 - tol, 2 * tol,
                     1.0 + 2 * tol, -2 * tol, 0.5, 0.3, 2.0, -1.0, np.nan, np.inf, -np.inf])
    domains = [lq.ControlDomain.free(2),
               lq.ControlDomain(k=2, halfspaces=(([1.0, 1.0], 1.5),)),
               lq.ControlDomain(k=2, halfspaces=(([1.0, -1.0], 0.0), ([0.0, 1.0], 0.5)))]
    tree = lq.build_tree(3, 1.0)
    outcomes = set()
    for trial in range(600):
        dom = domains[trial % 3]
        kind = ("binary", "relaxed")[trial // 3 % 2]
        # mostly member values, with a few nodes drawn from the whole pool
        values = pool[rng.integers(0, 7 if kind == "binary" else 8, size=(7, 2))]
        for node in rng.integers(0, 7, size=rng.integers(0, 3)):
            values[node] = pool[rng.integers(len(pool), size=2)]
        check = dom.contains_binary if kind == "binary" else dom.contains_relaxed
        mask = check(values)
        expected = [oracles.member_reference(dom, point, kind) for point in values]
        assert mask.tolist() == expected
        levels = [values[(1 << m) - 1:(2 << m) - 1] for m in range(tree.depth)]
        if all(expected):
            lq.ControlProcess.from_levels(dom, tree, levels, kind)
            outcomes.add((kind, True))
            continue
        node = expected.index(False)
        m = (node + 1).bit_length() - 1
        message = (f"control value {values[node]} at node ({m}, {node + 1 - (1 << m)}) "
                   f"is outside the {kind} control set")
        with pytest.raises(ValueError) as excinfo:
            lq.ControlProcess.from_levels(dom, tree, levels, kind)
        assert str(excinfo.value) == message
        outcomes.add((kind, False))
    assert len(outcomes) == 4


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


def test_free_relaxed_vertices_are_the_binary_vertices():
    """Without cuts the relaxed vertices are the binary ones, the same
    array, with no candidate points counted."""
    for k in range(1, 14):
        dom = lq.ControlDomain.free(k)
        binary = dom.binary_vertices()
        assert binary.shape == (2 ** k, k)
        assert dom.relaxed_vertices() is binary


def test_vertex_memos_are_read_only():
    """A write into a memoized vertex array is refused, so a later check,
    MSA step or oracle on the domain reads the vertices it was built with."""
    for dom in (lq.ControlDomain.free(2),
                lq.ControlDomain(k=2, halfspaces=((np.array([1.0, 1.0]), 1.5),))):
        for verts in (dom.binary_vertices, dom.relaxed_vertices):
            before = verts().tobytes()
            with pytest.raises(ValueError, match="read-only"):
                verts()[0, 0] = 7.0
            assert verts().tobytes() == before


def test_binary_vertices_match_the_itertools_reference():
    """The bit-built corners, kept by the halfspace test alone, are the
    product-listed corners kept by ``contains_binary``, byte for byte, for
    k = 1 to 12 on free, integrally cut and fractionally cut domains; up
    to k = 8, also those that FORMAT.md's definition keeps."""
    rng = np.random.default_rng(18)
    for k in range(1, 13):
        first_last = np.zeros(k)
        first_last[0], first_last[-1] = 1.0, -1.0
        domains = [lq.ControlDomain.free(k),
                   lq.ControlDomain(k=k, halfspaces=((np.ones(k), k // 2), (first_last, 0.0))),
                   lq.ControlDomain(k=k, halfspaces=(
                       (np.round(rng.uniform(-1.0, 1.0, k), 1), 0.5),
                       (np.ones(k), k - 0.5)))]
        for dom in domains:
            got = model_mod.enumerate_binary_vertices(dom)
            want = oracles.enumerate_binary_vertices_reference(dom)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, dom)
            if k <= 8:  # and the corners the per-point definition keeps
                corners = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
                keep = [oracles.member_reference(dom, c, "binary") for c in corners]
                assert got.tobytes() == corners[keep].tobytes(), (k, dom)


def test_binary_vertex_enumeration_peaks_near_its_output():
    """At k = 18, cut by sum u <= 17.5: the halfspaces are tested on
    chunks of corners and only the kept corners are built, so the peak
    stays within 1.6 times the returned array.  Testing every corner at
    once, then keeping a copy, took 2.06 times it; product-listed corners 4."""
    dom = lq.ControlDomain(k=18, halfspaces=((np.ones(18), 17.5),))
    tracemalloc.start()
    try:
        got = model_mod.enumerate_binary_vertices(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2 ** 18 - 1, 18)
    assert peak <= 1.6 * got.nbytes, peak / got.nbytes


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


def _seeded_cut_domains(count):
    """Domains with k from 1 to 5 and 0 to 3 cuts, cycling through four
    kinds of cut: integral normals and bounds (degenerate vertices, where
    a cut runs through box corners), integral normals with fractional
    bounds, random real normals, and decimal normals through a box corner,
    whose candidate systems meet that corner with rounding apart.  A cut
    below the box empties the relaxed set."""
    for seed in range(count):
        rng = np.random.default_rng([seed, 26])
        k, cuts, kind = 1 + seed % 5, seed // 5 % 4, seed // 20 % 4
        halfspaces = []
        for _ in range(cuts):
            if kind == 3:
                g = rng.choice([0.1, 0.2, 0.3, 0.7, -0.3], size=k)
                h = float(g @ rng.integers(0, 2, size=k))
            elif kind == 2:
                g, h = rng.uniform(-1.0, 1.0, size=k), float(rng.uniform(-0.2, 1.5))
            else:
                g = rng.integers(-1, 3, size=k).astype(float)
                h = float(rng.integers(-1, k + 1)) + (0.0 if kind == 0 else rng.choice([0.5, 0.25]))
            halfspaces.append((g, h))
        yield lq.ControlDomain(k=k, halfspaces=tuple(halfspaces))


def _integer_cut_domains(count):
    """Domains with k from 1 to 7 and 1 to 3 cuts, integer normals in
    [-3, 3] and right sides ending in .0, .25 or .5."""
    for seed in range(count):
        rng = np.random.default_rng([seed, 31])
        k, cuts = 1 + seed % 7, 1 + seed // 7 % 3
        yield lq.ControlDomain(k=k, halfspaces=tuple(
            (rng.integers(-3, 4, size=k).astype(float),
             float(rng.integers(-1, k + 1)) + float(rng.choice([0.0, 0.25, 0.5])))
            for _ in range(cuts)))


def test_relaxed_vertices_match_the_reference():
    """The vertices from their fractional support are the set of the
    one-system-at-a-time reference, within 1e-12, on 1,080 domains: unique,
    in lexicographic order, and with every box coordinate exactly 0 or 1,
    where the reference's solves leave rounding there."""
    shapes = {"empty": 0, "fractional": 0, "degenerate": 0}
    for dom in itertools.chain(_seeded_cut_domains(480), _integer_cut_domains(600)):
        got, want = dom.relaxed_vertices(), oracles.relaxed_vertices_reference(dom)
        assert got.shape == want.shape, dom
        if len(got):
            dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=-1)
            assert dist.min(axis=0).max() <= 1e-12 and dist.min(axis=1).max() <= 1e-12, dom
        assert all(tuple(a) < tuple(b) for a, b in zip(got.tolist(), got.tolist()[1:])), dom
        box = np.abs(got - np.round(got)) <= 1e-9
        np.testing.assert_array_equal(got[box], np.round(got[box]))
        shapes["empty"] += len(want) == 0
        shapes["fractional"] += bool(np.any(want != np.round(want)))
        # a cut through a box corner: more than k equations hold there
        rows = [np.abs(want - 0.5) == 0.5] + [np.abs(want @ g - h) <= 1e-12
                                              for g, h in dom.halfspaces]
        shapes["degenerate"] += bool(np.any(np.sum(np.column_stack(rows), axis=1) > dom.k))
    assert min(shapes.values()) >= 20, shapes


def test_relaxed_vertices_under_one_sum_cut_in_closed_form():
    """Under sum u <= j + 1/2, the binary vertices hold at most j ones, and
    the fractional ones j ones and exactly one 0.5: sum_{i <= j} C(k, i)
    and C(k, j) (k - j) of them, for k = 10 to 13, past the k-subset
    solver's reach."""
    for k in range(10, 14):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
        ones = corners.sum(axis=1)
        for j in (1, 2, k // 2, k - 2):
            got = lq.ControlDomain(k=k, halfspaces=((np.ones(k), j + 0.5),)).relaxed_vertices()
            at_j = corners[ones == j]
            halves = [c + 0.5 * np.eye(k)[i] for c in at_j for i in np.flatnonzero(c == 0.0)]
            want = np.concatenate([corners[ones <= j], halves])
            want = want[np.lexsort(want.T[::-1])]
            binary = sum(math.comb(k, i) for i in range(j + 1))
            assert len(want) == binary + math.comb(k, j) * (k - j)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, j)
    for h, count in ((2.5, 739), (5.5, 7130)):
        dom = lq.ControlDomain(k=12, halfspaces=((np.ones(12), h),))
        assert len(dom.relaxed_vertices()) == count


def test_relaxed_vertex_refusals(monkeypatch):
    """The candidate points are counted before any solve: k = 13 under one
    cut, 61,440 of them, is enumerated; k = 14, 16,384 + 14 * 8,192 =
    131,072, is refused past 100,000 by naming that number."""
    cut = ((np.ones(13), 6.5),)
    assert lq.ControlDomain(k=13, halfspaces=cut).relaxed_vertices().shape == (16108, 13)
    monkeypatch.setattr(np.linalg, "solve", None)  # never reached at k = 14
    with pytest.raises(lq.VertexEnumerationError,
                       match=r"^vertex enumeration needs 131072 candidate points; too many$"):
        lq.ControlDomain(k=14, halfspaces=((np.ones(14), 2.5),)).relaxed_vertices()
    # two cuts at k = 12: 4,096 + 2 * 12 * 2,048 + 66 * 1,024
    two = ((np.ones(12), 2.5), (np.arange(12.0), 30.0))
    with pytest.raises(lq.VertexEnumerationError, match="needs 120832 candidate points"):
        lq.ControlDomain(k=12, halfspaces=two).relaxed_vertices()


def test_relaxed_vertices_hold_memory_under_8_mib():
    """At k = 9 with the cut sum u <= 2.5: 2,816 candidate points, solved
    as one stack for the fractional coordinate, peak under 8 MiB, where
    one stacked batch of the 92,378 k-subset systems took 60 MB."""
    dom = lq.ControlDomain(k=9, halfspaces=((np.ones(9), 2.5),))
    tracemalloc.start()
    try:
        got = dom.relaxed_vertices()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    # 46 corners with at most two ones, 252 with two ones and one half
    assert got.shape == (298, 9)
    assert got.tobytes() == oracles.relaxed_vertices_reference(dom).tobytes()


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
