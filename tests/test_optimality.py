import gc
import tracemalloc

import numpy as np
import pytest

import lqshift as lq
from lqshift.optimality import CHECK_TOL, _worst

from conftest import all_scalar_binary_controls
from oracles import general_smp_reference, hamiltonian_mu_gradient

S = np.sqrt(0.5)


def test_first_adjoint_benchmark_values(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    state = lq.forward_state(bench2, ones)
    p, p_mean, q = lq.solve_first_adjoint(bench2, state, ones)
    np.testing.assert_allclose(p[1].ravel(), [-3 * S, 3 * S],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(p_mean[1].ravel(), [-2 * S, 2 * S],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(q[1].ravel(), [-2.0, -2.0],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(q[0].ravel(), [-3.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(p[0].ravel(), [0.0], rtol=0, atol=1e-12)


def test_hamiltonian_benchmark_coefficients():
    # at the root with x = p = q = 0 the Hamiltonian reduces to
    # a u^2 + b u with a = 2 - 1/depth and b = -3/2 + 1/depth
    for depth in (2, 5, 10):
        inst = lq.example5_instance(depth)
        mu = -(3.0 - 2.0 / depth)
        zero = np.zeros((1, 1))
        h_plus = float(lq.hamiltonian_mu(inst, 0, zero, np.ones((1, 1)),
                                         zero, zero, mu)[0])
        h_minus = float(lq.hamiltonian_mu(inst, 0, zero, -np.ones((1, 1)),
                                          zero, zero, mu)[0])
        a = 0.5 * (h_plus + h_minus)
        b = 0.5 * (h_plus - h_minus)
        assert a == pytest.approx(2.0 - 1.0 / depth, abs=1e-12)
        assert b == pytest.approx(-1.5 + 1.0 / depth, abs=1e-12)


def test_gradient_matches_finite_differences():
    inst, domain = lq.random_instance(8, depth_max=3, with_sources=True)
    mu = lq.lambda_max(inst).mu
    tree = inst.tree
    rng = np.random.default_rng(3)
    levels = [rng.uniform(0.0, 1.0, size=(tree.num_nodes(m), inst.k))
              for m in range(tree.depth)]
    u = lq.ControlProcess.from_levels(domain, tree, levels, kind="relaxed")
    state = x_levels, _ = lq.forward_state(inst, u)
    _, p_mean, q = lq.solve_first_adjoint(inst, state, u)
    h = 1e-6
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(0, tree.depth))
        j = int(rng.integers(0, tree.num_nodes(m)))
        i = int(rng.integers(0, inst.k))
        grad = hamiltonian_mu_gradient(
            inst, m, x_levels[m], u.process.levels[m], p_mean[m], q[m], mu)[j, i]
        bumped = [np.stack([lvl, lvl]) for lvl in levels]
        bumped[m][0, j, i] += h
        bumped[m][1, j, i] -= h
        costs = lq.shifted_cost_many(inst, bumped, mu)
        fd = (costs[0] - costs[1]) / (2.0 * h)
        # node weight and step size convert the Hamiltonian slope into a
        # partial derivative of the shifted objective
        predicted = -tree.path_prob(m) * tree.dt * grad
        worst = max(worst, abs(fd - predicted))
    assert worst <= 1e-6


def test_checker_landscape_is_sharp(bench2, bits_control):
    """Each suboptimal control must be rejected, and by the right check."""
    mu = -2.0
    for bits in all_scalar_binary_controls(bench2.tree):
        control = bits_control(bench2.tree, bits)
        report = lq.run_checks(bench2, control, mu)
        if bits == [0, 0, 0]:
            assert report.ok
            assert report.stationarity.violation <= 0.0
            assert report.general_smp.violation <= 1e-12
        elif bits[0] == 0:
            # wrong tail decisions look stationary but fail the spike test
            assert report.stationarity.ok
            assert report.remark1.ok
            assert not report.general_smp.ok
            assert report.general_smp.violation == pytest.approx(0.5, abs=1e-10)
        else:
            assert not report.stationarity.ok
            assert report.stationarity.violation == pytest.approx(1.0, abs=1e-10)
            assert not report.remark1.ok
            assert not report.general_smp.ok
        assert report.cost == report.cost_shifted


def test_sign_check_flags_the_root(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    result = lq.check_remark1_signs(bench2, lq.Trajectory.of(bench2, ones), -2.0)
    assert not result.ok
    assert result.violation == pytest.approx(1.0, abs=1e-12)
    assert (result.level, result.index) == (0, 0)


def test_checks_skip_what_does_not_apply(bench2, free1):
    half = lq.ControlProcess.constant(free1, bench2.tree, [0.5], "relaxed")
    report = lq.run_checks(bench2, half, -2.0)
    assert report.remark1 is None
    assert report.general_smp is None
    cut = lq.ControlDomain(k=1, halfspaces=((np.array([1.0]), 1.0),))
    constrained = lq.ControlProcess.constant(cut, bench2.tree, [0.0], "binary")
    report = lq.run_checks(bench2, constrained, -2.0)
    assert report.remark1 is None
    assert report.general_smp is not None
    d = report.to_dict()
    assert "remark1_signs" not in d["checks"]
    assert "general_smp" in d["checks"]


def test_second_adjoint_exponential_growth():
    # A = 1, Q = 0, G = 1 at dt = 1/2: F = 1.5 scales P by F^2 per step
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, A=1.0, G=1.0)
    second = lq.solve_second_adjoint(inst)
    assert second.shape == (3, 1, 1)
    np.testing.assert_allclose(second.ravel(), [-5.0625, -2.25, -1.0],
                               rtol=0, atol=1e-14)


def test_second_adjoint_benchmark_is_linear_in_time(bench2):
    second = lq.solve_second_adjoint(bench2)
    tree = bench2.tree
    # A = C = 0, so P(t) = 2t - 4 solves the discrete step exactly
    expected = [2 * (m * tree.dt) - 4 for m in range(tree.depth + 1)]
    np.testing.assert_allclose(second.ravel(), expected, rtol=0, atol=1e-12)


def test_second_adjoint_gives_the_dense_diagonal_blocks():
    """Each node's diagonal block of N is R_m - (D^T P D + dt B^T P B) at
    P = P_{m+1}: the curvature of a one-node switch, read off the dense
    oracle."""
    for seed in range(30):
        inst, _ = lq.random_instance(seed, n_max=3, k_max=3, depth_max=4,
                                     with_sources=bool(seed % 2))
        dense = lq.assemble_N_dense(inst).matrix
        second = lq.solve_second_adjoint(inst)
        k, dt = inst.k, inst.tree.dt
        offset = 0
        for m in range(inst.depth):
            b, d, p = inst.B[m], inst.D[m], second[m + 1]
            block = inst.R[m] - (d.T @ p @ d + dt * b.T @ p @ b)
            for j in range(inst.tree.num_nodes(m)):
                at = slice(offset + j * k, offset + (j + 1) * k)
                np.testing.assert_allclose(dense[at, at], block, rtol=0, atol=1e-12,
                                           err_msg=f"seed {seed}, node ({m}, {j})")
            offset += inst.tree.num_nodes(m) * k


def test_second_order_check_is_the_exact_one_switch_gain():
    """The spike deficit is the cost decrease of a one-node switch per unit
    path weight, so the check rejects exactly the controls that some
    one-node switch improves."""
    rng = np.random.default_rng(11)
    flagged = 0
    for seed in range(30):
        inst, domain = lq.random_instance(seed, n_max=3, k_max=3, depth_max=3)
        tree, verts = inst.tree, domain.binary_vertices()
        for _ in range(10):
            levels = [verts[rng.integers(len(verts), size=tree.num_nodes(m))]
                      for m in range(tree.depth)]
            control = lq.ControlProcess.from_levels(domain, tree, levels, "binary")
            base = lq.cost_direct(inst, control)
            # every one-node switch, costed by brute force
            gains = {}
            for m in range(tree.depth):
                weight = tree.path_prob(m) * tree.dt
                for j in range(tree.num_nodes(m)):
                    batch = [np.repeat(lvl[None], len(verts), axis=0) for lvl in levels]
                    batch[m][:, j] = verts
                    costs = lq.cost_many(inst, batch)
                    for v, cost in enumerate(costs):
                        gains[m, j, tuple(verts[v])] = (base - cost) / weight
            result = lq.check_general_smp(inst, lq.Trajectory.of(inst, control))
            witness = gains[result.level, result.index, result.witness]
            assert abs(result.violation - witness) <= 1e-12 * max(1.0, abs(witness))
            best = max(gains.values())
            assert abs(result.violation - best) <= 1e-12 * max(1.0, abs(best))
            assert result.ok == (best <= CHECK_TOL), f"seed {seed}: gain {best}"
            flagged += not result.ok
    assert 0 < flagged < 300  # both verdicts occur


def test_second_order_check_accepts_exhaustive_optima():
    """At an optimum every deficit is at most 0, and the control's own
    vertex scores exactly 0, so the spike test reports the node, vertex
    and violation the per-vertex form reports."""
    for seed in range(40):
        inst, domain = lq.random_instance(seed, depth_max=3)
        traj = lq.Trajectory.of(inst, lq.brute_force_binary(inst, domain).control)
        result = lq.check_general_smp(inst, traj)
        assert result.ok, f"seed {seed}: violation {result.violation}"
        assert result == general_smp_reference(inst, traj), seed


def test_msa_finds_the_benchmark_optimum(bench2, free1):
    result = lq.msa_candidate_search(bench2, free1, mu=-2.0)
    assert result.status == "fixed-point"
    assert result.cost == 0.0
    assert result.iterations == 1
    for m in range(bench2.tree.depth):
        assert not np.any(result.control.process.levels[m])
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    from_ones = lq.msa_candidate_search(bench2, free1, mu=-2.0, start=ones)
    assert from_ones.status == "fixed-point"
    assert from_ones.iterations == 2
    assert from_ones.cost == 0.0
    assert len(from_ones.history) == 2


def test_msa_iteration_cap(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    capped = lq.msa_candidate_search(bench2, free1, mu=-2.0, start=ones,
                                     max_iter=1)
    assert capped.status == "max-iter"
    assert capped.iterations == 1


def test_msa_argument_validation(bench2, free1):
    other_tree = lq.example5_instance(3).tree
    stray = lq.ControlProcess.constant(free1, other_tree, np.zeros(1))
    with pytest.raises(ValueError):
        lq.msa_candidate_search(bench2, free1, mu=-2.0, start=stray)


def test_msa_against_enumeration():
    """Fixed points of the sweep, their quality, and the second-order filter.

    Across twenty seeded instances the sweep reaches the global optimum on
    most (observed: 13), every returned candidate is first-order stationary,
    and every candidate that misses the optimum is rejected by the
    second-order check.  The counts are deterministic.
    """
    matches = 0
    missed_but_flagged = 0
    for seed in range(20):
        inst, domain = lq.random_instance(seed)
        mu = lq.lambda_max(inst).mu
        search = lq.msa_candidate_search(inst, domain, mu)
        assert search.status == "fixed-point"
        oracle = lq.brute_force_binary(inst, domain)
        traj = lq.Trajectory.of(inst, search.control)
        assert lq.check_stationarity(inst, traj, mu).ok, f"seed {seed}"
        if search.cost <= oracle.cost + 1e-9:
            matches += 1
        else:
            smp = lq.check_general_smp(inst, traj)
            assert not smp.ok, f"seed {seed}: local candidate slipped through"
            missed_but_flagged += 1
    assert matches >= 12
    assert matches + missed_but_flagged == 20


@pytest.fixture
def sweep_counter(monkeypatch):
    """Count forward and backward sweeps by wrapping the two level loops."""
    import lqshift.model as model
    import lqshift.operators as operators

    calls = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(model, "_forward_levels",
                        counting("forward", model._forward_levels))
    monkeypatch.setattr(operators, "_bsde_levels",
                        counting("backward", operators._bsde_levels))
    return calls


def test_one_trajectory_per_candidate(sweep_counter):
    """run_checks sweeps once each way, and its report equals the one built
    from a separately built Trajectory, whose gradient matches the one from
    a separate forward state and first adjoint."""
    rng = np.random.default_rng(5)
    for seed in range(20):
        inst, domain = lq.random_instance(seed)
        mu = lq.lambda_max(inst).mu
        tree, verts = inst.tree, domain.binary_vertices()
        levels = [verts[rng.integers(len(verts), size=tree.num_nodes(m))]
                  for m in range(tree.depth)]
        control = lq.ControlProcess.from_levels(domain, tree, levels, "binary")
        sweep_counter.update(forward=0, backward=0)
        report = lq.run_checks(inst, control, mu)
        assert sweep_counter == {"forward": 1, "backward": 1}, f"seed {seed}"

        state = x_levels, _ = lq.forward_state(inst, control)
        _, p_mean, q = lq.solve_first_adjoint(inst, state, control)
        traj = lq.Trajectory.of(inst, control)
        gradient = list(traj.gradient(inst, mu))
        for m in range(tree.depth):
            expected = hamiltonian_mu_gradient(
                inst, m, x_levels[m], control.process.levels[m], p_mean[m], q[m], mu)
            np.testing.assert_array_equal(gradient[m], expected)
        cost = lq.cost_direct(inst, control)
        separate = lq.MPReport(
            mu=mu, cost=cost, cost_shifted=lq.shifted_cost(inst, control, mu, cost),
            stationarity=lq.check_stationarity(inst, traj, mu),
            remark1=lq.check_remark1_signs(inst, traj, mu),
            general_smp=lq.check_general_smp(inst, traj))
        assert report.to_dict() == separate.to_dict(), f"seed {seed}"


def test_msa_sweeps_once_per_iteration(sweep_counter, bench2, free1):
    for seed in range(20):
        inst, domain = lq.random_instance(seed)
        for mu in (0.0, lq.lambda_max(inst).mu):
            sweep_counter.update(forward=0, backward=0)
            result = lq.msa_candidate_search(inst, domain, mu)
            assert result.status in ("fixed-point", "cycle")
            assert sweep_counter["forward"] <= result.iterations
            assert sweep_counter["backward"] <= result.iterations
    # at the cap the last iterate is costed, with one forward sweep only
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    sweep_counter.update(forward=0, backward=0)
    capped = lq.msa_candidate_search(bench2, free1, mu=-2.0, start=ones, max_iter=1)
    assert capped.status == "max-iter"
    assert sweep_counter == {"forward": 2, "backward": 1}


def _traced(call):
    """``(result, kept, peak)`` of ``call()``, in bytes newly allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - start, peak - start


def test_candidates_keep_their_gradient_base_not_their_sweeps():
    """A Trajectory keeps its cost and gradient base; the state and adjoint
    level lists it is built from are dropped.  Sizes are in leaf arrays of
    8 * 2**16 bytes: one per-node array of a scalar process at depth 16."""
    inst = lq.example5_instance(16)
    free = lq.ControlDomain.free(1)
    ones = lq.ControlProcess.constant(free, inst.tree, np.ones(1), "binary")
    leaf = 8 * 2 ** 16

    traj, kept, _ = _traced(lambda: lq.Trajectory.of(inst, ones))
    assert kept <= 2 * leaf
    del traj
    _, _, peak = _traced(lambda: lq.run_checks(inst, ones, -3.0))
    assert peak <= 10 * leaf
    result, kept, _ = _traced(lambda: lq.msa_candidate_search(inst, free, -3.0, start=ones))
    assert result.status == "fixed-point"
    assert kept <= 3 * leaf


def _random_binary_control(rng, domain, tree):
    verts = domain.binary_vertices()
    levels = [verts[rng.integers(len(verts), size=tree.num_nodes(m))]
              for m in range(tree.depth)]
    return lq.ControlProcess.from_levels(domain, tree, levels, "binary")


def test_spike_test_matches_the_per_vertex_deficit():
    """Reading ``delta`` and ``1/2 delta H`` from vertex-pair tables gives
    the per-vertex deficit bit for bit: the same node, vertex and violation."""
    rng = np.random.default_rng(12)
    for seed in range(120):
        inst, domain = lq.random_instance(seed, n_max=3, k_max=3, depth_max=7)
        if seed % 2 and inst.k > 1:  # a cut that drops the all-ones vertex
            domain = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), inst.k - 1.0),))
        for _ in range(5):
            traj = lq.Trajectory.of(inst, _random_binary_control(rng, domain, inst.tree))
            assert lq.check_general_smp(inst, traj) == general_smp_reference(inst, traj), seed


def test_spike_test_is_exact_on_a_tie_beside_a_large_gradient():
    """The second control coordinate acts on nothing, so switching it off
    the control (1, 0) changes the cost by exactly 0.  The gradient's first
    entry is near 1e8, where one rounding is worth more than CHECK_TOL; the
    spike test multiplies it by an exact 0 and certifies the control."""
    inst = lq.LQInstance.constant(depth=5, n=1, k=2, A=0.5, B=[[1.0, 0.0]], C=0.3,
                                  D=[[0.7, 0.0]], Q=1.0, R=[[-0.3, 0.0], [0.0, 0.0]],
                                  G=-3e8, x0=[1.0])
    control = lq.ControlProcess.constant(lq.ControlDomain.free(2), inst.tree,
                                         np.array([1.0, 0.0]), "binary")
    traj = lq.Trajectory.of(inst, control)
    assert np.max(np.abs(next(traj.gradient(inst, 0.0)))) > 1e8
    result = lq.check_general_smp(inst, traj)
    assert result == general_smp_reference(inst, traj)
    assert result.ok and result.violation == 0.0


def test_spike_test_refuses_a_relaxed_control():
    inst, _ = lq.random_instance(3, k_max=2)
    control = lq.ControlProcess.constant(lq.ControlDomain.free(inst.k), inst.tree,
                                         np.full(inst.k, 0.5), "relaxed")
    with pytest.raises(ValueError, match="binary controls"):
        lq.check_general_smp(inst, lq.Trajectory.of(inst, control))


def test_spike_test_builds_no_per_vertex_array():
    """At depth 14 with n = k = 2 the spike test peaks below three
    ``(2**13, V, k)`` arrays, the leaf level's share of a per-vertex
    ``delta``; the per-vertex form peaks near four."""
    inst = next(inst for inst, _ in (lq.random_instance(seed) for seed in range(100))
                if inst.n == inst.k == 2)
    inst = lq.with_depth(inst, 14)
    free = lq.ControlDomain.free(2)
    traj = lq.Trajectory.of(inst, _random_binary_control(np.random.default_rng(5), free,
                                                         inst.tree))
    verts = free.binary_vertices()
    per_vertex = 8 * 2 ** 13 * verts.size
    _, _, peak = _traced(lambda: lq.check_general_smp(inst, traj))
    assert peak < 3 * per_vertex


def test_overflow_is_refused_not_certified():
    """A sweep that overflows gives no trajectory, and a check never takes
    a NaN or infinite score for its margin."""
    inst = lq.LQInstance.constant(depth=4, n=1, k=1, A=1e300, D=1.0, Q=2.0, R=-1.0,
                                  G=2.0, x0=[1e300])
    ones = lq.ControlProcess.constant(lq.ControlDomain.free(1), inst.tree, np.ones(1),
                                      "binary")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflows"):
        lq.Trajectory.of(inst, ones)
    for bad in (np.nan, np.inf):
        scores = [np.array([[0.5, -1.0]]), np.array([[0.0, 0.0], [2.0, bad]])]
        with pytest.raises(ValueError, match=r"overflows at node \(1, 1\)"):
            _worst("stationarity", scores, [(0,), (1,)])
    with pytest.raises(ValueError, match=r"overflows at node \(0, 0\)"):
        _worst("stationarity", [np.full((1, 2), -np.inf)], [(0,), (1,)])


def _nudged(levels):
    """``levels`` with every 1 moved 5e-10 below it, inside the membership tolerance."""
    return [np.where(lvl == 1.0, 1.0 - 5e-10, lvl) for lvl in levels]


def test_near_binary_controls_get_their_vertex_verdicts():
    """A value within the membership tolerance of a vertex is checked as
    that vertex, for enumerated optima and for impostors one switch away."""
    for seed in range(60):
        inst, domain = lq.random_instance(seed, n_max=2, k_max=2, depth_max=3)
        mu = lq.lambda_max(inst).mu
        optimum = [np.array(lvl) for lvl in lq.brute_force_binary(inst, domain).control.levels]
        impostor = [lvl.copy() for lvl in optimum]
        impostor[0][0, 0] = 1.0 - impostor[0][0, 0]
        for label, levels in (("optimum", optimum), ("impostor", impostor)):
            try:
                exact = lq.ControlProcess.from_levels(domain, inst.tree, levels)
            except ValueError:  # the switch left a cut domain
                continue
            near = lq.ControlProcess.from_levels(domain, inst.tree, _nudged(levels))
            report = lq.run_checks(inst, exact, mu).to_dict()
            assert lq.run_checks(inst, near, mu).to_dict() == report, (seed, label)
            assert report["ok"] == (label == "optimum"), (seed, label)
