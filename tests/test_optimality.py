import gc
import tracemalloc

import numpy as np
import pytest

import lqshift as lq

from conftest import all_scalar_binary_controls

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
        grad = lq.hamiltonian_mu_gradient(
            inst, m, x_levels[m], u.process.level(m), p_mean[m], q[m], mu)[j, i]
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
    result = lq.check_remark1_signs(bench2, ones, -2.0, 1e-8)
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
    expected = [2 * tree.time(m) - 4 for m in range(tree.depth + 1)]
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
            result = lq.check_general_smp(inst, control)
            witness = gains[result.level, result.index, result.witness]
            assert abs(result.violation - witness) <= 1e-12 * max(1.0, abs(witness))
            best = max(gains.values())
            assert abs(result.violation - best) <= 1e-12 * max(1.0, abs(best))
            assert result.ok == (best <= result.tol), f"seed {seed}: gain {best}"
            flagged += not result.ok
    assert 0 < flagged < 300  # both verdicts occur


def test_second_order_check_accepts_exhaustive_optima():
    for seed in range(8):
        inst, domain = lq.random_instance(seed)
        best = lq.brute_force_binary(inst, domain).control
        result = lq.check_general_smp(inst, best)
        assert result.ok, f"seed {seed}: violation {result.violation}"


def test_msa_finds_the_benchmark_optimum(bench2, free1):
    result = lq.msa_candidate_search(bench2, free1, mu=-2.0)
    assert result.status == "fixed-point"
    assert result.cost == 0.0
    assert result.iterations == 1
    for m in range(bench2.tree.depth):
        assert not np.any(result.control.process.level(m))
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
    for damping in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            lq.msa_candidate_search(bench2, free1, mu=-2.0, damping=damping)
    other_tree = lq.example5_instance(3).tree
    stray = lq.ControlProcess.zero(free1, other_tree)
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
        stat = lq.check_stationarity(inst, search.control, mu, 1e-8)
        assert stat.ok, f"seed {seed}"
        if search.cost <= oracle.cost + 1e-9:
            matches += 1
        else:
            smp = lq.check_general_smp(inst, search.control)
            assert not smp.ok, f"seed {seed}: local candidate slipped through"
            missed_but_flagged += 1
    assert matches >= 12
    assert matches + missed_but_flagged == 20


def test_msa_damping_changes_the_path_not_the_destination(bench2, free1):
    ones = lq.ControlProcess.constant(free1, bench2.tree, np.ones(1), "binary")
    slow = lq.msa_candidate_search(bench2, free1, mu=-2.0, start=ones,
                                   damping=0.34)
    assert slow.status == "fixed-point"
    assert slow.cost == 0.0
    # one node flips per sweep at this damping, so it takes longer
    assert slow.iterations > 2


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
    from a separate forward state and first adjoint per check."""
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
        for m in range(tree.depth):
            expected = lq.hamiltonian_mu_gradient(
                inst, m, x_levels[m], control.process.level(m), p_mean[m], q[m], mu)
            np.testing.assert_array_equal(traj.gradient(inst, mu)[m], expected)
        cost = lq.cost_direct(inst, control)
        separate = lq.MPReport(
            mu=mu, cost=cost, cost_shifted=lq.shifted_cost(inst, control, mu),
            stationarity=lq.check_stationarity(inst, control, mu),
            remark1=lq.check_remark1_signs(inst, control, mu),
            general_smp=lq.check_general_smp(inst, control))
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
