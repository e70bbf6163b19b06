import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lqshift as lq
import lqshift.oracle as oracle_mod

import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = ROOT / "perfbench" / "reference.py"


def test_brute_force_benchmark(bench2, free1):
    result = lq.brute_force_binary(bench2, free1)
    assert result.enumerated == 8
    assert result.cost == 0.0
    assert result.tie_count == 1
    for m in range(2):
        assert not np.any(result.control.process.levels[m])
    d = result.to_dict()
    assert d == {"cost": 0.0, "enumerated": 8, "tie_count": 1}


def test_brute_force_budget(bench2, free1):
    with pytest.raises(lq.BudgetExceededError) as excinfo:
        lq.brute_force_binary(bench2, free1, budget=7)
    assert excinfo.value.required == 8
    assert excinfo.value.budget == 7


def test_deep_refusals_never_form_the_count(free1):
    """Depth 40 ranges over 2**(2**40 - 1) controls, an integer of 128 GiB;
    the refusal is decided and reported without it."""
    with pytest.raises(lq.BudgetExceededError) as excinfo:
        lq.brute_force_binary(lq.example5_instance(40), free1)
    assert excinfo.value.required == f"2**{2 ** 40 - 1}"
    assert str(excinfo.value) == (
        f"the optimum ranges over 2**{2 ** 40 - 1} binary controls, budget is 1000000")
    with pytest.raises(lq.BudgetExceededError) as excinfo:
        lq.brute_force_binary(lq.example5_instance(11), free1)
    assert excinfo.value.required == 2 ** 2047


def test_control_counts_are_ints_while_they_print():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    edge = int(limit * np.log2(10))
    forms = set()
    for exponent in range(edge - 3, edge + 4):
        count = oracle_mod._control_count(2, exponent)
        if 2 ** exponent < 10 ** limit:
            assert count == 2 ** exponent
            assert len(str(count)) <= limit
        else:
            assert count == f"2**{exponent}"
        forms.add(type(count))
    assert forms == {int, str}
    assert oracle_mod._control_count(3, 5) == 243
    # an exponent that has too many digits itself is written 2**N - 1
    depth = edge + 8
    assert oracle_mod._control_count(2, 2 ** depth - 1) == f"2**(2**{depth} - 1)"


def test_brute_force_refuses_nan_costs(free1):
    """Costs that overflow to NaN have no minimum, so no control is returned."""
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, A=1e300, D=1.0, Q=2.0, R=-1.0,
                                  G=2.0, x0=[1e300])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN cost"):
        lq.brute_force_binary(inst, free1)


def test_tie_enumeration_order_and_cap(free1):
    # a cost of zero everywhere makes every control a minimizer
    for depth, ties in ((2, 8), (3, 128)):
        flat = lq.LQInstance.constant(depth=depth, n=1, k=1, D=1.0)
        result = lq.brute_force_binary(flat, free1)
        assert result.tie_count == ties
        # the lexicographically smallest tie: code 0, all zeros
        for m in range(depth):
            assert not np.any(result.control.process.levels[m]), depth


def test_random_instance_is_deterministic():
    a, dom_a = oracles.random_instance(123, with_sources=True)
    b, dom_b = oracles.random_instance(123, with_sources=True)
    assert dom_a.k == dom_b.k
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "G", "x0"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c, _ = oracles.random_instance(124, with_sources=True)
    assert c.depth != a.depth or not np.array_equal(a.A, c.A)
    quiet, _ = oracles.random_instance(5, with_sources=False)
    assert not np.any(quiet.b) and not np.any(quiet.sigma)
    for seed in range(10):
        inst, domain = oracles.random_instance(seed)
        assert 1 <= inst.n <= 2 and 1 <= inst.k <= 2 and 1 <= inst.depth <= 2
        assert domain.k == inst.k
        np.testing.assert_array_equal(inst.G, inst.G.T)


def test_equivalence_certificate_benchmark(bench2, free1):
    cert, oracle = lq.equivalence_check(bench2, free1)
    assert cert.ok
    assert cert.lambda_max == pytest.approx(2.0, abs=1e-8)
    assert cert.mu == pytest.approx(-2.0, abs=1e-8)
    assert cert.binary_enumerated == 8
    assert cert.binary_max_shift_gap == 0.0
    assert cert.stationarity_ok
    assert cert.warnings == ()
    assert oracle.cost == 0.0
    d = cert.to_dict()
    assert d["binary"]["enumerated"] == 8
    # the free box's vertices are binary: the relaxed minimum is the binary one
    assert d["relaxed"] == {"min_cost": 0.0, "margin": 0.0, "slack": 0.5 * 1e-8}
    assert d["ok"] is True


def _cut_cases():
    """Seeded instances, free and under ``sum u <= 1`` (binary vertices) and
    ``sum u <= k - 1/2`` (fractional vertices), with the exact concavity
    shift."""
    for seed in range(12):
        inst, free = oracles.random_instance(seed, with_sources=seed % 2 == 0)
        yield f"seed {seed} free", inst, free
        for bound in (1.0, inst.k - 0.5):
            cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), bound),))
            yield f"seed {seed} cut {bound}", inst, cut


def _fractional(domain):
    verts = domain.relaxed_vertices()
    return bool(np.any(np.abs(verts * (verts - 1.0)) > 1e-12))


def _vertex_controls(inst, verts):
    """Every control taking a vertex of ``verts`` at every node."""
    nodes = inst.tree.num_nodes(inst.depth) - 1
    codes = np.arange(verts.shape[0] ** nodes, dtype=np.int64)
    return oracles.decode_levels_reference(inst.tree, verts, codes)


def test_equivalence_on_random_instances():
    for seed in (0, 1, 2):
        inst, domain = oracles.random_instance(seed)
        cert, oracle = lq.equivalence_check(inst, domain)
        assert cert.ok, f"seed {seed}"
        assert cert.binary_max_shift_gap == 0.0
        assert cert.relaxed_min_cost == cert.binary_best_cost == oracle.cost
        assert cert.relaxed_margin == 0.0


def test_binary_relaxed_vertices_give_the_binary_minimum():
    """Where every relaxed vertex is binary, the relaxed minimum is the
    binary optimum bit for bit, and the slack is tol/2 T max_v <v, v>."""
    compared = 0
    for label, inst, domain in _cut_cases():
        if _fractional(domain):
            continue
        cert, _ = lq.equivalence_check(inst, domain)
        assert cert.relaxed_min_cost == cert.binary_best_cost, label
        assert cert.relaxed_margin == 0.0, label
        top = float(np.max(np.sum(domain.binary_vertices() ** 2, axis=-1)))
        assert cert.relaxed_slack == 0.5 * cert.concavity.tol * inst.T * top, label
        compared += 1
    assert compared >= 24


def test_exact_relaxed_minimum_is_never_above_a_sample():
    """At the certified shift, no sampled relaxed control costs less than
    the exact relaxed minimum minus its slack."""
    for i, (label, inst, domain) in enumerate(_cut_cases()):
        cert, _ = lq.equivalence_check(inst, domain)
        assert cert.concavity.ok, label
        draw = lq.sample_relaxed_levels(domain, inst.tree, 2000, np.random.default_rng(i))
        least = float(np.min(lq.shifted_cost_many(inst, draw, cert.mu)))
        assert cert.relaxed_min_cost - cert.relaxed_slack <= least + 1e-12 * max(
            1.0, abs(least)), label


def test_relaxed_recursion_matches_every_vertex_control():
    """Over fractional vertices, the relaxed minimum is the least shifted
    cost of all V_r ** (2^N - 1) vertex-valued controls."""
    compared = 0
    for label, inst, domain in _cut_cases():
        if not _fractional(domain):
            continue
        cert, _ = lq.equivalence_check(inst, domain)
        costs = lq.shifted_cost_many(inst, _vertex_controls(inst, domain.relaxed_vertices()),
                                     cert.mu)
        want = float(np.min(costs))
        assert abs(cert.relaxed_min_cost - want) <= 1e-12 * oracles.cost_bound(inst), label
        assert cert.relaxed_margin == cert.relaxed_min_cost - cert.binary_best_cost, label
        compared += 1
    assert compared >= 12


def _enum_input(seed):
    """The ``enum-equivalence`` benchmark input of ``seed``: 7 vertices a node."""
    spec = importlib.util.spec_from_file_location("reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    doc = reference.draw_instance(np.random.default_rng([seed, 4]), n=2, k=3, depth=3,
                                  halfspaces=[((1.0, 1.0, 1.0), 2.0)])
    return lq.load_instance(doc)


def test_nan_branches_are_never_chosen(monkeypatch):
    """A vertex whose stage term is NaN on level 1 makes NaN the cost of
    every control that takes it there.  The recursion returns the optimum
    over the other controls, and refuses when every branch is NaN."""
    stage = oracle_mod._stage

    def nan_at(level, vertex):
        def patched(inst, m, x, u):
            out = stage(inst, m, x, u)
            hit = (m == level) & (np.arange(out.shape[-1]) == vertex)
            return np.where(hit, np.nan, out)
        return patched

    compared = 0
    for seed in range(12):
        inst, free = oracles.random_instance(seed, k_max=2, depth_max=3)
        if inst.depth < 2:
            continue
        cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.0),))
        for domain in (free, cut):
            verts = domain.binary_vertices()
            codes = np.arange(verts.shape[0] ** (2 ** inst.depth - 1), dtype=np.int64)
            levels = oracles.decode_levels_reference(inst.tree, verts, codes)
            costs = lq.cost_many(inst, levels)
            for vertex in range(verts.shape[0]):
                label = f"seed {seed}, {verts.shape[0]} vertices, NaN at {vertex}"
                poisoned = np.any(np.all(levels[1] == verts[vertex], axis=-1), axis=-1)
                best = float(np.min(costs[~poisoned]))
                hits = ~poisoned & (costs == best)
                with monkeypatch.context() as patch:
                    patch.setattr(oracle_mod, "_stage", nan_at(1, vertex))
                    got = lq.brute_force_binary(inst, domain)
                assert got.cost == best, label
                assert got.tie_count == np.count_nonzero(hits), label
                first = int(np.argmax(hits))
                for a, b in zip(got.control.levels, levels, strict=True):
                    np.testing.assert_array_equal(a, b[first], err_msg=label)
                compared += 1
    assert compared >= 20

    inst, domain = oracles.random_instance(0, depth_max=2)
    monkeypatch.setattr(oracle_mod, "_stage", lambda inst, m, x, u: np.full(
        np.broadcast_shapes(x.shape[:-1], u.shape[:-1]), np.nan))
    with pytest.raises(ValueError, match="every binary control has a NaN cost"):
        lq.brute_force_binary(inst, domain)


def _run_limited(child):
    """Run ``child`` in a fresh interpreter that sees ``src`` and ``tests``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT / "tests"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(child)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_wide_vertex_sets_keep_one_free_node():
    """2**14 vertices at the one node of a depth-1 tree: the recursion's
    (2V, n) leaf states and (1, V) stage totals fit a 1 GB address space,
    and it finds the plain enumeration's optimum."""
    done = _run_limited("""
        import json, resource
        import lqshift as lq
        from oracles import random_instance
        inst, domain = random_instance(7, n_max=1, k_max=14, depth_max=1)
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        got = lq.brute_force_binary(inst, domain)
        print(json.dumps([got.cost, got.tie_count, got.enumerated,
                          [level.tolist() for level in got.control.levels]]))
    """)
    assert done.returncode == 0, done.stderr
    cost, tie_count, enumerated, levels = json.loads(done.stdout)
    inst, domain = oracles.random_instance(7, n_max=1, k_max=14, depth_max=1)
    assert inst.k == 14 and enumerated == 2 ** 14
    want, _ = oracles.brute_force_reference(inst, domain)
    assert (cost, tie_count, enumerated) == (want.cost, want.tie_count, want.enumerated)
    for a, b in zip(levels, want.control.levels, strict=True):
        np.testing.assert_array_equal(np.asarray(a), b)


def test_deep_states_are_refused_before_they_are_allocated():
    """Example 5 at depth 16 has 4**16 leaf states, 32 GiB: with the budget
    out of the way, the node memory bound refuses them before any per-node
    array exists, inside a 1 GB address space."""
    done = _run_limited("""
        import resource
        import lqshift as lq
        inst, domain = lq.example5_instance(16), lq.ControlDomain.free(1)
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        try:
            lq.brute_force_binary(inst, domain, budget=10 ** 30000)
        except ValueError as exc:
            print(exc)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"per-node values need {8 * 4 ** 16} bytes"), done.stdout


def test_ties_multiply_up_the_tree_past_int64(free1):
    """Every one of the 2**127 controls of a depth-7 all-zero cost ties; the
    count is exact, and the first of them is all zeros."""
    flat = lq.LQInstance.constant(depth=7, n=1, k=1, D=1.0)
    got = lq.brute_force_binary(flat, free1, budget=10 ** 40)
    assert got.tie_count == got.enumerated == 2 ** 127
    assert type(got.tie_count) is int and got.cost == 0.0
    assert not any(np.any(level) for level in got.control.levels)


def test_example5_optimum_past_enumeration(free1):
    """Example 5 at depth 8 ranges over 2**255 controls; the recursion finds
    the zero control, cost 0.0, which ``cost_direct`` confirms."""
    inst = lq.example5_instance(8)
    got = lq.brute_force_binary(inst, free1, budget=2 ** 255)
    assert got.enumerated == 2 ** 255
    assert got.cost == 0.0 == lq.cost_direct(inst, got.control)
    assert not any(np.any(level) for level in got.control.levels)


def test_shift_gap_is_zero_on_every_binary_control():
    """Shifted and raw costs agree on binary controls: ``<u, u> - <1, u>``
    is exactly 0.0 on every enumerated control, and the certificate's bound
    from the vertices reports a gap of exactly 0.0 at a nonzero shift."""
    cases = []
    for seed in range(6):
        inst, free = oracles.random_instance(seed, depth_max=3)
        cases.append((f"seed {seed}", inst, free))
    inst, _ = oracles.random_instance(4, depth_max=3)
    cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.0),))
    cases.append(("seed 4 cut", inst, cut))
    for label, inst, domain in cases:
        _, max_penalty = oracles.brute_force_reference(inst, domain)
        assert max_penalty == 0.0, label
        cert, _ = lq.equivalence_check(inst, domain)
        assert cert.mu != 0.0, label
        assert cert.binary_max_shift_gap == 0.0, label
    assert cut.binary_vertices().shape[0] == 3


def _assert_same_oracle(got, want, label):
    assert got.cost == want.cost, label
    assert got.tie_count == want.tie_count, label
    assert got.to_dict() == want.to_dict(), label
    for a, b in zip(got.control.levels, want.control.levels, strict=True):
        np.testing.assert_array_equal(a, b, err_msg=label)


def test_decode_matches_digit_loop():
    rng = np.random.default_rng(3)
    for depth, v_count in ((1, 3), (2, 7), (3, 2), (3, 4), (4, 2), (12, 1)):
        tree = lq.build_tree(depth, 1.0)
        verts = np.arange(v_count, dtype=float)[:, None]
        total = v_count ** (tree.num_nodes(depth) - 1)
        codes = rng.integers(0, total, size=64, dtype=np.int64)
        got = lq.oracle._decode_levels(tree, verts, codes)
        want = oracles.decode_levels_reference(tree, verts, codes)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_screened_oracle_matches_reference():
    """The backward recursion gives the plain enumeration's result: control
    bytes, cost bits, ``enumerated`` and ``tie_count``."""
    cases = []
    for seed in range(200):
        inst, free = oracles.random_instance(seed, n_max=3, k_max=3, depth_max=4)
        cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.0),))
        cases += [(f"seed {seed} free", inst, free), (f"seed {seed} cut", inst, cut)]
    free1 = lq.ControlDomain.free(1)
    for depth in (1, 2, 3, 4):
        cases.append((f"example 5 depth {depth}", lq.example5_instance(depth), free1))
    for depth in (2, 3):
        flat = lq.LQInstance.constant(depth=depth, n=1, k=1, D=1.0)
        cases.append((f"all ties depth {depth}", flat, free1))
    cases.append(("enum seed 1",) + _enum_input(1))

    compared = 0
    for label, inst, domain in cases:
        try:
            want, _ = oracles.brute_force_reference(inst, domain)
        except lq.BudgetExceededError:
            continue
        compared += 1
        _assert_same_oracle(lq.brute_force_binary(inst, domain), want, label)
    assert compared > 300
    flat = lq.brute_force_binary(lq.LQInstance.constant(depth=3, n=1, k=1, D=1.0), free1)
    assert flat.tie_count == flat.enumerated == 128


def test_shift_is_needed_for_vertex_optimality(free1):
    """With a convex cost the relaxed problem beats every binary control.

    Fractional controls strictly undercut the binary minimum until the
    spectral shift makes the objective concave; afterwards the relaxed
    minimum is taken at a vertex, so it is the binary minimum, and no
    sampled relaxed control does better.  This is the observable content
    of the equivalence certificate.
    """
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, D=1.0, Q=2.0,
                                  S=[[-0.3]], R=1.0, G=2.0, x0=[1.0])
    report = lq.lambda_max(inst, method="dense")
    assert report.lambda_max > 0.0
    oracle = lq.brute_force_binary(inst, free1)
    rng = np.random.default_rng(7)
    levels = lq.sample_relaxed_levels(free1, inst.tree, 4000, rng)
    raw = lq.cost_many(inst, levels)
    shifted = lq.shifted_cost_many(inst, levels, report.mu)
    assert float(np.min(raw)) < oracle.cost - 5e-3
    assert float(np.min(shifted)) >= oracle.cost - 1e-9
    cert, _ = lq.equivalence_check(inst, free1)
    assert cert.ok
    assert cert.relaxed_min_cost == oracle.cost and cert.relaxed_margin == 0.0
    assert float(np.min(shifted)) > cert.relaxed_min_cost + 1e-2


def _fractional_cut_case(depth):
    """A concave cost that the fractional vertices (1, 1/2) and (1/2, 1) of
    ``u1 + u2 <= 1.5`` undercut."""
    inst = lq.LQInstance.constant(depth=depth, n=1, k=2, D=[[0.4, 0.2]],
                                  Q=2.0, R=[[-1.0, 0.0], [0.0, -0.5]], G=1.0)
    return inst, lq.ControlDomain(k=2, halfspaces=((np.array([1.0, 1.0]), 1.5),))


def test_fractional_vertex_below_the_binary_minimum_fails():
    """The relaxed minimum sits at a fractional vertex below the binary one:
    the certificate fails although concavity, the shift gap and
    stationarity hold, and the minimum is the least over every
    vertex-valued control."""
    for depth in (1, 2):
        inst, cut = _fractional_cut_case(depth)
        cert, _ = lq.equivalence_check(inst, cut)
        assert cert.concavity.ok and cert.binary_max_shift_gap == 0.0
        assert cert.relaxed_margin < -1e-2, depth
        assert not cert.ok and cert.warnings == ()
        costs = lq.shifted_cost_many(inst, _vertex_controls(inst, cut.relaxed_vertices()),
                                     cert.mu)
        assert cert.relaxed_min_cost == pytest.approx(float(np.min(costs)), rel=1e-12, abs=0)
        assert cert.relaxed_min_cost < cert.binary_best_cost


def test_equivalence_respects_budget(bench2, free1):
    with pytest.raises(lq.BudgetExceededError):
        lq.equivalence_check(bench2, free1, budget=4)
    # one binary vertex, two relaxed ones: the relaxed recursion counts
    # 2 ** 3 controls against the same budget
    half = lq.ControlDomain(k=1, halfspaces=((np.ones(1), 0.5),))
    assert lq.brute_force_binary(bench2, half, budget=4).enumerated == 1
    with pytest.raises(lq.BudgetExceededError) as excinfo:
        lq.equivalence_check(bench2, half, budget=4)
    assert excinfo.value.required == 8
    assert str(excinfo.value) == "the optimum ranges over 8 vertex-valued controls, budget is 4"
