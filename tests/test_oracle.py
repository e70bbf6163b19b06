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


def test_brute_force_refuses_nan_costs(free1):
    """Costs that overflow to NaN have no minimum, so no control is returned."""
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, A=1e300, D=1.0, Q=2.0, R=-1.0,
                                  G=2.0, x0=[1e300])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN cost"):
        lq.brute_force_binary(inst, free1)


def test_brute_force_chunking_is_invisible(monkeypatch, free1):
    """Smaller batches split the same enumeration, and find the same optimum."""
    cases = [lq.random_instance(14, depth_max=3), (lq.example5_instance(3), free1)]
    wants = [lq.brute_force_binary(inst, domain) for inst, domain in cases]
    for chunk in (1, 3, 7):
        monkeypatch.setattr(oracle_mod, "ENUM_CHUNK", chunk)
        for (inst, domain), want in zip(cases, wants):
            _assert_same_oracle(lq.brute_force_binary(inst, domain), want, chunk)


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
    a, dom_a = lq.random_instance(123, with_sources=True)
    b, dom_b = lq.random_instance(123, with_sources=True)
    assert dom_a.k == dom_b.k
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "G", "x0"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c, _ = lq.random_instance(124, with_sources=True)
    assert c.depth != a.depth or not np.array_equal(a.A, c.A)
    quiet, _ = lq.random_instance(5, with_sources=False)
    assert not np.any(quiet.b) and not np.any(quiet.sigma)
    for seed in range(10):
        inst, domain = lq.random_instance(seed)
        assert 1 <= inst.n <= 2 and 1 <= inst.k <= 2 and 1 <= inst.depth <= 2
        assert domain.k == inst.k
        np.testing.assert_array_equal(inst.G, inst.G.T)


def test_equivalence_certificate_benchmark(bench2, free1):
    cert, oracle = lq.equivalence_check(bench2, free1, samples=512, seed=0)
    assert cert.ok
    assert cert.lambda_max == pytest.approx(2.0, abs=1e-8)
    assert cert.mu == pytest.approx(-2.0, abs=1e-8)
    assert cert.binary_enumerated == 8
    assert cert.binary_max_shift_gap == 0.0
    assert cert.relaxed_samples == 512
    assert cert.relaxed_margin >= 0.0
    assert cert.stationarity_ok
    assert cert.warnings == ()
    assert oracle.cost == 0.0
    d = cert.to_dict()
    assert d["binary"]["enumerated"] == 8
    assert d["relaxed"]["samples"] == 512
    assert d["ok"] is True


def test_equivalence_on_random_instances():
    for seed in (0, 1, 2):
        inst, domain = lq.random_instance(seed)
        cert, _ = lq.equivalence_check(inst, domain, samples=512, seed=seed)
        assert cert.ok, f"seed {seed}"
        assert cert.binary_max_shift_gap == 0.0
        assert cert.relaxed_margin >= -1e-9


def test_relaxed_samples_are_costed_in_slices(monkeypatch):
    """One draw, costed slice by slice, gives the minimum of the whole batch."""
    batches = []
    costed = oracle_mod.shifted_cost_many

    def counting(inst, levels, mu):
        batches.append(levels[0].shape[0])
        return costed(inst, levels, mu)

    monkeypatch.setattr(oracle_mod, "RELAXED_SLICE", 100)
    monkeypatch.setattr(oracle_mod, "shifted_cost_many", counting)
    for seed in range(4):
        inst, _ = lq.random_instance(seed, k_max=2, with_sources=True)
        domain = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 0.9),))
        batches.clear()
        cert, _ = lq.equivalence_check(inst, domain, mu=-2.0, samples=250, seed=seed)
        assert batches == [100, 100, 50]
        draw = lq.sample_relaxed_levels(domain, inst.tree, 250, np.random.default_rng(seed))
        whole = costed(inst, draw, -2.0)
        assert cert.relaxed_min_cost == float(np.min(whole)), f"seed {seed}"


def _enum_input(seed):
    """The ``enum-equivalence`` benchmark input of ``seed``: 7 vertices a node."""
    spec = importlib.util.spec_from_file_location("reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    doc = reference.draw_instance(np.random.default_rng([seed, 4]), n=2, k=3, depth=3,
                                  halfspaces=[((1.0, 1.0, 1.0), 2.0)])
    return lq.load_instance(doc)


def _recording(monkeypatch):
    """Record the codes ``brute_force_binary`` decodes and the rows it recosts."""
    decoded, rows = [], []
    decode, counted = oracle_mod._decode_levels, oracle_mod.cost_many

    def recording(tree, verts, codes):
        decoded.append(codes.copy())
        return decode(tree, verts, codes)

    def counting(inst, levels):
        costs = counted(inst, levels)
        rows.append(int(np.size(costs)))
        return costs

    monkeypatch.setattr(oracle_mod, "_decode_levels", recording)
    monkeypatch.setattr(oracle_mod, "cost_many", counting)
    return decoded, rows


def test_contender_units_are_recosted_whole_and_once(monkeypatch):
    """The screen keeps whole units, and ``cost_many`` sees each control once.

    The recosted codes are whole units in increasing order, fewer than all
    controls, and they hold every control whose own cost is the minimum.
    """
    cases = [(f"seed {seed}",) + lq.random_instance(seed, depth_max=3) for seed in range(6)]
    cases.append(("enum seed 1",) + _enum_input(1))
    decoded, rows = _recording(monkeypatch)
    for label, inst, domain in cases:
        decoded.clear()
        rows.clear()
        cert, oracle = lq.equivalence_check(inst, domain, samples=64, seed=0)
        codes = np.concatenate(decoded[:-1])  # the last decodes the returned control
        # every last-level node is free at these sizes, so a unit is one
        # code range of this many controls
        verts = domain.binary_vertices()
        block = verts.shape[0] ** inst.tree.num_nodes(inst.depth - 1)
        assert sum(rows) == codes.shape[0] == oracle.recosted, label
        # at depth 1 the only unit is every control
        assert oracle.recosted < oracle.enumerated or oracle.enumerated == block, label
        units = codes.reshape(-1, block)
        assert np.all(units - units[:, :1] == np.arange(block)), label
        assert np.all(units[:, 0] % block == 0) and np.all(np.diff(codes) > 0), label

        everything = np.arange(oracle.enumerated, dtype=np.int64)
        costs = np.concatenate([
            lq.cost_many(inst, oracles.decode_levels_reference(inst.tree, verts, part))
            for part in np.array_split(everything, -(-oracle.enumerated // 8192))])
        minimizers = np.flatnonzero(costs == oracle.cost)
        assert minimizers.shape[0] == oracle.tie_count, label
        assert np.all(np.isin(minimizers, codes)), label
        assert cert.binary_enumerated == oracle.enumerated, label
        assert set(cert.to_dict()) == {"mu", "lambda_max", "concavity", "binary",
                                       "relaxed", "stationarity", "warnings", "ok"}
        assert set(cert.to_dict()["binary"]) == {"enumerated", "best_cost",
                                                 "max_shift_gap"}
        assert set(oracle.to_dict()) == {"cost", "enumerated", "tie_count"}


def test_nan_least_totals_stay_contenders(monkeypatch, free1):
    """A unit whose least total is NaN is recosted, and the cut comes from
    the smallest total that is not NaN (inf when every total is NaN)."""
    inst, domain = lq.random_instance(4, depth_max=3)
    assert inst.depth == 3  # 64 units of 256 controls
    want, _ = oracles.brute_force_reference(inst, domain)
    decoded, rows = _recording(monkeypatch)
    tables = oracle_mod._cost_tables

    def first_unit_nan(inst, verts, codes, lead):
        head, table = tables(inst, verts, codes, lead)
        return np.where(codes == 0, np.nan, head), table

    monkeypatch.setattr(oracle_mod, "_cost_tables", first_unit_nan)
    got = lq.brute_force_binary(inst, domain)
    _assert_same_oracle(got, want, "first unit NaN")
    np.testing.assert_array_equal(decoded[0][:256], np.arange(256))
    assert got.recosted < got.enumerated

    # every cost overflows to NaN; a finite bound keeps the cut from being NaN
    monkeypatch.setattr(oracle_mod, "_cost_tables", tables)
    monkeypatch.setattr(oracle_mod, "_cost_bound", lambda inst: 1.0)
    rows.clear()
    nan = lq.LQInstance.constant(depth=2, n=1, k=1, A=1e300, D=1.0, Q=2.0, R=-1.0,
                                 G=2.0, x0=[1e300])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN cost"):
        lq.brute_force_binary(nan, free1)
    assert sum(rows) == 8


def test_wide_vertex_sets_keep_one_free_node(monkeypatch):
    """More than ``ENUM_CHUNK`` vertices a node: a unit keeps one free node,
    so a table sweep forms no more rows than there are controls."""
    child = textwrap.dedent("""
        import json, resource
        import lqshift as lq
        inst, domain = lq.random_instance(7, n_max=1, k_max=14, depth_max=1)
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        got = lq.brute_force_binary(inst, domain)
        print(json.dumps([got.cost, got.tie_count, got.enumerated,
                          [level.tolist() for level in got.control.levels]]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cost, tie_count, enumerated, levels = json.loads(done.stdout)
    inst, domain = lq.random_instance(7, n_max=1, k_max=14, depth_max=1)
    assert inst.k == 14 and enumerated == 2 ** 14
    want, _ = oracles.brute_force_reference(inst, domain)
    assert (cost, tie_count, enumerated) == (want.cost, want.tie_count, want.enumerated)
    for a, b in zip(levels, want.control.levels, strict=True):
        np.testing.assert_array_equal(np.asarray(a), b)

    rows = []
    tables = oracle_mod._cost_tables

    def counting(inst, verts, codes, lead):
        rows.append(codes.shape[0] * verts.shape[0])
        return tables(inst, verts, codes, lead)

    monkeypatch.setattr(oracle_mod, "_cost_tables", counting)
    inst, domain = lq.random_instance(0, depth_max=2)
    assert (inst.k, inst.depth) == (2, 2)
    want = lq.brute_force_binary(inst, domain)
    for chunk in (1, 3):
        monkeypatch.setattr(oracle_mod, "ENUM_CHUNK", chunk)
        rows.clear()
        _assert_same_oracle(lq.brute_force_binary(inst, domain), want, f"chunk {chunk}")
        assert sum(rows) <= want.enumerated == 64, f"chunk {chunk}"


def test_shift_gap_is_zero_on_every_binary_control():
    """Shifted and raw costs agree on binary controls: ``<u, u> - <1, u>``
    is exactly 0.0 on every enumerated control, and the certificate's bound
    from the vertices reports a gap of exactly 0.0 at a nonzero shift."""
    cases = []
    for seed in range(6):
        inst, free = lq.random_instance(seed, depth_max=3)
        cases.append((f"seed {seed}", inst, free))
    inst, _ = lq.random_instance(4, depth_max=3)
    cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.0),))
    cases.append(("seed 4 cut", inst, cut))
    for label, inst, domain in cases:
        _, max_penalty = oracles.brute_force_reference(inst, domain)
        assert max_penalty == 0.0, label
        cert, _ = lq.equivalence_check(inst, domain, samples=64, seed=0)
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


def test_screened_oracle_matches_reference(monkeypatch):
    """Screened totals plus exact recosting give the plain enumeration's result."""
    cases = []
    for seed in range(200):
        inst, free = lq.random_instance(seed, n_max=3, k_max=3, depth_max=4)
        cut = lq.ControlDomain(k=inst.k, halfspaces=((np.ones(inst.k), 1.0),))
        cases += [(f"seed {seed} free", inst, free), (f"seed {seed} cut", inst, cut)]
    free1 = lq.ControlDomain.free(1)
    for depth in (1, 2, 3, 4):
        cases.append((f"example 5 depth {depth}", lq.example5_instance(depth), free1))
    for depth in (2, 3):
        flat = lq.LQInstance.constant(depth=depth, n=1, k=1, D=1.0)
        cases.append((f"all ties depth {depth}", flat, free1))

    compared = small = 0
    for label, inst, domain in cases:
        try:
            want, _ = oracles.brute_force_reference(inst, domain)
        except lq.BudgetExceededError:
            continue
        compared += 1
        _assert_same_oracle(lq.brute_force_binary(inst, domain), want, label)
        if want.enumerated <= 128:
            small += 1
            for chunk in (1, 3, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(oracle_mod, "ENUM_CHUNK", chunk)
                    got = lq.brute_force_binary(inst, domain)
                _assert_same_oracle(got, want, f"{label} chunk {chunk}")
    assert compared > 300 and small > 150
    flat = lq.brute_force_binary(lq.LQInstance.constant(depth=3, n=1, k=1, D=1.0), free1)
    assert flat.tie_count == flat.recosted == flat.enumerated == 128


def test_shift_is_needed_for_vertex_optimality(free1):
    """With a convex cost the relaxed problem beats every binary control.

    Fractional controls strictly undercut the binary minimum until the
    spectral shift makes the objective concave; afterwards no sampled
    relaxed control does better.  This is the observable content of the
    equivalence certificate.
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
    cert, _ = lq.equivalence_check(inst, free1, samples=2000, seed=3)
    assert cert.ok
    assert cert.relaxed_margin > 1e-2


def test_equivalence_warns_on_fractional_vertices():
    inst = lq.LQInstance.constant(depth=1, n=1, k=2, D=[[0.4, 0.2]],
                                  Q=2.0, R=[[-1.0, 0.0], [0.0, -0.5]], G=1.0)
    cut = lq.ControlDomain(k=2, halfspaces=((np.array([1.0, 1.0]), 1.5),))
    cert, _ = lq.equivalence_check(inst, cut, samples=256, seed=0)
    assert len(cert.warnings) == 1
    assert "vertices" in cert.warnings[0]


def test_equivalence_respects_budget(bench2, free1):
    with pytest.raises(lq.BudgetExceededError):
        lq.equivalence_check(bench2, free1, samples=16, budget=4)
