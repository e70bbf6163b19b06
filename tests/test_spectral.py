import numpy as np
import pytest

import lqshift as lq
from lqshift.spectral import CONCAVITY_TOL, _power_iteration, _riccati_pd

import oracles


def scalar_relaxed(inst, value):
    domain = lq.ControlDomain.free(1)
    return lq.ControlProcess.constant(domain, inst.tree, [value], "relaxed")


def test_top_eigenvalue_closed_form():
    # the scalar benchmark has lambda_max = 3 - 2 / depth
    for depth in (2, 4):
        inst = lq.example5_instance(depth)
        expected = 3.0 - 2.0 / depth
        riccati = lq.lambda_max(inst)
        dense = lq.lambda_max(inst, method="dense")
        power, _, _, _ = _power_iteration(inst, 1e-9, 5000, 0)
        assert abs(riccati.lambda_max - expected) <= 1e-12
        assert abs(dense.lambda_max - expected) <= 1e-8
        assert abs(power - expected) <= 1e-8
        assert riccati.mu == -riccati.lambda_max
        assert dense.mu == -dense.lambda_max


def test_spectral_report_fields(bench2):
    dense = lq.lambda_max(bench2, method="dense")
    assert dense.iterations == 0
    _, iterations, residual, offset = _power_iteration(bench2, 1e-9, 5000, 0)
    assert iterations > 0
    assert offset > 0.0
    assert residual <= 1e-7
    riccati = lq.lambda_max(bench2)
    assert riccati.iterations > 0
    assert 0.0 < riccati.residual <= 1e-13 * max(1.0, riccati.lambda_max)
    assert list(riccati.to_dict()) == ["lambda_max", "mu", "iterations", "residual"]
    assert set(dense.to_dict()) == set(riccati.to_dict())
    for retired in ("exact", "auto", "power"):
        with pytest.raises(ValueError):
            lq.lambda_max(bench2, method=retired)


def test_power_iteration_reports_non_convergence(bench2):
    with pytest.raises(lq.ConvergenceError) as excinfo:
        _power_iteration(bench2, 1e-9, 1, 0)
    assert excinfo.value.iterations == 1
    assert excinfo.value.residual is not None


def test_negative_top_eigenvalue():
    # reversed signs make N negative definite, so the shift is positive
    flip = lq.LQInstance.constant(depth=1, n=1, k=1, D=1.0, Q=-2.0,
                                  R=1.0, G=-2.0)
    dense = lq.lambda_max(flip, method="dense")
    assert dense.lambda_max == pytest.approx(-1.0, abs=1e-12)
    riccati = lq.lambda_max(flip)
    assert riccati.lambda_max == pytest.approx(-1.0, abs=1e-12)
    power, _, _, offset = _power_iteration(flip, 1e-9, 5000, 0)
    assert power == pytest.approx(-1.0, abs=1e-8)
    assert offset > 0.0


def test_riccati_without_finite_bracket_raises():
    # F = 1 + dt * 1e200 overflows P at every shift, so no bracket exists
    inst = lq.LQInstance.constant(depth=2, n=1, k=1, A=1e200, B=1.0, G=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(lq.LqshiftError, match="no finite bracket"):
            lq.lambda_max(inst)


def test_shifted_cost_relaxed_benchmark(bench2):
    half = scalar_relaxed(bench2, 0.5)
    # J(1/2) = 3/16 and the shift term adds mu/2 * <u, u - 1> = 1/4 at mu = -2
    base = lq.cost_direct(bench2, half)
    assert base == pytest.approx(0.1875, abs=1e-14)
    assert lq.shifted_cost(bench2, half, -2.0, base) == pytest.approx(0.4375, abs=1e-14)


def test_shift_is_bitwise_invisible_on_binary_controls():
    inst, domain = lq.random_instance(4, depth_max=3, with_sources=True)
    verts = domain.binary_vertices()
    rng = np.random.default_rng(2)
    tree = inst.tree
    levels = [verts[rng.integers(0, len(verts),
                                 size=(64, tree.num_nodes(m)))]
              for m in range(tree.depth)]
    base = lq.cost_many(inst, levels)
    for mu in (-3.7, 0.0, 5.1):
        shifted = lq.shifted_cost_many(inst, levels, mu)
        # u * (u - 1) vanishes exactly in floating point on 0/1 values
        np.testing.assert_array_equal(shifted, base)


def test_certify_concavity_riccati(bench2):
    top = lq.lambda_max(bench2).lambda_max
    good = lq.certify_concavity(bench2, mu=-2.0 - 1e-6, top=top)
    assert good.ok
    assert good.worst == pytest.approx(-1e-6, abs=1e-12)
    assert good.pivot_min > 0.0
    assert 0 <= good.pivot_level < bench2.depth
    # the shifted spectrum {-0.5, -0.5, 0.5} at mu = -1.5 tops out at 0.5
    bad = lq.certify_concavity(bench2, mu=-1.5, top=top)
    assert not bad.ok
    assert bad.worst == pytest.approx(0.5, abs=1e-12)
    assert bad.pivot_min <= 0.0
    assert 0 <= bad.pivot_level < bench2.depth
    d = bad.to_dict()
    assert list(d) == ["mu", "ok", "worst", "tol", "pivot_min", "pivot_level"]
    assert d["ok"] is False and d["pivot_level"] == bad.pivot_level
    # the margins are deterministic, so reports stay byte-identical
    assert lq.certify_concavity(bench2, mu=-1.5, top=top) == bad


def _random_cases(count):
    for seed in range(count):
        inst, _ = lq.random_instance(seed, n_max=3, k_max=3, depth_max=5,
                                     with_sources=True)
        yield seed, inst


@pytest.fixture(scope="module")
def search_cases():
    """``(label, inst, report, reference, top)`` on Example 5 and random instances.

    ``reference`` is the bisection oracle's ``(hi, width, chains)`` and
    ``top`` the dense top eigenvalue, or Example 5's closed form
    ``3 - 2 / depth`` where the dense matrix would not fit.
    """
    cases = []
    for depth in list(range(2, 15)) + [200]:
        inst = lq.example5_instance(depth)
        top = (lq.lambda_max(inst, method="dense").lambda_max if depth <= 10
               else 3.0 - 2.0 / depth)
        cases.append((f"example 5 depth {depth}", inst, top))
    for seed, inst in _random_cases(200):
        cases.append((f"seed {seed}", inst, lq.lambda_max(inst, method="dense").lambda_max))
    return [(label, inst, lq.lambda_max(inst), oracles.riccati_bisect_reference(inst), top)
            for label, inst, top in cases]


def test_riccati_search_is_a_certificate(search_cases):
    for label, inst, report, (bisected, _, _), top in search_cases:
        hi, width = report.lambda_max, report.residual
        # both ends of the final bracket were tested: hi passes, the other end fails
        assert _riccati_pd(inst, hi)[0], label
        assert not _riccati_pd(inst, hi - width)[0], label
        assert 0.0 < width <= 1e-13 * max(1.0, abs(hi)), label
        scale = max(1.0, abs(top))
        assert abs(hi - bisected) <= 2e-13 * scale, label
        assert abs(hi - top) <= 1e-12 * scale, label
        # the upper end of the bracket passed the test, so it never undershoots
        assert hi >= top - 1e-13 * scale, label


def test_riccati_search_runs_few_chains(search_cases):
    for label, inst, report, _, _ in search_cases:
        if label.startswith("example 5") and inst.depth <= 14:
            assert report.iterations <= 16, label
    random = [(label, report.iterations, chains)
              for label, _, report, (_, _, chains), _ in search_cases
              if label.startswith("seed")]
    assert np.mean([count for _, count, _ in random]) <= 20
    for label, count, bisected in random:
        assert count <= 2 * bisected, label


def test_riccati_certificate_agrees_with_dense():
    cases = [(None, lq.example5_instance(4))] + list(_random_cases(40))
    for seed, inst in cases:
        top = lq.lambda_max(inst, method="dense").lambda_max
        searched = lq.lambda_max(inst).lambda_max
        for offset, expected in ((-1e-6, True), (1e-6, False)):
            mu = -top + offset
            riccati = lq.certify_concavity(inst, mu, top=searched)
            assert riccati.ok == (top + mu <= CONCAVITY_TOL) == expected, f"seed {seed}"
            assert riccati.worst == pytest.approx(top + mu, abs=1e-10)


def test_riccati_closed_form_at_depth():
    # depth 200 would need 2^200 nodes, so passing shows none are built
    for depth in (2, 4, 8, 14, 200):
        inst = lq.example5_instance(depth)
        report = lq.lambda_max(inst)
        assert report.lambda_max == pytest.approx(3.0 - 2.0 / depth, rel=1e-12), depth
        assert lq.certify_concavity(inst, report.mu, top=report.lambda_max).ok, depth
