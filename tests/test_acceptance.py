"""End-to-end guarantees, one verdict line per area.

Every test here prints ``[ACCEPTANCE] <name>: PASS/FAIL`` (collected into the
terminal summary), exercises a complete pipeline rather than one function,
and pins its tolerance in place.  The tolerances are contracts, not knobs.
"""

import time
from contextlib import contextmanager

import numpy as np

import lqshift as lq
from lqshift.spectral import _power_iteration
from lqshift.tree import _weighted_dot_levels

from conftest import ACCEPTANCE_LINES, all_scalar_binary_controls
from oracles import (
    adjoint_apply,
    decompose_state,
    hamiltonian_mu_gradient,
    leaf_dot,
    quadratic_functional,
    random_instance,
)


@contextmanager
def criterion(name, budget_seconds):
    state = {"ok": False, "detail": ""}
    started = time.perf_counter()
    try:
        yield state
    except BaseException:
        _emit(name, False, state["detail"] or "raised")
        raise
    elapsed = time.perf_counter() - started
    state["detail"] = (state["detail"] + f" {elapsed:.1f}s").strip()
    _emit(name, state["ok"], state["detail"])
    assert state["ok"], f"{name}: {state['detail']}"
    assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s"


def _emit(name, ok, detail):
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)


def scalar_bits_control(tree, bits):
    domain = lq.ControlDomain.free(1)
    levels = []
    pos = 0
    for m in range(tree.depth):
        count = tree.num_nodes(m)
        levels.append(np.asarray(bits[pos:pos + count], float).reshape(count, 1))
        pos += count
    return lq.ControlProcess.from_levels(domain, tree, levels, "binary")


def closed_form_cost(inst, levels):
    """J(u) = sum_m E[u_m^2] (3/2 - t_{m+1}) dt on the scalar benchmark."""
    tree = inst.tree
    total = 0.0
    for m in range(tree.depth):
        u = levels[m]
        total += tree.path_prob(m) * float(np.sum(u * u)) \
            * (1.5 - (m + 1) * tree.dt) * tree.dt
    return total


def test_cost_identity_and_convergence():
    """Simulated costs match the closed form; refinement converges at order one."""
    with criterion("exact-cost-identity", 10.0) as state:
        inst = lq.example5_instance(6)
        tree = inst.tree
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            levels = [rng.integers(0, 2, size=(tree.num_nodes(m), 1)).astype(float)
                      for m in range(tree.depth)]
            direct = lq.cost_many(inst, [lvl[None] for lvl in levels])[0]
            expected = closed_form_cost(inst, levels)
            worst = max(worst, abs(direct - expected) / max(1.0, abs(expected)))

        # the all-ones cost approaches its continuous-time limit 1 at order 1
        depths = (2, 4, 8, 16)
        errors = []
        closed_worst = 0.0
        for depth in depths:
            fine = lq.example5_instance(depth)
            ones = lq.ControlProcess.constant(
                lq.ControlDomain.free(1), fine.tree, np.ones(1), "binary")
            value = lq.cost_direct(fine, ones)
            closed = 1.5 - (depth + 1.0) / (2.0 * depth)
            closed_worst = max(closed_worst, abs(value - closed))
            errors.append(abs(value - 1.0))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]

        state["ok"] = worst <= 1e-10 and closed_worst <= 1e-12 \
            and min(orders) >= 0.9
        state["detail"] = (f"identity {worst:.1e}, closed form {closed_worst:.1e}, "
                           f"order {min(orders):.3f}")


def test_benchmark_optimum_and_adjoints():
    """Enumeration, the first adjoint, and the second adjoint agree on the
    benchmark at every tractable depth."""
    with criterion("benchmark-optimum", 10.0) as state:
        worst_adjoint = 0.0
        worst_p = 0.0
        costs_ok = True
        for depth in (1, 2, 3, 4):
            inst = lq.example5_instance(depth)
            domain = lq.ControlDomain.free(1)
            oracle = lq.brute_force_binary(inst, domain)
            costs_ok = costs_ok and oracle.cost == 0.0 \
                and not any(np.any(lvl) for lvl in oracle.control.levels)

            xbar = lq.forward_state(inst, oracle.control)
            p, _, q = lq.solve_first_adjoint(inst, xbar, oracle.control)
            worst_adjoint = max([worst_adjoint] + [float(np.max(np.abs(a))) for a in p + q])

            second = lq.solve_second_adjoint(inst)
            for m in range(depth + 1):
                target = 2.0 * (m * inst.tree.dt) - 4.0
                worst_p = max(worst_p, float(np.max(np.abs(second[m] - target))))

        state["ok"] = costs_ok and worst_adjoint <= 1e-12 and worst_p <= 1e-12
        state["detail"] = (f"adjoint {worst_adjoint:.1e}, "
                           f"P defect {worst_p:.1e}")


def test_spectral_closed_form():
    """Both eigenvalue methods hit the closed form, and the Hamiltonian
    coefficients extrapolate to their continuous-time limits."""
    with criterion("spectral-closed-form", 30.0) as state:
        worst_eig = 0.0
        for depth in (2, 4, 8, 10):
            inst = lq.example5_instance(depth)
            expected = 3.0 - 2.0 / depth
            dense = lq.lambda_max(inst, method="dense")
            power, _, _, _ = _power_iteration(inst, 1e-9, 5000, 0)
            worst_eig = max(worst_eig, abs(dense.lambda_max - expected),
                            abs(power - expected))

        def coefficients(depth):
            inst = lq.example5_instance(depth)
            mu = -lq.lambda_max(inst, method="dense").lambda_max
            zero = np.zeros((1, 1))
            h_plus = float(lq.hamiltonian_mu(inst, 0, zero, np.ones((1, 1)),
                                             zero, zero, mu)[0])
            h_minus = float(lq.hamiltonian_mu(inst, 0, zero, -np.ones((1, 1)),
                                              zero, zero, mu)[0])
            return 0.5 * (h_plus + h_minus), 0.5 * (h_plus - h_minus)

        a10, b10 = coefficients(10)
        # the depth-10 deviation from the limit is exactly 1/10; the extra
        # 1e-9 absorbs rounding in the reference, not discretization error
        near = abs(a10 - 2.0) <= 0.1 + 1e-9 and abs(b10 + 1.5) <= 0.1 + 1e-9

        a5, b5 = coefficients(5)
        extrap_a = 2.0 * a10 - a5
        extrap_b = 2.0 * b10 - b5
        richardson = abs(extrap_a - 2.0) <= 1e-3 and abs(extrap_b + 1.5) <= 1e-3

        state["ok"] = worst_eig <= 1e-8 and near and richardson
        state["detail"] = (f"eig {worst_eig:.1e}, a10 {a10:.3f}, "
                           f"extrapolated ({extrap_a:.6f}, {extrap_b:.6f})")


def test_operator_identities():
    """Adjoint duality, the quadratic functional, and dense symmetry hold on
    fifty random instances."""
    with criterion("operator-identities", 30.0) as state:
        worst_dual = 0.0
        worst_func = 0.0
        worst_sym = 0.0
        for seed in range(50):
            inst, _ = random_instance(seed, depth_max=4)
            tree = inst.tree
            rng = np.random.default_rng(10_000 + seed)
            xi = [rng.normal(size=(tree.num_nodes(m), inst.n))
                  for m in range(tree.depth)]
            eta = rng.normal(size=(tree.num_nodes(tree.depth), inst.n))
            u = lq.AdaptedProcess(
                tree, [rng.normal(size=(tree.num_nodes(m), inst.k))
                       for m in range(tree.depth)])

            image = adjoint_apply(inst, xi=xi, eta=eta)
            dec = decompose_state(inst, u)
            lhs = _weighted_dot_levels(tree, image.control, u.levels) \
                + float(image.initial @ inst.x0)
            linear_state = [a + b for a, b in zip(dec.from_initial, dec.from_control)]
            rhs = _weighted_dot_levels(tree, xi, linear_state) \
                + leaf_dot(tree, eta,
                           dec.from_initial_terminal + dec.from_control_terminal)
            worst_dual = max(worst_dual, abs(lhs - rhs) / max(1.0, abs(lhs)))

            direct = lq.cost_direct(inst, u)
            value = quadratic_functional(inst).value(u)
            worst_func = max(worst_func,
                             abs(value - direct) / max(1.0, abs(direct)))

            op = lq.assemble_N_dense(inst)
            worst_sym = max(worst_sym, op.symmetry_defect)

        state["ok"] = worst_dual <= 1e-10 and worst_func <= 1e-9 \
            and worst_sym <= 1e-9
        state["detail"] = (f"duality {worst_dual:.1e}, functional {worst_func:.1e}, "
                           f"symmetry {worst_sym:.1e}")


def test_equivalence_certificates():
    """Twenty seeded instances certify: the shift is invisible on binary
    controls, and the relaxed minimum, taken at a vertex of the free box,
    is the enumerated optimum."""
    with criterion("equivalence-certificates", 60.0) as state:
        worst_gap = 0.0
        worst_margin = np.inf
        all_ok = True
        for seed in range(20):
            inst, domain = random_instance(seed)
            cert, _ = lq.equivalence_check(inst, domain)
            worst_gap = max(worst_gap, cert.binary_max_shift_gap)
            worst_margin = min(worst_margin, cert.relaxed_margin)
            all_ok = (all_ok and cert.ok and cert.stationarity_ok
                      and cert.relaxed_min_cost == cert.binary_best_cost)
        state["ok"] = all_ok and worst_gap <= 1e-11 and worst_margin >= -1e-9
        state["detail"] = f"gap {worst_gap:.1e}, margin {worst_margin:.2e}"


def test_optimality_checks_accept_and_reject():
    """The maximum-principle checks pass at every enumerated optimum and
    reject every suboptimal control on the exhaustive benchmark."""
    with criterion("optimality-checks", 30.0) as state:
        accepted = True
        for seed in range(20):
            inst, domain = random_instance(seed)
            mu = lq.lambda_max(inst).mu
            best = lq.brute_force_binary(inst, domain).control
            report = lq.run_checks(inst, best, mu)
            accepted = accepted and report.ok

        bench = lq.example5_instance(2)
        rejected = True
        for bits in all_scalar_binary_controls(bench.tree):
            control = scalar_bits_control(bench.tree, bits)
            report = lq.run_checks(bench, control, -2.0)
            if lq.cost_direct(bench, control) > 1e-6:
                rejected = rejected and not report.ok
            else:
                accepted = accepted and report.ok

        state["ok"] = accepted and rejected
        state["detail"] = "optima accepted, impostors rejected"


def test_hamiltonian_gradient():
    """The weighted Hamiltonian slope is the exact derivative of the shifted
    cost, to finite-difference accuracy."""
    with criterion("hamiltonian-gradient", 30.0) as state:
        h = 1e-6
        worst = 0.0
        for seed in (8, 21):
            inst, domain = random_instance(seed, depth_max=3,
                                              with_sources=True)
            mu = lq.lambda_max(inst).mu
            tree = inst.tree
            rng = np.random.default_rng(seed)
            levels = [rng.uniform(0.0, 1.0, size=(tree.num_nodes(m), inst.k))
                      for m in range(tree.depth)]
            u = lq.AdaptedProcess(tree, levels)
            xbar = x_levels, _ = lq.forward_state(inst, u)
            _, p_mean, q = lq.solve_first_adjoint(inst, xbar, u)
            for _ in range(50):
                m = int(rng.integers(0, tree.depth))
                j = int(rng.integers(0, tree.num_nodes(m)))
                i = int(rng.integers(0, inst.k))
                grad = hamiltonian_mu_gradient(
                    inst, m, x_levels[m], levels[m], p_mean[m], q[m], mu)[j, i]
                bumped = [np.stack([lvl, lvl]) for lvl in levels]
                bumped[m][0, j, i] += h
                bumped[m][1, j, i] -= h
                costs = lq.shifted_cost_many(inst, bumped, mu)
                fd = (costs[0] - costs[1]) / (2.0 * h)
                predicted = -tree.path_prob(m) * tree.dt * grad
                worst = max(worst, abs(fd - predicted))
        state["ok"] = worst <= 1e-6
        state["detail"] = f"max deviation {worst:.1e}"
