"""Spans and counters at the boundaries between lqshift's modules.

For the traced run only, :func:`instrumented` rebinds the names each module
imports from another, plus the sweeps a module calls internally
(``_forward_levels``, ``_bsde_levels``, ``_apply_N_levels``), to wrappers that
record one span per call: name, start, end, parent and the command it
belongs to.  Nothing in the library changes; every name is restored on
exit.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("tree", "model", "operators", "spectral", "optimality", "oracle", "io", "cli")

NAME, START, END, PARENT, TRACE = range(5)


class Tracer:
    """Spans as ``[name, start, end, parent, trace]`` lists, plus counters.

    ``trace`` identifies the command a span belongs to; set it before
    each command.  Counters are keyed by ``(trace, name)``.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.trace = None
        self._stack = []

    def count(self, name, amount=1):
        self.counters[(self.trace, name)] += amount

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments, ``after(tracer, args, kwargs, result)`` updates counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else None, self.trace])
            stack.append(idx)
            spans[idx][START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def write(self, path, commands):
        """Write the spans as JSON lines; ``commands`` maps trace to command name."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start_s": start - origin, "end_s": end - origin,
                    "round": trace[0], "command": commands.get(trace),
                }) + "\n")


class _Namespace:
    """Attribute proxy: the given overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _batched(u_levels):
    return np.ndim(u_levels[0]) > 2


def _after_apply_N(tracer, args, kwargs, result):
    u_levels = args[1]
    if _batched(u_levels):
        tracer.count("dense_bytes", sum(a.nbytes for a in u_levels)
                     + sum(r.nbytes for r in result))
    else:
        tracer.count("apply_N")


def _name_apply_N(args, kwargs):
    return "operators._apply_N_levels" + ("[batch]" if _batched(args[1]) else "")


def _name_shifted_many(args, kwargs):
    relaxed = kwargs.get("base_costs", args[3] if len(args) > 3 else None) is None
    return "spectral.shifted_cost_many" + ("[relaxed]" if relaxed else "")


def _after_cost_rows(tracer, args, kwargs, result):
    tracer.count("oracle_cost_rows", int(np.size(result)))


def bindings(tracer):
    """``(owner, attribute, replacement)`` for every traced boundary."""
    mod = {name: importlib.import_module(f"lqshift.{name}") for name in MODULES}
    plan = [
        # (owner module, attribute, span name, counter hook)
        ("cli", "load_instance", "io.load_instance", None),
        ("cli", "load_control_csv", "io.load_control_csv", None),
        ("cli", "write_control_csv", "io.write_control_csv", None),
        ("cli", "instance_digest", "io.instance_digest", None),
        ("cli", "report_json", "io.report_json", None),
        ("cli", "make_report", "io.make_report", None),
        ("cli", "with_depth", "io.with_depth", None),
        ("cli", "example5_instance", "model.example5_instance", None),
        ("cli", "cost_direct", "model.cost_direct", None),
        ("cli", "hamiltonian_mu", "optimality.hamiltonian_mu", None),
        ("cli", "msa_candidate_search", "optimality.msa_candidate_search",
         lambda t, a, k, r: t.count("msa_iterations", r.iterations)),
        ("cli", "run_checks", "optimality.run_checks", None),
        ("cli", "brute_force_binary", "oracle.brute_force_binary",
         lambda t, a, k, r: t.count("enumerated", r.enumerated)),
        ("cli", "equivalence_check", "oracle.equivalence_check", None),
        ("cli", "lambda_max", "spectral.lambda_max", None),
        ("cli", "certify_concavity", "spectral.certify_concavity", None),
        ("spectral", "_apply_N_levels", _name_apply_N, _after_apply_N),
        ("spectral", "assemble_N_dense", "operators.assemble_N_dense",
         lambda t, a, k, r: t.count("dense_bytes", r.matrix.nbytes)),
        ("spectral", "_power_iteration", "spectral._power_iteration",
         lambda t, a, k, r: t.count("power_iterations", r[1])),
        ("model", "_forward_levels", "model._forward_levels", None),
        ("model", "forward_state", "model.forward_state", None),
        # shifted_cost and shifted_cost_many import these at call time
        ("model", "cost_direct", "model.cost_direct", None),
        ("model", "cost_many", "model.cost_many", None),
        ("operators", "_forward_levels", "model._forward_levels", None),
        ("operators", "_bsde_levels", "operators._bsde_levels", None),
        ("operators", "_apply_N_levels", _name_apply_N, _after_apply_N),
        ("optimality", "cost_direct", "model.cost_direct", None),
        ("optimality", "forward_state", "model.forward_state", None),
        ("optimality", "solve_linear_bsde", "operators.solve_linear_bsde", None),
        ("optimality", "shifted_cost", "spectral.shifted_cost", None),
        ("optimality", "check_stationarity", "optimality.check_stationarity", None),
        ("optimality", "check_remark1_signs", "optimality.check_remark1_signs", None),
        ("optimality", "check_general_smp", "optimality.check_general_smp", None),
        ("optimality", "solve_second_adjoint", "optimality.solve_second_adjoint", None),
        ("oracle", "cost_many", "model.cost_many", _after_cost_rows),
        ("oracle", "sample_relaxed_levels", "model.sample_relaxed_levels", None),
        ("oracle", "check_stationarity", "optimality.check_stationarity", None),
        ("oracle", "lambda_max", "spectral.lambda_max", None),
        ("oracle", "shifted_cost_many", _name_shifted_many, None),
        ("oracle", "brute_force_binary", "oracle.brute_force_binary",
         lambda t, a, k, r: t.count("enumerated", r.enumerated)),
        ("oracle", "_decode_levels", "oracle._decode_levels", None),
    ]
    out = [(mod[owner], attr, tracer.wrap(getattr(mod[owner], attr), name, after))
           for owner, attr, name, after in plan]
    # constructors shared by every module: patch the classes themselves
    for cls, attr, name in ((mod["tree"].AdaptedProcess, "__init__", "tree.AdaptedProcess"),
                            (mod["model"].ControlProcess, "__post_init__",
                             "model.ControlProcess")):
        out.append((cls, attr, tracer.wrap(getattr(cls, attr), name)))
    spectral_np = mod["spectral"].np
    out.append((mod["spectral"], "np", _Namespace(spectral_np, linalg=_Namespace(
        spectral_np.linalg,
        eigvalsh=tracer.wrap(spectral_np.linalg.eigvalsh, "spectral.eigvalsh")))))
    return out


@contextmanager
def instrumented(tracer):
    """Rebind every traced boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in bindings(tracer):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------------


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ancestors(spans, idx):
    parent = spans[idx][PARENT]
    while parent is not None:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def round_layers(tracer, round_no, commands):
    """Per-layer metrics of one traced round.

    ``commands`` maps each trace ``(round, index)`` to its CLI command.
    """
    spans = tracer.spans
    own = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s[TRACE][0] == round_no]
    total = defaultdict(float)
    calls = Counter()
    module_self = defaultdict(float)
    for i in mine:
        name = spans[i][NAME]
        total[name] += spans[i][END] - spans[i][START]
        calls[name] += 1
        module_self[name.split(".")[0]] += own[i]
    count = Counter()
    for (trace, name), value in tracer.counters.items():
        if trace[0] == round_no:
            count[name] += value

    sweeps = Counter()
    in_checks = 0
    gap = relaxed = 0.0
    for i in mine:
        s = spans[i]
        name = s[NAME]
        if name in ("model._forward_levels", "operators._bsde_levels"):
            sweeps[(name, commands[s[TRACE]])] += 1
            if "optimality.run_checks" in _ancestors(spans, i):
                in_checks += 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else None
        if parent == "oracle.equivalence_check":
            if name in ("oracle._decode_levels", "model.cost_many",
                        "spectral.shifted_cost_many"):
                gap += s[END] - s[START]
            elif name in ("model.sample_relaxed_levels", "spectral.shifted_cost_many[relaxed]"):
                relaxed += s[END] - s[START]
        if name == "oracle.equivalence_check":
            gap += own[i]

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    msa_iter = count["msa_iterations"]
    out = {
        "spectral.lambda_max_s": total["spectral.lambda_max"],
        "spectral.power_iterations": count["power_iterations"],
        "spectral.eigvalsh_s": total["spectral.eigvalsh"],
        "spectral.certify_s": total["spectral.certify_concavity"],
        "operators.apply_N_count": count["apply_N"],
        "operators.apply_N_ms": per_call_ms("operators._apply_N_levels"),
        "operators.assemble_dense_s": total["operators.assemble_N_dense"],
        "operators.dense_bytes_computed": count["dense_bytes"],
        "operators.backward_sweeps": calls["operators._bsde_levels"],
        "operators.backward_s": total["operators._bsde_levels"],
        "model.forward_sweeps": calls["model._forward_levels"],
        "model.forward_s": total["model._forward_levels"],
        "model.forward_state_ms": per_call_ms("model.forward_state"),
        "model.control_process_s": total["model.ControlProcess"],
        "tree.adapted_process_count": calls["tree.AdaptedProcess"],
        "tree.adapted_process_s": total["tree.AdaptedProcess"],
        "optimality.run_checks_s": total["optimality.run_checks"],
        "optimality.check_stationarity_s": total["optimality.check_stationarity"],
        "optimality.check_remark1_signs_s": total["optimality.check_remark1_signs"],
        "optimality.check_general_smp_s": total["optimality.check_general_smp"],
        "optimality.second_adjoint_s": total["optimality.solve_second_adjoint"],
        "optimality.msa_iterations": msa_iter,
        "optimality.msa_sweep_ms": (1e3 * total["optimality.msa_candidate_search"] / msa_iter
                                    if msa_iter else 0.0),
        "optimality.sweeps_per_check": (in_checks / calls["optimality.run_checks"]
                                        if calls["optimality.run_checks"] else 0.0),
        "oracle.enumerated": count["enumerated"],
        "oracle.cost_evals_per_control": (count["oracle_cost_rows"] / count["enumerated"]
                                          if count["enumerated"] else 0.0),
        "oracle.brute_force_s": total["oracle.brute_force_binary"],
        "oracle.shift_gap_pass_s": gap,
        "oracle.relaxed_sampling_s": relaxed,
        "io.load_instance_s": total["io.load_instance"],
        "io.load_control_csv_s": total["io.load_control_csv"],
        "io.write_control_csv_s": total["io.write_control_csv"],
        "io.instance_digest_s": total["io.instance_digest"],
        "io.report_json_s": total["io.report_json"],
        "trace.spans": len(mine),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module]
    for command in ("example5", "spectrum", "solve", "verify", "equivalence"):
        out[f"model.forward_sweeps.{command}"] = sweeps[("model._forward_levels", command)]
        out[f"operators.backward_sweeps.{command}"] = sweeps[("operators._bsde_levels", command)]
    return out
