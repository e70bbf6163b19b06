"""The benchmark's workloads: seeded inputs, command rounds and output checks.

A round is one pass over a workload's CLI commands.  :class:`Runner` times
each ``lqshift.cli.main`` call on its own and runs the output check after
the clock stops.  A command counts as failed when it raises, returns an
unexpected exit code, or its report fails the check.  Every check is an
invariant that any correct version of the program satisfies.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import reference

COMMANDS = ("example5", "spectrum", "solve", "verify", "equivalence")


# An impostor whose one flipped node, set back, lowers the cost by more than
# this per unit of the node's path weight 2**-m * dt must be rejected.  That
# weighted gain is the deficit the node-wise second-order (general SMP) test
# measures there; 0.6 is four times the program's default tolerance for it,
# 0.15, and eight times the worst scheme drift seen at true optima.  The
# other way round, a reported deficit must be matched by the gain of the node
# switch it names to within the same margin (at depth 14 the two differed by
# at most 0.15, and the deficit never exceeded the gain by more than 0.001).
CLEAR_GAIN = 0.6

CAL_SHARE = 0.08      # calibrate for about this share of each command's wall
CAL_MIN_UNITS = 4


class Runner:
    """Runs CLI commands in-process, one round at a time.

    Around every command it times the calibration kernel of the given
    shape, so each record carries ``unit``: the mean unit time before and
    after the command.
    """

    def __init__(self, main, calibration="deep"):
        self.main = main
        self.tracer = None    # a traced run sets this to its tracing.Tracer
        self.records = []
        self.round_no = -1
        self.calibrate = reference.Calibrator(calibration)
        self._index = 0
        self._units = CAL_MIN_UNITS
        self._last_wall = {}

    def round(self, workload):
        """Run one round; returns its records."""
        self.round_no += 1
        self._index = 0
        first = len(self.records)
        workload.round(self)
        mine = self.records[first:]
        closing = self.calibrate(self._units) if mine else None
        after = [r["unit_before"] for r in mine[1:]] + [closing]
        for record, unit in zip(mine, after):
            record["unit"] = 0.5 * (record["unit_before"] + unit)
        return mine

    def run(self, command, argv, check):
        """Time one command, then check its exit code and report.

        ``check(code, report)`` returns a list of problems; an empty list
        means the output is correct.
        """
        index = self._index
        self._index += 1
        guess = self.calibrate.last or 1.0
        self._units = max(CAL_MIN_UNITS,
                          int(CAL_SHARE * self._last_wall.get(index, 0.0) / guess))
        unit_before = self.calibrate(self._units)
        if self.tracer is not None:
            self.tracer.trace = (self.round_no, index)
        buf = io.StringIO()
        code = report = None
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = self.main([command] + argv)
                raised = None
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                raised = exc
            wall = time.perf_counter() - start
        self._last_wall[index] = wall
        if raised is not None:
            problems = [f"raised {raised!r}"]
        else:
            try:
                report = json.loads(buf.getvalue())
                problems = check(code, report)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                problems = [f"malformed report: {exc!r}"]
        self.records.append({"round": self.round_no, "index": index, "command": command,
                             "wall": wall, "unit_before": unit_before, "code": code,
                             "report": report, "problems": problems})
        return code, report


def _close(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def _exit_matches_ok(code, result):
    """verify and equivalence: exit 0 exactly when ``ok``, 1 otherwise."""
    expected = 0 if result["ok"] else 1
    return [] if code == expected else [f"exit {code} with ok={result['ok']}"]


def _binary_shift_vanishes(result):
    if result["cost"] != result["cost_shifted"]:
        return [f"cost {result['cost']!r} != cost_shifted {result['cost_shifted']!r}"]
    return []


def _verdict_consistent(result):
    """Each check is ok exactly when its violation is within its tolerance,
    and the verdict ``ok`` is the conjunction of the checks."""
    checks = result["checks"]
    problems = [f"{name}: ok={c['ok']} with violation {c['violation']!r}, tol {c['tol']!r}"
                for name, c in checks.items() if c["ok"] != (c["violation"] <= c["tol"])]
    if result["ok"] != all(c["ok"] for c in checks.values()):
        problems.append(f"ok={result['ok']} disagrees with its checks")
    return problems


class E5Spectral:
    """The paper's Example 5, where lambda_max = 3 - 2/N is known exactly."""

    name = "e5-spectral"
    calibration = "deep"

    def __init__(self, root, workdir, seed, *, depths=(2, 4, 8, 11),
                 spectrum_depths=(11, 14)):
        # The input is the packaged paper example; the seed changes nothing,
        # and spectrum keeps --seed 0 so every run does the same work.
        self.path = str(Path(root) / "src" / "lqshift" / "data" / "example5.json")
        self.depths = tuple(depths)
        self.spectrum_depths = tuple(spectrum_depths)

    def round(self, runner):
        runner.run("example5", ["--depths", ",".join(map(str, self.depths))],
                   self.check_example5)
        for depth in self.spectrum_depths:
            runner.run("spectrum", [self.path, "--depth", str(depth), "--certify"],
                       lambda code, rep, d=depth: self.check_spectrum(d, code, rep))

    def check_example5(self, code, report):
        problems = [] if code == 0 else [f"exit {code}"]
        rows = report["result"]["depths"]
        if [row["depth"] for row in rows] != list(self.depths):
            problems.append("depth rows do not match the request")
        for row in rows:
            n = row["depth"]
            if not _close(row["lambda_max"], 3.0 - 2.0 / n, 1e-9):
                problems.append(f"depth {n}: lambda_max {row['lambda_max']!r}")
            if abs(row["cost_ones"] - (1.5 - (n + 1) / (2.0 * n))) > 1e-12:
                problems.append(f"depth {n}: cost_ones {row['cost_ones']!r}")
            if row["optimum"] is not None and abs(row["optimum"]["cost"]) > 1e-12:
                problems.append(f"depth {n}: optimum {row['optimum']['cost']!r}")
        if not any(row["optimum"] is not None for row in rows):
            problems.append("no depth was enumerated")
        return problems

    def check_spectrum(self, depth, code, report):
        result = report["result"]
        problems = [] if code == 0 else [f"exit {code}"]
        if not _close(result["lambda_max"], 3.0 - 2.0 / depth, 1e-9):
            problems.append(f"depth {depth}: lambda_max {result['lambda_max']!r}")
        if not result["concavity"]["ok"]:
            problems.append(f"depth {depth}: concavity certificate failed")
        return problems


class DeepCertify:
    """solve, then verify the exported control and one-node-flip impostors."""

    name = "deep-certify"
    calibration = "deep"
    VERTICES = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def __init__(self, root, workdir, seed, *, instances=4, depth=14, impostors=7):
        self.workdir = Path(workdir)
        self.seed = seed
        self.depth = depth
        self.impostors = impostors
        self.items = []
        for i in range(instances):
            doc = reference.draw_instance(np.random.default_rng([seed, 2, i]),
                                          n=2, k=2, depth=depth)
            path = self.workdir / f"deep{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            # A fixed shift from the benchmark's own shallow Hessian, so the
            # spectral layer does no work in this workload.
            mu = -(2.0 * abs(reference.lambda_max_estimate(doc, 5)) + 1.0)
            self.items.append({"doc": doc, "path": str(path), "mu": repr(mu),
                               "control": str(self.workdir / f"deep{i}.csv"),
                               "first_control": None, "solve_checks": None,
                               "impostors": []})
        # impostor bookkeeping for optimality.impostor_reject_ratio
        self.verdicts = {}

    def round(self, runner):
        for i, item in enumerate(self.items):
            common = [item["path"], "--mu", item["mu"]]
            runner.run("solve", common + ["--control-out", item["control"]],
                       lambda code, rep, it=item: self.check_solve(it, code, rep))
            if not item["impostors"] and item["first_control"] is not None:
                self.make_impostors(i, item)
            runner.run("verify", common + ["--control", item["control"]],
                       lambda code, rep, it=item: self.check_candidate(it, code, rep))
            for j, imp in enumerate(item["impostors"]):
                runner.run("verify", common + ["--control", imp["path"]],
                           lambda code, rep, it=item, im=imp, key=(i, j):
                           self.check_impostor(it, im, key, code, rep))

    def make_impostors(self, i, item):
        """Flip one node to another vertex; recost everything with the reference."""
        levels = reference.read_control(item["control"], self.depth, 2)
        item["levels"] = [lvl.astype(np.uint8) for lvl in levels]  # binary, kept small
        item["reference_cost"] = self._cost(item, levels)
        rng = np.random.default_rng([self.seed, 3, i])
        nodes = (1 << self.depth) - 1
        for j in range(self.impostors):
            node = int(rng.integers(nodes))
            m = (node + 1).bit_length() - 1
            idx = node + 1 - (1 << m)
            flipped = [lvl.copy() for lvl in levels]
            others = [v for v in self.VERTICES if not np.array_equal(v, levels[m][idx])]
            flipped[m][idx] = others[int(rng.integers(len(others)))]
            path = self.workdir / f"deep{i}-imp{j}.csv"
            reference.write_control(path, flipped)
            item["impostors"].append({
                "path": str(path), "level": m,
                "levels": [lvl.astype(np.uint8) for lvl in flipped],
                "reference_cost": self._cost(item, flipped),
            })

    def _cost(self, item, levels):
        return float(reference.cost(item["doc"], [lvl[None].astype(float) for lvl in levels])[0])

    def _weight(self, item, level):
        """Path weight 2**-m * dt of one node at ``level``."""
        return 2.0 ** -level * item["doc"]["T"] / self.depth

    def _rejection_backed(self, item, levels, cost, result):
        """A second-order deficit above CLEAR_GAIN names a node and a vertex;
        switching that node must lower the reference cost by the deficit per
        unit path weight, up to CLEAR_GAIN.  So a made-up rejection fails."""
        smp = result["checks"].get("general_smp")
        if smp is None or smp["violation"] <= CLEAR_GAIN:
            return []
        m, j = smp["worst_level"], smp["worst_index"]
        switched = [lvl.copy() for lvl in levels]
        switched[m][j] = smp["witness"]
        gain = (cost - self._cost(item, switched)) / self._weight(item, m)
        if gain < smp["violation"] - CLEAR_GAIN:
            return [f"general_smp deficit {smp['violation']:.4g} at ({m}, {j}), "
                    f"but switching that node gains only {gain:.4g}"]
        return []

    def _recost(self, expected, result):
        if expected is None or abs(result["cost"] - expected) <= 1e-9 * max(1.0, abs(expected)):
            return []
        return [f"cost {result['cost']!r} but the reference gives {expected!r}"]

    def check_solve(self, item, code, report):
        result = report["result"]
        search = result["search"]
        problems = [] if code == 0 else [f"exit {code}"]
        if search["status"] not in ("fixed-point", "cycle"):
            problems.append(f"search status {search['status']}")
        checks = result["checks"]
        problems += (_binary_shift_vanishes(search) + _binary_shift_vanishes(checks)
                     + _verdict_consistent(checks))
        # at a fixed point no node's linearised shifted Hamiltonian improves
        if search["status"] == "fixed-point" and not checks["checks"]["stationarity"]["ok"]:
            problems.append("a fixed point of the search fails the stationarity check")
        written = Path(item["control"]).read_bytes()
        if item["first_control"] is None:
            item["first_control"] = written
            item["solve_checks"] = result["checks"]
        elif written != item["first_control"] or result["checks"] != item["solve_checks"]:
            problems.append("solve output differs from the first round")
        return problems

    def check_candidate(self, item, code, report):
        result = report["result"]
        problems = (_exit_matches_ok(code, result) + _binary_shift_vanishes(result)
                    + _verdict_consistent(result))
        if result != item["solve_checks"]:
            problems.append("verify does not reproduce solve's checks after the CSV round trip")
        problems += self._recost(item.get("reference_cost"), result)
        if "levels" in item:
            problems += self._rejection_backed(item, item["levels"], item["reference_cost"],
                                               result)
        return problems

    def check_impostor(self, item, imp, key, code, report):
        result = report["result"]
        self.verdicts[key] = (result["cost"] > item["solve_checks"]["cost"], result["ok"])
        problems = (_exit_matches_ok(code, result) + _binary_shift_vanishes(result)
                    + _verdict_consistent(result) + self._recost(imp["reference_cost"], result)
                    + self._rejection_backed(item, imp["levels"], imp["reference_cost"],
                                             result))
        gain = ((imp["reference_cost"] - item["reference_cost"])
                / self._weight(item, imp["level"]))
        if gain > CLEAR_GAIN and result["ok"]:
            problems.append(f"accepted an impostor that flipping back improves by {gain:.3g}")
        return problems

    def impostor_counts(self):
        """(rejected, base): impostors that flipping the node back improves,
        so an exact optimality test must reject them, and how many it did."""
        improvable = [ok for worse, ok in self.verdicts.values() if worse]
        return sum(1 for ok in improvable if not ok), len(improvable)


class EnumEquivalence:
    """Exhaustive equivalence certificate over 7**7 binary controls."""

    name = "enum-equivalence"
    calibration = "wide"

    def __init__(self, root, workdir, seed, *, depth=3, samples=10000):
        self.workdir = Path(workdir)
        self.seed = seed
        self.samples = samples
        # k = 3 with u1 + u2 + u3 <= 2 leaves 7 binary vertices per node
        self.doc = reference.draw_instance(
            np.random.default_rng([seed, 4]), n=2, k=3, depth=depth,
            halfspaces=[((1.0, 1.0, 1.0), 2.0)])
        self.path = self.workdir / "enum.json"
        self.path.write_text(json.dumps(self.doc), encoding="utf-8")
        self.control = self.workdir / "enum-opt.csv"
        self.expected = 7 ** ((1 << depth) - 1)

    def round(self, runner):
        runner.run("equivalence", [str(self.path), "--samples", str(self.samples),
                                   "--seed", str(self.seed),
                                   "--control-out", str(self.control)],
                   self.check)

    def check(self, code, report):
        result = report["result"]
        binary = result["binary"]
        problems = _exit_matches_ok(code, result)
        if not result["ok"]:
            problems.append("equivalence certificate failed")
        if binary["max_shift_gap"] != 0.0:
            problems.append(f"max_shift_gap {binary['max_shift_gap']!r}")
        if binary["enumerated"] != self.expected or result["oracle"]["enumerated"] != self.expected:
            problems.append(f"enumerated {binary['enumerated']} != {self.expected}")
        best = binary["best_cost"]
        if result["oracle"]["cost"] != best:
            problems.append("oracle and certificate disagree on the optimum")
        levels = reference.read_control(self.control, self.doc["depth"], 3)
        recost = float(reference.cost(self.doc, [lvl[None] for lvl in levels])[0])
        if abs(recost - best) > 1e-12 * max(1.0, abs(best)):
            problems.append(f"optimum re-costs to {recost!r}, not {best!r}")
        return problems


WORKLOADS = {w.name: w for w in (E5Spectral, DeepCertify, EnumEquivalence)}


def command_metrics(rounds):
    """End-to-end command metrics of a run, from its rounds' records.

    The n-th command of every round is the same command on the same input.
    Each contributes the median over rounds of its wall (``_s``) and of its
    wall in calibration units (``_cal``, wall over the unit time measured
    around it), so a slow spell that hits one command in one round does
    not move the result.  ``wall_s`` and ``wall_cal`` sum every command of
    a round; ``<command>_s`` and ``<command>_cal`` sum one CLI command.
    """
    samples = {}
    for rnd in rounds:
        for r in rnd:
            samples.setdefault((r["index"], r["command"]), []).append(r)
    out = {}
    for suffix, value in (("s", lambda r: r["wall"]), ("cal", lambda r: r["wall"] / r["unit"])):
        median = {key: statistics.median(value(r) for r in recs)
                  for key, recs in samples.items()}
        out[f"wall_{suffix}"] = sum(median.values())
        for command in COMMANDS:
            if any(c == command for _, c in median):
                out[f"{command}_{suffix}"] = sum(v for (_, c), v in median.items()
                                                 if c == command)
    records = [r for rnd in rounds for r in rnd]
    enumerated = [r["report"]["result"]["binary"]["enumerated"] for r in records
                  if r["command"] == "equivalence" and not r["problems"]]
    if enumerated:
        # controls per round over the round's median equivalence time
        out["enum_controls_per_s"] = statistics.median(enumerated) * (
            len(enumerated) / len(rounds)) / out["equivalence_s"]
    overhead = {}
    for r in records:
        if r["report"] and "timings" in r["report"]:
            overhead.setdefault(r["index"], []).append(
                r["wall"] - sum(r["report"]["timings"].values()))
    out["cli_overhead_s"] = sum(statistics.median(v) for v in overhead.values())
    out["unit_ms"] = 1e3 * statistics.median(r["unit"] for r in records)
    return out
