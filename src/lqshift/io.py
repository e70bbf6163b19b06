"""Serialization: instance files, control tables, digests, reports.

Instances travel as JSON with coefficients in either constant form (one
matrix, applied on every step) or per-level form (a list of ``depth``
matrices).  Controls travel as CSV with one row per tree node.  The
instance digest is the SHA-256 of the canonical (sorted-key, per-level
choice preserved by content) JSON dump, so byte-identical inputs hash
equal across machines.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ControlFileError, InstanceFormatError
from .model import (COEFFICIENTS, ControlDomain, ControlProcess, LQInstance, as_process,
                    check_coefficient_memory, coefficient_shape)
from .tree import ScenarioTree, check_node_memory

PACKAGE_VERSION = "0.1.0"

_TOP_KEYS = {"n", "k", "T", "depth", "x0", "coefficients", "domain"}


def _as_int(value, path, issues, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        issues.append((path, "must be an integer"))
        return None
    if value < minimum:
        issues.append((path, f"must be >= {minimum}"))
        return None
    return value


def _finite_number(value):
    """A JSON number as a finite float, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value) if math.isfinite(value) else None
    except OverflowError:  # an integer too wide for a float
        return None


def _parse_array(value, path, issues):
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an integer too wide for a float
        issues.append((path, "contains non-finite entries"))
        return None
    except (TypeError, ValueError):
        issues.append((path, "must be a (nested) list of numbers"))
        return None
    if arr.dtype == object:
        issues.append((path, "ragged nesting"))
        return None
    if not np.all(np.isfinite(arr)):
        issues.append((path, "contains non-finite entries"))
        return None
    return arr


def _parse_coefficient(value, path, depth, shape, issues):
    """Accept ``shape``, or ``(depth,) + shape`` unless ``depth`` is None; tile per level."""
    arr = _parse_array(value, path, issues)
    if arr is None:
        return None
    levels = () if depth is None else (depth,)
    if arr.shape == shape:
        return np.tile(arr, levels + (1,) * len(shape))
    if arr.shape == levels + shape:
        return arr
    wanted = f"is not {shape}" if depth is None else f"is neither {shape} nor {levels + shape}"
    issues.append((path, f"shape {arr.shape} {wanted}"))
    return None


def load_instance(source) -> tuple[LQInstance, ControlDomain]:
    """Read an instance (and its control domain) from a JSON file or dict."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise InstanceFormatError([("/", f"file not found: {source}")])
        except json.JSONDecodeError as exc:
            raise InstanceFormatError([("/", f"not valid JSON: {exc}")])
    else:
        data = source
    if not isinstance(data, dict):
        raise InstanceFormatError([("/", "top level must be a JSON object")])

    issues: list[tuple[str, str]] = []
    for key in data:
        if key not in _TOP_KEYS:
            issues.append((f"/{key}", "unknown key"))
    n = _as_int(data.get("n"), "/n", issues)
    k = _as_int(data.get("k"), "/k", issues)
    depth = _as_int(data.get("depth"), "/depth", issues)
    if None not in (n, k, depth):
        # name the first of n, k, depth that breaks the bound with the later sizes at 1
        for path, sizes in (("/n", (n, 1, 1)), ("/k", (n, k, 1)), ("/depth", (n, k, depth))):
            try:
                check_coefficient_memory(*sizes)
            except ValueError as exc:
                issues.append((path, str(exc)))
                break
    horizon = _finite_number(data.get("T"))
    if horizon is None or horizon <= 0:
        issues.append(("/T", "must be a positive finite number"))
        horizon = None
    if issues or n is None or k is None or depth is None or horizon is None:
        raise InstanceFormatError(issues)

    coeffs = data.get("coefficients", {})
    if not isinstance(coeffs, dict):
        raise InstanceFormatError([("/coefficients", "must be an object")])
    for name in coeffs:
        if name not in COEFFICIENTS or name == "x0":
            issues.append((f"/coefficients/{name}", "unknown coefficient"))
    parsed = {}
    for name, (_, per_level) in COEFFICIENTS.items():
        # x0 is the initial state, kept at the top level of the document
        source, path = (data, "/x0") if name == "x0" else (coeffs, f"/coefficients/{name}")
        shape = coefficient_shape(name, n, k)  # an omitted coefficient is zero
        parsed[name] = _parse_coefficient(source.get(name, np.zeros(shape)), path,
                                          depth if per_level else None, shape, issues)

    halfspaces = []
    domain_data = data.get("domain", {})
    if not isinstance(domain_data, dict):
        issues.append(("/domain", "must be an object"))
    else:
        for key in domain_data:
            if key != "halfspaces":
                issues.append((f"/domain/{key}", "unknown key"))
        raw_halfspaces = domain_data.get("halfspaces", [])
        if not isinstance(raw_halfspaces, list):
            issues.append(("/domain/halfspaces", "must be a list"))
        else:
            for i, item in enumerate(raw_halfspaces):
                base = f"/domain/halfspaces/{i}"
                if not isinstance(item, dict) or set(item) != {"normal", "bound"}:
                    issues.append((base, "must be an object with keys 'normal' and 'bound'"))
                    continue
                normal = _parse_array(item["normal"], f"{base}/normal", issues)
                if normal is not None and normal.shape != (k,):
                    issues.append((f"{base}/normal", f"shape {normal.shape} is not {(k,)}"))
                    normal = None
                bound = _finite_number(item["bound"])
                if bound is None:
                    issues.append((f"{base}/bound", "must be a finite number"))
                if normal is not None and bound is not None:
                    halfspaces.append((normal, bound))

    if issues or any(v is None for v in parsed.values()):
        raise InstanceFormatError(issues)

    try:
        inst = LQInstance(n=n, k=k, T=horizon, depth=depth, **parsed)
    except ValueError as exc:
        raise InstanceFormatError([("/coefficients", str(exc))])
    try:
        domain = ControlDomain(k=k, halfspaces=tuple(halfspaces))
    except ValueError as exc:
        raise InstanceFormatError([("/domain/halfspaces", str(exc))])
    return inst, domain


def _coefficient_payload(stack: np.ndarray):
    """Constant form when every level agrees, per-level form otherwise."""
    if np.all(stack == stack[0]):
        return stack[0].tolist()
    return stack.tolist()


def dump_instance(inst: LQInstance, domain: ControlDomain) -> dict:
    coeffs = {}
    for name, (_, per_level) in COEFFICIENTS.items():
        value = getattr(inst, name)
        coeffs[name] = _coefficient_payload(value) if per_level else value.tolist()
    payload = {
        "n": inst.n,
        "k": inst.k,
        "T": inst.T,
        "depth": inst.depth,
        "x0": coeffs.pop("x0"),
        "coefficients": coeffs,
    }
    if domain.halfspaces:
        payload["domain"] = {
            "halfspaces": [
                {"normal": g.tolist(), "bound": h} for g, h in domain.halfspaces
            ]
        }
    return payload


def instance_digest(inst: LQInstance, domain: ControlDomain) -> str:
    canonical = json.dumps(dump_instance(inst, domain), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def with_depth(inst: LQInstance, new_depth: int) -> LQInstance:
    """Re-discretize on a tree of a different depth.

    Piecewise-constant coefficients are resampled at the midpoints of the
    new steps, which reproduces constant coefficients exactly and picks the
    covering step for genuinely time-varying ones.
    """
    if isinstance(new_depth, bool) or not isinstance(new_depth, int) or new_depth < 1:
        raise ValueError("new depth must be a positive integer")
    check_coefficient_memory(inst.n, inst.k, new_depth)
    old = inst.depth
    picks = [min(old - 1, int((m + 0.5) * old / new_depth)) for m in range(new_depth)]
    idx = np.asarray(picks, dtype=int)
    values = {name: getattr(inst, name)[idx] if per_level else getattr(inst, name)
              for name, (_, per_level) in COEFFICIENTS.items()}
    return LQInstance(n=inst.n, k=inst.k, T=inst.T, depth=new_depth, **values)


# -- control tables ---------------------------------------------------------------


def _control_header(k: int) -> list:
    return ["level", "index"] + [f"u{i + 1}" for i in range(k)]


def write_control_csv(path, control) -> None:
    """One ``level,index,u1..uk`` row per node, values as ``repr``, CRLF ends.

    Each distinct value (bit pattern, so ``-0.0`` stays apart from ``0.0``)
    is formatted once and the rows index into those strings.
    """
    proc = as_process(control)
    depth = proc.tree.depth
    values = np.concatenate(proc.levels)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    inverse = inverse.reshape(values.shape)
    numbers = list(map(str, range(1 << (depth - 1))))
    columns = [list(chain.from_iterable(repeat(str(m), 1 << m) for m in range(depth))),
               list(chain.from_iterable(numbers[:1 << m] for m in range(depth)))]
    columns += [list(map(text.__getitem__, inverse[:, i].tolist()))
                for i in range(proc.dim)]
    lines = [",".join(_control_header(proc.dim))]
    lines.extend(map(",".join, zip(*columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _range_error(m: int, j: int, depth: int) -> str | None:
    if not 0 <= m < depth:
        return f"level {m} outside 0..{depth - 1}"
    if not 0 <= j < 1 << m:
        return f"index {j} outside 0..{(1 << m) - 1}"
    return None


def _unparsed_row_error(row: str, width: int, depth: int) -> str:
    """Why one row the bulk parser refused is bad, in the row-by-row terms."""
    fields = next(csv.reader([row]), [])
    if len(fields) != width:
        return f"expected {width} fields"
    try:
        m, j = int(fields[0]), int(fields[1])
        for value in fields[2:]:
            float(value)
    except ValueError:
        return "non-numeric field"
    # an integer too wide for int64 is out of range; other literals only
    # Python reads (``1_0``, non-ASCII digits) stay non-numeric
    return _range_error(m, j, depth) or "non-numeric field"


def _validate_rows(table, depth: int):
    """Rows per node, and the first row breaking a per-row rule as
    ``(row, message)`` or None; the rules apply in the order level range,
    index range, node given twice, non-finite value."""
    level, index = table["level"], table["index"]
    level_ok = (level >= 0) & (level < depth)
    start = np.left_shift(1, np.where(level_ok, level, 0))
    placed = level_ok & (index >= 0) & (index < start)
    node = np.where(placed, start - 1 + index, -1)
    counts = np.bincount(node[placed], minlength=(1 << depth) - 1)
    bad = ~placed | ~np.all(np.isfinite(table["u"]), axis=1)
    again = np.zeros_like(bad)  # rows naming a node an earlier row named
    if counts.max(initial=0) > 1:
        _, first = np.unique(node, return_index=True)
        again[placed] = True
        again[first] = False
        bad |= again
    if not bad.any():
        return counts, None
    r = int(np.argmax(bad))
    m, j = int(level[r]), int(index[r])
    message = _range_error(m, j, depth) or (
        f"node ({m}, {j}) given twice" if again[r] else "non-finite value")
    return counts, (r, message)


def load_control_csv(path, domain: ControlDomain, tree: ScenarioTree,
                     kind: str = "binary") -> ControlProcess:
    """Read a control table; see FORMAT.md for the accepted syntax.

    The body is parsed in one ``np.loadtxt`` call and validated as whole
    arrays.  Row-level problems name the file line: blank lines are skipped
    but counted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        raise ControlFileError(f"file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ControlFileError(f"cannot read {path}: {exc}")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ControlFileError("empty control file")
    header = [h.strip() for h in next(csv.reader(lines[:1]), [])]
    expected = _control_header(domain.k)
    if header != expected:
        raise ControlFileError(
            f"header {header} does not match expected {expected}")
    # k values and one row count per node, sized from the depth
    check_node_memory(tree.num_nodes(tree.depth) - 1, domain.k + 1)
    body = lines[1:]
    rows = list(filter(None, body))
    dtype = np.dtype([("level", np.int64), ("index", np.int64),
                      ("u", np.float64, (domain.k,))])

    def parse(chunk):
        if not chunk:
            return np.zeros(0, dtype=dtype)
        return np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)

    def fail(r, message):
        line = int(np.flatnonzero(list(map(bool, body)))[r]) + 2
        raise ControlFileError(f"line {line}: {message}")

    try:
        table = parse(rows)
    except ValueError:
        # bisect for the first row the parser refuses; earlier rows go first
        good, bad = 0, len(rows)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                parse(rows[:mid])
                good = mid
            except ValueError:
                bad = mid
        _, error = _validate_rows(parse(rows[:good]), tree.depth)
        if error is None:
            error = good, _unparsed_row_error(rows[good], len(expected), tree.depth)
        fail(*error)
    counts, error = _validate_rows(table, tree.depth)
    if error:
        fail(*error)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        node = int(missing[0]) + 1
        m = node.bit_length() - 1
        raise ControlFileError(f"node ({m}, {node - (1 << m)}) is missing")
    values = np.empty((counts.size, domain.k))
    start = np.left_shift(1, table["level"])
    values[start - 1 + table["index"]] = table["u"]
    levels = [values[(1 << m) - 1:(1 << (m + 1)) - 1] for m in range(tree.depth)]
    try:
        return ControlProcess.from_levels(domain, tree, levels, kind)
    except ValueError as exc:
        raise ControlFileError(str(exc))


# -- reports ----------------------------------------------------------------------


def make_report(command: str, result: dict, *, digest: str | None = None,
                parameters: dict | None = None,
                timings: dict | None = None) -> dict:
    report = {
        "tool": "lqshift",
        "version": PACKAGE_VERSION,
        "command": command,
        "result": result,
    }
    if digest is not None:
        report["instance_digest"] = digest
    if parameters:
        report["parameters"] = parameters
    if timings:
        report["timings"] = {key: round(val, 6) for key, val in timings.items()}
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
