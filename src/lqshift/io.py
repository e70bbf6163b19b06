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
from pathlib import Path

import numpy as np

from .errors import ControlFileError, InstanceFormatError
from .model import ControlDomain, ControlProcess, LQInstance, as_process
from .tree import ScenarioTree

PACKAGE_VERSION = "0.1.0"

_TOP_KEYS = {"n", "k", "T", "depth", "x0", "coefficients", "domain"}
_MATRIX_COEFFS = {
    "A": ("n", "n"), "B": ("n", "k"), "C": ("n", "n"), "D": ("n", "k"),
    "Q": ("n", "n"), "S": ("k", "n"), "R": ("k", "k"),
}
_VECTOR_COEFFS = {"b": ("n",), "sigma": ("n",)}


def _as_int(value, path, issues, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        issues.append((path, "must be an integer"))
        return None
    if value < minimum:
        issues.append((path, f"must be >= {minimum}"))
        return None
    return value


def _parse_array(value, path, issues):
    try:
        arr = np.asarray(value, dtype=float)
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
    """Accept constant shape or (depth,) + shape; return the tiled stack."""
    arr = _parse_array(value, path, issues)
    if arr is None:
        return None
    if arr.shape == shape:
        reps = (depth,) + (1,) * len(shape)
        return np.tile(arr, reps)
    if arr.shape == (depth,) + shape:
        return arr
    issues.append((path, f"shape {arr.shape} is neither {shape} nor {(depth,) + shape}"))
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
    horizon = data.get("T")
    if not isinstance(horizon, (int, float)) or isinstance(horizon, bool) \
            or not np.isfinite(horizon) or horizon <= 0:
        issues.append(("/T", "must be a positive finite number"))
        horizon = None
    if issues or n is None or k is None or depth is None or horizon is None:
        raise InstanceFormatError(issues)

    dims = {"n": n, "k": k}
    coeffs = data.get("coefficients", {})
    if not isinstance(coeffs, dict):
        raise InstanceFormatError([("/coefficients", "must be an object")])
    parsed = {}
    for name, extra in coeffs.items():
        if name not in _MATRIX_COEFFS and name not in _VECTOR_COEFFS and name != "G":
            issues.append((f"/coefficients/{name}", "unknown coefficient"))
    for name, dim_names in _MATRIX_COEFFS.items():
        shape = tuple(dims[d] for d in dim_names)
        if name in coeffs:
            parsed[name] = _parse_coefficient(
                coeffs[name], f"/coefficients/{name}", depth, shape, issues)
        else:
            parsed[name] = np.zeros((depth,) + shape)
    for name, dim_names in _VECTOR_COEFFS.items():
        shape = tuple(dims[d] for d in dim_names)
        if name in coeffs:
            parsed[name] = _parse_coefficient(
                coeffs[name], f"/coefficients/{name}", depth, shape, issues)
        else:
            parsed[name] = np.zeros((depth,) + shape)
    if "G" in coeffs:
        g = _parse_array(coeffs["G"], "/coefficients/G", issues)
        if g is not None and g.shape != (n, n):
            issues.append(("/coefficients/G", f"shape {g.shape} is not {(n, n)}"))
            g = None
    else:
        g = np.zeros((n, n))
    if "x0" in data:
        x0 = _parse_array(data["x0"], "/x0", issues)
        if x0 is not None and x0.shape != (n,):
            issues.append(("/x0", f"shape {x0.shape} is not {(n,)}"))
            x0 = None
    else:
        x0 = np.zeros(n)

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
                bound = item["bound"]
                if not isinstance(bound, (int, float)) or isinstance(bound, bool) \
                        or not np.isfinite(bound):
                    issues.append((f"{base}/bound", "must be a finite number"))
                    bound = None
                if normal is not None and bound is not None:
                    halfspaces.append((normal, float(bound)))

    if issues or any(v is None for v in parsed.values()) or g is None or x0 is None:
        raise InstanceFormatError(issues)

    try:
        inst = LQInstance(n=n, k=k, T=float(horizon), depth=depth,
                          A=parsed["A"], B=parsed["B"], C=parsed["C"],
                          D=parsed["D"], b=parsed["b"], sigma=parsed["sigma"],
                          Q=parsed["Q"], S=parsed["S"], R=parsed["R"],
                          G=g, x0=x0)
    except ValueError as exc:
        raise InstanceFormatError([("/coefficients", str(exc))])
    try:
        domain = ControlDomain(k=k, halfspaces=tuple(halfspaces))
    except ValueError as exc:
        raise InstanceFormatError([("/domain/halfspaces", str(exc))])
    return inst, domain


def _coefficient_payload(stack: np.ndarray):
    """Constant form when every level agrees, per-level form otherwise."""
    if all(np.array_equal(stack[0], stack[m]) for m in range(stack.shape[0])):
        return stack[0].tolist()
    return stack.tolist()


def dump_instance(inst: LQInstance, domain: ControlDomain) -> dict:
    coeffs = {}
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R"):
        coeffs[name] = _coefficient_payload(getattr(inst, name))
    coeffs["G"] = inst.G.tolist()
    payload = {
        "n": inst.n,
        "k": inst.k,
        "T": inst.T,
        "depth": inst.depth,
        "x0": inst.x0.tolist(),
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
    old = inst.depth
    picks = [min(old - 1, int((m + 0.5) * old / new_depth)) for m in range(new_depth)]
    idx = np.asarray(picks, dtype=int)
    return LQInstance(
        n=inst.n, k=inst.k, T=inst.T, depth=new_depth,
        A=inst.A[idx], B=inst.B[idx], C=inst.C[idx], D=inst.D[idx],
        b=inst.b[idx], sigma=inst.sigma[idx],
        Q=inst.Q[idx], S=inst.S[idx], R=inst.R[idx],
        G=inst.G, x0=inst.x0,
    )


# -- control tables ---------------------------------------------------------------


def write_control_csv(path, control) -> None:
    proc = as_process(control)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index"] + [f"u{i + 1}" for i in range(proc.dim)])
        for m in range(proc.tree.depth):
            lvl = proc.level(m)
            for j in range(lvl.shape[0]):
                writer.writerow([m, j] + [repr(float(v)) for v in lvl[j]])


def load_control_csv(path, domain: ControlDomain, tree: ScenarioTree,
                     kind: str = "binary") -> ControlProcess:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise ControlFileError(f"file not found: {path}")
    if not rows:
        raise ControlFileError("empty control file")
    header = [h.strip() for h in rows[0]]
    expected = ["level", "index"] + [f"u{i + 1}" for i in range(domain.k)]
    if header != expected:
        raise ControlFileError(
            f"header {header} does not match expected {expected}")
    levels = [np.full((tree.num_nodes(m), domain.k), np.nan)
              for m in range(tree.depth)]
    filled = [np.zeros(tree.num_nodes(m), dtype=bool) for m in range(tree.depth)]
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise ControlFileError(f"line {line_no}: expected {len(expected)} fields")
        try:
            m = int(row[0])
            j = int(row[1])
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise ControlFileError(f"line {line_no}: non-numeric field")
        if not 0 <= m < tree.depth:
            raise ControlFileError(f"line {line_no}: level {m} outside 0..{tree.depth - 1}")
        if not 0 <= j < tree.num_nodes(m):
            raise ControlFileError(
                f"line {line_no}: index {j} outside 0..{tree.num_nodes(m) - 1}")
        if filled[m][j]:
            raise ControlFileError(f"line {line_no}: node ({m}, {j}) given twice")
        if not all(np.isfinite(values)):
            raise ControlFileError(f"line {line_no}: non-finite value")
        levels[m][j] = values
        filled[m][j] = True
    for m, mask in enumerate(filled):
        if not np.all(mask):
            j = int(np.flatnonzero(~mask)[0])
            raise ControlFileError(f"node ({m}, {j}) is missing")
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
