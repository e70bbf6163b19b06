"""The benchmark's own numpy model of an instance: inputs and reference cost.

Instances are drawn here, not by ``lqshift.random_instance``, so that a
change to the library cannot silently change the benchmark's inputs.  The
cost is re-implemented from the model equations (explicit Euler on the
binary tree, dyadic path weights) so that outputs can be re-costed without
trusting the code under test.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

COEFFS = ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "G")


def draw_instance(rng, *, n, k, depth, sources=True, halfspaces=()):
    """Constant-coefficient instance document with entries uniform on [-1, 1].

    Returns the JSON document the CLI reads.  Q, R and G are symmetrised.
    """
    def uni(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    def sym(mat):
        return 0.5 * (mat + mat.T)

    coeffs = {
        "A": uni(n, n), "B": uni(n, k), "C": uni(n, n), "D": uni(n, k),
        "b": uni(n) if sources else np.zeros(n),
        "sigma": uni(n) if sources else np.zeros(n),
        "Q": sym(uni(n, n)), "S": uni(k, n), "R": sym(uni(k, k)),
        "G": sym(uni(n, n)),
    }
    doc = {
        "n": n, "k": k, "T": 1.0, "depth": depth,
        "x0": uni(n).tolist(),
        "coefficients": {name: coeffs[name].tolist() for name in COEFFS},
    }
    if halfspaces:
        doc["domain"] = {"halfspaces": [
            {"normal": list(map(float, normal)), "bound": float(bound)}
            for normal, bound in halfspaces]}
    return doc


def _arrays(doc):
    c = {name: np.asarray(doc["coefficients"][name], dtype=float) for name in COEFFS}
    return c, np.asarray(doc["x0"], dtype=float)


def cost(doc, u_levels, depth=None):
    """Cost of controls given as per-level ``(batch, 2**m, k)`` arrays.

    ``depth`` overrides the document's depth (coefficients are constant).
    """
    c, x0 = _arrays(doc)
    depth = doc["depth"] if depth is None else depth
    dt = doc["T"] / depth
    root_dt = math.sqrt(dt)
    batch = u_levels[0].shape[0]
    x = np.broadcast_to(x0, (batch, 1, x0.shape[0]))
    total = np.zeros(batch)
    for m in range(depth):
        u = u_levels[m]
        running = (np.sum((x @ c["Q"]) * x, axis=(1, 2))
                   + 2.0 * np.sum((x @ c["S"].T) * u, axis=(1, 2))
                   + np.sum((u @ c["R"]) * u, axis=(1, 2)))
        total += 2.0 ** -m * dt * running
        base = x + dt * (x @ c["A"].T + u @ c["B"].T + c["b"])
        noise = root_dt * (x @ c["C"].T + u @ c["D"].T + c["sigma"])
        nxt = np.empty((batch, 2 * x.shape[1], x.shape[2]))
        nxt[:, 0::2] = base + noise
        nxt[:, 1::2] = base - noise
        x = nxt
    total += 2.0 ** -depth * np.sum((x @ c["G"]) * x, axis=(1, 2))
    return 0.5 * total


def lambda_max_estimate(doc, depth):
    """Top eigenvalue of the cost Hessian at a shallow ``depth``.

    The cost is quadratic in the control, so the Hessian entries follow
    exactly (to rounding) from costs of the zero control, unit controls and
    pairs of unit controls; the weighted node basis makes it symmetric in
    the tree inner product.
    """
    k = doc["k"]
    sizes = [(1 << m) * k for m in range(depth)]
    dim = sum(sizes)
    i, j = np.triu_indices(dim)
    flat = np.zeros((1 + dim + i.size, dim))
    flat[1 + np.arange(dim), np.arange(dim)] = 1.0
    rows = 1 + dim + np.arange(i.size)
    flat[rows, i] += 1.0
    flat[rows, j] += 1.0
    levels = np.split(flat, np.cumsum(sizes)[:-1], axis=1)
    costs = cost(doc, [lvl.reshape(flat.shape[0], -1, k) for lvl in levels], depth)
    zero, unit, pair = costs[0], costs[1:1 + dim], costs[1 + dim:]
    hess = np.zeros((dim, dim))
    hess[i, j] = pair - unit[i] - unit[j] + zero
    hess[j, i] = hess[i, j]
    dt = doc["T"] / depth
    weight = np.concatenate([np.full(size, 2.0 ** -m * dt) for m, size in enumerate(sizes)])
    scaled = hess / np.sqrt(np.outer(weight, weight))
    return float(np.linalg.eigvalsh(scaled)[-1])


# -- control tables in the CLI's CSV format ----------------------------------------


def read_control(path, depth, k):
    """Per-level ``(2**m, k)`` arrays from a control CSV, any row order."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    levels = [np.full((1 << m, k), np.nan) for m in range(depth)]
    for row in table:
        levels[int(row[0])][int(row[1])] = row[2:]
    return levels


def write_control(path, levels):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index"] + [f"u{i + 1}" for i in range(levels[0].shape[1])])
        for m, lvl in enumerate(levels):
            for j, values in enumerate(lvl):
                writer.writerow([m, j] + [repr(float(v)) for v in values])


WARMUP_S = 0.1     # untimed at start: the first calls run cold
REWARM_UNITS = 2   # untimed units before each sample: the first after other work runs cold
WIDE_BATCH = 8192  # controls per wide unit, the enumeration's chunk size


class Calibrator:
    """Times a fixed kernel to track the machine's current speed.

    On a shared host, neighbours slow the whole process for seconds at a
    time; a command's wall divided by the unit time measured around it
    cancels most of that slowdown, provided the kernel does the same kind
    of work as the command.  So there are two kernels, both the reference
    cost.  A ``deep`` unit costs one fixed control at depth 14: a forward
    sweep of small numpy operations driven from Python, like the program's
    sweeps (about 2.5 ms).  A ``wide`` unit costs 8192 fixed binary controls
    at depth 3 with k = 3: wide, shallow batches, like enumeration (about
    20 ms).  The kernels are part of the benchmark, so no change to the
    program moves them.
    """

    def __init__(self, shape="deep"):
        rng = np.random.default_rng(0)
        if shape == "deep":
            self.doc = draw_instance(rng, n=2, k=2, depth=14)
            self.control = [np.zeros((1, 1 << m, 2)) for m in range(14)]
        elif shape == "wide":
            self.doc = draw_instance(rng, n=2, k=3, depth=3)
            self.control = [rng.integers(0, 2, size=(WIDE_BATCH, 1 << m, 3)).astype(float)
                            for m in range(3)]
        else:
            raise ValueError(f"unknown calibration shape {shape!r}")
        self.last = None
        start = time.perf_counter()
        while time.perf_counter() - start < WARMUP_S:
            self(1)

    def __call__(self, units):
        """Mean seconds per unit over ``units`` units."""
        for _ in range(REWARM_UNITS):
            cost(self.doc, self.control)
        start = time.perf_counter()
        for _ in range(units):
            cost(self.doc, self.control)
        self.last = (time.perf_counter() - start) / units
        return self.last
