import csv
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import lqshift as lq
from lqshift.cli import main
from lqshift.model import COEFFICIENTS, coefficient_shapes

import oracles
from oracles import random_instance


def minimal_payload(**overrides):
    payload = {
        "n": 1, "k": 1, "T": 1.0, "depth": 2,
        "coefficients": {"D": [[1.0]], "Q": [[2.0]], "R": [[-1.0]], "G": [[2.0]]},
    }
    payload.update(overrides)
    return payload


def issue_paths(excinfo):
    return [path for path, _ in excinfo.value.issues]


def test_round_trip_through_json(tmp_path):
    inst, domain = random_instance(5, with_sources=True)
    payload = lq.dump_instance(inst, domain)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    loaded, loaded_domain = lq.load_instance(str(path))
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "G", "x0"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(inst, name))
    assert (loaded.n, loaded.k, loaded.T, loaded.depth) == \
        (inst.n, inst.k, inst.T, inst.depth)
    assert loaded_domain.halfspaces == domain.halfspaces
    assert lq.instance_digest(loaded, loaded_domain) == \
        lq.instance_digest(inst, domain)


def test_constant_form_round_trip(bench2, free1):
    payload = lq.dump_instance(bench2, free1)
    # time-independent coefficients collapse to a single matrix
    assert payload["coefficients"]["Q"] == [[2.0]]
    assert "domain" not in payload
    loaded, _ = lq.load_instance(payload)
    np.testing.assert_array_equal(loaded.Q, bench2.Q)


def test_digest_ignores_representation(bench2, free1):
    stacked = lq.LQInstance(
        n=1, k=1, T=1.0, depth=2,
        A=bench2.A.copy(), B=bench2.B.copy(), C=bench2.C.copy(),
        D=bench2.D.copy(), b=bench2.b.copy(), sigma=bench2.sigma.copy(),
        Q=bench2.Q.copy(), S=bench2.S.copy(), R=bench2.R.copy(),
        G=bench2.G.copy(), x0=bench2.x0.copy())
    assert lq.instance_digest(stacked, free1) == lq.instance_digest(bench2, free1)
    other = lq.with_depth(bench2, 3)
    assert lq.instance_digest(other, free1) != lq.instance_digest(bench2, free1)


def _payload_level_by_level(stack):
    """The payload rule compared one level at a time: the reference."""
    if all(np.array_equal(stack[0], stack[m]) for m in range(stack.shape[0])):
        return stack[0].tolist()
    return stack.tolist()


def test_digest_matches_the_level_by_level_payload(monkeypatch):
    cases = [random_instance(seed, n_max=3, k_max=3, depth_max=6) for seed in range(40)]
    free1 = lq.ControlDomain.free(1)
    cases += [(lq.example5_instance(depth), free1) for depth in (1, 2, 200)]
    digests = [lq.instance_digest(inst, domain) for inst, domain in cases]
    monkeypatch.setattr(lq.io, "_coefficient_payload", _payload_level_by_level)
    assert digests == [lq.instance_digest(inst, domain) for inst, domain in cases]


def test_loader_reports_paths():
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(minimal_payload(extra=1))
    assert "/extra" in issue_paths(excinfo)
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(minimal_payload(n="one"))
    assert "/n" in issue_paths(excinfo)
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(minimal_payload(T=-2.0))
    assert "/T" in issue_paths(excinfo)
    bad = minimal_payload()
    bad["coefficients"] = dict(bad["coefficients"], A=[[1.0, 2.0]])
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(bad)
    assert any(p.startswith("/coefficients/A") for p in issue_paths(excinfo))
    ragged = minimal_payload()
    ragged["coefficients"] = dict(ragged["coefficients"], Q=[[1.0], [1.0, 2.0]])
    with pytest.raises(lq.InstanceFormatError):
        lq.load_instance(ragged)
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(minimal_payload(x0=[1.0, 2.0]))
    assert "/x0" in issue_paths(excinfo)


def test_loader_lists_every_bad_coefficient_in_schema_order():
    doc = minimal_payload(n=2, x0=[1.0, 2.0, 3.0], coefficients={
        "x0": [0.0, 0.0], "sigma": [[1.0, 2.0]] * 3, "Q": [[1.0, float("nan")], [1.0, 1.0]],
        "Z": 1.0, "G": [[1.0, 2.0]], "b": [[1.0], [1.0, 2.0]], "A": "none",
        "S": [[0.0, 0.0]],
    })
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(doc)
    assert excinfo.value.issues == [
        ("/coefficients/x0", "unknown coefficient"),
        ("/coefficients/Z", "unknown coefficient"),
        ("/coefficients/A", "must be a (nested) list of numbers"),
        ("/coefficients/Q", "contains non-finite entries"),
        ("/coefficients/b", "must be a (nested) list of numbers"),
        ("/coefficients/sigma", "shape (3, 2) is neither (2,) nor (2, 2)"),
        ("/coefficients/G", "shape (1, 2) is not (2, 2)"),
        ("/x0", "shape (3,) is not (2,)"),
    ]


@pytest.mark.parametrize("name", list(COEFFICIENTS))
def test_each_coefficient_survives_dump_load_and_resampling(name):
    n, k, depth = 2, 3, 3
    schema = {other: (shape, lvl) for other, shape, lvl in coefficient_shapes(n, k)}
    one, per_level = schema[name]
    shape = ((depth,) if per_level else ()) + one
    value = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)  # unequal levels
    if name in ("Q", "R", "G"):
        value = value + np.swapaxes(value, -1, -2)
    values = {other: np.zeros(((depth,) if lvl else ()) + other_shape)
              for other, (other_shape, lvl) in schema.items()}
    values[name] = value
    inst = lq.LQInstance(n=n, k=k, T=1.0, depth=depth, **values)
    domain = lq.ControlDomain.free(k)
    payload = json.loads(json.dumps(lq.dump_instance(inst, domain)))
    written = payload["x0"] if name == "x0" else payload["coefficients"][name]
    assert np.shape(written) == shape
    loaded, _ = lq.load_instance(payload)
    for other in COEFFICIENTS:
        np.testing.assert_array_equal(getattr(loaded, other), getattr(inst, other))
    assert lq.instance_digest(loaded, domain) == lq.instance_digest(inst, domain)
    finer = lq.with_depth(inst, 2 * depth)  # step m of the finer tree lies in step m // 2
    expected = value[np.arange(2 * depth) // 2] if per_level else value
    np.testing.assert_array_equal(getattr(finer, name), expected)


def test_loader_rejects_bad_domains():
    payload = minimal_payload(domain={"halfspaces": [{"normal": [1.0]}]})
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(payload)
    assert any(p.startswith("/domain/halfspaces/0") for p in issue_paths(excinfo))
    payload = minimal_payload(domain={"halfspaces": [
        {"normal": [1.0, 2.0], "bound": 0.5}]})
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(payload)
    assert any(p.endswith("/normal") for p in issue_paths(excinfo))
    payload = minimal_payload(domain={"halfspaces": [
        {"normal": [1.0], "bound": "x"}]})
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(payload)
    assert any(p.endswith("/bound") for p in issue_paths(excinfo))


def test_loader_file_errors(tmp_path):
    with pytest.raises(lq.InstanceFormatError) as excinfo:
        lq.load_instance(str(tmp_path / "nope.json"))
    assert "file not found" in excinfo.value.issues[0][1]
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(lq.InstanceFormatError):
        lq.load_instance(str(broken))
    array_top = tmp_path / "top.json"
    array_top.write_text("[1, 2]")
    with pytest.raises(lq.InstanceFormatError):
        lq.load_instance(str(array_top))


def test_per_level_coefficients_load():
    payload = minimal_payload(depth=2)
    payload["coefficients"] = dict(payload["coefficients"],
                                   Q=[[[2.0]], [[4.0]]])
    inst, _ = lq.load_instance(payload)
    np.testing.assert_array_equal(inst.Q[:, 0, 0], [2.0, 4.0])
    # wrong level count is a format error, not a numpy error
    payload["coefficients"] = dict(payload["coefficients"], Q=[[[2.0]]])
    with pytest.raises(lq.InstanceFormatError):
        lq.load_instance(payload)


def test_with_depth_resampling(bench2):
    finer = lq.with_depth(bench2, 8)
    assert finer.depth == 8
    reference = lq.example5_instance(8)
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R"):
        np.testing.assert_array_equal(getattr(finer, name),
                                      getattr(reference, name))
    # genuinely time-varying coefficients pick the covering step midpoints
    varying = lq.LQInstance(
        n=1, k=1, T=1.0, depth=4,
        A=np.arange(4.0).reshape(4, 1, 1), B=np.zeros((4, 1, 1)),
        C=np.zeros((4, 1, 1)), D=np.ones((4, 1, 1)),
        b=np.zeros((4, 1)), sigma=np.zeros((4, 1)),
        Q=np.zeros((4, 1, 1)), S=np.zeros((4, 1, 1)), R=np.zeros((4, 1, 1)),
        G=np.zeros((1, 1)), x0=np.zeros(1))
    coarse = lq.with_depth(varying, 2)
    np.testing.assert_array_equal(coarse.A[:, 0, 0], [1.0, 3.0])
    with pytest.raises(ValueError):
        lq.with_depth(bench2, 0)


def test_with_depth_peaks_near_its_stacks(bench2):
    """Resampling holds the level index and at most one stack-sized
    temporary beyond the new stacks, so the coefficient memory bound stays
    close to the peak: Example 5's nine level stacks peak at 1.22 times
    their size."""
    tracemalloc.start()
    try:
        deep = lq.with_depth(bench2, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacks = sum(getattr(deep, name).nbytes for name in COEFFICIENTS)
    assert peak <= 1.25 * stacks


def test_control_csv_round_trip(tmp_path, bench2, free1, bits_control):
    control = bits_control(bench2.tree, [1, 0, 1])
    path = tmp_path / "control.csv"
    lq.write_control_csv(path, control)
    loaded = lq.load_control_csv(path, free1, bench2.tree)
    for m in range(bench2.tree.depth):
        np.testing.assert_array_equal(loaded.process.levels[m],
                                      control.process.levels[m])
    # row order in the file does not matter
    lines = path.read_text().strip().splitlines()
    shuffled = [lines[0]] + lines[1:][::-1]
    path.write_text("\n".join(shuffled) + "\n")
    reloaded = lq.load_control_csv(path, free1, bench2.tree)
    np.testing.assert_array_equal(reloaded.process.levels[1],
                                  control.process.levels[1])


def test_control_csv_error_modes(tmp_path, bench2, free1):
    tree = bench2.tree

    def attempt(text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(lq.ControlFileError) as excinfo:
            lq.load_control_csv(path, free1, tree)
        return str(excinfo.value)

    with pytest.raises(lq.ControlFileError, match="not found"):
        lq.load_control_csv(tmp_path / "missing.csv", free1, tree)
    assert "header" in attempt("level,index\n0,0\n")
    assert "missing" in attempt("level,index,u1\n0,0,1.0\n1,0,1.0\n")
    assert "twice" in attempt(
        "level,index,u1\n0,0,1.0\n1,0,0.0\n1,1,0.0\n1,1,1.0\n")
    assert "non-numeric" in attempt(
        "level,index,u1\n0,0,one\n1,0,0.0\n1,1,0.0\n")
    assert "outside" in attempt(
        "level,index,u1\n5,0,1.0\n0,0,1.0\n1,0,0.0\n1,1,0.0\n")
    assert "outside" in attempt(
        "level,index,u1\n0,3,1.0\n0,0,1.0\n1,0,0.0\n1,1,0.0\n")
    assert "fields" in attempt(
        "level,index,u1\n0,0\n1,0,0.0\n1,1,0.0\n")
    # a syntactically clean file can still violate the declared value set
    message = attempt("level,index,u1\n0,0,0.5\n1,0,0.0\n1,1,0.0\n")
    assert "outside" in message


def _load_text(tmp_path, tree, domain, data):
    path = tmp_path / "control.csv"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, newline="")
    return lq.load_control_csv(path, domain, tree)


def _load_error(tmp_path, tree, domain, data):
    with pytest.raises(lq.ControlFileError) as excinfo:
        _load_text(tmp_path, tree, domain, data)
    return str(excinfo.value)


def test_control_csv_diagnostics_name_the_file_line(tmp_path, bench2, free1):
    """Blank lines are skipped but counted, so the named line is the file line."""
    head = "level,index,u1\n"
    cases = [
        ("0,0,0.0\n1,0\n1,1,0.0\n", "line 3: expected 3 fields"),
        ("0,0,0.0\n\n1,0\n1,1,0.0\n", "line 4: expected 3 fields"),
        ("0,0,0.0\n1,0,0.0,1.0\n", "line 3: expected 3 fields"),
        ("0,0,0.0\n   \n", "line 3: expected 3 fields"),
        ("\n\n0,0,x\n", "line 4: non-numeric field"),
        ("0,0,0.0\n1,,0.0\n", "line 3: non-numeric field"),
        ("1.0,0,0.0\n", "line 2: non-numeric field"),
        ("0,0,0.0\n\n2,0,0.0\n", "line 4: level 2 outside 0..1"),
        ("-1,0,0.0\n", "line 2: level -1 outside 0..1"),
        ("99999999999999999999,0,0.0\n",
         "line 2: level 99999999999999999999 outside 0..1"),
        ("\n1,2,0.0\n", "line 3: index 2 outside 0..1"),
        ("0,-1,0.0\n", "line 2: index -1 outside 0..0"),
        ("0,0,0.0\n1,1,0.0\n\n1,1,1.0\n", "line 5: node (1, 1) given twice"),
        ("0,0,0.0\n\n1,0,nan\n", "line 4: non-finite value"),
        ("0,0,-inf\n", "line 2: non-finite value"),
        # the first offending row wins, whichever rule it breaks
        ("0,0,0.0\n5,0,0.0\n1,0,x\n", "line 3: level 5 outside 0..1"),
        ("0,0,0.0\n1,0,x\n5,0,0.0\n", "line 3: non-numeric field"),
        ("0,0,nan\n0,0,0.0\n", "line 2: non-finite value"),
        ("0,0,0.0\n0,0,nan\n", "line 3: node (0, 0) given twice"),
    ]
    for body, expected in cases:
        assert _load_error(tmp_path, bench2.tree, free1, head + body) == expected, body


def test_control_csv_in_node_order_reads_as_shuffled(tmp_path):
    """Rows in node order take the one-check path, any other order the
    sort pass; both give byte-identical level arrays."""
    inst, domain = random_instance(2, n_max=2, k_max=2, depth_max=4)
    inst = lq.with_depth(inst, 6)
    verts = domain.binary_vertices()
    rng = np.random.default_rng(4)
    control = lq.ControlProcess.from_levels(
        domain, inst.tree,
        [verts[rng.integers(len(verts), size=inst.tree.num_nodes(m))]
         for m in range(inst.depth)])
    path = tmp_path / "control.csv"
    lq.write_control_csv(path, control)
    header, *rows = path.read_text().splitlines()
    canonical = lq.load_control_csv(path, domain, inst.tree)
    order = rng.permutation(len(rows))
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
    shuffled = lq.load_control_csv(path, domain, inst.tree)
    for got, want, ref in zip(shuffled.levels, canonical.levels, control.levels):
        assert got.tobytes() == want.tobytes() == ref.tobytes()


def test_control_csv_in_node_order_keeps_its_diagnostics(tmp_path, free1):
    """A file that is not every node once, in order and finite takes the
    sort pass and its messages: a row in another node's slot, duplicate,
    missing and non-finite rows, with blank lines counted."""
    tree = lq.build_tree(3, 1.0)
    head = "level,index,u1\n"
    rows = ["0,0,0.0", "1,0,0.0", "1,1,1.0", "2,0,0.0", "2,1,1.0", "2,2,0.0", "2,3,1.0"]

    def body(replace=None, blank_before=()):
        lines = []
        for r, row in enumerate(rows):
            lines += [""] * (r in blank_before)
            lines.append(replace[1] if replace and replace[0] == r else row)
        return head + "\n".join(lines) + "\n"

    assert _load_text(tmp_path, tree, free1, body()).levels[2].tobytes() == \
        np.array([[0.0], [1.0], [0.0], [1.0]]).tobytes()
    cases = [
        (body((3, "1,2,0.0")), "line 5: index 2 outside 0..1"),
        (body((3, "1,2,0.0"), blank_before=(1, 3)), "line 7: index 2 outside 0..1"),
        (body((4, "2,0,1.0"), blank_before=(2,)), "line 7: node (2, 0) given twice"),
        (body((6, "2,2,1.0"), blank_before=(6,)), "line 9: node (2, 2) given twice"),
        (head + "\n".join(rows[:3] + [""] + rows[4:]) + "\n", "node (2, 0) is missing"),
        (head + "\n".join(rows[:-1]) + "\n\n", "node (2, 3) is missing"),
        (body((5, "2,2,nan"), blank_before=(5,)), "line 8: non-finite value"),
        (body((0, "0,0,inf"), blank_before=(0,)), "line 3: non-finite value"),
    ]
    for text, expected in cases:
        assert _load_error(tmp_path, tree, free1, text) == expected, text


def test_control_csv_accepted_syntax(tmp_path, bench2, free1):
    # surrounding spaces and CRLF line ends
    crlf = b" level , index , u1 \r\n 0 , 0 , 1.0 \r\n\r\n1,0,0.0\r\n1 ,1, 1\r\n"
    loaded = _load_text(tmp_path, bench2.tree, free1, crlf)
    np.testing.assert_array_equal(loaded.process.levels[0], [[1.0]])
    np.testing.assert_array_equal(loaded.process.levels[1], [[0.0], [1.0]])
    # no final newline, and signed literals
    loaded = _load_text(tmp_path, bench2.tree, free1,
                        "level,index,u1\n+0,0,-0.0\n1,0,1e0\n1,1,0")
    assert str(loaded.process.levels[0][0, 0]) == "-0.0"
    np.testing.assert_array_equal(loaded.process.levels[1], [[1.0], [0.0]])


def test_control_csv_rejected_syntax(tmp_path, bench2, free1):
    assert _load_error(tmp_path, bench2.tree, free1, "") == "empty control file"
    # a header alone leaves every node missing
    assert _load_error(tmp_path, bench2.tree, free1, "level,index,u1\n") == \
        "node (0, 0) is missing"
    assert _load_error(tmp_path, bench2.tree, free1, "level,index,u1\n\n\n") == \
        "node (0, 0) is missing"
    # '#' starts no comment: the row is checked like any other
    assert _load_error(tmp_path, bench2.tree, free1,
                       "level,index,u1\n# written by hand\n") == \
        "line 2: expected 3 fields"
    assert _load_error(tmp_path, bench2.tree, free1,
                       "level,index,u1\n#0,0,0.0\n1,0,0.0\n1,1,0.0\n") == \
        "line 2: non-numeric field"
    assert _load_error(tmp_path, bench2.tree, free1,
                       "level,index,u1\n0,0,0.0\n1,0,0.0\n") == \
        "node (1, 1) is missing"


def _csv_module_table(path, control):
    """The table as ``csv.writer`` writes it, one ``writerow`` per node."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index"] + [f"u{i + 1}" for i in range(control.process.dim)])
        for m, lvl in enumerate(control.levels):
            for j, row in enumerate(lvl):
                writer.writerow([m, j] + [repr(float(v)) for v in row])


def test_control_csv_writer_matches_csv_module(tmp_path, capsys):
    """The writer's bytes are ``csv.writer``'s at depths 1-12 and k = 1-3, for
    binary and relaxed controls and for the values whose ``repr`` is
    longest or signed; ``solve --control-out`` writes them too."""
    rng = np.random.default_rng(2)
    special = [-0.0, 5e-324, 1 - 2 ** -53, 0.1 + 0.2]
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    for depth in range(1, 13):
        for k in (1, 2, 3):
            tree = lq.build_tree(depth, 1.0)
            domain = lq.ControlDomain(k=k, halfspaces=(([1.0] * k, k - 0.5),))
            verts = domain.binary_vertices()
            binary = [verts[rng.integers(len(verts), size=tree.num_nodes(m))]
                      for m in range(depth)]
            binary[-1][:1, :1] = -0.0
            relaxed = [rng.uniform(0.0, 0.75 / k, size=(tree.num_nodes(m), k))
                       for m in range(depth)]
            relaxed[-1].flat[:len(special)] = special[:relaxed[-1].size]
            for kind, levels, space in (("binary", binary, domain),
                                        ("relaxed", relaxed, lq.ControlDomain.free(k))):
                control = lq.ControlProcess.from_levels(space, tree, levels, kind)
                lq.write_control_csv(ours, control)
                _csv_module_table(reference, control)
                assert ours.read_bytes() == reference.read_bytes(), (depth, k, kind)
                back = lq.load_control_csv(ours, space, tree, kind=kind)
                for got, want in zip(back.levels, control.levels):
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for seed in (0, 3, 14):
        inst, domain = random_instance(seed, n_max=2, k_max=3, depth_max=8)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(lq.dump_instance(inst, domain)))
        assert main(["solve", str(path), "--mu", "-3", "--control-out", str(ours)]) in (0, 1)
        capsys.readouterr()
        _csv_module_table(reference, lq.load_control_csv(ours, domain, inst.tree))
        assert ours.read_bytes() == reference.read_bytes(), seed


# -- the byte-level reader against the reference reader ---------------------------

# spellings of each binary value that both readers take, none of them the
# vertex's ``repr``; the last two of 1 lie within the membership tolerance
SPELLINGS = {0.0: ["0", "0.", "+0.0", "-0.0", "0e0", "1e-400"],
             1.0: ["1", "1.", "1e0", "0.9999999995", "1.0000000004"]}


def _both_loaders(path, domain, tree, kind="binary"):
    """The outcome of the byte-level loader and of the reference loader: the
    levels' bit patterns, or the refusal's type and message."""
    outcomes = []
    for load in (lq.load_control_csv, oracles.load_control_csv_reference):
        try:
            control = load(path, domain, tree, kind)
        except (lq.ControlFileError, ValueError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        else:
            outcomes.append([level.view(np.int64).tobytes() for level in control.levels])
    return outcomes


def _binary_rows(seed):
    """A seeded binary control's domain, tree and ``level,index,u..`` rows:
    k <= 3, depth 1-10, on a free, integrally cut or fractionally cut domain."""
    rng = np.random.default_rng(seed)
    k, depth = int(rng.integers(1, 4)), int(rng.integers(1, 11))
    cut = [(), (([1.0] * k, float(max(k - 1, 1))),), (([1.0] * k, k - 0.5),)][seed % 3]
    domain = lq.ControlDomain(k=k, halfspaces=cut)
    verts = domain.binary_vertices()
    tree = lq.build_tree(depth, 1.0)
    levels = [verts[rng.integers(len(verts), size=tree.num_nodes(m))] for m in range(depth)]
    control = lq.ControlProcess.from_levels(domain, tree, levels)
    rows = [[str(m), str(j)] + [repr(float(v)) for v in row]
            for m, level in enumerate(control.levels) for j, row in enumerate(level)]
    return domain, tree, control, rows, rng


def _table_bytes(k, rows, end="\r\n"):
    header = ",".join(["level", "index"] + [f"u{i + 1}" for i in range(k)])
    return end.join([header] + [",".join(row) for row in rows]).encode() + end.encode()


def test_node_order_reader_gives_the_reference_values(tmp_path):
    """Node-order binary files, as written and with every field spelled
    another way, load to the reference's levels bit for bit; the files the
    writer and ``csv.writer`` write take the byte-level path."""
    path = tmp_path / "control.csv"
    taken = 0
    for seed in range(60):
        domain, tree, control, rows, rng = _binary_rows(seed)
        spelled = [row[:2] + [SPELLINGS[float(v)][rng.integers(len(SPELLINGS[float(v)]))]
                              for v in row[2:]] for row in rows]
        lq.write_control_csv(path, control)
        written = path.read_bytes()
        _csv_module_table(path, control)
        assert path.read_bytes() == written
        for data in (written, written.replace(b"\r\n", b"\n"), _table_bytes(domain.k, spelled),
                     _table_bytes(domain.k, spelled, "\n")):
            path.write_bytes(data)
            ours, reference = _both_loaders(path, domain, tree)
            assert isinstance(reference, list) and ours == reference, (seed, data[:80])
        for data in (written, written.replace(b"\r\n", b"\n")):
            taken += lq.io._node_order_values(data, domain.k, tree) is not None
    assert taken == 120


def test_node_order_reader_keeps_the_reference_refusals(tmp_path):
    """A node-order file with one defect, whichever loader reads it, gives the
    reference's message (or, where the reference accepts it, its values)."""
    path = tmp_path / "control.csv"
    domain = lq.ControlDomain.free(2)
    tree = lq.build_tree(10, 1.0)
    rng = np.random.default_rng(5)
    levels = [domain.binary_vertices()[rng.integers(4, size=tree.num_nodes(m))]
              for m in range(tree.depth)]
    lq.write_control_csv(path, lq.ControlProcess.from_levels(domain, tree, levels))
    good = path.read_bytes()
    line = good.split(b"\r\n")[600]   # a row of level 9, past 8 KB
    row = line.replace(b",", b" ,", 1)
    cases = {
        "space": row, "tab": line.replace(b",", b",\t", 1),
        "quotes": line[:line.rindex(b",") + 1] + b'"' + line[line.rindex(b",") + 1:] + b'"',
        "nan": line[:line.rindex(b",") + 1] + b"nan", "inf": line[:line.rindex(b",") + 1] + b"inf",
        "1e400": line[:line.rindex(b",") + 1] + b"1e400", "1_0": line[:line.rindex(b",") + 1] + b"1_0",
        "non-ASCII digit": line[:line.rindex(b",") + 1] + "\u0661".encode(),
        "bad UTF-8": line[:line.rindex(b",") + 1] + b"\xff",
        "extra field": line + b",0.0", "missing field": line[:line.rindex(b",")],
        "empty field": line[:line.rindex(b",") + 1], "signed index": line.replace(b",", b",+", 1),
        "zero-padded index": line.replace(b",", b",0", 1), "signed level": b"+" + line,
        "wrong level": b"8" + line[1:], "wrong index": line.replace(b",", b",9", 1),
        "membership": line[:line.rindex(b",") + 1] + b"0.5",
    }
    good_lines = good.split(b"\r\n")
    files = {name: b"\r\n".join(good_lines[:600] + [bad] + good_lines[601:])
             for name, bad in cases.items()}
    files.update({
        "blank line": good.replace(line + b"\r\n", line + b"\r\n\r\n"),
        "lone CR": good.replace(line + b"\r\n", line + b"\r"),
        "no final newline": good[:-2],
        "rows out of order": b"\r\n".join(good_lines[:600] + good_lines[601:603][::-1]
                                          + [line] + good_lines[603:]),
        "duplicate row": good.replace(line, good_lines[599]),
        "header only": good_lines[0] + b"\r\n", "empty": b"",
        "header spaced": good.replace(b"level,index", b"level, index", 1),
    })
    accepted = set()
    for name, data in files.items():
        path.write_bytes(data)
        ours, reference = _both_loaders(path, domain, tree)
        assert ours == reference, name
        if isinstance(reference, list):   # read by the other path: the header test sends
            accepted.add(name)              # a spaced header there
            assert name == "header spaced" or lq.io._node_order_values(data, 2, tree) is None
    assert accepted == {"space", "tab", "quotes", "signed index", "zero-padded index",
                        "signed level", "blank line", "lone CR", "no final newline",
                        "rows out of order", "header spaced"}
    # a relaxed file reads as the reference reads it
    path.write_bytes(good)
    ours, reference = _both_loaders(path, domain, tree, "relaxed")
    assert ours == reference and isinstance(ours, list)


def test_node_order_reader_checks_in_the_reference_order(tmp_path):
    """Read errors come before the header, the header before the node
    memory bound, and that bound before the rows."""
    path = tmp_path / "control.csv"
    deep = lq.build_tree(40, 1.0)
    head = b"level,index,u1,u2\r\n"
    for data in (head + b"0,0,1.0,\xff1.0\r\n", b"level,index,u1\r\n0,0,1.0\r\n",
                 head + b"0,0,1.0,1.0\r\n"):
        path.write_bytes(data)
        ours, reference = _both_loaders(path, lq.ControlDomain.free(2), deep)
        assert ours == reference and isinstance(ours, tuple), data


def test_node_order_reader_peaks_below_the_reference(tmp_path):
    """At depth 18 with k = 2 the byte-level loader's peak traced memory is no
    higher than the reference loader's."""
    domain = lq.ControlDomain.free(2)
    tree = lq.build_tree(18, 1.0)
    rng = np.random.default_rng(18)
    levels = [domain.binary_vertices()[rng.integers(4, size=tree.num_nodes(m))]
              for m in range(tree.depth)]
    path = tmp_path / "control.csv"
    lq.write_control_csv(path, lq.ControlProcess.from_levels(domain, tree, levels))
    peaks = []
    for load in (lq.load_control_csv, oracles.load_control_csv_reference):
        tracemalloc.start()
        try:
            load(path, domain, tree)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_packaged_example_matches_builder(bench2, free1):
    source = resources.files("lqshift").joinpath("data/example5.json")
    payload = json.loads(source.read_text())
    inst, domain = lq.load_instance(payload)
    assert domain.halfspaces == ()
    assert lq.instance_digest(inst, domain) == lq.instance_digest(bench2, free1)


def test_report_envelope():
    report = lq.make_report("spectrum", {"value": 1.0}, digest="abc",
                            parameters={"tol": 1e-9},
                            timings={"spectrum": 0.123456789})
    assert report["tool"] == "lqshift"
    assert report["version"] == lq.PACKAGE_VERSION
    assert report["timings"]["spectrum"] == 0.123457
    text = lq.report_json(report)
    assert text.endswith("\n")
    assert json.loads(text)["command"] == "spectrum"
