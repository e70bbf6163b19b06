import csv
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import lqshift as lq
from lqshift.model import COEFFICIENTS, coefficient_shape


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
    inst, domain = lq.random_instance(5, with_sources=True)
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
    cases = [lq.random_instance(seed, n_max=3, k_max=3, depth_max=6) for seed in range(40)]
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
    per_level = COEFFICIENTS[name][1]
    shape = ((depth,) if per_level else ()) + coefficient_shape(name, n, k)
    value = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)  # unequal levels
    if name in ("Q", "R", "G"):
        value = value + np.swapaxes(value, -1, -2)
    values = {other: np.zeros(((depth,) if lvl else ()) + coefficient_shape(other, n, k))
              for other, (_, lvl) in COEFFICIENTS.items()}
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


def test_control_csv_writer_matches_csv_module(tmp_path):
    tree = lq.LQInstance.constant(depth=10, n=1, k=2).tree
    domain = lq.ControlDomain(k=2, halfspaces=(([1.0, 1.0], 1.5),))
    rng = np.random.default_rng(2)
    verts = domain.binary_vertices()
    binary = lq.ControlProcess.from_levels(
        domain, tree, [verts[rng.integers(len(verts), size=tree.num_nodes(m))]
                       for m in range(tree.depth)], "binary")
    levels = [rng.uniform(0.0, 0.75, size=(tree.num_nodes(m), 2))
              for m in range(tree.depth)]
    levels[9][:4] = [[0.1 + 0.2, 5e-324], [-0.0, 1 - 2 ** -53], [1 - 2 ** -53, 0.0],
                     [0.0, -0.0]]
    relaxed = lq.ControlProcess.from_levels(domain, tree, levels, "relaxed")
    for control in (binary, relaxed):
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        lq.write_control_csv(ours, control)
        _csv_module_table(reference, control)
        assert ours.read_bytes() == reference.read_bytes()
        back = lq.load_control_csv(ours, domain, tree, kind=control.kind)
        for got, want in zip(back.levels, control.levels):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
