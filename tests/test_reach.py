"""Every function in ``src/lqshift`` is reached from the command line.

A fresh interpreter installs a ``sys.setprofile`` hook before it imports
lqshift, runs a fixed set of CLI calls and lists the functions of the
package's source files that were never called.  Only the functions named in
``UNREACHED`` may stay uncalled, each for the reason it gives."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import lqshift as lq

from oracles import random_instance

SRC = Path(__file__).resolve().parents[1] / "src"
EXAMPLE5 = str(resources.files("lqshift").joinpath("data/example5.json"))

UNREACHED = {
    "spectral._power_iteration":
        "power iteration, a library cross-check the benchmark tracer rebinds",
    "spectral._random_unit_levels": "the power iteration's start vectors",
    "operators._apply_N_levels":
        "the operator N, used by power iteration and the dense assembly",
    "operators.assemble_N_dense": "the dense matrix of N, a test oracle",
    "errors.ConvergenceError.__init__": "raised only by power iteration",
    "oracle._decode_levels":
        "the mixed-radix control decode, a name the benchmark tracer rebinds",
    "model.cost_direct":
        "one control's cost by a sweep, a library call the benchmark tracer rebinds; "
        "example5 takes the all-ones cost from model.cost_constant",
    "model.sample_relaxed_levels":
        "relaxed sampler, a test oracle that the benchmark tracer rebinds",
    "tree.AdaptedProcess.__setattr__": "the immutability guard, which nothing trips",
}

# Runs in the child: argv[1] is the JSON list of CLI calls.  Prints the exit
# codes and the qualified names ("module.qualname") of the uncalled functions.
PROBE = r'''
import sys
from pathlib import Path

called = set()


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))


sys.setprofile(hook)
import contextlib
import inspect
import io
import json

from lqshift import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)


def functions(code, prefix, in_function):
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue  # lambdas and comprehensions run inside their function
        name = prefix + (".<locals>." if in_function else ".") + const.co_name
        is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
        if is_function:
            yield (Path(const.co_filename).name, const.co_firstlineno, const.co_name), name
        yield from functions(const, name, is_function)


uncalled = []
for path in sorted(Path(cli.__file__).parent.glob("*.py")):
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    uncalled += [name for key, name in functions(module, path.stem, False) if key not in called]
print(json.dumps({"codes": codes, "uncalled": uncalled}))
'''


def _calls(tmp_path):
    """The probe's CLI calls and the exit code each error case must give."""
    paths = [EXAMPLE5]
    for seed, cut in ((0, None), (1, None), (14, 1.5)):
        inst, domain = random_instance(seed, n_max=3, k_max=3, depth_max=3)
        doc = lq.dump_instance(inst, domain)
        if cut is not None:  # k = 3, and u1 + u2 + u3 <= 1.5 has non-binary vertices
            doc["domain"] = {"halfspaces": [{"normal": [1.0] * inst.k, "bound": cut}]}
        paths.append(str(tmp_path / f"seed{seed}.json"))
        Path(paths[-1]).write_text(json.dumps(doc))
    calls = []
    for i, path in enumerate(paths):
        control = str(tmp_path / f"control{i}.csv")
        calls += [["validate", path], ["spectrum", path, "--certify"],
                  ["solve", path, "--control-out", control],
                  ["verify", path, "--control", control],
                  ["equivalence", path]]
    path, control = paths[2], str(tmp_path / "control2.csv")
    calls += [["solve", path, "--mu", "-3", "--start", control],
              ["verify", path, "--mu", "-3", "--control", control, "--kind", "relaxed"],
              ["equivalence", EXAMPLE5, "--depth", "3", "--mu", "-1"],
              ["example5", "--depths", "2,3", "--csv", str(tmp_path / "table.csv")]]
    # a level too wide for int64: the bulk parser refuses the row, the
    # row-by-row reader parses it and finds the level out of range
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("level,index,u1\n99999999999999999999,0,0.0\n")
    errors = [(["equivalence", path, "--budget", "1"], 4),
              (["verify", EXAMPLE5, "--control", str(malformed)], 5),
              (["validate", str(tmp_path / "absent.json")], 2)]
    return calls, errors


def test_every_function_is_reached_or_named(tmp_path):
    calls, errors = _calls(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = calls + [call for call, _ in errors]
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    codes = probe["codes"]
    assert all(code in (0, 1, 3) for code in codes[:len(calls)]), codes
    assert codes[len(calls):] == [code for _, code in errors]

    def allowed(name):
        return any(name == entry or name.startswith(entry + ".<locals>.")
                   for entry in UNREACHED)

    assert [name for name in probe["uncalled"] if not allowed(name)] == []
    # an entry the calls now reach, or that no longer exists, leaves the list
    assert set(UNREACHED) <= set(probe["uncalled"])
