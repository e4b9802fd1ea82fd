"""Byte-for-byte CLI outputs on the demos/ inputs.

Each case runs ``wedgecap.cli.main`` from the checkout root, so the input
paths echoed in the JSON ``config`` are the same in every checkout, and
compares stdout with the file of the same name under ``tests/golden/``.
After a declared output change, regenerate the files it moves by name,

    python tests/test_golden.py verify_heat.json

so that no other golden file is rewritten; with no names, all of them.
For each file it prints the largest relative change of any number in it.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
MEASURE = "tests/golden/measure.json"
PLANE = "tests/golden/measure_plane.json"   # three atoms on R^2
GRID = "tests/golden/grid_set.json"
QUARTER = ("--N", "3", "--k", "2", "--alpha1", "1.5707963267948966")

CASES = {
    "exponents.json": ("exponents",) + QUARTER + ("--q", "1.7"),
    "exponents_box.json": ("exponents", "--N", "4", "--k", "3", "--alpha1", "1.8",
                           "--interval", "0.6,2.2"),
    "classify.json": ("classify", "--poly", "demos/cube.json", "--q", "1.7",
                      "--set", "demos/vertex_set.json",
                      "--measure", "demos/edge_measure.json"),
    "kernel_truncated.json": ("kernel", "--measure", MEASURE, "--nu", "5", "--m", "1",
                              "--q", "1.8", "--s", "0.22", "--R", "8",
                              "--tau", "0.5", "--eps", "1e-2"),
    "kernel_full_line.json": ("kernel", "--measure", MEASURE, "--nu", "3", "--m", "1",
                              "--q", "1.8", "--sigma", "0.5", "--j", "2",
                              "--tau", "0.5", "--eps", "1e-2"),
    "kernel_m2.json": ("kernel", "--measure", PLANE, "--nu", "3", "--m", "2",
                       "--q", "1.5", "--tau", "0.5"),
    "besov.json": ("besov", "--measure", MEASURE, "--s", "0.25", "--q", "2.0"),
    "capacity.json": ("capacity", "--set", GRID, "--alpha", "0.6", "--p", "2.0"),
    "capacity_point.json": ("capacity", "--set", "demos/vertex_set.json",
                            "--alpha", "0.6", "--p", "2.0"),
    "capacity.csv": ("capacity", "--set", GRID, "--alpha", "0.6", "--p", "2.0",
                     "--format", "csv"),
    "verify_dichotomy.json": ("verify", "dichotomy") + QUARTER + ("--q", "2.0"),
    "verify_dichotomy.csv": ("verify", "dichotomy") + QUARTER + ("--q", "2.0",
                                                               "--format", "csv"),
    "verify_equivalence.json": ("verify", "equivalence") + QUARTER
    + ("--n-measures", "2"),
    "verify_equivalence.csv": ("verify", "equivalence") + QUARTER
    + ("--n-measures", "2", "--format", "csv"),
    "verify_remainder.json": ("verify", "remainder"),
    "verify_harmonicity.json": ("verify", "harmonicity"),
    "verify_heat.json": ("verify", "heat", "--q", "1.7"),
}


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def run(argv):
    from wedgecap.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(CASES[name])
    assert code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


# SciPy is imported inside the functions that use it, and other test modules
# have loaded it before the cases above run; these cases reach every such
# import, here from an interpreter that has not loaded SciPy yet
COLD = ("capacity.json", "exponents_box.json", "verify_dichotomy.json",
        "verify_heat.json")
# the kernel and Besov functionals need numpy alone: SciPy's import would
# double a process's start and add a third to its memory
NUMPY_ONLY = ("besov.json", "kernel_truncated.json", "kernel_full_line.json")


def _run_cold(names):
    """Run the cases ``names`` in one fresh interpreter; returns their
    (exit code, output) pairs and whether SciPy was loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    script = ("import json, sys; sys.path.insert(0, 'tests'); "
              "from test_golden import CASES, run; "
              "outs = [run(CASES[name]) for name in sys.argv[1:]]; "
              "print(json.dumps([outs, 'scipy' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script, *names], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _check_goldens(names, outs):
    for name, (code, out) in zip(names, outs):
        assert code == 0, name
        with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
            assert out == fh.read(), name


def test_lazy_imports_from_a_cold_process():
    outs, _ = _run_cold(COLD)
    _check_goldens(COLD, outs)


def test_kernel_path_loads_no_scipy():
    outs, scipy_loaded = _run_cold(NUMPY_ONLY)
    _check_goldens(NUMPY_ONLY, outs)
    assert not scipy_loaded


def largest_relative_change(old, new):
    """Largest |new - old| / |old| over the numbers of two outputs, in order."""
    a = [float(x) for x in NUMBER.findall(old)]
    b = [float(x) for x in NUMBER.findall(new)]
    if len(a) != len(b):
        return "%d numbers before, %d after" % (len(a), len(b))
    worst = max((abs(y - x) / abs(x) if x else abs(y) for x, y in zip(a, b)),
                default=0.0)
    return "largest relative change of a number %.3g" % worst


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit("unknown golden file(s): %s" % ", ".join(unknown))
    os.chdir(ROOT)
    for name in names:
        code, out = run(CASES[name])
        if code != 0:
            sys.exit("%s: exit code %d" % (name, code))
        path = os.path.join(GOLDEN, name)
        old = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                old = fh.read()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print("wrote %s: %s" % (name, largest_relative_change(old, out)))
