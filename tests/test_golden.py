"""Byte-for-byte CLI outputs on the demos/ inputs.

Each case runs ``wedgecap.cli.main`` from the checkout root, so the input
paths echoed in the JSON ``config`` are the same in every checkout, and
compares stdout with the file of the same name under ``tests/golden/``.
After a declared output change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from wedgecap.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
MEASURE = "tests/golden/measure.json"
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


def run(argv):
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


if __name__ == "__main__":
    os.chdir(ROOT)
    for name, argv in sorted(CASES.items()):
        code, out = run(argv)
        if code != 0:
            sys.exit("%s: exit code %d" % (name, code))
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print("wrote", name)
