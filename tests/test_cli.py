import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wedgecap.cli import main
from wedgecap.geometry import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


QUARTER = ("--N", "3", "--k", "2", "--alpha1", "1.5707963267948966")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = {"--poly": os.path.join(ROOT, "demos", "cube.json"),
        "--set": os.path.join(ROOT, "demos", "vertex_set.json"),
        "--measure": os.path.join(ROOT, "demos", "edge_measure.json")}

CUBE = {
    "N": 3,
    "strata": [
        {"id": "face", "k": 1, "opening": None},
        {"id": "edge", "k": 2,
         "opening": {"N": 3, "k": 2, "alpha1": math.pi / 2, "intervals": []}},
        {"id": "vertex", "k": 3, "opening": {"gamma": 12.0}},
    ],
}


def write(tmp_path, name, doc):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_exponents_quarter_wedge(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--N", "3", "--k", "2",
                           "--alpha1", "1.5707963267948966")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "wedgecap" and "version" in doc
    res = doc["result"]
    assert abs(res["q_c"] - 5.0 / 3.0) < 1e-12
    assert abs(res["q_c_star"] - 2.0) < 1e-12


def test_exponents_seventeen_digits(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--N", "3", "--k", "2",
                           "--alpha1", "0.1")
    assert code == 0
    assert "0.10000000000000001" in out   # 17-significant-digit echo


def _fresh_python(*args):
    """Run python with these arguments from the checkout root, src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


SCIPY_FREE = [
    ["exponents", *QUARTER, "--q", "1.7"],
    ["classify", "--poly", "demos/cube.json", "--q", "1.7",
     "--set", "demos/vertex_set.json", "--measure", "demos/edge_measure.json"],
    ["kernel", "--measure", "tests/golden/measure.json", "--nu", "5", "--m", "1",
     "--q", "1.8", "--s", "0.22", "--R", "8", "--tau", "0.5", "--eps", "1e-2"],
    ["besov", "--measure", "tests/golden/measure.json", "--s", "0.25", "--q", "2.0"],
    ["verify", "remainder"],
    ["verify", "harmonicity"],
]


def test_import_leaves_interpolate_and_optimize_unloaded():
    # scipy.interpolate pulls in scipy.optimize, about 0.3 s of every start;
    # any SciPy submodule costs 0.2-0.4 s, and these commands need none
    code = """
import contextlib, io, json, sys
import wedgecap, wedgecap.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(sorted(m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules))
print(json.dumps(scipy_modules()))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(wedgecap.cli.main(argv))
print(json.dumps(codes))
print(json.dumps(scipy_modules()))
"""
    proc = _fresh_python("-c", code, json.dumps(SCIPY_FREE))
    assert proc.returncode == 0, proc.stderr[-2000:]
    unloaded, after_import, codes, after_commands = proc.stdout.splitlines()
    assert unloaded == "[]"
    assert json.loads(after_import) == []
    assert json.loads(codes) == [0] * len(SCIPY_FREE)
    assert json.loads(after_commands) == []


def test_overflowing_gamma_is_a_numerical_error():
    # the tail constant's Gamma((nu q - 1) / 2) overflows a double at
    # nu q = 400: it is inf, and the run ends in exit 3, not an OverflowError
    # (besov --q 400 reaches the same constant, after a 30 s stall)
    proc = _fresh_python("-m", "wedgecap.cli", "kernel", "--measure",
                         "tests/golden/measure.json", "--nu", "200", "--m", "1",
                         "--q", "2", "--sigma", "0.5", "--j", "2", "--tau", "0.5",
                         "--eps", "0.5")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "numerical error" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("besov", "--measure", "tests/golden/measure.json", "--s", "0.9", "--q", "400"),
])
def test_overflowing_integrand_fails_fast(capsys, monkeypatch, argv):
    # k^q overflows at q = 400: the first non-finite row ends the solve
    # (it halved panels to the 4096 budget first, for 40 s); a
    # RuntimeWarning is an error
    monkeypatch.chdir(ROOT)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert "integrand overflowed" in err


def test_large_p_weight_is_finite(capsys, monkeypatch):
    # at p = (sigma + 1) q = 202 the weight tau^{p+j-2} / (1+tau)^p was
    # inf/inf and the command exited 3; as tau^{j-2} exp(-p log1p(1/tau))
    # it is a double wherever the integral is (see TestClosedFormOracles)
    monkeypatch.chdir(ROOT)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kernel", "--measure", "tests/golden/measure.json",
                             "--nu", "3", "--m", "1", "--q", "2", "--sigma", "100",
                             "--j", "2", "--tau", "0.5", "--eps", "0.5")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    reduced = json.loads(out)["result"]["reduced_I"]
    assert 0.0 < reduced["error"] < 1e-6 * reduced["value"] < math.inf


@pytest.mark.parametrize("argv, message", [
    (("--sigma", "0.5", "--j", "2", "--eps", "1.7e308"), "tau range"),
    (("--s", "0.5", "--R", "1e308", "--eps", "0.1"), "tau range"),
    (("--tau", "1e308"), "slice range"),
])
def test_kernel_beyond_double_range_is_refused(capsys, monkeypatch, argv, message):
    # the ladder end 2 eps, a truncation radius near the largest double and
    # the full-line core rho + 4 tau overflowed: an OverflowError traceback
    # in geometric_edges, and RuntimeWarnings in np.linspace
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, "kernel", "--measure", "tests/golden/measure.json",
                             "--nu", "3", "--m", "1", "--q", "2", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_narrow_spike_is_marked_at_its_width(capsys, tmp_path):
    # at eps = 1e-300 the y-spike of each atom is about 1e-300 wide; the
    # atom ladders started at 1e-9, and the solve halved one panel per
    # round for 13 s before it exited 3
    path = write(tmp_path, "pair.json", {"m": 1, "atoms": [{"z": [0.0], "w": 1.0},
                                                           {"z": [0.3], "w": 0.5}]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "besov", "--measure", path, "--s", "1",
                             "--q", "2", "--eps", "1e-300")
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "numerical error" in err


def test_remainder_underflow_is_a_numerical_error(capsys):
    # at sigma = 1e300 every Delta(R) underflows to 0; the log-log fit
    # raised a ValueError, reported as a validation error (exit 2)
    code, out, err = run_cli(capsys, "verify", "remainder", "--sigma", "1e300")
    assert code == 3 and out == ""
    assert "underflows to 0" in err


@pytest.mark.parametrize("argv, message", [
    (("--R", "1e300"), "left the range of a double"),
    (("--R", "1e100", "--q", "1.3"), "underflowed to 0"),
])
def test_heat_beyond_double_range_is_a_numerical_error(capsys, argv, message):
    # R = 1e300 overflows the DST eigenvalues (RuntimeWarnings, then nan
    # metrics); at R = 1e100 a gradient functional underflows to 0, and the
    # ratio spread divided by it (ZeroDivisionError)
    code, out, err = run_cli(capsys, "verify", "heat", *argv)
    assert code == 3 and out == ""
    assert "numerical error" in err and message in err


def test_m2_aggregate_names_the_edge_dimension(tmp_path, capsys):
    # the edge dimension is checked before the divergence guards, which
    # called this aggregate divergent (exit 3)
    path = write(tmp_path, "m.json", {"m": 2, "atoms": [{"z": [0.0, 0.0], "w": 1.0}]})
    code, out, err = run_cli(capsys, "kernel", "--measure", path, "--nu", "2.5",
                             "--m", "2", "--q", "1.1", "--sigma", "0.5", "--j", "2")
    assert code == 2
    assert out == ""
    assert "1-dimensional edges" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_malformed_json_names_field(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"atoms": []})
    code, _, err = run_cli(capsys, "besov", "--measure", path,
                           "--s", "0.5", "--q", "2.0")
    assert code == 2
    assert "m" in err


def test_numerical_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"m": 1, "atoms": [{"z": [0.0], "w": 1.0}]})
    # divergent aggregate without a cutoff: exit 3
    code, _, err = run_cli(capsys, "kernel", "--measure", path, "--nu", "5.0",
                           "--m", "1", "--q", "1.8", "--s", "0.2",
                           "--R", "8.0", "--eps", "0")
    assert code == 3
    assert "cutoff" in err


def test_classify_cube(tmp_path, capsys):
    poly = write(tmp_path, "cube.json", CUBE)
    st = write(tmp_path, "set.json",
               {"pieces": [{"stratum": "vertex", "kind": "point", "z": []}]})
    code, out, _ = run_cli(capsys, "classify", "--poly", poly, "--q", "1.5",
                           "--set", st)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["removability"]["removable"] == "removable"
    regimes = {v["stratum"]: v["regime"] for v in doc["verdicts"]}
    assert regimes["vertex"] == "vertex-supercritical"


def test_classify_cube_grid_is_removable(capsys):
    # s q' = 0.857 <= 1 at q = 1.7: every point of the grid, and so the
    # grid, is null for the edge capacity
    code, out, _ = run_cli(capsys, "classify", "--poly", DEMO["--poly"], "--q", "1.7",
                           "--set", os.path.join(ROOT, "tests", "golden", "grid_set.json"))
    assert code == 0
    removability = json.loads(out)["result"]["removability"]
    assert removability["removable"] == "removable"
    assert [p["status"] for p in removability["per_piece"]] == ["removable"]


def test_harmonicity_narrowest_wedge_passes(capsys):
    # alpha = 0.3 still has test points 10 h from both walls
    code, out, _ = run_cli(capsys, "verify", "harmonicity", "--alpha1", "0.3")
    assert code == 0 and json.loads(out)["result"]["passed"]


def test_byte_identical_outputs(tmp_path, capsys):
    poly = write(tmp_path, "cube.json", CUBE)
    out1 = os.path.join(tmp_path, "a.json")
    out2 = os.path.join(tmp_path, "b.json")
    assert main(["classify", "--poly", poly, "--q", "1.7", "--out", out1]) == 0
    assert main(["classify", "--poly", poly, "--q", "1.7", "--out", out2]) == 0
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_besov_subcommand(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"m": 1, "atoms": [{"z": [0.0], "w": 1.0}]})
    code, out, _ = run_cli(capsys, "besov", "--measure", path,
                           "--s", "0.25", "--q", "2.0")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["divergent"] is True
    assert len(res["ladder"]) == 4


def test_capacity_subcommand(tmp_path, capsys):
    st = write(tmp_path, "set.json", {"pieces": [
        {"stratum": "edge", "kind": "point", "z": [0.0]},
        {"stratum": "edge", "kind": "grid", "points": [[0.0]]},
    ]})
    code, out, _ = run_cli(capsys, "capacity", "--set", st, "--alpha", "0.6",
                           "--p", "2.0", "--resolution", "0.05")
    assert code == 0
    res = json.loads(out)["result"]["pieces"]
    assert res[0]["verdict"] == "positive"   # 1.2 > 1
    assert res[1]["verdict"] == "positive"
    assert "history" in res[1]


def test_capacity_near_coincident_points(tmp_path, capsys):
    # two targets 1e-3 apart: the first-order dual ascent stalled (exit 3)
    st = write(tmp_path, "set.json", {"pieces": [
        {"stratum": "edge", "kind": "grid", "points": [[0.0], [0.001], [0.5]]}]})
    code, out, _ = run_cli(capsys, "capacity", "--set", st, "--alpha", "0.6",
                           "--p", "2")
    assert code == 0
    piece = json.loads(out)["result"]["pieces"][0]
    assert piece["verdict"] == "positive" and piece["gap"] <= 1e-14


def test_capacity_rejects_non_finite_points(tmp_path, capsys):
    st = write(tmp_path, "set.json", {"pieces": [
        {"stratum": "edge", "kind": "grid", "points": [[float("nan")]]}]})
    code, out, err = run_cli(capsys, "capacity", "--set", st, "--alpha", "0.6",
                             "--p", "2")
    assert code == 2
    assert out == ""
    assert "points must be finite" in err


def test_verify_dichotomy(capsys):
    code, out, _ = run_cli(capsys, "verify", "dichotomy", "--N", "3", "--k", "2",
                           "--alpha1", "1.5707963267948966", "--q", "2.0")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["passed"] is True
    assert abs(res["metrics"]["I_slope"] + 1.0) < 0.05


def test_verify_csv_output(tmp_path):
    out = os.path.join(tmp_path, "r.csv")
    code = main(["verify", "dichotomy", "--N", "3", "--k", "2",
                 "--alpha1", "1.5707963267948966", "--q", "2.0",
                 "--format", "csv", "--out", out])
    assert code == 0
    with open(out, "rb") as fh:
        raw = fh.read()
    assert raw.startswith(b"experiment,params,metric,value\n")
    assert b"\r" not in raw


def test_dumps_rejects_nan():
    import pytest
    from wedgecap.errors import GeometryError
    with pytest.raises(GeometryError):
        dumps({"x": float("nan")})


def test_interval_flag_repeatable(capsys):
    # k = 3 chain driven entirely from the command line
    code, out, _ = run_cli(capsys, "exponents", "--N", "4", "--k", "3",
                           "--alpha1", "1.5707963267948966",
                           "--interval", "0.4,1.2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["gamma"] > 0
    assert res["q_c"] < res["q_c_star"]


def test_missing_required_dimension(capsys):
    code, _, err = run_cli(capsys, "exponents", "--alpha1", "1.0")
    assert code == 2
    assert "--N" in err


def test_verify_heat_rejects_nonpositive_radius(capsys):
    for R in ("0", "-8"):
        code, out, err = run_cli(capsys, "verify", "heat", "--R", R)
        assert code == 2
        assert out == ""
        assert "need R > 0" in err


@pytest.mark.parametrize("flags", [
    ("--nu", "inf", "--tau", "0.5"),
    ("--q", "inf", "--tau", "0.5"),
    ("--s", "inf", "--R", "8"),
    ("--sigma", "inf", "--j", "1"),
    ("--s", "0.5", "--R", "inf"),
    ("--tau", "nan"),
    ("--tau", "inf"),
    ("--sigma", "0.5", "--j", "1", "--eps", "nan"),
    ("--s", "0.22", "--R", "8", "--eps", "inf"),
])
def test_kernel_rejects_non_finite_parameters(tmp_path, capsys, flags):
    # each used to hang, stall at the panel budget or fail serializing NaN
    path = write(tmp_path, "m.json",
                 {"m": 1, "atoms": [{"z": [0.0], "w": 1.0}]})
    code, out, err = run_cli(capsys, "kernel", "--measure", path, "--nu", "3",
                             "--m", "1", "--q", "1.8", *flags)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_equivalence_rejects_empty_family(capsys, n):
    code, out, err = run_cli(capsys, "verify", "equivalence", "--N", "3", "--k", "2",
                             "--alpha1", "1.5707963267948966", "--n-measures", n)
    assert code == 2
    assert out == ""
    assert "n_measures must be >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (("capacity", "--set", "tests/golden/grid_set.json", "--alpha", "nan", "--p", "2"),
     "alpha must be finite"),
    (("capacity", "--set", "tests/golden/grid_set.json", "--alpha", "0.6", "--p", "inf"),
     "p must be finite"),
    (("capacity", "--set", "tests/golden/grid_set.json", "--alpha", "0.6", "--p", "2",
      "--resolution", "inf"), "resolution must be finite"),
    (("verify", "dichotomy") + QUARTER + ("--q", "nan"), "q must be finite"),
    (("exponents",) + QUARTER + ("--q", "nan"), "q must be finite"),
    (("classify", "--poly", "demos/cube.json", "--q", "nan"), "q must be finite"),
    (("verify", "equivalence") + QUARTER + ("--R", "inf", "--n-measures", "1"),
     "R must be finite"),
    (("exponents", "--N", "3", "--k", "2", "--gamma", "nan"), "gamma must be finite"),
    (("verify", "heat", "--R", "inf"), "R must be finite"),
    (("verify", "harmonicity", "--alpha1", "nan"), "alpha must be finite"),
    (("verify", "harmonicity", "--alpha1", "0"), "alpha must be finite and > 0"),
    # kappa_plus + N - 2 rounds to 0 (was a ZeroDivisionError)
    (("exponents", "--N", "2", "--k", "2", "--gamma", "1e-300"), "kappa_plus + N - 2 > 0"),
    (("exponents", "--N", "2", "--k", "2", "--alpha1", "2e-259"),
     "(pi/alpha1)^2 overflows"),   # was an OverflowError
    # --tol was checked only where a chain stage ran: exit 0 echoing -5,
    # or exit 2 on serializing NaN
    (("exponents", "--N", "3", "--k", "2", "--alpha1", "1.5", "--tol", "-5"),
     "tol must be finite and > 0"),
    (("exponents", "--N", "3", "--k", "2", "--alpha1", "1.5", "--tol", "nan"),
     "tol must be finite and > 0"),
    (("classify", "--poly", "demos/cube.json", "--q", "1.7", "--tol", "inf"),
     "tol must be finite and > 0"),
    (("verify", "dichotomy") + QUARTER + ("--tol", "0"), "tol must be finite and > 0"),
    (("verify", "equivalence") + QUARTER + ("--tol", "nan", "--n-measures", "1"),
     "tol must be finite and > 0"),
    # the family is drawn in B_{R/4} and must fit in B_{4/2}; the message
    # named a "family" that callers cannot pass
    (("verify", "equivalence") + QUARTER + ("--R", "16", "--n-measures", "2"),
     "R must be finite and in (0, 8]"),
    # below alpha ~ 0.29 no test point lies 10 h from both walls, and the
    # empty point set reached np.max ("zero-size array to reduction ...")
    (("verify", "harmonicity", "--alpha1", "0.25"), "alpha = 0.25 is too narrow"),
    (("verify", "harmonicity", "--alpha1", "0.28", "--target", "martin"),
     "alpha = 0.28 is too narrow"),
    # a subnormal cutoff overflowed hi / lo in the tau start (OverflowError)
    (("besov", "--measure", "tests/golden/measure.json", "--s", "1", "--q", "2",
      "--eps", "1e-320"), "below the smallest normal double"),
    (("kernel", "--measure", "tests/golden/measure.json", "--nu", "3", "--m", "1",
      "--q", "1.8", "--sigma", "0.5", "--j", "2", "--eps", "1e-320"),
     "eps = 1e-320 is below the smallest normal double"),
    # a line measure with --m 2 was a TypeError traceback, and a plane
    # measure with --m 1 gave F from its first coordinates (exit 0)
    (("kernel", "--measure", "tests/golden/measure.json", "--nu", "3", "--m", "2",
      "--q", "1.5", "--tau", "0.5"), "the measure lives on R^1 but the edge has m = 2"),
    (("kernel", "--measure", "tests/golden/measure_plane.json", "--nu", "3", "--m", "1",
      "--q", "1.8", "--tau", "0.5"), "the measure lives on R^2 but the edge has m = 1"),
    # a negative dimension answered "positive", and --ell 0 on a grid was
    # replaced by the points' dimension 1 (both exit 0)
    (("capacity", "--set", "demos/vertex_set.json", "--alpha", "0.6", "--p", "2",
      "--ell", "-2"), "ell must be an integer >= 0"),
    (("capacity", "--set", "tests/golden/grid_set.json", "--alpha", "0.6", "--p", "2",
      "--ell", "0"), "numeric capacity implemented on R^1"),
])
def test_non_finite_flags_exit_2(capsys, monkeypatch, argv, message):
    # each used to hang, fail only while serializing NaN or raise a traceback
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("verify", "heat", "--nu", "3"),
    ("verify", "remainder", "--R", "4"),
    ("verify", "harmonicity", "--seed", "1"),
    ("kernel", "--measure", "tests/golden/measure.json", "--nu", "3", "--m", "1",
     "--q", "1.8", "--tau", "0.5", "--tol", "1e-12"),
    ("besov", "--measure", "tests/golden/measure.json", "--s", "0.25", "--q", "2.0",
     "--seed", "7"),
    ("capacity", "--set", "tests/golden/grid_set.json", "--alpha", "0.6", "--p", "2",
     "--tol", "1e-3"),
    ("exponents",) + QUARTER + ("--format", "csv"),
])
def test_unread_flags_are_usage_errors(capsys, monkeypatch, argv):
    # each exited 0 with the flag ignored (the last exited 2)
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_config_echoes_only_accepted_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "heat", "--q", "1.7")
    assert code == 0
    assert set(json.loads(out)["config"]) == {"command", "name", "q", "R", "format"}


_REALS = st.floats() | st.floats(-1.0, 7.0) | st.sampled_from(
    [0.0, -1.0, 5e-324, 1e-300, 1e-12, 1e-8, 0.5, 1.0, 1e300, math.inf, math.nan])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_exponents_fuzzed_flags_never_raise(data):
    # each numeric flag present with probability 3/4; found the tiny-gamma case
    argv = ["exponents"]
    for flag, values in (("--N", st.integers(0, 5)), ("--k", st.integers(0, 4)),
                         ("--alpha1", _REALS), ("--gamma", _REALS), ("--q", _REALS),
                         ("--tol", _REALS)):
        if data.draw(st.integers(0, 3)):
            argv.append("%s=%r" % (flag, data.draw(values)))
    for a, b in data.draw(st.lists(st.tuples(_REALS, _REALS), max_size=2)):
        argv.append("--interval=%r,%r" % (a, b))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def classify_argv(flag, path):
    """classify --q 1.7 on the demos/ inputs, with ``path`` as the ``flag`` file."""
    files = dict(DEMO, **{flag: path})
    return ["classify", "--q", "1.7"] + [x for kv in files.items() for x in kv]


@pytest.mark.parametrize("command, flag, doc, message", [
    ("capacity", "--set", 5, "expected a JSON object"),
    ("capacity", "--set", {"pieces": 5}, "'pieces' must be a list"),
    ("capacity", "--set", {"pieces": [{"stratum": "edge", "kind": "grid",
                                       "points": 5}]}, "'points' must be a list"),
    ("capacity", "--set", {"pieces": [{"stratum": "edge", "kind": "grid",
                                       "points": []}]},
     "grid piece needs at least one point"),
    ("classify", "--set", 5, "expected a JSON object"),
    ("classify", "--set", {"pieces": 5}, "'pieces' must be a list"),
    ("classify", "--set", {"pieces": [{"stratum": "edge", "kind": "grid",
                                       "points": 5}]}, "'points' must be a list"),
    ("classify", "--poly", 5, "expected a JSON object"),
    ("classify", "--poly", {"strata": 5}, "'strata' must be a list"),
    ("classify", "--measure", 5, "expected a JSON object"),
    ("classify", "--poly", {"N": 3.9, "strata": [
        {"id": "edge", "k": 2.7,
         "opening": {"N": 3, "k": 2, "alpha1": 1.5707963267948966}}]},
     "'k' must be an integer"),
    ("classify", "--poly", {"N": 3.9, "strata": []}, "'N' must be an integer"),
    ("classify", "--poly", {"strata": [
        {"id": "edge", "k": 2,
         "opening": {"N": 3.2, "k": 2, "alpha1": 1.5707963267948966}}]},
     "'N' must be an integer"),
    ("classify", "--poly", {"N": True, "strata": []}, "'N' must be an integer"),
    ("classify", "--measure", {"edge": {"m": 1.5, "atoms": [{"z": [0.25], "w": 1.0}]}},
     "'m' must be an integer"),
    ("capacity", "--set", {"pieces": [{"stratum": "edge", "kind": "ball",
                                       "radius": 1.0, "dim": 0.5}]},
     "'dim' must be an integer"),
    # an unknown stratum id, and a plane measure on the cube's 1-D edge, were
    # accepted ("no mass here", or decided as if on the edge)
    ("classify", "--measure", {"edgee": {"m": 1, "atoms": [{"z": [0.25], "w": 1.0}]}},
     "edgee"),
    ("classify", "--measure", {"edge": {"m": 2, "atoms": [{"z": [0.25, 0.0], "w": 1.0}]}},
     "expected N-k=1"),
])
def test_malformed_documents_exit_2(tmp_path, capsys, command, flag, doc, message):
    # the first ten used to raise a traceback (exit 1, the usage-error code);
    # the integer fields after them were truncated by int() and exited 0
    path = write(tmp_path, "doc.json", doc)
    if command == "capacity":
        argv = ["capacity", "--set", path, "--alpha", "0.6", "--p", "2"]
    else:
        argv = classify_argv(flag, path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


_WIRE_KEYS = ("N", "k", "id", "opening", "gamma", "alpha1", "intervals", "strata",
              "pieces", "stratum", "kind", "z", "radius", "dim", "points", "m",
              "atoms", "w", "point", "ball", "grid", "face", "edge", "vertex")
_SCALARS = (st.none() | st.booleans() | st.integers(-5, 5)
            | st.integers(-10 ** 400, 10 ** 400)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(_WIRE_KEYS) | st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_WIRE_KEYS) | st.text(max_size=4),
                                     inner, max_size=5)),
    max_leaves=24)
_VALUES = _JSON | st.floats(-1.0, 13.0)   # plus plausible angles and exponents


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from _paths(doc[key], prefix + (key,))


def _mutated(doc, data):
    """The document with one or two of its values replaced or deleted."""
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.integers(0, 3)):
            parent[path[-1]] = data.draw(_VALUES)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), flag=st.sampled_from(sorted(DEMO)))
def test_classify_fuzzed_documents_never_raise(tmp_path, data, flag):
    # classify reaches analytic verdicts only, so any document is cheap
    with open(DEMO[flag], encoding="utf-8") as fh:
        demo = json.load(fh)
    doc = _mutated(demo, data) if data.draw(st.integers(0, 3)) else data.draw(_JSON)
    path = write(tmp_path, "fuzz.json", doc)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(classify_argv(flag, path))
    assert code in (0, 2, 3)


_GAMMA_FLAGS = (("--N", st.integers(0, 5)), ("--k", st.integers(0, 4)),
                ("--alpha1", _REALS), ("--gamma", _REALS), ("--tol", _REALS))
# every flag of each numeric command but --out and --format; --n-measures is
# the workload size of the equivalence experiment (about 0.03 s a measure),
# so it stays small.  capacity is left out: at alpha = 400 one call takes
# about 37 s until its source window is sized from the kernel, and it joins
# here then, over alpha's full range
_NUMERIC = {
    ("kernel",): (("--nu", _REALS), ("--m", st.integers(0, 3)), ("--q", _REALS),
                  ("--s", _REALS), ("--sigma", _REALS), ("--j", st.integers(0, 4)),
                  ("--R", _REALS), ("--tau", _REALS), ("--eps", _REALS)),
    ("besov",): (("--s", _REALS), ("--q", _REALS), ("--eps", _REALS)),
    ("verify", "dichotomy"): _GAMMA_FLAGS + (("--q", _REALS),),
    ("verify", "equivalence"): _GAMMA_FLAGS + (
        ("--q", _REALS), ("--R", _REALS), ("--n-measures", st.integers(-1, 3)),
        ("--seed", st.integers(-1, 2 ** 64))),
    ("verify", "remainder"): (("--nu", _REALS), ("--sigma", _REALS),
                              ("--m", st.integers(0, 3)), ("--j", st.integers(0, 4)),
                              ("--q", _REALS)),
    ("verify", "harmonicity"): (("--alpha1", _REALS),
                                ("--target", st.sampled_from(["v_A", "martin", "u"]))),
    ("verify", "heat"): (("--q", _REALS), ("--R", _REALS)),
}
MEASURES = [os.path.join(ROOT, "tests", "golden", name)
            for name in ("measure.json", "measure_plane.json")]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(sorted(_NUMERIC)))
def test_numeric_commands_fuzzed_never_raise(tmp_path, data, command):
    # each flag present with probability 3/4, and for kernel and besov a
    # measure document, one of the golden inputs mutated or any JSON; a
    # solve that overflows or exhausts its budget must end at once (exit 3)
    argv = list(command)
    for flag, values in _NUMERIC[command]:
        if data.draw(st.integers(0, 3)):
            argv.append("%s=%r" % (flag, data.draw(values)))
    if command[-1] in ("dichotomy", "equivalence"):
        for a, b in data.draw(st.lists(st.tuples(_REALS, _REALS), max_size=2)):
            argv.append("--interval=%r,%r" % (a, b))
    if command[0] in ("kernel", "besov"):
        with open(data.draw(st.sampled_from(MEASURES)), encoding="utf-8") as fh:
            demo = json.load(fh)
        # the measure's dimension is drawn apart from --m: each atom's
        # position is cut or zero-padded to it
        demo["m"] = data.draw(st.integers(1, 3))
        for atom in demo["atoms"]:
            atom["z"] = (atom["z"] + [0.0] * 3)[:demo["m"]]
        doc = _mutated(demo, data) if data.draw(st.integers(0, 3)) else data.draw(_JSON)
        argv += ["--measure", write(tmp_path, "measure.json", doc)]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
