import json
import math
import os

import pytest

from wedgecap.cli import main
from wedgecap.geometry import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


QUARTER = ("--N", "3", "--k", "2", "--alpha1", "1.5707963267948966")

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
    assert res[1]["verdict"] in ("positive", "inconclusive")
    assert "history" in res[1]


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
])
def test_non_finite_flags_exit_2(capsys, monkeypatch, argv, message):
    # each used to hang, fail only while serializing NaN or raise a traceback
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
