import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rotavg.cli import main
from rotavg.sweep import parse_csv, theta_min_curve


def rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return [[1, 0, 0], [0, c, -s], [0, s, c]]


def rot_y(t):
    c, s = np.cos(t), np.sin(t)
    return [[c, 0, s], [0, 1, 0], [-s, 0, c]]


def rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return [[c, -s, 0], [s, c, 0], [0, 0, 1]]


@pytest.fixture
def cluster_input(tmp_path):
    doc = {"rotations": [
        {"matrix": rot_x(0.0)},
        {"matrix": rot_x(0.2)},
        {"matrix": rot_y(0.15)},
    ]}
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    return p


def test_average_json_structure(cluster_input, tmp_path):
    out = tmp_path / "out.json"
    rc = main(["average", "--cost", "l2", "--input", str(cluster_input),
               "--out", str(out), "--starts", "8"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["cost"] == {"kind": "l2", "p": None}
    pts = doc["critical_points"]
    assert pts and pts[0]["is_global_min"] is True
    for pt in pts:
        q = np.asarray(pt["quaternion"])
        R = np.asarray(pt["matrix"])
        assert q.shape == (4,) and abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert pt["class"] in ("min", "max", "saddle", "boundary")
        assert pt["control_norm"] < 1e-10
        assert pt["rotation_residual_norm"] < 1e-10


def test_average_stdout_and_lp(cluster_input, capsys):
    rc = main(["average", "--cost", "lp", "--p", "3", "--input", str(cluster_input),
               "--starts", "8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == {"kind": "lp", "p": 3.0}
    assert doc["critical_points"][0]["cost"] > 0


def test_average_tol_override(cluster_input, capsys):
    rc = main(["average", "--cost", "geodesic", "--input", str(cluster_input),
               "--starts", "8", "--tol", "1e-6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_points"][0]["control_norm"] < 1e-6


def test_average_lp_without_p(cluster_input, capsys):
    assert main(["average", "--cost", "lp", "--input", str(cluster_input)]) == 2
    assert "requires --p" in capsys.readouterr().err


def test_average_p_below_one(cluster_input):
    assert main(["average", "--cost", "lp", "--p", "0.5",
                 "--input", str(cluster_input)]) == 3


def test_average_p_not_finite(cluster_input, capsys):
    # nan passes every "< 1" test, so it must be rejected before the flow
    assert main(["average", "--cost", "lp", "--p", "nan", "--input", str(cluster_input)]) == 3
    assert "error: --p" in capsys.readouterr().err


def test_average_seed_negative(cluster_input, capsys):
    assert main(["average", "--input", str(cluster_input), "--seed", "-1"]) == 3
    assert "error: --seed" in capsys.readouterr().err


def test_average_starts_below_one(cluster_input, capsys):
    assert main(["average", "--input", str(cluster_input), "--starts", "0"]) == 3
    assert "--starts" in capsys.readouterr().err


def test_average_tol_not_positive(cluster_input, capsys):
    for tol in ("0", "-1"):
        assert main(["average", "--input", str(cluster_input), "--tol", tol]) == 3
        assert "--tol" in capsys.readouterr().err


def test_average_tol_not_finite(cluster_input, capsys):
    # an infinite tolerance would accept the random starts themselves
    for tol in ("inf", "nan"):
        assert main(["average", "--input", str(cluster_input), "--tol", tol]) == 3
        assert capsys.readouterr().err.startswith("error: --tol")


def test_average_no_convergence(cluster_input, capsys):
    # no start can reach a gradient tolerance of 1e-300
    assert main(["average", "--input", str(cluster_input), "--starts", "2", "--tol", "1e-300"]) == 4
    assert capsys.readouterr().err == "error: no start converged\n"


def test_average_missing_file(tmp_path):
    assert main(["average", "--input", str(tmp_path / "nope.json")]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["average", "--input", "{input}", "--starts", "2"],
        ["sweep", "--alpha-min", "0", "--alpha-max", "0.1"],
        ["check", "--trials", "2"],
        ["distance", "--input", "{input}"],
    ],
    ids=["average", "sweep", "check", "distance"],
)
def test_failed_write_exits_5(argv, cluster_input, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out"
    argv = [a.format(input=cluster_input) for a in argv] + ["--out", str(out)]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err


def test_average_not_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json {")
    assert main(["average", "--input", str(p)]) == 2


def test_average_missing_rotations_key(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"things": []}))
    assert main(["average", "--input", str(p)]) == 2


def test_average_non_orthogonal_matrix(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": [[1, 0, 0], [0, 1, 0.5], [0, 0, 1]]}]}))
    assert main(["average", "--input", str(p)]) == 3


def test_average_reflection_rejected(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}]}))
    assert main(["average", "--input", str(p)]) == 3


def test_average_bad_quaternion(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"quaternion": [2, 0, 0, 0]}]}))
    assert main(["average", "--input", str(p)]) == 3
    p.write_text(json.dumps({"rotations": [{"quaternion": [1, 0, 0]}]}))
    assert main(["average", "--input", str(p)]) == 2


def test_distance_nan_quaternion(tmp_path, capsys):
    # NaN fails no norm test, so it would print a row of nan with exit 0
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"quaternion": [float("nan"), 0, 0, 0]},
                                           {"quaternion": [1, 0, 0, 0]}]}))
    assert main(["distance", "--input", str(p)]) == 3
    assert capsys.readouterr().err.startswith("error: rotations[0].quaternion")


def test_average_infinite_matrix(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, float("inf")]]}]}))
    assert main(["average", "--input", str(p)]) == 3
    assert capsys.readouterr().err.startswith("error: rotations[0].matrix")


def test_input_not_utf8(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_bytes(b"\xff\xfe" + json.dumps({"rotations": [{"quaternion": [1, 0, 0, 0]}]}).encode("utf-16-le"))
    assert main(["distance", "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_average_quaternion_input(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [
        {"quaternion": [1, 0, 0, 0]},
        {"quaternion": [np.cos(0.1), np.sin(0.1), 0, 0]},
    ]}))
    rc = main(["average", "--cost", "l2", "--input", str(p), "--starts", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    best = doc["critical_points"][0]
    # midpoint of two x-axis rotations 0 and 0.2
    R_mid = np.asarray(rot_x(0.1))
    assert np.abs(np.asarray(best["matrix"]) - R_mid).max() < 1e-7


def test_sweep_transition_summary(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--p", "4", "--alpha-min", "-1.1", "--alpha-max", "-1.0",
               "--alpha-step", "0.01", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "root-count transition at alpha = -1.023155 rad: 2 -> 4" in text
    assert "no ties" in text
    assert out.exists()


def test_sweep_tie_summary_degrees(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--p", "4", "--alpha-min", "-0.80", "--alpha-max", "-0.75",
               "--alpha-step", "0.01", "--degrees", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "tied minima at alpha = -45.000000 deg: blue, yellow" in text


def test_sweep_csv_deterministic_and_parseable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--p", "2", "--alpha-min", "-0.5", "--alpha-max", "0.5",
            "--alpha-step", "0.05"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    grid = np.arange(-0.5, 0.5 + 0.025, 0.05)
    assert parse_csv(str(a)) == theta_min_curve(2.0, grid)


def test_sweep_rejects_other_p(capsys):
    assert main(["sweep", "--p", "3"]) == 2
    assert "only p = 2 or p = 4" in capsys.readouterr().err


def test_sweep_rejects_bad_window(capsys):
    assert main(["sweep", "--alpha-min", "1.0", "--alpha-max", "0.5"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "window",
    [
        # np.arange's half-step overshoot passes pi
        ["--alpha-min", "3.1", "--alpha-max", "3.141592653589793", "--alpha-step", "0.08"],
        # admitted by the window check's slack, a hair below -pi
        ["--alpha-min", "-3.14159265359"],
    ],
    ids=["past-pi", "below-minus-pi"],
)
def test_sweep_window_at_pi(window, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", *window, "--out", str(out)]) == 0
    capsys.readouterr()
    alphas = [rec.alpha for rec in parse_csv(str(out))]
    assert alphas and all(-np.pi <= a <= np.pi for a in alphas)


def test_sweep_grid_too_long(tmp_path, capsys):
    # rejected before the grid is allocated
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-step", "1e-300", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: --alpha-step")
    assert not out.exists()


def test_sweep_p_not_finite(capsys):
    assert main(["sweep", "--p", "nan"]) == 3
    assert "error: --p" in capsys.readouterr().err


def test_check_passes(tmp_path):
    out = tmp_path / "report.txt"
    rc = main(["check", "--trials", "50", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "PASS" in text and "FAIL" not in text


def test_check_trials_below_one(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["check", "--trials", "-3", "--out", str(out)]) == 3
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_check_seed_negative(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["check", "--seed", "-1", "--out", str(out)]) == 3
    assert "error: --seed" in capsys.readouterr().err
    assert not out.exists()


def test_options_are_per_subcommand(tmp_path, capsys):
    # an option the subcommand does not read is a usage error, not ignored
    assert main(["check", "--cost", "geodesic"]) == 2
    assert main(["distance", "--input", str(tmp_path / "in.json"), "--starts", "4"]) == 2
    capsys.readouterr()


def test_distance_table(tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [
        {"matrix": rot_x(0.0)},
        {"matrix": rot_z(np.pi)},
        {"matrix": rot_x(0.4)},
    ]}))
    rc = main(["distance", "--input", str(p)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i j d1 d2 d3"
    assert len(lines) == 4
    row01 = lines[1].split()
    # the half-turn pair sits where the angular metric is multivalued
    assert row01[:2] == ["0", "1"] and row01[3] == "undefined"
    # the table prints 12 significant digits
    assert float(row01[2]) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-11)
    assert float(row01[4]) == pytest.approx(1.0, abs=1e-11)


def test_distance_needs_two(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": rot_x(0.0)}]}))
    assert main(["distance", "--input", str(p)]) == 3


def test_module_entry_point():
    # the child process sees the source tree whether or not PYTHONPATH is set
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rotavg.cli", "check", "--trials", "20"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
