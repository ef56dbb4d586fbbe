import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import cli
from rotavg.cli import ORTHO_TOL, _load_rotations, _ParseError, _ValidationError, main
from rotavg.geometry import SampleSet, covering_map, normalize, quat_from_rotation
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


@pytest.mark.parametrize("cost", ["l2", "geodesic", "d3"])
def test_average_p_without_lp(cluster_input, capsys, cost):
    # a power the chosen cost has no use for is refused, not dropped
    assert main(["average", "--cost", cost, "--p", "7", "--input", str(cluster_input)]) == 2
    assert "error: --p applies only to --cost lp" in capsys.readouterr().err


def test_average_p_below_one(cluster_input):
    assert main(["average", "--cost", "lp", "--p", "0.5",
                 "--input", str(cluster_input)]) == 3


def test_average_p_not_finite(cluster_input, capsys):
    # nan passes every "< 1" test, so it must be rejected before the flow
    assert main(["average", "--cost", "lp", "--p", "nan", "--input", str(cluster_input)]) == 3
    assert "error: --p" in capsys.readouterr().err


def test_average_p_whose_scale_overflows(cluster_input, capsys):
    # the float power 8^(p/2) overflows: one error line, not a traceback
    assert main(["average", "--cost", "lp", "--p", "700", "--input", str(cluster_input)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --p") and len(err.splitlines()) == 1


@pytest.fixture
def two_rotations(tmp_path):
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"rotations": [{"quaternion": [1, 0, 0, 0]}, {"quaternion": [0.6, 0.8, 0, 0]}]}))
    return p


@pytest.mark.parametrize("p", ["334", "400", "676"])
def test_average_p_whose_field_bound_overflows(two_rotations, capsys, monkeypatch, p):
    # the model builds, but the flow squares a field bounded by 4 c r, which
    # overflows past p = 333.5 at r = 2: refused with one error line before
    # any start is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(cli, "multistart", refuse)
    assert main(["average", "--cost", "lp", "--p", p, "--input", str(two_rotations)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --p is too large: the flow squares the control field") and len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["300", "330", "333"])
def test_average_p_below_the_field_bound_runs(two_rotations, tmp_path, p):
    # every accepted power ends with finite costs and field norms
    out = tmp_path / "out.json"
    assert main(["average", "--cost", "lp", "--p", p, "--input", str(two_rotations), "--out", str(out)]) == 0
    pts = json.loads(out.read_text())["critical_points"]
    assert pts and all(math.isfinite(pt["cost"]) and math.isfinite(pt["control_norm"]) for pt in pts)


def test_average_seed_negative(cluster_input, capsys):
    assert main(["average", "--input", str(cluster_input), "--seed", "-1"]) == 3
    assert "error: --seed" in capsys.readouterr().err


def test_average_starts_below_one(cluster_input, capsys, monkeypatch):
    assert main(["average", "--input", str(cluster_input), "--starts", "0"]) == 3
    assert "--starts" in capsys.readouterr().err

    # above the bound too, refused before the input is read or any start
    # drawn, so nothing is allocated: a count past numpy's largest array
    # dimension would otherwise fail in the draw with a traceback
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(cli, "_load_rotations", refuse)
    monkeypatch.setattr(cli, "multistart", refuse)
    for starts in (cli.MAX_STARTS + 1, 10**30):
        assert main(["average", "--input", str(cluster_input), "--starts", str(starts)]) == 3
        assert capsys.readouterr().err == "error: --starts must be between 1 and 1e+06\n"


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"quaternion": [1e200, 0, 0, 0]}, "error: rotations[0] quaternion norm inf is not 1\n"),
        ({"matrix": [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]]}, "error: rotations[0] is not orthogonal within 1e-06\n"),
    ],
    ids=["quaternion", "matrix"],
)
def test_huge_finite_component_prints_one_line(entry, message, tmp_path):
    # the checks overflow to inf and fail, and numpy's overflow warning
    # stays off stderr; a child process, so Python's own warning filter runs
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [entry]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rotavg.cli", "average", "--input", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert proc.stderr == message


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


@pytest.mark.parametrize("cost", [["l2"], ["geodesic"], ["d3"], ["lp", "--p", "1.5"], ["lp", "--p", "4"]],
                         ids=["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_average_straggler_fixture(cost, capsys):
    # the committed r = 5 input holds the samples of D3_CREEP in
    # test_solvers.py as matrices: every cost averages it, and under d3 the
    # minimum its slow start reaches is among the classes
    fixture = Path(__file__).parent / "data" / "d3_straggler.json"
    assert main(["average", "--input", str(fixture), "--cost", *cost]) == 0
    pts = json.loads(capsys.readouterr().out)["critical_points"]
    assert pts and pts[0]["class"] == "min"
    if cost == ["d3"]:
        assert any(abs(pt["cost"] - 1.6202218112417728) < 1e-12 and pt["class"] == "min" for pt in pts)


@pytest.mark.parametrize("components", [["1e0", "0", "0", "0"], [True, False, False, False], [None, 0, 0, 1]],
                         ids=["strings", "booleans", "null"])
def test_distance_rejects_non_number_components(components, tmp_path, capsys):
    # float() reads "1e0" and true as 1.0 and numpy reads null as NaN, but
    # none of them is a JSON number
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"quaternion": [1, 0, 0, 0]}, {"quaternion": components}]}))
    assert main(["distance", "--input", str(p)]) == 2
    assert capsys.readouterr().err == "error: rotations[1].quaternion is not numeric\n"


def test_average_rejects_string_matrix_entry(tmp_path, capsys):
    R = rot_x(0.3)
    R[1][1] = str(R[1][1])
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": R}]}))
    assert main(["average", "--input", str(p)]) == 2
    assert capsys.readouterr().err == "error: rotations[0].matrix is not numeric\n"


def _error_of(doc, tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    rc = main(["distance", "--input", str(p)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("command", ["average", "distance"])
@pytest.mark.parametrize("rotations", [[], {"quaternion": [1.0, 0.0, 0.0, 0.0]}])
def test_rotations_must_be_a_non_empty_array(command, rotations, tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": rotations}))
    assert main([command, "--input", str(p)]) == 2
    assert capsys.readouterr().err == 'error: "rotations" must be a non-empty array\n'


def test_error_names_first_faulty_entry(tmp_path, capsys):
    # a validation fault before a parse fault is the one reported
    rc, err = _error_of({"rotations": [{"matrix": [[float("nan")] * 3] * 3}, {"quaternion": [1, 0, 0]}]},
                        tmp_path, capsys)
    assert rc == 3 and err == "error: rotations[0].matrix has a non-finite entry\n"
    rc, err = _error_of({"rotations": [{"quaternion": [1, 0, 0, 0]}, [1, 0, 0, 0]]}, tmp_path, capsys)
    assert rc == 2 and err == "error: rotations[1] must be an object\n"


def test_error_names_last_of_many_entries(tmp_path, capsys):
    rng = np.random.default_rng(5)
    Rs = covering_map(normalize(rng.standard_normal((1000, 4))))
    Rs[999] *= -1.0
    rc, err = _error_of({"rotations": [{"matrix": R.tolist()} for R in Rs]}, tmp_path, capsys)
    assert rc == 3 and err == "error: rotations[999] has determinant -1 (not a rotation)\n"


def _reference_load_rotations(path):
    """The entry-at-a-time loader the batched one replaced, kept as the
    reference for its results and errors on files of JSON numbers."""

    def numeric(ent, i, key, shape, what):
        try:
            a = np.asarray(ent[key], dtype=float)
        except (TypeError, ValueError) as e:
            raise _ParseError(f"rotations[{i}].{key} is not numeric") from e
        if a.shape != shape:
            raise _ParseError(f"rotations[{i}].{key} must {what}")
        if not np.all(np.isfinite(a)):
            raise _ValidationError(f"rotations[{i}].{key} has a non-finite entry")
        return a

    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["rotations"]
    quats = np.empty((len(entries), 4))
    mats = {}
    for i, ent in enumerate(entries):
        if not isinstance(ent, dict):
            raise _ParseError(f"rotations[{i}] must be an object")
        if "matrix" in ent:
            R = numeric(ent, i, "matrix", (3, 3), "be 3x3")
            if float(np.max(np.abs(R.T @ R - np.eye(3)))) > ORTHO_TOL:
                raise _ValidationError(f"rotations[{i}] is not orthogonal within {ORTHO_TOL:g}")
            if np.linalg.det(R) < 0.0:
                raise _ValidationError(f"rotations[{i}] has determinant -1 (not a rotation)")
            mats[i] = R
        elif "quaternion" in ent:
            q = numeric(ent, i, "quaternion", (4,), "have 4 components")
            n = float(np.linalg.norm(q))
            if abs(n - 1.0) > ORTHO_TOL:
                raise _ValidationError(f"rotations[{i}] quaternion norm {n:.8f} is not 1")
            quats[i] = normalize(q)
        else:
            raise _ParseError(f'rotations[{i}] needs a "matrix" or "quaternion" key')
    if mats:
        quats[list(mats)] = quat_from_rotation(np.array(list(mats.values())))
    return SampleSet.from_quaternions(quats)


FAULTS = ("not-object", "no-key", "ragged", "wrong-shape", "nan", "inf", "-inf",
          "non-orthogonal", "reflection", "off-norm")
# sizes of an orthogonality or norm fault: well past ORTHO_TOL, just past it, just inside it
FAULT_SIZES = (1e-3, 1.5e-6, 5e-7)


def _faulty(ent, fault, rng):
    """ent with one fault of the given kind."""
    (key, value), = ent.items()
    a = np.array(value, dtype=float)
    if fault == "not-object":
        return value
    if fault == "no-key":
        return {"rotation": value}
    if fault == "ragged":
        if key == "matrix":
            value[rng.integers(3)].pop()
        else:
            value[rng.integers(4)] = [value[0]]
        return {key: value}
    if fault == "wrong-shape":
        return {key: value[:-1] if rng.integers(2) else value + value[:1]}
    if fault in ("nan", "inf", "-inf"):
        a.flat[rng.integers(a.size)] = float(fault)
        return {key: a.tolist()}
    size = FAULT_SIZES[rng.integers(len(FAULT_SIZES))]
    if key == "matrix" and fault == "reflection":
        return {key: (-a).tolist()}
    if key == "matrix" and fault == "non-orthogonal":
        a.flat[rng.integers(9)] += size
        return {key: a.tolist()}
    return {key: (a * (1.0 + size)).tolist()}


@st.composite
def rotation_lists(draw):
    """Mixed matrix and quaternion entries of JSON numbers, some of them
    integers, with zero, one or several faulty entries."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = []
    for _ in range(n):
        kind = draw(st.sampled_from(["matrix", "quaternion", "integer matrix", "integer quaternion"]))
        # the identity and the half turns about the axes have integer entries
        q = np.eye(4)[rng.integers(4)] if kind.startswith("integer") else normalize(rng.standard_normal(4))
        value = covering_map(q) if kind.endswith("matrix") else q
        if kind.startswith("integer"):
            value = value.astype(int)
        entries.append({kind.split()[-1]: value.tolist()})
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        entries[i] = _faulty(entries[i], draw(st.sampled_from(FAULTS)), rng)
    return entries


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader")


def _load_outcome(load, path):
    try:
        s = load(path)
    except (_ParseError, _ValidationError) as e:
        return type(e), str(e)
    return s.quaternions.tobytes()


@settings(max_examples=300, deadline=None)
@given(rotation_lists())
def test_load_matches_entry_at_a_time_reference(loader_dir, entries):
    path = loader_dir / "in.json"
    path.write_text(json.dumps({"rotations": entries}))
    assert _load_outcome(_load_rotations, path) == _load_outcome(_reference_load_rotations, path)


def _thousand(kinds=("matrix", "quaternion"), seed=0):
    """1000 valid entries whose keys cycle through kinds."""
    q = normalize(np.random.default_rng(seed).standard_normal((1000, 4)))
    R = covering_map(q)
    return [{"matrix": R[i].tolist()} if kinds[i % len(kinds)] == "matrix" else {"quaternion": q[i].tolist()}
            for i in range(1000)]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("position", [0, 499, 500, 999])
def test_load_of_1000_matches_the_reference(position, fault, loader_dir):
    # the first entry, the last, and either side of the first halving split;
    # the keys alternate, so entries 0 and 500 are matrices, 499 and 999
    # quaternions
    entries = _thousand(seed=position)
    entries[position] = _faulty(entries[position], fault, np.random.default_rng(position))
    path = loader_dir / "in1000.json"
    path.write_text(json.dumps({"rotations": entries}))
    assert _load_outcome(_load_rotations, path) == _load_outcome(_reference_load_rotations, path)


NAN_MATRIX = {"matrix": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]}
REFLECTION = {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]}


@pytest.mark.parametrize(
    "faults, message",
    [
        ({100: NAN_MATRIX, 900: "a string"}, "rotations[100].matrix has a non-finite entry"),
        ({100: REFLECTION, 900: {"rotation": [1, 0, 0, 0]}}, "rotations[100] has determinant -1 (not a rotation)"),
        ({300: {"quaternion": [1, 0, 0]}, 301: NAN_MATRIX}, "rotations[300].quaternion must have 4 components"),
        ({300: REFLECTION, 301: {"quaternion": [2, 0, 0, 0]}}, "rotations[300] has determinant -1 (not a rotation)"),
    ],
    ids=["nan-before-string", "reflection-before-no-key", "adjacent-shape-nan", "adjacent-reflection-norm"],
)
def test_first_of_several_faults_in_1000_matches_the_reference(faults, message, loader_dir):
    entries = _thousand(("matrix",) * 3 + ("quaternion",))
    for i, ent in faults.items():
        entries[i] = ent
    path = loader_dir / "in1000.json"
    path.write_text(json.dumps({"rotations": entries}))
    outcome = _load_outcome(_load_rotations, path)
    assert outcome[1] == message
    assert outcome == _load_outcome(_reference_load_rotations, path)


@pytest.fixture
def lifts_calls(monkeypatch):
    """The (first, entry count) of each _lifts call the loader makes."""
    calls = []
    lifts = cli._lifts

    def spy(entries, first=0):
        calls.append((first, len(entries)))
        return lifts(entries, first)

    monkeypatch.setattr(cli, "_lifts", spy)
    return calls


@pytest.mark.parametrize("kinds", [("matrix",), ("matrix", "quaternion")], ids=["matrix", "mixed"])
def test_valid_file_is_checked_in_one_call(kinds, lifts_calls, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"rotations": _thousand(kinds)}))
    assert len(_load_rotations(path)) == 1000
    assert lifts_calls == [(0, 1000)]


@pytest.mark.parametrize("position", [0, 1, 499, 500, 998, 999])
def test_faulty_file_is_halved_not_walked(position, lifts_calls, tmp_path):
    entries = _thousand(("matrix",))
    if position < 999:
        entries[999] = "a string"  # a later fault, of another check
    entries[position] = REFLECTION
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"rotations": entries}))
    with pytest.raises(_ValidationError, match=rf"^rotations\[{position}\] has determinant -1"):
        _load_rotations(path)
    assert len(lifts_calls) <= math.ceil(math.log2(1000)) + 2
    assert sum(n for _, n in lifts_calls) <= 2 * 1000
    assert lifts_calls[-1] == (position, 1)


def test_entry_with_both_keys_reads_its_matrix(tmp_path):
    # the matrix is read, and a faulty quaternion next to it is never looked at
    R = [rot_x(0.3), rot_y(-1.2), rot_z(2.0)]
    both = [{"matrix": R[0], "quaternion": [2, 0, 0, 0]}, {"quaternion": [1, 0, 0], "matrix": R[1]},
            {"matrix": R[2], "quaternion": "a string"}]
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": both}))
    only = tmp_path / "matrices.json"
    only.write_text(json.dumps({"rotations": [{"matrix": m} for m in R]}))
    assert _load_outcome(_load_rotations, p) == _load_outcome(_load_rotations, only)
    assert _load_rotations(p).quaternions.tobytes() == quat_from_rotation(np.array(R)).tobytes()


def test_deeply_nested_input_is_a_parse_error(tmp_path, capsys):
    # json.load gives up on it with RecursionError
    p = tmp_path / "deep.json"
    p.write_text('{"rotations": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["distance", "--input", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p} is nested too deeply to read\n"


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


def test_sweep_help_names_its_default_output(tmp_path, monkeypatch, capsys):
    # sweep writes sweep.csv when --out is not given, the other subcommands
    # write to stdout, and each help text says so
    assert main(["sweep", "--help"]) == 0
    assert "output path (default: sweep.csv)" in capsys.readouterr().out
    assert main(["check", "--help"]) == 0
    assert "output path (default: stdout)" in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--alpha-min", "-0.1", "--alpha-max", "0.1", "--alpha-step", "0.05"]) == 0
    assert capsys.readouterr().out.startswith("wrote 5 grid points to sweep.csv\n")
    assert len(parse_csv(tmp_path / "sweep.csv")) == 5


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


def test_check_trials_above_bound(tmp_path, capsys, monkeypatch):
    # refused before any family draws, so nothing is allocated
    from rotavg import checks

    def run_all(**kwargs):
        raise AssertionError("run_all was called")

    monkeypatch.setattr(checks, "run_all", run_all)
    out = tmp_path / "report.txt"
    assert main(["check", "--trials", str(cli.MAX_TRIALS + 1), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: --trials must be between 1 and 1e+06\n"
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


def test_distance_writes_each_block_as_it_forms_it(tmp_path):
    # 1200 rotations make a table of 719 400 lines, some 50 MB: written
    # block by block as distance forms it, the process's peak resident set
    # stays below 100 MB (a table held whole took it to about 200 MB). The
    # child's peak is read in a wrapper process whose only child it is
    # (ru_maxrss is in kilobytes on Linux)
    p = tmp_path / "in.json"
    q = normalize(np.random.default_rng(3).standard_normal((1200, 4)))
    p.write_text(json.dumps({"rotations": [{"quaternion": r} for r in q.tolist()]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    peak = "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    argv = [sys.executable, "-m", "rotavg", "distance", "--input", str(p), "--out", os.devnull]
    proc = subprocess.run([sys.executable, "-c", peak, *argv], capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) < 100 * 1024


def test_distance_needs_two(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"rotations": [{"matrix": rot_x(0.0)}]}))
    assert main(["distance", "--input", str(p)]) == 3


def test_module_entry_point(tmp_path):
    # the child process sees the source tree whether or not PYTHONPATH is set
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for module in ("rotavg", "rotavg.cli"):
        out = tmp_path / f"{module}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", module, "check", "--trials", "20", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, (module, proc.stderr)
        assert "PASS" in out.read_text()


def _cold_imports(tmp_path, argv):
    """The exit code of ``python -m rotavg`` on argv in a fresh process, and
    the rotavg modules it imported, as ``-X importtime`` lists them."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rotavg", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, {m for m in names if m.split(".")[0] == "rotavg"}


@pytest.mark.parametrize("command", ["average", "distance"])
def test_cold_average_and_distance_leave_sweep_and_checks_unloaded(tmp_path, command):
    data = Path(__file__).resolve().parent / "data" / "d3_straggler.json"
    rc, loaded = _cold_imports(tmp_path, [command, "--input", str(data)])
    assert rc == 0
    assert "rotavg.cli" in loaded
    assert not loaded & {"rotavg.sweep", "rotavg.checks"}


def test_cold_sweep_imports_its_module(tmp_path):
    rc, loaded = _cold_imports(tmp_path, ["sweep", "--p", "4", "--alpha-min", "-1.1", "--alpha-max", "-1.0"])
    assert rc == 0
    assert "rotavg.sweep" in loaded and "rotavg.checks" not in loaded
    assert parse_csv(tmp_path / "out")


@pytest.fixture
def fresh_setup():
    # the test's first main call runs the per-process setup afresh, and the
    # first call after the test runs it again on the real C library
    cli._setup.cache_clear()
    yield
    cli._setup.cache_clear()


@pytest.mark.parametrize("library", ["none", "without-mallopt", "refusing"])
def test_main_runs_where_the_allocator_cannot_be_set(library, fresh_setup, monkeypatch, tmp_path):
    loads, taken = [], []

    def mallopt(param, value):
        taken.append((param, value))
        return 0

    def cdll(name):
        loads.append(name)
        if library == "none":
            raise TypeError("no C library to load")  # as ctypes.CDLL(None) on Windows
        return SimpleNamespace(mallopt=mallopt) if library == "refusing" else SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    for seed in ("0", "1"):
        assert main(["check", "--trials", "5", "--seed", seed, "--out", str(tmp_path / "r.txt")]) == 0
    # one setup for the process, however many main calls follow; the trim
    # threshold is not set once the mmap threshold is refused
    assert loads == [None]
    assert taken == ([(-3, 32 << 20)] if library == "refusing" else [])


def test_cached_parser_matches_fresh_runs(cluster_input, fresh_setup, tmp_path, capsys):
    # sweep's --p defaults to 2 and average's to None, so a parser that
    # carried values from one subcommand to the next would fail the average
    # after the sweep; each output must equal that of a freshly built parser
    out = tmp_path / "s.csv"
    runs = [
        ["sweep", "--p", "4", "--alpha-min", "-1.1", "--alpha-max", "-1.0", "--alpha-step", "0.01", "--out", str(out)],
        ["average", "--input", str(cluster_input), "--starts", "8"],
        ["average", "--cost", "lp", "--p", "4", "--input", str(cluster_input), "--starts", "8"],
        ["check", "--cost", "geodesic"],
        ["check", "--cost", "geodesic"],
        ["--help"],
        ["--help"],
    ]

    def outcomes(fresh):
        got = []
        for argv in runs:
            if fresh:
                cli._setup.cache_clear()
            rc = main(argv)
            got.append((rc, capsys.readouterr(), out.read_bytes() if argv[0] == "sweep" else None))
        return got

    cached = outcomes(fresh=False)
    assert cli._setup() is cli._setup()
    assert cached == outcomes(fresh=True)
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 2, 2, 0, 0]
    assert "unrecognized arguments: --cost geodesic" in cached[4][1].err
    assert "{average,sweep,check,distance}" in cached[6][1].out


_FAULTS_SCRIPT = """
import resource
import numpy as np
from rotavg.cli import _setup
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, normalize
from rotavg.solvers import multistart

_setup()
Q = normalize(np.random.default_rng(7).standard_normal((1000, 4)))
model = CostModel.geodesic(SampleSet.from_quaternions(Q))
multistart(model, 64, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
multistart(model, 64, 0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_setup_keeps_the_r1000_flow_from_faulting():
    # at r = 1000 the flow's (64, r) temporaries are above glibc's default
    # mmap threshold; after the CLI's setup a repeated solve reuses freed
    # heap blocks instead of faulting fresh pages in (thousands of faults
    # without the setup)
    try:
        import ctypes

        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("no mallopt in this C library")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the thresholds are glibc's")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000
