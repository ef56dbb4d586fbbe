"""tools/compare_average.py, the same-answers gate for `rotavg average` outputs."""

import copy
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_average.py"
_SPEC = importlib.util.spec_from_file_location("compare_average", _PATH)
compare_average = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_average)

OLD = {
    "cost": {"kind": "lp", "p": 4.0},
    "critical_points": [
        {"quaternion": [1.0, 0.0, 0.0, 0.0], "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "cost": 2.5, "control_norm": 1e-13, "rotation_residual_norm": 1e-13, "class": "min", "is_global_min": True},
        {"quaternion": [0.0, 1.0, 0.0, 0.0], "matrix": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
         "cost": 7.0, "control_norm": 2e-13, "rotation_residual_norm": 3e-13, "class": "saddle", "is_global_min": False},
    ],
}


def run(tmp_path, new):
    paths = []
    for name, doc in (("old.json", OLD), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return compare_average.main([str(p) for p in paths])


def test_rounding_level_moves_pass(tmp_path, capsys):
    # costs 1e-13 relative and matrices 3e-11 apart pass; residuals and field
    # norms are not compared
    new = copy.deepcopy(OLD)
    new["critical_points"][0]["cost"] *= 1.0 + 1e-13
    new["critical_points"][1]["matrix"][0][1] = 3e-11
    new["critical_points"][1]["rotation_residual_norm"] = 9e-12
    assert run(tmp_path, new) == 0
    assert capsys.readouterr().out == "same\n"


def test_each_miss_fails(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new["critical_points"][0]["cost"] *= 1.0 + 1e-11
    new["critical_points"][1]["matrix"][2][2] += 1e-9
    new["critical_points"][1]["class"] = "max"
    assert run(tmp_path, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0].startswith("point 0: cost") and out[1].startswith("point 1: class")
    assert out[2].startswith("point 1: matrices")
    assert run(tmp_path, OLD | {"critical_points": OLD["critical_points"][::-1]}) == 1
    assert run(tmp_path, OLD | {"critical_points": OLD["critical_points"][:1]}) == 1
    assert run(tmp_path, OLD | {"cost": {"kind": "lp", "p": 1.5}}) == 1
