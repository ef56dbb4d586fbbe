import os
import subprocess
import sys
from pathlib import Path

import rotavg
from rotavg import control, costs, geometry, solvers, sweep

# the package root's public names, as they stood when the sweep became a
# lazy import of the root
ROOT_NAMES = [
    "AmbientProblem", "AmbiguousMean", "CSV_HEADER", "CostModel", "CriticalPoint", "CriticalRep", "DomainBreach",
    "DomainError", "EPS_DOM", "MaxIters", "NonDifferentiable", "SampleSet", "ScalarField", "SweepRecord",
    "__version__", "apply_T_sphere", "build_samples", "canonicalize_sign", "classify", "covering_map",
    "critical_sets", "delta_skew", "dissipation_rate", "dist_d1", "dist_d2", "dist_d3", "eigen_oracle_l2",
    "emit_csv", "fd_gradient", "flow_descend", "gramian", "multistart", "normalize", "parse_csv", "positive_roots",
    "q2_coeffs", "q4_coeffs", "quat_from_rotation", "random_unit_quaternion", "root_count_transitions",
    "rotation_angle", "tangent_frame", "theta_min_curve", "tie_locations", "unit_sphere_problem", "v0",
]


def test_root_exports_the_pinned_names():
    assert len(ROOT_NAMES) == 46
    assert sorted(rotavg.__all__) == ROOT_NAMES


def test_each_root_name_is_its_modules_object():
    owners = {}
    for module in (control, costs, geometry, solvers, sweep):
        for name in module.__all__:
            owners[name] = module
    assert set(owners) == set(ROOT_NAMES) - {"__version__"}
    for name, module in owners.items():
        assert getattr(rotavg, name) is getattr(module, name), name
    assert rotavg.sweep is sys.modules["rotavg.sweep"]


def test_dir_lists_every_root_name():
    assert set(ROOT_NAMES) <= set(dir(rotavg))


def test_star_import_binds_the_root_names():
    names = {}
    exec("from rotavg import *", names)
    names.pop("__builtins__")
    assert sorted(names) == ROOT_NAMES
    assert all(names[n] is getattr(rotavg, n) for n in ROOT_NAMES)


# in this process the sweep is long imported; a fresh one shows the first use
_FRESH_ROOT = """
import sys, rotavg
before = "rotavg.sweep" in sys.modules
names = {}
exec("from rotavg import *", names)
names.pop("__builtins__")
print(before, sorted(names), rotavg.emit_csv is sys.modules["rotavg.sweep"].emit_csv)
"""


def test_fresh_root_imports_the_sweep_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FRESH_ROOT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"False {ROOT_NAMES} True"
