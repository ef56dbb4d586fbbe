"""Where the traced run hooks into rotavg, and the per-layer metrics it reports.

Functions are wrapped at the attribute their callers look up: module
functions under every `rotavg.*` name that binds them, methods on their
class, and the check families through the `checks.FAMILIES` tuple that
`run_all` iterates. Nothing under `src/` is edited.

Time metrics ending in `_s` are inclusive (callees included) except
`cli.main_s` and `solvers.multistart_self_s`, which are self time: the
span's duration minus its traced children. `_us_per_call` is inclusive time
per call.
"""

from __future__ import annotations

import rotavg.checks
import rotavg.cli
import rotavg.control
import rotavg.costs
import rotavg.geometry
import rotavg.solvers
import rotavg.sweep

FUNCTIONS = {
    "geometry.quat_from_rotation": rotavg.geometry.quat_from_rotation,
    "control.apply_T_sphere": rotavg.control.apply_T_sphere,
    "control.v0": rotavg.control.v0,
    "control.dissipation_rate": rotavg.control.dissipation_rate,
    "solvers.multistart": rotavg.solvers.multistart,
    "solvers.flow_descend": rotavg.solvers.flow_descend,
    "solvers.classify": rotavg.solvers.classify,
    "solvers.eigen_oracle_l2": rotavg.solvers.eigen_oracle_l2,
    "sweep.positive_roots": rotavg.sweep.positive_roots,
    "sweep.critical_sets": rotavg.sweep.critical_sets,
    "sweep.theta_min_curve": rotavg.sweep.theta_min_curve,
    "sweep.root_count_transitions": rotavg.sweep.root_count_transitions,
    "sweep.tie_locations": rotavg.sweep.tie_locations,
    "sweep.emit_csv": rotavg.sweep.emit_csv,
}
COST_METHODS = ("value", "control_field", "admissible", "rotation_residual", "pushforward_residual")
CHECK_FAMILIES = (
    "tangency",
    "dissipation",
    "projection_form",
    "gradients",
    "evenness",
    "delta_relation",
    "pushforward",
    "double_cover",
    "d3_identity",
    "black_set",
    "two_roots",
    "poly_consistency",
)


def install(tracer):
    tracer.patch(rotavg.cli, "main", "cli.main")
    tracer.patch(rotavg.geometry.SampleSet, "__post_init__", "geometry.sampleset_build")
    for m in COST_METHODS:
        tracer.patch(rotavg.costs.CostModel, m, f"costs.{m}")
    for name, fn in FUNCTIONS.items():
        tracer.patch_everywhere(fn, name)
    families = [f.__name__.removeprefix("check_") for f in rotavg.checks.FAMILIES]
    if tuple(families) != CHECK_FAMILIES:
        raise LookupError(f"checks.FAMILIES is now {families}; update bench/layers.py")
    wrapped = (tracer.wrap(f"checks.{n}", f) for n, f in zip(CHECK_FAMILIES, rotavg.checks.FAMILIES))
    tracer.replace(rotavg.checks, "FAMILIES", tuple(wrapped))


def metrics(tracer, traced_wall_s):
    """Per-layer metrics, each as (value, unit)."""
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    m = {"trace.wall_s": (traced_wall_s, "s"), "cli.main_s": (self_s["cli.main"], "s")}
    m["geometry.quat_from_rotation_calls"] = (calls["geometry.quat_from_rotation"], "count")
    m["geometry.quat_from_rotation_s"] = (total["geometry.quat_from_rotation"], "s")
    m["geometry.sampleset_build_s"] = (total["geometry.sampleset_build"], "s")
    for f in COST_METHODS:
        m[f"costs.{f}_calls"] = (calls[f"costs.{f}"], "count")
        if f != "admissible":
            m[f"costs.{f}_s"] = (total[f"costs.{f}"], "s")
    for f in ("value", "control_field"):
        n = calls[f"costs.{f}"]
        m[f"costs.{f}_us_per_call"] = (1e6 * total[f"costs.{f}"] / n if n else 0.0, "us")
    for f in ("apply_T_sphere", "v0", "dissipation_rate"):
        m[f"control.{f}_calls"] = (calls[f"control.{f}"], "count")
        m[f"control.{f}_s"] = (total[f"control.{f}"], "s")

    flow = "solvers.flow_descend"
    starts = calls[flow]
    converged = tracer.outcomes[flow, "ok"]
    m["solvers.starts"] = (starts, "count")
    m["solvers.starts_converged"] = (converged, "count")
    m["solvers.starts_maxiters"] = (tracer.outcomes[flow, "MaxIters"], "count")
    m["solvers.starts_domainbreach"] = (tracer.outcomes[flow, "DomainBreach"], "count")
    m["solvers.converged_ratio"] = (converged / starts if starts else 0.0, "ratio")
    for f, key in (("field", "costs.control_field"), ("value", "costs.value")):
        n = tracer.calls_under[key, flow]
        m[f"solvers.{f}_evals_per_start"] = (n / starts if starts else 0.0, "count")
    m["solvers.flow_descend_s"] = (total[flow], "s")
    m["solvers.multistart_self_s"] = (self_s["solvers.multistart"], "s")
    m["solvers.classify_calls"] = (calls["solvers.classify"], "count")
    m["solvers.classify_s"] = (total["solvers.classify"], "s")
    problems = calls["solvers.multistart"]
    m["solvers.classes_per_problem"] = (calls["solvers.classify"] / problems if problems else 0.0, "count")
    m["solvers.eigen_oracle_l2_s"] = (total["solvers.eigen_oracle_l2"], "s")

    for f in ("positive_roots", "critical_sets"):
        m[f"sweep.{f}_calls"] = (calls[f"sweep.{f}"], "count")
        m[f"sweep.{f}_s"] = (total[f"sweep.{f}"], "s")
    for f in ("theta_min_curve", "root_count_transitions", "tie_locations", "emit_csv"):
        m[f"sweep.{f}_s"] = (total[f"sweep.{f}"], "s")
    for f in CHECK_FAMILIES:
        m[f"checks.{f}_s"] = (total[f"checks.{f}"], "s")
    return m
