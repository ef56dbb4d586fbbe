"""Randomized invariant suite.

Each family draws seeded random sample sets and probe points, measures the
worst violation of one structural identity, and compares it to a fixed
tolerance. The same functions back the command-line `check` subcommand and
the property-suite regression tests, so the output is deterministic for a
given seed.

A family draws its trials as fixed-shape arrays, a few generator calls in
all, and builds no sample set or cost model per trial (:func:`_draws`):
each trial's r = 1..6, six sample slots of which the first r are live, a
cost kind, an Lp power and a probe. The probes that fall within the margin
of a live sample are redrawn, as one array per pass. The family then
evaluates the trials as stacks: the trials of one (r, kind, p), at most
6 * 7 = 42 groups, form one stacked SampleSet and one CostModel, whose
evaluators read probe k against set k with the bits of the one-trial call.
The d3 and polynomial families add explicit edge-case trials to the drawn
ones (:data:`D3_EDGE`, :data:`POLY_EDGE_ALPHAS`), which every run reads and
the report counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import dissipation_rate, fd_gradient, unit_sphere_problem, v0
from .costs import _KINDS, CostModel
from .geometry import (
    SampleSet,
    _norms,
    canonicalize_sign,
    covering_map,
    delta_skew,
    dist_d3,
    normalize,
    quat_from_rotation,
    tangent_frame,
)
from .sweep import RESIDUAL_TOL, _root_residuals, _roots_of, _sample_quats

__all__ = ["CheckResult", "run_all", "format_report", "FAMILIES"]

POWERS = (1.5, 2.0, 3.0, 4.0)  # the Lp powers a trial draws from
PROBE_MARGIN = 1e-3  # how far a probe's |<q, q_i>| keeps from 0 and 1

# a d3 pair at relative angle pi - 1e-6, where <qa, qb> ~ 5e-7 and a trace
# form of d3 would lose digits; dist_d3 reads the lifts of the two matrices,
# so this reads the lift there. qb turns qa within its tangent frame
_QA = normalize(np.array([1.0, 2.0, 3.0, 4.0]))
D3_EDGE = (_QA, np.cos(0.5 * (np.pi - 1e-6)) * _QA + np.sin(0.5 * (np.pi - 1e-6)) * tangent_frame(_QA)[0])

# alpha next to -pi/2, where the p = 2 roots are x ~ 2.5e-13 and x ~ 1 (whose
# y = sqrt(1 - x^2) would round to 0; see sweep._candidate_stack) and the p = 4
# coefficients cancel, and next to 0, where the p = 2 roots W and 1 - W meet
POLY_EDGE_ALPHAS = (-np.pi / 2 + 1e-6, 7e-5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tol


def _clear(d):
    """Whether each |<q, q_i>| in d keeps PROBE_MARGIN away from 0 and 1,
    where every cost is smooth."""
    return (d > PROBE_MARGIN) & (d < 1.0 - PROBE_MARGIN)


def _slots(rng, trials):
    """Each trial's r = 1..6 and the (trials, 6, 4) sample slots: a trial's
    first r slots unit normal draws, the rest NaN."""
    r = rng.integers(1, 7, size=trials)
    A = rng.standard_normal((trials, 6, 4))
    A /= np.sqrt(np.vecdot(A, A))[..., None]
    A[np.arange(6) >= r[:, None]] = np.nan
    return r, A


def _draws(seed, trials, unit=True):
    """The trials (r, slots, kind, power, X) of one seeded stream, as
    arrays: r and the sample slots (:func:`_slots`), an index into _KINDS,
    an index into POWERS (-1 for the kinds that take no p), and the (trials,
    4) probes, unit or, for ``unit`` False, scaled by a factor in [0.7, 1.3].

    Each probe keeps clear (:func:`_clear`) of the trial's live samples:
    the probes that do not are redrawn, all of them in one draw per pass.
    """
    rng = np.random.default_rng(seed)
    r, A = _slots(rng, trials)
    kind = rng.integers(0, len(_KINDS), size=trials)
    takes_p = np.array([callable(record) for record in _KINDS.values()])
    power = np.where(takes_p[kind], rng.integers(0, len(POWERS), size=trials), -1)
    X, todo = np.empty((trials, 4)), np.arange(trials)
    for _ in range(10000):
        if not len(todo):
            return r, A, kind, power, X
        X[todo] = normalize(rng.standard_normal((len(todo), 4)))
        if not unit:
            X[todo] *= rng.uniform(0.7, 1.3, size=(len(todo), 1))
        d = np.abs(np.vecdot(A[todo], X[todo, None]))  # NaN at a masked slot
        todo = todo[~(_clear(d) | np.isnan(d)).all(axis=1)]
    raise RuntimeError("could not sample probe points clear of the margins")


def _stacks(trials):
    """Yield (model, X) per (r, kind, p) of the trials: one model over the
    stack of the group's live sample slots and the (m, 4) stack of its
    probes."""
    r, A, kind, power, X = trials
    groups, names = {}, list(_KINDS)
    for t, key in enumerate(zip(r.tolist(), kind.tolist(), power.tolist())):
        groups.setdefault(key, []).append(t)
    for (n, k, i), rows in groups.items():
        yield CostModel(names[k], SampleSet(A[rows, :n]), POWERS[i] if i >= 0 else None), X[rows]


def _worst(readings):
    """The largest entry over a family's arrays of readings, and 0 when
    every reading is negative or there is none; NaN if any reading is NaN,
    which fails every tolerance."""
    return float(np.max(np.concatenate([np.ravel(r) for r in readings] + [np.zeros(1)])))


def check_tangency(seed=0, trials=1000) -> CheckResult:
    """<v0(q), grad F(q)> = 0: the control field never leaves the leaf."""
    readings = []
    for model, X in _stacks(_draws(seed, trials, unit=False)):
        W = v0(unit_sphere_problem(model.scalar_field()), X)
        readings.append(np.abs(np.vecdot(W, 2.0 * X)) / np.maximum(1.0, _norms(W)))
    return CheckResult("tangency <v0, grad F> = 0", trials, _worst(readings), 1e-10)


def check_dissipation(seed=0, trials=1000) -> CheckResult:
    """Gram-determinant dissipation rate is nonnegative everywhere."""
    readings = [
        -dissipation_rate(unit_sphere_problem(model.scalar_field()), X)
        for model, X in _stacks(_draws(seed, trials, unit=False))
    ]
    return CheckResult("dissipation rate >= 0", trials, _worst(readings), 1e-12)


def check_projection_form(seed=0, trials=1000) -> CheckResult:
    """On the unit sphere v0 is 4x the tangential part of the cost gradient.

    The violation is read relative to max(1, ||4 tangential||): the
    rounding of both sides scales with the gradient, whose scale c reaches
    256 for Lp 4.
    """
    readings = []
    for model, X in _stacks(_draws(seed, trials)):
        G = model.gradient(X)
        W = v0(unit_sphere_problem(model.scalar_field()), X)
        T = 4.0 * (G - np.vecdot(X, G)[:, None] * X)
        readings.append(_norms(W - T) / np.maximum(1.0, _norms(T)))
    return CheckResult("v0 = 4 * tangential gradient on the sphere", trials, _worst(readings), 1e-12)


def check_gradients(seed=0, trials=1000) -> CheckResult:
    """Analytic cost gradients against central differences."""
    readings = []
    for model, X in _stacks(_draws(seed, trials)):
        G = model.gradient(X)
        readings.append(_norms(G - fd_gradient(model.value, X)) / np.maximum(1.0, _norms(G)))
    return CheckResult("gradient vs central differences", trials, _worst(readings), 1e-6)


def check_evenness(seed=0, trials=1000) -> CheckResult:
    """value(-q) = value(q), gradient(-q) = -gradient(q), v0 likewise odd."""
    readings = []
    for model, X in _stacks(_draws(seed, trials)):
        readings.append(np.abs(model.value(-X) - model.value(X)))
        readings.append(_norms(model.gradient(-X) + model.gradient(X)))
        readings.append(_norms(model.control_field(-X) + model.control_field(X)))
    return CheckResult("sign evenness of costs, oddness of fields", trials, _worst(readings), 1e-12)


def check_delta_relation(seed=0, trials=1000) -> CheckResult:
    """<q,q_i> Delta_i(q) = (R^T R_i - R_i^T R)/4 on the unit sphere.

    Each trial draws r = 1..6 samples (:func:`_slots`) and a unit probe,
    with no margin. The live (trial, sample) pairs, 768 at a time, are the
    rows of one stack, which bounds the memory it holds.
    """
    rng = np.random.default_rng(seed)
    r, A = _slots(rng, trials)
    Q = np.repeat(normalize(rng.standard_normal((trials, 4))), r, axis=0)
    A = A[np.arange(6) < r[:, None]]
    readings = []
    for k in range(0, len(A), 768):
        q, qi = Q[k : k + 768], A[k : k + 768]
        R, Ri = covering_map(q), covering_map(qi)
        x = np.vecdot(q, qi)
        RtRi = np.swapaxes(R, -1, -2) @ Ri
        lhs = x[:, None, None] * delta_skew(q, qi)
        readings.append(np.max(np.abs(lhs - 0.25 * (RtRi - np.swapaxes(Ri, -1, -2) @ R))))
        readings.append(np.max(np.abs(x**2 - 0.25 * (np.trace(RtRi, axis1=-2, axis2=-1) + 1.0))))
    return CheckResult("skew bracket and trace identities", trials, _worst(readings), 1e-12)


def check_pushforward(seed=0, trials=1000) -> CheckResult:
    """sum_i w_i Delta_i(q) = -(kappa/4)(M^T R - R^T M) at R = covering_map(q):
    the critical-point system on S3 and Moakher's matrix system on SO(3)
    are one system, so the flow's limits are well defined on SO(3).

    The violation is read relative to max(1, ||sum_i w_i Delta_i||), for
    the reason given in :func:`check_projection_form`.
    """
    readings = []
    for model, X in _stacks(_draws(seed, trials)):
        P = model.pushforward_residual(X)
        E = P + (model.kappa / 4.0) * model.rotation_residual(covering_map(X))
        readings.append(_norms(E) / np.maximum(1.0, _norms(P)))
    return CheckResult("pushforward residual = -(kappa/4) rotation residual", trials, _worst(readings), 1e-12)


def check_double_cover(seed=0, trials=1000) -> CheckResult:
    """covering_map lands in SO(3), is even, and inverts through the lift."""
    # every trial at once, one row each
    q = normalize(np.random.default_rng(seed).standard_normal((trials, 4)))
    R = covering_map(q)
    worst = max(
        float(np.max(np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)))),
        float(np.max(np.abs(np.linalg.det(R) - 1.0))),
        float(np.max(np.abs(R - covering_map(-q)))),
        float(np.max(np.abs(quat_from_rotation(R) - canonicalize_sign(q)))),
    )
    return CheckResult("double cover and lift round trip", trials, worst, 1e-10)


def check_d3_identity(seed=0, trials=1000) -> CheckResult:
    """d3 between two rotation matrices, which :func:`dist_d3` reads on
    their quaternion lifts, equals 1 - |<qa, qb>| for the quaternions they
    came from, over the drawn pairs and :data:`D3_EDGE`: the lift's round
    trip and the e-form of d3 together."""
    Z = normalize(np.random.default_rng(seed).standard_normal((trials, 2, 4)))
    qa, qb = np.vstack([Z[:, 0], D3_EDGE[0]]), np.vstack([Z[:, 1], D3_EDGE[1]])
    lhs = dist_d3(covering_map(qa), covering_map(qb))
    readings = [np.abs(lhs - (1.0 - np.abs(np.vecdot(qa, qb))))]
    return CheckResult("d3 on the lifts equals 1 - |<qa, qb>|", len(qa), _worst(readings), 1e-12)


def check_black_set(seed=0, trials=1000) -> CheckResult:
    """Cost on (0,0,cos t,sin t) is 3*8^(p/2), independent of t and alpha."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-np.pi, np.pi, size=trials)
    t = rng.uniform(0.0, 2.0 * np.pi, size=trials)
    p = np.array([2.0, 4.0])[rng.integers(0, 2, size=trials)]
    readings = []
    for power in sorted(set(p.tolist())):
        rows = p == power
        model = CostModel.lp_chordal(SampleSet(_sample_quats(alpha[rows].tolist())), power)
        X = np.zeros((np.count_nonzero(rows), 4))
        X[:, 2], X[:, 3] = np.cos(t[rows]), np.sin(t[rows])
        readings.append(np.abs(model.value(X) - 3.0 * 8.0 ** (power / 2.0)))
        readings.append(_norms(model.pushforward_residual(X)))
    return CheckResult("out-of-pencil set: constant cost, zero residual", trials, _worst(readings), 1e-12)


def check_two_roots(seed=0, trials=1000) -> CheckResult:
    """The quadratic-cost polynomial has exactly two roots in (0,1].

    Sampled on the standard 0.01 grid over [-pi, pi] (the claim degenerates
    exactly at alpha = 0, where the two roots collide, which the grid never
    hits). The polynomial is quadratic in W = x^2, so its roots come in
    closed form; they pair as W and 1 - W. One draw of every trial's grid
    index reads the stream as one draw per trial does, and the distinct
    indices are solved together, in one sweep._roots_of call, whose
    non-NaN columns are each index's roots.
    """
    grid = set(np.random.default_rng(seed).integers(0, 629, size=trials).tolist())
    counts = np.count_nonzero(~np.isnan(_roots_of([-np.pi + 0.01 * i for i in grid], 2.0)), axis=1)
    return CheckResult("quadratic-cost polynomial root count = 2", trials, _worst([np.abs(counts - 2)]), 0.5)


def check_poly_consistency(seed=0, trials=40) -> CheckResult:
    """Every polynomial root admits a branch solving the critical system,
    at the drawn angles and :data:`POLY_EDGE_ALPHAS`."""
    alphas = [*np.random.default_rng(seed).uniform(-np.pi, np.pi, size=trials).tolist(), *POLY_EDGE_ALPHAS]
    res = [best for p in (2.0, 4.0) for _, best in _root_residuals(alphas, p)]
    return CheckResult("polynomial roots solve the critical system", len(res), _worst([res]), RESIDUAL_TOL)


FAMILIES = (
    check_tangency,
    check_dissipation,
    check_projection_form,
    check_gradients,
    check_evenness,
    check_delta_relation,
    check_pushforward,
    check_double_cover,
    check_d3_identity,
    check_black_set,
    check_two_roots,
    check_poly_consistency,
)


def run_all(seed=0, trials=1000):
    return [fam(seed=seed + i, trials=trials) for i, fam in enumerate(FAMILIES)]


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name}: max violation {r.max_violation:.3e} (tol {r.tol:.0e}, {r.trials} trials)"
        )
    bad = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - bad}/{len(results)} invariant families pass")
    return "\n".join(lines)
