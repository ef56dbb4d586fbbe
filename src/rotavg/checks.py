"""Randomized invariant suite.

Each family draws seeded random sample sets and probe points, measures the
worst violation of one structural identity, and compares it to a fixed
tolerance. The same functions back the command-line `check` subcommand and
the property-suite regression tests, so the output is deterministic for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import dissipation_rate, fd_gradient, unit_sphere_problem, v0
from .costs import CostModel
from .geometry import (
    SampleSet,
    canonicalize_sign,
    covering_map,
    delta_skew,
    dist_d3,
    dp_apply,
    normalize,
    quat_from_rotation,
)

__all__ = ["CheckResult", "run_all", "format_report", "FAMILIES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tol


def _random_samples(rng) -> SampleSet:
    r = int(rng.integers(1, 7))
    quats = rng.standard_normal((r, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return SampleSet.from_quaternions(quats)


def _random_model(rng, samples) -> CostModel:
    k = int(rng.integers(0, 4))
    if k == 0:
        return CostModel.l2_chordal(samples)
    if k == 1:
        return CostModel.geodesic(samples)
    if k == 2:
        return CostModel.trace_sqrt(samples)
    return CostModel.lp_chordal(samples, p=float(rng.choice([1.5, 2.0, 3.0, 4.0])))


def _probe(rng, samples, margin=1e-3, unit=True):
    # keep |<q,q_i>| away from 0 and 1: every cost is smooth there
    for _ in range(10000):
        q = normalize(rng.standard_normal(4))
        if not unit:
            q = q * float(rng.uniform(0.7, 1.3))
        d = np.abs(samples.quaternions @ q)
        if np.min(d) > margin and np.max(d) < 1.0 - margin:
            return q
    raise RuntimeError("could not sample a probe point clear of the margins")


def _draws(seed, trials, unit=True):
    """Yield (model, q) per trial: a random sample set, a random model over
    it and a probe point, drawn in that order from one seeded stream."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        samples = _random_samples(rng)
        model = _random_model(rng, samples)
        yield model, _probe(rng, samples, unit=unit)


def check_tangency(seed=0, trials=1000) -> CheckResult:
    """<v0(q), grad F(q)> = 0: the control field never leaves the leaf."""
    worst = 0.0
    for model, q in _draws(seed, trials, unit=False):
        prob = unit_sphere_problem(model.scalar_field())
        w = v0(prob, q)
        worst = max(worst, abs(float(np.dot(w, 2.0 * q))) / max(1.0, float(np.linalg.norm(w))))
    return CheckResult("tangency <v0, grad F> = 0", trials, worst, 1e-10)


def check_dissipation(seed=0, trials=1000) -> CheckResult:
    """Gram-determinant dissipation rate is nonnegative everywhere."""
    worst = 0.0
    for model, q in _draws(seed, trials, unit=False):
        rate = dissipation_rate(unit_sphere_problem(model.scalar_field()), q)
        worst = max(worst, -float(rate))
    return CheckResult("dissipation rate >= 0", trials, worst, 1e-12)


def check_projection_form(seed=0, trials=1000) -> CheckResult:
    """On the unit sphere v0 is 4x the tangential part of the cost gradient."""
    worst = 0.0
    for model, q in _draws(seed, trials):
        g = model.gradient(q)
        w = v0(unit_sphere_problem(model.scalar_field()), q)
        tangential = g - np.dot(q, g) * q
        worst = max(worst, float(np.linalg.norm(w - 4.0 * tangential)))
    return CheckResult("v0 = 4 * tangential gradient on the sphere", trials, worst, 1e-12)


def check_gradients(seed=0, trials=1000) -> CheckResult:
    """Analytic cost gradients against central differences."""
    worst = 0.0
    for model, q in _draws(seed, trials):
        g = model.gradient(q)
        fd = fd_gradient(model.value, q)
        worst = max(worst, float(np.linalg.norm(g - fd)) / max(1.0, float(np.linalg.norm(g))))
    return CheckResult("gradient vs central differences", trials, worst, 1e-6)


def check_evenness(seed=0, trials=1000) -> CheckResult:
    """value(-q) = value(q), gradient(-q) = -gradient(q), v0 likewise odd."""
    worst = 0.0
    for model, q in _draws(seed, trials):
        worst = max(worst, abs(model.value(-q) - model.value(q)))
        worst = max(worst, float(np.linalg.norm(model.gradient(-q) + model.gradient(q))))
        worst = max(worst, float(np.linalg.norm(model.control_field(-q) + model.control_field(q))))
    return CheckResult("sign evenness of costs, oddness of fields", trials, worst, 1e-12)


def check_delta_relation(seed=0, trials=1000) -> CheckResult:
    """<q,q_i> Delta_i(q) = (R^T R_i - R_i^T R)/4 on the unit sphere."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        samples = _random_samples(rng)
        q = normalize(rng.standard_normal(4))
        R = covering_map(q)
        for qi, Ri in zip(samples.quaternions, samples.rotations):
            lhs = float(np.dot(q, qi)) * delta_skew(q, qi)
            rhs = 0.25 * (R.T @ Ri - Ri.T @ R)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            tr = float(np.trace(R.T @ Ri))
            worst = max(worst, abs(np.dot(q, qi) ** 2 - 0.25 * (tr + 1.0)))
    return CheckResult("skew bracket and trace identities", trials, worst, 1e-12)


def check_pushforward(seed=0, trials=1000) -> CheckResult:
    """DP(q) v0(q) = DP(-q) v0(-q): the flow descends through the double cover."""
    worst = 0.0
    for model, q in _draws(seed, trials):
        a = dp_apply(q, model.control_field(q))
        b = dp_apply(-q, model.control_field(-q))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("pushforward well-defined under q ~ -q", trials, worst, 1e-10)


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
    """Matrix and quaternion forms of the d3 pseudometric agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        qa = normalize(rng.standard_normal(4))
        qb = normalize(rng.standard_normal(4))
        lhs = dist_d3(covering_map(qa), covering_map(qb))
        worst = max(worst, abs(lhs - (1.0 - abs(float(np.dot(qa, qb))))))
    return CheckResult("d3 matrix form equals quaternion form", trials, worst, 1e-12)


def check_black_set(seed=0, trials=1000) -> CheckResult:
    """Cost on (0,0,cos t,sin t) is 3*8^(p/2), independent of t and alpha."""
    from .sweep import build_samples

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = float(rng.uniform(-np.pi, np.pi))
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        p = float(rng.choice([2.0, 4.0]))
        samples = build_samples(alpha)
        model = CostModel.lp_chordal(samples, p)
        q = np.array([0.0, 0.0, np.cos(t), np.sin(t)])
        worst = max(worst, abs(model.value(q) - 3.0 * 8.0 ** (p / 2.0)))
        worst = max(worst, float(np.linalg.norm(model.pushforward_residual(q))))
    return CheckResult("out-of-pencil set: constant cost, zero residual", trials, worst, 1e-12)


def check_two_roots(seed=0, trials=1000) -> CheckResult:
    """The quadratic-cost polynomial has exactly two roots in (0,1].

    Sampled on the standard 0.01 grid over [-pi, pi] (the claim degenerates
    exactly at alpha = 0, where the two roots collide, which the grid never
    hits). The polynomial is quadratic in W = x^2, so positive_roots solves
    it in closed form; its roots pair as W and 1 - W.
    """
    from .sweep import positive_roots, q2_coeffs

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = -np.pi + 0.01 * int(rng.integers(0, 629))
        n = len(positive_roots(q2_coeffs(alpha)))
        worst = max(worst, float(abs(n - 2)))
    return CheckResult("quadratic-cost polynomial root count = 2", trials, worst, 0.5)


def check_poly_consistency(seed=0, trials=40) -> CheckResult:
    """Every polynomial root admits a branch solving the critical system."""
    from .sweep import _root_residuals

    rng = np.random.default_rng(seed)
    worst = 0.0
    n = 0
    for _ in range(trials):
        alpha = float(rng.uniform(-np.pi, np.pi))
        for p in (2.0, 4.0):
            for _, res in _root_residuals(alpha, p):
                worst = max(worst, res)
                n += 1
    return CheckResult("polynomial roots solve the critical system", n, worst, 1e-8)


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
