"""Randomized invariant suite.

Each family draws seeded random sample sets and probe points, measures the
worst violation of one structural identity, and compares it to a fixed
tolerance. The same functions back the command-line `check` subcommand and
the property-suite regression tests, so the output is deterministic for a
given seed.

A family draws all its trials first, in one pass over one seeded stream,
and builds no sample set or cost model per trial. Only the generator runs
per trial: the arithmetic around the draws (the norms of the samples and
probes, the probe dots and the margin test) runs once per block of trials
(:func:`_draws`), and each trial still gets the draws, in stream order, of
a per-trial loop. The family then evaluates the trials as stacks: the
trials of one (r, kind, p), at most 6 * 7 = 42 groups, form one stacked
SampleSet and one CostModel, whose evaluators read probe k against set k
with the bits of the one-trial call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .control import dissipation_rate, fd_gradient, unit_sphere_problem, v0
from .costs import _KINDS, CostModel
from .geometry import (
    SampleSet,
    canonicalize_sign,
    covering_map,
    delta_skew,
    dist_d3,
    normalize,
    quat_from_rotation,
)
from .sweep import _root_residuals, _sample_quats, positive_roots, q2_coeffs

__all__ = ["CheckResult", "run_all", "format_report", "FAMILIES"]

DRAW_BLOCK = 16  # trials per pass of draw arithmetic (see _draws); a rejected probe ends a block early


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tol


def _clear(d, margin=1e-3):
    """Whether each |<q, q_i>| in d keeps margin away from 0 and 1, where
    every cost is smooth."""
    return (d > margin) & (d < 1.0 - margin)


def _probe(rng, Q, unit=True):
    """A probe point clear (:func:`_clear`) of each sample lift, a row of
    Q: unit, or for ``unit`` False scaled by a factor in [0.7, 1.3]."""
    for _ in range(10000):
        q = normalize(rng.standard_normal(4))
        if not unit:
            q = q * float(rng.uniform(0.7, 1.3))
        if _clear(np.abs(Q @ q)).all():
            return q
    raise RuntimeError("could not sample a probe point clear of the margins")


def _draws(seed, trials, unit=True):
    """Each trial's (quats, kind, p, q), drawn in that order from one seeded
    stream: r = 1..6 sample quaternions as a SampleSet takes them, a cost
    kind, the Lp power (None for the other kinds) and a :func:`_probe`.

    Only the generator runs per trial. A block of trials is drawn with
    their first probes, as if each were clear, keeping the stream state
    after each trial; the norms, the probe dots and the margin test then
    run once over the block. The trials before the first whose first probe
    fails are kept; that trial is finished by :func:`_probe` from the state
    right after its first probe, and the next block starts after it. A
    failed probe's redraws are the only data-dependent draws, so every
    trial gets the draws of a per-trial loop. Blocks hold DRAW_BLOCK
    trials, or half as many for scaled probes, whose first probe fails
    about 9 % of the time against 0.5 % for unit ones.
    """
    rng = np.random.default_rng(seed)
    names, draws = list(_KINDS), []
    while len(draws) < trials:
        block = []
        for _ in range(min(DRAW_BLOCK if unit else DRAW_BLOCK // 2, trials - len(draws))):
            quats = rng.standard_normal((int(rng.integers(1, 7)), 4))
            kind = names[int(rng.integers(0, len(names)))]
            # a kind whose record is built from p draws one of four powers;
            # rng.choice over them would draw what integers(0, 4) does
            p = (1.5, 2.0, 3.0, 4.0)[int(rng.integers(0, 4))] if callable(_KINDS[kind]) else None
            z = rng.standard_normal(4)
            block.append((quats, kind, p, z, 1.0 if unit else float(rng.uniform(0.7, 1.3)), rng.bit_generator.state))
        raw, kinds, ps, Z, scales, states = zip(*block)
        sizes = [len(quats) for quats in raw]
        ends = list(accumulate(sizes))
        starts = [e - r for r, e in zip(sizes, ends)]
        A = np.concatenate(raw)
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        Q = normalize(A)
        X = normalize(np.array(Z)) * np.array(scales)[:, None]
        clear = np.logical_and.reduceat(_clear(np.abs(np.vecdot(Q, np.repeat(X, sizes, axis=0)))), starts)
        n = len(block) if clear.all() else int(np.argmin(clear))
        draws += zip([A[a:e] for a, e in zip(starts[:n], ends)], kinds[:n], ps[:n], X[:n])
        if n < len(block):
            rng.bit_generator.state = states[n]
            a, e = starts[n], ends[n]
            draws.append((A[a:e], kinds[n], ps[n], _probe(rng, Q[a:e], unit)))
    return draws


def _stacks(draws):
    """Yield (model, X) per (r, kind, p) of the draws: one model over the
    stack of the group's sample sets and the (m, 4) stack of its probes."""
    groups = {}
    for quats, kind, p, q in draws:
        groups.setdefault((len(quats), kind, p), []).append((quats, q))
    for (_, kind, p), rows in groups.items():
        sets, X = zip(*rows)
        yield CostModel(kind, SampleSet(np.array(sets)), p), np.array(X)


def _norms(A):
    """The Euclidean norm of each row of A (n, ...), with the bits
    np.linalg.norm gives the row alone."""
    A = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(A, A))


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

    The (trial, sample) pairs of 128 trials at a time are the rows of one
    stack, which bounds the memory it holds. Each trial draws its r = 1..6
    samples and its probe raw; the stack normalizes them in one pass.
    """
    rng = np.random.default_rng(seed)
    readings = []
    for k in range(0, trials, 128):
        raw = [(rng.standard_normal((int(rng.integers(1, 7)), 4)), rng.standard_normal(4))
               for _ in range(min(128, trials - k))]
        samples, probes = zip(*raw)
        qi = np.concatenate(samples)
        qi = normalize(qi / np.linalg.norm(qi, axis=1, keepdims=True))
        # one broadcast row block per trial: the stack's memory layout, and
        # so its rounding, is that of the per-trial probes
        q = np.concatenate([np.broadcast_to(z, Q.shape) for z, Q in zip(normalize(np.array(probes)), samples)])
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
    """Matrix and quaternion forms of the d3 pseudometric agree."""
    # each trial draws two normal 4-vectors in turn: one (trials, 2, 4) draw
    Z = normalize(np.random.default_rng(seed).standard_normal((trials, 2, 4)))
    qa, qb = Z[:, 0], Z[:, 1]
    lhs = dist_d3(covering_map(qa), covering_map(qb))
    readings = [np.abs(lhs - (1.0 - np.abs(np.vecdot(qa, qb))))]
    return CheckResult("d3 matrix form equals quaternion form", trials, _worst(readings), 1e-12)


def check_black_set(seed=0, trials=1000) -> CheckResult:
    """Cost on (0,0,cos t,sin t) is 3*8^(p/2), independent of t and alpha."""
    rng = np.random.default_rng(seed)
    by_p = {}
    for _ in range(trials):
        alpha = float(rng.uniform(-np.pi, np.pi))
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        # what rng.choice([2.0, 4.0]) draws, without its list-to-array step
        p = (2.0, 4.0)[int(rng.integers(0, 2))]
        by_p.setdefault(p, []).append((_sample_quats(alpha), t))
    readings = []
    for p, rows in by_p.items():
        sets, t = zip(*rows)
        model = CostModel.lp_chordal(SampleSet(np.array(sets)), p)
        X = np.zeros((len(t), 4))
        X[:, 2], X[:, 3] = np.cos(t), np.sin(t)
        readings.append(np.abs(model.value(X) - 3.0 * 8.0 ** (p / 2.0)))
        readings.append(_norms(model.pushforward_residual(X)))
    return CheckResult("out-of-pencil set: constant cost, zero residual", trials, _worst(readings), 1e-12)


def check_two_roots(seed=0, trials=1000) -> CheckResult:
    """The quadratic-cost polynomial has exactly two roots in (0,1].

    Sampled on the standard 0.01 grid over [-pi, pi] (the claim degenerates
    exactly at alpha = 0, where the two roots collide, which the grid never
    hits). The polynomial is quadratic in W = x^2, so positive_roots solves
    it in closed form; its roots pair as W and 1 - W. One draw of every
    trial's grid index reads the stream as one draw per trial does, and
    each distinct index is solved once.
    """
    grid = set(np.random.default_rng(seed).integers(0, 629, size=trials).tolist())
    worst = max((abs(len(positive_roots(q2_coeffs(-np.pi + 0.01 * i))) - 2) for i in grid), default=0)
    return CheckResult("quadratic-cost polynomial root count = 2", trials, float(worst), 0.5)


def check_poly_consistency(seed=0, trials=40) -> CheckResult:
    """Every polynomial root admits a branch solving the critical system."""
    rng = np.random.default_rng(seed)
    alphas = [float(rng.uniform(-np.pi, np.pi)) for _ in range(trials)]
    res = [best for p in (2.0, 4.0) for _, best in _root_residuals(alphas, p)]
    return CheckResult("polynomial roots solve the critical system", len(res), _worst([res]), 1e-8)


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
