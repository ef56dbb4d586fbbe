"""The stacked check families against a per-trial reference.

Each family draws its trials in one pass and evaluates them as stacks
grouped by (r, kind, p). The reference here is the per-trial form: one
SampleSet, one CostModel and one-point calls per trial, in stream order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import checks
from rotavg.control import dissipation_rate, fd_gradient, unit_sphere_problem, v0
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, covering_map, delta_skew, dist_d3, normalize
from rotavg.solvers import multistart
from rotavg.sweep import _candidates, _poly_for, build_samples, positive_roots, q2_coeffs


def _random_samples(rng):
    r = int(rng.integers(1, 7))
    quats = rng.standard_normal((r, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return SampleSet.from_quaternions(quats)


def _random_model(rng, samples):
    k = int(rng.integers(0, 4))
    if k == 0:
        return CostModel.l2_chordal(samples)
    if k == 1:
        return CostModel.geodesic(samples)
    if k == 2:
        return CostModel.trace_sqrt(samples)
    return CostModel.lp_chordal(samples, p=float(rng.choice([1.5, 2.0, 3.0, 4.0])))


def _probe(rng, samples, margin=1e-3, unit=True):
    for _ in range(10000):
        q = normalize(rng.standard_normal(4))
        if not unit:
            q = q * float(rng.uniform(0.7, 1.3))
        d = np.abs(samples.quaternions @ q)
        if np.min(d) > margin and np.max(d) < 1.0 - margin:
            return q
    raise RuntimeError("no probe")


def reference_draws(seed, trials, unit=True):
    """The per-trial draw loop: a sample set, a model and a probe per trial."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        samples = _random_samples(rng)
        model = _random_model(rng, samples)
        yield model, _probe(rng, samples, unit=unit)


def _norm(a):
    return float(np.linalg.norm(a))


def ref_tangency(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials, unit=False):
        w = v0(unit_sphere_problem(model.scalar_field()), q)
        worst = max(worst, abs(float(np.dot(w, 2.0 * q))) / max(1.0, _norm(w)))
    return worst


def ref_dissipation(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials, unit=False):
        worst = max(worst, -float(dissipation_rate(unit_sphere_problem(model.scalar_field()), q)))
    return worst


def ref_projection_form(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials):
        g = model.gradient(q)
        w = v0(unit_sphere_problem(model.scalar_field()), q)
        t = 4.0 * (g - np.dot(q, g) * q)
        worst = max(worst, _norm(w - t) / max(1.0, _norm(t)))
    return worst


def ref_gradients(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials):
        g = model.gradient(q)
        worst = max(worst, _norm(g - fd_gradient(model.value, q)) / max(1.0, _norm(g)))
    return worst


def ref_evenness(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials):
        worst = max(worst, abs(model.value(-q) - model.value(q)))
        worst = max(worst, _norm(model.gradient(-q) + model.gradient(q)))
        worst = max(worst, _norm(model.control_field(-q) + model.control_field(q)))
    return worst


def ref_delta_relation(seed, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        samples = _random_samples(rng)
        q = normalize(rng.standard_normal(4))
        R = covering_map(q)
        for qi, Ri in zip(samples.quaternions, samples.rotations):
            lhs = float(np.dot(q, qi)) * delta_skew(q, qi)
            worst = max(worst, float(np.max(np.abs(lhs - 0.25 * (R.T @ Ri - Ri.T @ R)))))
            worst = max(worst, abs(np.dot(q, qi) ** 2 - 0.25 * (float(np.trace(R.T @ Ri)) + 1.0)))
    return worst


def ref_pushforward(seed, trials):
    worst = 0.0
    for model, q in reference_draws(seed, trials):
        P = model.pushforward_residual(q)
        E = P + (model.kappa / 4.0) * model.rotation_residual(covering_map(q))
        worst = max(worst, _norm(E) / max(1.0, _norm(P)))
    return worst


def ref_d3_identity(seed, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        qa = normalize(rng.standard_normal(4))
        qb = normalize(rng.standard_normal(4))
        lhs = dist_d3(covering_map(qa), covering_map(qb))
        worst = max(worst, abs(lhs - (1.0 - abs(float(np.dot(qa, qb))))))
    return worst


def ref_black_set(seed, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = float(rng.uniform(-np.pi, np.pi))
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        p = float(rng.choice([2.0, 4.0]))
        model = CostModel.lp_chordal(build_samples(alpha), p)
        q = np.array([0.0, 0.0, np.cos(t), np.sin(t)])
        worst = max(worst, abs(model.value(q) - 3.0 * 8.0 ** (p / 2.0)))
        worst = max(worst, _norm(model.pushforward_residual(q)))
    return worst


def ref_two_roots(seed, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = -np.pi + 0.01 * int(rng.integers(0, 629))
        worst = max(worst, float(abs(len(positive_roots(q2_coeffs(alpha))) - 2)))
    return worst


def ref_poly_consistency(seed, trials):
    # one model per alpha and p, its candidates as one stack of points
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = float(rng.uniform(-np.pi, np.pi))
        for p in (2.0, 4.0):
            model = CostModel.lp_chordal(build_samples(alpha), p)
            roots = positive_roots(_poly_for(p)(alpha))
            X, rows = _candidates(roots, p)
            S = model.pushforward_residual(X).reshape(-1, 9)[1:]
            res = np.sqrt(np.vecdot(S, S))
            for i in range(len(roots)):
                worst = max(worst, min(r for (j, _), r in zip(rows, res) if j == i))
    return worst


# family -> (per-trial reference, allowed difference in units of eps). The
# two families whose reference squares or dots with numpy scalars (pow, dot)
# where the stack uses array arithmetic differ by rounding in O(1) terms
REFERENCES = {
    checks.check_tangency: (ref_tangency, 0),
    checks.check_dissipation: (ref_dissipation, 0),
    checks.check_projection_form: (ref_projection_form, 0),
    checks.check_gradients: (ref_gradients, 0),
    checks.check_evenness: (ref_evenness, 0),
    checks.check_delta_relation: (ref_delta_relation, 4),
    checks.check_pushforward: (ref_pushforward, 0),
    checks.check_d3_identity: (ref_d3_identity, 4),
    checks.check_black_set: (ref_black_set, 0),
    checks.check_two_roots: (ref_two_roots, 0),
    checks.check_poly_consistency: (ref_poly_consistency, 0),
}


def _assert_reference_draws(draws, seed, unit):
    for (quats, kind, p, q), (model, q_ref) in zip(draws, reference_draws(seed, len(draws), unit=unit), strict=True):
        assert np.array_equal(normalize(quats), model.samples.quaternions)
        assert kind == model.kind and p == model.p
        assert np.array_equal(q, q_ref)


@pytest.mark.parametrize("seed", [*range(10), 11004, 206003])
@pytest.mark.parametrize("unit", [True, False])
def test_draw_pass_reproduces_the_per_trial_draws(seed, unit):
    # the block pass against the per-trial loop; the seeds of the CLI
    # smoke runs (0, 3, 11004, 206003) at a full pass of 1000 trials
    trials = 1000 if seed in (0, 3, 11004, 206003) else 100
    draws = checks._draws(seed, trials, unit=unit)
    assert len(draws) == trials
    _assert_reference_draws(draws, seed, unit)


def _block_positions(seed, trials, unit, monkeypatch):
    """The draws, and the place in its block of each trial whose first
    probe the margin test rejects (each trial that _draws finishes with
    _probe): a block holds DRAW_BLOCK trials (half for scaled probes) and
    ends at its first rejected trial."""
    rejected, probe = [], checks._probe
    monkeypatch.setattr(checks, "_probe", lambda rng, Q, unit: rejected.append(Q) or probe(rng, Q, unit))
    draws = checks._draws(seed, trials, unit=unit)
    size = checks.DRAW_BLOCK if unit else checks.DRAW_BLOCK // 2
    positions, start = [], 0
    for Q in rejected:
        k = next(k for k, d in enumerate(draws) if np.array_equal(normalize(d[0]), Q))
        start += (k - start) // size * size
        positions.append(k - start)
        start = k + 1
    return draws, positions


def test_draw_pass_restores_the_stream_at_both_ends_of_a_block(monkeypatch):
    # seed 7 (unit probes) rejects the first probe of a block's last trial,
    # and later that of a block's first trial, where no trial of the block
    # is kept before it; each is finished from its restored state
    draws, positions = _block_positions(7, 1000, True, monkeypatch)
    assert positions[0] == checks.DRAW_BLOCK - 1 and 0 in positions
    _assert_reference_draws(draws, 7, True)


def test_bulk_integer_draw_equals_the_scalar_draws():
    # check_two_roots draws every trial's grid index at once
    for seed in (0, 5, 10):
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert bulk.integers(0, 629, size=1000).tolist() == [int(scalar.integers(0, 629)) for _ in range(1000)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_stacks_group_by_r_kind_and_p():
    draws = checks._draws(5, 300)
    stacks = list(checks._stacks(draws))
    assert len(stacks) <= 42
    assert sum(len(X) for _, X in stacks) == 300
    for model, X in stacks:
        assert model.samples.stacked and len(model.samples.quaternions) == len(X)


@pytest.mark.parametrize("seed", [0, 3, 11004])
@pytest.mark.parametrize("family", list(REFERENCES), ids=lambda f: f.__name__)
def test_family_reading_matches_the_per_trial_reference(family, seed):
    ref, ulps = REFERENCES[family]
    trials = 40 if family is checks.check_poly_consistency else 200
    got = family(seed=seed, trials=trials).max_violation
    want = ref(seed, trials)
    if ulps == 0:
        assert got == want
    else:
        assert abs(got - want) <= ulps * np.finfo(float).eps


@pytest.mark.parametrize("scale", [0.5, 2.0, -1.0])
def test_pushforward_family_fails_on_a_misscaled_residual(scale, monkeypatch):
    # the family reads the S3 system against the matrix system, so a
    # rotation residual off by a factor or of the wrong sign fails it.
    # (kappa itself cancels from the reading, which multiplies by the
    # kappa that M divides by; test_l2_pushforward_vs_rotation_residual
    # pins each kind's ratio as a literal)
    assert checks.check_pushforward(seed=0, trials=100).passed
    residual = CostModel.rotation_residual
    monkeypatch.setattr(CostModel, "rotation_residual", lambda self, R: scale * residual(self, R))
    result = checks.check_pushforward(seed=0, trials=100)
    assert not result.passed and result.max_violation > 0.1


def test_nan_reading_fails():
    assert math.isnan(checks._worst([np.array([1.0, np.nan])]))
    assert checks._worst([np.array([-1.0])]) == 0.0
    assert not checks.CheckResult("x", 1, checks._worst([np.array([np.nan])]), 1.0).passed


KIND_P = [("L2Chordal", None), ("Geodesic", None), ("TraceSqrt", None)]
KIND_P += [("LpChordal", p) for p in (1.5, 2.0, 3.0, 4.0)]


@settings(max_examples=40, deadline=None)
@given(
    kind_p=st.sampled_from(KIND_P),
    r=st.integers(1, 6),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluators_equal_per_set_calls(kind_p, r, m, seed):
    kind, p = kind_p
    rng = np.random.default_rng(seed)
    sets = rng.standard_normal((m, r, 4))
    X = normalize(rng.standard_normal((m, 4)))
    stacked = CostModel(kind, SampleSet(sets), p)
    singles = [CostModel(kind, SampleSet(s), p) for s in sets]
    for name in ("value", "gradient", "control_field", "pushforward_residual"):
        got = getattr(stacked, name)(X)
        want = np.array([getattr(model, name)(x) for model, x in zip(singles, X)])
        assert np.array_equal(got, want), name
    R = covering_map(X)
    want = np.array([model.rotation_residual(Rk) for model, Rk in zip(singles, R)])
    assert np.array_equal(stacked.rotation_residual(R), want)
    # an (m, 3, 3) stack over one set: one residual per row
    want = np.array([singles[0].rotation_residual(Rk) for Rk in R])
    assert np.array_equal(singles[0].rotation_residual(R), want)


def test_stacked_set_shapes():
    S = SampleSet(np.random.default_rng(0).standard_normal((5, 3, 4)))
    assert S.stacked and S.r == 3 and S.quaternions.shape == (5, 3, 4)
    assert S.rotations.shape == (5, 3, 3, 3)
    assert np.array_equal(S.rotations[2], covering_map(S.quaternions[2]))
    assert not SampleSet(S.quaternions[0]).stacked
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 3, 4, 4)))


STACK_EVALUATORS = ("value", "gradient", "control_field", "hessian", "pushforward_residual", "clearance",
                    "admissible", "rotation_residual")


def _call(model, name, X):
    """The evaluator ``name`` at the points X, or at their rotations for rotation_residual."""
    return getattr(model, name)(covering_map(X) if name == "rotation_residual" else X)


@pytest.mark.parametrize("make", [CostModel.l2_chordal, CostModel.geodesic, lambda s: CostModel.lp_chordal(s, 1.5)])
def test_stacked_set_refuses_single_set_work(make):
    sets = np.random.default_rng(1).standard_normal((4, 3, 4))
    model = make(SampleSet(sets))
    X = normalize(np.random.default_rng(2).standard_normal((5, 4)))
    with pytest.raises(ValueError, match="stack"):
        model.hessian(X[:4])
    with pytest.raises(ValueError, match="stack"):
        multistart(model, 4, seed=0)
    # a stack of m = 4 sets reads exactly 4 rows: one point would answer
    # for set 0 alone, and 5 rows have no set for the last
    for name in STACK_EVALUATORS:
        for points in (X[0], X):
            with pytest.raises(ValueError, match="stack"):
                _call(model, name, points)
    # over a stack of one set, one point answers for that set
    one, single = make(SampleSet(sets[:1])), make(SampleSet(sets[0]))
    for name in STACK_EVALUATORS:
        if name == "hessian":
            with pytest.raises(ValueError, match="stack"):
                _call(one, name, X[0])
        else:
            assert np.array_equal(_call(one, name, X[0]), _call(single, name, X[0])), name
