"""The stacked check families against a per-trial reference.

Each family draws its trials as fixed-shape arrays and evaluates them as
stacks grouped by (r, kind, p). The reference here reads the same trials
in per-trial form: one SampleSet, one CostModel and one-point calls per
trial.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import checks
from rotavg.control import dissipation_rate, fd_gradient, unit_sphere_problem, v0
from rotavg.costs import _KINDS, CostModel
from rotavg.geometry import SampleSet, covering_map, delta_skew, dist_d3, normalize
from rotavg.solvers import multistart
from rotavg.sweep import _poly_for, build_samples, positive_roots, q2_coeffs


def reference_draws(seed, trials, unit=True):
    """The family's trials one at a time: a sample set, a model and a probe each."""
    r, A, kind, power, X = checks._draws(seed, trials, unit)
    for k in range(trials):
        p = checks.POWERS[power[k]] if power[k] >= 0 else None
        yield CostModel(list(_KINDS)[kind[k]], SampleSet(A[k, : r[k]]), p), X[k]


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
    # the family's draw: sample slots, then one unit probe per trial
    rng = np.random.default_rng(seed)
    r, A = checks._slots(rng, trials)
    probes = normalize(rng.standard_normal((trials, 4)))
    worst = 0.0
    for k, q in enumerate(probes):
        R = covering_map(q)
        for qi in A[k, : r[k]]:
            Ri = covering_map(qi)
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
    # the family's draw, two normal 4-vectors a trial, and its edge pair
    Z = np.random.default_rng(seed).standard_normal((trials, 2, 4))
    worst = 0.0
    for za, zb in [*Z, checks.D3_EDGE]:
        qa, qb = normalize(za), normalize(zb)
        lhs = dist_d3(covering_map(qa), covering_map(qb))
        worst = max(worst, abs(lhs - (1.0 - abs(float(np.dot(qa, qb))))))
    return worst


def ref_black_set(seed, trials):
    # the family's draw: every trial's alpha, then t, then p
    rng = np.random.default_rng(seed)
    alphas, ts = rng.uniform(-np.pi, np.pi, size=trials), rng.uniform(0.0, 2.0 * np.pi, size=trials)
    worst = 0.0
    for alpha, t, p in zip(alphas.tolist(), ts.tolist(), rng.choice([2.0, 4.0], size=trials).tolist()):
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


def reference_branches(roots, p):
    """The on-axis branches of each root x of one alpha, as (root index,
    point) pairs: (y, x, 0, 0), then (-y, x, 0, 0) unless y < 1e-12, where
    the two are one point. y is sqrt(max(1 - x^2, 0)), or for p = 2 with
    two roots the other root's x (they pair as W and 1 - W)."""
    out = []
    for i, x in enumerate(roots):
        y = roots[1 - i] if p == 2.0 and len(roots) == 2 else math.sqrt(max(1.0 - x * x, 0.0))
        out.append((i, (y, x, 0.0, 0.0)))
        if y >= 1e-12:
            out.append((i, (-y, x, 0.0, 0.0)))
    return out


def ref_poly_consistency(seed, trials):
    # one model per alpha and p, the black point and the branches as one
    # stack of points
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alpha in [float(rng.uniform(-np.pi, np.pi)) for _ in range(trials)] + list(checks.POLY_EDGE_ALPHAS):
        for p in (2.0, 4.0):
            model = CostModel.lp_chordal(build_samples(alpha), p)
            roots = positive_roots(_poly_for(p)(alpha))
            branches = reference_branches(roots, p)
            X = np.array([(0.0, 0.0, 1.0, 0.0)] + [q for _, q in branches])
            S = model.pushforward_residual(X).reshape(-1, 9)[1:]
            res = np.sqrt(np.vecdot(S, S))
            for i in range(len(roots)):
                worst = max(worst, min(r for (j, _), r in zip(branches, res) if j == i))
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


def _assert_draw_invariants(seed, trials, unit):
    draws = checks._draws(seed, trials, unit)
    r, A, kind, power, X = draws
    assert r.shape == kind.shape == power.shape == (trials,)
    assert A.shape == (trials, 6, 4) and X.shape == (trials, 4)
    assert set(r.tolist()) <= set(range(1, 7))
    live = np.arange(6) < r[:, None]
    assert np.isnan(A[~live]).all() and not np.isnan(A[live]).any()
    # every live sample clears the margin at its probe, where each cost is smooth
    d = np.abs(np.vecdot(A, X[:, None]))[live]
    assert ((d > 1e-3) & (d < 1.0 - 1e-3)).all()
    norms = np.linalg.norm(X, axis=1)
    if unit:
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-15)
    else:
        assert ((norms >= 0.7) & (norms <= 1.3)).all()
        assert trials < 100 or np.ptp(norms) > 0.5
    # a power only for the kinds built from p
    takes_p = np.array([callable(record) for record in _KINDS.values()])[kind]
    assert (power[takes_p] >= 0).all() and (power[~takes_p] == -1).all()
    for got, again in zip(draws, checks._draws(seed, trials, unit)):
        assert np.array_equal(got, again, equal_nan=True)
    # the masked slots never reach a group's sample set, and each group's
    # rows are its trials in draw order, bit for bit as read one at a time
    rows = {}
    for model, q in reference_draws(seed, trials, unit=unit):
        rows.setdefault((model.samples.r, model.kind, model.p), []).append(np.append(model.samples.quaternions, q))
    stacks = list(checks._stacks(draws))
    assert len(stacks) <= 42 and sum(len(X) for _, X in stacks) == trials
    for model, Xg in stacks:
        assert model.samples.quaternions.shape == (len(Xg), model.samples.r, 4)
        assert not np.isnan(model.samples.quaternions).any()
        got = np.hstack([model.samples.quaternions.reshape(len(Xg), -1), Xg])
        assert np.array_equal(got, rows.pop((model.samples.r, model.kind, model.p)))
    assert not rows


@pytest.mark.parametrize("seed", [*range(10), 11004, 206003])
@pytest.mark.parametrize("unit", [True, False])
def test_draw_pass_reproduces_the_per_trial_draws(seed, unit):
    # the stacked pass against the per-trial reading of the same draw; the
    # CLI smoke seeds 0 and 3, and 11004 and 206003, at a full pass of 1000
    # trials, the others at 100
    _assert_draw_invariants(seed, 1000 if seed in (0, 3, 11004, 206003) else 100, unit)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300), unit=st.booleans())
def test_draws_hold_for_any_seed_and_size(seed, trials, unit):
    _assert_draw_invariants(seed, trials, unit)


def test_bulk_integer_draw_equals_the_scalar_draws():
    # check_two_roots draws every trial's grid index at once
    for seed in (0, 5, 10):
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert bulk.integers(0, 629, size=1000).tolist() == [int(scalar.integers(0, 629)) for _ in range(1000)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_bulk_uniform_draw_equals_the_scalar_draws():
    # check_poly_consistency draws every trial's alpha at once
    for seed in range(5):
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        got = bulk.uniform(-np.pi, np.pi, size=1000).tolist()
        assert got == [float(scalar.uniform(-np.pi, np.pi)) for _ in range(1000)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_stacks_group_by_r_kind_and_p():
    stacks = list(checks._stacks(checks._draws(5, 300)))
    assert len({(model.samples.r, model.kind, model.p) for model, _ in stacks}) == len(stacks)
    for model, X in stacks:
        assert model.samples.stacked and len(model.samples.quaternions) == len(X)


def test_explicit_edge_trials_are_read():
    # the d3 pair sits at relative angle pi - 1e-6; the polynomial angles
    # next to -pi/2 and 0 are read at both powers in every run, and counted
    qa, qb = checks.D3_EDGE
    assert abs(np.dot(qa, qb) - math.cos(0.5 * (math.pi - 1e-6))) < 1e-15
    assert checks.check_d3_identity(seed=0, trials=1).trials == 2
    drawn = [float(np.random.default_rng(0).uniform(-np.pi, np.pi))]
    res = {a: [best for p in (2.0, 4.0) for _, best in checks._root_residuals(a, p)]
           for a in drawn + list(checks.POLY_EDGE_ALPHAS)}
    result = checks.check_poly_consistency(seed=0, trials=1)
    assert result.trials == sum(map(len, res.values()))
    assert result.max_violation == max(max(r) for r in res.values()) < result.tol


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
    assert S.outer_products.shape == (5, 16, 3)
    Q = S.quaternions[2]
    assert np.array_equal(S.outer_products[2], (Q[:, :, None] * Q[:, None, :]).reshape(3, 16).T)
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
