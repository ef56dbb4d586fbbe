import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import costs, solvers
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, canonicalize_sign, covering_map, normalize, tangent_frame
from rotavg.solvers import (
    AmbiguousMean,
    CriticalPoint,
    DomainBreach,
    MaxIters,
    classify,
    eigen_oracle_l2,
    flow_descend,
    multistart,
    random_unit_quaternion,
)
from rotavg.sweep import build_samples, critical_sets

# Two trace-sqrt (d3) problems with five samples drawn at spread 0.2 around a
# random unit quaternion (scalar first). On the first, the Euler phase, which
# backtracks to sufficient decrease, converges only linearly and alone needs
# ~800 field evaluations per start; the Newton finish takes it to the noise
# floor in a few steps. On the second, a Newton trust radius of 0.1 rad
# jumped into the basin of a second minimum (cost 2.9956) that the line
# search never reaches.
D3_SLOW = [
    [-0.8875518288719321, -0.2009945363299193, -0.2502502083791038, -0.33049626418134365],
    [-0.8508398957626582, -0.23458639062821435, -0.3527787394384966, -0.3107858718005069],
    [-0.874770700130904, -0.19927703290167376, 0.042223569275555706, -0.439638552163053],
    [-0.8324963955344846, -0.015351006129834168, 0.032918302302658416, -0.5528385690293356],
    [-0.8193153580878099, -0.5358579152521388, 0.010041678627147986, -0.2036610010616282],
]
D3_TWO_BASINS = [
    [-0.5122930281240697, -0.47096551301425216, -0.4914770555236915, -0.5236388476616832],
    [-0.20178661887362762, -0.33022095734090134, -0.6096477751379676, -0.691784554645255],
    [-0.5821122097536763, -0.2294545986021211, -0.6929050625568994, -0.35829950700363894],
    [-0.05035177077921567, -0.07901756723614402, -0.6666676151139941, -0.7394425022986564],
    [-0.3897209332229256, -0.12195647028521481, -0.7280998038728363, -0.5505587063735901],
]

# seed 0's trace-sqrt problem on uniform samples, and start 35 of its
# multistart(seed=0): a line search that also takes a step whose cost fell by
# less than the sufficient-decrease bound whenever the field shrinks by 0.1 %
# zigzags here for 1547 field evaluations
D3_CREEP = [
    [0.32682236460207903, 0.6342304087340287, -0.37706359619981217, -0.5905607293529072],
    [0.05304747159534315, -0.42275289766554625, -0.6579169383566412, 0.6209760506623013],
    [0.7879905934432084, 0.3091839169118431, 0.345661195427091, 0.40496230459634797],
    [0.6596829069829723, -0.2856406055297313, 0.6943037612512715, -0.03420809581723259],
    [0.17541967334219616, -0.6705181679760537, 0.36449023089394694, 0.6219165508341381],
]
D3_CREEP_START = [0.4462366273434678, 0.5568055316800143, 0.48776652389329556, 0.5029157886532445]


def test_flow_tol_validation():
    model = CostModel.l2_chordal(build_samples(0.3))
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError):
            flow_descend(model, [1.0, 0.0, 0.0, 0.0], tol)
        with pytest.raises(ValueError):
            multistart(model, 2, seed=0, tol=tol)


def test_flow_refuses_a_field_bound_that_overflows():
    # the flow squares the control field, bounded by 4 c r; on two samples Lp
    # overflows that square past p = 333.5, though the model builds up to
    # p = 676.4
    samples = SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]])
    for p in (334.0, 400.0, 676.0):
        model = CostModel.lp_chordal(samples, p)
        with pytest.raises(ValueError, match="control field"):
            flow_descend(model, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="control field"):
            multistart(model, 2, seed=0)
    assert multistart(CostModel.lp_chordal(samples, 333.0), 2, seed=0)


def test_flow_starts_where_the_start_squared_overflows():
    # the start [1e308, 1e308, 0, 0] normalizes to the direction of
    # [1, 1, 0, 0], bit for bit, so the flow from it is the flow from that
    samples = SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]])
    model = CostModel.l2_chordal(samples)
    with np.errstate(over="ignore"):
        pt = flow_descend(model, [1e308, 1e308, 0.0, 0.0])
    want = flow_descend(model, [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(pt.q, want.q) and pt.cost == want.cost


def test_random_unit_quaternion():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-14
    # seeded stream is reproducible
    a = random_unit_quaternion(np.random.default_rng(42))
    b = random_unit_quaternion(np.random.default_rng(42))
    assert np.abs(a - b).max() == 0.0


def test_flow_single_sample():
    # one sample: its rotation is the unique minimizer for every cost
    rng = np.random.default_rng(1)
    target = random_unit_quaternion(rng)
    samples = SampleSet.from_quaternions(target[None])
    # trace_sqrt and p=4 are quartically flat at their minimum, so a 1e-12
    # bound on the control norm only pins the position to ~(1e-12)^(1/3)
    cases = [
        (CostModel.l2_chordal(samples), 1e-7),
        (CostModel.geodesic(samples), 1e-7),
        (CostModel.trace_sqrt(samples), 5e-4),
        (CostModel.lp_chordal(samples, 4.0), 5e-4),
    ]
    for model, pos_tol in cases:
        for _ in range(5):
            q0 = random_unit_quaternion(rng)
            while not model.admissible(q0):
                q0 = random_unit_quaternion(rng)
            pt = flow_descend(model, q0)
            assert pt.control_norm < 1e-12 * (1.0 + model.scale)
            assert np.abs(pt.R - covering_map(target)).max() < pos_tol
            assert pt.rotation_residual_norm < pos_tol


@pytest.mark.parametrize("r", [300, 1000, 3000])
def test_flow_converges_at_large_r(r):
    # the rounding floor of the control field grows with c r, so a fixed
    # absolute tolerance stalls the flow here; the scaled one does not
    rng = np.random.default_rng(r)
    base = random_unit_quaternion(rng)
    samples = SampleSet.from_quaternions(base + 0.2 * rng.standard_normal((r, 4)))
    for model in (
        CostModel.l2_chordal(samples),
        CostModel.geodesic(samples),
        CostModel.trace_sqrt(samples),
        CostModel.lp_chordal(samples, 1.5),
        CostModel.lp_chordal(samples, 4.0),
    ):
        costs = [flow_descend(model, random_unit_quaternion(rng)).cost for _ in range(4)]
        assert max(costs) - min(costs) <= 1e-10 * min(costs)


def test_flow_geodesic_midpoint():
    # two samples: the Riemannian mean bisects the connecting geodesic
    samples = SampleSet.from_quaternions(
        [[1.0, 0.0, 0.0, 0.0], [math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0, 0.0]]
    )
    model = CostModel.geodesic(samples)
    pt = flow_descend(model, normalize([1.0, 0.2, 0.1, -0.3]))
    mid = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0, 0.0])
    assert np.abs(canonicalize_sign(pt.q) - mid).max() < 1e-9


def test_flow_failure_modes(monkeypatch):
    samples = build_samples(-math.pi)
    model = CostModel.l2_chordal(samples)
    monkeypatch.setattr(solvers, "MAX_ITERS", 1)
    with pytest.raises(MaxIters):
        flow_descend(model, [1.0, 0.0, 0.0, 0.0])
    geo = CostModel.geodesic(samples)
    with pytest.raises(DomainBreach):
        # start orthogonal to the first sample lift
        flow_descend(geo, [1.0, 0.0, 0.0, 0.0])


def test_multistart_matches_eigen_oracle():
    rng = np.random.default_rng(2)
    for trial in range(10):
        r = int(rng.integers(2, 7))
        Q = np.array([random_unit_quaternion(rng) for _ in range(r)])
        samples = SampleSet.from_quaternions(Q)
        model = CostModel.l2_chordal(samples)
        pts = multistart(model, 10, seed=trial)
        assert pts
        assert pts[0].classification == "Min"
        # sorted by cost
        costs = [p.cost for p in pts]
        assert costs == sorted(costs)
        q_or = eigen_oracle_l2(samples)
        assert np.abs(pts[0].R - covering_map(q_or)).max() < 1e-8


def test_newton_finish_field_evaluations(monkeypatch):
    # the Newton finish converges in a few steps where the line search alone
    # needs ~800 field evaluations
    model = CostModel.trace_sqrt(SampleSet.from_quaternions(D3_SLOW))
    calls = []
    field = CostModel._field
    monkeypatch.setattr(CostModel, "_field", lambda self, X, D: calls.append(X) or field(self, X, D))
    pt = flow_descend(model, random_unit_quaternion(np.random.default_rng(0)))
    assert pt.control_norm < 1e-12
    assert 0 < len(calls) <= 40


def test_flow_backtracks_insufficient_decrease(monkeypatch):
    # a step whose cost fell, but by less than the sufficient-decrease bound,
    # is backtracked rather than taken for a 0.1 % smaller field: the start
    # reaches the minimum in a few steps instead of zigzagging at the
    # stability edge of its step size
    model = CostModel.trace_sqrt(SampleSet.from_quaternions(D3_CREEP))
    calls = []
    field = CostModel._field
    monkeypatch.setattr(CostModel, "_field", lambda self, X, D: calls.append(X) or field(self, X, D))
    pt = flow_descend(model, D3_CREEP_START)
    assert 0 < len(calls) <= 50
    assert classify(model, pt) == ("Min", False)
    assert abs(pt.cost - 1.6202218112417728) < 1e-12
    q = np.array([0.7632741341062883, 0.1704377904183512, 0.601247628602899, -0.16390498741953094])
    assert np.abs(pt.R - covering_map(q)).max() < 1e-10


@st.composite
def flow_problems(draw):
    # a model of every kind on 1 to 6 random samples, and four random starts
    kind = draw(st.sampled_from(["l2", "geodesic", "d3", "lp1.5", "lp4"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = kind_model(kind, SampleSet.from_quaternions(rng.standard_normal((draw(st.integers(1, 6)), 4))))
    return model, normalize(rng.standard_normal((4, 4)))


@settings(max_examples=60, deadline=None)
@given(flow_problems())
def test_line_search_acceptance_rule(problem):
    # every step the flow takes passes one rule, the Newton trial's and the
    # line search's alike: with noise = 1e-13 (1 + |c|) at the row's cost c,
    # it lowers the cost by at least its bound (noise for Newton,
    # max(0.025 h |v|^2, noise) for the line search), or leaves it within
    # the noise, |dc| <= noise, while the field at the new point is at most
    # 0.5 |v| (Newton) or 0.999 |v| (line search). The rows that move carry
    # the dots and cost that CostModel._trial gives their new point from
    # their old one
    model, starts = problem
    newton_trial, line_search = solvers._newton_trial, solvers._line_search
    accepted = []

    def check_steps(X, D, cost, k, X0, cost0, fall, field_bound):
        T = X[k]
        DT, cT = model._trial(T, X0, cost0)
        assert np.array_equal(D[k], DT) and np.array_equal(cost[k], cT)
        dc = cost[k] - cost0
        noise = 1e-13 * (1.0 + np.abs(cost0))
        rest = dc > -np.maximum(fall, noise)  # no sufficient decrease
        assert np.all(np.abs(dc[rest]) <= noise[rest])
        # the field only there: a sufficient step may end inside a guard
        # buffer, where the flow stops it and the field is not defined
        F = model._field(T[rest], D[k][rest])[0]
        assert np.all(np.sqrt(np.vecdot(F, F)) <= field_bound[rest])

    def checked_newton(model, X, D, V, wd, nv, cost):
        X0, cost0 = X.copy(), cost.copy()
        took = newton_trial(model, X, D, V, wd, nv, cost)
        assert np.array_equal(X[~took], X0[~took]) and np.array_equal(cost[~took], cost0[~took])
        check_steps(X, D, cost, took, X0[took], cost0[took], 0.0, 0.5 * nv[took])
        return took

    def checked_line_search(model, X, D, V, nv, cost, h, rows):
        X0, cost0 = X[rows], cost[rows]
        found = line_search(model, X, D, V, nv, cost, h, rows)
        k = rows[found]
        n = nv[k]
        assert np.array_equal(X[k], normalize(X0[found] - h[k, None] * V[k]))
        check_steps(X, D, cost, k, X0[found], cost0[found], 0.025 * h[k] * n * n, 0.999 * n)
        accepted.append(len(k))
        return found

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solvers, "_newton_trial", checked_newton)
        m.setattr(solvers, "_line_search", checked_line_search)
        solvers._flow(model, starts, 1e-12)
    assert sum(accepted) > 0


def test_newton_steps_only_positive_definite_rows():
    # the l2 critical points are the eigenvectors e_0..e_3 of sum_i q_i q_i^T
    # (ascending eigenvalues lam): e_3 is the minimum, e_1 and e_2 saddles,
    # e_0 the maximum, and the tangent Hessian at e_k along e_j is
    # 16 (lam_k - lam_j). Each row starts 1e-5 from e_k towards e_j; for
    # j < k the curvature there is positive and a Newton step would lower the
    # cost, so only the positive-definite gate keeps the saddle rows still
    rng = np.random.default_rng(31)
    model = CostModel.l2_chordal(SampleSet.from_quaternions(rng.standard_normal((5, 4))))
    E = np.linalg.eigh(model.samples.quaternions.T @ model.samples.quaternions)[1].T
    pairs = [(3, 0), (2, 1), (1, 0), (0, 2), (3, 2), (2, 0), (3, 1), (1, 0)]
    X = normalize(np.array([E[k] + 1e-5 * E[j] for k, j in pairs]) * rng.choice([-1.0, 1.0], (len(pairs), 1)))
    near_min = np.array([k == 3 for k, _ in pairs])
    B = tangent_frame(X)
    K = B @ model.hessian(X) @ B.transpose(0, 2, 1)
    assert np.array_equal(np.linalg.eigvalsh(K).min(axis=1) > 0.0, near_min)
    D, cost = model._trial(X)
    V, wd = model._field(X, D)
    X0, cost0 = X.copy(), cost.copy()
    nv, noise = np.sqrt(np.vecdot(V, V)), 1e-13 * (1.0 + np.abs(cost))
    took = solvers._newton_trial(model, X, D, V, wd, nv, cost)
    assert np.array_equal(took, near_min)
    assert np.all(cost[took] < cost0[took])
    assert np.all(1.0 - np.abs(X[took] @ E[3]) < 1e-15)
    # the rows that stay keep their state; the moved ones carry the dots
    # (none: l2 steps its cost by the exact change) and cost of their trial
    assert np.array_equal(X[~took], X0[~took]) and np.array_equal(cost[~took], cost0[~took])
    DT, cT = model._trial(X[took], X0[took], cost0[took])
    assert D.shape == (len(X), 0) and DT.shape == (took.sum(), 0) and np.array_equal(cost[took], cT)
    assert np.all(np.abs(cost - model.value(X)) <= noise)


def unscreened_newton_trial(model, X, D, V, wd, nv, cost):
    # the Newton trial on every row, with no screen: the Hessian, then the
    # exact gate ||v / 4|| <= NEWTON_RADIUS ||K||_F, eigh, the step and the
    # flow's acceptance rule
    took = np.zeros(len(X), dtype=bool)
    B, K = model._frame_hessian(X, D, wd)
    rows = np.flatnonzero(0.25 * nv <= solvers.NEWTON_RADIUS * np.sqrt((K * K).sum(axis=(1, 2))))
    lam, E = np.linalg.eigh(K[rows])
    pd = lam[:, 0] > 0.0
    rows, lam = rows[pd], lam[pd]
    EB = E[pd].transpose(0, 2, 1) @ B[rows]
    eta = np.vecmat(np.matvec(EB, -0.25 * V[rows]) / lam, EB)
    short = np.all(np.isfinite(eta), axis=1) & (np.sqrt(np.vecdot(eta, eta)) <= solvers.NEWTON_RADIUS)
    rows = rows[short]
    ok = solvers._try(model, X, D, cost, rows, normalize(X[rows] + eta[short]), 0.0, 0.5 * nv[rows])
    took[rows[ok]] = True
    return took


def newton_trials(model, X, monkeypatch):
    # the screened and the unscreened trial from the flow's state at the unit
    # rows X, each on its own copy: (took, X, D, cost) of each, and the rows
    # the screened one formed a Hessian for. The screened one runs as the
    # flow does: the trial receives only the rows that pass the screen, and
    # runs only where some row does
    D, cost = model._trial(X)
    V, wd = model._field(X, D)
    nv = np.sqrt(np.vecdot(V, V))
    hessian_rows = []
    frame_hessian = CostModel._frame_hessian
    screened = [np.zeros(len(X), dtype=bool), X.copy(), D.copy(), cost.copy()]
    rows = np.flatnonzero(solvers._newton_screen(model, X, D, wd, nv))
    if rows.size:
        Xs, Ds, cs = (a[rows] for a in screened[1:])
        with monkeypatch.context() as m:
            m.setattr(CostModel, "_frame_hessian", lambda self, X, *a: hessian_rows.append(len(X)) or frame_hessian(self, X, *a))
            took = solvers._newton_trial(model, Xs, Ds, V[rows], wd[rows], nv[rows], cs)
        for a, b in zip(screened, (took, Xs, Ds, cs)):
            a[rows] = b
    unscreened = [X.copy(), D.copy(), cost.copy()]
    took = unscreened_newton_trial(model, unscreened[0], unscreened[1], V, wd, nv, unscreened[2])
    return [screened, [took, *unscreened]], hessian_rows


@pytest.mark.parametrize("r", [5, 1000])
@pytest.mark.parametrize("kind", ["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_newton_screen_skips_no_step(kind, r, monkeypatch):
    # screening rows out by the bound on ||K||_F changes no bit of the trial:
    # rows from 1e-6 to 1e-1 rad off the minimum, where some pass the exact
    # gate and step and some do not, and far rows that the screen rules out
    rng = np.random.default_rng([44, r])
    base = random_unit_quaternion(rng)
    model = kind_model(kind, SampleSet.from_quaternions(base + 0.2 * rng.standard_normal((r, 4))))
    q = flow_descend(model, base).q
    T = normalize(rng.standard_normal((24, 4)) - np.outer(rng.standard_normal(24), q))
    T = normalize(T - np.outer(T @ q, q))
    near = normalize(q + 10.0 ** rng.uniform(-6.0, -1.0, (24, 1)) * T)
    far = normalize(base + rng.standard_normal((8, 4)))
    X = np.concatenate([near, far])[rng.permutation(32)]
    (screened, unscreened), hessian_rows = newton_trials(model, X, monkeypatch)
    for a, b in zip(screened, unscreened):
        assert np.array_equal(a, b)
    assert 0 < screened[0].sum() and sum(hessian_rows) < len(X)
    # every row ruled out: no Hessian, no step
    (screened, unscreened), hessian_rows = newton_trials(model, far, monkeypatch)
    for a, b in zip(screened, unscreened):
        assert np.array_equal(a, b)
    assert not screened[0].any() and hessian_rows == []


@pytest.mark.parametrize("kind", ["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_newton_trial_receives_screened_rows_alone(kind, monkeypatch):
    # a start whose field passes the Newton screen waits for the others, and
    # a start that fails it takes its line search at once: every Newton
    # trial of the flow receives only rows that pass the screen
    # ||v / 4|| <= NEWTON_RADIUS CostModel._hessian_bound, and some trial
    # serves several rows
    model = kind_model(kind, SampleSet.from_quaternions(np.random.default_rng(41).standard_normal((5, 4))))
    newton_trial = solvers._newton_trial
    rows = []

    def screened_newton_trial(model, X, D, V, wd, nv, cost):
        assert np.all(0.25 * nv <= solvers.NEWTON_RADIUS * model._hessian_bound(X, D, wd))
        rows.append(len(X))
        return newton_trial(model, X, D, V, wd, nv, cost)

    monkeypatch.setattr(solvers, "_newton_trial", screened_newton_trial)
    assert multistart(model, 64, seed=0)
    assert rows and max(rows) > 1


def test_try_judges_each_trial_against_its_rows_noise_floor():
    # _try forms the floor noise = 1e-13 (1 + |c|) from each row's cost c: a
    # change 0.9 noise above c is taken where the field at the trial meets
    # its bound, and one 1.1 noise above is refused without a field; a fall
    # of 0.9 noise needs the field too, and one of 1.1 noise is taken
    # unseen where it passes max(fall, noise), refused where it does not.
    # Rows 4 and 5 sit at cost 0, whose floor of 1e-13 their change of
    # 2e-13 leaves, though it is within the floor of a cost of 3
    cost = np.array([3.0, 3.0, 3.0, 3.0, 0.0, 0.0])
    noise = 1e-13 * (1.0 + cost)
    rise = np.array([0.9, 1.1, -0.9, -1.1, 2.0, -2.0]) * noise
    F = np.array([0.5, 0.5, 2.0, 2.0, 0.5, 0.5])  # the field norm at each trial
    fields = []

    def field(T, D):
        fields.extend(T[:, 0].astype(int))
        return F[T[:, 0].astype(int), None] * np.eye(4)[:1], None

    model = SimpleNamespace(_trial=lambda T, X, c: (np.zeros((len(T), 0)), c + rise[T[:, 0].astype(int)]), _field=field)
    rows = np.arange(6)
    T = np.zeros((6, 4))
    T[:, 0] = rows
    for fall, want in [(0.0, [1, 0, 0, 1, 0, 1]), (1.5 * noise, [1, 0, 0, 0, 0, 1])]:
        X, D, c = np.ones((6, 4)), np.zeros((6, 0)), cost.copy()
        fields.clear()
        ok = solvers._try(model, X, D, c, rows, T.copy(), fall, np.ones(6))
        assert ok.tolist() == [bool(w) for w in want] and sorted(fields) == [0, 2]
        assert np.array_equal(X[ok], T[ok]) and np.all(X[~ok] == 1.0)
        assert np.array_equal(c, np.where(ok, cost + rise, cost))


def test_first_step_halves_to_the_cost():
    # a first search starts at the longest of 2 INITIAL_STEP, INITIAL_STEP,
    # ... whose required decrease 0.025 h |v|^2 does not exceed the cost, by
    # exact halvings: h takes the value the search would have reached by
    # refusing every longer step
    rng = np.random.default_rng(5)
    nv, cost = 10.0 ** rng.uniform(-8.0, 100.0, 300), 10.0 ** rng.uniform(-20.0, 100.0, 300)
    h0 = 2.0 * solvers.INITIAL_STEP
    h = solvers._first_step(np.full(300, h0), nv, cost)
    for hk, n, c in zip(h, nv, cost):
        want = h0
        while 0.025 * want * n * n > c:
            want *= solvers.STEP_SHRINK
        assert hk == want
    assert np.any(h == h0) and np.any(h < 1e-100)
    # a cost or a decrease that is not positive and finite keeps h
    kept = solvers._first_step(np.full(4, h0), np.array([1.0, 1.0, 1.0, np.nan]), np.array([0.0, np.inf, np.nan, 1.0]))
    assert np.array_equal(kept, np.full(4, h0))


def test_newton_finish_keeps_basins():
    # the trust radius is small enough that Newton steps never leave the
    # basin the line search was in: the same single minimum as the flow
    # without them
    model = CostModel.trace_sqrt(SampleSet.from_quaternions(D3_TWO_BASINS))
    pts = multistart(model, 64, seed=0)
    assert [(p.classification, p.degenerate) for p in pts] == [("Min", False)]
    assert abs(pts[0].cost - 0.01175890893633478) < 1e-12
    q = np.array([0.35798065061821527, 0.255901928882793, 0.6647480705665768, 0.6037168701096888])
    assert np.abs(pts[0].R - covering_map(q)).max() < 1e-10


def kind_model(kind, samples):
    if kind.startswith("lp"):
        return CostModel.lp_chordal(samples, float(kind[2:]))
    return {"l2": CostModel.l2_chordal, "geodesic": CostModel.geodesic, "d3": CostModel.trace_sqrt}[kind](samples)


class StartsDrawn(Exception):
    pass


@pytest.mark.parametrize(
    "kind, guard, n",
    [("l2", costs.EPS_DOM, 64), ("geodesic", costs.EPS_DOM, 64), ("geodesic", 0.3, 64), ("lp1.5", 0.5, 64)]
    + [("geodesic", 0.99, 3)],
)
def test_multistart_draws_reference_starts(kind, guard, n, monkeypatch):
    # the reference is one Gaussian batch of the seed's stream: an admissible
    # batch comes back bit for bit. A wide guard buffer makes many rows of
    # the batch inadmissible; the admissible ones keep their bits and the
    # rest are redrawn until admissible, one draw per pass, for at most 1000
    # passes. The last case runs out of them, and the flow ends its starts
    # in DomainBreach
    monkeypatch.setattr(costs, "EPS_DOM", guard)
    model = kind_model(kind, SampleSet.from_quaternions(np.random.default_rng(45).standard_normal((3, 4))))
    drawn, passes = [], []

    def recording_flow(model, Q0, tol):
        drawn.append(Q0)
        raise StartsDrawn

    flow, admissible = solvers._flow, CostModel.admissible
    monkeypatch.setattr(solvers, "_flow", recording_flow)
    monkeypatch.setattr(CostModel, "admissible", lambda self, X: passes.append(len(X)) or admissible(self, X))
    redrawn = False
    for seed in range(3):
        passes.clear()
        with pytest.raises(StartsDrawn):
            multistart(model, n, seed=seed)
        starts = drawn[-1]
        batch = normalize(np.random.default_rng(seed).standard_normal((n, 4)))
        first = admissible(model, batch)
        assert np.array_equal(starts[first], batch[first])
        redrawn |= not first.all()
        if guard < 0.99:
            assert admissible(model, starts).all()
            continue
        assert passes == [n] * 1000 and not admissible(model, starts).any()
        _, _, ends = flow(model, starts, 1e-12)
        assert all(isinstance(end, DomainBreach) and str(end).startswith("start point") for end in ends)
    assert redrawn == (guard > 1e-6)


def classes_one_by_one(model, starts):
    # flow_descend from each start alone, then multistart's dedup: a point
    # within 1e-8 of a kept class in R joins it, and the better converged
    # of the two represents it
    classes = []
    for q0 in starts:
        try:
            pt = flow_descend(model, q0)
        except (MaxIters, DomainBreach):
            continue
        for i, kept in enumerate(classes):
            if np.linalg.norm(pt.R - kept.R) < 1e-8:
                if pt.control_norm < kept.control_norm:
                    classes[i] = pt
                break
        else:
            classes.append(pt)
    return sorted(classes, key=lambda pt: pt.cost)


def assert_same_classes(model, got, want):
    assert [(pt.classification, pt.degenerate) for pt in got] == [classify(model, pt) for pt in want]
    for a, b in zip(got, want):
        assert abs(a.cost - b.cost) <= 1e-12 * (1.0 + abs(b.cost))
        assert np.abs(a.R - b.R).max() <= 1e-10
        # the final field norm sits at the rounding floor and differs from
        # path to path: equal norms mean each start took its lone path
        assert a.control_norm == b.control_norm


@pytest.mark.parametrize(
    "kind, r, n",
    [pytest.param(kind, 5, 16, id=kind) for kind in ("l2", "geodesic", "d3", "lp1.5", "lp4")]
    + [pytest.param(kind, 200, 8, id=f"{kind}-r200") for kind in ("geodesic", "lp1.5")]
    # 64 starts on uniform samples, run one by one, first pass the Newton
    # screen at iterations 4 to 12, so the lockstep Newton trials batch rows
    # that waited for different numbers of passes
    + [pytest.param("d3", 5, 64, id="d3-64")],
)
def test_multistart_rows_independent(kind, r, n):
    # the lockstep starts give the classes of the same starts run one by one,
    # bit for bit, however the running rows are compacted as starts leave
    rng = np.random.default_rng(41)
    model = kind_model(kind, SampleSet.from_quaternions(rng.standard_normal((r, 4))))
    got = multistart(model, n, seed=3)
    assert got
    assert_same_classes(model, got, classes_one_by_one(model, solvers._draw_starts(model, n, np.random.default_rng(3))))


@pytest.mark.parametrize("kind", ["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_flow_descend_classifies_its_limit(kind):
    # the one-start flow's point carries the tangent-Hessian class that
    # classify gives it, as multistart's classes do
    rng = np.random.default_rng(47)
    model = kind_model(kind, SampleSet.from_quaternions(rng.standard_normal((5, 4))))
    for _ in range(3):
        pt = flow_descend(model, random_unit_quaternion(rng))
        assert pt.classification is not None
        assert (pt.classification, pt.degenerate) == classify(model, pt)


def _left(g):
    """The matrix of left multiplication by the quaternion g, scalar first:
    _left(g) @ q is the product g q. It is orthogonal for a unit g."""
    w, x, y, z = g
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def _right(h):
    """The matrix of right multiplication by the quaternion h, scalar first:
    _right(h) @ q is the product q h. It is orthogonal for a unit h."""
    w, x, y, z = h
    return np.array([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


def assert_moved_classes(got, want, G=np.eye(3), H=np.eye(3), scale=1.0):
    # the same classes and labels, the costs times scale, each point R moved
    # to G R H to within the dedup radius of its class
    assert [(pt.classification, pt.degenerate) for pt in got] == [(pt.classification, pt.degenerate) for pt in want]
    for a, b in zip(got, want, strict=True):
        assert abs(a.cost - scale * b.cost) <= 1e-9 * abs(scale * b.cost)
        assert np.linalg.norm(a.R - G @ b.R @ H) < 1e-8


@pytest.mark.parametrize("tight", [True, False], ids=["tight", "uniform"])
@pytest.mark.parametrize("r", [3, 5, 20])
@pytest.mark.parametrize("kind", ["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_multistart_moves_with_the_problem(kind, r, tight, monkeypatch):
    # left multiplication by a unit quaternion g is orthogonal on R^4, so
    # moving the samples and the starts by g leaves every dot <q, q_i>, and
    # with them every cost, weight, guard and stopping scale, unchanged:
    # multistart must find the same classes, moved by g. Right
    # multiplication by a unit h is orthogonal too, and moves each rotation
    # R to R H. So must it find the same classes after a flip of some
    # samples' lifts (every cost is even in each dot) and a permutation of
    # the samples, from the same starts; and after every sample is taken
    # three times, where each cost is a sum over the samples and so
    # triples, as does the field. The flow's first step INITIAL_STEP is
    # absolute, a length per unit of field, so it is scaled by 1/3 with the
    # field there: from the default step, 3 of these 30 problems reach other
    # minima. A step or a rule that reads coordinates, such as a line
    # search bounded in the max norm, breaks this
    rng = np.random.default_rng([r, tight])
    Q = normalize(rng.standard_normal(4) + 0.2 * rng.standard_normal((r, 4)) if tight else rng.standard_normal((r, 4)))
    model = kind_model(kind, SampleSet.from_quaternions(Q))
    want = multistart(model, 16, seed=7)
    g = normalize(np.array([0.3, -0.5, 0.7, 0.4]))
    L, G = _left(g), covering_map(g)
    assert np.abs(covering_map(Q @ L.T) - G @ covering_map(Q)).max() <= 1e-14
    draw = solvers._draw_starts
    with monkeypatch.context() as m:
        # the starts the unmoved problem draws, moved by g
        m.setattr(solvers, "_draw_starts", lambda _, n, rng: draw(model, n, rng) @ L.T)
        assert_moved_classes(multistart(kind_model(kind, SampleSet.from_quaternions(Q @ L.T)), 16, seed=7), want, G)
    h = normalize(np.array([-0.6, 0.2, 0.5, -0.3]))
    Rh, H = _right(h), covering_map(h)
    assert np.abs(covering_map(Q @ Rh.T) - covering_map(Q) @ H).max() <= 1e-14
    with monkeypatch.context() as m:
        m.setattr(solvers, "_draw_starts", lambda _, n, rng: draw(model, n, rng) @ Rh.T)
        assert_moved_classes(multistart(kind_model(kind, SampleSet.from_quaternions(Q @ Rh.T)), 16, seed=7), want, H=H)
    with monkeypatch.context() as m:
        m.setattr(solvers, "_draw_starts", lambda _, n, rng: draw(model, n, rng))
        m.setattr(solvers, "INITIAL_STEP", solvers.INITIAL_STEP / 3.0)
        got = multistart(kind_model(kind, SampleSet.from_quaternions(np.repeat(Q, 3, axis=0))), 16, seed=7)
        assert_moved_classes(got, want, scale=3.0)
    flip = np.where(np.arange(r) % 2, -1.0, 1.0)[:, None]
    perm = np.random.default_rng(r).permutation(r)
    assert_moved_classes(multistart(kind_model(kind, SampleSet.from_quaternions((flip * Q)[perm])), 16, seed=7), want)


@pytest.mark.parametrize("kind", ["l2", "geodesic", "d3", "lp1.5", "lp4"])
def test_flow_forms_each_points_dots_once(kind, monkeypatch):
    # the flow forms a point's sample dots once, with its cost, and every
    # later evaluation there (field, Hessian, guard) reads them: the rows it
    # passes to the dots function are, call for call, the rows whose cost it
    # takes. (Two starts may still reach a minimum with the same bits, so
    # the rows need not be distinct across starts.) l2 and Lp 4 step their
    # costs by exact changes from their moments, so they form dots and
    # per-sample costs at the starts alone
    rng = np.random.default_rng(43)
    model = kind_model(kind, SampleSet.from_quaternions(rng.standard_normal((5, 4))))
    calls = {"_dots": [], "_value": []}
    starts = []
    flow = solvers._flow

    def recording_flow(*args):
        starts.append(normalize(args[1]).tobytes())
        with monkeypatch.context() as m:
            for name, log in calls.items():
                method = getattr(CostModel, name)
                m.setattr(CostModel, name, lambda self, X, *a, f=method, log=log: log.append(X.tobytes()) or f(self, X, *a))
            return flow(*args)

    monkeypatch.setattr(solvers, "_flow", recording_flow)
    assert multistart(model, 16, seed=5)
    if kind in ("l2", "lp4"):
        assert calls["_dots"] == starts
    else:
        assert len(calls["_dots"]) > 16
    assert calls["_dots"] == calls["_value"]


@pytest.mark.parametrize("kind, cost, n_classes", [("l2", "0x1.98154e0000000p-26", 1), ("lp4", "0x1.0b021f9bf89ddp-42", 64)])
def test_multistart_on_tight_samples(kind, cost, n_classes):
    # 1000 samples within about 1e-6 of each other, where the per-sample cost
    # changes of a trial step cancel: the best cost and the class count that
    # the flow on per-sample trial costs returned (all classes Min; the flat
    # Lp 4 minimum splits into one class per start)
    rng = np.random.default_rng(47)
    base = normalize(rng.standard_normal(4))
    model = kind_model(kind, SampleSet.from_quaternions(base + 1e-6 * rng.standard_normal((1000, 4))))
    pts = multistart(model, 64, seed=0)
    assert pts[0].cost.hex() == cost and len(pts) == n_classes
    assert all(pt.classification == "Min" for pt in pts)


def test_multistart_drops_slow_starts(monkeypatch):
    # with an iteration budget that only some starts meet, multistart keeps
    # the classes of those and drops the rest
    model = CostModel.geodesic(SampleSet.from_quaternions(np.random.default_rng(42).standard_normal((5, 4))))
    starts = solvers._draw_starts(model, 16, np.random.default_rng(0))
    for budget in range(1, 65):
        monkeypatch.setattr(solvers, "MAX_ITERS", budget)
        converged = sum(len(classes_one_by_one(model, [q0])) for q0 in starts)
        if len(starts) // 2 <= converged < len(starts):
            break
    else:
        pytest.fail("no budget lets only some starts converge")
    want = classes_one_by_one(model, starts)
    assert_same_classes(model, multistart(model, 16, seed=0), want)


def test_multistart_drops_class_without_certificate(monkeypatch):
    # a class whose certificate, the rotation residual, is NaN (its row of
    # the stacked call lies inside a guard buffer) is dropped like a
    # DomainBreach start. The flow's guard and the residual's read the same
    # clearance, so they part only at rounding level next to a guard
    # buffer; here the first class's row reads NaN
    model = CostModel.trace_sqrt(SampleSet.from_quaternions(D3_CREEP))
    want = multistart(model, 16, seed=0)
    residual = CostModel.rotation_residual
    calls = []

    def first_row_nan(self, R):
        calls.append(R)
        S = residual(self, R)
        S[0] = np.nan
        return S

    monkeypatch.setattr(CostModel, "rotation_residual", first_row_nan)
    got = multistart(model, 16, seed=0)
    assert len(calls) == 1 and calls[0].shape == (len(want), 3, 3)
    assert len(want) >= 2 and len(got) == len(want) - 1
    assert all(math.isfinite(pt.rotation_residual_norm) for pt in got)
    assert {pt.cost for pt in got} < {pt.cost for pt in want}


def test_multistart_classes_by_head_and_keeps_the_best_converged_start(monkeypatch):
    # three limits in a chain: the identity and rotations about x whose
    # matrices lie 0.9e-8 and 1.1e-8 from it, so row 1 lies within 1e-8 of
    # rows 0 and 2, but row 2 not of row 0. Row 2 is judged against the head
    # of row 1's class, row 0, not against row 1, its best start so far, so
    # it heads a class of its own; the first class keeps row 1, the start
    # with the smaller ||v0||
    t = np.array([0.0, 0.9e-8, 1.1e-8]) / (2.0 * math.sqrt(2.0))
    Q = normalize(np.stack([np.ones(3), t, np.zeros(3), np.zeros(3)], axis=1))
    nv = np.array([3e-13, 1e-13, 2e-13])
    monkeypatch.setattr(solvers, "_flow", lambda model, Q0, tol: (Q.copy(), nv.copy(), [None] * 3))
    model = CostModel.l2_chordal(SampleSet.from_quaternions([[0.6, 0.8, 0.0, 0.0]]))
    got = {pt.control_norm: pt.q for pt in multistart(model, 3, seed=0)}
    assert sorted(got) == [1e-13, 2e-13]
    assert abs(got[1e-13][1] - Q[1, 1]) < 1e-16 and abs(got[2e-13][1] - Q[2, 1]) < 1e-16


def test_flow_breaches_next_to_a_sample_line():
    # one Lp p = 1.5 sample: the minimum sits on the sample's own line,
    # which the guard excludes. Its clearance resolves the 1e-9 buffer, so
    # every start ends in DomainBreach there; none converges inside it
    S = SampleSet.from_quaternions(np.random.default_rng(1).standard_normal((1, 4)))
    model = CostModel.lp_chordal(S, 1.5)
    _, _, ends = solvers._flow(model, solvers._draw_starts(model, 4, np.random.default_rng(1)), 1e-12)
    assert all(isinstance(end, DomainBreach) and str(end).startswith("iterate") for end in ends)
    assert multistart(model, 4, seed=1) == []


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_flow_breaches_next_to_near_duplicate_samples(p):
    # two Lp samples 1e-9 apart and a start 5e-10 from the first one's
    # line: the start lies inside the guard buffer, and the flow ends it in
    # DomainBreach rather than stalling on the NaN field there; in a batch
    # the other rows run on (and at p = 1 end on a sample line themselves)
    rng = np.random.default_rng(0)
    q1 = normalize(rng.standard_normal(4))
    B = tangent_frame(q1)
    Q = np.concatenate([[q1, normalize(q1 + 1e-9 * B[0])], normalize(rng.standard_normal((3, 4)))])
    model = CostModel.lp_chordal(SampleSet.from_quaternions(Q), p)
    q0 = normalize(q1 + 5e-10 * B[1])
    assert not model.admissible(q0)
    with pytest.raises(DomainBreach, match="start point"):
        flow_descend(model, q0)
    _, _, ends = solvers._flow(model, np.stack([q0, normalize(rng.standard_normal(4))]), 1e-12)
    assert isinstance(ends[0], DomainBreach) and str(ends[0]).startswith("start point")
    assert ends[1] is None or str(ends[1]).startswith("iterate")


def test_multistart_validation():
    samples = build_samples(0.3)
    with pytest.raises(ValueError):
        multistart(CostModel.l2_chordal(samples), 0, seed=0)


def test_classify_labels():
    # at alpha=-pi, p=2 the three emitted classes have known characters:
    # the out-of-pencil circle is a degenerate max, and the two on-axis
    # classes split into the global min and a saddle
    samples = build_samples(-math.pi)
    model = CostModel.l2_chordal(samples)
    got = {}
    for rep in critical_sets(-math.pi, 2.0):
        q = np.asarray(rep.q)
        pt = CriticalPoint(
            q=q, R=covering_map(q), cost=rep.cost, control_norm=0.0, rotation_residual_norm=0.0
        )
        got[rep.label] = classify(model, pt)
    assert got["black"] == ("Max", True)
    assert got["red"] == ("Min", False)
    assert got["pink"] == ("Saddle", False)


def test_classify_flat_hessian_is_degenerate():
    # l2 over the four basis quaternions: M = I, so every rotation is
    # critical at cost 24 and the Hessian is zero up to rounding (~1e-15);
    # no eigenvalue clears the flow's stopping scale, so every class is
    # Degenerate rather than a Min or Saddle read from rounding
    model = CostModel.l2_chordal(SampleSet.from_quaternions(np.eye(4)))
    classes = multistart(model, 8, 0)
    assert classes and all(abs(pt.cost - 24.0) < 1e-12 for pt in classes)
    assert {(pt.classification, pt.degenerate) for pt in classes} == {("Degenerate", True)}
    assert classify(model, classes[0]) == ("Degenerate", True)


def test_classify_boundary():
    geo = CostModel.geodesic(build_samples(0.5))
    q = normalize([1e-6, 0.0, 1.0, 0.0])
    pt = CriticalPoint(q=q, R=covering_map(q), cost=0.0, control_norm=0.0, rotation_residual_norm=0.0)
    assert classify(geo, pt) == ("Boundary", False)


def test_eigen_oracle_single_sample():
    rng = np.random.default_rng(3)
    q = random_unit_quaternion(rng)
    samples = SampleSet.from_quaternions(q[None])
    assert np.abs(eigen_oracle_l2(samples) - canonicalize_sign(q)).max() < 1e-14


def test_eigen_oracle_reads_only_the_lifts():
    # the bench's l2 certificate calls the oracle on a bare namespace of the
    # input's unit lifts: any object with a quaternions attribute will do,
    # and it gives the answer of the SampleSet that holds the same lifts
    Q = normalize(np.random.default_rng(5).standard_normal((7, 4)))
    samples = SampleSet.from_quaternions(Q)
    assert np.array_equal(eigen_oracle_l2(SimpleNamespace(quaternions=samples.quaternions)), eigen_oracle_l2(samples))
    assert np.abs(eigen_oracle_l2(SimpleNamespace(quaternions=Q)) - eigen_oracle_l2(samples)).max() < 1e-14


def test_eigen_oracle_ambiguous():
    samples = SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(AmbiguousMean):
        eigen_oracle_l2(samples)


@pytest.mark.parametrize("shape", [(2, 3, 4), (4, 4, 4)])
def test_eigen_oracle_refuses_a_stack(shape):
    # the oracle averages one sample set; a stack had failed inside numpy
    # (a matmul core-dimension error, or an ambiguous truth value at m = r)
    samples = SampleSet(np.random.default_rng(0).standard_normal(shape))
    with pytest.raises(ValueError, match="stack"):
        eigen_oracle_l2(samples)
