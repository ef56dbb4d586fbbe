import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotavg.control import fd_gradient
from rotavg.costs import EPS_DOM, CostModel, DomainError, NonDifferentiable
from rotavg.geometry import SampleSet, covering_map, delta_skew, normalize
from rotavg.solvers import HESSIAN_BOUND_SLACK

IDENTITY = SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0]])


def on_axis(t):
    return np.array([math.cos(t), math.sin(t), 0.0, 0.0])


def make(kind, samples, p=None):
    if kind == "l2":
        return CostModel.l2_chordal(samples)
    if kind == "geodesic":
        return CostModel.geodesic(samples)
    if kind == "d3":
        return CostModel.trace_sqrt(samples)
    return CostModel.lp_chordal(samples, p)


def probe(rng, model, margin=0.05):
    # a unit point clear of the excluded sets, so every evaluator is smooth
    while True:
        q = normalize(rng.standard_normal(4))
        d = np.abs(model.samples.quaternions @ q)
        if d.min() > margin and d.max() < 1.0 - margin:
            return q


def test_single_sample_values():
    # one sample at the identity: every cost is an explicit function of the
    # rotation half-angle t
    for t in (0.1, 0.4, 1.0, 1.5):
        q = on_axis(t)
        st = math.sin(t)
        assert abs(make("l2", IDENTITY).value(q) - 8.0 * st * st) < 1e-12
        assert abs(make("geodesic", IDENTITY).value(q) - 2.0 * t * t) < 1e-12
        assert abs(make("d3", IDENTITY).value(q) - (1.0 - math.cos(t)) ** 2) < 1e-12
        assert abs(make("lp", IDENTITY, 3.0).value(q) - 8.0**1.5 * st**3) < 1e-11


def test_lp2_reduces_to_l2():
    rng = np.random.default_rng(20)
    Q = np.array([normalize(rng.standard_normal(4)) for _ in range(4)])
    samples = SampleSet.from_quaternions(Q)
    a = make("l2", samples)
    b = make("lp", samples, 2.0)
    for _ in range(100):
        q = normalize(rng.standard_normal(4))
        assert abs(a.value(q) - b.value(q)) < 1e-12
        assert np.abs(a.gradient(q) - b.gradient(q)).max() < 1e-12


def test_values_even():
    rng = np.random.default_rng(21)
    Q = np.array([normalize(rng.standard_normal(4)) for _ in range(3)])
    samples = SampleSet.from_quaternions(Q)
    for kind, p in [("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 4.0)]:
        model = make(kind, samples, p)
        for _ in range(50):
            q = probe(rng, model)
            assert model.value(-q) == model.value(q)
            assert np.abs(model.gradient(-q) + model.gradient(q)).max() == 0.0


def test_geodesic_prolongation_scale_invariant():
    rng = np.random.default_rng(22)
    samples = SampleSet.from_quaternions([normalize(rng.standard_normal(4))])
    model = make("geodesic", samples)
    for _ in range(50):
        q = probe(rng, model)
        for s in (0.5, 2.0, 7.3):
            assert abs(model.value(s * q) - model.value(q)) < 1e-10


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    Q = np.array([normalize(rng.standard_normal(4)) for _ in range(4)])
    samples = SampleSet.from_quaternions(Q)
    for kind, p in [("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 3.0), ("lp", 4.0)]:
        model = make(kind, samples, p)
        for _ in range(30):
            q = probe(rng, model)
            g = model.gradient(q)
            fd = fd_gradient(model.value, q)
            assert np.abs(g - fd).max() < 1e-5 * max(1.0, np.abs(g).max())


def test_domain_errors():
    orth = np.array([0.0, 1.0, 0.0, 0.0])  # <q, sample> = 0
    geo = make("geodesic", IDENTITY)
    with pytest.raises(DomainError):
        geo.value(orth)
    with pytest.raises(DomainError):
        geo.gradient(orth)
    with pytest.raises(NonDifferentiable):
        make("d3", IDENTITY).gradient(orth)
    # p < 2 breaks down on the sample line itself
    with pytest.raises(DomainError):
        make("lp", IDENTITY, 1.5).gradient(np.array([1.0, 0.0, 0.0, 0.0]))
    # but the quadratic and quartic costs are fine everywhere
    make("l2", IDENTITY).gradient(orth)
    make("lp", IDENTITY, 4.0).gradient(np.array([1.0, 0.0, 0.0, 0.0]))


def test_admissibility_guard():
    geo = make("geodesic", IDENTITY)
    assert geo.admissible(on_axis(0.3))
    assert not geo.admissible(np.array([EPS_DOM / 2.0, 1.0, 0.0, 0.0]))
    assert make("l2", IDENTITY).admissible(np.array([0.0, 1.0, 0.0, 0.0]))
    # the geodesic model excludes the hyperplane, Lp with p < 2 the sample line
    assert abs(geo.clearance(on_axis(0.3)) - math.cos(0.3)) < 1e-12
    assert abs(make("lp", IDENTITY, 1.5).clearance(on_axis(0.3)) - math.sin(0.3)) < 1e-12


def test_line_clearance_resolves_the_guard_buffer():
    # 1 - d^2 from a rounded d resolves no clearance below ~1e-8; read from
    # the nearest sample it keeps full precision down to the 1e-9 buffer
    rng = np.random.default_rng(20)
    for _ in range(2000):
        qi = normalize(rng.standard_normal(4))
        with pytest.raises(DomainError):
            make("lp", SampleSet.from_quaternions(qi[None]), 1.5).gradient(qi)
    for sign in (1.0, -1.0):
        Q = normalize(rng.standard_normal((3, 4)))
        model = make("lp", SampleSet.from_quaternions(Q), 1.5)
        for t in (1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 1e-4):
            q = sign * near(Q[1], t, rng)
            assert abs(model.clearance(q) / math.sin(t) - 1.0) < 1e-5
            assert model.admissible(q) == (t > EPS_DOM)
        # the derivatives next to the line read the same 1 - d^2: finite,
        # and raising only inside the buffer
        q = sign * near(Q[1], 3e-9, rng)
        assert np.all(np.isfinite(model.gradient(q))) and np.all(np.isfinite(model.hessian(q)))
        with pytest.raises(DomainError):
            model.pushforward_residual(sign * near(Q[1], 3e-10, rng))


HESSIAN_CASES = [("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 3.0), ("lp", 4.0)]


def fd_hessian(model, q, h=1e-5):
    # central differences of the Riemannian gradient P grad along the
    # retraction normalize(q + t xi), projected back onto the tangent space
    P = np.eye(4) - np.outer(q, q)

    def rgrad(x):
        return (np.eye(4) - np.outer(x, x)) @ model.gradient(x)

    cols = [P @ (rgrad(normalize(q + h * xi)) - rgrad(normalize(q - h * xi))) / (2.0 * h) for xi in P.T]
    H = np.array(cols).T
    return 0.5 * (H + H.T)


def near(sample, phi, rng):
    # unit q at angle phi from a unit sample (so <q, sample> = cos phi)
    u = rng.standard_normal(4)
    u = normalize(u - np.dot(u, sample) * sample)
    return math.cos(phi) * sample + math.sin(phi) * u


def assert_hessian_matches(model, q):
    H = model.hessian(q)
    assert np.abs(H - fd_hessian(model, q)).max() < 1e-7 * max(1.0, np.abs(H).max())


@pytest.mark.parametrize("r", [1, 3, 5, 50])
@pytest.mark.parametrize("kind,p", HESSIAN_CASES)
def test_hessian_matches_finite_differences(kind, p, r):
    rng = np.random.default_rng([27, r])
    Q = normalize(rng.standard_normal(4)) + 0.5 * rng.standard_normal((r, 4))
    model = make(kind, SampleSet.from_quaternions(Q / np.linalg.norm(Q, axis=1, keepdims=True)), p)
    for _ in range(10):
        assert_hessian_matches(model, probe(rng, model, margin=0.02))
    if kind == "geodesic":
        # both sides of the small-angle switch of the weight slope (1e-2)
        for phi in (3e-3, 8e-3, 1.2e-2, 5e-2):
            assert_hessian_matches(model, near(model.samples.quaternions[0], phi, rng))


def test_geodesic_slope_continuous_at_taylor_switch():
    model = make("geodesic", IDENTITY)
    below, above = model._dweights(np.cos(np.array([1e-2 * (1.0 - 1e-9), 1e-2 * (1.0 + 1e-9)])))
    assert abs(below - above) < 1e-11


@settings(max_examples=60, deadline=None)
@given(
    kind_p=st.sampled_from(HESSIAN_CASES),
    Q=st.integers(1, 6).flatmap(lambda r: arrays(float, (r, 4), elements=st.floats(-1.0, 1.0))),
    x=arrays(float, 4, elements=st.floats(-1.0, 1.0)),
)
def test_hessian_properties(kind_p, Q, x):
    assume(np.linalg.norm(Q, axis=1).min() > 0.1 and np.linalg.norm(x) > 0.1)
    model = make(kind_p[0], SampleSet.from_quaternions(Q / np.linalg.norm(Q, axis=1, keepdims=True)), kind_p[1])
    q = normalize(x)
    d = np.abs(model.samples.quaternions @ q)
    assume(d.min() > 0.02 and d.max() < 0.98)
    H = model.hessian(q)
    scale = max(1.0, np.abs(H).max())
    assert np.abs(H - H.T).max() < 1e-12 * scale
    assert np.abs(H @ q).max() < 1e-12 * scale
    assert_hessian_matches(model, q)


def projector_hessian(model, q):
    # the Cartesian form c P(<w, d> I - U^T diag(w') U) P with P = I - q q^T
    # and U's rows the tangent parts q_i - x_i q: a reference for the frame
    # form that shares none of its steps
    Q = model.samples.quaternions
    d = Q @ q
    P = np.eye(4) - np.outer(q, q)
    U = Q - np.outer(d, q)
    inner = np.dot(model._weights(d), d) * np.eye(4) - U.T @ (model._dweights(d)[:, None] * U)
    return model.scale * P @ inner @ P


@pytest.mark.parametrize("r", [1, 5, 1000])
@pytest.mark.parametrize("kind,p", HESSIAN_CASES)
def test_hessian_matches_projector_form(kind, p, r):
    rng = np.random.default_rng([28, r])
    model = make(kind, SampleSet.from_quaternions(rng.standard_normal((r, 4))), p)
    X = np.array([probe(rng, model, margin=1e-3) for _ in range(8)])
    H = model.hessian(X)
    for q, h in zip(X, H):
        # relative to the terms the Hessian sums: at r = 1000 they cancel to
        # about 1 % of their size, which leaves rounding that is relative to
        # them, not to H
        d = model.samples.quaternions @ q
        terms = model.scale * (abs(np.dot(model._weights(d), d)) + np.abs(model._dweights(d)).sum())
        assert np.abs(h - projector_hessian(model, q)).max() <= 1e-13 * terms


def test_hessian_guard():
    # inside the guard buffer the Hessian raises like the gradient
    inside = np.array([EPS_DOM / 2.0, 1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        make("geodesic", IDENTITY).hessian(inside)
    with pytest.raises(NonDifferentiable):
        make("d3", IDENTITY).hessian(inside)
    with pytest.raises(DomainError):
        make("lp", IDENTITY, 1.5).hessian(normalize([1.0, EPS_DOM / 2.0, 0.0, 0.0]))
    make("l2", IDENTITY).hessian(inside)


def test_hessian_on_sample_line():
    # Lp with p >= 2 has no excluded set; for p < 4 its slope w' diverges on
    # a sample line, yet the tangent Hessian there is finite: 16 P for p = 2
    # (the l2 value), 0 for p > 2 where the cost is flat to second order
    q = np.array([1.0, 0.0, 0.0, 0.0])
    P = np.eye(4) - np.outer(q, q)
    assert np.abs(make("l2", IDENTITY).hessian(q) - 16.0 * P).max() < 1e-12
    for p in (2.0, 2.5, 3.0, 4.0, 5.0):
        expected = 16.0 * P if p == 2.0 else np.zeros((4, 4))
        assert np.abs(make("lp", IDENTITY, p).hessian(q) - expected).max() < 1e-12


BOUND_CASES = [("l2", None), ("geodesic", None), ("d3", None)] + [("lp", p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]


@settings(max_examples=150, deadline=None)
@given(
    kind_p=st.sampled_from(BOUND_CASES),
    r=st.integers(1, 50),
    near=st.sampled_from(["anywhere", "line", "plane"]),
    log_t=st.floats(-8.5, -6.0),
    clustered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_hessian_norm_bound(kind_p, r, near, log_t, clustered, seed):
    # ||K||_F <= c (sqrt(3) |<w, d>| + r s), the bound the Newton trial
    # screens its rows with, up to the screen's stated slack: on rows within
    # 1e-6 of the first sample's line or hyperplane, with the samples spread
    # or clustered, and with row norms 1 +- a few ulp
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((r, 4))
    if clustered:
        Q = Q[0] + 1e-3 * Q
    model = make(kind_p[0], SampleSet.from_quaternions(Q), kind_p[1])
    q0 = model.samples.quaternions[0]
    X = normalize(rng.standard_normal((16, 4)))
    U = normalize(X - np.outer(X @ q0, q0))
    t = 10.0**log_t
    if near == "line":
        X = normalize(q0 + t * U)
    elif near == "plane":
        X = normalize(U + t * q0)
    X = X * (1.0 + rng.integers(-4, 5, (len(X), 1)) * 2.0**-52)
    D = model._dots(X)
    keep = model._admissible(X, D)
    X, D = X[keep], D[keep]
    K = model._frame_hessian(X)[1]
    wd = np.vecdot(model._weights(D, model._bases(X, D)), D)
    bound = model.scale * (math.sqrt(3.0) * np.abs(wd) + r * model._slope_bound(X, D))
    assert np.all(np.sqrt((K * K).sum(axis=(1, 2))) <= HESSIAN_BOUND_SLACK * bound)


BATCH_CASES = [("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 3.0), ("lp", 4.0)]
EVALUATORS = ("value", "gradient", "control_field", "hessian", "pushforward_residual", "clearance", "admissible")


def one_point(model, name, q):
    """The one-point call, or the type of the error it raises."""
    try:
        return getattr(model, name)(q)
    except (DomainError, NonDifferentiable) as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(
    kind_p=st.sampled_from(BATCH_CASES),
    r=st.sampled_from([1, 5, 50]),
    n=st.integers(1, 8),
    guarded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evaluators_match_rows(kind_p, r, n, guarded, seed):
    # each row of a stacked call is the one-point call on that row; a row
    # where the one-point call raises is NaN and leaves the other rows alone
    rng = np.random.default_rng(seed)
    model = make(kind_p[0], SampleSet.from_quaternions(rng.standard_normal((r, 4))), kind_p[1])
    X = normalize(rng.standard_normal((n, 4)))
    if guarded:
        # on and just inside the guard buffer of the first sample's
        # hyperplane (geodesic, d3) and of its line (lp with p < 2)
        q0 = model.samples.quaternions[0]
        u = normalize(X[0] - np.dot(X[0], q0) * q0)
        rows = [u, normalize(u + 0.5 * EPS_DOM * q0), q0, normalize(q0 + 0.5 * EPS_DOM * u)]
        X = np.insert(X, rng.integers(0, n + 1, size=4), rows, axis=0)
    for name in EVALUATORS:
        batch = getattr(model, name)(X)
        assert len(batch) == len(X)
        for q, got in zip(X, batch):
            want = one_point(model, name, q)
            if isinstance(want, type):
                assert name in ("value", "gradient", "control_field", "hessian", "pushforward_residual")
                assert np.all(np.isnan(got))
            else:
                got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
                assert got.shape == want.shape
                assert np.array_equal(got, want) or np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_control_field_tangent():
    rng = np.random.default_rng(24)
    Q = np.array([normalize(rng.standard_normal(4)) for _ in range(5)])
    samples = SampleSet.from_quaternions(Q)
    for kind, p in [("l2", None), ("geodesic", None), ("d3", None), ("lp", 4.0)]:
        model = make(kind, samples, p)
        for _ in range(50):
            q = probe(rng, model)
            v = model.control_field(q)
            assert abs(np.dot(v, q)) < 1e-10 * max(1.0, np.linalg.norm(v))


def test_pushforward_zero_at_sample():
    # with one sample, the sample itself is critical for every cost
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for kind, p in [("l2", None), ("geodesic", None), ("d3", None), ("lp", 4.0)]:
        model = make(kind, IDENTITY, p)
        assert np.abs(model.pushforward_residual(q)).max() == 0.0


def test_pushforward_even_and_skew():
    rng = np.random.default_rng(25)
    Q = np.array([normalize(rng.standard_normal(4)) for _ in range(4)])
    samples = SampleSet.from_quaternions(Q)
    for kind, p in [("l2", None), ("geodesic", None), ("lp", 4.0)]:
        model = make(kind, samples, p)
        for _ in range(50):
            q = probe(rng, model)
            S = model.pushforward_residual(q)
            assert np.abs(S + S.T).max() == 0.0
            assert np.abs(model.pushforward_residual(-q) - S).max() == 0.0


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("kind,p", [("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 2.0), ("lp", 4.0)])
def test_pushforward_stack_rows_match_one_point(kind, p, r):
    # each row of a stacked call has the bits of the one-point call on it
    rng = np.random.default_rng([43, r])
    model = make(kind, SampleSet.from_quaternions(rng.standard_normal((r, 4))), p)
    X = np.array([probe(rng, model, margin=1e-3) for _ in range(12)])
    S = model.pushforward_residual(X)
    assert S.shape == (12, 3, 3)
    for q, row in zip(X, S):
        assert np.array_equal(row, model.pushforward_residual(q))
    assert model.pushforward_residual(X[0]).shape == (3, 3)


def test_pushforward_guard():
    # a point inside a guard buffer raises alone and is a NaN row in a stack
    ok = on_axis(0.3)
    for kind, p, bad, error in [
        ("geodesic", None, [EPS_DOM / 2.0, 1.0, 0.0, 0.0], DomainError),
        ("d3", None, [0.0, 1.0, 0.0, 0.0], NonDifferentiable),
        ("lp", 1.5, [1.0, EPS_DOM / 2.0, 0.0, 0.0], DomainError),
    ]:
        model = make(kind, IDENTITY, p)
        bad = normalize(np.array(bad))
        with pytest.raises(error):
            model.pushforward_residual(bad)
        S = model.pushforward_residual(np.array([ok, bad, ok]))
        assert np.all(np.isnan(S[1]))
        assert np.array_equal(S[0], model.pushforward_residual(ok))
        assert np.array_equal(S[2], S[0])


def test_pushforward_is_weighted_delta_sum():
    # sum_i w_i Delta_i(q), summed sample by sample
    rng = np.random.default_rng(29)
    for r in (1, 5, 50):
        samples = SampleSet.from_quaternions(rng.standard_normal((r, 4)))
        for kind, p in HESSIAN_CASES:
            model = make(kind, samples, p)
            for _ in range(10):
                q = probe(rng, model, margin=1e-3)
                w = model._weights(samples.quaternions @ q)
                want = sum(wi * delta_skew(q, qi) for wi, qi in zip(w, samples.quaternions))
                got = model.pushforward_residual(q)
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(w).sum())


def test_l2_pushforward_vs_rotation_residual():
    # sum_i w_i Delta_i = -k (M^T R - R^T M): same zero set, and a fixed ratio
    # k per cost that pins the normalization of each rotation-space weight
    rng = np.random.default_rng(26)
    for _ in range(50):
        r = int(rng.integers(1, 6))
        Q = np.array([normalize(rng.standard_normal(4)) for _ in range(r)])
        samples = SampleSet.from_quaternions(Q)
        cases = [("l2", None, r / 4.0), ("geodesic", None, 0.5), ("d3", None, 0.25)]
        cases += [("lp", p, 2.0**-p) for p in (1.5, 3.0, 4.0)]
        for kind, p, k in cases:
            model = make(kind, samples, p)
            q = probe(rng, model)
            lhs = model.pushforward_residual(q)
            rhs = -k * model.rotation_residual(covering_map(q))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_rotation_residual_zero_at_single_sample():
    R = covering_map(normalize([0.6, -0.3, 0.2, 0.7]))
    samples = SampleSet.from_rotations(R[None])
    for kind, p in [("l2", None), ("geodesic", None), ("d3", None), ("lp", 4.0)]:
        model = make(kind, samples, p)
        assert np.abs(model.rotation_residual(R)).max() < 1e-14


def near_plane(rng, q, x):
    # a unit lift at <q, q_i> = x: relative angle pi - 2 arcsin(x) to q
    v = rng.standard_normal(4)
    v -= (v @ q) * q
    return normalize(normalize(v) + x * q)


def assert_residuals_agree(model, q, k, rel):
    # the pushforward residual is -k times the rotation residual, k = kappa / 4
    pf = model.pushforward_residual(q)
    rr = model.rotation_residual(covering_map(q))
    assert np.all(np.isfinite(rr))
    assert np.abs(pf + k * rr).max() <= rel * np.abs(pf).max()


def test_rotation_residual_next_to_a_hyperplane():
    # a sample at x in [1e-5, 1e-3] from q, where |x| read off the trace
    # alone is good to only about 1e-17 / x, and at x = 1e-7, which still
    # clears EPS_DOM: the residual is finite there, as the gradient is
    rng = np.random.default_rng(31)
    for x in [*(10.0 ** rng.uniform(-5, -3, 40)), 1e-7]:
        q = normalize(rng.standard_normal(4))
        samples = SampleSet.from_quaternions(np.vstack([normalize(rng.standard_normal((4, 4))), near_plane(rng, q, x)]))
        for kind, k in (("geodesic", 0.5), ("d3", 0.25)):
            model = make(kind, samples)
            assert np.all(np.isfinite(model.gradient(q)))
            assert_residuals_agree(model, q, k, 1e-9)


def test_rotation_residual_on_a_hyperplane():
    # x_i = 0 exactly, where w(x)/x is 0/0 and u(0) = w'(0) stands in; l2 and Lp
    # with p >= 2 are smooth there
    rng = np.random.default_rng(33)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    Q = np.vstack([normalize(rng.standard_normal((3, 4))), [0.0, 0.0, 1.0, 0.0]])
    samples = SampleSet.from_quaternions(Q)
    cases = [("l2", None, len(Q) / 4.0)] + [("lp", p, 2.0**-p) for p in (2.0, 3.0, 4.0)]
    for kind, p, k in cases:
        assert_residuals_agree(make(kind, samples, p), q, k, 1e-13)


def test_rotation_residual_raises_like_the_gradient():
    # inside the guard buffer of an excluded set: next to a hyperplane, and
    # on a sample line (exact lifts there: 1 - x^2 read off a rounded x
    # resolves the line clearance only to about 1.5e-8 on either path)
    rng = np.random.default_rng(34)
    q = normalize(rng.standard_normal(4))
    on_plane = [near_plane(rng, q, 0.0), near_plane(rng, q, EPS_DOM / 2.0)]
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    for kind, p, at, lifts, error in [
        ("geodesic", None, q, on_plane, DomainError),
        ("d3", None, q, on_plane, NonDifferentiable),
        ("lp", 1.5, e0, [e0, -e0], DomainError),
    ]:
        for qi in lifts:
            model = make(kind, SampleSet.from_quaternions(np.vstack([normalize(rng.standard_normal((2, 4))), qi])), p)
            with pytest.raises(error):
                model.gradient(at)
            with pytest.raises(error):
                model.rotation_residual(covering_map(at))


def so3_log(R):
    """Principal matrix logarithm of a rotation off angle pi, the reference
    form: (theta / 2 sin theta)(R - R^T), with sinc keeping theta -> 0 exact."""
    theta = math.acos(min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0)))
    return (R - R.T) / (2.0 * np.sinc(theta / math.pi))


def test_so3_log():
    th = 0.7
    Rx = covering_map(on_axis(th / 2.0))
    L = so3_log(Rx)
    assert np.abs(L - np.array([[0, 0, 0], [0, 0, -th], [0, th, 0]])).max() < 1e-12
    assert np.abs(so3_log(np.eye(3))).max() == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        CostModel("Bogus", IDENTITY)
    with pytest.raises(ValueError):
        CostModel("LpChordal", IDENTITY)  # missing p
    with pytest.raises(ValueError):
        CostModel.lp_chordal(IDENTITY, 0.5)
    with pytest.raises(ValueError):
        CostModel("L2Chordal", IDENTITY, p=2.0)


def test_scalar_field_view():
    model = make("l2", IDENTITY)
    sf = model.scalar_field()
    q = on_axis(0.4)
    assert sf.value(q) == model.value(q)
    assert np.abs(sf.grad(q) - model.gradient(q)).max() == 0.0
