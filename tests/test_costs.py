import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotavg.control import apply_T_sphere, fd_gradient
from rotavg.costs import _KINDS, EPS_DOM, GEODESIC_SLOPE_SWITCH, CostModel, DomainError, NonDifferentiable
from rotavg.geometry import SampleSet, covering_map, delta_skew, normalize, quat_from_rotation, tangent_frame
from rotavg.solvers import DomainBreach, flow_descend, multistart

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
    # l2 is the Lp 2 record with kappa = r in place of 1, so the two kinds
    # run one path: every evaluator but the rotation residual keeps its bits,
    # that residual differs by the kappa ratio r, and multistart agrees
    l2, lp2, own = _KINDS["L2Chordal"], _KINDS["LpChordal"](2.0), ("term", "weight", "slope")
    assert l2.kappa is None and l2._replace(kappa=1.0, **{f: getattr(lp2, f) for f in own}) == lp2
    assert all(getattr(l2, f).__code__ is getattr(lp2, f).__code__ for f in own)
    rng = np.random.default_rng(20)
    for r in (5, 1000):
        samples = SampleSet.from_quaternions(normalize(rng.standard_normal((r, 4))))
        a, b = make("l2", samples), make("lp", samples, 2.0)
        X = normalize(rng.standard_normal((16, 4)))
        for q in (X[0], X):
            for name in ("value", "gradient", "control_field", "hessian", "pushforward_residual", "clearance"):
                assert np.array_equal(getattr(a, name)(q), getattr(b, name)(q)), name
            R = covering_map(q)
            want = b.rotation_residual(R)
            assert np.abs(r * a.rotation_residual(R) - want).max() <= 1e-14 * np.abs(want).max()
        best, same = multistart(a, 64, 0)[0], multistart(b, 64, 0)[0]
        assert np.array_equal(best.q, same.q) and best.cost == same.cost


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


@pytest.mark.parametrize("s", [2.0**-37, 0.5, 2.0, 7.3], ids=["2^-37", "0.5", "2", "7.3"])
def test_geodesic_prolongation_scale_invariant(s):
    # the prolongation has degree 0 and every evaluator reads the dots of
    # q/|q|: at s q the value and clearance are those at q, the gradient is
    # 1/s times it, and the control field and pushforward residual s times,
    # on one sample and on five. A power of 2 keeps every bit; at s = 7.3
    # the dots of s q round, which arccos^2 amplifies up to about 20-fold
    # at probe's |x_i| < 0.95 (worst reading 4.3e-15)
    rng = np.random.default_rng(22)
    for r in (1, 5):
        model = make("geodesic", SampleSet.from_quaternions(normalize(rng.standard_normal((r, 4)))))
        for _ in range(50):
            q = probe(rng, model)
            for name, power in [("value", 0), ("clearance", 0), ("gradient", -1), ("control_field", 1),
                                ("pushforward_residual", 1)]:
                want = s**power * np.asarray(getattr(model, name)(q))
                got = getattr(model, name)(s * q)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


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
    # the geodesic prolongation has no gradient at the origin: a NaN row at
    # a finite point, so the one-point call raises, and without warnings
    for f in (geo.gradient, geo.control_field):
        with pytest.raises(DomainError):
            f(np.zeros(4))
        assert np.all(np.isnan(f(np.zeros((1, 4)))))
    # off the sphere the geodesic derivatives guard the point's direction
    with pytest.raises(DomainError):
        geo.gradient(2.0 * normalize(np.array([0.5 * EPS_DOM, 1.0, 0.0, 0.0])))
    # a NaN row outside every guard buffer is overflow, not the excluded set
    q = normalize(np.array([1.0, 2.0, 3.0, 4.0]))
    for model, name, a in [
        (make("lp", IDENTITY, 4.0), "control_field", 1e300 * q),
        (make("l2", IDENTITY), "control_field", 1e200 * q),
        (geo, "gradient", 1e200 * q),
        (make("d3", IDENTITY), "hessian", 1e200 * q),
        # the lift normalizes 1e200 R, so the residual needs an input whose
        # lift itself overflows
        (make("l2", IDENTITY), "rotation_residual", 1.7e308 * covering_map(q)),
    ]:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflowed") as err:
            getattr(model, name)(a)
        assert not isinstance(err.value, (DomainError, NonDifferentiable))


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
    # the point and the sample themselves it keeps full precision down to
    # the 1e-9 buffer
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


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([1.0, 1.5]),
    log_gap=st.floats(-12.0, -8.0),
    offset=st.floats(0.1, 2.0),
    extra=st.integers(0, 3),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# a point whose |q| - 1 is -1.1e-16 reads a clearance just under EPS_DOM,
# and its normalization one just over it: the flow must judge the start as
# given, as admissible does
@example(p=1.5, log_gap=-8.0, offset=1.0, extra=0, sign=1.0, seed=4294967295)
@example(p=1.5, log_gap=-8.0, offset=1.0, extra=0, sign=-1.0, seed=4294967295)
@example(p=1.0, log_gap=-8.0, offset=1.0, extra=0, sign=1.0, seed=4294967295)
@example(p=1.0, log_gap=-8.0, offset=1.0, extra=0, sign=-1.0, seed=4294967295)
def test_line_guard_has_one_reading_next_to_near_duplicates(p, log_gap, offset, extra, sign, seed):
    # two samples 1e-12 to 1e-8 apart, and a point 0.1 to 2 EPS_DOM from
    # the first one's line: rounding cannot tell which line is nearer, yet
    # admissible and the derivatives must read the same clearance, so the
    # field raises DomainError exactly where admissible is False, and a flow
    # from there ends in DomainBreach
    rng = np.random.default_rng(seed)
    q1 = normalize(rng.standard_normal(4))
    Q = np.concatenate([[q1, near(q1, 10.0**log_gap, rng)], normalize(rng.standard_normal((extra, 4)))])
    model = make("lp", SampleSet.from_quaternions(Q[rng.permutation(len(Q))]), p)
    q = sign * near(q1, offset * EPS_DOM, rng)
    try:
        field = model.control_field(q)
    except ValueError as e:
        assert type(e) is DomainError
        assert not model.admissible(q)
        with pytest.raises(DomainBreach):
            flow_descend(model, q)
    else:
        assert np.all(np.isfinite(field))
        assert model.admissible(q)


def test_geodesic_value_guards_the_direction():
    # the geodesic prolongation has degree 0, so its value reads the dots
    # of q/|q| against the hyperplanes, as its gradient does: a point far
    # inside the unit ball keeps the value of its direction (bit for bit at
    # a power-of-2 scale, to rounding of the dots at 1e-11), here a unit q
    # 0.02 from one hyperplane, whose scaled dots fall below 1e-12
    rng = np.random.default_rng(31)
    model = make("geodesic", SampleSet.from_quaternions(rng.standard_normal((5, 4))))
    q = near_plane(rng, model.samples.quaternions[0], 0.02)
    assert 0.01 < np.abs(model.samples.quaternions @ q).min() < 0.05
    assert model.value(2.0**-37 * q) == model.value(q)
    assert model.value(1e-11 * q) == pytest.approx(model.value(q), rel=1e-13, abs=0.0)
    assert np.all(np.isfinite(model.gradient(1e-11 * q)))
    with pytest.raises(DomainError):
        model.value(1e-11 * near_plane(rng, model.samples.quaternions[2], 0.0))


def test_geodesic_clearance_reads_the_direction():
    # clearance and admissible read q/|q|, as the geodesic value and
    # derivatives do: a point far inside the unit ball where both are
    # finite is admissible, and the origin, which has no direction, is not.
    # d3 reads the raw dots, as its derivatives do
    rng = np.random.default_rng(31)
    model = make("geodesic", SampleSet.from_quaternions(rng.standard_normal((5, 4))))
    q = near_plane(rng, model.samples.quaternions[0], 0.02)
    assert model.clearance(1e-11 * q) == pytest.approx(model.clearance(q), rel=1e-13, abs=0.0)
    assert model.admissible(1e-11 * q)
    assert np.isfinite(model.value(1e-11 * q)) and np.all(np.isfinite(model.gradient(1e-11 * q)))
    assert model.clearance(np.zeros(4)) == 0.0 and not model.admissible(np.zeros(4))
    assert math.isnan(model.clearance(np.full(4, np.nan)))
    d3 = make("d3", model.samples)
    assert d3.clearance(1e-11 * q) == pytest.approx(1e-11 * d3.clearance(q), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_line_clamp_holds_off_the_unit_sphere(p):
    # the exact 1 - d^2 next to a sample line (_line_gaps) holds only on
    # the unit sphere; off it an entry keeps the clamp max(1 - d^2, 0).
    # (2, 0, 0, 0) lies on the first sample's line, beyond both samples
    model = make("lp", SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]]), p)
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert model.value(x) == 0.0
    assert model.clearance(x) == 0.0 and not model.admissible(x)
    with pytest.raises(DomainError):
        model.gradient(x)


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
    for phi in (1e-2, GEODESIC_SLOPE_SWITCH):
        below, above = model._cost.slope(np.cos(np.array([phi * (1.0 - 1e-9), phi * (1.0 + 1e-9)])), None)
        assert abs(below - above) < 1e-11


# x = cos(phi) for phi from 1e-7 to 1.5, on both sides of the Taylor switches
# at 1e-4 (weight), 1e-2 (the slope's former switch) and 5e-2 (the slope's),
# and x = 1: x, then w(x) and w'(x) of the geodesic kind, each as the double
# pair hi + lo of its 50-digit mpmath value phi / sin(phi) and
# -(sin(phi) - phi x) / sin(phi)^3 with phi = acos(x), at x itself
GEODESIC_REFERENCE = [
    '0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 -0x1.5555555555555p-2 -0x1.5555555555555p-56',
    '0x1.fffffffffffd3p-1 0x1.0000000000008p+0 -0x1.ffffffffffef2p-54 -0x1.555555555556dp-2 -0x1.5555555555ac2p-56',
    '0x1.fffffffffff97p-1 0x1.0000000000012p+0 -0x1.ffffffffffa42p-54 -0x1.555555555558dp-2 -0x1.55555555572ddp-56',
    '0x1.fffffffffff0bp-1 0x1.0000000000029p+0 -0x1.55555555516cfp-55 -0x1.55555555555d8p-2 -0x1.418fffff3c302p-93',
    '0x1.ffffffffffdc4p-1 0x1.000000000005fp+0 0x1.555555555ffbep-54 -0x1.5555555555686p-2 -0x1.99999999d05fcp-56',
    '0x1.ffffffffffac9p-1 0x1.00000000000dfp+0 -0x1.ffffffffc5fc2p-54 -0x1.555555555581dp-2 -0x1.555555567fb26p-56',
    '0x1.ffffffffff3d4p-1 0x1.0000000000207p+0 0x1.5555555691657p-54 -0x1.5555555555bd3p-2 -0x1.999999a64c88bp-57',
    '0x1.fffffffffe399p-1 0x1.00000000004bcp+0 -0x1.55555547e3715p-55 -0x1.555555555647bp-2 -0x1.999999debec09p-57',
    '0x1.fffffffffbdb9p-1 0x1.0000000000b0cp+0 -0x1.5555550c1f348p-55 -0x1.55555555578aep-2 -0x1.99999a55dba4dp-56',
    '0x1.fffffffff6559p-1 0x1.00000000019c7p+0 -0x1.ffffff38b0535p-54 -0x1.555555555a7d1p-2 0x1.ddddd9dcd665dp-56',
    '0x1.ffffffffe971fp-1 0x1.0000000003c26p+0 -0x1.fffffbc2b85a2p-54 -0x1.55555555615cdp-2 -0x1.55556b22c5cf0p-56',
    '0x1.ffffffffcb5e5p-1 0x1.0000000008c5ap+0 -0x1.5555272a4e6b5p-55 -0x1.5555555571675p-2 0x1.9998ac2a0853cp-57',
    '0x1.ffffffff852f6p-1 0x1.0000000014782p+0 -0x1.5554d7a32dd47p-54 -0x1.5555555596d5bp-2 0x1.5552cee5aebe6p-56',
    '0x1.fffffffee169dp-1 0x1.000000002fc3bp+0 0x1.555aae32db24ap-55 -0x1.55555555ee2dfp-2 -0x1.ddeb9dce5a868p-56',
    '0x1.fffffffd63414p-1 0x1.000000006f752p+0 0x1.d1daacd6c4c61p-67 -0x1.55555556b9ff5p-2 -0x1.55a033e7f7e99p-56',
    '0x1.fffffff9e77e9p-1 0x1.0000000104159p+0 0x1.55f3dfa12d607p-55 -0x1.55555558959a6p-2 0x1.0de1b78b01898p-57',
    '0x1.fffffff1c6961p-1 0x1.000000025ee70p+0 -0x1.51f60f1703be0p-55 -0x1.5555555ceb6bbp-2 -0x1.aaf14bfebf281p-57',
    '0x1.ffffffdeced28p-1 0x1.0000000588324p+0 0x1.25ca728d409d5p-59 -0x1.5555556709295p-2 -0x1.848cba07f71a5p-56',
    '0x1.ffffffd50ce7ep-1 0x1.0000000728840p+0 0x1.64b49f7acfa95p-54 -0x1.5555556c3d623p-2 -0x1.1bdb6eb333cf3p-56',
    '0x1.ffffffd50cdcap-1 0x1.000000072885ep+0 0x1.64b4a788653dcp-54 -0x1.5555556c3d683p-2 -0x1.1bdb981da2cb7p-56',
    '0x1.ffffffb28bfa7p-1 0x1.0000000ce8abap+0 -0x1.ce02224600f54p-54 -0x1.5555557ea4474p-2 0x1.feef05320a7a6p-61',
    '0x1.ffffff4b43a50p-1 0x1.0000001e1f648p+0 0x1.103638cf1e30fp-54 -0x1.555555b5b9ca4p-2 0x1.ff852e6af26bap-56',
    '0x1.fffffe5a4191ep-1 0x1.000000464a67cp+0 0x1.ca3b81c0628a1p-54 -0x1.55555636436e6p-2 -0x1.82a4a4315674bp-56',
    '0x1.fffffc27de26ap-1 0x1.000000a405a4cp+0 -0x1.ce5d44dd349f3p-54 -0x1.5555576234323p-2 -0x1.9d041bd30c0bcp-57',
    '0x1.fffff7078b465p-1 0x1.0000017ebe21ap+0 0x1.5904e3a32f04dp-56 -0x1.55555a1e1c2c9p-2 0x1.d8313c609830bp-61',
    '0x1.ffffeb1142477p-1 0x1.0000037d1fad6p+0 -0x1.20c50130212c9p-55 -0x1.5555607f54695p-2 0x1.f29d64b916adfp-56',
    '0x1.ffffcf2778288p-1 0x1.0000082416f37p+0 0x1.3dbb379816b28p-55 -0x1.55556f626c2e1p-2 -0x1.2dbf4c1e231f8p-56',
    '0x1.ffff8e04e5ae4p-1 0x1.000012ff30bebp+0 -0x1.daa81a585df81p-56 -0x1.5555921f8e341p-2 -0x1.b702c24ecbf6ap-57',
    '0x1.fffef6071ae00p-1 0x1.00002c542f661p+0 -0x1.b3c2aef30625ap-55 -0x1.5555e32f98814p-2 -0x1.3016fefd95d10p-57',
    '0x1.fffd935bfc9afp-1 0x1.00006770dd637p+0 0x1.8c42875b7e1e6p-57 -0x1.5556a0587b391p-2 -0x1.f81197be8c421p-56',
    '0x1.fffa57c058e08p-1 0x1.0000f161024b6p+0 -0x1.be6f78e71232ap-54 -0x1.555859c108e4bp-2 0x1.2c3119221af77p-60',
    '0x1.fff9724bb560bp-1 0x1.0001179f7af0fp+0 0x1.7d858a0d3567ap-55 -0x1.5558d423406d0p-2 -0x1.7af462cddbb6bp-56',
    '0x1.fff97249fd949p-1 0x1.0001179fc43e6p+0 0x1.915bc35f86f2fp-55 -0x1.5558d4242affep-2 -0x1.145723ebc1447p-57',
    '0x1.fff2cc918af35p-1 0x1.00023342e29fdp+0 -0x1.e05947325fa06p-54 -0x1.555c5fd040b5fp-2 -0x1.7588727f450c6p-59',
    '0x1.ffe1325475ab5p-1 0x1.00052266e362bp+0 -0x1.c72ba785a710cp-54 -0x1.5565c3a8d6602p-2 -0x1.90ad969900afcp-56',
    '0x1.ffb81fe1e5c4cp-1 0x1.000bfb5bed4c5p+0 0x1.eefdf1df37c12p-54 -0x1.557bae309f896p-2 -0x1.6cc874060c3b2p-57',
    '0x1.ff5c31c800695p-1 0x1.001b5088388ccp+0 0x1.d5b53036b9d5ep-58 -0x1.55acc43b392e2p-2 0x1.9ca9b2dd14da9p-56',
    '0x1.ff5c319d11e04p-1 0x1.001b508f62238p+0 -0x1.db904d6d21c94p-54 -0x1.55acc452283a6p-2 0x1.a5a4a2d90b8b5p-56',
    '0x1.ff584cde209f0p-1 0x1.001bf6da4436fp+0 -0x1.29a7efa1f2498p-54 -0x1.55aed8c8b5d35p-2 0x1.20de97a8054c9p-57',
    '0x1.fe78c969fb183p-1 0x1.004147b7cc19cp+0 -0x1.505fda915d96fp-54 -0x1.562661a5ecd06p-2 -0x1.2fd69882fdcacp-60',
    '0x1.fc6fb75d4b6f1p-1 0x1.009878cc2e3d3p+0 0x1.4981e28287674p-56 -0x1.573e121920a5bp-2 0x1.7e9d3bf6fd73bp-56',
    '0x1.f7b27f2c8d4dap-1 0x1.01649081907dbp+0 0x1.047c7bdc0001cp-57 -0x1.59cede0127501p-2 -0x1.9c485080a923bp-57',
    '0x1.ecb214e3648bdp-1 0x1.03444777995cap+0 -0x1.7a7130aa4ca74p-58 -0x1.5fe25db803a00p-2 -0x1.bfdfcafeadf9bp-57',
    '0x1.d355283937740p-1 0x1.07b6e65e77a26p+0 0x1.1b8dddb0ab76dp-58 -0x1.6e908c91d3ac6p-2 0x1.658525c97fa58p-56',
    '0x1.99cf774e55a94p-1 0x1.1284dc0d16951p+0 -0x1.1af9bc08806a1p-57 -0x1.93c284e345461p-2 -0x1.1ed6bc3406fbdp-60',
    '0x1.1c5dc40178268p-1 0x1.2e4a4c80140adp+0 -0x1.c98cb2c5c1934p-54 -0x1.fda33f5823a55p-2 0x1.e1929b8c91dfap-58',
    '0x1.21bd54fc5f9a7p-4 0x1.80f6df0a6a3c6p+0 0x1.8d22d59b5b9cep-54 -0x1.cbd69be62ff04p-1 -0x1.f8d1b5ba42627p-55',
]


def test_geodesic_kernels_against_mpmath():
    # the relative errors of the geodesic weight and slope against the pinned
    # references, read exactly from the pairs. The weight rounds phi and
    # sin phi apart, within 4e-16 of it; so does the slope's series below
    # phi = 5e-2, and above it the cancelling difference phi a - sin phi
    # adds up to 7.5 eps / phi^2
    rows = np.array([[float.fromhex(v) for v in row.split()] for row in GEODESIC_REFERENCE])
    x = rows[:, 0]
    phi = np.arccos(x)
    kind = make("geodesic", IDENTITY)._cost
    cancel = np.where(phi < 5e-2, 0.0, 7.5 * np.finfo(float).eps / np.maximum(phi, 5e-2) ** 2)
    for got, hi, lo, bound in [(kind.weight(x, None), rows[:, 1], rows[:, 2], 4e-16),
                               (kind.slope(x, None), rows[:, 3], rows[:, 4], 4e-16 + cancel)]:
        assert np.all(np.abs((got - hi) - lo) / np.abs(hi) <= bound)


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
    base = np.maximum(1.0 - d * d, 0.0)
    inner = np.dot(model._cost.weight(d, base), d) * np.eye(4) - U.T @ (model._cost.slope(d, base)[:, None] * U)
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
        base = np.maximum(1.0 - d * d, 0.0)
        terms = model.scale * (abs(np.dot(model._cost.weight(d, base), d)) + np.abs(model._cost.slope(d, base)).sum())
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
    # ||K||_F <= HESSIAN_BOUND_SLACK c (sqrt(3) |<w, d>| + r s), the bound
    # CostModel._hessian_bound gives the Newton screen: on rows within
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
    keep = model.admissible(X)
    X, D = X[keep], D[keep]
    wd = model._field(X, D)[1]
    K = model._frame_hessian(X, D, wd)[1]
    assert np.all(np.sqrt((K * K).sum(axis=(1, 2))) <= model._hessian_bound(X, D, wd))


def a_form_frame_hessian(model, X):
    # the per-sample form K = c (<w, d> I - A^T diag(w') A), with row i of A
    # the frame coordinates B q_i of sample i, formed as B (q_i - s x) with
    # s = sign x_i (B x = 0) so that they keep full relative precision next
    # to a sample line: a reference that forms no S = sum_i w'_i q_i q_i^T
    D = model._dots(X)
    base = model._bases(X, D)
    D = model._guard(X, D, base)
    B = tangent_frame(X)
    A = (model.samples.quaternions - np.sign(D)[..., None] * X[:, None]) @ B.transpose(0, 2, 1)
    S = (A * model._cost.slope(D, base)[..., None]).transpose(0, 2, 1) @ A
    return model.scale * (np.vecdot(model._cost.weight(D, base), D)[:, None, None] * np.eye(3) - S)


@settings(max_examples=100, deadline=None)
@given(
    kind_p=st.sampled_from(BOUND_CASES),
    r=st.sampled_from([1, 5, 50, 1000]),
    near=st.sampled_from(["line", "plane"]),
    log_t=st.floats(-8.0, -1.0),
    clustered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# a clustered Lp 4 set, whose K from the moments rounds at 1.3e-12 of the
# per-sample floor 1e-3 c r
@example(kind_p=("lp", 4.0), r=1000, near="line", log_t=-2.0, clustered=True, seed=2489793)
def test_frame_hessian_matches_the_a_form(kind_p, r, near, log_t, clustered, seed):
    # the S-form K (with the A-form pairs it keeps for Lp p < 4 next to a
    # line) against the per-sample reference, on rows 1e-8 to 1e-1 from the
    # first sample's line or hyperplane: within 1e-12 of the larger of K's
    # entries and 1e-3 of the terms where K cancels. For a per-sample kind
    # those are c w'(x_i) |B q_i|^2, at most c each: c r. A moment kind
    # (l2, Lp 2, Lp 4: w = x + b x^3) forms S = M + 3b P, whose entries sum
    # q_i q_i^T and 3b x_i^2 q_i q_i^T over the samples: c (r + 3|b| sum x_i^2)
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((r, 4))
    if clustered:
        Q = Q[0] + 1e-3 * Q
    model = make(kind_p[0], SampleSet.from_quaternions(Q), kind_p[1])
    q0 = model.samples.quaternions[0]
    U = normalize(rng.standard_normal((16, 4)))
    U = normalize(U - np.outer(U @ q0, q0))
    t = 10.0**log_t
    X = normalize(q0 + t * U) if near == "line" else normalize(U + t * q0)
    X = X[model.admissible(X)]
    D = model._dots(X)
    K, want = model._frame_hessian(X, D, model._field(X, D)[1])[1], a_form_frame_hessian(model, X)
    b = model._cost.cubic
    terms = r if b is None else r + 3.0 * abs(b) * (D * D).sum(axis=1)
    scale = np.maximum(np.abs(want).max(axis=(1, 2)), 1e-3 * model.scale * terms)
    assert np.all(np.abs(K - want).max(axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("kind,p", HESSIAN_CASES)
def test_public_hessian_is_the_flows(kind, p):
    # hessian reads <w, d> from the gradient's own weights, as the flow's
    # Newton step does: B^T K B with (B, K) the frame Hessian at the dots and
    # <w, d> of one _field call, bit for bit, at one point and at 8-row
    # stacks of normalized points over 25 sample sets; each stack's last two
    # rows sit on its first sample's hyperplane and line, where the guarded
    # kinds give NaN rows
    guarded = [6] if kind in ("geodesic", "d3") else [7] if p == 1.5 else []
    for seed in range(25):
        rng = np.random.default_rng([35, seed])
        model = make(kind, SampleSet.from_quaternions(rng.standard_normal((5, 4))), p)
        q0 = model.samples.quaternions[0]
        X = normalize(rng.standard_normal((8, 4)))
        X[6] = normalize(X[6] - (X[6] @ q0) * q0)
        X[7] = q0
        D = model._dots(X)
        B, K = model._frame_hessian(X, D, model._field(X, D)[1])
        want = B.transpose(0, 2, 1) @ K @ B
        assert np.array_equal(model.hessian(X), want, equal_nan=True)
        assert np.flatnonzero(np.isnan(want).any(axis=(1, 2))).tolist() == guarded
        assert np.array_equal(model.hessian(X[0]), want[0])


def per_sample_forms(model, X):
    # the gradient, control field, <w, d> and frame Hessian of the per-sample
    # forms, from the kind record's weight w and slope w' at every sample:
    # -c sum_i w(x_i) q_i, T(q) of it, sum_i w(x_i) x_i and
    # c (<w, d> I - B S B^T) with S = sum_i w'(x_i) q_i q_i^T; and, per row,
    # the sizes of the terms summed: sum_i |w(x_i)| and
    # |<w, d>| + sum_i |w'(x_i)|
    Q = model.samples.quaternions
    D = X @ Q.T
    base = np.maximum(1.0 - D * D, 0.0)
    W, dW = model._cost.weight(D, base), model._cost.slope(D, base)
    G = -model.scale * (W @ Q)
    B = tangent_frame(X)
    S = np.einsum("ki,ia,ib->kab", dW, Q, Q)
    wd = np.einsum("ki,ki->k", W, D)
    K = model.scale * (wd[:, None, None] * np.eye(3) - B @ S @ B.transpose(0, 2, 1))
    return (G, apply_T_sphere(X, G), wd, K), np.abs(W).sum(axis=1), np.abs(wd) + np.abs(dW).sum(axis=1)


@settings(max_examples=60, deadline=None)
@given(
    kind_p=st.sampled_from([("l2", None), ("lp", 4.0)]),
    r=st.sampled_from([1, 2, 5, 1000]),
    duplicated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_moments_match_the_per_sample_forms(kind_p, r, duplicated, seed):
    # l2 and Lp 4 read their field and Hessian from the samples' moments M and
    # T: the per-sample forms' quantities to within 1e-14 of the terms those
    # sum (c sum_i |w_i| for the gradient). The moments' own terms are of
    # size up to 1 per sample whatever x_i is, so where every |x_i| is small
    # the floor is 8 eps c r instead. Also with samples drawn twice over, and
    # with lift signs flipped at random, which leaves M and T bit for bit
    # as they were
    rng = np.random.default_rng(seed)
    Q = normalize(rng.standard_normal((r, 4)))
    if duplicated:
        Q = Q[rng.integers(0, r, r)]
    model = make(kind_p[0], SampleSet(Q), kind_p[1])
    X = normalize(rng.standard_normal((8, 4)))
    D = model._dots(X)
    V, wd = model._field(X, D)
    got = (model.gradient(X), V, wd, model._frame_hessian(X, D, wd)[1])
    want, w_size, k_size = per_sample_forms(model, X)
    c, eps = model.scale, np.finfo(float).eps
    for a, b, size, unit in zip(got, want, (w_size, w_size, w_size, k_size), (c, 4.0 * c, 1.0, c)):
        err = np.abs(a - b).reshape(len(X), -1).max(axis=1)
        assert np.all(err <= unit * np.maximum(1e-14 * size, 8.0 * eps * r))
    flipped = make(kind_p[0], SampleSet(rng.choice([-1.0, 1.0], (r, 1)) * Q), kind_p[1])
    assert np.array_equal(flipped.samples.second_moment, model.samples.second_moment)
    assert np.array_equal(flipped.samples.fourth_moment, model.samples.fourth_moment)
    Df = flipped._dots(X)
    Vf, wdf = flipped._field(X, Df)
    assert np.array_equal(Vf, V) and np.array_equal(wdf, wd)
    assert np.array_equal(flipped._frame_hessian(X, Df, wdf)[1], got[3])


def test_lp4_gradient_is_the_value_derivative_off_the_unit_ball():
    # Lp 4's value is the polynomial 64 sum_i (1 - x_i^2)^2 everywhere, the
    # one its moment gradient derives, also beyond a sample's line (|x| = 1.2)
    model = make("lp", IDENTITY, 4.0)
    q = 1.2 * normalize([1.0, 0.05, 0.0, 0.0])
    g = model.gradient(q)
    assert abs(g[0]) > 100.0
    assert np.abs(fd_gradient(model.value, q) - g).max() < 1e-6 * np.abs(g).max()


def long_value_change(model, T, X):
    # value(T) - value(X) of l2 or Lp 4 per sample in long double, from
    # differences: f(x_T) - f(x_X) is -(x_T - x_X)(x_T + x_X) times 1 for
    # f = 1 - x^2, and times 2 - x_T^2 - x_X^2 for f = (1 - x^2)^2
    Q, T, X = (a.astype(np.longdouble) for a in (model.samples.quaternions, T, X))
    xT, xX = T @ Q.T, X @ Q.T
    df = -((T - X) @ Q.T) * ((T + X) @ Q.T)
    if model._cost.cubic:
        df *= 2.0 - xT * xT - xX * xX
    return model._cost.factor * df.sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(
    kind_p=st.sampled_from([("l2", None), ("lp", 4.0)]),
    r=st.sampled_from([1, 2, 5, 1000]),
    duplicated=st.booleans(),
    log_eps=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_trial_cost_is_the_exact_value_change(kind_p, r, duplicated, log_eps, seed):
    # l2 and Lp 4 step the flow's cost from X to T = normalize(X + eps t) by
    # the change Delta of their value that the moments give, at no sample
    # dot. It agrees with the per-sample difference to within a few eps of
    # the two values (and of factor r, the floor of a value whose terms
    # cancel next to a sample's line), and with a long-double reference to
    # within a few eps c ||T - X|| r, a bound that the per-sample
    # difference misses for small eps, where it cancels. Each row has the
    # bits of its one-row call
    rng = np.random.default_rng(seed)
    Q = normalize(rng.standard_normal((r, 4)))
    if duplicated:
        Q = Q[rng.integers(0, r, r)]
    model = make(kind_p[0], SampleSet(Q), kind_p[1])
    X = normalize(rng.standard_normal((8, 4)))
    T = normalize(X + 10.0**log_eps * rng.standard_normal((8, 4)))
    D, delta = model._trial(T, X, np.zeros(8))
    assert D.shape == (8, 0)
    vT, vX, eps = model.value(T), model.value(X), np.finfo(float).eps
    assert np.all(np.abs(delta - (vT - vX)) <= 8.0 * eps * (np.abs(vT) + np.abs(vX) + model._cost.factor * r))
    want = long_value_change(model, T, X)
    bound = 4.0 * eps * model.scale * np.sqrt(np.vecdot(T - X, T - X)) * r
    assert np.all(np.abs(delta - want) <= bound)
    if r == 1000 and log_eps < -8.0:
        assert np.any(np.abs((vT - vX) - want) > bound)
    c = rng.standard_normal(8)
    rows = model._trial(T, X, c)[1]
    for k in range(8):
        assert model._trial(T[k : k + 1], X[k : k + 1], c[k : k + 1])[1].tobytes() == rows[k : k + 1].tobytes()


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
    # each row of a stacked call is the one-point call on that row, and
    # leaves the other rows alone. The one-point call raises exactly where
    # its row is NaN at a finite point: DomainError for value, the kind's
    # error for the derivatives. A row of NaN input is NaN and raises nothing
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
    X = np.insert(X, rng.integers(0, len(X) + 1), np.nan, axis=0)
    inputs = dict.fromkeys(EVALUATORS, X) | {"rotation_residual": covering_map(X)}
    for name, A in inputs.items():
        batch = getattr(model, name)(A)
        assert len(batch) == len(A)
        for a, got in zip(A, batch):
            want = one_point(model, name, a)
            got = np.asarray(got, dtype=float)
            if np.isnan(got).any() and np.isfinite(a).all():
                assert want is (DomainError if name == "value" else model._cost.error)
                assert name not in ("clearance", "admissible") and np.all(np.isnan(got))
                continue
            assert not isinstance(want, type)
            want = np.asarray(want, dtype=float)
            assert got.shape == want.shape
            if not np.isfinite(a).all():
                assert np.array_equal(got, want, equal_nan=True)
                assert name in ("clearance", "admissible") or np.all(np.isnan(got))
                continue
            assert np.array_equal(got, want) or np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "name,shape",
    [(name, shape) for name in EVALUATORS for shape in [(8,), (2, 3, 4), (3,)]]
    + [("rotation_residual", (9,)), ("rotation_residual", (2, 2, 3, 3))],
)
def test_evaluators_refuse_other_shapes(name, shape):
    # one point is (4,) and a stack (n, 4), one rotation (3, 3) and a stack
    # (n, 3, 3): (8,) is not two points, nor (2, 3, 4) six
    with pytest.raises(ValueError):
        getattr(make("l2", IDENTITY), name)(np.ones(shape))


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
                d = samples.quaternions @ q
                w = model._cost.weight(d, np.maximum(1.0 - d * d, 0.0))
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


def residual_weights(kind, p, x):
    """u = w(x)/x at the dots x, from each kind's weight (README, section
    Costs): 1 for l2, phi / (|x| sin phi) with phi = arccos |x| for
    geodesic, (1 - |x|) / |x| for d3 and (1 - x^2)^(p/2 - 1) for Lp, with
    1 - x^2 clamped at 0 except for Lp 4, whose weight is a polynomial."""
    a = np.abs(x)
    if kind == "l2":
        return np.ones_like(a)
    if kind == "geodesic":
        phi = np.arccos(np.minimum(a, 1.0))
        return np.where(phi == 0.0, 1.0, phi / np.sin(phi)) / a
    if kind == "d3":
        return (1.0 - a) / a
    g = 1.0 - a * a
    return (g if p == 4.0 else np.maximum(g, 0.0)) ** (p / 2.0 - 1.0)


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from([("l2", None), ("geodesic", None), ("d3", None), ("lp", 1.5), ("lp", 2.0), ("lp", 3.0),
                          ("lp", 4.0)]),
    r=st.sampled_from([1, 2, 5, 1000]),
    m=st.sampled_from([0, 1, 3]),
    duplicates=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_residual_matches_the_matrix_sum(case, r, m, duplicates, seed):
    # the residual reads M = L(sum_i u_i q_i q_i^T) / kappa off the samples'
    # outer products; here M is the sum of the sample matrices themselves,
    # sum_i u(x_i) covering_map(q_i) / kappa, at the dots x_i of each R's
    # lift. m = 0 is one set read at three points, else a stack of m sets;
    # each set repeats some of its samples (either sign), and each point
    # lies at random, on a sample's line or on a sample's hyperplane
    kind, p = case
    rng = np.random.default_rng(seed)
    n = m or 3
    Q = normalize(rng.standard_normal((max(m, 1), r, 4)))
    for _ in range(duplicates):
        i, j = rng.integers(r, size=2)
        Q[:, i] = rng.choice([1.0, -1.0]) * Q[:, j]
    model = make(kind, SampleSet(Q if m else Q[0]), p)
    Qs = np.broadcast_to(model.samples.quaternions, (n, r, 4))
    at = Qs[np.arange(n), rng.integers(r, size=n)]
    X = normalize(rng.standard_normal((n, 4)))
    where = rng.integers(3, size=n)
    X[where == 1] = at[where == 1]
    X[where == 2] = tangent_frame(at[where == 2])[:, 0]
    R = covering_map(X)
    got = model.rotation_residual(R)
    lifts = quat_from_rotation(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = residual_weights(kind, p, np.matvec(model.samples.quaternions, lifts))
        M = np.einsum("ki,kiab->kab", u, covering_map(Qs)) / model.kappa
        want = M.transpose(0, 2, 1) @ R - R.transpose(0, 2, 1) @ M
    guarded = ~model.admissible(lifts)
    assert np.isnan(got[guarded]).all() and np.isfinite(got[~guarded]).all()
    scale = np.abs(u[~guarded]).sum(axis=1) / model.kappa
    assert np.all(np.abs(got - want)[~guarded] <= 1e-13 * scale[:, None, None])


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
    for p in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CostModel.lp_chordal(IDENTITY, p)
    with pytest.raises(ValueError):
        CostModel("L2Chordal", IDENTITY, p=2.0)


@pytest.mark.parametrize("p", [680.0, 700.0, 1e6])
def test_lp_power_whose_scale_overflows_is_refused(p):
    # the float power 8^(p/2) overflows past p = 700, and the scale
    # p 8^(p/2) is inf past p = 676.4; both are refused alike
    with pytest.raises(ValueError, match="overflows"):
        CostModel.lp_chordal(IDENTITY, p)


def test_lp_power_at_the_overflow_bound_builds():
    model = CostModel.lp_chordal(IDENTITY, 676.0)
    assert math.isfinite(model.scale) and model.scale == 676.0 * 8.0**338.0


def test_scalar_field_view():
    model = make("l2", IDENTITY)
    sf = model.scalar_field()
    q = on_axis(0.4)
    assert sf.value(q) == model.value(q)
    assert np.abs(sf.grad(q) - model.gradient(q)).max() == 0.0


# The bits of each public evaluator at fixed inputs: three unit samples and
# two unit points, each a normalized vector of dyadic rationals. Any change
# to the arithmetic of a cost shows here, where every other test compares
# within a tolerance or against another path of the same code.
PIN_SAMPLES = SampleSet.from_quaternions(normalize(np.array(
    [[1.0, 0.25, -0.125, 0.375], [0.5, -0.75, 0.25, 0.125], [-0.25, 0.5, 0.875, -0.5]])))
PIN_POINTS = normalize(np.array([[0.875, 0.375, 0.25, -0.125], [0.125, -0.625, 0.5, 0.375]]))
PINNED_BITS = {
    ('L2Chordal', None, 0): {
        'value': '0x1.1f3a1463b7d59p+4',
        'gradient': '-0x1.9bacb02f774d6p+3 -0x1.b49b3ddb4210ap+0 -0x1.0d1f9afbf239ap+1 -0x1.ae3cfecab2ef6p+1',
        'hessian': (
            '-0x1.335de53b59e6fp+1 0x1.a1a364a02423dp+1 0x1.c0142e95a963ep+0 -0x1.c292e8295f81bp+1 '
            '0x1.a1a364a02423ep+1 -0x1.0080a0d106149p+2 -0x1.492a75b1888fep+1 0x1.6b0f880be3b03p+2 '
            '0x1.c0142e95a963dp+0 -0x1.492a75b1888fdp+1 0x1.1194478ae9e63p+0 0x1.ab2dc4c1108a2p+2 '
            '-0x1.c292e8295f819p+1 0x1.6b0f880be3b01p+2 0x1.ab2dc4c1108a2p+2 0x1.6e87f514fddebp+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 -0x1.0e17f2ab495a1p-2 0x1.9116b0b982780p-8 0x1.0e17f2ab495a1p-2 '
            '0x0.0p+0 0x1.1e179807a2d26p-2 -0x1.9116b0b982780p-8 -0x1.1e179807a2d26p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 0x1.681fee39b722cp-2 -0x1.0b6475d101a90p-7 -0x1.681fee39b722cp-2 '
            '0x0.0p+0 -0x1.7d74cab4d9189p-2 0x1.0b6475d101a90p-7 0x1.7d74cab4d9189p-2 '
            '0x0.0p+0'
        ),
    },
    ('L2Chordal', None, 1): {
        'value': '0x1.257bbc7bace03p+4',
        'gradient': '-0x1.0295a3d035b20p+3 0x1.62553acc7f20bp+3 -0x1.2c131ff47da6ep+1 -0x1.54771e592093bp+1',
        'hessian': (
            '-0x1.4f4281c7a31b3p+2 -0x1.da958056b0fbbp-6 0x1.470ec46e443dep+2 -0x1.4769d3d10a706p+2 '
            '-0x1.da958056b0fa0p-6 0x1.ca1b6a5895487p+0 -0x1.d839add987dd8p-2 0x1.cdb22e98f781fp+1 '
            '0x1.470ec46e443dfp+2 -0x1.d839add987dd0p-2 -0x1.dae2e4fd273dcp+1 0x1.3cc354d00a85ap+1 '
            '-0x1.4769d3d10a707p+2 0x1.cdb22e98f781ep+1 0x1.3cc354d00a85ap+1 0x1.1ab58a3a75634p+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.e54d5f6b3f1b3p-2 -0x1.689a4a6c90c78p-4 -0x1.e54d5f6b3f1b3p-2 '
            '0x0.0p+0 -0x1.cd12c22902e84p-3 0x1.689a4a6c90c78p-4 0x1.cd12c22902e84p-3 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.4388ea477f678p-1 0x1.e0cdb890c10a5p-4 0x1.4388ea477f678p-1 '
            '0x0.0p+0 0x1.3361d6c601f00p-2 -0x1.e0cdb890c10a5p-4 -0x1.3361d6c601f00p-2 '
            '0x0.0p+0'
        ),
    },
    ('Geodesic', None, 0): {
        'value': '0x1.026a43992b679p+3',
        'gradient': '-0x1.a6cfff4f083c1p-2 0x1.a116ec0e559f5p+1 -0x1.da2d124f507b1p+1 -0x1.0c2d7f631d3c4p-1',
        'hessian': (
            '0x1.187f65228863fp+1 -0x1.a397d2875a272p+1 -0x1.04cd6492f4f86p+1 0x1.6e33066b84abap+0 '
            '-0x1.a397d2875a272p+1 0x1.eafde2bb3b4fep+2 -0x1.58f61051f8887p-2 -0x1.35c3d59245541p-1 '
            '-0x1.04cd6492f4f87p+1 -0x1.58f61051f8885p-2 0x1.d008ef16d072bp+2 -0x1.8b592720b8cebp-1 '
            '0x1.6e33066b84abbp+0 -0x1.35c3d59245541p-1 -0x1.8b592720b8ceap-1 0x1.a9d9915d1ff94p+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.b5106def10da8p-2 0x1.79a8a10343a79p-1 -0x1.b5106def10da8p-2 '
            '0x0.0p+0 0x1.d072d6ab82cbdp-1 -0x1.79a8a10343a79p-1 -0x1.d072d6ab82cbdp-1 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.b5106def10da0p-1 -0x1.79a8a10343a7bp+0 0x1.b5106def10da0p-1 '
            '0x0.0p+0 -0x1.d072d6ab82cbdp+0 0x1.79a8a10343a7bp+0 0x1.d072d6ab82cbdp+0 '
            '0x0.0p+0'
        ),
    },
    ('Geodesic', None, 1): {
        'value': '0x1.365e7801cc6d6p+3',
        'gradient': '-0x1.0e508d44215ffp+3 0x1.8183757feb0c3p+0 0x1.a1b7c1299f132p+2 -0x1.b03bba298d28dp+1',
        'hessian': (
            '0x1.ec6eae83f0edcp+2 0x1.cce4ab0b4ab26p-1 -0x1.83e0a33fc35a0p+0 0x1.e957a9b2584a2p-1 '
            '0x1.cce4ab0b4ab26p-1 0x1.82e71e77305a7p+1 0x1.5821d30b7cd4cp+1 0x1.272cc0ecc7d87p+0 '
            '-0x1.83e0a33fc35a5p+0 0x1.5821d30b7cd4bp+1 0x1.5b0a676e6c50cp+2 -0x1.1f3dee335ae5fp+1 '
            '0x1.e957a9b2584a5p-1 0x1.272cc0ecc7d87p+0 -0x1.1f3dee335ae5ep+1 0x1.2618481d76db0p+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.0fa53f46a4fc8p+1 -0x1.d8214cec29ccfp+0 -0x1.0fa53f46a4fc8p+1 '
            '0x0.0p+0 -0x1.11fa501b34848p-2 0x1.d8214cec29ccfp+0 0x1.11fa501b34848p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.0fa53f46a4fccp+2 0x1.d8214cec29ccdp+1 0x1.0fa53f46a4fccp+2 '
            '0x0.0p+0 0x1.11fa501b34840p-1 -0x1.d8214cec29ccdp+1 -0x1.11fa501b34840p-1 '
            '0x0.0p+0'
        ),
    },
    ('TraceSqrt', None, 0): {
        'value': '0x1.423525aaf1218p+0',
        'gradient': '-0x1.a89a9828c7d49p-1 0x1.ed8f8c8acae4fp-2 -0x1.8f1e3831fa6a3p+0 0x1.5fd9a57f3c859p-2',
        'hessian': (
            '0x1.b5d57a6ad7433p-1 -0x1.3d85bf01e8c4cp+0 -0x1.8c2b937294a8bp-1 0x1.6f5cb7fb44e8bp-1 '
            '-0x1.3d85bf01e8c4dp+0 0x1.5220bd70f376ap+1 0x1.566ee098fee50p-4 -0x1.2e2bd8a9117a9p-1 '
            '-0x1.8c2b937294a8ap-1 0x1.566ee098fee4fp-4 0x1.1a462f2d303ecp+1 -0x1.8295fa7f2f110p-1 '
            '0x1.6f5cb7fb44e8bp-1 -0x1.2e2bd8a9117a7p-1 -0x1.8295fa7f2f112p-1 0x1.bdecc472a7e5dp+0'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.d18b420c93ebcp-2 0x1.f367318f94992p-2 -0x1.d18b420c93ebcp-2 '
            '0x0.0p+0 0x1.b25d4609d74f6p-2 -0x1.f367318f94992p-2 -0x1.b25d4609d74f6p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.d18b420c93eb6p+0 -0x1.f367318f94990p+0 0x1.d18b420c93eb6p+0 '
            '0x0.0p+0 -0x1.b25d4609d74f5p+0 0x1.f367318f94990p+0 0x1.b25d4609d74f5p+0 '
            '0x0.0p+0'
        ),
    },
    ('TraceSqrt', None, 1): {
        'value': '0x1.c2b1fcdf85478p+0',
        'gradient': '-0x1.25c3ae857f873p+1 0x1.3d829392fcd00p-1 0x1.8219391de1cfcp+0 -0x1.7ac117eb48870p+0',
        'hessian': (
            '0x1.48192a71fdf52p+1 0x1.8e44cc67e30dap-3 -0x1.953a75b5f9198p-1 0x1.0cc90edb42cbap-1 '
            '0x1.8e44cc67e30dep-3 0x1.899525bbf2417p-1 0x1.a45e114420c7ep-1 0x1.f2560c0353b4cp-4 '
            '-0x1.953a75b5f9199p-1 0x1.a45e114420c7ep-1 0x1.ccb7e0d901105p+0 -0x1.88e4be3f23d5cp-1 '
            '0x1.0cc90edb42cbbp-1 0x1.f2560c0353b4ap-4 -0x1.88e4be3f23d5bp-1 0x1.0d0a9d9b3acf5p+0'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.14826ad2af451p+0 -0x1.22d18d0b7b85ep+0 -0x1.14826ad2af451p+0 '
            '0x0.0p+0 -0x1.d9135c64fbdf0p-6 0x1.22d18d0b7b85ep+0 0x1.d9135c64fbdf0p-6 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.14826ad2af454p+2 0x1.22d18d0b7b862p+2 0x1.14826ad2af454p+2 '
            '0x0.0p+0 0x1.d9135c64fbe00p-4 -0x1.22d18d0b7b862p+2 -0x1.d9135c64fbe00p-4 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 1.5, 0): {
        'value': '0x1.69244d1f36229p+3',
        'gradient': '-0x1.d80ca944532f1p+2 -0x1.2987287182a0cp+0 -0x1.81940be736df3p-1 -0x1.0d7ed71d70fe9p+1',
        'hessian': (
            '-0x1.390659bdcd552p+0 0x1.410f730499ee1p+0 0x1.31545060e71d2p+0 -0x1.34aabd3080a7ep+1 '
            '0x1.410f730499ee2p+0 -0x1.ab691ed0779eap-1 -0x1.98c65cc8a788cp+0 0x1.8a60deab1981fp+1 '
            '0x1.31545060e71d3p+0 -0x1.98c65cc8a788ep+0 0x1.20d0713125373p-1 0x1.2bf2e35f601a4p+2 '
            '-0x1.34aabd3080a7fp+1 0x1.8a60deab1981fp+1 0x1.2bf2e35f601a5p+2 0x1.bc85fa5690ae4p+0'
        ),
        'pushforward_residual': (
            '0x0.0p+0 -0x1.91045b88b5a98p-2 -0x1.2181278ca6430p-5 0x1.91045b88b5a98p-2 '
            '0x0.0p+0 0x1.56bccc7db5eb8p-2 0x1.2181278ca6430p-5 -0x1.56bccc7db5eb8p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 0x1.1b8fd5c1a4be7p+0 0x1.996bd406df2f8p-4 -0x1.1b8fd5c1a4be7p+0 '
            '0x0.0p+0 -0x1.e4b43a45bfabdp-1 -0x1.996bd406df2f8p-4 0x1.e4b43a45bfabdp-1 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 1.5, 1): {
        'value': '0x1.6d751e751a0fap+3',
        'gradient': '-0x1.2ccfdb1ad3ee1p+2 0x1.a54a34cf8e87dp+2 -0x1.97aabdcebf669p+0 -0x1.75fab2c78a599p+0',
        'hessian': (
            '-0x1.7acf8c3046b38p+1 0x1.54bb6c5ce64bap+0 0x1.a43a05ac6f901p+1 -0x1.2c2d526625352p+0 '
            '0x1.54bb6c5ce64b7p+0 0x1.12c34c2e50d8fp+0 -0x1.e0fea1e73c5f3p-4 0x1.807193017f02fp+0 '
            '0x1.a43a05ac6f8ffp+1 -0x1.e0fea1e73c60bp-4 -0x1.0dc1c26452472p+0 0x1.d6bce8ab7b4bdp-4 '
            '-0x1.2c2d526625352p+0 0x1.807193017f031p+0 0x1.d6bce8ab7b4cbp-4 0x1.5ec8fe8b203d7p+1'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.37910df009f9ep-1 -0x1.7efef497bdad6p-4 -0x1.37910df009f9ep-1 '
            '0x0.0p+0 -0x1.3e902f7e5d5d4p-2 0x1.7efef497bdad6p-4 0x1.3e902f7e5d5d4p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.b89f2a39c2127p+0 0x1.0ed1aac4e0445p-2 0x1.b89f2a39c2127p+0 '
            '0x0.0p+0 0x1.c28434f141736p-1 -0x1.0ed1aac4e0445p-2 -0x1.c28434f141736p-1 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 2.0, 0): {
        'value': '0x1.1f3a1463b7d59p+4',
        'gradient': '-0x1.9bacb02f774d6p+3 -0x1.b49b3ddb4210ap+0 -0x1.0d1f9afbf239ap+1 -0x1.ae3cfecab2ef6p+1',
        'hessian': (
            '-0x1.335de53b59e6fp+1 0x1.a1a364a02423dp+1 0x1.c0142e95a963ep+0 -0x1.c292e8295f81bp+1 '
            '0x1.a1a364a02423ep+1 -0x1.0080a0d106149p+2 -0x1.492a75b1888fep+1 0x1.6b0f880be3b03p+2 '
            '0x1.c0142e95a963dp+0 -0x1.492a75b1888fdp+1 0x1.1194478ae9e63p+0 0x1.ab2dc4c1108a2p+2 '
            '-0x1.c292e8295f819p+1 0x1.6b0f880be3b01p+2 0x1.ab2dc4c1108a2p+2 0x1.6e87f514fddebp+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 -0x1.0e17f2ab495a1p-2 0x1.9116b0b982780p-8 0x1.0e17f2ab495a1p-2 '
            '0x0.0p+0 0x1.1e179807a2d26p-2 -0x1.9116b0b982780p-8 -0x1.1e179807a2d26p-2 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 0x1.0e17f2ab495a1p+0 -0x1.9116b0b9827c0p-6 -0x1.0e17f2ab495a1p+0 '
            '0x0.0p+0 -0x1.1e179807a2d27p+0 0x1.9116b0b9827c0p-6 0x1.1e179807a2d27p+0 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 2.0, 1): {
        'value': '0x1.257bbc7bace03p+4',
        'gradient': '-0x1.0295a3d035b20p+3 0x1.62553acc7f20bp+3 -0x1.2c131ff47da6ep+1 -0x1.54771e592093bp+1',
        'hessian': (
            '-0x1.4f4281c7a31b3p+2 -0x1.da958056b0fbbp-6 0x1.470ec46e443dep+2 -0x1.4769d3d10a706p+2 '
            '-0x1.da958056b0fa0p-6 0x1.ca1b6a5895487p+0 -0x1.d839add987dd8p-2 0x1.cdb22e98f781fp+1 '
            '0x1.470ec46e443dfp+2 -0x1.d839add987dd0p-2 -0x1.dae2e4fd273dcp+1 0x1.3cc354d00a85ap+1 '
            '-0x1.4769d3d10a707p+2 0x1.cdb22e98f781ep+1 0x1.3cc354d00a85ap+1 0x1.1ab58a3a75634p+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.e54d5f6b3f1b3p-2 -0x1.689a4a6c90c78p-4 -0x1.e54d5f6b3f1b3p-2 '
            '0x0.0p+0 -0x1.cd12c22902e84p-3 0x1.689a4a6c90c78p-4 0x1.cd12c22902e84p-3 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.e54d5f6b3f1b4p+0 0x1.689a4a6c90c7cp-2 0x1.e54d5f6b3f1b4p+0 '
            '0x0.0p+0 0x1.cd12c22902e81p-1 -0x1.689a4a6c90c7cp-2 -0x1.cd12c22902e81p-1 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 4.0, 0): {
        'value': '0x1.edf837e6e3372p+6',
        'gradient': '-0x1.4175eaea0de5ep+6 0x1.7b4003fc8a4a0p+1 -0x1.73ffc69931a3ep+5 -0x1.f605a66631c58p+2',
        'hessian': (
            '-0x1.1940fc40101f2p+5 0x1.088779e14a9f8p+6 0x1.d400faec500adp+3 -0x1.27331a05122f7p+4 '
            '0x1.088779e14a9f9p+6 -0x1.f59e38f2daa70p+6 -0x1.dca8564864e82p+3 0x1.c75f297cc25bap+5 '
            '0x1.d400faec500aap+3 -0x1.dca8564864e7dp+3 -0x1.1989b1ac2a8d5p+4 0x1.67f389762baf3p+4 '
            '-0x1.27331a05122f8p+4 0x1.c75f297cc25bcp+5 0x1.67f389762baf3p+4 0x1.5a6f156d598e0p+6'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.476b9eb5c14b8p-8 0x1.759b6007a9c83p-4 -0x1.476b9eb5c14b8p-8 '
            '0x0.0p+0 0x1.4695d4696ab82p-3 -0x1.759b6007a9c83p-4 -0x1.4695d4696ab82p-3 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.476b9eb5c14e0p-4 -0x1.759b6007a9c88p+0 0x1.476b9eb5c14e0p-4 '
            '0x0.0p+0 -0x1.4695d4696ab82p+1 0x1.759b6007a9c88p+0 0x1.4695d4696ab82p+1 '
            '0x0.0p+0'
        ),
    },
    ('LpChordal', 4.0, 1): {
        'value': '0x1.09165e697736cp+7',
        'gradient': '-0x1.92f51e715eb88p+5 0x1.d67128abcab7ep+5 0x1.c4abbcb994a40p+0 -0x1.6c037d2dd3554p+4',
        'hessian': (
            '-0x1.c2e49314b585ap+6 -0x1.d98cf6f4ece01p+5 0x1.6bdc6d5d92d07p+5 -0x1.e6e6e5ae40191p+6 '
            '-0x1.d98cf6f4ece02p+5 -0x1.41507fbc89f51p+3 -0x1.f73ed9de3b548p+4 0x1.67775901e7b24p+5 '
            '0x1.6bdc6d5d92d06p+5 -0x1.f73ed9de3b54cp+4 -0x1.d9cb93e446e72p+6 0x1.6965d82ed8036p+6 '
            '-0x1.e6e6e5ae40192p+6 0x1.67775901e7b24p+5 0x1.6965d82ed8039p+6 -0x1.4020982c9925ep+2'
        ),
        'pushforward_residual': (
            '0x0.0p+0 0x1.a131c1011d67ap-3 -0x1.3af979187f67cp-4 -0x1.a131c1011d67ap-3 '
            '0x0.0p+0 -0x1.b175aced2e4ccp-5 0x1.3af979187f67cp-4 0x1.b175aced2e4ccp-5 '
            '0x0.0p+0'
        ),
        'rotation_residual': (
            '0x0.0p+0 -0x1.a131c1011d67ap+1 0x1.3af979187f67ep+0 0x1.a131c1011d67ap+1 '
            '0x0.0p+0 0x1.b175aced2e4c8p-1 -0x1.3af979187f67ep+0 -0x1.b175aced2e4c8p-1 '
            '0x0.0p+0'
        ),
    },
}


@pytest.mark.parametrize("kind,p,k", list(PINNED_BITS))
def test_evaluators_keep_their_bits(kind, p, k):
    model = CostModel(kind, PIN_SAMPLES, p)
    q = PIN_POINTS[k]
    for name, want in PINNED_BITS[kind, p, k].items():
        got = getattr(model, name)(covering_map(q) if name == "rotation_residual" else q)
        assert [float(v).hex() for v in np.ravel(got)] == want.split(), name


def test_l2_values_allocate_one_dots_sized_array():
    # the flow's starts read l2's value at (n, r) dots: 1 - d^2 is formed
    # in place, so no second (n, r) array is held beside d * d
    n, r = 16, 20_000
    rng = np.random.default_rng(0)
    model = CostModel.l2_chordal(SampleSet.from_quaternions(normalize(rng.standard_normal((r, 4)))))
    X = normalize(rng.standard_normal((n, 4)))
    D = model._dots(X)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        model._value(X, D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * D.nbytes
