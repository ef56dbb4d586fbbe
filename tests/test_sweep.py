import csv
import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import checks, sweep
from rotavg.cli import main
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, canonicalize_sign, covering_map, normalize
from rotavg.solvers import multistart
from rotavg.sweep import (
    ALPHAS_PER_STACK,
    CSV_HEADER,
    RESIDUAL_TOL,
    CriticalRep,
    SweepRecord,
    _records,
    _root_residuals,
    _thetas,
    build_samples,
    critical_sets,
    emit_csv,
    parse_csv,
    positive_roots,
    q2_coeffs,
    q4_coeffs,
    root_count_transitions,
    theta_min_curve,
    tie_locations,
)


def test_build_samples():
    s = build_samples(0.5)
    assert len(s) == 3
    assert np.allclose(s.quaternions[0], [0, 1, 0, 0])
    r2 = math.sqrt(2.0) / 2.0
    assert np.allclose(s.quaternions[1], [r2, r2, 0, 0])
    assert np.allclose(s.quaternions[2], [math.cos(0.25), math.sin(0.25), 0, 0])
    with pytest.raises(ValueError):
        build_samples(3.2)


def test_even_polynomial():
    # an even polynomial in x is carried as its coefficients in W = x^2,
    # ascending: (x^2 - 1)^2 is (1, -2, 1), and its value at x is the
    # W-polynomial's at x^2
    w = (1.0, -2.0, 1.0)
    assert npoly.polyval(0.0**2, w) == 1.0
    assert npoly.polyval(1.0**2, w) == 0.0
    assert abs(npoly.polyval(0.5**2, w) - 0.5625) < 1e-15
    assert positive_roots(w) == [1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_positive_roots_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        positive_roots((bad, -1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        positive_roots((1.0, -1.0, bad))


def test_positive_roots_factored():
    # x^4 - 0.58 x^2 + 0.0441 = (x^2 - 0.09)(x^2 - 0.49)
    roots = positive_roots((0.0441, -0.58, 1.0))
    assert np.allclose(roots, [0.3, 0.7], atol=1e-12)


def test_positive_roots_quadruple():
    # at alpha = 0 the quartic degenerates to (2W - 1)^4: one positive root
    w = q4_coeffs(0.0)
    assert w == (1.0, -8.0, 24.0, -32.0, 16.0)
    roots = positive_roots(w)
    assert len(roots) == 1
    assert abs(roots[0] - math.sqrt(0.5)) < 1e-12


def test_positive_roots_tiny():
    # just past alpha = -pi/2 one root sits at ~1.6e-7; it must not be lost
    w = q2_coeffs(-1.571593)
    roots = positive_roots(w)
    assert len(roots) == 2
    assert roots[0] < 1e-5
    for r in roots:
        assert abs(npoly.polyval(r * r, w)) < 1e-10


# positive roots of the float coefficients at three alphas, from a 60-digit
# solve: p = 2 next to its double root at alpha = 0, and p = 4 with four
# roots and next to alpha = -pi/2
PINNED_ROOTS = (
    (q2_coeffs, -0.0015926535898600491, (0.70710633207529254345, 0.70710723029751725735)),
    (
        q4_coeffs,
        -0.5715926535898479,
        (0.38434108179239104301, 0.60290532731902833969, 0.98614014880340371448, 0.99996570432753185343),
    ),
    (q4_coeffs, -1.5715926535898266, (0.055634818787622846225, 0.99999998018324004797)),
)


@pytest.mark.parametrize("q, alpha, want", PINNED_ROOTS)
def test_positive_roots_match_60_digit_roots(q, alpha, want):
    roots = positive_roots(q(alpha))
    assert len(roots) == len(want)
    for got, x in zip(roots, want):
        assert abs(got - x) <= 1e-11 * x, (alpha, got, x)


@pytest.mark.parametrize(
    "alpha, want",
    # the small p = 2 root of the exact polynomial at alpha, from a 60-digit solve
    [(-1.5715926535898266, 1.5840793823075455e-7), (-1.5706152855, 8.195471310814782e-9)],
)
def test_q2_small_root_next_to_minus_half_pi(alpha, want):
    # the constant term has a fourfold zero at -pi/2: only a form without
    # cancellation there keeps the small root, to ~2e-13 relative
    small = positive_roots(q2_coeffs(alpha))[0]
    assert abs(small - want) <= 1e-10 * want


def test_q2_constant_term_matches_expanded_form():
    # the factored constant term below alpha = -pi/4 is the expanded one
    # up to the expansion's rounding
    for a in np.random.default_rng(5).uniform(-math.pi, math.pi, 2000):
        s, c = math.sin(0.5 * a), math.cos(0.5 * a)
        expanded = -16.0 * s**6 + 16.0 * s**5 * c + 28.0 * s**4 - 8.0 * s**2 + 1.0
        assert abs(q2_coeffs(a)[0] - expanded) < 1e-13


def test_q2_roots_certified_next_to_double_root():
    # within ~3e-4 of alpha = 0 the two p = 2 roots lie closer than the
    # coefficients resolve, so the constant term must be right to an ulp:
    # a few ulps off puts the roots ~1e-8 from the critical system, past
    # RESIDUAL_TOL
    for a in np.random.default_rng(8).uniform(-3e-4, 3e-4, 400):
        for x, res in _root_residuals(float(a), 2.0):
            assert res < RESIDUAL_TOL, (a, x, res)


def _reference_in_interval(roots, lo, hi):
    return [float(np.clip(r, lo, hi)) for r in roots if lo - 1e-12 <= r <= hi + 1e-12]


def _reference_quadratic(c, lo, hi, ztol):
    c0, c1, c2 = (np.float64(a) for a in c)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        v = -c1 / (2.0 * c2)
        return _reference_in_interval([v], lo, hi) if abs(npoly.polyval(v, c)) <= ztol else []
    q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
    return _reference_in_interval(sorted([q / c2, c0 / q]) if q else [0.0], lo, hi)


def _reference_newton(c, lo, hi, flo):
    dc = npoly.polyder(c)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f, d = float(npoly.polyval(x, c)), float(npoly.polyval(x, dc))
        if f == 0.0:
            break
        if (f < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        step = f / d if d else math.inf
        if abs(step) <= 4e-16 * abs(x):
            return x - step
        xn = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        if xn == x:
            break
        x = xn
    return x


def _reference_roots_on(c, lo, hi, ztol):
    c = np.trim_zeros(np.asarray(c, dtype=float), "b")
    if c.size <= 1:
        return []
    if c.size == 2:
        return _reference_in_interval([-c[0] / c[1]], lo, hi)
    if c.size == 3:
        roots = _reference_quadratic(c, lo, hi, ztol)
    else:
        nodes = [lo] + sorted(_reference_roots_on(npoly.polyder(c), lo, hi, ztol)) + [hi]
        vals = [float(npoly.polyval(t, c)) for t in nodes]
        n = len(nodes)
        cross = [vals[i] * vals[i + 1] < 0.0 for i in range(n - 1)]
        roots = []
        for i in range(n):
            flanked = (i > 0 and cross[i - 1]) or (i < n - 1 and cross[i])
            if abs(vals[i]) <= ztol and not flanked:
                roots.append(nodes[i])
        for i in range(n - 1):
            if cross[i]:
                roots.append(_reference_newton(c, nodes[i], nodes[i + 1], vals[i]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


def _reference_positive_roots(w):
    """The isolator on numpy arrays and scalars (polyval, polyder,
    trim_zeros, np.sqrt): the same algorithm as positive_roots, closed form
    at degree 2 in W and safeguarded Newton above, so its roots must match
    bit for bit."""
    w = np.asarray(w, dtype=float)
    ztol = 1e-14 * max(1.0, float(np.max(np.abs(w))))
    return [float(math.sqrt(r)) for r in _reference_roots_on(w, 0.0, 1.0, ztol) if r > 0.0]


def test_positive_roots_bits_match_reference():
    grid = np.arange(-math.pi, math.pi + 0.005, 0.01)
    rng = np.random.default_rng(9)
    random_alphas = rng.uniform(-math.pi, math.pi, 2000)
    for q in (q2_coeffs, q4_coeffs):
        alphas = [grid, random_alphas, math.pi / 24 * np.arange(-24, 25)]
        if q is q4_coeffs:
            alphas += [np.linspace(a - 1e-6, a + 1e-6, 201) for a in QUARTIC_DOUBLE_ROOTS]
        for a in np.concatenate(alphas):
            w = q(float(a))
            assert positive_roots(w) == _reference_positive_roots(w), (q.__name__, a)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((0.25, -1.0, 0.0, 0.0), [0.5]),  # trailing zeros
        ((3.0,), []),  # nonzero constant
        ((3.0, 0.0), []),  # nonzero constant with a trailing zero
        ((-0.25, 1.0), [0.5]),  # linear in W
        ((0.0, -0.25, 1.0), [0.5]),  # W (W - 1/4): the root W = 0 is dropped
        ((0.25, -1.25, 1.0), [0.5, 1.0]),  # (W - 1/4)(W - 1)
        ((1.0, -2.0, 1.0), [1.0]),  # (W - 1)^2: a double root at W = 1
        ((0.0, 0.0, 1.0), []),  # W^2: a double root at W = 0
        ((-1, 4), [0.5]),  # integer coefficients still give float roots
    ],
)
def test_positive_roots_edge_cases(coeffs, expected):
    roots = positive_roots(coeffs)
    assert roots == _reference_positive_roots(coeffs)
    assert np.allclose(roots, expected, rtol=0.0, atol=1e-12)
    assert all(type(r) is float for r in roots)


def _frozen_newton_root(c, dc, lo, hi, flo):
    # sweep._newton_root as it stood before its Horner pairs were formed
    # once per call: the reference for the kernel's bits
    neg = flo < 0.0
    head, tail = c[-2:0:-1], dc[-2::-1]
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f, d = c[-1], dc[-1]
        for a, b in zip(head, tail):
            f, d = a + f * x, b + d * x
        f = c[0] + f * x
        if f == 0.0:
            break
        if (f < 0.0) == neg:
            lo = x
        else:
            hi = x
        step = f / d if d else math.inf
        if abs(step) <= 4e-16 * abs(x):
            return x - step
        xn = x - step
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if xn == x:
            break
        x = xn
    return x


def _frozen_real_roots_on(c, lo, hi, ztol):
    # sweep._real_roots_on as it stood before the chain ran bottom-up
    # without recursion; the closed-form helpers are the module's, whose
    # bits test_positive_roots_bits_match_reference pins
    while c and c[-1] == 0.0:
        c = c[:-1]
    if len(c) <= 1:
        return []
    if len(c) == 2:
        return sweep._in_interval([-c[0] / c[1]], lo, hi)
    if len(c) == 3:
        roots = sweep._quadratic_roots(c, lo, hi, ztol)
    else:
        dc = sweep._derivative(c)
        nodes = [lo] + _frozen_real_roots_on(dc, lo, hi, ztol) + [hi]
        vals = [sweep._horner(c, t) for t in nodes]
        n = len(nodes)
        cross = [vals[i] * vals[i + 1] < 0.0 for i in range(n - 1)]
        roots = []
        for i in range(n):
            flanked = (i > 0 and cross[i - 1]) or (i < n - 1 and cross[i])
            if abs(vals[i]) <= ztol and not flanked:
                roots.append(nodes[i])
        for i in range(n - 1):
            if cross[i]:
                roots.append(_frozen_newton_root(c, dc, nodes[i], nodes[i + 1], vals[i]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


@st.composite
def _w_polynomials(draw):
    """W-polynomials of degree 2 to 8: random coefficients, or a scaled
    product of roots that may sit at W = 0 or 1, cluster within 1e-8 of a
    base root or repeat it."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        c = draw(st.lists(st.floats(-50.0, 50.0), min_size=n + 1, max_size=n + 1))
        return tuple(c) if any(c) else (1.0, *c[1:])
    base = draw(st.floats(-0.2, 1.2))
    root = st.one_of(st.sampled_from((0.0, 1.0, base)), st.floats(-0.2, 1.2),
                     st.floats(-1e-8, 1e-8).map(lambda e: base + e))
    roots = draw(st.lists(root, min_size=n, max_size=n))
    return tuple((draw(st.floats(0.5, 50.0)) * npoly.polyfromroots(roots)).tolist())


def _alpha_polynomials():
    """q2_coeffs or q4_coeffs at a random alpha, or within 1e-6 of a p = 4
    double root, of -pi/2 or of 0."""
    near = st.sampled_from((*QUARTIC_DOUBLE_ROOTS, -math.pi / 2, 0.0)).flatmap(
        lambda a: st.floats(a - 1e-6, a + 1e-6))
    alpha = st.one_of(st.floats(-math.pi, math.pi), near)
    return st.tuples(st.sampled_from((q2_coeffs, q4_coeffs)), alpha).map(lambda qa: qa[0](qa[1]))


@settings(max_examples=500, deadline=None)
@given(w=st.one_of(_w_polynomials(), st.deferred(_alpha_polynomials)))
def test_positive_roots_keep_the_frozen_kernels_bits(w):
    ztol = 1e-14 * max(1.0, max(abs(a) for a in w))
    want = [math.sqrt(r) for r in _frozen_real_roots_on(w, 0.0, 1.0, ztol) if r > 0.0]
    assert _hex(positive_roots(w)) == _hex(want), w


def test_positive_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError, match="identically zero"):
        positive_roots((0.0, 0.0, 0.0))


def _hex(roots):
    return [x.hex() for x in roots]


def _padded(lists):
    """Lists of roots as one array, each row padded with NaN to the longest."""
    m = max(map(len, lists), default=0)
    return np.array([x + [math.nan] * (m - len(x)) for x in lists]).reshape(len(lists), m)


def test_stacked_roots_bits_match_positive_roots(monkeypatch):
    # the alpha sets of test_positive_roots_bits_match_reference, the check
    # family's edge angles and the ends and centre of the alpha range, each
    # set in one _roots_of call with every batch stacked: every row must
    # hold positive_roots' bits, padded with NaN
    monkeypatch.setattr(sweep, "STACKED_ROOTS_MIN", 1)
    grid = np.arange(-math.pi, math.pi + 0.005, 0.01)
    random_alphas = np.random.default_rng(9).uniform(-math.pi, math.pi, 2000)
    edges = [checks.POLY_EDGE_ALPHAS, [0.0, math.pi, -math.pi, -math.pi / 2]]
    for p, q in ((2.0, q2_coeffs), (4.0, q4_coeffs)):
        alphas = [grid, random_alphas, math.pi / 24 * np.arange(-24, 25), *edges]
        if q is q4_coeffs:
            alphas += [np.linspace(a - 1e-6, a + 1e-6, 201) for a in QUARTIC_DOUBLE_ROOTS]
        for batch in alphas:
            got = sweep._roots_of(batch, p)
            assert got.tobytes() == _padded([positive_roots(q(float(a))) for a in batch]).tobytes(), q.__name__


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_stacked_roots_of_other_polynomials(k):
    # W-polynomials of k coefficients with a nonzero leading one: random
    # ones, and products of roots drawn from a few values, so that double
    # and triple roots, roots at W = 0 and 1 and roots beside them all occur.
    # The stacked finder keeps each row's W-roots in [0, 1] to the bit, and
    # their square roots above 0 are positive_roots'
    rng = np.random.default_rng(k)
    rows = [rng.standard_normal(k) for _ in range(300)]
    for values in ([0.0, 0.25, 0.5, 1.0, 1e-9, 0.3], [-0.1, 0.2, 0.2 + 1e-11, 0.7, 1.0 + 1e-13]):
        rows += [rng.uniform(0.5, 50.0) * npoly.polyfromroots(rng.choice(values, k - 1)) for _ in range(300)]
    W = np.array(rows)
    ztol = 1e-14 * np.maximum(1.0, np.abs(W).max(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = sweep._stacked_roots_on(W, ztol)
    for w, tol, row in zip(W.tolist(), ztol.tolist(), got.tolist()):
        want = sweep._real_roots_on(w, 0.0, 1.0, tol)
        assert _hex(row) == _hex(want + [math.nan] * (got.shape[1] - len(want))), w
        assert _hex(np.sqrt([r for r in want if r > 0.0]).tolist()) == _hex(positive_roots(tuple(w))), w


def test_roots_of_chooses_its_path_by_size(monkeypatch):
    # one positive_roots call per alpha below STACKED_ROOTS_MIN, none from
    # there on; a batch of ROOTS_PER_STACK + 5 leaves a tail of five, whose
    # rows join the stacked ones in the one padded array
    calls = []
    scalar = sweep.positive_roots
    monkeypatch.setattr(sweep, "positive_roots", lambda poly: calls.append(poly) or scalar(poly))
    for n, want in ((sweep.STACKED_ROOTS_MIN - 1, sweep.STACKED_ROOTS_MIN - 1), (sweep.STACKED_ROOTS_MIN, 0),
                    (sweep.ROOTS_PER_STACK + 5, 5)):
        for p, q in ((2.0, q2_coeffs), (4.0, q4_coeffs)):
            calls.clear()
            alphas = np.linspace(-math.pi, math.pi, n)
            roots = sweep._roots_of(alphas, p)
            assert len(calls) == want
            assert roots.tobytes() == _padded([scalar(q(a)) for a in alphas]).tobytes()
            assert roots.shape == (n, 2 if p == 2.0 else 4)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_candidate_stack_same_on_both_root_paths(monkeypatch, p):
    # every root batch stacked (threshold 1) or every one one alpha at a
    # time (threshold past a full batch): the roots, points, live masks,
    # costs and residuals agree byte for byte, NaN padding included, on the
    # default grid and 2000 random alphas
    random_alphas = np.random.default_rng(12).uniform(-math.pi, math.pi, 2000)
    for alphas in (np.arange(-math.pi, math.pi + 0.005, 0.01), random_alphas):
        found = []
        for threshold in (1, sweep.ROOTS_PER_STACK + 1):
            monkeypatch.setattr(sweep, "STACKED_ROOTS_MIN", threshold)
            found.append([a.tobytes() for a in sweep._candidate_stack(alphas, p)])
        assert found[0] == found[1]


# the labels of the plus and minus branches of each root, by root count
_REFERENCE_NAMES = {
    1: ("red", "blue"),
    2: ("green", "pink", "red", "blue"),
    3: ("green", "pink", "yellow", "violet", "red", "blue"),
    4: ("green", "pink", "yellow", "violet", "maroon", "gold", "red", "blue"),
}


def _one_alpha_candidates(alpha, p):
    """One alpha's roots from one positive_roots call, its candidates as
    (column, point) pairs, and their costs and pushforward residual norms
    from one CostModel over them. Column 0 is the black point (0,0,1,0);
    root i's branches (y, x, 0, 0) and (-y, x, 0, 0) take columns 1 + 2i
    and 2 + 2i, the second only where y >= 1e-12; y is sqrt(max(1 - x^2,
    0)), or for p = 2 with two roots the other root's x."""
    roots = positive_roots((q2_coeffs if p == 2.0 else q4_coeffs)(alpha))
    found = [(0, (0.0, 0.0, 1.0, 0.0))]
    for i, x in enumerate(roots):
        y = roots[1 - i] if p == 2.0 and len(roots) == 2 else math.sqrt(max(1.0 - x * x, 0.0))
        found.append((1 + 2 * i, (y, x, 0.0, 0.0)))
        if y >= 1e-12:
            found.append((2 + 2 * i, (-y, x, 0.0, 0.0)))
    model = CostModel.lp_chordal(build_samples(alpha), p)
    X = np.array([q for _, q in found])
    S = model.pushforward_residual(X).reshape(-1, 9)
    return roots, found, model.value(X).tolist(), np.sqrt(np.vecdot(S, S)).tolist()


def _assert_arrays_match_one_alpha_reference(alphas, p):
    R, P, live, costs, res = sweep._candidate_stack(alphas, p)
    pairs, recs = _root_residuals(alphas, p), _records(alphas, p)
    want_pairs, counts = [], []
    assert R.shape[0] == len(recs) == len(alphas)
    assert P.shape == (*live.shape, 4) == (len(alphas), 1 + 2 * R.shape[1], 4)
    for k, alpha in enumerate(alphas):
        roots, found, cost, r = _one_alpha_candidates(float(alpha), p)
        cols = [col for col, _ in found]
        counts.append(len(roots))
        assert _hex(R[k, : len(roots)].tolist()) == _hex(roots) and np.isnan(R[k, len(roots) :]).all()
        assert np.flatnonzero(live[k]).tolist() == cols
        assert P[k, cols].tobytes() == np.array([q for _, q in found]).tobytes()
        assert _hex(costs[k, cols].tolist()) == _hex(cost) and _hex(res[k, cols].tolist()) == _hex(r)
        assert np.isnan(costs[k][~live[k]]).all() and np.isnan(res[k][~live[k]]).all()
        want_pairs += [(x, min(rj for col, rj in zip(cols, r) if col in (1 + 2 * i, 2 + 2 * i)))
                       for i, x in enumerate(roots)]
        # the record: the black point and every branch below RESIDUAL_TOL
        sets = [CriticalRep("black", None, found[0][1], cost[0], r[0])]
        for (col, q), c, rj in zip(found[1:], cost[1:], r[1:]):
            if rj < RESIDUAL_TOL:
                sets.append(CriticalRep(_REFERENCE_NAMES[len(roots)][col - 1], roots[(col - 1) // 2], q, c, rj))
        rec = recs[k]
        assert _hex(rec.roots) == _hex(roots)
        assert [(*dataclasses.astuple(rep)[:3], rep.cost.hex(), rep.residual_norm.hex()) for rep in rec.sets] == [
            (*dataclasses.astuple(rep)[:3], rep.cost.hex(), rep.residual_norm.hex()) for rep in sets]
        labels = _reference_winners(sets, sweep.TIE_TOL)
        assert rec.min_set_label == tuple(labels)
        assert _hex(rec.theta_min) == [_theta_one_row(rep.q).hex() for rep in sets if rep.label in labels]
    assert R.shape[1] == max(counts)
    assert [(x.hex(), b.hex()) for x, b in pairs] == [(x.hex(), b.hex()) for x, b in want_pairs]


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_candidate_arrays_match_one_alpha_reference(p):
    # the arrays of _candidate_stack, _root_residuals and _records against
    # one positive_roots call, explicit branches and one CostModel per alpha,
    # bit for bit: on the default grid, 2000 random alphas, the check
    # family's edge angles and the ends, centre and quarter turns of the range
    batches = (
        np.arange(-math.pi, math.pi + 0.005, 0.01),
        np.random.default_rng(14).uniform(-math.pi, math.pi, 2000),
        checks.POLY_EDGE_ALPHAS,
        (-math.pi, -math.pi / 2, -math.pi / 4, 0.0, math.pi),
    )
    for alphas in batches:
        _assert_arrays_match_one_alpha_reference(alphas, p)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_no_alphas_give_no_records(p):
    assert theta_min_curve(p, []) == []
    assert _root_residuals([], p) == []
    assert sweep._roots_of([], p).shape == (0, 0)


def test_q2_coeffs_quarter():
    # at alpha = -pi/2: A = 20, constant term 0
    c = q2_coeffs(-math.pi / 2)
    assert len(c) == 3
    assert abs(c[0]) < 1e-13
    assert abs(c[1] + 20.0) < 1e-12 and abs(c[2] - 20.0) < 1e-12


# (alpha, q2_coeffs, q4_coeffs), every float as its hex literal: both ends
# of the alpha range, -pi/2 and 1e-6 past it, the floats on either side of
# -pi/4 (where q2_coeffs switches between the product form of its constant
# term, below, and the expansion, above), next to 0, at 0, and one random alpha
PINNED_COEFFS = (
    ("-0x1.921fb54442d18p+1", ("0x1.3fffffffffffep+2", "-0x1.9p+6", "0x1.9p+6"),
     ("0x1.ffffffffffffcp-1", "-0x1.4p+5", "0x1.6p+6", "-0x1.0p+6", "0x1.0p+4")),
    ("0x1.921fb54442d18p+1", ("0x1.4000000000002p+2", "-0x1.9p+6", "0x1.9p+6"),
     ("0x1.0000000000002p+0", "-0x1.4000000000001p+5", "0x1.6000000000001p+6", "-0x1.0p+6", "0x1.0p+4")),
    ("-0x1.921fb54442d18p+0", ("0x1.4p-210", "-0x1.3fffffffffffep+4", "0x1.3fffffffffffep+4"),
     ("0x0.0p+0", "-0x1.0p-48", "0x1.0p-46", "-0x1.0000000000004p+4", "0x1.0p+4")),
    ("-0x1.921fa47d4b30dp+0", ("0x1.82db29def3ac5p-80", "-0x1.3fffcdab1b50cp+4", "0x1.3fffcdab1b50cp+4"),
     ("0x1.197p-40", "-0x1.5fdp-36", "0x1.0c6fb338p-16", "-0x1.000010c6f9d39p+4", "0x1.0p+4")),
    ("-0x1.921fb54442d19p-1", ("0x1.0789332093266p-2", "-0x1.078933209326ap+1", "0x1.078933209326ap+1"),
     ("0x1.41e24cc824c9ap-1", "-0x1.e75fd32e27da6p+2", "0x1.bb739ffe0f54p+4", "-0x1.257d86660310dp+5", "0x1.0p+4")),
    ("-0x1.921fb54442d17p-1", ("0x1.078933209326ap-2", "-0x1.0789332093268p+1", "0x1.0789332093268p+1"),
     ("0x1.41e24cc824c9cp-1", "-0x1.e75fd32e27daap+2", "0x1.bb739ffe0f54p+4", "-0x1.257d86660310dp+5", "0x1.0p+4")),
    ("0x1.2599ed7c6fbd2p-14", ("0x1.ffffffabd1928p-1", "-0x1.ffffffabd1928p+1", "0x1.ffffffabd1928p+1"),
     ("0x1.0000000000609p+0", "-0x1.fff23c89bc7a4p+2", "0x1.7ff487d2a2a5fp+4", "-0x1.fff6d31103343p+4", "0x1.0p+4")),
    ("0x0.0p+0", ("0x1.0p+0", "-0x1.0p+2", "0x1.0p+2"),
     ("0x1.0p+0", "-0x1.0p+3", "0x1.8p+4", "-0x1.0p+5", "0x1.0p+4")),
    ("0x1.b89ac06c69d18p-1", ("0x1.1c31451ed001ep-1", "-0x1.27532e823f66ep+1", "0x1.27532e823f66ep+1"),
     ("0x1.98e898950399bp+0", "0x1.e6ff6c2288fcp-1", "-0x1.43e96f8801e6cp+3", "-0x1.ad13ae7cf838p+1", "0x1.0p+4")),
)


@pytest.mark.parametrize("alpha, w2, w4", PINNED_COEFFS)
def test_w_coefficients_keep_their_bits(alpha, w2, w4):
    alpha = float.fromhex(alpha)
    assert [a.hex() for a in q2_coeffs(alpha)] == [float.fromhex(a).hex() for a in w2]
    assert [a.hex() for a in q4_coeffs(alpha)] == [float.fromhex(a).hex() for a in w4]
    assert all(type(a) is float for a in q2_coeffs(alpha) + q4_coeffs(alpha))


def test_roots_satisfy_polynomials():
    rng = np.random.default_rng(30)
    for _ in range(25):
        a = float(rng.uniform(-math.pi, math.pi))
        for w in (q2_coeffs(a), q4_coeffs(a)):
            for r in positive_roots(w):
                assert abs(npoly.polyval(r * r, w)) < 1e-9


def test_critical_sets_black():
    for a in (-math.pi, -1.2, 0.0, 0.7, math.pi):
        for p in (2.0, 4.0):
            sets = critical_sets(a, p)
            black = next(r for r in sets if r.label == "black")
            assert black.x_root is None
            assert black.q == (0.0, 0.0, 1.0, 0.0)
            assert black.residual_norm < 1e-12
            if p == 2.0:
                assert black.cost == 24.0


def test_critical_sets_at_minus_pi():
    sets = {r.label: r for r in critical_sets(-math.pi, 2.0)}
    assert set(sets) == {"black", "pink", "red"}
    assert abs(sets["pink"].cost - 20.94427190999916) < 1e-12
    assert abs(sets["red"].cost - 3.0557280900008417) < 1e-12
    assert abs(sets["red"].x_root - 0.9732489894677302) < 1e-12
    for rep in sets.values():
        assert rep.residual_norm < 1e-8


def test_theta_min_curve_records():
    grid = [-3.0, -1.0, 0.5]
    recs = theta_min_curve(2.0, grid)
    assert [r.alpha for r in recs] == grid
    for r in recs:
        assert r.p == 2.0
        assert len(r.theta_min) == 1  # the quadratic cost never ties
        assert len(r.roots) == 2
        labels = {s.label for s in r.sets}
        assert "black" in labels and r.min_set_label[0] in labels


@pytest.mark.parametrize("p", [2.4, 1.6, 3.7, 4.4, 2.0 + 1e-12])
def test_sweep_refuses_p_that_only_rounds_to_2_or_4(p):
    # closed-form polynomials exist for p = 2 and p = 4 alone: an Lp model
    # at another p read at their roots certifies none of them
    with pytest.raises(ValueError, match="only for p in"):
        critical_sets(0.3, p)
    with pytest.raises(ValueError, match="only for p in"):
        theta_min_curve(p, [0.3])


# the p = 4 root-count transitions: the double roots of the degree-8
# polynomial, from a 50-digit solve of P = P' = 0 in (W, alpha)
QUARTIC_DOUBLE_ROOTS = (-1.0231548901694783, -0.5476414366254183)


@pytest.fixture(scope="module")
def default_records():
    """The CLI's default alpha grid, swept once per p."""
    grid = np.arange(-math.pi, math.pi + 0.005, 0.01)
    return {p: theta_min_curve(p, grid) for p in (2.0, 4.0)}


def _reference_winners(sets, tol):
    """The dedup rule one pair at a time, np.linalg.norm of each difference
    of rotation matrices, then the cost-minimal classes."""
    classes = []
    for rep in sets:
        R = covering_map(normalize(np.asarray(rep.q)))
        if all(np.linalg.norm(R - Rk) >= 1e-8 for _, Rk in classes):
            classes.append((rep, R))
    best = min(rep.cost for rep, _ in classes)
    return [rep.label for rep, _ in classes if rep.cost <= best + tol]


def test_winners_match_pairwise_rule(default_records):
    # the one stacked distance matrix per chunk keeps the labels of the
    # per-pair rule, at the tolerance the records read winners with
    grid = np.arange(-math.pi, math.pi + 0.005, 0.01)
    for p, recs in default_records.items():
        won = sweep._emitted(sweep._candidate_stack(grid, p))[1]
        for rec, w in zip(recs, won):
            names = sweep._LABELS[len(rec.roots)]
            assert [names[c] for c in np.flatnonzero(w)] == _reference_winners(rec.sets, sweep.TIE_TOL)


def _theta_one_row(q4):
    """The angle of one quaternion, normalized and sign-fixed on its own."""
    q = canonicalize_sign(normalize(np.asarray(q4, dtype=float)))
    return 2.0 * math.atan2(q[1], q[0])


def test_stacked_thetas_match_one_row_calls(default_records):
    for recs in default_records.values():
        qs = [rep.q for rec in recs for rep in rec.sets]
        assert [t.hex() for t in _thetas(qs)] == [_theta_one_row(q).hex() for q in qs]


def test_chunked_grid_matches_one_alpha_records(monkeypatch):
    # a grid over more than one stacked model: every record equals the
    # record of its alpha alone, residual norms to the bit, and no model
    # forms a rotation matrix
    built = []
    init = SampleSet.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    grid = np.linspace(-math.pi, math.pi, ALPHAS_PER_STACK + 77)
    with monkeypatch.context() as m:
        m.setattr(SampleSet, "__init__", recording)
        recs = theta_min_curve(4.0, grid)
    assert len(built) == 2
    assert not any("rotations" in vars(s) for s in built)
    for rec, a in zip(recs, grid):
        (one,) = _records([a], 4.0)
        assert rec == one
        assert [r.residual_norm.hex() for r in rec.sets] == [r.residual_norm.hex() for r in one.sets]


def test_tie_search_builds_no_records(default_records):
    # the tie search reads the family through records of its own, and the
    # sweep's records only set the window: records stripped of their
    # winners give the same ties
    sweep._events.cache_clear()
    _assert_quartic_tie(tie_locations(default_records[4.0]))
    bare = [dataclasses.replace(rec, theta_min=(), min_set_label=()) for rec in default_records[4.0]]
    assert tie_locations(bare) == tie_locations(default_records[4.0])


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_array_winners_match_one_candidate_at_a_time(default_records, monkeypatch, p):
    # the winners read from the candidate arrays, as the records hold them,
    # against the reference one candidate at a time, through both root
    # paths: on the default grid, 2000 random alphas, the check family's
    # edge angles, the ends, centre and quarter turns of the range, and
    # every alpha the p = 4 event table evaluates
    stack = sweep._candidate_stack
    sweep._events.cache_clear()
    visited = []
    with monkeypatch.context() as m:
        m.setattr(sweep, "_candidate_stack", lambda alphas, q: visited.extend(alphas) or stack(alphas, q))
        sweep._events(4.0)
        # the records at -pi, at the 20 sides of the ten events and at pi,
        # 42 midpoints of the one interval whose end labels differ, and the
        # sets at its alpha; a warm table reads no candidate
        assert len(visited) == 22 + 42 + 1
        tie_locations(default_records[4.0])
    assert len(visited) == 22 + 42 + 1
    beside = [e + sign * 10.0**-k for e in sweep._events(4.0).alphas for k in range(2, 13) for sign in (-1.0, 1.0)]
    batches = (
        np.arange(-math.pi, math.pi + 0.005, 0.01),
        np.random.default_rng(15).uniform(-math.pi, math.pi, 2000),
        checks.POLY_EDGE_ALPHAS,
        (-math.pi, -math.pi / 2, -math.pi / 4, 0.0, math.pi),
        beside,
        visited,
    )
    for alphas in batches:
        want = [_reference_record(float(a), p) for a in alphas]
        for threshold in (1, sweep.ROOTS_PER_STACK + 1):
            monkeypatch.setattr(sweep, "STACKED_ROOTS_MIN", threshold)
            for rec, (_, sets, _, thetas, want_labels) in zip(_records(alphas, p), want, strict=True):
                assert rec.min_set_label == want_labels, (p, rec.alpha)
                assert _hex(rec.theta_min) == _hex(thetas)
                assert [rep.q for rep in rec.sets if rep.label in want_labels] == [
                    rep.q for rep in sets if rep.label in want_labels]


def _assert_quartic_transitions(trans):
    assert len(trans) == 2
    (a1, b1, c1), (a2, b2, c2) = trans
    assert (b1, c1) == (2, 4) and (b2, c2) == (4, 2)
    assert abs(a1 - QUARTIC_DOUBLE_ROOTS[0]) < 1e-12
    assert abs(a2 - QUARTIC_DOUBLE_ROOTS[1]) < 1e-12


def _assert_quartic_tie(ties):
    assert len(ties) == 1
    a, labels = ties[0]
    assert labels == ("blue", "yellow")
    assert abs(a + math.pi / 4) < 1e-9


def _reference_record(alpha, p):
    """One alpha's record, one candidate at a time: a one-point value and
    pushforward_residual call per candidate, one covering_map per rep.
    Returns (roots, sets, residual norms, theta_min, min_set_label)."""
    model = CostModel.lp_chordal(build_samples(alpha), p)
    roots = positive_roots((q2_coeffs if p == 2.0 else q4_coeffs)(alpha))
    names = {
        1: ("red", "blue"),
        2: ("green", "pink", "red", "blue"),
        3: ("green", "pink", "yellow", "violet", "red", "blue"),
        4: ("green", "pink", "yellow", "violet", "maroon", "gold", "red", "blue"),
    }
    qb = np.array([0.0, 0.0, 1.0, 0.0])
    sets = [CriticalRep("black", None, tuple(qb.tolist()), model.value(qb), 0.0)]
    res = [float(np.linalg.norm(model.pushforward_residual(qb)))]
    for i, x in enumerate(roots):
        # p = 2: the roots pair as W and 1 - W, so each root's y is the other's x
        y = roots[1 - i] if p == 2.0 and len(roots) == 2 else math.sqrt(max(1.0 - x * x, 0.0))
        for b, sgn in enumerate((1.0,) if y < 1e-12 else (1.0, -1.0)):
            q = np.array([sgn * y, x, 0.0, 0.0])
            r = float(np.linalg.norm(model.pushforward_residual(q)))
            if r < RESIDUAL_TOL:
                sets.append(CriticalRep(names[len(roots)][2 * i + b], x, tuple(q.tolist()), model.value(q), r))
                res.append(r)
    classes = []
    for rep in sets:
        R = covering_map(normalize(np.asarray(rep.q)))
        if all(np.linalg.norm(R - Rk) >= 1e-8 for _, Rk in classes):
            classes.append((rep, R))
    best = min(rep.cost for rep, _ in classes)
    win = [rep for rep, _ in classes if rep.cost <= best + 1e-10]
    thetas = tuple(_theta_one_row(rep.q) for rep in win)
    return tuple(roots), tuple(sets), res, thetas, tuple(rep.label for rep in win)


def _assert_matches_reference(rec):
    roots, sets, res, thetas, labels = _reference_record(rec.alpha, rec.p)
    assert rec.roots == roots
    # labels, q and cost (CriticalRep equality leaves the residual out)
    assert rec.sets == sets, (rec.alpha, rec.p)
    assert rec.theta_min == thetas
    assert rec.min_set_label == labels
    for rep, want in zip(rec.sets, res):
        assert abs(rep.residual_norm - want) <= 1e-15 * max(1.0, want)


def test_record_matches_one_candidate_at_a_time(default_records):
    rng = np.random.default_rng(13)
    for p in (2.0, 4.0):
        for rec in default_records[p]:
            _assert_matches_reference(rec)
        for rec in _records(rng.uniform(-math.pi, math.pi, 200), p):
            _assert_matches_reference(rec)


def _bisect_one_at_a_time(p, key, width):
    """Each event-free interval of the power-p family, [-pi, e0 - d],
    [e + d, e' - d], ..., [e_last + d, pi] with d = EVENT_DELTA, whose ends'
    keys differ, bisected one interval after the other, with a full
    one-alpha record at each end and each midpoint."""
    ends = [-math.pi, *sweep._events(p).sides, math.pi]
    out = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        before, after = key(_records([lo], p)[0]), key(_records([hi], p)[0])
        if lo < hi and before != after:
            while abs(hi - lo) > width:
                mid = 0.5 * (lo + hi)
                if key(_records([mid], p)[0]) == before:
                    lo = mid
                else:
                    hi = mid
            out.append((0.5 * (lo + hi), before, after))
    return out


def test_root_count_transitions_need_no_records(monkeypatch):
    # the transitions are the pinned double roots, in grid order, with the
    # counts before and after them; a warm table reads no candidate
    sweep._events(4.0)
    grid = np.linspace(-1.2, -0.4, 81)
    up = [(QUARTIC_DOUBLE_ROOTS[0], 2, 4), (QUARTIC_DOUBLE_ROOTS[1], 4, 2)]
    down = [(QUARTIC_DOUBLE_ROOTS[1], 2, 4), (QUARTIC_DOUBLE_ROOTS[0], 4, 2)]
    for recs, want in ((theta_min_curve(4.0, grid), up), (theta_min_curve(4.0, grid[::-1]), down)):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(sweep, "_candidate_stack", lambda *args: calls.append(args))
            got = root_count_transitions(recs)
        assert calls == []
        assert [(b, c) for _, b, c in got] == [(b, c) for _, b, c in want]
        assert all(abs(a - root) <= 1e-12 for (a, _, _), (root, _, _) in zip(got, want, strict=True))


def _reference_ties(p):
    """The family's ties one interval and one record at a time: the leading
    label bisected to 1e-13 in each event-free interval whose ends' labels
    differ, then the winners within 1e-9 at each bisected alpha, kept where
    they hold both swapped labels and two rotations."""
    out = []
    for a, prev, cur in _bisect_one_at_a_time(p, lambda rec: rec.min_set_label[0], 1e-13):
        sets = _records([a], p)[0].sets
        labels = _reference_winners(sets, 1e-9)
        Rs = [covering_map(normalize(np.asarray(rep.q))) for rep in sets if rep.label in labels]
        if {prev, cur} <= set(labels) and any(np.linalg.norm(Ra - Rb) > 1e-6 for Ra in Rs for Rb in Rs):
            out.append((a, tuple(sorted(labels))))
    return out


def _hex_ties(ties):
    return [(a.hex(), labels) for a, labels in ties]


def test_lockstep_ties_match_one_bracket_at_a_time(default_records, monkeypatch):
    # each grid's ties are the family's, bisected one interval at a time:
    # one for p = 4, none for p = 2, with the same bits on every grid
    grid = np.linspace(-1.2, -0.4, 81)
    for p in (2.0, 4.0):
        want = _hex_ties(_reference_ties(p))
        assert len(want) == (p == 4.0)
        for recs in (default_records[p], theta_min_curve(p, grid), theta_min_curve(p, grid[::-1])):
            assert _hex_ties(tie_locations(recs)) == want
    # a cold p = 4 table reads the leaders at its interval ends in one
    # stacked call, takes 42 lockstep steps in its one qualifying interval
    # and reads the winners at its alpha in one more; a warm one makes no
    # call. Per grid, bisecting every bracket took 38 calls on each sweep
    calls = []
    stack = sweep._candidate_stack
    sweep._events.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(sweep, "_candidate_stack", lambda *args: calls.append(args) or stack(*args))
        _assert_quartic_tie(tie_locations(default_records[4.0]))
        assert len(calls) == 1 + 42 + 1
        _assert_quartic_tie(tie_locations(default_records[4.0]))
    assert len(calls) == 1 + 42 + 1


def test_root_count_transitions(default_records):
    assert root_count_transitions(default_records[2.0]) == []
    _assert_quartic_transitions(root_count_transitions(default_records[4.0]))


def test_tie_locations(default_records):
    assert tie_locations(default_records[2.0]) == []
    _assert_quartic_tie(tie_locations(default_records[4.0]))


def test_transitions_and_ties_on_other_grids():
    # a linspace window: the same events, found from the records alone
    recs = theta_min_curve(4.0, np.linspace(-1.2, -0.4, 81))
    _assert_quartic_transitions(root_count_transitions(recs))
    _assert_quartic_tie(tie_locations(recs))
    # one record has no neighbours to compare with
    one = theta_min_curve(4.0, [-math.pi / 4])
    assert root_count_transitions(one) == []
    assert tie_locations(one) == []


def test_transitions_do_not_depend_on_grid_direction():
    # each transition is bisected between the last grid point on one side of
    # a double root and the first on the other, so ascending and descending
    # grids must land on the same double root
    grid = np.linspace(-1.2, -0.4, 81)
    for recs in (theta_min_curve(4.0, grid), theta_min_curve(4.0, grid[::-1])):
        found = sorted(a for a, _, _ in root_count_transitions(recs))
        assert len(found) == 2
        for a, root in zip(found, QUARTIC_DOUBLE_ROOTS):
            assert abs(a - root) < 1e-9


# the two F20 tangencies with a double root inside (0, 1), where two real
# roots touch and the count stays: 4 atan(t) at two roots t of the degree-20
# factor, from a 60-digit mpmath polyroots solve
QUARTIC_TANGENCIES = (
    -0.66849265218463232081606558118606217860842209412208,
    0.51443695200754133386190218750551535595864307818366,
)

# the discriminant in W of each power's polynomial, and its values at W = 0
# and W = 1, at t = tan(alpha/4), derived with sympy: a constant, times each
# factor of sweep._EVENT_FACTORS[p] to the power listed in its place, times
# (1 + t^2)^k
_FACTORIZATIONS = {
    2.0: (
        (1024, (4, 0, 1, 2), -10),
        (1, (0, 4, 0, 1), -6),
        (1, (0, 4, 0, 1), -6),
    ),
    4.0: (
        (-16777216, (4, 4, 1, 2, 0, 0), -32),
        (1, (0, 2, 0, 0, 2, 0), -8),
        (1, (0, 2, 0, 0, 0, 2), -8),
    ),
}


class _Rational(Fraction):
    """A Fraction that takes float operands exactly, so that the float
    constants of q2_coeffs and q4_coeffs (all integers) keep it rational."""

    def __add__(a, b):
        return _Rational(Fraction(a) + Fraction(b))

    __radd__ = __add__

    def __sub__(a, b):
        return _Rational(Fraction(a) - Fraction(b))

    def __rsub__(a, b):
        return _Rational(Fraction(b) - Fraction(a))

    def __mul__(a, b):
        return _Rational(Fraction(a) * Fraction(b))

    __rmul__ = __mul__

    def __pow__(a, k):
        return _Rational(Fraction(a) ** k)

    def __neg__(a):
        return _Rational(-Fraction(a))


def _det(M):
    """The determinant of a square list of Fraction rows, by elimination."""
    M, det = [list(row) for row in M], Fraction(1)
    for i in range(len(M)):
        pivot = next((r for r in range(i, len(M)) if M[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            M[i], M[pivot], det = M[pivot], M[i], -det
        det *= M[i][i]
        for r in range(i + 1, len(M)):
            f = M[r][i] / M[i][i]
            M[r] = [x - f * y for x, y in zip(M[r], M[i])]
    return det


def _discriminant(c):
    """The discriminant of the polynomial with ascending coefficients c:
    (-1)^(n(n-1)/2) Res(P, P') / c_n, Res from the Sylvester matrix."""
    n = len(c) - 1
    top, dtop = list(c[::-1]), [k * c[k] for k in range(n, 0, -1)]
    rows = [[0] * i + top + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + dtop + [0] * (n - 1 - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * _det(rows) / c[-1]


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_event_factors_match_the_discriminant_exactly(monkeypatch, p):
    # at rational t, sin(alpha/2) and cos(alpha/2) are rational, and the
    # W-polynomial of q2_coeffs or q4_coeffs is formed from them in exact
    # arithmetic; its discriminant and its values at W = 0 and W = 1 must
    # equal the pinned factorizations, so a mistyped coefficient fails
    for t in map(Fraction, ("1/3", "-2/7", "5/11", "-13/10", "3/2", "-7/9")):
        s, c = _Rational(2 * t / (1 + t * t)), _Rational((1 - t * t) / (1 + t * t))
        with monkeypatch.context() as m:
            # alpha = 0 picks q2_coeffs's expansion, the same polynomial in s, c
            m.setattr(sweep, "math", SimpleNamespace(pi=math.pi, sin=lambda _: s, cos=lambda _: c))
            w = [Fraction(x) for x in sweep._poly_for(p)(0.0)]
        for value, (k0, powers, k) in zip((_discriminant(w), w[0], sum(w)), _FACTORIZATIONS[p], strict=True):
            want = Fraction(k0) * (1 + t * t) ** k
            for f, power in zip(sweep._EVENT_FACTORS[p], powers, strict=True):
                want *= sum(a * t**j for j, a in enumerate(f)) ** power
            assert value == want, (p, t)


def test_events():
    # the events in [-pi, pi]: -pi/2 and 0 for both powers; for p = 4 also
    # the two transitions, the two tangencies inside (0, 1), and four more
    # where a root touches W = 0 or W = 1 or two roots touch outside (0, 1)
    quadratic = sweep._events(2.0).alphas
    assert len(quadratic) == 2 and abs(quadratic[0] + math.pi / 2) <= 4e-16 and quadratic[1] == 0.0
    events = sweep._events(4.0).alphas
    assert len(events) == 10 and list(events) == sorted(events)
    for want in (-math.pi / 2, 0.0, *QUARTIC_DOUBLE_ROOTS, *QUARTIC_TANGENCIES):
        assert min(abs(e - want) for e in events) <= 4e-16
    with pytest.raises(ValueError, match="only for p in"):
        sweep._events(3.0)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_event_table_matches_fresh_reads(p):
    # each event's sides, and the root count and leading label at each, as a
    # fresh one-alpha read gives them: the transitions are the events whose
    # counts differ, and each tie lies in its own event-free interval whose
    # ends' leaders differ, holding both (on p = 4 exactly one interval
    # qualifies, on p = 2 none)
    table, d = sweep._events(p), sweep.EVENT_DELTA
    assert table.sides == tuple(a for e in table.alphas for a in (e - d, e + d))
    counts = [np.count_nonzero(~np.isnan(sweep._roots_of([a], p))) for a in table.sides]
    assert table.transitions == tuple((e, b, a) for e, b, a in zip(table.alphas, counts[::2], counts[1::2]) if b != a)
    ends = [-math.pi, *table.sides, math.pi]
    leaders = [_records([a], p)[0].min_set_label[0] for a in ends]
    changed = [(lo, hi, {b, a}) for lo, hi, b, a in zip(ends[::2], ends[1::2], leaders[::2], leaders[1::2]) if b != a]
    assert len(changed) == len(table.ties) == (p == 4.0)
    for (lo, hi, swapped), (a, labels) in zip(changed, table.ties):
        assert lo < a < hi and swapped <= set(labels)


def _hex_events(recs):
    return ([(a.hex(), b, c) for a, b, c in root_count_transitions(recs)],
            _hex_ties(tie_locations(recs)))


def test_cold_event_table_gives_the_warm_answers(default_records):
    # the table is read on first use, by whichever search and grid direction
    # comes first: after cache_clear, ascending and descending grids, and
    # p = 2 then p = 4 or the reverse, find what a warm table finds
    runs = [recs[::step] for recs in default_records.values() for step in (1, -1)]
    warm = [_hex_events(recs) for recs in runs]
    assert warm[2][0][0][1:] == (2, 4) and warm[3][0][0][1:] == (2, 4) and len(warm[3][1]) == 1
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        sweep._events.cache_clear()
        assert [_hex_events(runs[k]) for k in order] == [warm[k] for k in order]


def test_transitions_alone_build_the_whole_table(default_records, monkeypatch):
    # a cold table is built whole on first use, whichever search asks: the
    # transitions read alone return the pinned double roots and leave the
    # tie built, after reading the family through 44 stacked candidate
    # calls over 65 alphas (the records at -pi, the 20 event sides and pi,
    # 42 midpoints and the tie's alpha); a warm table makes no such call
    calls = []
    stack = sweep._candidate_stack
    sweep._events.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(sweep, "_candidate_stack", lambda alphas, q: calls.append(len(alphas)) or stack(alphas, q))
        trans = root_count_transitions(default_records[4.0])
        assert (len(calls), sum(calls)) == (44, 65)
        assert _hex_ties(sweep._events(4.0).ties) == [("-0x1.921fb5444574dp-1", ("blue", "yellow"))]
        assert root_count_transitions(default_records[4.0]) == trans
    assert len(calls) == 44
    assert [(a.hex(), b, c) for a, b, c in trans] == [("-0x1.05ed7a980537bp+0", 2, 4), ("-0x1.186475587b339p-1", 4, 2)]


def _cli_grid(lo, hi, step):
    # the sweep command's grid: alpha-max kept, the half step's overshoot cut
    return np.minimum(np.arange(lo, hi + 0.5 * step, step), hi)


def test_event_table_holds_every_transition_and_tie():
    # both searches return the table's entries strictly inside the window,
    # with their bits, in grid order, on the 1e-3-step grid either way, the
    # CI smoke windows and at step 1.0; and on the 1e-3 grid the records'
    # leading label changes across a step clear of every event by
    # EVENT_DELTA exactly where the step holds one of the table's ties
    d = sweep.EVENT_DELTA
    for p in (2.0, 4.0):
        table = sweep._events(p)
        fine = theta_min_curve(p, _cli_grid(-math.pi, math.pi, 1e-3))
        windows = [(-math.pi, math.pi, 1.0), (-1.1, -0.5, 5e-4), (-0.8, -0.77, 1e-3), (-1e-3, 1e-3, 1e-4)]
        for recs in (fine, fine[::-1], *(theta_min_curve(p, _cli_grid(*w)) for w in windows)):
            lo, hi = min(rec.alpha for rec in recs), max(rec.alpha for rec in recs)
            trans = [(a.hex(), b, c) for a, b, c in table.transitions if lo < a < hi]
            ties = _hex_ties(t for t in table.ties if lo < t[0] < hi)
            if recs[0].alpha > recs[-1].alpha:
                trans, ties = [(a, c, b) for a, b, c in trans[::-1]], ties[::-1]
            assert _hex_events(recs) == (trans, ties), (p, lo, hi)
        for r0, r1 in zip(fine, fine[1:]):
            if not any(r0.alpha - d <= e <= r1.alpha + d for e in table.alphas):
                tie = any(r0.alpha < a < r1.alpha for a, _ in table.ties)
                assert (r0.min_set_label[0] != r1.min_set_label[0]) == tie, (p, r0.alpha)


def test_warm_transitions_find_no_roots(default_records, monkeypatch):
    # the counts beside each event are the table's: a warm table's
    # transitions make no _roots_of or positive_roots call
    sweep._events(2.0), sweep._events(4.0)
    calls = []
    monkeypatch.setattr(sweep, "_roots_of", lambda *args: calls.append(args))
    monkeypatch.setattr(sweep, "positive_roots", lambda *args: calls.append(args))
    _assert_quartic_transitions(root_count_transitions(default_records[4.0]))
    assert root_count_transitions(default_records[2.0]) == []
    assert calls == []


def _sweep_stdout(capsys, tmp_path, *args):
    assert main(["sweep", *args, "--out", str(tmp_path / "s.csv")]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("step", ["0.3", "0.5", "1.0", "1.3"])
def test_coarse_grids_find_every_event(tmp_path, capsys, step):
    # both transitions and the tie lie inside one step of these grids;
    # before the events, the changes cancelled, and step 1.0 printed none
    lines = _sweep_stdout(capsys, tmp_path, "--p", "4", "--alpha-step", step)
    assert lines[1:] == [
        "root-count transition at alpha = -1.023155 rad: 2 -> 4",
        "root-count transition at alpha = -0.547641 rad: 4 -> 2",
        "tied minima at alpha = -0.785398 rad: blue, yellow",
    ]


@pytest.mark.parametrize("window", [
    # 1e-8 steps across the two tangencies, where the grid reads odd counts
    ("--p", "4", "--alpha-min", "-0.668493", "--alpha-max", "-0.668492", "--alpha-step", "1e-8"),
    ("--p", "4", "--alpha-min", "0.514436", "--alpha-max", "0.514438", "--alpha-step", "1e-8"),
    # next to alpha = 0, where the p = 2 grid reads one root
    ("--p", "2", "--alpha-min", "-0.001", "--alpha-max", "0.001", "--alpha-step", "0.0001"),
])
def test_fine_windows_print_no_transition(tmp_path, capsys, window):
    assert "no root-count transitions" in _sweep_stdout(capsys, tmp_path, *window)


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("event", [-math.pi / 2, 0.0])
def test_grids_through_an_event_find_no_transition(p, event):
    # a grid point exactly at alpha = 0 or -pi/2, where the roots meet
    for step in (0.05, 1e-4, 1e-7):
        grid = event + np.arange(-8, 9) * step
        assert root_count_transitions(theta_min_curve(p, grid)) == []


def test_transitions_on_every_step():
    # a geometric list of steps from 1e-8 to 1.0: each grid reports exactly
    # the transitions inside its window, at the pinned double roots. Below
    # 0.05 the windows are narrow, 40 steps around one root, each window
    # starting a different fraction of a step from it
    up = {QUARTIC_DOUBLE_ROOTS[0]: (2, 4), QUARTIC_DOUBLE_ROOTS[1]: (4, 2)}
    for k, step in enumerate(np.geomspace(1e-8, 1.0, 17)):
        if step >= 0.05:
            windows = [(-math.pi, math.pi)]
        else:
            windows = [(root - (20 + 0.13 * k) * step, root + (20 - 0.13 * k) * step) for root in QUARTIC_DOUBLE_ROOTS]
        for lo, hi in windows:
            grid = np.minimum(np.arange(lo, hi + 0.5 * step, step), hi)
            want = [(root, *counts) for root, counts in up.items() if lo < root < hi]
            got = root_count_transitions(theta_min_curve(4.0, grid))
            assert [(b, c) for _, b, c in got] == [(b, c) for _, b, c in want], step
            assert all(abs(a - root) <= 1e-12 for (a, _, _), (root, _, _) in zip(got, want)), step


def test_root_count_even_near_double_roots():
    # the roots of the degree-8 polynomial come in pairs that meet at a
    # double root: no alpha near one has an odd count of positive roots
    for root in QUARTIC_DOUBLE_ROOTS:
        for a in np.linspace(root - 1e-6, root + 1e-6, 201):
            assert len(positive_roots(q4_coeffs(a))) in (2, 4)


def test_sweep_agrees_with_multistart():
    # the lowest critical cost the sweep finds is the global minimum that
    # multistart reaches from 64 random starts; -0.8 lies in the four-root
    # window and -pi/4 holds the p = 4 tie
    for p in (2.0, 4.0):
        for a in (-math.pi, -2.5, -1.6, -0.8, -math.pi / 4, -0.3, 0.0, 0.7, 1.9, math.pi):
            best = multistart(CostModel.lp_chordal(build_samples(a), p), 64, seed=0)[0].cost
            lowest = min(rep.cost for rep in critical_sets(a, p))
            assert abs(best - lowest) <= 1e-12 * lowest, (p, a, best, lowest)


def test_quartic_tie_at_quarter():
    # the two tied global minimizers at alpha = -pi/4 and their exact costs
    sets = critical_sets(-math.pi / 4, 4.0)
    by_label = {r.label: r for r in sets}
    y, b = by_label["yellow"], by_label["blue"]
    assert y.cost == b.cost  # the tie is exact in floating point
    qy = canonicalize_sign(np.asarray(y.q))
    qb = canonicalize_sign(np.asarray(b.q))
    assert np.abs(qy - [0.82179713, 0.56978021, 0.0, 0.0]).max() < 1e-8
    assert np.abs(qb - [0.17820287, -0.98399377, 0.0, 0.0]).max() < 1e-8
    # distinct rotations, not a relabeling
    assert np.abs(covering_map(qy) - covering_map(qb)).max() > 0.1


def polynomial_discrepancies(p, alpha_grid):
    """(alpha, x, best residual) for each positive root x whose two
    quaternion branches both miss the critical-point system by RESIDUAL_TOL
    or more; empty when the polynomial and the system agree on the grid."""
    return [
        (float(a), float(x), best)
        for a in np.asarray(alpha_grid, dtype=float)
        for x, best in _root_residuals(a, p)
        if best >= RESIDUAL_TOL
    ]


def test_polynomial_discrepancies_empty():
    grid = np.linspace(-math.pi, math.pi, 25)
    assert polynomial_discrepancies(2.0, grid) == []
    assert polynomial_discrepancies(4.0, grid) == []


def test_poly_consistency_next_to_minus_half_pi():
    # the family's seed under run_all(seed=206003) draws alpha = -1.5706152855,
    # where the p = 2 roots are W ~ 6.7e-17 and 1 - W: sqrt(1 - x^2) of the
    # larger root rounds to 0 for y ~ 8.2e-9, but the smaller root's x keeps it
    result = checks.check_poly_consistency(seed=206014, trials=1000)
    assert result.passed, result.max_violation


def test_csv_round_trip(tmp_path):
    grid = [-3.0, -0.78, 1.4]
    for p in (2.0, 4.0):
        recs = theta_min_curve(p, grid)
        path = tmp_path / f"sweep{int(p)}.csv"
        emit_csv(recs, path)
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(CSV_HEADER)
        back = parse_csv(path)
        assert back == recs


def test_csv_min_rows(tmp_path):
    recs = theta_min_curve(4.0, [-0.78])
    path = tmp_path / "one.csv"
    emit_csv(recs, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    min_rows = [r for r in rows if r[2].startswith("min:")]
    assert [r[2][4:] for r in min_rows] == list(recs[0].min_set_label)
    flagged = {r[2] for r in rows if r[8] == "1" and not r[2].startswith("min:")}
    assert flagged == set(recs[0].min_set_label)


def _csv_module_emit(records, path):
    """emit_csv as the csv module's writer, one list of fields per row."""

    def fmt(x):
        return "%.17g" % float(x)

    def row(rec, label, rep, theta, is_min):
        x = math.nan if rep.x_root is None else rep.x_root
        nums = [fmt(v) for v in (x, rep.q[0], rep.q[1], rep.cost, theta)]
        return [fmt(rec.alpha), fmt(rec.p), label, *nums, is_min]

    thetas = iter(_thetas([rep.q for rec in records for rep in rec.sets if rep.label != "black"]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for rec in records:
            winners = set(rec.min_set_label)
            for rep in rec.sets:
                theta = math.nan if rep.label == "black" else next(thetas)
                w.writerow(row(rec, rep.label, rep, theta, "1" if rep.label in winners else "0"))
            for label, theta in zip(rec.min_set_label, rec.theta_min):
                rep = next(r for r in rec.sets if r.label == label)
                w.writerow(row(rec, "min:" + label, rep, theta, "1"))


def test_emit_csv_keeps_the_csv_module_bytes(default_records, tmp_path):
    (tie,) = theta_min_curve(4.0, [-math.pi / 4])
    assert len(tie.min_set_label) == 2  # two min: rows
    (rec,) = theta_min_curve(4.0, [0.3])
    nan_black = dataclasses.replace(rec, sets=(dataclasses.replace(rec.sets[0], x_root=math.nan),) + rec.sets[1:])
    for recs in (default_records[2.0], default_records[4.0], [tie], [nan_black]):
        emit_csv(recs, tmp_path / "got.csv")
        _csv_module_emit(recs, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_emit_csv_keeps_the_csv_module_bytes_where_cells_are_shared(default_records, tmp_path):
    # emit_csv formats alpha and p once per record, x_root once for the x
    # and q1 cells of a branch row, and gives a min: row its set row's
    # cells. Hand-built records where that sharing could go wrong keep the
    # csv module's bytes: q1 another float than x_root, -0.0 against 0.0
    # either way round, or nan; a label twice in one record, whose min: row
    # reads the first; and every default-grid record read back by parse_csv
    reps = (
        CriticalRep("black", None, (0.0, 0.0, 1.0, 0.0), 24.0, 0.0),
        CriticalRep("red", 0.5, (0.8, 0.25, 0.0, 0.0), 2.0, 0.0),
        CriticalRep("blue", 0.0, (1.0, -0.0, 0.0, 0.0), 3.0, 0.0),
        CriticalRep("pink", -0.0, (1.0, 0.0, 0.0, 0.0), 3.5, 0.0),
        CriticalRep("green", 0.3, (0.9, math.nan, 0.0, 0.0), 4.0, 0.0),
        CriticalRep("red", 0.6, (0.7, 0.6, 0.0, 0.0), 1.5, 0.0),
    )
    hand = [SweepRecord(0.25, 4.0, (0.0, 0.3, 0.5, 0.6), reps, (0.1, 0.2), ("red", "blue")),
            SweepRecord(-0.0, 4.0, (0.5,), reps[:2], (0.3,), ("red",))]
    emit_csv(default_records[2.0] + default_records[4.0], tmp_path / "grid.csv")
    for recs in (hand, parse_csv(tmp_path / "grid.csv")):
        emit_csv(recs, tmp_path / "got.csv")
        _csv_module_emit(recs, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_parse_csv_refuses_min_rows_without_their_set(tmp_path):
    # a min:<label> row must name a set row of its own alpha; emit_csv
    # could not write the record otherwise
    path = tmp_path / "one.csv"
    header = ",".join(CSV_HEADER)
    black, red = "0.5,4,black,nan,0,0,1,nan,0", "0.5,4,red,0.5,0.8,0.5,2,0.1,1"
    for rows in ([black, red, "0.5,4,min:green,0.5,0.8,0.5,2,0.1,1"],
                 [black, red, "0.7,4,black,nan,0,0,1,nan,0", "0.7,4,min:red,0.5,0.8,0.5,2,0.1,1"]):
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match="names no set row"):
            parse_csv(path)
    path.write_text("\n".join([header, black, red, "0.5,4,min:red,0.5,0.8,0.5,2,0.1,1"]) + "\n")
    (rec,) = parse_csv(path)
    assert rec.min_set_label == ("red",)
    emit_csv([rec], tmp_path / "again.csv")


def test_parse_csv_refuses_a_foreign_header(tmp_path):
    # a header that is not CSV_HEADER: one field renamed, one missing
    path = tmp_path / "one.csv"
    emit_csv(theta_min_curve(4.0, [-0.78]), path)
    header, *rows = path.read_text().splitlines()
    for bad in (header.replace("alpha", "angle", 1), header.rsplit(",", 1)[0]):
        path.write_text("\n".join([bad, *rows]) + "\n")
        with pytest.raises(ValueError, match="^unrecognized CSV header$"):
            parse_csv(path)


def test_parse_csv_refuses_rows_without_nine_fields(tmp_path):
    # a row without is_min, with a tenth field, with five fields or none
    path = tmp_path / "one.csv"
    emit_csv(theta_min_curve(4.0, [-0.78]), path)
    header, row, *rest = path.read_text().splitlines()
    for bad in (row.rsplit(",", 1)[0], row + ",1", ",".join(row.split(",")[:5]), ""):
        path.write_text("\n".join([header, bad, *rest]) + "\n")
        with pytest.raises(ValueError, match="values to unpack"):
            parse_csv(path)
