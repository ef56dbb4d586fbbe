import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from rotavg import checks, sweep
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, canonicalize_sign, covering_map, normalize
from rotavg.sweep import (
    CSV_HEADER,
    RESIDUAL_TOL,
    CriticalRep,
    EvenPolynomial,
    _record_at,
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
    p = EvenPolynomial((1.0, 0.0, -2.0, 0.0, 1.0))  # (Z^2 - 1)^2
    assert npoly.polyval(0.0, p.coeffs) == 1.0
    assert npoly.polyval(1.0, p.coeffs) == 0.0
    assert abs(npoly.polyval(0.5, p.coeffs) - 0.5625) < 1e-15
    with pytest.raises(ValueError):
        EvenPolynomial((0.0, 1.0, 0.0))  # odd coefficient


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_even_polynomial_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        EvenPolynomial((bad, 0.0, -1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        EvenPolynomial((1.0, 0.0, bad, 0.0, 1.0))


def test_positive_roots_factored():
    # Z^4 - 0.58 Z^2 + 0.0441 = (Z^2 - 0.09)(Z^2 - 0.49)
    roots = positive_roots(EvenPolynomial((0.0441, 0.0, -0.58, 0.0, 1.0)))
    assert np.allclose(roots, [0.3, 0.7], atol=1e-12)


def test_positive_roots_quadruple():
    # at alpha = 0 the quartic degenerates to (2W - 1)^4: one positive root
    p = q4_coeffs(0.0)
    assert p.coeffs == (1.0, 0.0, -8.0, 0.0, 24.0, 0.0, -32.0, 0.0, 16.0)
    roots = positive_roots(p)
    assert len(roots) == 1
    assert abs(roots[0] - math.sqrt(0.5)) < 1e-12


def test_positive_roots_tiny():
    # just past alpha = -pi/2 one root sits at ~1.6e-7; it must not be lost
    roots = positive_roots(q2_coeffs(-1.571593))
    assert len(roots) == 2
    assert roots[0] < 1e-5
    p = q2_coeffs(-1.571593)
    for r in roots:
        assert abs(npoly.polyval(r, p.coeffs)) < 1e-10


def _reference_bisect(c, lo, hi, flo):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        fm = float(npoly.polyval(mid, c))
        if fm == 0.0:
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    dc = npoly.polyder(c)
    for _ in range(3):
        d = float(npoly.polyval(x, dc))
        if d == 0.0:
            break
        x2 = x - float(npoly.polyval(x, c)) / d
        if not (lo - 1e-9 <= x2 <= hi + 1e-9):
            break
        x = x2
    return x


def _reference_roots_on(c, lo, hi, ztol):
    c = np.trim_zeros(np.asarray(c, dtype=float), "b")
    if c.size <= 1:
        return []
    if c.size == 2:
        r = -c[0] / c[1]
        return [r] if lo - 1e-12 <= r <= hi + 1e-12 else []
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
            roots.append(_reference_bisect(c, nodes[i], nodes[i + 1], vals[i]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


def _reference_positive_roots(poly):
    """The isolator on numpy arrays (polyval, polyder, trim_zeros): the same
    algorithm as positive_roots, so its roots must match bit for bit."""
    w = np.asarray(poly.coeffs)[0::2]
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
            poly = q(float(a))
            assert positive_roots(poly) == _reference_positive_roots(poly), (q.__name__, a)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((0.25, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0), [0.5]),  # trailing zeros
        ((3.0,), []),  # nonzero constant
        ((3.0, 0.0, 0.0), []),  # nonzero constant with a trailing zero
        ((-0.25, 0.0, 1.0), [0.5]),  # linear in W
        ((0.0, 0.0, -0.25, 0.0, 1.0), [0.5]),  # W (W - 1/4): the root W = 0 is dropped
        ((0.25, 0.0, -1.25, 0.0, 1.0), [0.5, 1.0]),  # (W - 1/4)(W - 1)
        ((1.0, 0.0, -2.0, 0.0, 1.0), [1.0]),  # (W - 1)^2: a double root at W = 1
        ((0.0, 0.0, 0.0, 0.0, 1.0), []),  # W^2: a double root at W = 0
    ],
)
def test_positive_roots_edge_cases(coeffs, expected):
    poly = EvenPolynomial(coeffs)
    roots = positive_roots(poly)
    assert roots == _reference_positive_roots(poly)
    assert np.allclose(roots, expected, rtol=0.0, atol=1e-12)
    assert all(type(r) is float for r in roots)


def test_positive_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError, match="identically zero"):
        positive_roots(EvenPolynomial((0.0, 0.0, 0.0)))


def test_q2_coeffs_quarter():
    # at alpha = -pi/2: A = 20, constant term 0
    c = q2_coeffs(-math.pi / 2).coeffs
    assert len(c) == 5
    assert abs(c[0]) < 1e-13 and c[1] == 0.0 and c[3] == 0.0
    assert abs(c[2] + 20.0) < 1e-12 and abs(c[4] - 20.0) < 1e-12


def test_roots_satisfy_polynomials():
    rng = np.random.default_rng(30)
    for _ in range(25):
        a = float(rng.uniform(-math.pi, math.pi))
        for poly in (q2_coeffs(a), q4_coeffs(a)):
            for r in positive_roots(poly):
                assert abs(npoly.polyval(r, poly.coeffs)) < 1e-9


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


# the p = 4 root-count transitions: the double roots of the degree-8
# polynomial, from a 50-digit solve of P = P' = 0 in (W, alpha)
QUARTIC_DOUBLE_ROOTS = (-1.0231548901694783, -0.5476414366254183)


@pytest.fixture(scope="module")
def default_records():
    """The CLI's default alpha grid, swept once per p."""
    grid = np.arange(-math.pi, math.pi + 0.005, 0.01)
    return {p: theta_min_curve(p, grid) for p in (2.0, 4.0)}


def _theta_one_row(q4):
    """The angle of one quaternion, normalized and sign-fixed on its own."""
    q = canonicalize_sign(normalize(np.asarray(q4, dtype=float)))
    return 2.0 * math.atan2(q[1], q[0])


def test_stacked_thetas_match_one_row_calls(default_records):
    for recs in default_records.values():
        qs = [rep.q for rec in recs for rep in rec.sets]
        assert [t.hex() for t in _thetas(qs)] == [_theta_one_row(q).hex() for q in qs]


def test_record_forms_no_rotation_matrix(monkeypatch):
    built = []
    init = SampleSet.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SampleSet, "__init__", recording)
    _record_at(0.3, 4.0)
    assert len(built) == 1
    assert "rotations" not in vars(built[0])


def _assert_quartic_transitions(trans):
    assert len(trans) == 2
    (a1, b1, c1), (a2, b2, c2) = trans
    assert (b1, c1) == (2, 4) and (b2, c2) == (4, 2)
    assert abs(a1 - QUARTIC_DOUBLE_ROOTS[0]) < 1e-8
    assert abs(a2 - QUARTIC_DOUBLE_ROOTS[1]) < 1e-8


def _assert_quartic_tie(ties):
    assert len(ties) == 1
    a, labels = ties[0]
    assert labels == ("blue", "yellow")
    assert abs(a + math.pi / 4) < 1e-9


def _reference_record(alpha, p):
    """_record_at one candidate at a time: a one-point value and
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
                label = names[len(roots)][2 * i + b] if len(roots) in names else f"x{i}{'+-'[b]}"
                sets.append(CriticalRep(label, x, tuple(q.tolist()), model.value(q), r))
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
        for a in rng.uniform(-math.pi, math.pi, 200):
            _assert_matches_reference(_record_at(float(a), p))


def test_root_count_transitions_need_no_records(monkeypatch):
    grid = np.linspace(-1.2, -0.4, 81)
    for recs in (theta_min_curve(4.0, grid), theta_min_curve(4.0, grid[::-1])):
        # the same bisection, with a full record at each midpoint
        want = []
        for r0, r1 in zip(recs[:-1], recs[1:]):
            before, after = len(r0.roots), len(r1.roots)
            if before != after:
                lo, hi = r0.alpha, r1.alpha
                while abs(hi - lo) > 1e-10:
                    mid = 0.5 * (lo + hi)
                    if len(_record_at(mid, 4.0).roots) == before:
                        lo = mid
                    else:
                        hi = mid
                want.append((0.5 * (lo + hi), before, after))
        calls = []
        with monkeypatch.context() as m:
            m.setattr(sweep, "_record_at", lambda *args: calls.append(args))
            got = root_count_transitions(recs)
        assert calls == []
        assert len(want) == 2
        assert got == want


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


def test_root_count_even_near_double_roots():
    # the roots of the degree-8 polynomial come in pairs that meet at a
    # double root: no alpha near one has an odd count of positive roots
    for root in QUARTIC_DOUBLE_ROOTS:
        for a in np.linspace(root - 1e-6, root + 1e-6, 201):
            assert len(positive_roots(q4_coeffs(a))) in (2, 4)


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
