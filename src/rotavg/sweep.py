"""Parametric study of three x-axis sample rotations.

The samples are rotations by pi, pi/2 and alpha about the x-axis. On the
axis the critical-point system collapses to a polynomial in the second
quaternion component; this module builds those polynomials, isolates their
positive roots, labels the resulting critical families and traces the
minimizer angle over an alpha grid, one SweepRecord per alpha. Root-count
transitions and minimizer ties are found from those records: each change
between adjacent records is bisected, so they work on any grid. Records
round-trip through CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .costs import CostModel
from .geometry import SampleSet, canonicalize_sign, covering_map, normalize

__all__ = [
    "EvenPolynomial",
    "CriticalRep",
    "SweepRecord",
    "build_samples",
    "q2_coeffs",
    "q4_coeffs",
    "positive_roots",
    "critical_sets",
    "theta_min_curve",
    "root_count_transitions",
    "tie_locations",
    "emit_csv",
    "parse_csv",
    "CSV_HEADER",
]

RESIDUAL_TOL = 1e-8  # a candidate is critical when its pushforward residual beats this
TIE_TOL = 1e-10  # costs closer than this count as one minimum

CSV_HEADER = ("alpha", "p", "set_label", "x_root", "q0", "q1", "cost", "theta", "is_min")

# label pairs (plus-branch, minus-branch) by root rank among n ascending roots
_PAIR_NAMES = {
    1: (("red", "blue"),),
    2: (("green", "pink"), ("red", "blue")),
    3: (("green", "pink"), ("yellow", "violet"), ("red", "blue")),
    4: (("green", "pink"), ("yellow", "violet"), ("maroon", "gold"), ("red", "blue")),
}

_BLACK_Q = (0.0, 0.0, 1.0, 0.0)


def build_samples(alpha: float) -> SampleSet:
    """The three samples, rotations by pi, pi/2 and alpha about the x-axis,
    as their quaternion lifts (cos(a/2), sin(a/2), 0, 0)."""
    if not -math.pi <= alpha <= math.pi:
        raise ValueError("alpha must lie in [-pi, pi]")
    h = 0.5 * alpha
    s2 = math.sqrt(2.0) / 2.0
    quats = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [s2, s2, 0.0, 0.0],
            [math.cos(h), math.sin(h), 0.0, 0.0],
        ]
    )
    return SampleSet.from_quaternions(quats)


@dataclass(frozen=True)
class EvenPolynomial:
    """Real polynomial with vanishing odd coefficients, ascending order."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if not all(math.isfinite(x) for x in c):
            raise ValueError("coefficients must be finite")
        if any(x != 0.0 for x in c[1::2]):
            raise ValueError("odd-degree coefficients must vanish")


def q2_coeffs(alpha: float) -> EvenPolynomial:
    """Quartic whose positive roots are the x-axis critical coordinates, p = 2."""
    s = math.sin(0.5 * alpha)
    c = math.cos(0.5 * alpha)
    big_a = 128.0 * s**4 - 32.0 * s**2 + 4.0
    a0 = -16.0 * s**6 + 16.0 * s**5 * c + 28.0 * s**4 - 8.0 * s**2 + 1.0
    return EvenPolynomial((a0, 0.0, -big_a, 0.0, big_a))


def q4_coeffs(alpha: float) -> EvenPolynomial:
    """Degree-8 analogue of q2_coeffs for the quartic-chordal cost, p = 4."""
    s = math.sin(0.5 * alpha)
    c = math.cos(0.5 * alpha)
    a6 = -128.0 * s**4 + 96.0 * s**2 - 128.0 * s**3 * c + 64.0 * s * c - 32.0
    a4 = 192.0 * s**4 - 128.0 * s**2 + 192.0 * s**3 * c - 80.0 * s * c + 24.0
    a2 = 32.0 * s**6 - 112.0 * s**4 + 48.0 * s**2 - 80.0 * s**3 * c + 24.0 * s * c - 8.0
    a0 = -16.0 * s**8 + 16.0 * s**6 + 8.0 * s**3 * c + 1.0
    return EvenPolynomial((a0, 0.0, a2, 0.0, a4, 0.0, a6, 0.0, 16.0))


def _horner(c, x):
    # numpy polyval's operation order, highest coefficient first, so the
    # result matches polyval's bit for bit
    v = c[-1]
    for a in c[-2::-1]:
        v = a + v * x
    return v


def _derivative(c):
    return tuple(j * c[j] for j in range(1, len(c)))


def _bisect_root(c, dc, lo, hi, flo):
    # the root of c in [lo, hi], where c changes sign; dc is c's derivative
    lead, rest = c[-1], c[-2::-1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        fm = lead  # _horner(c, mid), inlined
        for a in rest:
            fm = a + fm * mid
        if fm == 0.0:
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    # Newton polish: simple roots sharpen to full precision, which matters
    # for roots many orders smaller than the bisection width floor
    x = 0.5 * (lo + hi)
    for _ in range(3):
        d = _horner(dc, x)
        if d == 0.0:
            break
        x2 = x - _horner(c, x) / d
        if not (lo - 1e-9 <= x2 <= hi + 1e-9):
            break
        x = x2
    return x


def _real_roots_on(c, lo, hi, ztol):
    # roots of P' partition [lo, hi] into monotone pieces; recurse on the
    # derivative, then bisect every sign change and keep near-zero nodes
    # (this catches multiple roots that plain companion-matrix solves smear)
    while c and c[-1] == 0.0:
        c = c[:-1]
    if len(c) <= 1:
        return []
    if len(c) == 2:
        r = -c[0] / c[1]
        return [r] if lo - 1e-12 <= r <= hi + 1e-12 else []
    dc = _derivative(c)
    nodes = [lo] + sorted(_real_roots_on(dc, lo, hi, ztol)) + [hi]
    vals = [_horner(c, t) for t in nodes]
    n = len(nodes)
    cross = [vals[i] * vals[i + 1] < 0.0 for i in range(n - 1)]
    roots = []
    for i in range(n):
        # a near-zero node is a (multiple) root only when no strict sign
        # change flanks it; otherwise the bisected crossings already cover it
        flanked = (i > 0 and cross[i - 1]) or (i < n - 1 and cross[i])
        if abs(vals[i]) <= ztol and not flanked:
            roots.append(nodes[i])
    for i in range(n - 1):
        if cross[i]:
            roots.append(_bisect_root(c, dc, nodes[i], nodes[i + 1], vals[i]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


def positive_roots(poly: EvenPolynomial):
    """All roots of an even polynomial in (0, 1], ascending, multiplicity-free.

    Works in W = Z^2 (halving the degree), isolates by a derivative chain
    and refines by bisection, all in Python floats. A node of the chain with
    no sign change around it counts as a multiple root only where |poly| is
    at rounding level, 1e-14 * max|coeff|; counting the near-zero values
    beside a double root as well would make the root count odd there.
    """
    w = poly.coeffs[0::2]
    if not any(w):
        raise ValueError("polynomial is identically zero")
    ztol = 1e-14 * max(1.0, max(abs(a) for a in w))
    return [math.sqrt(r) for r in _real_roots_on(w, 0.0, 1.0, ztol) if r > 0.0]


@dataclass(frozen=True)
class CriticalRep:
    """One labeled critical family, pinned by its representative quaternion."""

    label: str
    x_root: Optional[float]  # None for the off-axis (black) set
    q: tuple  # 4 floats
    cost: float
    residual_norm: float = field(compare=False)  # not serialized; recomputable


def _poly_for(p):
    if int(round(p)) == 2:
        return q2_coeffs
    if int(round(p)) == 4:
        return q4_coeffs
    raise ValueError("closed-form polynomials exist only for p in {2, 4}")


def _candidates(roots, p):
    """The points a record evaluates, as one (n, 4) stack: the black point
    (0,0,1,0), then for each root x its on-axis branches (+-y, x, 0, 0),
    plus first; one branch where they meet. Also returns (root index,
    branch index) for each row after the black one.

    y is sqrt(1-x^2), except for p = 2 with two roots: its W-polynomial
    A W^2 - A W + a0 has roots W and 1 - W, so each root's y is the other
    root's x. That keeps y where 1 - x^2 cancels, as next to alpha = -pi/2,
    where W ~ 7e-17 rounds 1 - W to 1 and sqrt(1-x^2) to 0 for y ~ 8e-9.
    """
    paired = int(round(p)) == 2 and len(roots) == 2
    X = [_BLACK_Q]
    rows = []
    for i, x in enumerate(roots):
        y = roots[1 - i] if paired else math.sqrt(max(1.0 - x * x, 0.0))
        for b, sgn in enumerate((1.0,) if y < 1e-12 else (1.0, -1.0)):
            X.append((sgn * y, x, 0.0, 0.0))
            rows.append((i, b))
    return np.array(X), rows


def _residual_norms(model, X):
    """The Frobenius norm of the pushforward residual at each row of X."""
    S = model.pushforward_residual(X).reshape(-1, 9)
    # sqrt of a 9-term dot, as np.linalg.norm forms it for one 3x3 matrix
    return np.sqrt(np.vecdot(S, S))


def _root_residuals(alpha, p):
    """Yield (x, best residual) for each positive root x of the polynomial
    at alpha: the smaller pushforward residual norm of its two branches."""
    model = CostModel.lp_chordal(build_samples(alpha), p)
    roots = positive_roots(_poly_for(p)(alpha))
    X, rows = _candidates(roots, p)
    res = _residual_norms(model, X)[1:].tolist()
    for i, x in enumerate(roots):
        yield x, min(r for (j, _), r in zip(rows, res) if j == i)


def _thetas(qs):
    """The rotation angle 2 atan2(q1, q0) of each quaternion in qs, after
    normalizing and sign-fixing all rows in one stacked call. math.atan2
    stays per row: np.arctan2 may round differently."""
    Q = canonicalize_sign(normalize(np.array(qs, dtype=float).reshape(-1, 4)))
    return [2.0 * math.atan2(q1, q0) for q0, q1, _, _ in Q.tolist()]


def _rotations(reps):
    """The rotation matrix of each rep's quaternion, one stacked call."""
    return covering_map(normalize(np.array([rep.q for rep in reps])))


def _winners(sets, tol=TIE_TOL):
    """Deduplicate reps by rotation, then collect every cost-minimal class."""
    F = _rotations(sets).reshape(-1, 9)
    classes = []
    for k, f in enumerate(F):
        d = F[classes] - f
        # the Frobenius norm with np.linalg.norm's bits, one per class
        if not (np.sqrt(np.vecdot(d, d)) < 1e-8).any():
            classes.append(k)
    best = min(sets[k].cost for k in classes)
    return [sets[k] for k in classes if sets[k].cost <= best + tol]


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    p: float
    roots: tuple  # ascending positive polynomial roots, before certification
    sets: tuple  # CriticalRep, emission order
    theta_min: tuple  # one angle per tied minimizer class
    min_set_label: tuple  # matching labels


def _record_at(alpha, p):
    """The one per-alpha computation: the polynomial's positive roots, the
    labeled critical sets they yield, and the cost-minimal classes. The
    costs and residuals of all candidates come from one stacked call each."""
    model = CostModel.lp_chordal(build_samples(alpha), p)
    roots = positive_roots(_poly_for(p)(alpha))
    X, rows = _candidates(roots, p)
    costs = model.value(X).tolist()
    res = _residual_norms(model, X).tolist()
    sets = [CriticalRep("black", None, _BLACK_Q, costs[0], res[0])]
    names = _PAIR_NAMES.get(len(roots))
    for (i, b), q, cost, r in zip(rows, X[1:].tolist(), costs[1:], res[1:]):
        if r < RESIDUAL_TOL:
            label = names[i][b] if names else (f"x{i}+", f"x{i}-")[b]
            sets.append(CriticalRep(label, float(roots[i]), tuple(q), cost, r))
    win = _winners(sets)
    return SweepRecord(
        alpha=float(alpha),
        p=float(p),
        roots=tuple(roots),
        sets=tuple(sets),
        theta_min=tuple(_thetas([rep.q for rep in win])),
        min_set_label=tuple(rep.label for rep in win),
    )


def critical_sets(alpha: float, p: float):
    """Labeled critical representatives at one alpha.

    Always emits the out-of-pencil representative (0,0,1,0) ("black"), then,
    for each positive root x of the matching polynomial, the branches
    (+-sqrt(1-x^2), x, 0, 0) that actually satisfy the critical-point
    system (pushforward residual below 1e-8). Plus-branch labels:
    green/yellow/maroon/red by ascending root; minus-branch partners:
    pink/violet/gold/blue.
    """
    return list(_record_at(alpha, p).sets)


def theta_min_curve(p: float, alpha_grid):
    """One SweepRecord per grid point; ties within 1e-10 are multi-valued."""
    return [_record_at(a, p) for a in np.asarray(alpha_grid, dtype=float)]


def _changes(records, key, key_at, width):
    """Every change of key(record) between adjacent records, bisected to a
    bracket of at most width with key_at(alpha, p), the same key computed
    at a bare alpha; yields (alpha, key_before, key_after)."""
    for r0, r1 in zip(records[:-1], records[1:]):
        before, after = key(r0), key(r1)
        if before != after:
            lo, hi = r0.alpha, r1.alpha
            while abs(hi - lo) > width:
                mid = 0.5 * (lo + hi)
                if key_at(mid, r0.p) == before:
                    lo = mid
                else:
                    hi = mid
            yield 0.5 * (lo + hi), before, after


def _root_count(alpha, p):
    return len(positive_roots(_poly_for(p)(alpha)))


def _leading_label(alpha, p):
    return _record_at(alpha, p).min_set_label[0]


def root_count_transitions(records):
    """Alphas where the positive-root count changes between adjacent records,
    bisected to ~1e-10 on the root count alone.

    Returns (alpha, count_before, count_after) triples in grid order.
    """
    return list(_changes(records, lambda rec: len(rec.roots), _root_count, 1e-10))


def tie_locations(records):
    """Alphas where distinct minimizer classes exactly exchange the lead.

    Bisects each change of the leading label between adjacent records, then
    keeps only genuine ties: two winner classes whose rotations differ by
    more than 1e-6 (a mere relabeling of one continuing rotation, as when
    the x_max branch crosses x = 1, is discarded).
    """
    out = []
    # crossing costs move ~1e2 per unit alpha, so the bracket must be far
    # narrower than TIE_TOL before both classes can tie
    changes = _changes(records, lambda rec: rec.min_set_label[0], _leading_label, 1e-13)
    for a_star, prev, cur in changes:
        win = _winners(_record_at(a_star, records[0].p).sets, tol=1e-9)
        rots = _rotations(win)
        labels = {r.label for r in win}
        # the tie must be between the classes that swapped the lead;
        # anything else is root-finder noise at a degenerate pinch
        genuine = (
            len(win) >= 2
            and {prev, cur} <= labels
            and any(
                np.linalg.norm(rots[i] - rots[j]) > 1e-6
                for i in range(len(win))
                for j in range(i + 1, len(win))
            )
        )
        if genuine:
            out.append((a_star, tuple(sorted(labels))))
    return out


def _fmt(x):
    return "%.17g" % float(x)


def _row(rec, label, rep, theta, is_min):
    return [
        _fmt(rec.alpha),
        _fmt(rec.p),
        label,
        _fmt(math.nan if rep.x_root is None else rep.x_root),
        _fmt(rep.q[0]),
        _fmt(rep.q[1]),
        _fmt(rep.cost),
        _fmt(theta),
        is_min,
    ]


def emit_csv(records, path):
    """Write records as CSV: one row per emitted set, then one row per tied
    minimizer (set_label "min:<label>"). Floats carry 17 significant digits,
    enough for an exact round trip; inapplicable cells hold nan.
    """
    records = list(records)
    thetas = iter(_thetas([rep.q for rec in records for rep in rec.sets if rep.label != "black"]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for rec in records:
            winners = set(rec.min_set_label)
            for rep in rec.sets:
                theta = math.nan if rep.label == "black" else next(thetas)
                w.writerow(_row(rec, rep.label, rep, theta, "1" if rep.label in winners else "0"))
            for label, theta in zip(rec.min_set_label, rec.theta_min):
                rep = next(r for r in rec.sets if r.label == label)
                w.writerow(_row(rec, "min:" + label, rep, theta, "1"))


def parse_csv(path):
    """Rebuild SweepRecords from emit_csv output (exact floats)."""
    groups: dict = {}
    order = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise ValueError("unrecognized CSV header")
        for row in rd:
            alpha, p = float(row[0]), float(row[1])
            key = (row[0], row[1])
            if key not in groups:
                groups[key] = {"alpha": alpha, "p": p, "sets": [], "mins": []}
                order.append(key)
            g = groups[key]
            label = row[2]
            x_root = float(row[3])
            q0, q1 = float(row[4]), float(row[5])
            cost = float(row[6])
            theta = float(row[7])
            if label.startswith("min:"):
                g["mins"].append((label[4:], theta))
            elif label == "black":
                g["sets"].append(CriticalRep("black", None, _BLACK_Q, cost, 0.0))
            else:
                g["sets"].append(CriticalRep(label, x_root, (q0, q1, 0.0, 0.0), cost, 0.0))
    records = []
    for key in order:
        g = groups[key]
        records.append(
            SweepRecord(
                alpha=g["alpha"],
                p=g["p"],
                roots=tuple(sorted({r.x_root for r in g["sets"] if r.x_root is not None})),
                sets=tuple(g["sets"]),
                theta_min=tuple(t for _, t in g["mins"]),
                min_set_label=tuple(l for l, _ in g["mins"]),
            )
        )
    return records
