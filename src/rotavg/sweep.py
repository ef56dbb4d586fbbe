"""Parametric study of three x-axis sample rotations.

The samples are rotations by pi, pi/2 and alpha about the x-axis. On the
axis the critical-point system collapses to an even polynomial in the
second quaternion component x; this module builds those polynomials, as
their coefficients in W = x^2 (ascending, a tuple of floats), finds their
positive roots (in closed form for p = 2, by safeguarded Newton steps on a
derivative chain for p = 4), labels the resulting critical families and
traces the minimizer angle over an alpha grid, one SweepRecord per alpha.
The roots of many alphas are found together (:func:`_roots_of`), as one
array with a row per alpha, padded with NaN: up to ROOTS_PER_STACK
polynomials run the root finder in lockstep over the brackets of all of
them, with the float operations of the scalar :func:`positive_roots`
element by element, so every root keeps its bits; fewer than
STACKED_ROOTS_MIN, where a stacked call's fixed cost would dominate, are
solved one at a time.
The candidates of every alpha lie in one array too
(:func:`_candidate_stack`): the off-axis point, then both branches of each
root, with a mask of the points that exist. The grid is evaluated in chunks
of ALPHAS_PER_STACK alphas: the sample lifts of a chunk form one array and
its live candidates another, the rows of one stacked model, whose costs and
residuals are written back into the candidate array's layout; a record's
critical sets are put in classes by one call of the rule multistart uses
(geometry._classes) per chunk, and the angles of all minimizers come from
one stacked call.
Root-count transitions and minimizer ties are facts of the family, read
from its events (:class:`_EventTable`): the alphas where its polynomial
has a multiple root or a root at W = 0 or W = 1, the real roots of its
discriminant's and boundary polynomials' factors, pinned as integers in
t = tan(alpha/4). One table per p, built whole on its first use in a
process, holds the transitions, the events whose root counts at event -+
EVENT_DELTA differ, and the ties: between events a leading label changes
only at a tie, so the table reads the records at -pi, at every event side
and at pi, and bisects only the event-free intervals whose end labels
differ. These are bisected in lockstep: each step evaluates the midpoints
of every interval still open in one stacked call, and each interval takes
the midpoints it would take alone, with the same 0.5 * (lo + hi); as every
stacked row has the bits of its one-alpha call, every bisected alpha
keeps its bits, and no grid moves it. A sweep's transitions and ties are
the table's entries inside its window. The table reads the family
through records alone, as the grid does; a record's winners are read from
the candidate arrays as masks (:func:`_emitted`). Records round-trip
through CSV, each row formatted directly in the bytes of the csv module's
writer, each distinct number of a record once.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .costs import CostModel
from .geometry import SampleSet, _classes, _norms, _pair_distances, canonicalize_sign, normalize

__all__ = [
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
ALPHAS_PER_STACK = 128  # alphas whose candidates share one stacked model; bounds its memory
ROOTS_PER_STACK = 1024  # polynomials per stacked root finder call, ~0.8 kB each; bounds its memory
STACKED_ROOTS_MIN = 40  # from this many polynomials on, one stacked call beats one positive_roots call each
# the sides of an event are read at alpha -+ EVENT_DELTA: at 1e-6 the root
# counts and leaders beside every event read clean, where at 1e-9 the
# leaders beside three of the default grid's four relabelings read
# root-finder noise (green and pink at -pi/2 + 1e-9)
EVENT_DELTA = 1e-6

# The events of each power's family: the alphas where its W-polynomial has
# a multiple root (its discriminant is zero) or a root at W = 0 or W = 1.
# Put t = tan(alpha / 4), so that sin(alpha/2) = 2t / (1 + t^2) and
# cos(alpha/2) = (1 - t^2) / (1 + t^2), and alpha in [-pi, pi] is t in
# [-1, 1]; the coefficients times (1 + t^2)^8 are polynomials in t. Below
# are the square-free factors, over the integers, of that polynomial's
# discriminant in W and of its values at W = 0 and W = 1, each listed once,
# ascending in t; the powers of 1 + t^2, which has no real root, are left
# out. They were derived with sympy and are checked in exact rationals by
# the tests. Every coefficient (at most 21172) and every sum in their
# Horner steps on [-1, 1] is far inside float64's exact integers.
_EVENT_FACTORS = {
    2.0: (
        (0, 1),  # alpha = 0: the double root at W = 1/2
        (-1, -2, 1),  # alpha = -pi/2: both roots at W = 0 and W = 1
        # these two make A = 128 s^4 - 32 s^2 + 4 > 0, and the second is
        # 3 - 2 sin(alpha) - 2 cos(alpha) > 0, a factor of a0 too: no real root
        (1, 8, 18, -8, 1),
        (1, -8, 18, 8, 1),
    ),
    4.0: (
        (0, 1),  # alpha = 0: a fourfold root at W = 1/2
        (-1, -2, 1),  # alpha = -pi/2: roots at W = 0 and W = 1
        # F8, the two root-count transitions
        (27, 248, 172, -1480, 290, 1480, 172, -248, 27),
        # F20, squared in the discriminant: tangencies, where two real
        # roots touch and the count stays
        (1, -4, -62, 164, 1005, -1680, -5992, 10320, 15122, -20600, -21172,
         20600, 15122, -10320, -5992, 1680, 1005, -164, -62, 4, 1),
        (-1, 2, -9, -12, 9, 2, 1),  # squared in the constant term: a root touches W = 0
        (-1, -6, 7, 4, -7, -6, 1),  # squared in P(1): a root touches W = 1
    ),
}

CSV_HEADER = ("alpha", "p", "set_label", "x_root", "q0", "q1", "cost", "theta", "is_min")

# the label of each candidate column (black, then the plus and the minus
# branch of each root, by root rank) among n ascending roots
_LABELS = {
    0: ("black",),
    1: ("black", "red", "blue"),
    2: ("black", "green", "pink", "red", "blue"),
    3: ("black", "green", "pink", "yellow", "violet", "red", "blue"),
    4: ("black", "green", "pink", "yellow", "violet", "maroon", "gold", "red", "blue"),
}


def build_samples(alpha: float) -> SampleSet:
    """The three samples, rotations by pi, pi/2 and alpha about the x-axis,
    as their quaternion lifts (cos(a/2), sin(a/2), 0, 0)."""
    return SampleSet.from_quaternions(_sample_quats([alpha])[0])


def _sample_quats(alphas):
    """The (n, 3, 4) lifts of :func:`build_samples` at each alpha of a
    sequence, before the sample sets normalize them: one stack of sample
    sets. cos and sin of each half angle come from math, per alpha."""
    halves = []
    for alpha in alphas:
        if not -math.pi <= alpha <= math.pi:
            raise ValueError("alpha must lie in [-pi, pi]")
        h = 0.5 * alpha
        halves.append((math.cos(h), math.sin(h)))
    Q = np.zeros((len(halves), 3, 4))
    Q[:, 0, 1] = 1.0
    Q[:, 1, :2] = math.sqrt(2.0) / 2.0
    Q[:, 2, :2] = halves
    return Q


def q2_coeffs(alpha: float) -> tuple:
    """The p = 2 polynomial, whose positive roots x are the x-axis critical
    coordinates: a quartic in x, given as its three coefficients in W = x^2,
    ascending, (a0, -A, A).

    The constant term is (1 + sin a)^2 (3 - 2 sin a - 2 cos a). It has a
    fourfold zero at a = -pi/2, where its expansion in sin(a/2) and
    cos(a/2) cancels terms up to 28 down to ~1e-13; so for a <= -pi/4 it is
    formed as that product, with 1 + sin a = (sin(a/2) + cos(a/2))^2.
    Elsewhere the expansion is kept: next to the double root at a = 0 it
    holds the constant term to an ulp, where the product of rounded factors
    is several ulps off, enough to move the two close roots by ~1e-8.
    """
    s = math.sin(0.5 * alpha)
    c = math.cos(0.5 * alpha)
    big_a = 128.0 * s**4 - 32.0 * s**2 + 4.0
    if alpha > -0.25 * math.pi:
        a0 = -16.0 * s**6 + 16.0 * s**5 * c + 28.0 * s**4 - 8.0 * s**2 + 1.0
    else:
        a0 = (s + c) ** 4 * (3.0 - 2.0 * math.sin(alpha) - 2.0 * math.cos(alpha))
    return (a0, -big_a, big_a)


def q4_coeffs(alpha: float) -> tuple:
    """Degree-8 analogue of q2_coeffs for the quartic-chordal cost, p = 4:
    its five coefficients in W = x^2, ascending, (a0, a2, a4, a6, 16.0)."""
    s = math.sin(0.5 * alpha)
    c = math.cos(0.5 * alpha)
    a6 = -128.0 * s**4 + 96.0 * s**2 - 128.0 * s**3 * c + 64.0 * s * c - 32.0
    a4 = 192.0 * s**4 - 128.0 * s**2 + 192.0 * s**3 * c - 80.0 * s * c + 24.0
    a2 = 32.0 * s**6 - 112.0 * s**4 + 48.0 * s**2 - 80.0 * s**3 * c + 24.0 * s * c - 8.0
    a0 = -16.0 * s**8 + 16.0 * s**6 + 8.0 * s**3 * c + 1.0
    return (a0, a2, a4, a6, 16.0)


def _horner(c, x):
    # numpy polyval's operation order, highest coefficient first, so the
    # result matches polyval's bit for bit
    v = c[-1]
    for a in c[-2::-1]:
        v = a + v * x
    return v


def _derivative(c):
    return tuple(j * c[j] for j in range(1, len(c)))


def _in_interval(roots, lo, hi):
    # roots within 1e-12 of [lo, hi], moved onto it
    return [min(max(r, lo), hi) for r in roots if lo - 1e-12 <= r <= hi + 1e-12]


def _quadratic_roots(c, lo, hi, ztol):
    # the real roots of c0 + c1 W + c2 W^2 in [lo, hi]: q/c2 and c0/q with
    # q = -(c1 + sign(c1) sqrt(disc)) / 2, which subtracts nothing; with
    # disc < 0 the vertex is one multiple root where |c| is at most ztol there
    c0, c1, c2 = c
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        v = -c1 / (2.0 * c2)
        return _in_interval([v], lo, hi) if abs(_horner(c, v)) <= ztol else []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return _in_interval(sorted((q / c2, c0 / q)) if q else [0.0], lo, hi)


def _newton_root(c, dc, lo, hi, flo):
    # the root of c in [lo, hi], where c changes sign and c(lo) = flo; dc is
    # c's derivative. Newton from the midpoint, with c and dc in one Horner
    # pass (each in numpy polyval's order) over their coefficient pairs,
    # paired once per bracket, so an iteration does no other Python work.
    # One body serves every degree. Every iterate becomes an end of the
    # bracket, by its sign; a step that would leave the bracket is replaced
    # by the bracket's midpoint
    neg = flo < 0.0
    c0, top_c, top_d, pairs = c[0], c[-1], dc[-1], tuple(zip(c[-2:0:-1], dc[-2::-1]))
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f, d = top_c, top_d
        for a, b in pairs:
            f, d = a + f * x, b + d * x
        f = c0 + f * x
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


def _distinct(roots):
    # sorted, each root kept only beyond 1e-10 of the last one kept
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


def _real_roots_on(c, lo, hi, ztol):
    # roots of P' partition [lo, hi] into monotone pieces. The derivative
    # chain is formed once, down to degree 2, solved in closed form; then,
    # from the bottom link up and without recursion, each link roots every
    # sign change between its derivative's roots and keeps near-zero nodes
    # (this catches multiple roots that plain companion-matrix solves smear)
    while c and c[-1] == 0.0:
        c = c[:-1]
    if len(c) <= 1:
        return []
    if len(c) == 2:
        return _in_interval([-c[0] / c[1]], lo, hi)
    chain = [c]
    while len(c) > 3:
        c = _derivative(c)
        chain.append(c)
    roots = _distinct(_quadratic_roots(c, lo, hi, ztol))
    # (a link's derivative, the link), from the bottom of the chain up
    for dc, c in zip(chain[::-1], chain[-2::-1]):
        nodes = [lo, *roots, hi]
        vals = [_horner(c, t) for t in nodes]
        cross = [v * w < 0.0 for v, w in zip(vals, vals[1:])]
        # a near-zero node is a (multiple) root only when no strict sign
        # change flanks it; otherwise the crossings already cover it
        roots = [nodes[i] for i, v in enumerate(vals)
                 if abs(v) <= ztol and not (i and cross[i - 1] or i < len(cross) and cross[i])]
        roots += [_newton_root(c, dc, nodes[i], nodes[i + 1], vals[i])
                  for i, crossing in enumerate(cross) if crossing]
        roots = _distinct(roots)
    return roots


def positive_roots(w):
    """All roots x in (0, 1] of an even polynomial, ascending and
    multiplicity-free, from its coefficients w in W = x^2, ascending (as
    :func:`q2_coeffs` and :func:`q4_coeffs` give them).

    Works in W (half the degree in x), all in Python floats. Degree 2
    in W (all of the p = 2 polynomial) is solved in closed form, by the
    formula that subtracts nothing. Higher degrees are isolated by a
    derivative chain down to degree 2: between adjacent roots of P' the
    polynomial is monotone, and each sign change there is refined by
    Newton's method from the bracket's midpoint, bisecting whenever a step
    would leave the bracket. A node of the chain with no sign change around
    it (for degree 2, a vertex with a negative discriminant) counts as a
    multiple root only where |poly| is at rounding level, 1e-14 * max|coeff|;
    counting the near-zero values beside a double root as well would make
    the root count odd there. Raises ValueError for a coefficient that is
    not finite and for the zero polynomial.

    One kernel serves every degree: the chain is formed once and solved
    from the bottom up, and each Newton iteration evaluates the polynomial
    and its derivative in one Horner pass over coefficient pairs formed
    once per bracket, with numpy polyval's float operations in its order.
    A p = 4 polynomial takes about 30-50 us on a shared 2-core x86 host.
    """
    if not all(map(math.isfinite, w)):
        raise ValueError("coefficients must be finite")
    if not any(w):
        raise ValueError("polynomial is identically zero")
    ztol = 1e-14 * max(1.0, *map(abs, w))
    return [math.sqrt(r) for r in _real_roots_on(w, 0.0, 1.0, ztol) if r > 0.0]


# In the stacked finder below, an (n, m) array of roots holds each row's
# roots ascending, then NaN; a NaN node never crosses, is never near zero
# and so is never a root. Every element takes the float operations of the
# scalar functions above, so every root keeps its bits.


def _stacked_horner(C, X):
    # _horner of each row of C at the same row of X
    v = C[:, -1:]
    for j in range(C.shape[1] - 2, -1, -1):
        v = C[:, j : j + 1] + v * X
    return v


def _stacked_in_interval(R):
    # _in_interval on [0, 1]: a root outside becomes NaN; max and min as
    # Python's builtins take them, so a -0.0 stays -0.0
    R = np.where((0.0 - 1e-12 <= R) & (R <= 1.0 + 1e-12), R, np.nan)
    R = np.where(0.0 > R, 0.0, R)
    return np.where(1.0 < R, 1.0, R)


def _stacked_quadratic(C, ztol):
    # _quadratic_roots on [0, 1] for each row of the (n, 3) array C
    c0, c1, c2 = C.T
    disc = c1 * c1 - 4.0 * c2 * c0
    v = -c1 / (2.0 * c2)
    vertex = np.where(np.abs(_stacked_horner(C, v[:, None])[:, 0]) <= ztol, v, np.nan)
    q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
    a, b = q / c2, c0 / q
    first = np.where(disc < 0.0, vertex, np.where(q == 0.0, 0.0, np.where(b < a, b, a)))
    second = np.where((disc < 0.0) | (q == 0.0), np.nan, np.where(b < a, a, b))
    return _stacked_in_interval(np.stack([first, second], axis=1))


def _stacked_newton(C, D, lo, hi, flo):
    # _newton_root on every bracket at once: C[i], D[i] are bracket i's
    # polynomial and derivative. A bracket leaves the lockstep where the
    # scalar loop would return, with the value it would return
    neg = flo < 0.0
    x = 0.5 * (lo + hi)
    out, idx = np.empty_like(x), np.arange(len(x))
    for _ in range(100):
        f, d = C[:, -1], D[:, -1]
        for j in range(C.shape[1] - 2, 0, -1):
            f, d = C[:, j] + f * x, D[:, j - 1] + d * x
        f = C[:, 0] + f * x
        zero = f == 0.0
        below = (f < 0.0) == neg
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        step = np.where(d != 0.0, f / d, np.inf)
        close = ~zero & (np.abs(step) <= 4e-16 * np.abs(x))
        newton = x - step
        xn = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        stop = zero | close | (xn == x)
        out[idx[stop]] = np.where(close, newton, x)[stop]
        keep = ~stop
        x, lo, hi, neg, C, D, idx = xn[keep], lo[keep], hi[keep], neg[keep], C[keep], D[keep], idx[keep]
        if not idx.size:
            break
    out[idx] = x
    return out


def _stacked_roots_on(C, ztol):
    """_real_roots_on(c, 0.0, 1.0, ztol[i]) for every row c = C[i] of an
    (n, k) array, k >= 3, whose leading column holds no zero: the
    derivative chain of all rows in lockstep, one level at a time, and the
    brackets of every row in one :func:`_stacked_newton` call per level."""
    n, k = C.shape
    if k == 3:
        roots = _stacked_quadratic(C, ztol)
    else:
        D = C[:, 1:] * np.arange(1.0, k)
        R = _stacked_roots_on(D, ztol)
        nodes = np.full((n, R.shape[1] + 2), np.nan)
        nodes[:, 0] = 0.0
        nodes[:, 1:-1] = R
        nodes[np.arange(n), np.count_nonzero(~np.isnan(R), axis=1) + 1] = 1.0
        vals = _stacked_horner(C, nodes)
        cross = vals[:, :-1] * vals[:, 1:] < 0.0
        flanked = np.zeros(nodes.shape, dtype=bool)
        flanked[:, 1:] = cross
        flanked[:, :-1] |= cross
        i, j = np.nonzero(cross)
        newton = np.full(cross.shape, np.nan)
        newton[i, j] = _stacked_newton(C[i], D[i], nodes[i, j], nodes[i, j + 1], vals[i, j])
        at_node = (np.abs(vals) <= ztol[:, None]) & ~flanked
        roots = np.concatenate([np.where(at_node, nodes, np.nan), newton], axis=1)
    # sorted, then each root kept only beyond 1e-10 of the last one kept
    roots = np.sort(roots, axis=1, kind="stable")
    last = np.full(n, -np.inf)
    for col in roots.T:
        keep = col - last > 1e-10
        col[~keep] = np.nan
        last = np.where(keep, col, last)
    roots = np.sort(roots, axis=1)
    return roots[:, : np.count_nonzero(~np.isnan(roots), axis=1).max(initial=0)]


@dataclass(frozen=True)
class CriticalRep:
    """One labeled critical family, pinned by its representative quaternion."""

    label: str
    x_root: Optional[float]  # None for the off-axis (black) set
    q: tuple  # 4 floats
    cost: float
    residual_norm: float = field(compare=False)  # not serialized; recomputable


def _poly_for(p):
    if p == 2:
        return q2_coeffs
    if p == 4:
        return q4_coeffs
    raise ValueError("closed-form polynomials exist only for p in {2, 4}")


def _roots_of(alphas, p):
    """The positive roots of the power-p polynomial at each alpha of a
    sequence, with the bits of :func:`positive_roots`, as one (n, m) array:
    row k holds the roots at alphas[k], ascending, then NaN, and m is the
    most roots at any alpha. ROOTS_PER_STACK alphas at a time form one
    batch. A batch of at least STACKED_ROOTS_MIN is solved by one
    :func:`_stacked_roots_on` call, whose W-roots above 0 become x by
    np.sqrt (correctly rounded, as math.sqrt is); a smaller one, where that
    call's fixed cost would dominate, by one positive_roots call per alpha,
    its lists padded in one np.array call."""
    # no polynomial here has more positive roots than _LABELS names
    poly, out, m = _poly_for(p), np.full((len(alphas), len(_LABELS) - 1), np.nan), 0
    for k in range(0, len(alphas), ROOTS_PER_STACK):
        polys = [poly(a) for a in alphas[k : k + ROOTS_PER_STACK]]
        if len(polys) < STACKED_ROOTS_MIN:
            roots = [positive_roots(w) for w in polys]
            width = max(map(len, roots))
            R = np.array([x + [math.nan] * (width - len(x)) for x in roots])
        else:
            W = np.array(polys)
            with np.errstate(divide="ignore", invalid="ignore"):
                R = _stacked_roots_on(W, 1e-14 * np.maximum(1.0, np.abs(W).max(axis=1)))
            R = np.sort(np.sqrt(np.where(R > 0.0, R, np.nan)), axis=1)
            width = np.count_nonzero(R > 0.0, axis=1).max()
        out[k : k + len(polys), :width], m = R[:, :width], max(m, width)
    return out[:, :m]


def _candidate_stack(alphas, p):
    """The roots and candidate points of each alpha of a sequence, and each
    candidate's cost and pushforward residual norm, as arrays: the (n, m)
    roots R of one :func:`_roots_of` call, the (n, 1 + 2m, 4) points P, the
    (n, 1 + 2m) mask ``live`` of the points evaluated, and their costs and
    residual norms, NaN where not live.

    Column 0 is the black point (0,0,1,0), live at every alpha. Columns
    1 + 2i and 2 + 2i are root x_i's on-axis branches (y, x_i, 0, 0) and
    (-y, x_i, 0, 0); the plus branch is live wherever the root is, the
    minus branch only where y >= 1e-12 (below, the two are one point).
    P[..., 0] is NaN exactly where a point is not live.
    y is sqrt(max(1 - x^2, 0)), except for p = 2 with two roots: its
    W-polynomial A W^2 - A W + a0 has roots W and 1 - W, so each root's y
    is the other root's x. That keeps y where 1 - x^2 cancels, as next to
    alpha = -pi/2, where W ~ 7e-17 rounds 1 - W to 1 and sqrt(1-x^2) to 0
    for y ~ 8e-9.

    The live points of ALPHAS_PER_STACK alphas at a time, P[chunk][live],
    in row-major order, are the rows of one stacked model, each over its
    own alpha's samples: one value and one pushforward_residual call, each
    row with the bits of the one-alpha call."""
    R = _roots_of(alphas, p)
    n, m = R.shape
    Y = np.sqrt(np.maximum(1.0 - R * R, 0.0))
    if p == 2 and m == 2:
        Y = np.where(np.isnan(R[:, 1:]), Y, R[:, ::-1])
    P = np.zeros((n, 1 + 2 * m, 4))
    P[:, 0, 2] = 1.0
    P[:, 1::2, 0], P[:, 2::2, 0] = Y, np.where(Y >= 1e-12, -Y, np.nan)
    P[:, 1::2, 1] = P[:, 2::2, 1] = R
    live = ~np.isnan(P[..., 0])
    costs, res = np.full((2, n, 1 + 2 * m), np.nan)
    for k in range(0, n, ALPHAS_PER_STACK):
        on = live[k : k + ALPHAS_PER_STACK]
        lifts = np.repeat(_sample_quats(alphas[k : k + ALPHAS_PER_STACK]), on.sum(axis=1), axis=0)
        model, X = CostModel.lp_chordal(SampleSet(lifts), p), P[k : k + ALPHAS_PER_STACK][on]
        costs[k : k + ALPHAS_PER_STACK][on] = model.value(X)
        res[k : k + ALPHAS_PER_STACK][on] = _norms(model.pushforward_residual(X))
    return R, P, live, costs, res


def _root_residuals(alphas, p):
    """(x, best residual) for each positive root x of the polynomial at an
    alpha, or at each alpha of a sequence in turn: the smaller pushforward
    residual norm of the root's live branches, read from the arrays of
    :func:`_candidate_stack` at once. A NaN residual of a live branch stays
    NaN, and so fails every tolerance."""
    R, _, live, _, res = _candidate_stack(np.atleast_1d(alphas), p)
    best = np.where(live[:, 2::2], np.minimum(res[:, 1::2], res[:, 2::2]), res[:, 1::2])
    present = ~np.isnan(R)
    return list(zip(R[present].tolist(), best[present].tolist()))


def _thetas(qs):
    """The rotation angle 2 atan2(q1, q0) of each quaternion in qs, after
    normalizing and sign-fixing all rows in one stacked call. math.atan2
    stays per row: np.arctan2 may round differently."""
    Q = canonicalize_sign(normalize(np.array(qs, dtype=float).reshape(-1, 4)))
    return [2.0 * math.atan2(q1, q0) for q0, q1, _, _ in Q.tolist()]


def _emitted(stack):
    """The candidates each alpha emits and its winners, read from the
    arrays of one :func:`_candidate_stack` call: two masks in its candidate
    layout, ``emit`` (the black point, and every branch whose residual
    beats RESIDUAL_TOL) and ``won`` (the cost-minimal classes among them:
    the class heads whose cost lies within TIE_TOL of the least head's).
    P[emit] and P[won] list the points alpha by alpha, each alpha's in
    emission order.

    Each chunk of ALPHAS_PER_STACK alphas is classed by one
    :func:`~rotavg.geometry._classes` call, over a (chunk, K, 4) stack of
    each alpha's emitted points in emission order, padded with the black
    point to the chunk's longest count K. The padding joins the black
    point's class, and an alpha's classes read only its own rows."""
    _, P, _, costs, res = stack
    emit = res < RESIDUAL_TOL
    emit[:, 0] = True
    won = np.zeros_like(emit)
    # each row's emitted columns first, ascending, then the rest
    order = np.argsort(~emit, axis=1, kind="stable")
    count = np.count_nonzero(emit, axis=1)
    for k in range(0, len(emit), ALPHAS_PER_STACK):
        n = count[k : k + ALPHAS_PER_STACK]
        slots = np.arange(n.max())
        cols = np.where(slots < n[:, None], order[k : k + ALPHAS_PER_STACK, : len(slots)], 0)
        rows = np.arange(k, k + len(n))[:, None]
        heads = np.array(_classes(normalize(P[rows, cols])))
        cost = np.where(heads == slots, costs[rows, cols], np.inf)
        i, j = np.nonzero(cost <= cost.min(axis=1, keepdims=True) + TIE_TOL)
        won[k + i, cols[i, j]] = True
    return emit, won


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    p: float
    roots: tuple  # ascending positive polynomial roots, before certification
    sets: tuple  # CriticalRep, emission order
    theta_min: tuple  # one angle per tied minimizer class
    min_set_label: tuple  # matching labels


def _records(alphas, p):
    """The SweepRecord of each alpha of a sequence: the polynomial's
    positive roots, the labeled critical sets they yield, and the
    cost-minimal classes within TIE_TOL, read from the arrays of one
    :func:`_candidate_stack` and the masks :func:`_emitted` reads from them.
    Only the emitted entries become Python floats and CriticalReps, and the
    angles of all winners come from one :func:`_thetas` call."""
    stack = R, P, _, costs, res = _candidate_stack(alphas, p)
    emit, won = _emitted(stack)
    roots = [[x for x in row if x == x] for row in R.tolist()]
    sets, labels = [[] for _ in roots], [[] for _ in roots]
    entries = (*np.nonzero(emit), P[emit], costs[emit], res[emit], won[emit])
    for k, col, q, cost, r, w in zip(*(a.tolist() for a in entries)):
        rep = CriticalRep(_LABELS[len(roots[k])][col], roots[k][(col - 1) // 2] if col else None, tuple(q), cost, r)
        sets[k].append(rep)
        if w:
            labels[k].append(rep.label)
    thetas = iter(_thetas(P[won]))
    return [
        SweepRecord(float(alpha), float(p), tuple(x), tuple(s), tuple(next(thetas) for _ in w), tuple(w))
        for alpha, x, s, w in zip(alphas, roots, sets, labels)
    ]


def critical_sets(alpha: float, p: float):
    """Labeled critical representatives at one alpha.

    Always emits the out-of-pencil representative (0,0,1,0) ("black"), then,
    for each positive root x of the matching polynomial, the branches
    (+-sqrt(1-x^2), x, 0, 0) that actually satisfy the critical-point
    system (pushforward residual below 1e-8). Plus-branch labels:
    green/yellow/maroon/red by ascending root; minus-branch partners:
    pink/violet/gold/blue. p must be exactly 2 or 4, the powers with a
    closed-form polynomial; any other raises ValueError.
    """
    return list(_records([alpha], p)[0].sets)


def theta_min_curve(p: float, alpha_grid):
    """One SweepRecord per grid point; ties within 1e-10 are multi-valued."""
    return _records(np.asarray(alpha_grid, dtype=float), p)


def _changes(brackets, p):
    """Each bracket [lo, hi, label_lo, label_hi], whose end labels differ,
    bisected on the leading label to a width of at most 1e-13; returns
    (alpha, label_lo, label_hi) in the brackets' order. The brackets
    advance in lockstep: each step reads the leading label at the midpoint
    0.5 * (lo + hi) of every bracket still wider than 1e-13, with one
    :func:`_records` call, so each bracket takes the midpoints it would
    take alone."""
    while open_ := [b for b in brackets if abs(b[1] - b[0]) > 1e-13]:
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in open_]
        for b, mid, rec in zip(open_, mids, _records(mids, p)):
            b[0 if rec.min_set_label[0] == b[2] else 1] = mid
    return [(0.5 * (lo + hi), before, after) for lo, hi, before, after in brackets]


class _EventTable:
    """The events of the power-p family and what they fix, built once per p
    per process by ``_events(p)``: ``alphas``, ascending in [-pi, pi], are
    4 atan(t) at each real root t in [-1, 1] of its pinned factors, found by
    :func:`_real_roots_on` (every factor is square-free, so each root is a
    sign change); ``sides`` holds alpha - EVENT_DELTA and alpha +
    EVENT_DELTA of each event in turn; ``transitions`` the (alpha,
    count_before, count_after) of each event whose positive-root counts at
    its sides differ; and ``ties`` the (alpha, labels) of each tie,
    ascending. All of it is built at once, from records alone: one
    :func:`_records` call at -pi, at every side and at pi gives each
    side's root count and each end's leading label.

    Between two events the leading label changes only at a tie. So the tie
    search bisects (:func:`_changes`) only the event-free intervals whose
    end labels differ, and keeps the genuine ties: at the bisected alpha,
    the emitted sets within 1e-9 of the least cost hold both swapped labels
    and two rotations more than 1e-6 apart. Each read is a row of its
    stacked call, with the bits of its one-alpha call, so each tie's alpha
    has the bits of its interval bisected alone. Left open: a tie within
    EVENT_DELTA of an event, and two ties that cancel inside one event-free
    interval (the leader is the same at both of its ends)."""

    def __init__(self, p):
        _poly_for(p)  # refuses any other p
        ts = [t for c in _EVENT_FACTORS[p] for t in _real_roots_on(tuple(map(float, c)), -1.0, 1.0, 0.0)]
        self.alphas = tuple(sorted(4.0 * math.atan(t) + 0.0 for t in ts))  # + 0.0: alpha = 0, not -0
        self.sides = tuple(a for e in self.alphas for a in (e - EVENT_DELTA, e + EVENT_DELTA))
        ends = [-math.pi, *self.sides, math.pi]
        recs = _records(ends, p)
        counts = [len(rec.roots) for rec in recs[1:-1]]
        self.transitions = tuple((e, b, a) for e, b, a in zip(self.alphas, counts[::2], counts[1::2]) if b != a)
        keys = [rec.min_set_label[0] for rec in recs]
        # an event within EVENT_DELTA of another leaves an interval whose
        # ends are out of order, which holds no tie
        intervals = [[x, y, kx, ky] for x, y, kx, ky in zip(ends[::2], ends[1::2], keys[::2], keys[1::2])
                     if kx != ky and x < y]
        # crossing costs move ~1e2 per unit alpha, so the interval must be
        # far narrower than TIE_TOL before both classes can tie
        changes = _changes(intervals, p)
        ties = []
        # the sets at every bisected alpha, from one stacked call
        for (a_star, prev, cur), rec in zip(changes, _records([a for a, _, _ in changes], p)):
            best = min(rep.cost for rep in rec.sets)
            near = [rep for rep in rec.sets if rep.cost <= best + 1e-9]
            labels = [rep.label for rep in near]
            Q = normalize(np.array([rep.q for rep in near]))
            # the tie must be between the classes that swapped the lead;
            # anything else is root-finder noise at a degenerate pinch
            if {prev, cur} <= set(labels) and (_pair_distances(Q, Q, masked=False)[0] > 1e-6).any():
                ties.append((a_star, tuple(sorted(labels))))
        self.ties = tuple(ties)


_events = functools.cache(_EventTable)


def _in_window(records, name):
    """The entries of the records' event table ``name``, (alpha, ...)
    tuples ascending in alpha, that lie strictly inside the records' alpha
    window, in grid order: a descending grid meets them in reverse, each
    with the fields after its alpha reversed too, so that a transition's
    counts read before, then after (a tie's labels are one field)."""
    if len(records) < 2:
        return []
    alphas = [rec.alpha for rec in records]
    found = [e for e in getattr(_events(records[0].p), name) if min(alphas) < e[0] < max(alphas)]
    return found if alphas[0] <= alphas[-1] else [(e[0], *e[:0:-1]) for e in reversed(found)]


def root_count_transitions(records):
    """Alphas where the positive-root count changes, within the records'
    alpha window, whatever its grid.

    The candidates are the family's events (:class:`_EventTable`), the
    alphas where the polynomial has a multiple root or a root at W = 0 or
    W = 1, from its discriminant and boundary polynomials pinned in
    t = tan(a/4): between two events the count cannot change. Each event
    strictly inside the window is reported where the counts at event -+
    EVENT_DELTA differ, read once per p with the rest of the table (its
    ties too, on a cold table), so no root is found per call; no
    change is missed where two cancel inside one grid step, and the counts
    the records misread next to an event (p = 2 reads 1 within ~1.3e-4 of
    alpha = 0, p = 4 an odd count next to its two tangencies) show as no
    transition. The counts beside an event differ only at the two p = 4
    double roots, 2 -> 4 and 4 -> 2; they agree beside every other event,
    p = 2's too (it reads 1 on both sides of alpha = 0, where the true
    count is 2).

    Returns (alpha, count_before, count_after) triples in grid order.
    """
    return _in_window(records, "transitions")


def tie_locations(records):
    """Alphas where distinct minimizer classes exactly exchange the lead,
    within the records' alpha window, whatever its grid.

    The ties are the family's, found once per p from its events
    (:class:`_EventTable`): each is the alpha where the leading label
    changes inside an event-free interval, bisected to 1e-13, where the
    emitted sets within 1e-9 of the least cost hold both swapped labels
    and two rotations more than 1e-6 apart. The records only
    set the window: no label of theirs is read, and no alpha's last bits
    depend on the grid. The p = 4 family has one tie, blue and yellow next
    to -pi/4; the p = 2 family has none. A tie within EVENT_DELTA of an
    event, or two ties that cancel inside one event-free interval, are not
    found.

    Returns (alpha, labels) pairs in grid order, the labels sorted.
    """
    return _in_window(records, "ties")


def emit_csv(records, path):
    """Write records as CSV: one row per emitted set, then one row per tied
    minimizer (set_label "min:<label>"). Floats carry 17 significant digits,
    enough for an exact round trip; inapplicable cells hold nan. Rows are
    formatted directly, in the bytes of the csv module's writer: no field
    (a number, a fixed label, "min:<label>", 0 or 1) is ever one that its
    minimal quoting would quote. Each distinct number is formatted once:
    alpha and p once per record, x_root once for the x and q1 cells of a
    row whose q1 is that float, and a min: row takes the x, q0, q1 and
    cost cells of the first set row of its label. A record's rows go to
    the file together, so no grid is held as one string.
    """
    records = list(records)
    thetas = iter(_thetas([rep.q for rec in records for rep in rec.sets if rep.label != "black"]))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for rec in records:
            head, rows, cells = "%.17g,%.17g," % (rec.alpha, rec.p), [], {}
            for rep in rec.sets:
                x, q1 = "nan" if rep.x_root is None else "%.17g" % rep.x_root, rep.q[1]
                # a nonzero q1 equal to x_root has its bits, as on every branch row
                cell = "%s,%.17g,%s,%.17g" % (x, rep.q[0], x if q1 == rep.x_root and q1 else "%.17g" % q1, rep.cost)
                # a min: row reads the first set of its label
                cells.setdefault(rep.label, cell)
                theta = math.nan if rep.label == "black" else next(thetas)
                rows.append("%s%s,%s,%.17g,%d\r\n" % (head, rep.label, cell, theta, rep.label in rec.min_set_label))
            for label, theta in zip(rec.min_set_label, rec.theta_min):
                rows.append("%smin:%s,%s,%.17g,1\r\n" % (head, label, cells[label], theta))
            fh.write("".join(rows))


def parse_csv(path):
    """Rebuild SweepRecords from emit_csv output (exact floats). Raises
    ValueError unless the header is CSV_HEADER, every row holds exactly its
    nine fields, with a number in each numeric one, and every "min:<label>"
    row names a set row of its own alpha and p."""
    cells: dict = {}  # (alpha, p) as written -> (sets, (label, theta) of each min row)
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        if tuple(next(rd, ())) != CSV_HEADER:
            raise ValueError("unrecognized CSV header")
        for row in rd:
            # nine fields exactly, or the unpacking raises ValueError
            alpha, p, label, x_root, q0, q1, cost, theta, _ = row
            x_root, q0, q1, cost, theta = map(float, (x_root, q0, q1, cost, theta))
            sets, mins = cells.setdefault((alpha, p), ([], []))
            if label.startswith("min:"):
                mins.append((label[4:], theta))
            elif label == "black":
                sets.append(CriticalRep("black", None, (0.0, 0.0, 1.0, 0.0), cost, 0.0))
            else:
                sets.append(CriticalRep(label, x_root, (q0, q1, 0.0, 0.0), cost, 0.0))
    for (alpha, p), (sets, mins) in cells.items():
        missing = {label for label, _ in mins} - {r.label for r in sets}
        if missing:
            raise ValueError(f"min:{min(missing)} at alpha = {alpha}, p = {p} names no set row")
    return [
        SweepRecord(float(alpha), float(p), tuple(sorted({r.x_root for r in sets if r.x_root is not None})),
                    tuple(sets), tuple(t for _, t in mins), tuple(l for l, _ in mins))
        for (alpha, p), (sets, mins) in cells.items()
    ]
