"""The four averaging cost models on SO(3), lifted to the quaternion sphere.

Each model owns a sample set and exposes the lifted value, the analytic
gradient of its ambient prolongation, the sphere control field, and two
residual operators: the weighted-skew system on S3 pushed down through the
covering map, and the equivalent characterization directly in rotation
matrices.

Each kind is defined once, by one :class:`_Kind` record in ``_KINDS``: a
per-sample term f, its weight w and the weight's slope w', all functions of
x_i = <q, q_i>, together with the constants and the excluded set that go
with them (README, section Costs, lists them for the four kinds). The
value is the record's factor times sum_i f(x_i); everything else derives
from the weights, which one pass forms per point (:meth:`CostModel._weights`:
the bases 1 - x_i^2, the guard, then w):

- the gradient is -c sum_i w(x_i) q_i;
- the pushforward residual is sum_i w_i Delta_i, whose entries are the
  coordinates of sum_i w_i q_i in the tangent frame B = tangent_frame(q) of
  S3 at q;
- the tangent Hessian in the same frame is the 3x3 matrix
  K = c (<w, d> I - B S B^T) with S = sum_i w'(x_i) q_i q_i^T, one 4x4
  ambient matrix per point, which is B^T K B in Cartesian coordinates. Its
  curvature term <w, d> is read off the gradient's weights, so the public
  Hessian is the one the flow steps with. For Lp with p < 4, whose w'
  diverges on a sample line, the pairs with 1 - x_i^2 < LINE_PAIR_GAP
  enter as w'(x_i) (B q_i)(B q_i)^T instead;
- the rotation residual M^T R - R^T M reads u = w(x)/x (w'(0) at x = 0)
  at the guarded dots x_i of the lift of R: M = sum_i u(x_i) R_i / kappa.
  u is even in x, so either lift gives the same M, and kappa keeps each kind's
  residual scale. The sample rotations R_i = L(q_i q_i^T) are never formed:
  M = L(sum_i u(x_i) q_i q_i^T) / kappa, with L the fixed linear map that
  the covering map is on q q^T. Since x_i Delta_i = (R^T R_i - R_i^T R) / 4,
  the pushforward residual is -kappa/4 times the rotation residual;
- the guards keep a finite buffer eps_dom around the excluded set: the
  hyperplanes Pi_i where x_i = 0 (relative angle pi to a sample), on which
  the geodesic model is undefined and trace-sqrt is not differentiable, or
  the sample lines, which Lp with p < 2 excludes.

The geodesic model alone reads its dots at q/|q| (its prolongation is of
degree 0; ``_Kind.degree0``): :meth:`CostModel._dots` divides them by |q|,
so its value, every derivative, both residuals, the guard and the
clearance all read the direction. The others read the dots at q.

The l2 chordal kind is the Lp 2 record, with the sample count r as its
kappa in place of Lp's 1. The kinds with polynomial weights, Lp 2 (w = x)
and Lp 4 (w = x - x^3), form their gradient and S from the samples'
moments M = sum_i q_i q_i^T and T = sum_i q_i^(x4) instead, with no
per-sample work at a point: with P = T(q, q, ., .), sum_i w(x_i) q_i is
M q or M q - P q, and S is M or M - 3 P. The flow's trial costs of these
two kinds are exact changes read from the same moments
(:meth:`CostModel._trial`), so the flow forms their sample dots only at
its starts. Their public value, the cost a solver reports, and their
guards and residuals stay per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .control import ScalarField, apply_T_sphere
from .geometry import _OUTER_TO_ROTATION, SampleSet, _skew, quat_from_rotation, tangent_frame

__all__ = [
    "DomainError",
    "NonDifferentiable",
    "CostModel",
    "EPS_DOM",
]

EPS_DOM = 1e-9  # guard buffer around the excluded sets
# Lp with p < 4: the Hessian terms of the pairs with 1 - x_i^2 below this
# are formed from the samples' frame coordinates, not from S (see hessian)
LINE_PAIR_GAP = 1e-3
# relative slack on the bound on ||K||_F (see _hessian_bound): the computed
# K = c (<w, d> I - B S B^T) rounds each of the r terms of S to a few
# eps |w'(x_i)|, at most 1e3 eps times the term's share s of the bound
# (|w'| <= 2 s for Lp 2, so l2, geodesic, d3 and Lp with p >= 4; Lp with
# any other p < 4 keeps the pairs with 1 - x_i^2 < LINE_PAIR_GAP out of S),
# so its rounding stays below 1e-9 of the bound unless r is in the
# thousands and the roundings align
HESSIAN_BOUND_SLACK = 1.0 + 1e-9


class DomainError(ValueError):
    """Point lies on (or within the guard buffer of) an excluded set."""


class NonDifferentiable(ValueError):
    """The model value exists here but its gradient does not (trace-sqrt on Pi_i)."""


def _half_angles(d):
    """a = |x_i|, clamped at 1, and phi = arccos a at the unit-sphere dots d."""
    a = np.abs(d)
    np.minimum(a, 1.0, out=a)
    return a, np.arccos(a)


def _arcs(d):
    """a and phi as :func:`_half_angles` gives them, and sin phi =
    sqrt((1 - a)(1 + a)): one arccos, and no sin or cos (1 - a is exact for
    a >= 1/2)."""
    a, phi = _half_angles(d)
    s = 1.0 - a
    s *= 1.0 + a
    return a, phi, np.sqrt(s, out=s)


def _outer(a, b):
    """The entries of a_k b_k^T for each row k of the (n, 4) rows a and b,
    as (n, 16) rows."""
    return (a[:, :, None] * b[:, None, :]).reshape(-1, 16)


def _series(out, phi, below, coeffs):
    """Write sum_k coeffs[k] phi^(2k) into ``out`` where phi < below; the
    masked write happens only where some entry needs it."""
    small = phi < below
    if small.any():
        p2 = phi[small] ** 2
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = c + p2 * acc
        out[small] = acc


def _geodesic_weight(d, _):
    """sgn(x) phi / sin phi with phi = arccos |x|, elementwise; below
    phi = 1e-4, and so at phi = 0, where sin phi = 0, its Taylor series
    1 + phi^2/6 + 7 phi^4/360."""
    _, phi, s = _arcs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(phi, s, out=s)
    _series(w, phi, 1e-4, (1.0, 1.0 / 6.0, 7.0 / 360.0))
    return np.copysign(w, d, out=w)


# below this phi the geodesic slope is read from its Taylor series: the
# exact form loses up to about 7.5 eps / phi^2 relative to cancellation
# (3.3e-13 at the switch), the five-term series about 4e-17 to truncation
GEODESIC_SLOPE_SWITCH = 5e-2


def _geodesic_slope(d, _):
    """(phi a - sin phi) / sin^3 phi with a = |x|, phi = arccos a,
    elementwise: the slope of the geodesic weight. The difference cancels
    as phi -> 0, so below GEODESIC_SLOPE_SWITCH the Taylor series
    -(1/3 + 2 phi^2/15 + 2 phi^4/63 + 4 phi^6/675 + 2 phi^8/2079) takes
    over."""
    a, phi, s = _arcs(d)
    w = phi * a
    w -= s
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= s * s * s
    _series(w, phi, GEODESIC_SLOPE_SWITCH, (-1.0 / 3.0, -2.0 / 15.0, -2.0 / 63.0, -4.0 / 675.0, -2.0 / 2079.0))
    return w


class _Kind(NamedTuple):
    """One cost kind's per-sample definition.

    ``term``, ``weight`` and ``slope`` map the unit-sphere dots d = Q q and
    ``base`` to f(x), w(x) and w'(x) elementwise. A kind that sets
    ``reads_base`` reads 1 - d^2 from ``base``, which
    :meth:`CostModel._bases` forms (``term`` may overwrite it); the other
    kinds ignore it. The value is
    ``factor`` sum_i f(x_i) and the gradient -``scale`` sum_i w(x_i) q_i;
    ``kappa`` scales the rotation residual (None: the sample count r).
    ``excluded`` is "planes", "lines" or None, and ``error`` is what a
    single point inside its guard buffer raises. A kind that sets
    ``degree0`` (geodesic) has a prolongation of degree 0: its dots are
    those of q/|q| (:meth:`CostModel._dots`).
    ``slope_diverges`` marks a w' that diverges on the sample lines (Lp,
    p < 4), where the Hessian keeps the terms of the pairs next to a line
    (:meth:`CostModel.hessian`). A kind whose weight is the polynomial
    w(x) = x + ``cubic`` x^3 (Lp 2: 0, Lp 4: -1) sets ``cubic``: its field,
    Hessian and the flow's trial costs read the samples' moments
    (:meth:`CostModel._moments`, :meth:`CostModel._trial`), M alone where
    ``cubic`` is 0, and form no per-sample weights, slopes or dots.
    """

    factor: float
    term: Callable
    weight: Callable
    slope: Callable
    scale: float
    kappa: Optional[float]
    excluded: Optional[str] = None
    error: type = DomainError
    reads_base: bool = False
    slope_diverges: bool = False
    cubic: Optional[float] = None
    degree0: bool = False


def _lp(p):
    """The Lp chordal record for the power p, which must satisfy 1 <= p < inf
    and keep the scale p 8^(p/2) finite (p up to about 676.4). At p = 2 and
    p = 4 the weight is a polynomial, and the record reads the moments."""
    if p is None or not 1.0 <= p < np.inf:
        raise ValueError("LpChordal requires a power p with 1 <= p < inf")

    def term(d, base):
        base **= p / 2.0
        return base

    def weight(d, base):
        w = base ** (p / 2.0 - 1.0)
        w *= d
        return w

    def slope(d, base):
        base = base.copy()
        # for p < 4, w' diverges on a sample line (base = 0); there the
        # sample's tangent part vanishes, and with it the term in `hessian`
        # for every p >= 2, so the slope is set to 0 on the line itself
        on_line = base == 0.0
        base[on_line] = 1.0
        base **= p / 2.0 - 2.0
        base *= 1.0 - (p - 1.0) * d * d
        base[on_line] = 0.0
        return base

    # past p = 700 the float power raises; past p = 676.39... the scale is inf
    try:
        factor = 8.0 ** (p / 2.0)
    except OverflowError:
        factor = np.inf
    if not np.isfinite(p * factor):
        raise ValueError(f"LpChordal's scale p 8^(p/2) overflows at p = {p:g}; it is finite up to about p = 676.4")
    excluded = "lines" if p < 2.0 else None
    return _Kind(factor, term, weight, slope, p * factor, 4.0 ** (1.0 - p / 2.0), excluded,
                 reads_base=True, slope_diverges=p < 4.0, cubic={2.0: 0.0, 4.0: -1.0}.get(p))


def _geodesic_term(d, _):
    """arccos^2 |x| elementwise, NaN where |x| < 1e-12: the geodesic cost is
    undefined on the hyperplanes (and at the origin, whose dots are 0)."""
    a, phi = _half_angles(d)
    phi *= phi
    phi[a < 1e-12] = np.nan
    return phi


# kind -> its record (factor, f, w, w', c, kappa, excluded set, guard error,
# then the flags), or for LpChordal the function that builds it from p; l2 is
# the Lp 2 record with the rotation residual scaled by the sample count
_KINDS = {
    "L2Chordal": _lp(2.0)._replace(kappa=None),
    "Geodesic": _Kind(2.0, _geodesic_term, _geodesic_weight, _geodesic_slope, 4.0, 2.0, "planes", degree0=True),
    "TraceSqrt": _Kind(1.0, lambda d, _: (1.0 - np.abs(d)) ** 2, lambda d, _: (1.0 - np.abs(d)) * np.sign(d),
                       lambda d, _: -np.ones_like(d), 2.0, 1.0, "planes", NonDifferentiable),
    "LpChordal": _lp,
}


@dataclass(frozen=True)
class CostModel:
    """One averaging cost over a fixed :class:`~rotavg.geometry.SampleSet`.

    ``kind`` is one of {"L2Chordal", "Geodesic", "TraceSqrt", "LpChordal"};
    ``p`` is set only for LpChordal (real, 1 <= p up to about 676.4, where the
    scale p 8^(p/2) overflows). Instances are immutable and every evaluator
    is a pure function.

    One shape rule holds for every evaluator (:meth:`_evaluate`).
    ``value``, ``gradient``, ``control_field``, ``hessian``,
    ``pushforward_residual``, ``clearance`` and ``admissible`` take one point
    (4,) or a stack (n, 4), and ``rotation_residual`` one rotation (3, 3) or
    a stack (n, 3, 3); each returns one result per row: (n,), (n, 4),
    (n, 4, 4) or (n, 3, 3). Over a stacked
    :class:`~rotavg.geometry.SampleSet` of m sets, n must be m (one point
    counts as n = 1), and row k is read against set k; ``hessian`` then
    raises ValueError. Any other shape raises ValueError.

    Each row has the bits of the one-point call on it, whatever the other
    rows hold. A row inside the guard buffer of an excluded set (or, for
    ``value``, on a geodesic hyperplane) is NaN, and the other rows are
    unaffected. A one-point call returns its own row, and raises where that
    row is NaN at a finite point: inside a guard buffer ``DomainError`` or
    ``NonDifferentiable`` by the kind (``DomainError`` for ``value``), and
    elsewhere ValueError, since the arithmetic overflowed. A point with a
    NaN entry gives NaN, and raises nothing.
    """

    kind: str
    samples: SampleSet
    p: Optional[float] = None
    # resolved once from kind, p and the samples: the gradient scale c and
    # the rotation residual's scale kappa (public, read-only), and the
    # kind's record
    scale: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)
    _cost: _Kind = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cost = _KINDS.get(self.kind)
        if cost is None:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if callable(cost):
            cost = cost(self.p)
        elif self.p is not None:
            raise ValueError("p is only meaningful for LpChordal")
        object.__setattr__(self, "scale", cost.scale)
        object.__setattr__(self, "kappa", self.samples.r if cost.kappa is None else cost.kappa)
        object.__setattr__(self, "_cost", cost)

    @classmethod
    def l2_chordal(cls, samples):
        return cls("L2Chordal", samples)

    @classmethod
    def geodesic(cls, samples):
        return cls("Geodesic", samples)

    @classmethod
    def trace_sqrt(cls, samples):
        return cls("TraceSqrt", samples)

    @classmethod
    def lp_chordal(cls, samples, p):
        return cls("LpChordal", samples, float(p))

    def scalar_field(self) -> ScalarField:
        """This cost as a plain (value, grad) pair for the ambient machinery."""
        return ScalarField(value=self.value, grad=self.gradient)

    # -- domain -----------------------------------------------------------

    def _dots(self, X):
        """D[k, i] = <X[k], q_i> for (n, 4) points X (q_i of set k for a
        stack of sets). A degree-0 kind reads the dots of X[k]/|X[k]|
        instead: 0 at the origin, which has no direction, and NaN where |X[k]|
        overflows."""
        D = np.matvec(self.samples.quaternions, X)
        if not self._cost.degree0:
            return D
        nq = np.sqrt(np.vecdot(X, X, keepdims=True))
        nq[nq == np.inf] = np.nan
        nq[nq == 0.0] = np.inf  # the origin's dots are all 0, and 0 / inf = 0
        return np.divide(D, nq, out=D)

    def _weighted_sum(self, W):
        """sum_i W[k, i] q_i for each row k of the (n, r) weights W (q_i of
        set k for a stack of sets): one row-invariant matvec."""
        return np.matvec(self.samples.columns, W)

    def _single_set(self):
        """Raise ValueError where this model holds a stack of sample sets."""
        if self.samples.stacked:
            raise ValueError("this needs a single sample set, not a stack of them")

    def _evaluate(self, form, a, shape=(4,)):
        """The shape rule of every public evaluator: ``form`` at ``a``, which
        is one point (4,) or a stack (n, 4) (for ``shape`` (3, 3): one
        rotation or a stack (n, 3, 3)), with n = m over a stacked sample set
        of m sets; any other shape raises ValueError.

        ``form`` takes the stack and, for points, its dots, and returns one
        result per row, NaN in a guarded row. A one-point call returns its
        own row. Where that row is NaN at a finite point, it raises the
        kind's guard error if the point lies inside a guard buffer, as
        :meth:`admissible` judges it from the same dots (a rotation at the
        dots of a lift), and otherwise ValueError: the arithmetic overflowed.
        """
        a = np.asarray(a, dtype=float)
        one = a.shape == shape
        rows = a[None] if one else a
        if rows.shape[1:] != shape or self.samples.stacked and len(rows) != len(self.samples.quaternions):
            raise ValueError(f"expected one {shape} row or a stack of them, exactly m over an (m, r, 4) stack of "
                             f"sample sets; got {a.shape} over samples {self.samples.quaternions.shape}")
        out = form(rows) if shape == (3, 3) else form(rows, self._dots(rows))
        if not one:
            return out
        if np.isnan(out[0]).any() and np.isfinite(a).all():
            X = quat_from_rotation(rows) if shape == (3, 3) else rows
            if self._clearance_at(X, self._dots(X))[0] <= EPS_DOM:
                raise self._cost.error(f"{self.kind} needs clearance from the excluded set here")
            raise ValueError(f"{self.kind}: the arithmetic overflowed at this input")
        return float(out[0]) if out.ndim == 1 else out[0]

    def clearance(self, q):
        """Distance of unit q from this model's excluded set (inf if it has
        none), read from the dots every evaluator reads: the geodesic model's
        are those of the direction q/|q| (0 at the origin, which has no
        direction), the others' those of q itself."""
        return self._evaluate(self._clearance_at, q)

    def _clearance_at(self, X, D, base=None):
        """:meth:`clearance` for each row of X, with dots D: min_i |x_i| to
        the hyperplanes, and to the sample lines sqrt(min_i (1 - x_i^2)),
        read from the rows' :meth:`_bases` (passed in where already formed),
        so that every sample counts, near-duplicate ones included."""
        if self._cost.excluded == "planes":
            return np.abs(D).min(axis=-1)
        if self._cost.excluded == "lines":
            return np.sqrt((self._bases(X, D) if base is None else base).min(axis=-1))
        return np.full(len(D), np.inf)

    def _bases(self, X, D):
        """1 - d_i^2 at the dots D of the rows X, for a kind that reads it
        (None for the others): clamped at 0, except for Lp 2 and Lp 4, whose
        values, weights and slopes are the polynomials their moment forms
        read.

        The rounded 1 - d^2 has an absolute error near 2e-16, so it resolves
        no clearance below about 1e-8, where the guard buffer is 1e-9. For a
        model that excludes the sample lines, entries below 1e-8 in rows
        that are unit to within rounding, |(|x|^2 - 1)| <= 1e-12, are read
        from X and its dots D instead (:meth:`_line_gaps`, which holds only
        on the unit sphere).
        """
        if not self._cost.reads_base:
            return None
        # in place: one (n, r) array, not three
        base = D * D
        np.subtract(1.0, base, out=base)
        if self._cost.cubic is None:
            np.maximum(base, 0.0, out=base)
        if self._cost.excluded == "lines" and np.fmin.reduce(base, axis=None, initial=1.0) < 1e-8:
            k, i = np.nonzero(base < 1e-8)
            unit = np.abs(np.vecdot(X[k], X[k]) - 1.0) <= 1e-12
            base[k[unit], i[unit]] = self._line_gaps(X, D, k[unit], i[unit])
        return base

    def _line_gaps(self, X, D, k, i):
        """1 - d^2 for the dot d = D[k, i] of the unit row X[k] with sample
        i, as (1 - |d|)(1 + |d|) with 1 - |d| = |x - s q_i|^2 / 2, s = sign d:
        full relative precision at unit x and q_i, where 1 - d^2 cancels."""
        Q = self.samples.quaternions
        Qi = Q[k, i] if self.samples.stacked else Q[i]
        d = D[k, i]
        e = np.where((d < 0.0)[:, None], X[k] + Qi, X[k] - Qi)
        return 0.5 * np.vecdot(e, e) * (1.0 + np.abs(d))

    def admissible(self, q):
        """True if q clears the guard buffer for this model's excluded sets."""
        return self.clearance(q) > EPS_DOM

    def _guard(self, X, D, base=None):
        """The dots D of the unit rows X, with the rows inside the guard
        buffer set to NaN so that every derivative in those rows is NaN (a
        one-point call raises there, in :meth:`_evaluate`). ``base`` as for
        :meth:`_clearance_at`; its rows inside the buffer are set to NaN in
        place as well."""
        if self._cost.excluded is not None:
            bad = self._clearance_at(X, D, base) <= EPS_DOM
            if bad.any():
                D = np.where(bad[:, None], np.nan, D)
                if base is not None:
                    base[bad] = np.nan
        return D

    # -- evaluators -------------------------------------------------------
    #
    # Each public evaluator checks its input's shape, forms the dots
    # D = self._dots(X) of its rows and hands them to a private form, all in
    # :meth:`_evaluate`. Every private form computes a stack, with NaN in the
    # guarded rows, and never raises for a row; the flow carries D with its
    # points (:meth:`_trial`) and calls the private forms directly, so each
    # point's dots are formed once, and for Lp 2 and Lp 4 only at the starts.

    def value(self, q):
        # only the geodesic value has guarded rows: those on a hyperplane
        return self._evaluate(self._value, q)

    def _value(self, X, D):
        """:meth:`value` at the rows X with dots D."""
        return self._cost.factor * self._cost.term(D, self._bases(X, D)).sum(axis=1)

    def _trial(self, Y, X=None, c=None):
        """The dots and costs the flow carries at the points Y: its starts
        (X None), or the trial points it steps to from its rows X, whose
        costs are c.

        A per-sample kind carries Y's dots and value as :meth:`value` forms
        them. A kind read through moments (``_Kind.cubic`` = b) carries
        zero-width dots, and its cost at a trial point is c + Delta, with
        Delta the exact change of its value, -scale sum_i [(y_i^2 - x_i^2)/2
        + b (y_i^4 - x_i^4)/4] at the dots y_i and x_i of Y and X. Since
        y_i^2 - x_i^2 = <q_i, d> <q_i, s> with d = Y - X and s = Y + X, and
        y_i^2 + x_i^2 = <q_i q_i^T, Y Y^T + X X^T>, that is

            Delta = -scale <d (x) s, vec(M)/2 + (b/4) T(Y (x) Y + X (x) X)>,

        read from the moments alone and formed from the difference d, so it
        does not cancel where Y is next to X. Its starts carry the
        per-sample value. Each row has the bits of its one-row call."""
        b = self._cost.cubic
        if b is None or X is None:
            D = self._dots(Y)
            return D if b is None else np.empty((len(Y), 0)), self._value(Y, D)
        # Delta = <d (x) s, g>; T is exactly symmetric, so vecmat with it is matvec
        g = -0.5 * self.scale * self.samples.second_moment.reshape(16)
        if b:
            g = g - 0.25 * b * self.scale * np.vecmat(_outer(Y, Y) + _outer(X, X), self.samples.fourth_moment)
        return np.empty((len(Y), 0)), c + np.vecdot(_outer(Y - X, Y + X), g)

    def gradient(self, q):
        """Analytic gradient of the prolongation (agrees with central FD of
        the value)."""
        return self._evaluate(lambda X, D: self._gradient(X, D)[0], q)

    def _gradient(self, X, D):
        """:meth:`gradient` at the rows X with dots D, and the products
        <w, d> of its weights with the dots."""
        if self._cost.cubic is not None:
            # sum_i w(x_i) q_i = A q, so <w, d> = <A q, q>
            g = np.matvec(self._moments(X, self._cost.cubic), X)
            return -self.scale * g, np.vecdot(g, X)
        W, D = self._weights(X, D)
        G, wd = -self.scale * self._weighted_sum(W), np.vecdot(W, D)
        if self._cost.degree0:
            # the dots are those of q/|q|: G = (-c sum_i w_i q_i + c <w, d> q/|q|) / |q|,
            # the radial part removed; the origin's row is NaN without warnings
            nq = np.sqrt(np.vecdot(X, X, keepdims=True))
            with np.errstate(divide="ignore", invalid="ignore"):
                G = (G + (self.scale * wd[:, None]) * (X / nq)) / nq
        return G, wd

    def _weights(self, X, D):
        """The weights w(x_i) at the dots D of the unit rows X, read from the
        rows' :meth:`_bases`, and the dots as :meth:`_guard` leaves them: NaN
        in the rows inside a guard buffer, whose weights are NaN too. The one
        place the record's weight is read: the per-sample gradient, both
        residual systems and, through the gradient's <w, d>, the Hessian take
        their weights here."""
        base = self._bases(X, D)
        D = self._guard(X, D, base)
        return self._cost.weight(D, base), D

    def _moments(self, X, f):
        """M + f P at each row q of X, for a kind read through the samples'
        moments (``_Kind.cubic``): M = sum_i q_i q_i^T and P = T(q, q, ., .)
        = sum_i x_i^2 q_i q_i^T, one matvec of T with the entries of q q^T.

        With w(x) = x + b x^3, f = b gives the A with sum_i w(x_i) q_i = A q,
        and f = 3 b gives S = sum_i w'(x_i) q_i q_i^T. Where b = 0 (Lp 2) that
        is M itself, and T is never formed."""
        M = self.samples.second_moment
        if not self._cost.cubic:
            return M
        P = np.matvec(self.samples.fourth_moment, _outer(X, X)).reshape(-1, 4, 4)
        P *= f
        P += M
        return P

    def control_field(self, q):
        """The sphere control field: T(q) applied to the prolongation gradient.

        Tangent to S3 at q, vanishes exactly at the constrained critical
        points, and points in the ascent direction (the flow follows its
        negative).
        """
        return self._evaluate(lambda X, D: self._field(X, D)[0], q)

    def _field(self, X, D):
        """:meth:`control_field` at the rows X with dots D, and the products
        <w, d> of its gradient's weights with the dots, all the Hessian reads
        of them (:meth:`_frame_hessian`)."""
        G, wd = self._gradient(X, D)
        return apply_T_sphere(X, G), wd

    # -- residual systems --------------------------------------------------

    def hessian(self, q):
        """Tangent Hessian of the cost on S3 at unit q, as a symmetric 4x4
        matrix (one per row of a stack): B^T K B with B = tangent_frame(q)
        and K = c(<w, d> I - B S B^T) the 3x3 Hessian in that frame, where
        S = sum_i w'(x_i) q_i q_i^T is one ambient 4x4 matrix per point.

        It annihilates q; restricted to the tangent space it is the
        Riemannian Hessian (no covariant derivatives needed: the sphere's
        curvature enters through the <w, d> = <grad, q> / (-c) term, read off
        the gradient's own weights, so this is the Hessian the flow's Newton
        step solves with, bit for bit). The
        projection B S B^T leaves each pair's term with an absolute error
        near eps |w'(x_i)|, while the term itself is w'(x_i) (1 - x_i^2):
        for Lp with p < 4, whose w' diverges on a sample line, the pairs with
        1 - x_i^2 < LINE_PAIR_GAP (1e-3, where that relative error reaches
        about 2e-13) are formed from the samples' frame coordinates B q_i
        instead, which are tangent by construction.
        Raises like the gradient inside the guard buffer of an excluded set.
        """
        return self._evaluate(self._hessian, q)

    def _hessian(self, X, D):
        """:meth:`hessian` at the rows X with dots D: the frame Hessian the
        flow steps with, from the <w, d> of one :meth:`_gradient` call."""
        B, K = self._frame_hessian(X, D, self._gradient(X, D)[1])
        return B.transpose(0, 2, 1) @ K @ B

    def _frame_hessian(self, X, D, wd):
        """The tangent frames B (n, 3, 4) at the unit rows of X and the
        Hessians K (n, 3, 3) in them (see :meth:`hessian`), from the rows'
        dots D and the products wd = <w, d> of their weights with them, as
        one :meth:`_gradient` call gives them (the flow passes those of its
        last :meth:`_field` call, :meth:`hessian` and the classifier those
        of their own): the weights are formed there alone, and a guarded
        row's NaN wd makes its K NaN. A stacked sample set raises ValueError.

        A kind read through moments takes S from them (:meth:`_moments`),
        with no per-sample work. For every other kind S comes for every row
        from one matvec of the slopes with the samples' outer products
        (``SampleSet.outer_products``), which gives each row the bits of the
        one-point call. The pairs (k, i) that keep their own term (Lp,
        p < 4, 1 - x_i^2 < LINE_PAIR_GAP) are left out of it and added to
        their rows with ``np.add.at``."""
        self._single_set()
        B = tangent_frame(X)
        if self._cost.cubic is not None:
            S = self._moments(X, 3.0 * self._cost.cubic)
            return B, self.scale * (wd[:, None, None] * np.eye(3) - B @ S @ B.transpose(0, 2, 1))
        base = self._bases(X, D)
        dW = self._cost.slope(D, base)
        if self._cost.slope_diverges:
            # the pairs that keep their own term (see hessian)
            k, i = np.nonzero(base < LINE_PAIR_GAP)
            near, dW[k, i] = dW[k, i], 0.0
        K = B @ np.matvec(self.samples.outer_products, dW).reshape(-1, 4, 4) @ B.transpose(0, 2, 1)
        if self._cost.slope_diverges and k.size:
            # B q_i = B (q_i - s x) with s = sign x_i, since B x = 0: the
            # difference keeps full relative precision where B q_i is small
            A = np.matvec(B[k], self.samples.quaternions[i] - np.sign(D[k, i])[:, None] * X[k])
            np.add.at(K, k, near[:, None, None] * A[:, :, None] * A[:, None, :])
        return B, self.scale * (wd[:, None, None] * np.eye(3) - K)

    def _hessian_bound(self, X, D, wd):
        """HESSIAN_BOUND_SLACK c (sqrt(3) |wd| + r s), a bound on ||K||_F for
        the Hessian K in the frame (:meth:`_frame_hessian`) at the unit rows
        of X with dots D and <w, d> = wd, where s >= |w'(x_i)| |B q_i|^2 for
        every sample of the row. It needs neither the slopes w' nor the
        samples' frame coordinates.

        At unit q and q_i, |B q_i|^2 = 1 - x_i^2. Where w' stays finite,
        |w'(x)| (1 - x^2) is at most 1, its value at x = 0 (1 - phi cot phi
        for geodesic; checked over [-1, 1] for Lp with p >= 2), so s = 1.
        Where w' diverges on the sample lines (Lp, p < 2) it is at most
        (1 - x^2)^(p/2 - 1), largest at the row's smallest 1 - x_i^2:
        s = clearance^(p - 2). Rows and samples that are unit only to within
        a few ulp leave the computed |B q_i|^2 up to about 4e-15 above
        1 - x_i^2; next to a line that is no longer small against 1 - x_i^2,
        so s there is raised by the factor 1 + 1e-14 / clearance^2.
        """
        s = 1.0
        if self._cost.excluded == "lines":
            u = self._clearance_at(X, D) ** 2
            s = u ** (self.p / 2.0 - 1.0) * (1.0 + 1e-14 / u)
        return HESSIAN_BOUND_SLACK * self.scale * (np.sqrt(3.0) * np.abs(wd) + self.samples.r * s)

    def pushforward_residual(self, q) -> np.ndarray:
        """sum_i w_i(q) Delta_i(q): the critical-point system pushed to SO(3).

        Returns a skew 3x3 matrix (n x 3 x 3 for a stack), identical at q and
        -q. It is zero exactly where the control field is zero: both read the
        weights at the same dots (for geodesic those of q/|q|, so this
        residual is |q| times its value at the direction).
        """
        return self._evaluate(self._pushforward, q)

    def _pushforward(self, X, D):
        """:meth:`pushforward_residual` at the rows X with dots D."""
        W = self._weights(X, D)[0]
        S = _skew(np.matvec(tangent_frame(X), self._weighted_sum(W)))
        S[np.isnan(W).any(axis=1)] = np.nan  # a guarded row: the diagonal too
        return S

    def rotation_residual(self, R) -> np.ndarray:
        """The characterization equation directly in rotation matrices:
        M^T R - R^T M with M = sum_i u(x_i) R_i / kappa, at one rotation R
        (3, 3) or at each row of a stack (n, 3, 3).

        u = w(x)/x comes from the weights (w'(0) where x_i = 0, admissible
        for l2 and Lp with p >= 2) at the dots x_i of R's lift
        (:func:`~rotavg.geometry.quat_from_rotation`), with its guard and
        bases, as every other evaluator reads its points; u is even in x,
        so either lift gives the same residual. ``kappa`` keeps each kind's
        scale: M is the arithmetic mean for l2, and M^T R - R^T M is
        sum_i Log(R_i^T R) for geodesic. The sample rotations are never
        formed: M = L(sum_i u(x_i) q_i q_i^T) / kappa, one matvec of
        ``SampleSet.outer_products`` with u mapped by the fixed linear map L
        that :func:`~rotavg.geometry.covering_map` is on q q^T. Inside the
        guard buffer of an excluded set a single R raises like the gradient
        and a row of a stack is NaN.
        """
        return self._evaluate(self._rotation_residual, R, shape=(3, 3))

    def _rotation_residual(self, Rr):
        """:meth:`rotation_residual` at the rows Rr (n, 3, 3), read from the
        dots of their lifts; a guarded row's NaN dots make the whole row NaN."""
        X = quat_from_rotation(Rr)
        W, D = self._weights(X, self._dots(X))
        w0 = self._cost.slope(np.zeros(1), np.ones(1))[0]
        # NaN != 0, so a guarded row keeps its NaN instead of taking w'(0)
        u = np.divide(W, D, out=np.full_like(D, w0), where=D != 0.0)
        M = np.vecmat(np.matvec(self.samples.outer_products, u), _OUTER_TO_ROTATION).reshape(-1, 3, 3) / self.kappa
        return M.transpose(0, 2, 1) @ Rr - Rr.transpose(0, 2, 1) @ M
