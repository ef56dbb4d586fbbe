"""Quaternion/rotation primitives for averaging on the unit sphere S3.

Unit quaternions q = (q0, q1, q2, q3) (scalar first) double-cover SO(3):
q and -q map to the same rotation. Everything downstream — cost models,
control fields, the parametric sweep — is built on the handful of maps
in this module: the covering map, the inverse lift,
three distances, the global orthonormal tangent frame of S3, and the skew
matrices that push tangent data down to rotation space. A rotation matrix
becomes numbers one way only, through its lift: the distances and the
relative angle of two matrices are read off their lifts. A weighted sum of
sample rotations is read off the lifts too, as L(sum_i u_i q_i q_i^T),
with L the fixed linear map that the covering map is on q q^T.

All functions take and return plain numpy arrays.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = [
    "normalize",
    "canonicalize_sign",
    "covering_map",
    "quat_from_rotation",
    "rotation_angle",
    "dist_d1",
    "dist_d2",
    "dist_d3",
    "tangent_frame",
    "delta_skew",
    "SampleSet",
]


@np.errstate(over="ignore")
def normalize(q):
    """Return q / ||q||, or each row of an (n, 4) array over its own norm.

    A finite row whose squared norm overflows (entries past about 1e154) or
    falls below the smallest normal float (a norm under 1.5e-154, where the
    squares lose bits or vanish) is divided by its largest |q_j| first, so it
    comes out as its direction, with no overflow warning (the decorator's
    errstate: no other step here can overflow); every other row keeps the
    bits of the plain division, and a call with no such row pays one mask.
    A row with an infinite entry has no direction and comes out NaN.

    Parameters
    ----------
    q : (4,) or (n, 4) array_like
        Nonzero quaternion(s).

    Returns
    -------
    ndarray of q's shape
        Unit quaternion(s).

    Raises
    ------
    ValueError
        If ``q`` (or any row) is zero.
    """
    q = np.asarray(q, dtype=float)
    n = np.sqrt(np.vecdot(q, q, keepdims=True))
    # sqrt of the smallest normal float, 2.2e-308: below it the squared norm
    # is subnormal or zero
    rescale = (n == math.inf) | (n < 1.5e-154)
    if np.count_nonzero(rescale):  # the C call: any() costs more on few rows
        top = np.max(np.abs(q), axis=-1, keepdims=True)
        if np.count_nonzero(top == 0.0):
            raise ValueError("cannot normalize the zero quaternion")
        q = q / np.where(rescale, top, 1.0)
        n = np.sqrt(np.vecdot(q, q, keepdims=True))
    return q / n


def canonicalize_sign(q):
    """Flip the sign of q so its first nonzero component is positive (row by
    row for an (n, 4) array).

    q and -q represent the same rotation; tests and reported results need a
    deterministic representative of each pair.
    """
    q = np.asarray(q, dtype=float)
    # sum_j sgn(q_j) 2^(3-j) takes the sign of the first nonzero q_j
    flip = np.sign(q) @ np.array([8.0, 4.0, 2.0, 1.0]) < 0.0
    return np.where(flip[..., None], -q, q)


def covering_map(q):
    """Rotation matrix of a unit quaternion (the 2-to-1 covering S3 -> SO(3)).

    Parameters
    ----------
    q : (..., 4) array_like
        Unit quaternion(s) (q0, q1, q2, q3), scalar part first.

    Returns
    -------
    (..., 3, 3) ndarray
        The rotation matrix of each; ``covering_map(q) == covering_map(-q)``.
    """
    q = np.asarray(q, dtype=float)
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    R = np.array(
        [
            [
                q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
                2.0 * (q1 * q2 - q0 * q3),
                2.0 * (q1 * q3 + q0 * q2),
            ],
            [
                2.0 * (q1 * q2 + q0 * q3),
                q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
                2.0 * (q2 * q3 - q0 * q1),
            ],
            [
                2.0 * (q1 * q3 - q0 * q2),
                2.0 * (q2 * q3 + q0 * q1),
                q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
            ],
        ]
    )
    return np.ascontiguousarray(R.reshape(9, -1).T).reshape(q.shape[:-1] + (3, 3))


# each entry of covering_map(q) is a quadratic form in q, so R(q) = L(q q^T)
# for one fixed linear map L, and sum_i u_i R_i = L(sum_i u_i q_i q_i^T):
# row 4a + b holds the matrix of the bilinear form at (e_a, e_b), read off
# covering_map itself by polarization. Its entries are 0 and +-1, so the
# (16,) @ (16, 9) product with it only adds and subtracts entries of a sum
_E = np.eye(4)
_OUTER_TO_ROTATION = ((covering_map(_E[:, None] + _E) - covering_map(_E)[:, None] - covering_map(_E)) / 2.0).reshape(16, 9)


# the symmetric 4x4 K of quat_from_rotation as columns of its ten distinct
# entries (its diagonal, K[0, 1:], K[1, 2:], K[2, 3]), and the signs that
# form K[0, 1:] as differences and the rest as sums
_K_ENTRIES = np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3]])
_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])


def quat_from_rotation(R):
    """Unit quaternion lift of a rotation matrix, sign-canonicalized.

    Uses the max-of-{trace, diagonal} branch so the division is always by a
    quantity bounded away from zero — the naive trace formula loses all
    precision near rotation angle pi.

    Parameters
    ----------
    R : (3, 3) or (r, 3, 3) array_like
        Rotation matrix, or a stack of them.

    Returns
    -------
    (4,) or (r, 4) ndarray
        Unit quaternion q with ``covering_map(q) == R`` and the first
        nonzero component positive, one row per matrix of a stack.
    """
    R = np.asarray(R, dtype=float)
    # K = 4 q q^T from the entries of R, so with s = 2 sqrt(K[b, b]) = 4 |q_b|
    # each row gives K[b] / s = +-q; the row with the largest diagonal entry
    # divides by the largest |q_b| (at least 1/2). Row 0 is the trace branch,
    # row 1 + i Shepperd's branch for R[i, i]. K is symmetric, and its ten
    # distinct entries are formed once each, as the columns _K_ENTRIES
    # indexes: K[0, 0] = 1 + t; K[1 + i, 1 + i] = 1 + R[i, i] - R[m, m] -
    # R[n, n] with m < n the other two axes; K[0, 1 + i] = R[k, j] - R[j, k]
    # for each cyclic (i, j, k); K[1 + i, 1 + j] = R[i, j] + R[j, i] for
    # i < j. H holds the entries they read, R[i, j] at 3 i + j of a row
    H = R.reshape(-1, 9)[:, [0, 4, 8, 4, 0, 0, 8, 8, 4, 7, 2, 3, 1, 2, 5, 5, 6, 1, 3, 6, 7]]
    d = H[:, :3]
    t = H[:, 0] + H[:, 1] + H[:, 2]
    K = np.concatenate([(1.0 + t)[:, None], 1.0 + d - H[:, 3:6] - H[:, 6:9], H[:, 9:15] + _SIGNS * H[:, 15:]], axis=1)
    rows = np.arange(len(H))
    b = np.argmax(np.concatenate([t[:, None], d], axis=1), axis=1)  # the first largest of t and the diagonal
    s = 2.0 * np.sqrt(np.maximum(K[rows, b], 0.0))
    q = K[rows[:, None], _K_ENTRIES[b]] / s[:, None]
    q[rows, b] = 0.25 * s
    return canonicalize_sign(normalize(q)).reshape(R.shape[:-2] + (4,))


def rotation_angle(R1, R2):
    """Relative rotation angle |theta| in [0, pi]: d2 / sqrt(2) of
    :func:`_pair_distances` on the lifts, read before d2's mask, so a half
    turn gives pi."""
    return float(_lift_distances(R1, R2, masked=False)[1] / np.sqrt(2.0))


def dist_d1(R1, R2):
    """Chordal distance ||R1 - R2||_F, read off the lifts (see
    :func:`_pair_distances`)."""
    return float(_lift_distances(R1, R2)[0])


def dist_d2(R1, R2):
    """Geodesic distance sqrt(2) * |theta|, read off the lifts (see
    :func:`_pair_distances`).

    Raises
    ------
    ValueError
        If tr(R1^T R2) = -1 within 1e-12 (relative angle pi), where the
        matrix logarithm — hence the distance derivative — is undefined.
    """
    d = float(_lift_distances(R1, R2)[1])
    if np.isnan(d):
        raise ValueError("geodesic distance undefined at relative angle pi (trace = -1)")
    return d


def dist_d3(R1, R2):
    """1 - |<q1,q2>| on quaternion lifts (see :func:`_pair_distances`). Two
    (n, 3, 3) stacks give one distance per pair of rows."""
    d = _lift_distances(R1, R2)[2]
    return float(d) if d.ndim == 0 else d


def _lift_distances(R1, R2, masked=True):
    """:func:`_pair_distances` between the lifts of R1 and R2, one rotation
    (3, 3) each or two (n, 3, 3) stacks read row against row."""
    P, Q = (quat_from_rotation(R)[..., None, :] for R in (R1, R2))
    return [d[..., 0, 0] for d in _pair_distances(P, Q, masked)]


def _pair_distances(P, Q, masked=True):
    """d1, d2 and d3 between the rotations of every row of P (n, 4) and
    every row of Q (m, 4), unit quaternions, as three (n, m) arrays; for
    stacks P (..., n, 4) and Q (..., m, 4), three (..., n, m) arrays, one
    table per stacked pair of sets.

    With s = sign <p, q>, e = p - s q and f = p + s q, |e| |f| = 2 sqrt(1 -
    <p, q>^2) and the half angle is 2 atan2(|e|, |f|), so d1 = sqrt(2) |e|
    |f|, d2 = 4 sqrt(2) atan2(|e|, |f|) and d3 = 1 - |<p, q>| = |e|^2 / 2,
    each with full relative precision down to coincident rotations, where
    the matrix forms cancel. Where ``masked``, d2 is NaN where
    :func:`dist_d2` raises, tr(R1^T R2) = 4 <p, q>^2 - 1 within 1e-12 of -1.
    This one table serves every distance the package reads: the public
    distances, ``rotavg distance``, and d1 of the class rule
    (:func:`_classes`) and of the sweep's tie test.
    """
    x = P @ np.swapaxes(Q, -1, -2)
    sQ = np.copysign(1.0, x)[..., None] * Q[..., None, :, :]
    e, f = P[..., :, None, :] - sQ, P[..., :, None, :] + sQ
    ee = np.vecdot(e, e)
    ne, nf = np.sqrt(ee), np.sqrt(np.vecdot(f, f))
    d2 = 4.0 * np.sqrt(2.0) * np.arctan2(ne, nf)
    if masked:
        d2[4.0 * x * x < 1e-12] = np.nan
    return np.sqrt(2.0) * ne * nf, d2, 0.5 * ee


def _norms(A):
    """The Euclidean norm of each row of A (n, ...), with the bits
    np.linalg.norm gives the row alone: the sqrt of one dot per row."""
    A = A.reshape(len(A), math.prod(A.shape[1:]))
    return np.sqrt(np.vecdot(A, A))


def _classes(Q):
    """The one rule that puts rotations in one class: for each row of Q,
    unit quaternions (n, 4), the index of its class's first row, its head;
    for a stack (m, n, 4), one such list per set.

    A row joins the first class whose head's rotation matrix lies within
    Frobenius distance 1e-8 of its own, d1 of the unmasked
    :func:`_pair_distances` table of Q against itself, so q and -q share a
    class; otherwise it heads a new class.
    """

    def heads(near):
        out = []
        for i, row in enumerate(near):
            out.append(next((j for j, h in enumerate(out) if h == j and row[j]), i))
        return out

    near = (_pair_distances(Q, Q, masked=False)[0] < 1e-8).tolist()
    return [heads(t) for t in near] if np.ndim(Q) == 3 else heads(near)


# tangent_frame(q)[k] = q[_FRAME_INDEX[k]] * _FRAME_SIGN[k]: the rows
# (q3, -q2, q1, -q0), (-q2, -q3, q0, q1) and (q1, -q0, -q3, q2)
_FRAME_INDEX = np.array([[3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2]])
_FRAME_SIGN = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])


def tangent_frame(q):
    """The global orthonormal tangent frame of S3 at unit q.

    Parameters
    ----------
    q : (4,) or (n, 4) array_like
        Unit quaternion(s).

    Returns
    -------
    (3, 4) or (n, 3, 4) ndarray
        B with ``B @ q == 0``, ``B @ B.T == I`` and ``B(-q) == -B(q)``: its
        rows span the tangent space at q. ``B @ qi`` are the entries
        (a, b, c) of :func:`delta_skew` at (q, qi).
    """
    return np.asarray(q, dtype=float)[..., _FRAME_INDEX] * _FRAME_SIGN


def delta_skew(q, qi):
    """The skew matrix Delta_i(q) pairing a point q with a sample lift qi.

    Its entries (a, b, c), with ``Delta_i = [[0, a, b], [-a, 0, c],
    [-b, -c, 0]]``, are the coordinates ``tangent_frame(q) @ qi`` of qi in
    the tangent frame at q, so ``D + D.T`` is exactly zero. Satisfies
    ``delta_skew(-q, qi) == -delta_skew(q, qi)`` and
    ``<q,qi> * Delta_i(q) == ((R^q)^T R^qi - (R^qi)^T R^q) / 4``. Two
    (n, 4) stacks give one matrix per pair of rows.
    """
    return _skew(np.matvec(tangent_frame(q), qi))


def _skew(v):
    """The skew matrix [[0, a, b], [-a, 0, c], [-b, -c, 0]] of v = (a, b, c),
    one per row of an (n, 3) array."""
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., (0, 0, 1), (1, 2, 2)] = v
    S[..., (1, 2, 2), (0, 0, 1)] = -v
    return S


class SampleSet:
    """The averaging input: r sample rotations with chosen quaternion lifts,
    or a stack of m such inputs of equal r.

    Attributes
    ----------
    quaternions : (r, 4) or (m, r, 4) ndarray
        Unit lifts q_i, one row per sample, kept exactly as supplied
        (results never depend on the lift signs, but the lifts themselves
        are the caller's choice). The set keeps no rotation matrices; a
        caller that wants them calls ``covering_map(quaternions)``.
    columns : (4, r) or (m, 4, r) ndarray
        The lifts as contiguous columns, so that a weighted sum
        sum_i w_i q_i is one matvec for every row of weights.
    outer_products : (16, r) or (m, 16, r) ndarray
        The entries of each q_i q_i^T as columns: S = sum_i v_i q_i q_i^T
        is one matvec, reshaped to 4x4, and the sample rotations enter
        only through it: sum_i u_i R_i is L(sum_i u_i q_i q_i^T) for the
        fixed linear map L that :func:`covering_map` is on q q^T. Formed on
        first read and cached.
    second_moment : (4, 4) or (m, 4, 4) ndarray
        M = sum_i q_i q_i^T.
    fourth_moment : (16, 16) or (m, 16, 16) ndarray
        T = sum_i q_i^(x4), with T[4a + b, 4c + d] = sum_i q_ia q_ib q_ic
        q_id, so that T(q, q, ., .) = sum_i <q, q_i>^2 q_i q_i^T is one
        matvec with the entries of q q^T, reshaped to 4x4.

    The two moments are even in each lift, so they do not depend on the
    lift signs. The cost kinds whose weights are polynomials (Lp 2, so
    l2, and Lp 4) read the samples through them in their fields and
    Hessians, with no per-sample work at a point. Each is formed on the
    first read and cached, like ``outer_products``, by one product of a
    matrix with its own transpose per set, so it is exactly symmetric and
    set k of a stack has the bits of set k alone.

    A stack lets one :class:`~rotavg.costs.CostModel` evaluate m problems
    at once: each of its evaluators takes exactly m rows, an (m, 4) stack
    of points or (m, 3, 3) of rotations, and reads row k against set k,
    each row with the bits of the one-point call on the set alone. Any
    other row count raises ValueError, and so does one point unless m = 1.
    The Hessian, and so the solvers, need a single set and raise ValueError
    on a stack.
    """

    def __init__(self, quaternions):
        self.__post_init__(quaternions)

    def __post_init__(self, quaternions):
        # apart from __init__ because bench/layers.py times builds by wrapping it
        Q = np.atleast_2d(np.asarray(quaternions, dtype=float))
        if Q.ndim > 3 or Q.shape[-1] != 4 or Q.shape[-2] < 1 or not np.isfinite(Q).all():
            raise ValueError("quaternions must be a finite (r, 4) or (m, r, 4) array with r >= 1")
        self.quaternions = normalize(Q)
        self.columns = np.ascontiguousarray(np.swapaxes(self.quaternions, -1, -2))

    @cached_property
    def outer_products(self):
        Q = self.quaternions
        return np.einsum("...ia,...ib->...abi", Q, Q, order="C").reshape(Q.shape[:-2] + (16, -1))

    @cached_property
    def second_moment(self):
        return self.columns @ np.swapaxes(self.columns, -1, -2)

    @cached_property
    def fourth_moment(self):
        return self.outer_products @ np.swapaxes(self.outer_products, -1, -2)

    @classmethod
    def from_quaternions(cls, qs):
        return cls(np.asarray(qs, dtype=float))

    @classmethod
    def from_rotations(cls, Rs):
        return cls(quat_from_rotation(Rs))

    @property
    def r(self):
        return self.quaternions.shape[-2]

    @property
    def stacked(self):
        """Whether this holds a stack of m sample sets."""
        return self.quaternions.ndim == 3

    def __len__(self):
        return self.r
