"""Quaternion/rotation primitives for averaging on the unit sphere S3.

Unit quaternions q = (q0, q1, q2, q3) (scalar first) double-cover SO(3):
q and -q map to the same rotation. Everything downstream — cost models,
control fields, the parametric sweep — is built on the handful of maps
in this module: the covering map, the inverse lift,
three distances, the global orthonormal tangent frame of S3, and the skew
matrices that push tangent data down to rotation space.

All functions take and return plain numpy arrays.
"""

from __future__ import annotations

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


def normalize(q):
    """Return q / ||q||, or each row of an (n, 4) array over its own norm.

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
        If ``q`` (or any row) is (numerically) zero.
    """
    q = np.asarray(q, dtype=float)
    n = np.sqrt(np.vecdot(q, q, keepdims=True))
    if (n < 1e-300).any():
        raise ValueError("cannot normalize the zero quaternion")
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
    Rs = R.reshape(-1, 3, 3)
    d = np.diagonal(Rs, axis1=1, axis2=2)
    t = np.trace(Rs, axis1=1, axis2=2)
    # K = 4 q q^T from the entries of R, so with s = 2 sqrt(K[b, b]) = 4 |q_b|
    # each row gives K[b] / s = +-q; the row with the largest diagonal entry
    # divides by the largest |q_b| (at least 1/2). Row 0 is the trace branch,
    # row 1 + i Shepperd's branch for R[i, i]
    K = np.empty((len(Rs), 4, 4))
    K[:, 0] = np.stack([1.0 + t, Rs[:, 2, 1] - Rs[:, 1, 2], Rs[:, 0, 2] - Rs[:, 2, 0], Rs[:, 1, 0] - Rs[:, 0, 1]], 1)
    for i in range(3):
        # written once under the cyclic relabelling (i, j, k) of the axes;
        # the subtrahends stay in ascending index order
        j, k = (i + 1) % 3, (i + 2) % 3
        m, n = sorted((j, k))
        K[:, 1 + i, 0] = Rs[:, k, j] - Rs[:, j, k]
        K[:, 1 + i, 1 + i] = 1.0 + Rs[:, i, i] - Rs[:, m, m] - Rs[:, n, n]
        K[:, 1 + i, 1 + j] = Rs[:, i, j] + Rs[:, j, i]
        K[:, 1 + i, 1 + k] = Rs[:, i, k] + Rs[:, k, i]
    rows = np.arange(len(Rs))
    b = np.where(t >= d.max(axis=1), 0, 1 + np.argmax(d, axis=1))
    s = 2.0 * np.sqrt(np.maximum(K[rows, b, b], 0.0))
    q = K[rows, b] / s[:, None]
    q[rows, b] = 0.25 * s
    return canonicalize_sign(normalize(q)).reshape(R.shape[:-2] + (4,))


def rotation_angle(R1, R2):
    """Relative rotation angle |theta| = arccos((tr(R1^T R2) - 1)/2) in [0, pi].

    The trace argument is clamped to [-1, 1] before arccos; floating-point
    drift on traces of products routinely lands a hair outside.
    """
    t = np.trace(np.asarray(R1).T @ np.asarray(R2))
    return float(np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0)))


def dist_d1(R1, R2):
    """Chordal distance: Frobenius norm ||R1 - R2||_F."""
    return float(np.linalg.norm(np.asarray(R1, dtype=float) - np.asarray(R2, dtype=float)))


def dist_d2(R1, R2):
    """Geodesic distance sqrt(2) * |theta|.

    Raises
    ------
    ValueError
        If tr(R1^T R2) = -1 within 1e-12 (relative angle pi), where the
        matrix logarithm — hence the distance derivative — is undefined.
    """
    t = float(np.trace(np.asarray(R1).T @ np.asarray(R2)))
    if abs(t + 1.0) < 1e-12:
        raise ValueError("geodesic distance undefined at relative angle pi (trace = -1)")
    return float(np.sqrt(2.0) * rotation_angle(R1, R2))


def dist_d3(R1, R2):
    """1 - |<q1,q2>| on quaternion lifts, read off P = R1^T R2 (see
    :func:`_abs_dots`): 1 - (1/2) sqrt(tr P + 1) where tr P >= 0, and past
    that from the skew part P - P^T, which keeps full precision up to
    relative angle pi. Two (n, 3, 3) stacks give one distance per pair of
    rows."""
    R1 = np.asarray(R1, dtype=float)
    d = 1.0 - _abs_dots(R1, np.expand_dims(R2, -3))[..., 0]
    return float(d) if R1.ndim == 2 else d


def _abs_dots(R, Rs):
    """|x_i| = |<q, q_i>| for lifts q of R and q_i of each R_i in Rs (r, 3, 3),
    read off P_i = R^T R_i with trace t_i. A stack R (n, 3, 3) reads every
    row against Rs, or row k against the k-th set of a stack Rs
    (n, r, 3, 3), giving (n, r).

    Where t_i >= 0 it is sqrt(t_i + 1) / 2. Below that, near relative angle
    pi, that form has condition 1/(4 |x_i|) in t_i, so the skew part is read
    instead: ||P_i - P_i^T||_F^2 = 8 x_i^2 (3 - t_i) keeps full precision.
    """
    # one (r, 9) @ (9, 4) product gives t_i and the axial vector w_i of
    # P_i - P_i^T, w_i = sum_k R_i[k] x R[k] over the rows k, whose squared
    # norm is half the skew part's
    R = np.asarray(R, dtype=float)
    batch = R.shape[:-2]
    C = np.zeros(R.shape + (4,))
    C[..., 0] = R
    C[..., (1, 2, 0), (1, 2, 3)] = R[..., (2, 0, 1)]
    C[..., (2, 0, 1), (1, 2, 3)] = -R[..., (1, 2, 0)]
    Y = np.reshape(Rs, np.shape(Rs)[:-3] + (-1, 9)) @ C.reshape(batch + (9, 4))
    t, w = Y[..., 0], Y[..., 1:]
    # the clamps keep the branch that a row does not take finite
    near = 0.5 * np.sqrt(np.maximum(t + 1.0, 1.0))
    far = np.sqrt(np.vecdot(w, w) / (4.0 * np.maximum(3.0 - t, 3.0)))
    return np.where(t >= 0.0, near, far)


def _pair_distances(P, Q):
    """d1, d2 and d3 between the rotations of every row of P (n, 4) and
    every row of Q (m, 4), unit quaternions, as three (n, m) arrays; for
    stacks P (..., n, 4) and Q (..., m, 4), three (..., n, m) arrays, one
    table per stacked pair of sets.

    With s = sign <p, q>, e = p - s q and f = p + s q, |e| |f| = 2 sqrt(1 -
    <p, q>^2) and the half angle is 2 atan2(|e|, |f|), so d1 = sqrt(2) |e|
    |f|, d2 = 4 sqrt(2) atan2(|e|, |f|) and d3 = 1 - |<p, q>| = |e|^2 / 2,
    each with full relative precision down to coincident rotations, where
    the matrix forms cancel. d2 is NaN where :func:`dist_d2` raises,
    tr(R1^T R2) = 4 <p, q>^2 - 1 within 1e-12 of -1.
    """
    x = P @ np.swapaxes(Q, -1, -2)
    sQ = np.copysign(1.0, x)[..., None] * Q[..., None, :, :]
    e, f = P[..., :, None, :] - sQ, P[..., :, None, :] + sQ
    ee = np.vecdot(e, e)
    ne, nf = np.sqrt(ee), np.sqrt(np.vecdot(f, f))
    d2 = 4.0 * np.sqrt(2.0) * np.arctan2(ne, nf)
    d2[4.0 * x * x < 1e-12] = np.nan
    return np.sqrt(2.0) * ne * nf, d2, 0.5 * ee


def _classes(Q):
    """The one rule that puts rotations in one class: for each row of Q,
    unit quaternions (n, 4), the index of its class's first row, its head;
    for a stack (m, n, 4), one such list per set.

    A row joins the first class whose head's rotation matrix lies within
    Frobenius distance 1e-8 of its own (d1 of :func:`_pair_distances`), so
    q and -q share a class; otherwise it heads a new class.
    """

    def heads(near):
        out = []
        for i, row in enumerate(near):
            out.append(next((j for j, h in enumerate(out) if h == j and row[j]), i))
        return out

    near = (_pair_distances(Q, Q)[0] < 1e-8).tolist()
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
        are the caller's choice).
    rotations : (r, 3, 3) or (m, r, 3, 3) ndarray
        The sample rotations R_i = covering_map(q_i), formed on first read
        and cached; most callers work on the lifts alone and never form
        them. A set built by ``from_rotations`` keeps only the lifts
        (:func:`quat_from_rotation`) and forms its rotations from them like
        any other.
    columns : (4, r) or (m, 4, r) ndarray
        The lifts as contiguous columns, so that a weighted sum
        sum_i w_i q_i is one matvec for every row of weights.
    outer_products : (16, r) or (m, 16, r) ndarray
        The entries of each q_i q_i^T as columns: S = sum_i v_i q_i q_i^T
        is one matvec, reshaped to 4x4. Formed on first read and cached,
        like ``rotations``.

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
        if Q.ndim > 3 or Q.shape[-1] != 4 or Q.shape[-2] < 1:
            raise ValueError("quaternions must be an (r, 4) or (m, r, 4) array with r >= 1")
        self.quaternions = normalize(Q)
        self.columns = np.ascontiguousarray(np.swapaxes(self.quaternions, -1, -2))

    @cached_property
    def rotations(self):
        return covering_map(self.quaternions)

    @cached_property
    def outer_products(self):
        Q = self.quaternions
        return np.einsum("...ia,...ib->...abi", Q, Q, order="C").reshape(Q.shape[:-2] + (16, -1))

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
