"""Quaternion/rotation primitives for averaging on the unit sphere S3.

Unit quaternions q = (q0, q1, q2, q3) (scalar first) double-cover SO(3):
q and -q map to the same rotation. Everything downstream — cost models,
control fields, the parametric sweep — is built on the handful of maps
in this module: the covering map and its differential, the inverse lift,
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
    "dp_apply",
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
    q : (4,) or (r, 4) array_like
        Unit quaternion(s) (q0, q1, q2, q3), scalar part first.

    Returns
    -------
    (3, 3) or (r, 3, 3) ndarray
        The rotation matrix of each; ``covering_map(q) == covering_map(-q)``.
    """
    q = np.asarray(q, dtype=float)
    q0, q1, q2, q3 = q.T
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
    """1 - (1/2) sqrt(tr(R1^T R2) + 1); equals 1 - |<q1,q2>| on quaternion lifts."""
    t = float(np.trace(np.asarray(R1).T @ np.asarray(R2)))
    return float(1.0 - 0.5 * np.sqrt(max(t + 1.0, 0.0)))


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
    ``<q,qi> * Delta_i(q) == ((R^q)^T R^qi - (R^qi)^T R^q) / 4``.
    """
    return _skew(tangent_frame(q) @ qi)


def _skew(v):
    """The skew matrix [[0, a, b], [-a, 0, c], [-b, -c, 0]] of v = (a, b, c),
    one per row of an (n, 3) array."""
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., (0, 0, 1), (1, 2, 2)] = v
    S[..., (1, 2, 2), (0, 0, 1)] = -v
    return S


def _dp_jacobian(q):
    # 9x4 Jacobian of the coordinate extension of the covering map,
    # rows ordered row-major over the 3x3 image.
    q0, q1, q2, q3 = q
    return 2.0 * np.array(
        [
            [q0, q1, -q2, -q3],
            [-q3, q2, q1, -q0],
            [q2, q3, q0, q1],
            [q3, q2, q1, q0],
            [q0, -q1, q2, -q3],
            [-q1, -q0, q3, q2],
            [-q2, q3, -q0, q1],
            [q1, q0, q3, q2],
            [q0, -q1, -q2, q3],
        ]
    )


def dp_apply(q, v):
    """Differential of the covering map: directional derivative along v.

    Applies the 9x4 Jacobian of the ambient extension of the covering map at
    q to the 4-vector v and reshapes the result row-major into 3x3. For v
    tangent to the sphere at unit q, ``covering_map(q).T @ dp_apply(q, v)``
    is skew-symmetric (a tangent vector of SO(3) in body coordinates).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return (_dp_jacobian(q) @ v).reshape(3, 3)


class SampleSet:
    """The averaging input: r sample rotations with chosen quaternion lifts.

    Attributes
    ----------
    quaternions : (r, 4) ndarray
        Unit lifts q_i, one row per sample, kept exactly as supplied
        (results never depend on the lift signs, but the lifts themselves
        are the caller's choice).
    rotations : (r, 3, 3) ndarray
        The sample rotations R_i = covering_map(q_i), formed on first read
        and cached; most callers work on the lifts alone and never form
        them. Rotations passed to the constructor (or ``from_rotations``)
        must match ``covering_map(q_i)`` within 1e-10, checked at
        construction, and are kept as given.
    """

    def __init__(self, quaternions, rotations=None):
        self.__post_init__(quaternions, rotations)

    def __post_init__(self, quaternions, rotations):
        # apart from __init__ because bench/layers.py times builds by wrapping it
        Q = np.atleast_2d(np.asarray(quaternions, dtype=float))
        if Q.ndim != 2 or Q.shape[1] != 4 or Q.shape[0] < 1:
            raise ValueError("quaternions must be an (r, 4) array with r >= 1")
        Q = normalize(Q)
        if rotations is not None:
            R = np.asarray(rotations, dtype=float)
            if R.shape != (Q.shape[0], 3, 3):
                raise ValueError("rotations must be an (r, 3, 3) array matching quaternions")
            if np.max(np.abs(covering_map(Q) - R)) > 1e-10:
                raise ValueError("quaternion lift does not reproduce its rotation")
            self.rotations = R  # seeds the cache
        self.quaternions = Q

    @cached_property
    def rotations(self):
        return covering_map(self.quaternions)

    @classmethod
    def from_quaternions(cls, qs):
        return cls(np.asarray(qs, dtype=float))

    @classmethod
    def from_rotations(cls, Rs):
        Rs = np.asarray(Rs, dtype=float)
        if Rs.ndim == 2:
            Rs = Rs[None]
        return cls(quat_from_rotation(Rs), Rs)

    @property
    def r(self):
        return self.quaternions.shape[0]

    def __len__(self):
        return self.r
