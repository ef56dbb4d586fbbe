"""Gram-determinant control fields on Euclidean ambient space.

Generic engine: given k constraint fields F_1..F_k on R^m and an objective
G, the standard control vector field

    v0 = sum_i (-1)^(i+k+1) det S[(F1..Fk); (F1..^Fi..Fk, G)] grad F_i
         + det S[(F1..Fk); (F1..Fk)] grad G

is tangent to every level set of F and restricts to a gradient-like field
for G on each regular leaf; <grad G, v0> is itself a Gram determinant, so
it is nonnegative and vanishes exactly at the constrained critical points.
Both read one Gram matrix S of g = (grad F_1..grad F_k, grad G) per point:
the rate is det S, and v0 = sum_j (-1)^(k+j) det S[:k, columns != j] g_j,
the Laplace expansion of det S along its last row with g in place of
<., grad G>.

The unit sphere S3 in R^4 (k=1, F = ||q||^2) has a closed-form fast path:
the degenerate tensor T with i_w T(q) = 4(<q,q> w - <q,w> q).

gramian, v0, dissipation_rate and fd_gradient also take an (n, m) stack of
points and return one result per row, each with the bits of the one-point
call; the Gram determinants of all rows then come from one stacked matmul
and one determinant each, not from a Python loop over the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ScalarField",
    "AmbientProblem",
    "gramian",
    "v0",
    "dissipation_rate",
    "apply_T_sphere",
    "unit_sphere_problem",
    "fd_gradient",
]


@dataclass(frozen=True)
class ScalarField:
    """A scalar field with its analytic gradient."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AmbientProblem:
    """Constraint fields F_1..F_k and objective G on R^m, k < m.

    v0 is tangent to every level set F^{-1}(c0) of F, so the problem names
    no level. Regularity (independent constraint gradients) is a pointwise
    condition: the determinant of the constraint Gramian (:func:`gramian`)
    at the point is nonzero.
    """

    dimension: int
    constraints: tuple[ScalarField, ...]
    objective: ScalarField

    def __post_init__(self):
        if not 1 <= len(self.constraints) < self.dimension:
            raise ValueError("need 1 <= k < m constraint fields")


def gramian(grads_rows, grads_cols):
    """Gram matrix with entry (a, b) = <grads_cols[b], grads_rows[a]>.

    Each argument is a sequence of gradients of one point, (a, m), or of
    n points each, (a, n, m); the latter gives one (a, b) matrix per point,
    (n, a, b), each with the bits of the one-point call.
    """
    rows, cols = _by_point(grads_rows), _by_point(grads_cols)
    if rows.shape[-1] != cols.shape[-1]:
        raise ValueError("gradient dimension mismatch")
    return rows @ np.swapaxes(cols, -1, -2)


def _by_point(grads):
    # (a, n, m) gradients of n points to n contiguous (a, m) blocks, so that
    # matmul makes one BLAS call per point, the call a single point makes
    G = np.atleast_2d(np.asarray(grads, dtype=float))
    return G if G.ndim == 2 else np.ascontiguousarray(np.moveaxis(G, 0, -2))


def _det(M):
    # cofactor expansion up to 3x3, LU beyond; one per matrix of a stack
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if n == 3:
        return (
            M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
            - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
            + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0])
        )
    return np.linalg.det(M)


def _gram(problem: AmbientProblem, x):
    """The gradients g = (grad F_1..grad F_k, grad G) at x and their Gram
    matrix S = gramian(g, g), one (k+1)x(k+1) matrix per point."""
    x = np.asarray(x, dtype=float)
    g = [f.grad(x) for f in problem.constraints] + [problem.objective.grad(x)]
    return g, gramian(g, g)


def v0(problem: AmbientProblem, x) -> np.ndarray:
    """The standard control vector field at x, a point (m,) or a stack of
    points (n, m) with one field per row.

    Defined everywhere; vanishes wherever the constraint gradients become
    dependent. For k=1 reduces to ||grad F||^2 grad G - <grad F, grad G> grad F.
    The problem's gradients must take the same (m,) or (n, m) input.
    """
    g, S = _gram(problem, x)
    k = len(g) - 1
    # the Laplace expansion along S's last row, with g_j in place of
    # <g_j, grad G>: g_j's coefficient is the cofactor of S[k, j]
    out = np.expand_dims(_det(S[..., :k, :k]), -1) * g[k]
    for j in range(k):
        out = out + np.expand_dims((-1.0) ** (k + j) * _det(np.delete(S[..., :k, :], j, axis=-1)), -1) * g[j]
    return out


def dissipation_rate(problem: AmbientProblem, x):
    """det of the (k+1)x(k+1) Gramian of (grad F_1..grad F_k, grad G), at
    a point (a float) or at each row of an (n, m) stack ((n,)).

    Equals <grad G(x), v0(x)>; nonnegative by the Gram inequality, zero
    exactly at the constrained critical points.
    """
    d = _det(_gram(problem, x)[1])
    return float(d) if np.ndim(x) == 1 else d


def apply_T_sphere(q, omega_bar):
    """Fast path for S3: i_w T(q) = 4(<q,q> w - <q,w> q), row by row for
    (n, 4) stacks of points and covectors."""
    q = np.asarray(q, dtype=float)
    w = np.asarray(omega_bar, dtype=float)
    return 4.0 * (np.vecdot(q, q, keepdims=True) * w - np.vecdot(q, w, keepdims=True) * q)


def unit_sphere_problem(objective: ScalarField) -> AmbientProblem:
    """AmbientProblem for the unit sphere F(q) = ||q||^2 = 1 in R^4."""
    F = ScalarField(value=lambda x: np.vecdot(x, x), grad=lambda x: 2.0 * np.asarray(x, dtype=float))
    return AmbientProblem(dimension=4, constraints=(F,), objective=objective)


def fd_gradient(f: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with relative step (testing helper only),
    at a point (m,) or at each row of an (n, m) stack, for which f must
    return one value per row."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.shape[-1]):
        step = h * np.maximum(1.0, np.abs(x[..., i]))
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += step
        xm[..., i] -= step
        g[..., i] = (f(xp) - f(xm)) / (2.0 * step)
    return g
