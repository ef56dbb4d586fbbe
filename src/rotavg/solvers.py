"""Critical-point finding: dissipative flow, multistart, classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostModel
from .geometry import canonicalize_sign, covering_map, normalize

__all__ = [
    "CriticalPoint",
    "MaxIters",
    "DomainBreach",
    "AmbiguousMean",
    "flow_descend",
    "multistart",
    "classify",
    "eigen_oracle_l2",
    "random_unit_quaternion",
]

MAX_ITERS = 200000  # iteration budget of one flow_descend
INITIAL_STEP = 1e-2  # first Euler step flow_descend tries
STEP_SHRINK = 0.5  # backtracking factor of the line search
NEWTON_RADIUS = 1e-3  # longest Newton step flow_descend tries
BOUNDARY_CLEARANCE = 2e-5  # classify labels points this close to an excluded set Boundary


class MaxIters(RuntimeError):
    """Flow did not reach the gradient tolerance within the iteration budget."""


class DomainBreach(RuntimeError):
    """An accepted iterate entered a guard buffer of the model's excluded sets."""


class AmbiguousMean(RuntimeError):
    """Top two eigenvalues nearly tie: the chordal mean is not unique."""


@dataclass
class CriticalPoint:
    q: np.ndarray
    R: np.ndarray
    cost: float
    control_norm: float
    rotation_residual_norm: float
    classification: Optional[str] = None
    degenerate: bool = False


def random_unit_quaternion(rng):
    """Uniform point on S3 (normalized 4-variate Gaussian)."""
    return normalize(rng.standard_normal(4))


def flow_descend(model: CostModel, q0, tol: float = 1e-12) -> CriticalPoint:
    """Follow -control_field from q0 to a critical point of the lifted cost.

    The one-start case of the lockstep flow that :func:`multistart` runs.
    Each iteration first tries one Riemannian Newton step (see
    :func:`_newton_trial`); where it is not taken, a projected explicit
    Euler step with a backtracking line search on the cost follows. Once the
    cost change falls below a few ulps (values can no longer certify
    descent) a step is accepted only if it strictly shrinks
    ||control_field||, which carries the iterate down to the gradient noise
    floor. Stops when ||control_field|| < tol * (1 + c r): the gradient
    -c sum_i w_i q_i sums r terms of scale c, so its rounding floor, and
    with it the field's, grows with both (c is ``model.scale``, r the
    sample count).

    Raises ValueError unless tol is finite and positive, MaxIters if
    MAX_ITERS iterations run out (or no acceptable step exists) and
    DomainBreach if the start or an accepted iterate lies inside a guard
    buffer.
    """
    q, nv, ends = _flow(model, np.asarray(q0, dtype=float)[None], tol)
    if ends[0] is not None:
        raise ends[0]
    return _critical_point(model, canonicalize_sign(normalize(q[0])), nv[0])


def _flow(model, Q0, tol):
    """Advance the flow from every row of Q0 at once, in lockstep.

    Each row keeps its own point, cost, step size, Newton trial and line
    search, and leaves the loop when it converges or fails; the rows still
    running share one batched call per evaluation. Returns the final points
    (n, 4), their ||control_field|| and, per row, None where it converged or
    the MaxIters or DomainBreach it ended with.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    stop = tol * (1.0 + model.scale * model.samples.r)
    q = normalize(Q0)
    cost = model.value(q)
    h = np.full(len(q), INITIAL_STEP)
    nv_end = np.full(len(q), np.nan)
    ends = [None] * len(q)
    inside = ~model.admissible(q)
    for k in np.flatnonzero(inside):
        ends[k] = DomainBreach("start point violates the model's domain guard")
    live = np.flatnonzero(~inside)
    for it in range(MAX_ITERS):
        if not live.size:
            break
        V = model.control_field(q[live])
        nv = np.sqrt(np.vecdot(V, V))
        done = nv < stop
        nv_end[live[done]] = nv[done]
        live, V, nv = live[~done], V[~done], nv[~done]
        X, c = q[live], cost[live]
        # value evaluations carry cancellation noise well above one ulp, so
        # every acceptance test judges decreases against this larger scale
        noise = 1e-13 * (1.0 + np.abs(c))
        moved, Y, cY = _newton_trial(model, X, V, nv, c, noise)
        rest = np.flatnonzero(~moved)
        # retry a bit above the last accepted step
        h_rest = np.minimum(2.0 * h[live[rest]], 1e6)
        moved[rest], Y[rest], cY[rest], h[live[rest]] = _line_search(model, X[rest], V[rest], nv[rest], c[rest], noise[rest], h_rest)
        for k in np.flatnonzero(~moved):
            ends[live[k]] = MaxIters(f"line search stalled at iteration {it} (|v0| = {nv[k]:.3e})")
        live = live[moved]
        q[live], cost[live] = Y[moved], cY[moved]
        inside = ~model.admissible(q[live])
        for k in live[inside]:
            ends[k] = DomainBreach("iterate entered a guard buffer of an excluded set")
        live = live[~inside]
    for k in live:
        ends[k] = MaxIters(f"no convergence in {MAX_ITERS} iterations")
    return q, nv_end, ends


def _newton_trial(model, X, V, nv, cost, noise):
    """One Riemannian Newton step from each unit row of X: which rows take
    it, and their new points and costs.

    In the tangent frame B at q (:func:`~rotavg.geometry.tangent_frame`) the
    step solves K e = -B v / 4, where v / 4 is the Riemannian gradient and
    K = B H B^T the 3x3 tangent Hessian (H from :meth:`CostModel.hessian`),
    and moves by eta = B^T e. One eigendecomposition K = E diag(lam) E^T
    gives both the gate and the step eta = B^T E (E^T B (-v / 4) / lam). The step
    is tried only where K is positive definite (lam_min > 0) and eta is
    finite and no longer than NEWTON_RADIUS, and taken if the cost at
    normalize(q + eta) falls by more than the noise scale, or stays within
    it while ||control_field|| at least halves.
    """
    took = np.zeros(len(X), dtype=bool)
    Y, cY = np.empty_like(X), np.empty(len(X))
    B, K = model._frame_hessian(X)
    # ||eta|| >= ||v / 4|| / ||K||_F, so the other rows would step too far
    rows = np.flatnonzero(0.25 * nv <= NEWTON_RADIUS * np.sqrt((K * K).sum(axis=(1, 2))))
    lam, E = np.linalg.eigh(K[rows])
    pd = lam[:, 0] > 0.0  # eigh sorts each row ascending
    rows, lam = rows[pd], lam[pd]
    EB = E[pd].transpose(0, 2, 1) @ B[rows]  # rows: the eigenvectors as tangent vectors
    eta = np.vecmat(np.matvec(EB, -0.25 * V[rows]) / lam, EB)
    short = np.all(np.isfinite(eta), axis=1) & (np.sqrt(np.vecdot(eta, eta)) <= NEWTON_RADIUS)
    rows, eta = rows[short], eta[short]
    Y[rows] = normalize(X[rows] + eta)
    cY[rows] = model.value(Y[rows])
    dc = cY[rows] - cost[rows]
    took[rows] = _or_field_shrinks(model, Y[rows], dc < -noise[rows], dc <= noise[rows], 0.5 * nv[rows])
    return took, Y, cY


def _or_field_shrinks(model, Y, ok, within_noise, field_bound):
    """Which trial rows Y pass: those already ok, and those whose cost change
    stays within the noise while ||control_field|| at Y is at most
    field_bound. The field is evaluated only on the rows that decides; a
    NaN cost (a trial inside a guard buffer) passes neither test."""
    check = ~ok & within_noise
    if check.any():
        F = model.control_field(Y[check])
        ok[check] = np.sqrt(np.vecdot(F, F)) <= field_bound[check]
    return ok


def _line_search(model, X, V, nv, cost, noise, h):
    """Backtrack each row from its step h along -v: which rows found an
    acceptable step, and their new points, costs and accepted steps."""
    found = np.zeros(len(X), dtype=bool)
    Y, cY, h = np.empty_like(X), np.empty(len(X)), h.copy()
    todo = np.flatnonzero(h * nv > 1e-18)
    while todo.size:
        T = normalize(X[todo] - h[todo, None] * V[todo])
        cT = model.value(T)
        n = nv[todo]
        # sufficient decrease: <grad, v> = |v|^2 / 4 at unit q, so a
        # tenth of the first-order prediction must materialize — bare
        # descent would admit wildly overshooting steps near the floor
        dc = cT - cost[todo]
        decrease = dc <= -np.maximum(0.025 * h[todo] * n * n, noise[todo])
        ok = _or_field_shrinks(model, T, decrease, dc <= noise[todo], 0.999 * n)
        done = todo[ok]
        found[done], Y[done], cY[done] = True, T[ok], cT[ok]
        todo = todo[~ok]
        h[todo] *= STEP_SHRINK
        todo = todo[h[todo] * nv[todo] > 1e-18]
    return found, Y, cY, h


def _critical_point(model, q, nv):
    """The CriticalPoint at a converged, canonical unit q."""
    R = covering_map(q)
    rr = float(np.linalg.norm(model.rotation_residual(R)))
    return CriticalPoint(q=q, R=R, cost=float(model.value(q)), control_norm=float(nv), rotation_residual_norm=rr)


def multistart(model: CostModel, n_starts: int, seed: int, tol: float = 1e-12):
    """Run the flow from n uniform random starts in lockstep; dedup and sort
    by cost.

    Starts violating the model's domain guard are resampled. Limits are
    identified under q ~ -q by comparing rotation matrices (Frobenius
    tolerance 1e-8); each class keeps its best-converged representative.
    Per-start failures (MaxIters, DomainBreach) are tolerated; the returned
    list holds the surviving classes, classified, sorted by cost.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_starts):
        q0 = random_unit_quaternion(rng)
        for _ in range(1000):
            if model.admissible(q0):
                break
            q0 = random_unit_quaternion(rng)
        starts.append(q0)
    q, nv, ends = _flow(model, np.array(starts), tol)
    converged = [k for k, end in enumerate(ends) if end is None]
    q[converged] = canonicalize_sign(normalize(q[converged]))
    R = covering_map(q[converged]).reshape(-1, 9)
    reps: list[int] = []  # positions in `converged` of each class's representative
    for i, k in enumerate(converged):
        if reps:
            diff = R[reps] - R[i]
            near = np.flatnonzero(np.sqrt(np.vecdot(diff, diff)) < 1e-8)
            if near.size:
                if nv[k] < nv[converged[reps[near[0]]]]:
                    reps[near[0]] = i
                continue
        reps.append(i)
    classes = [_critical_point(model, q[converged[i]], nv[converged[i]]) for i in reps]
    classes.sort(key=lambda p: p.cost)
    for pt, label in zip(classes, _classify_rows(model, np.reshape([pt.q for pt in classes], (-1, 4)))):
        pt.classification, pt.degenerate = label
    return classes


def classify(model: CostModel, point: CriticalPoint):
    """Label a converged point Min/Max/Saddle/Degenerate/Boundary.

    The eigenvalues of the analytic tangent Hessian
    (:meth:`CostModel.hessian`) in the tangent frame at q
    (:func:`~rotavg.geometry.tangent_frame`). Eigenvalues below 1e-6 of the
    dominant one are treated as zero (critical circles make one soft direction
    routine); the second return value flags that degeneracy. Points within
    BOUNDARY_CLEARANCE of an excluded set are labeled Boundary.
    """
    return _classify_rows(model, np.asarray(point.q, dtype=float)[None])[0]


def _classify_rows(model, Q):
    """:func:`classify` for each row of Q: one batched Hessian in the
    tangent frame and one stacked eigvalsh, over the rows clear of the
    boundary."""
    labels = [("Boundary", False)] * len(Q)
    inner = np.flatnonzero(model.clearance(Q) >= BOUNDARY_CLEARANCE)
    lams = np.linalg.eigvalsh(model._frame_hessian(Q[inner])[1])
    for k, lam in zip(inner, lams):
        scale = float(np.max(np.abs(lam)))
        signif = lam[np.abs(lam) >= 1e-6 * scale]
        degenerate = signif.size < 3
        if scale == 0.0 or signif.size == 0:
            labels[k] = ("Degenerate", True)
        elif np.all(signif > 0):
            labels[k] = ("Min", degenerate)
        elif np.all(signif < 0):
            labels[k] = ("Max", degenerate)
        else:
            labels[k] = ("Saddle", degenerate)
    return labels


def eigen_oracle_l2(samples):
    """Independent minimizer of the chordal cost: dominant eigenvector of
    M = sum_i q_i q_i^T.

    Maximizes sum <q,q_i>^2 over S3 (Markley et al., "Averaging
    Quaternions", 2007). Raises AmbiguousMean when the top two eigenvalues
    are closer than 1e-10.
    """
    Q = samples.quaternions
    lam, V = np.linalg.eigh(Q.T @ Q)
    if lam[-1] - lam[-2] < 1e-10:
        raise AmbiguousMean("top two eigenvalues within 1e-10: mean not unique")
    return canonicalize_sign(V[:, -1])
