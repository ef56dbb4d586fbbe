"""Critical-point finding: dissipative flow, multistart, classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostModel
from .geometry import _classes, canonicalize_sign, covering_map, normalize

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
# relative slack on the bound that screens rows out of the Newton trial: the
# computed K = c (<w, d> I - B S B^T) rounds each of the r terms of S to a
# few eps |w'(x_i)|, at most 1e3 eps times the term's share s of the bound
# (|w'| <= 2 s for l2, geodesic, d3 and Lp with p >= 4; Lp with p < 4 keeps
# the pairs with 1 - x_i^2 < 1e-3 out of S), so its rounding stays below
# 1e-9 of the bound unless r is in the thousands and the roundings align
HESSIAN_BOUND_SLACK = 1.0 + 1e-9
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
    Euler step with a backtracking line search on the cost follows, which
    halves the step until the cost falls by the sufficient-decrease bound.
    Only where the cost change dc sits at the noise floor, |dc| <= noise
    (values can no longer certify descent), is a step accepted instead for
    strictly shrinking ||control_field||, which carries the iterate down to
    the gradient noise floor. Stops when ||control_field|| < tol * (1 + c r):
    the gradient -c sum_i w_i q_i sums r terms of scale c, so its rounding
    floor, and with it the field's, grows with both (c is ``model.scale``,
    r the sample count).

    Raises ValueError unless tol is finite and positive, or if the model
    holds a stack of sample sets, MaxIters if
    MAX_ITERS iterations run out (or no acceptable step exists) and
    DomainBreach if the start or an accepted iterate lies inside a guard
    buffer. The flow reads that from the control field it evaluates at
    each point anyway: the field is NaN exactly there, by the clearance
    that :meth:`CostModel.admissible` reads. The limit is certified as
    :func:`multistart` certifies its classes, but where its rotation
    residual raises (a limit inside a guard buffer that the flow's own
    guard let pass), so does this.
    """
    q, nv, ends = _flow(model, np.asarray(q0, dtype=float)[None], tol)
    if ends[0] is not None:
        raise ends[0]
    return _critical_points(model, canonicalize_sign(normalize(q[0])), nv)[0]


def _flow(model, Q0, tol):
    """Advance the flow from every row of Q0 at once, in lockstep.

    Each row keeps its own point, cost, step size, Newton trial and line
    search, and leaves the loop when it converges or fails; the rows still
    running share one batched call per evaluation. Their state is kept
    compacted to those rows: points X, costs c, steps h and the sample dots
    D = Q X, formed once per point when it is first evaluated and read by
    every later evaluation there. Returns the final points (n, 4), their
    ||control_field|| and, per row, None where it converged or the MaxIters
    or DomainBreach it ended with.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    model._single_set()
    stop = tol * (1.0 + model.scale * model.samples.r)
    X = normalize(Q0)
    q = X.copy()
    nv_end = np.full(len(X), np.nan)
    ends = [None] * len(X)
    D = model._dots(X)
    c = model._value(X, D)
    live, h = np.arange(len(X)), np.full(len(X), INITIAL_STEP)
    for it in range(MAX_ITERS):
        if not live.size:
            break
        V, W = model._field(X, D)
        # the Hessian reads the field's weights only through <w, d>, so the
        # (n, r) weights are dropped here rather than carried
        wd = np.vecdot(W, D)
        del W
        nv = np.sqrt(np.vecdot(V, V))
        done = nv < stop
        nv_end[live[done]] = nv[done]
        # the field is NaN exactly in the rows inside a guard buffer
        breach = np.isnan(nv)
        for k in np.flatnonzero(breach):
            ends[live[k]] = DomainBreach("iterate entered a guard buffer of an excluded set" if it else
                                         "start point violates the model's domain guard")
        live, X, D, c, h, V, wd, nv = _compact(~(done | breach), live, X, D, c, h, V, wd, nv)
        # value evaluations carry cancellation noise well above one ulp, so
        # every acceptance test judges decreases against this larger scale
        noise = 1e-13 * (1.0 + np.abs(c))
        moved = _newton_trial(model, X, D, V, wd, nv, c, noise)
        rest = np.flatnonzero(~moved)
        # retry a bit above the last accepted step
        h[rest] = np.minimum(2.0 * h[rest], 1e6)
        moved[rest] = _line_search(model, X, D, V, nv, c, noise, h, rest)
        for k in np.flatnonzero(~moved):
            ends[live[k]] = MaxIters(f"line search stalled at iteration {it} (|v0| = {nv[k]:.3e})")
        # every row that leaves the loop, here or at the next field
        # evaluation, leaves at the point written now
        q[live] = X
        live, X, D, c, h = _compact(moved, live, X, D, c, h)
    for k in live:
        ends[k] = MaxIters(f"no convergence in {MAX_ITERS} iterations")
    return q, nv_end, ends


def _compact(keep, *state):
    """The rows ``keep`` of each state array, or the arrays themselves when
    every row stays."""
    return state if keep.all() else tuple(a[keep] for a in state)


def _newton_trial(model, X, D, V, wd, nv, cost, noise):
    """One Riemannian Newton step from each unit row of X, where it is
    taken: those rows move in place, with their dots D and costs, to the new
    point. Returns which rows took it.

    In the tangent frame B at q (:func:`~rotavg.geometry.tangent_frame`) the
    step solves K e = -B v / 4, where v / 4 is the Riemannian gradient and
    K = B H B^T the 3x3 tangent Hessian (:meth:`CostModel._frame_hessian`,
    from D and wd = <w, d>, the weights w of the field V times the dots),
    and moves by eta = B^T e. One eigendecomposition K = E diag(lam) E^T
    gives both the gate and the step eta = B^T E (E^T B (-v / 4) / lam). The step
    is tried only where K is positive definite (lam_min > 0) and eta is
    finite and no longer than NEWTON_RADIUS, and taken (:func:`_try`) if
    the cost at normalize(q + eta) falls by at least the noise scale, or
    stays within it while ||control_field|| at least halves.

    Since ||eta|| >= ||v / 4|| / ||K||_F, a row can step only where
    ||v / 4|| <= NEWTON_RADIUS ||K||_F. K is formed only for the rows where
    that holds with ||K||_F replaced by its bound c (sqrt(3) |wd| + r s)
    (:meth:`CostModel._slope_bound`, times HESSIAN_BOUND_SLACK), which needs
    neither the slopes w' nor the samples' frame coordinates. Every other
    row would fail the exact test too, so the screen skips no Newton step,
    and the rows it keeps get the bits they would get without it.
    """
    took = np.zeros(len(X), dtype=bool)
    bound = model.scale * (math.sqrt(3.0) * np.abs(wd) + model.samples.r * model._slope_bound(X, D))
    screen = 0.25 * nv <= NEWTON_RADIUS * HESSIAN_BOUND_SLACK * bound
    if not screen.any():
        return took
    B, K = model._frame_hessian(*_compact(screen, X, D, wd))
    # the exact test; sel indexes B and K, rows the full arrays
    sel = np.flatnonzero(0.25 * nv[screen] <= NEWTON_RADIUS * np.sqrt((K * K).sum(axis=(1, 2))))
    rows = np.flatnonzero(screen)[sel]
    lam, E = np.linalg.eigh(K[sel])
    pd = lam[:, 0] > 0.0  # eigh sorts each row ascending
    sel, rows, lam = sel[pd], rows[pd], lam[pd]
    EB = E[pd].transpose(0, 2, 1) @ B[sel]  # rows: the eigenvectors as tangent vectors
    eta = np.vecmat(np.matvec(EB, -0.25 * V[rows]) / lam, EB)
    short = np.all(np.isfinite(eta), axis=1) & (np.sqrt(np.vecdot(eta, eta)) <= NEWTON_RADIUS)
    rows = rows[short]
    ok = _try(model, X, D, cost, noise, rows, normalize(X[rows] + eta[short]), noise[rows], 0.5 * nv[rows])
    took[rows[ok]] = True
    return took


def _try(model, X, D, cost, noise, rows, T, fall, field_bound):
    """Try the points T for the given rows of X: which of them are
    accepted. A trial is accepted where its cost change dc falls by at
    least ``fall``, dc <= -fall, or where dc sits at the noise floor,
    |dc| <= noise, while ||control_field|| at T is at most field_bound (the
    field is evaluated only on the rows that decides). A NaN cost (a trial
    inside a guard buffer) passes neither test. The accepted rows of X move
    in place to T, with their dots D and costs."""
    DT = model._dots(T)
    cT = model._value(T, DT)
    dc = cT - cost[rows]
    ok = dc <= -fall
    check = ~ok & (np.abs(dc) <= noise[rows])
    if check.any():
        F = model._field(T[check], DT[check])[0]
        ok[check] = np.sqrt(np.vecdot(F, F)) <= field_bound[check]
    k = rows[ok]
    X[k], D[k], cost[k] = T[ok], DT[ok], cT[ok]
    return ok


def _line_search(model, X, D, V, nv, cost, noise, h, rows):
    """Backtrack each of the given rows from its step h along -v: which of
    them found an acceptable step. A step is acceptable (:func:`_try`)
    where the cost falls by at least max(0.025 h |v|^2, noise), or where
    its change sits at the noise floor and ||control_field|| shrinks to at
    most 0.999 |v|; otherwise h halves. Those rows move in place, with
    their dots D and costs, to the point found; h holds each row's last
    step tried."""
    found = np.zeros(len(rows), dtype=bool)
    todo = np.flatnonzero(h[rows] * nv[rows] > 1e-18)  # positions in rows
    while todo.size:
        k = rows[todo]
        n = nv[k]
        # sufficient decrease: <grad, v> = |v|^2 / 4 at unit q, so a
        # tenth of the first-order prediction must materialize — bare
        # descent would admit wildly overshooting steps near the floor
        fall = np.maximum(0.025 * h[k] * n * n, noise[k])
        ok = _try(model, X, D, cost, noise, k, normalize(X[k] - h[k, None] * V[k]), fall, 0.999 * n)
        found[todo[ok]] = True
        todo = todo[~ok]
        k = rows[todo]
        h[k] *= STEP_SHRINK
        todo = todo[h[k] * nv[k] > 1e-18]
    return found


def _critical_points(model, q, nv):
    """The CriticalPoints at converged, canonical unit points q, one (4,) or
    a stack (n, 4), with field norms nv (n,), from one covering_map, one
    value and one rotation_residual call. A stack drops the rows whose
    residual is NaN (inside a guard buffer); a single point raises there,
    as rotation_residual does."""
    R = covering_map(q)
    S = model.rotation_residual(R).reshape(-1, 9)
    # sqrt of a 9-term dot, as np.linalg.norm forms it for one 3x3 matrix
    rr = np.sqrt(np.vecdot(S, S)).tolist()
    cost = np.reshape(model.value(q), -1).tolist()
    return [
        CriticalPoint(q=qk, R=Rk, cost=ck, control_norm=float(nk), rotation_residual_norm=rk)
        for qk, Rk, ck, nk, rk in zip(np.reshape(q, (-1, 4)), R.reshape(-1, 3, 3), cost, nv, rr)
        if not math.isnan(rk)
    ]


def multistart(model: CostModel, n_starts: int, seed: int, tol: float = 1e-12):
    """Run the flow from n uniform random starts in lockstep; dedup and sort
    by cost.

    Starts violating the model's domain guard are redrawn
    (:func:`_draw_starts`). The converged limits are put in classes by the
    rule of :func:`~rotavg.geometry._classes` (a limit joins the first
    class whose first limit's rotation matrix lies within Frobenius
    distance 1e-8 of its own, so q ~ -q), and each class keeps its
    best-converged start, the one with the smallest ||control_field||.
    Per-start failures (MaxIters, DomainBreach) are tolerated, and a class
    is dropped the same way where its certificate, the rotation residual,
    is NaN (a representative inside a guard buffer, next to a sample's own
    lift under Lp p < 2); every class is certified in one stacked call.
    The returned list holds the surviving classes, classified, sorted by
    cost; it is empty where no start converged.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    model._single_set()
    q, nv, ends = _flow(model, _draw_starts(model, n_starts, np.random.default_rng(seed)), tol)
    converged = [k for k, end in enumerate(ends) if end is None]
    q[converged] = canonicalize_sign(normalize(q[converged]))
    best: dict = {}  # class head -> the class's best-converged start
    for k, head in zip(converged, _classes(q[converged])):
        if head not in best or nv[k] < nv[best[head]]:
            best[head] = k
    reps = list(best.values())
    classes = _critical_points(model, q[reps], nv[reps])
    classes.sort(key=lambda p: p.cost)
    for pt, label in zip(classes, _classify_rows(model, np.reshape([pt.q for pt in classes], (-1, 4)))):
        pt.classification, pt.degenerate = label
    return classes


def _draw_starts(model, n, rng):
    """n uniform random unit starts from rng: one batch of n draws, then the
    inadmissible rows redrawn, all of them in one draw per pass, for at most
    1000 passes. A row still inadmissible after the last pass stays, and
    the flow ends it in DomainBreach.
    """
    X, todo = np.empty((n, 4)), np.arange(n)
    for _ in range(1000):
        X[todo] = normalize(rng.standard_normal((len(todo), 4)))
        todo = todo[~model.admissible(X[todo])]
        if not todo.size:
            break
    return X


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
    are closer than 1e-10, and ValueError on a stack of sample sets.
    """
    Q = samples.quaternions
    if Q.ndim != 2:
        raise ValueError("this needs a single sample set, not a stack of them")
    lam, V = np.linalg.eigh(Q.T @ Q)
    if lam[-1] - lam[-2] < 1e-10:
        raise AmbiguousMean("top two eigenvalues within 1e-10: mean not unique")
    return canonicalize_sign(V[:, -1])
