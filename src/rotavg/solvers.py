"""Critical-point finding: dissipative flow, multistart, classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostModel
from .geometry import _classes, _norms, canonicalize_sign, covering_map, normalize

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
FLOW_TOL = 1e-12  # default stopping tolerance of the flow, relative to 1 + c r (see _stop)
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


def flow_descend(model: CostModel, q0, tol: float = FLOW_TOL) -> CriticalPoint:
    """Follow -control_field from q0 to a critical point of the lifted cost.

    The one-start case of the lockstep flow that :func:`multistart` runs.
    Each iteration whose field passes the Newton screen first tries one
    Riemannian Newton step (see :func:`_newton_trial`); where it is not
    taken, or the screen rules it out, a projected explicit
    Euler step with a backtracking line search on the cost follows, which
    halves the step until the cost falls by the sufficient-decrease bound.
    Only where the cost change dc sits at the noise floor, |dc| <= noise
    (values can no longer certify descent), is a step accepted instead for
    strictly shrinking ||control_field||, which carries the iterate down to
    the gradient noise floor. Stops when ||control_field|| < tol * (1 + c r)
    (:func:`_stop`).

    Raises ValueError unless tol is finite and positive, or if the model
    holds a stack of sample sets or its field bound overflows when squared
    (:func:`_check_model`: Lp past about p = 333 on two samples), MaxIters if
    MAX_ITERS iterations run out (or no acceptable step exists) and
    DomainBreach if the start or an accepted iterate lies inside a guard
    buffer. The start is judged as given, by :meth:`CostModel.admissible`,
    before the flow normalizes it (a zero start raises the ValueError of
    :func:`~rotavg.geometry.normalize`); the flow reads the iterates'
    guard from the control field it evaluates at each point anyway: the
    field is NaN exactly there, by the clearance that ``admissible``
    reads. The limit is certified and classified (:func:`classify`) as
    :func:`multistart` certifies and classifies its classes, but where its
    rotation residual raises (a limit inside a guard buffer that the flow's
    own guard let pass), so does this.
    """
    if np.any(q0) and not model.admissible(q0):
        raise DomainBreach("start point violates the model's domain guard")
    q, nv, ends = _flow(model, np.asarray(q0, dtype=float)[None], tol)
    if ends[0] is not None:
        raise ends[0]
    return _critical_points(model, canonicalize_sign(normalize(q[0])), nv)[0]


def _flow(model, Q0, tol):
    """Advance the flow from every row of Q0 at once.

    Each row keeps its own point, cost, step size, iteration count, Newton
    trial and line search, and leaves the loop when it converges or fails;
    the rows share one batched call per evaluation. A row whose field
    passes the Newton screen (:func:`_newton_screen`) keeps that field and
    waits, and a row that fails it takes its line search at once. Once
    every running row waits, one :func:`_newton_trial` runs over all of
    them, then one :func:`_line_search` over those it did not move. So each
    row computes what it would compute alone, in the same order; only the
    grouping of rows into calls depends on the others. Both judge a trial
    by :func:`_try`, which reads the row's noise floor off its cost.

    The running rows' state is kept compacted to them: points X, costs c,
    steps h, counts and the sample dots D = Q X, formed once per point when
    it is first evaluated and read by every later evaluation there
    (:meth:`CostModel._trial`: zero-width for Lp 2, so l2, and Lp 4, whose
    trial costs are exact changes read from the samples' moments). A row's
    count rises with each step it takes, and a row ends in MaxIters at its
    MAX_ITERS-th step. Returns the final points (n, 4), their
    ||control_field|| and, per row, None where it converged or the MaxIters
    or DomainBreach it ended with.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    _check_model(model)
    stop = _stop(model, tol)
    X = normalize(Q0)
    q = X.copy()
    nv_end = np.full(len(X), np.nan)
    ends = [None] * len(X)
    D, c = model._trial(X)
    live, its, h = np.arange(len(X)), np.zeros(len(X), dtype=int), np.full(len(X), INITIAL_STEP)
    waiting = []  # the state of the rows that wait for the Newton trial, one tuple per pass
    while live.size or waiting:
        if live.size:
            # the Hessian reads the field's weights only through <w, d>,
            # which the field hands back in their place
            V, wd = model._field(X, D)
            nv = np.sqrt(np.vecdot(V, V))
            done = nv < stop
            # the field is NaN exactly in the rows inside a guard buffer
            breach = np.isnan(nv)
            end = done | breach
            if np.count_nonzero(end):
                nv_end[live[done]] = nv[done]
                for k in breach.nonzero()[0]:
                    ends[live[k]] = DomainBreach("iterate entered a guard buffer of an excluded set" if its[k] else
                                                 "start point violates the model's domain guard")
                live, its, X, D, c, h, V, wd, nv = _compact(~end, live, its, X, D, c, h, V, wd, nv)
            wait = _newton_screen(model, X, D, wd, nv)
            if np.count_nonzero(wait):
                waiting.append(_compact(wait, live, its, X, D, c, h, V, wd, nv))
            # the rows that wait take no step here, and so leave the running
            # rows below
            step, rest = np.zeros(len(live), dtype=bool), (~wait).nonzero()[0]
        if not (live.size and rest.size):
            if not waiting:
                break  # the last running rows ended at their field
            # every running row waits: one Newton trial serves them all
            state = waiting[0] if len(waiting) == 1 else [np.concatenate(a) for a in zip(*waiting)]
            live, its, X, D, c, h, V, wd, nv = state
            waiting = []
            step = _newton_trial(model, X, D, V, wd, nv, c)
            rest = (~step).nonzero()[0]
        if rest.size:
            # retry a bit above the last accepted step; a first search starts
            # no higher than the row's cost allows
            h[rest] = np.minimum(2.0 * h[rest], 1e6)
            first = rest[its[rest] == 0]
            if first.size:
                h[first] = _first_step(h[first], nv[first], c[first])
            found = _line_search(model, X, D, V, nv, c, h, rest)
            step[rest[found]] = True
            for k in rest[~found]:
                ends[live[k]] = MaxIters(f"line search stalled at iteration {its[k]} (|v0| = {nv[k]:.3e})")
        # a row runs on where it stepped, unless that step was its
        # MAX_ITERS-th (a new array: a waiting row's state may share this one)
        its = its + step
        keep = step & (its < MAX_ITERS)
        for k in (step ^ keep).nonzero()[0]:
            ends[live[k]] = MaxIters(f"no convergence in {MAX_ITERS} iterations")
        # every row that leaves the loop, here or at its next field
        # evaluation, leaves at the point written now
        q[live] = X
        live, its, X, D, c, h = _compact(keep, live, its, X, D, c, h)
    return q, nv_end, ends


def _check_model(model):
    """Raise ValueError unless the flow can run on model: it needs a single
    sample set, and it squares the field, so the field's bound 4 c r
    (||v|| <= 4 ||G|| <= 4 c r for Lp with p >= 2; c is ``model.scale``,
    r the sample count) must stay finite when squared. Lp on two samples
    passes up to about p = 333."""
    model._single_set()
    bound = 4.0 * model.scale * model.samples.r
    if not math.isfinite(bound * bound):
        raise ValueError(f"the flow squares the control field, bounded by 4 c r with c = {model.scale:.4g} "
                         f"and r = {model.samples.r}, and (4 c r)^2 overflows")


def _stop(model, tol):
    """The flow's stopping scale tol (1 + c r): the gradient -c sum_i w_i q_i
    sums r terms of scale c, so its rounding floor, and with it the
    field's, grows with both (c is ``model.scale``, r the sample count)."""
    return tol * (1.0 + model.scale * model.samples.r)


def _compact(keep, *state):
    """The rows ``keep`` of each state array, or the arrays themselves when
    every row stays.

    The flow's masks are tested with count_nonzero and their rows found with
    nonzero, which call numpy's C functions directly: at the flow's few
    dozen rows, any, all and flatnonzero cost several times as much in their
    Python wrappers."""
    return state if np.count_nonzero(keep) == len(keep) else tuple(a[keep] for a in state)


def _newton_trial(model, X, D, V, wd, nv, cost):
    """One Riemannian Newton step from each unit row of X, where it is
    taken: those rows move in place, with their dots D and costs, to the new
    point. Returns which rows took it.

    In the tangent frame B at q (:func:`~rotavg.geometry.tangent_frame`) the
    step solves K e = -B v / 4, where v / 4 is the Riemannian gradient and
    K = B H B^T the 3x3 tangent Hessian (:meth:`CostModel._frame_hessian`,
    from D and wd = <w, d>, the weights w of the field V times the dots),
    and moves by eta = B^T e. One eigendecomposition K = E diag(lam) E^T
    gives both the gate and the step eta = B^T E (E^T B (-v / 4) / lam). The step
    is tried only where ||v / 4|| <= NEWTON_RADIUS ||K||_F (elsewhere
    ||eta|| >= ||v / 4|| / ||K||_F exceeds the radius), K is positive definite
    (lam_min > 0) and eta is finite and no longer than NEWTON_RADIUS, and
    taken (:func:`_try`, with fall 0) if the cost at normalize(q + eta)
    falls by at least the noise floor, or stays within it while
    ||control_field|| at least halves.

    K is formed for every row given: the flow gives only the rows that
    pass :func:`_newton_screen`, which rules out the rest without it.
    """
    took = np.zeros(len(X), dtype=bool)
    B, K = model._frame_hessian(X, D, wd)
    rows = (0.25 * nv <= NEWTON_RADIUS * np.sqrt((K * K).sum(axis=(1, 2)))).nonzero()[0]
    lam, E = np.linalg.eigh(K[rows])
    pd = lam[:, 0] > 0.0  # eigh sorts each row ascending
    rows, lam = rows[pd], lam[pd]
    EB = E[pd].transpose(0, 2, 1) @ B[rows]  # rows: the eigenvectors as tangent vectors
    eta = np.vecmat(np.matvec(EB, -0.25 * V[rows]) / lam, EB)
    short = np.all(np.isfinite(eta), axis=1) & (np.sqrt(np.vecdot(eta, eta)) <= NEWTON_RADIUS)
    rows = rows[short]
    ok = _try(model, X, D, cost, rows, normalize(X[rows] + eta[short]), 0.0, 0.5 * nv[rows])
    took[rows[ok]] = True
    return took


def _newton_screen(model, X, D, wd, nv):
    """Which unit rows of X, with dots D, <w, d> = wd and field norms nv, may
    take a Newton step (:func:`_newton_trial`): those where ||v / 4|| <=
    NEWTON_RADIUS ||K||_F holds with ||K||_F replaced by its bound
    (:meth:`CostModel._hessian_bound`). Every other row would fail the
    trial's exact test too, so the screen skips no Newton step, and the
    rows it keeps get the bits they would get without it."""
    return 0.25 * nv <= NEWTON_RADIUS * model._hessian_bound(X, D, wd)


def _try(model, X, D, cost, rows, T, fall, field_bound):
    """Try the points T for the given rows of X: which of them are
    accepted. Value evaluations carry cancellation noise well above one
    ulp, so each trial is judged against the noise floor
    noise = 1e-13 (1 + |c|) of its row's cost c. A trial is accepted where
    its cost change dc falls by at least max(fall, noise), or where dc sits
    at the noise floor, |dc| <= noise, while ||control_field|| at T is at
    most field_bound (the field is evaluated only on the rows that decides).
    A NaN cost (a trial inside a guard buffer) passes neither test. The
    accepted rows of X move in place to T, with the dots D and costs that
    :meth:`CostModel._trial` gives T from its rows."""
    c = cost[rows]
    noise = 1e-13 * (1.0 + np.abs(c))
    DT, cT = model._trial(T, X[rows], c)
    dc = cT - c
    ok = dc <= -np.maximum(fall, noise)
    check = ~ok & (np.abs(dc) <= noise)
    if np.count_nonzero(check):
        F = model._field(T[check], DT[check])[0]
        ok[check] = np.sqrt(np.vecdot(F, F)) <= field_bound[check]
    k = rows[ok]
    X[k], D[k], cost[k] = T[ok], DT[ok], cT[ok]
    return ok


def _line_search(model, X, D, V, nv, cost, h, rows):
    """Backtrack each of the given rows from its step h along -v: which of
    them found an acceptable step. A step is acceptable (:func:`_try`, which
    forms the noise floor of the row's cost) where the cost falls by at
    least max(0.025 h |v|^2, noise), or where its change sits at the noise
    floor and ||control_field|| shrinks to at most 0.999 |v|; otherwise h
    halves. Those rows move in place, with their dots D and costs, to the
    point found; h holds each row's last step tried."""
    found = np.zeros(len(rows), dtype=bool)
    todo = (h[rows] * nv[rows] > 1e-18).nonzero()[0]  # positions in rows
    while todo.size:
        k = rows[todo]
        hk, n = h[k], nv[k]
        # sufficient decrease: <grad, v> = |v|^2 / 4 at unit q, so a
        # tenth of the first-order prediction must materialize — bare
        # descent would admit wildly overshooting steps near the floor
        ok = _try(model, X, D, cost, k, normalize(X[k] - hk[:, None] * V[k]), 0.025 * hk * n * n, 0.999 * n)
        found[todo[ok]] = True
        fail = ~ok
        todo, k, hk = todo[fail], k[fail], hk[fail] * STEP_SHRINK
        h[k] = hk
        todo = todo[hk * n[fail] > 1e-18]
    return found


def _first_step(h, nv, cost):
    """The steps h of rows' first line search, halved exactly to the largest
    h 2^-k (k >= 0) whose required decrease 0.025 h |v|^2 does not exceed
    the cost. Every cost is >= 0, so a longer step could pass only on the
    noise floor, by a coincidence of some 13 digits; the search would try
    each and refuse it. The exponents of frexp give k exactly: halving h
    halves 0.025 h |v|^2 exactly. Rows whose cost or 0.025 h |v|^2 is not
    positive and finite keep h."""
    a, ea = np.frexp(0.025 * h * nv * nv)
    b, eb = np.frexp(cost)
    k = np.where((a > 0.0) & (b > 0.0) & np.isfinite(a * b), np.maximum(ea - eb + (a > b), 0), 0)
    return np.ldexp(h, -k)


def _critical_points(model, q, nv):
    """The CriticalPoints at converged, canonical unit points q, one (4,) or
    a stack (n, 4), with field norms nv (n,), certified and classified:
    from one covering_map and one rotation_residual call, and one _dots
    call on the rows, which the cost, the clearance and the classifier's
    Hessian read (:func:`_classify_rows`). A stack drops the rows whose
    residual is NaN (inside a guard buffer); a single point raises there,
    as rotation_residual does."""
    R = covering_map(q)
    rr = _norms(model.rotation_residual(R).reshape(-1, 9)).tolist()
    Q = np.reshape(q, (-1, 4))
    D = model._dots(Q)
    cost = model._value(Q, D).tolist()
    return [
        CriticalPoint(q=qk, R=Rk, cost=ck, control_norm=float(nk), rotation_residual_norm=rk,
                      classification=label, degenerate=degenerate)
        for qk, Rk, ck, nk, rk, (label, degenerate) in zip(
            Q, R.reshape(-1, 3, 3), cost, nv, rr, _classify_rows(model, Q, D))
        if not math.isnan(rk)
    ]


def multistart(model: CostModel, n_starts: int, seed: int, tol: float = FLOW_TOL):
    """Run the flow from n uniform random starts in lockstep; dedup and sort
    by cost.

    Each start takes the steps it would take alone, with its own iteration
    count; a start whose field passes the Newton screen waits until every
    running start does, so that one Newton trial serves them all
    (:func:`_flow`). Raises ValueError as :func:`flow_descend` does on the
    model. Starts violating the model's domain guard are redrawn
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
    _check_model(model)
    q, nv, ends = _flow(model, _draw_starts(model, n_starts, np.random.default_rng(seed)), tol)
    converged = [k for k, end in enumerate(ends) if end is None]
    q[converged] = canonicalize_sign(normalize(q[converged]))
    best: dict = {}  # class head -> the class's best-converged start
    for k, head in zip(converged, _classes(q[converged])):
        if head not in best or nv[k] < nv[best[head]]:
            best[head] = k
    reps = list(best.values())
    return sorted(_critical_points(model, q[reps], nv[reps]), key=lambda p: p.cost)


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
    (:meth:`CostModel.hessian`, the one the flow's Newton step solves with)
    in the tangent frame at q (:func:`~rotavg.geometry.tangent_frame`).
    Eigenvalues below 1e-6 of the dominant one are treated as zero
    (critical circles make one soft direction routine), and so are those
    below the flow's stopping scale at its default tol, FLOW_TOL (1 + c r)
    (c is ``model.scale``, r the sample count), where a Hessian with no
    significant eigenvalue is rounding alone and the point is Degenerate;
    the second return value flags that degeneracy. Points within
    BOUNDARY_CLEARANCE of an excluded set are labeled Boundary.
    """
    Q = np.asarray(point.q, dtype=float)[None]
    return _classify_rows(model, Q, model._dots(Q))[0]


def _classify_rows(model, Q, D):
    """:func:`classify` for each row of Q, with dots D: the clearance read
    from D, then one batched Hessian in the tangent frame, from D and the
    <w, d> of one gradient call as the flow forms it, and one stacked
    eigvalsh, over the rows clear of the boundary."""
    labels = [("Boundary", False)] * len(Q)
    inner = np.flatnonzero(model._clearance_at(Q, D) >= BOUNDARY_CLEARANCE)
    X, D = Q[inner], D[inner]
    lams = np.linalg.eigvalsh(model._frame_hessian(X, D, model._gradient(X, D)[1])[1])
    stop = _stop(model, FLOW_TOL)
    for k, lam in zip(inner, lams):
        signif = lam[np.abs(lam) >= max(1e-6 * float(np.max(np.abs(lam))), stop)]
        degenerate = signif.size < 3
        if not signif.size:
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

    It reads ``samples.quaternions`` alone, so any object with that
    attribute will do: the bench certifies its l2 answers by calling it on
    a bare namespace of the input's lifts, which holds none of the
    :class:`~rotavg.geometry.SampleSet` caches (such as its second moment).
    """
    Q = samples.quaternions
    if Q.ndim != 2:
        raise ValueError("this needs a single sample set, not a stack of them")
    lam, V = np.linalg.eigh(Q.T @ Q)
    if lam[-1] - lam[-2] < 1e-10:
        raise AmbiguousMean("top two eigenvalues within 1e-10: mean not unique")
    return canonicalize_sign(V[:, -1])
