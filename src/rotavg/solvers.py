"""Critical-point finding: dissipative flow, multistart, classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostModel, DomainError, NonDifferentiable
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
    DomainBreach if an accepted iterate lands inside a guard buffer.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    stop = tol * (1.0 + model.scale * model.samples.r)
    q = normalize(np.asarray(q0, dtype=float))
    if not model.admissible(q):
        raise DomainBreach("start point violates the model's domain guard")
    cost = model.value(q)
    h = INITIAL_STEP
    for it in range(MAX_ITERS):
        v = model.control_field(q)
        nv = float(np.linalg.norm(v))
        if nv < stop:
            return _converged(model, q, cost, nv)
        # value evaluations carry cancellation noise well above one ulp, so
        # every acceptance test judges decreases against this larger scale
        noise = 1e-13 * (1.0 + abs(cost))
        step = _newton_trial(model, q, v, nv, cost, noise)
        if step is None:
            # retry a bit above the last accepted step
            found = _line_search(model, q, v, nv, cost, noise, min(2.0 * h, 1e6))
            if found is None:
                raise MaxIters(f"line search stalled at iteration {it} (|v0| = {nv:.3e})")
            *step, h = found
        q, cost = step
        if not model.admissible(q):
            raise DomainBreach("iterate entered a guard buffer of an excluded set")
    raise MaxIters(f"no convergence in {MAX_ITERS} iterations")


def _newton_trial(model, q, v, nv, cost, noise):
    """One Riemannian Newton step from unit q, or None where it is not taken.

    The step is eta = -(H + q q^T)^-1 v / 4: v / 4 is the Riemannian gradient
    and H the tangent Hessian, which q q^T makes invertible without changing
    its action on the tangent space. It is tried only where H is positive
    definite on the tangent space (H + q q^T passes Cholesky) and eta is
    finite and no longer than NEWTON_RADIUS, and taken if the cost at
    normalize(q + eta) falls by more than the noise scale, or stays within
    it while ||control_field|| at least halves.
    """
    M = model.hessian(q) + np.outer(q, q)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    eta = np.linalg.solve(M, -0.25 * v)
    if not (np.all(np.isfinite(eta)) and float(np.linalg.norm(eta)) <= NEWTON_RADIUS):
        return None
    trial = normalize(q + eta)
    try:
        c_trial = model.value(trial)
    except (DomainError, NonDifferentiable):
        return None
    dc = c_trial - cost
    if dc < -noise or (dc <= noise and float(np.linalg.norm(model.control_field(trial))) <= 0.5 * nv):
        return trial, c_trial
    return None


def _line_search(model, q, v, nv, cost, noise, h):
    """Backtrack from step h along -v: the new point, its cost and the
    accepted step, or None if no step is acceptable."""
    while h * nv > 1e-18:
        trial = normalize(q - h * v)
        try:
            c_trial = model.value(trial)
        except (DomainError, NonDifferentiable):
            h *= STEP_SHRINK
            continue
        dc = c_trial - cost
        # sufficient decrease: <grad, v> = |v|^2 / 4 at unit q, so a
        # tenth of the first-order prediction must materialize — bare
        # descent would admit wildly overshooting steps near the floor
        if dc <= -max(0.025 * h * nv * nv, noise):
            return trial, c_trial, h
        if dc <= noise and float(np.linalg.norm(model.control_field(trial))) <= 0.999 * nv:
            return trial, c_trial, h
        h *= STEP_SHRINK
    return None


def _converged(model, q, cost, nv):
    q = canonicalize_sign(normalize(q))
    R = covering_map(q)
    rr = float(np.linalg.norm(model.rotation_residual(R)))
    return CriticalPoint(q=q, R=R, cost=float(model.value(q)), control_norm=nv, rotation_residual_norm=rr)


def multistart(model: CostModel, n_starts: int, seed: int, tol: float = 1e-12):
    """Run flow_descend from n uniform random starts; dedup and sort by cost.

    Starts violating the model's domain guard are resampled. Limits are
    identified under q ~ -q by comparing rotation matrices (Frobenius
    tolerance 1e-8); each class keeps its best-converged representative.
    Per-start failures (MaxIters, DomainBreach) are tolerated; the returned
    list holds the surviving classes, classified, sorted by cost.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    limits = []
    for _ in range(n_starts):
        q0 = random_unit_quaternion(rng)
        for _ in range(1000):
            if model.admissible(q0):
                break
            q0 = random_unit_quaternion(rng)
        try:
            limits.append(flow_descend(model, q0, tol))
        except (MaxIters, DomainBreach):
            continue
    classes: list[CriticalPoint] = []
    for pt in limits:
        for i, kept in enumerate(classes):
            if np.linalg.norm(pt.R - kept.R) < 1e-8:
                if pt.control_norm < kept.control_norm:
                    classes[i] = pt
                break
        else:
            classes.append(pt)
    classes.sort(key=lambda p: p.cost)
    for pt in classes:
        pt.classification, pt.degenerate = classify(model, pt)
    return classes


def classify(model: CostModel, point: CriticalPoint):
    """Label a converged point Min/Max/Saddle/Degenerate/Boundary.

    The analytic tangent Hessian (:meth:`CostModel.hessian`) in an
    orthonormal tangent basis at q. Eigenvalues below 1e-6 of the dominant
    one are treated as zero (critical circles make one soft direction
    routine); the second return value flags that degeneracy. Points within
    BOUNDARY_CLEARANCE of an excluded set are labeled Boundary.
    """
    q = np.asarray(point.q, dtype=float)
    if model.clearance(q) < BOUNDARY_CLEARANCE:
        return "Boundary", False
    _, _, Vt = np.linalg.svd(q[None, :])
    B = Vt[1:]  # rows: orthonormal basis of the tangent space at q
    lam = np.linalg.eigvalsh(B @ model.hessian(q) @ B.T)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        return "Degenerate", True
    signif = lam[np.abs(lam) >= 1e-6 * scale]
    degenerate = signif.size < 3
    if signif.size == 0:
        return "Degenerate", True
    if np.all(signif > 0):
        return "Min", degenerate
    if np.all(signif < 0):
        return "Max", degenerate
    return "Saddle", degenerate


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
