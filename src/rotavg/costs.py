"""The four averaging cost models on SO(3), lifted to the quaternion sphere.

Each model owns a sample set and exposes the lifted value, the analytic
gradient of its ambient prolongation, the sphere control field, and two
residual operators: the weighted-skew system on S3 pushed down through the
covering map, and the equivalent characterization directly in rotation
matrices. Writing x_i = <q, q_i>:

    l2 chordal      value 8 sum (1 - x_i^2)            weights x_i
    geodesic        value 2 sum arccos^2|x_i|          weights sgn(x_i) arccos|x_i| / sqrt(1-x_i^2)
    trace-sqrt      value sum (1 - |x_i|)^2            weights (1 - |x_i|) sgn(x_i)
    Lp chordal      value 8^(p/2) sum (1-x_i^2)^(p/2)  weights (1-x_i^2)^(p/2-1) x_i

The weights are the one definition the derivatives share: the gradient is
-c sum_i w_i q_i (c = 16, 4, 2, p 8^(p/2)) and the pushforward residual is
sum_i w_i Delta_i. Their slopes w'(x_i) give the tangent Hessian on S3 in
Cartesian coordinates, c P(<w, d> I - Q^T diag(w') Q) P with P = I - q q^T:

    l2 chordal      w' = 1
    geodesic        w' = -(sin phi - phi cos phi) / sin^3 phi,  phi = arccos|x_i|
    trace-sqrt      w' = -1
    Lp chordal      w' = (1-x_i^2)^(p/2-2) (1 - (p-1) x_i^2)

The geodesic model lives on the sphere minus the hyperplanes Pi_i where
x_i = 0 (relative angle pi to a sample); trace-sqrt is non-differentiable
there; Lp with p < 2 excludes the sample lines instead. Guards keep a finite
buffer eps_dom around each excluded set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .control import ScalarField, apply_T_sphere
from .geometry import SampleSet, _skew, delta_skew

__all__ = [
    "DomainError",
    "NonDifferentiable",
    "CostModel",
    "so3_log",
    "EPS_DOM",
]

EPS_DOM = 1e-9  # guard buffer around the excluded sets


class DomainError(ValueError):
    """Point lies on (or within the guard buffer of) an excluded set."""


class NonDifferentiable(ValueError):
    """The model value exists here but its gradient does not (trace-sqrt on Pi_i)."""


def _plane_clearance(d):
    return np.min(np.abs(d))


def _line_clearance(d):
    # min_i sqrt(1 - d_i^2), read off the largest d_i^2 (every step is monotone)
    return math.sqrt(max(1.0 - float(np.max(d * d)), 0.0))


def _arc_over_sin(phi):
    """phi / sin(phi), elementwise, stable at phi -> 0 (Taylor below 1e-4)."""
    phi = np.asarray(phi, dtype=float)
    small = phi < 1e-4
    out = np.empty_like(phi)
    p2 = phi[small] ** 2
    out[small] = 1.0 + p2 / 6.0 + 7.0 * p2 * p2 / 360.0
    out[~small] = phi[~small] / np.sin(phi[~small])
    return out


def _arc_slope(phi):
    """-(sin phi - phi cos phi) / sin^3 phi, elementwise: the slope of the
    geodesic weight. The difference cancels as phi -> 0, so below 1e-2 the
    Taylor form -(1/3 + 2 phi^2/15 + 2 phi^4/63) takes over; either side of
    the switch is within ~4e-12 relative of the exact value."""
    phi = np.asarray(phi, dtype=float)
    small = phi < 1e-2
    out = np.empty_like(phi)
    p2 = phi[small] ** 2
    out[small] = -(1.0 / 3.0 + p2 * (2.0 / 15.0 + 2.0 * p2 / 63.0))
    big = phi[~small]
    s = np.sin(big)
    out[~small] = -(s - big * np.cos(big)) / s**3
    return out


def so3_log(Q):
    """Principal matrix logarithm of a rotation: (theta / 2 sin theta)(Q - Q^T).

    Raises DomainError at relative angle pi (trace = -1 within 1e-12), where
    the logarithm has no principal branch.
    """
    Q = np.asarray(Q, dtype=float)
    t = float(np.trace(Q))
    if abs(t + 1.0) < 1e-12:
        raise DomainError("matrix logarithm undefined at rotation angle pi")
    theta = np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0))
    return 0.5 * float(_arc_over_sin(theta)) * (Q - Q.T)


@dataclass(frozen=True)
class CostModel:
    """One averaging cost over a fixed :class:`~rotavg.geometry.SampleSet`.

    ``kind`` is one of {"L2Chordal", "Geodesic", "TraceSqrt", "LpChordal"};
    ``p`` is set only for LpChordal (real, >= 1). Instances are immutable
    and every evaluator is a pure function.
    """

    kind: str
    samples: SampleSet
    p: Optional[float] = None
    # resolved once from kind and p: the gradient scale c (public, read-only)
    # and the clearance from the excluded set (None where there is none)
    scale: float = field(init=False, repr=False, compare=False)
    _clearance: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("L2Chordal", "Geodesic", "TraceSqrt", "LpChordal"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        # the excluded set, stated once: the hyperplanes Pi_i for geodesic and
        # trace-sqrt, the sample lines for Lp with p < 2, none otherwise
        if self.kind == "LpChordal":
            if self.p is None or self.p < 1.0:
                raise ValueError("LpChordal requires p >= 1")
            scale = self.p * 8.0 ** (self.p / 2.0)
            clearance = _line_clearance if self.p < 2.0 else None
        elif self.p is not None:
            raise ValueError("p is only meaningful for LpChordal")
        else:
            scale = {"L2Chordal": 16.0, "Geodesic": 4.0, "TraceSqrt": 2.0}[self.kind]
            clearance = None if self.kind == "L2Chordal" else _plane_clearance
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_clearance", clearance)

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

    def clearance(self, q) -> float:
        """Distance of unit q from this model's excluded set (inf if it has none)."""
        if self._clearance is None:
            return np.inf
        return float(self._clearance(self.samples.quaternions @ np.asarray(q, dtype=float)))

    def admissible(self, q) -> bool:
        """True if q clears the guard buffer for this model's excluded sets."""
        return self.clearance(q) > EPS_DOM

    # -- evaluators -------------------------------------------------------

    def value(self, q) -> float:
        q = np.asarray(q, dtype=float)
        d = self.samples.quaternions @ q
        if self.kind == "L2Chordal":
            return float(8.0 * np.sum(1.0 - d * d))
        if self.kind == "Geodesic":
            if np.min(np.abs(d)) < 1e-12:
                raise DomainError("geodesic cost undefined on a hyperplane Pi_i")
            u = np.clip(np.abs(d) / np.linalg.norm(q), 0.0, 1.0)
            return float(2.0 * np.sum(np.arccos(u) ** 2))
        if self.kind == "TraceSqrt":
            return float(np.sum((1.0 - np.abs(d)) ** 2))
        base = np.maximum(1.0 - d * d, 0.0)
        return float(8.0 ** (self.p / 2.0) * np.sum(base ** (self.p / 2.0)))

    def gradient(self, q) -> np.ndarray:
        """Analytic gradient of the prolongation (agrees with central FD)."""
        q = np.asarray(q, dtype=float)
        Q = self.samples.quaternions
        d = Q @ q
        if self.kind == "Geodesic":
            # degree-0 prolongation: weights at q/|q|, radial part removed
            nq = np.linalg.norm(q)
            w = self._weights(d / nq)
            return (-self.scale / nq**3) * (nq * nq * (w @ Q) - np.dot(w, d) * q)
        return -self.scale * (self._weights(d) @ Q)

    def control_field(self, q) -> np.ndarray:
        """The sphere control field: T(q) applied to the prolongation gradient.

        Tangent to S3 at q, vanishes exactly at the constrained critical
        points, and points in the ascent direction (the flow follows its
        negative).
        """
        return apply_T_sphere(q, self.gradient(q))

    # -- residual systems --------------------------------------------------

    def _require_clearance(self, d):
        if self._clearance is not None and self._clearance(d) <= EPS_DOM:
            error = NonDifferentiable if self.kind == "TraceSqrt" else DomainError
            raise error(f"{self.kind} derivatives need clearance from the excluded set")

    def _weights(self, d):
        """Per-sample weights w(x_i) at the unit-sphere dots d = Q q."""
        self._require_clearance(d)
        if self.kind == "L2Chordal":
            return d
        if self.kind == "Geodesic":
            phi = np.arccos(np.clip(np.abs(d), 0.0, 1.0))
            return np.sign(d) * _arc_over_sin(phi)
        if self.kind == "TraceSqrt":
            return (1.0 - np.abs(d)) * np.sign(d)
        return np.maximum(1.0 - d * d, 0.0) ** (self.p / 2.0 - 1.0) * d

    def _dweights(self, d):
        """Weight slopes w'(x_i) at the unit-sphere dots d = Q q."""
        self._require_clearance(d)
        if self.kind == "L2Chordal":
            return np.ones_like(d)
        if self.kind == "Geodesic":
            return _arc_slope(np.arccos(np.clip(np.abs(d), 0.0, 1.0)))
        if self.kind == "TraceSqrt":
            return -np.ones_like(d)
        base = np.maximum(1.0 - d * d, 0.0)
        # for p < 4, w' diverges on a sample line (base = 0); there the
        # sample's tangent part vanishes, and with it the term in `hessian`
        # for every p >= 2, so the slope is set to 0 on the line itself
        on_line = base == 0.0
        slope = np.where(on_line, 1.0, base) ** (self.p / 2.0 - 2.0) * (1.0 - (self.p - 1.0) * d * d)
        return np.where(on_line, 0.0, slope)

    def hessian(self, q) -> np.ndarray:
        """Tangent Hessian of the cost on S3 at unit q, as a symmetric 4x4
        matrix: c P(<w, d> I - Q^T diag(w') Q) P with P = I - q q^T.

        It annihilates q; restricted to the tangent space it is the
        Riemannian Hessian (no covariant derivatives needed: the sphere's
        curvature enters through the <w, d> = <grad, q> / (-c) term). The
        sample term is formed from the tangent parts P q_i = q_i - x_i q,
        so a large w' next to a sample is not cancelled by P afterwards.
        Raises like the gradient inside the guard buffer of an excluded set.
        """
        q = np.asarray(q, dtype=float)
        Q = self.samples.quaternions
        d = Q @ q
        U = Q - np.outer(d, q)  # rows: P q_i
        P = np.eye(4) - np.outer(q, q)
        return self.scale * (np.dot(self._weights(d), d) * P - (U.T * self._dweights(d)) @ U)

    def pushforward_residual(self, q) -> np.ndarray:
        """sum_i w_i(q) Delta_i(q): the critical-point system pushed to SO(3).

        Returns a skew 3x3 matrix, identical at q and -q, and zero exactly
        where the control field is zero.
        """
        q = np.asarray(q, dtype=float)
        Q = self.samples.quaternions
        w = self._weights(Q @ q)
        return _skew(*(np.dot(w, e) for e in delta_skew(q, Q)))

    def _rho(self, t):
        """Rotation-space weights rho(t_i) at the traces t_i = tr(R^T R_i)."""
        if self.kind == "L2Chordal":
            return np.full_like(t, 1.0 / t.size)
        if self.kind == "Geodesic":
            if np.min(np.abs(t + 1.0)) < 1e-12:
                raise DomainError("matrix logarithm undefined at rotation angle pi")
            return 0.5 * _arc_over_sin(np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0)))
        if self.kind == "TraceSqrt":
            if np.min(t) + 1.0 < 1e-12:
                raise DomainError("trace-sqrt residual undefined at relative angle pi")
            return 2.0 / np.sqrt(t + 1.0) - 1.0
        base = np.maximum(3.0 - t, 0.0)
        if self.p < 2.0 and np.min(base) < 1e-12:
            raise DomainError("Lp residual (p < 2) undefined at a sample rotation")
        return base ** (self.p / 2.0 - 1.0)

    def rotation_residual(self, R) -> np.ndarray:
        """The characterization equation directly in rotation matrices:
        M^T R - R^T M with M = sum_i rho(t_i) R_i and t_i = tr(R^T R_i).

        l2 chordal:  rho = 1/r, so M is the arithmetic mean;
        geodesic:    rho = theta_i / (2 sin theta_i), giving sum Log(R_i^T R);
        trace-sqrt:  rho = 2/sqrt(t_i + 1) - 1;
        Lp chordal:  rho = (3 - t_i)^(p/2-1).
        """
        R = np.asarray(R, dtype=float)
        Rs = self.samples.rotations.reshape(-1, 9)
        M = (self._rho(Rs @ R.ravel()) @ Rs).reshape(3, 3)
        return M.T @ R - R.T @ M
