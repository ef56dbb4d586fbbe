"""End-to-end acceptance gate.

One test per shipped guarantee; run with -v to get a pass/fail line each.
Each test prints the measured quantity next to its pinned tolerance.
"""

import math
import time

import numpy as np

from rotavg import checks
from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, canonicalize_sign, covering_map, normalize
from rotavg.solvers import AmbiguousMean, eigen_oracle_l2, multistart
from rotavg.sweep import (
    RESIDUAL_TOL,
    _root_residuals,
    critical_sets,
    root_count_transitions,
    theta_min_curve,
)


def so3_log(R):
    """Principal matrix logarithm of a rotation off angle pi, the reference
    form: (theta / 2 sin theta)(R - R^T), with sinc keeping theta -> 0 exact."""
    theta = math.acos(min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0)))
    return (R - R.T) / (2.0 * np.sinc(theta / math.pi))


def polynomial_discrepancies(p, alpha_grid):
    """(alpha, x, best residual) for each positive root x whose two
    quaternion branches both miss the critical-point system by RESIDUAL_TOL
    or more; empty when the polynomial and the system agree on the grid."""
    return [
        (float(a), float(x), best)
        for a in np.asarray(alpha_grid, dtype=float)
        for x, best in _root_residuals(a, p)
        if best >= RESIDUAL_TOL
    ]


def _theta_curve(step=0.01):
    grid = np.arange(-math.pi, math.pi + 0.5 * step, step)
    return grid, theta_min_curve(2.0, grid)


def test_01_min_angle_at_left_endpoint():
    t0 = time.perf_counter()
    rec = theta_min_curve(2.0, [-math.pi])[0]
    dt = time.perf_counter() - t0
    theta = rec.theta_min[0]
    err = abs(theta - 2.677945044)
    print(f"theta_min(-pi) = {theta:.12f}, err = {err:.3e} (tol 1e-6), t = {dt:.3f}s")
    assert err < 1e-6
    assert dt < 1.0


def test_02_min_angle_equals_sample_angle_at_special_points():
    t_half = theta_min_curve(2.0, [-math.pi / 2])[0].theta_min[0]
    t_zero = theta_min_curve(2.0, [0.0])[0].theta_min[0]
    print(f"theta(-pi/2) - pi = {t_half - math.pi:.3e}, theta(0) - pi/2 = {t_zero - math.pi / 2:.3e} (tol 1e-9)")
    assert abs(t_half - math.pi) < 1e-9
    assert abs(t_zero - math.pi / 2) < 1e-9


def test_03_min_angle_monotone_and_in_second_quadrant():
    grid, recs = _theta_curve()
    assert all(len(r.theta_min) == 1 for r in recs)
    theta = np.array([r.theta_min[0] for r in recs])
    up_1 = (grid[1:] <= -math.pi / 2 + 1e-12)
    down = (grid[:-1] >= -math.pi / 2 - 1e-12) & (grid[1:] <= 1e-12)
    up_2 = grid[:-1] >= -1e-12
    d = np.diff(theta)
    bad = int(np.sum(d[up_1] < -1e-12) + np.sum(d[down] > 1e-12) + np.sum(d[up_2] < -1e-12))
    lo, hi = float(theta.min()), float(theta.max())
    print(f"monotonicity violations = {bad}, range = [{lo:.9f}, {hi:.9f}] vs [pi/2, pi] (tol 1e-9)")
    assert bad == 0
    assert lo >= math.pi / 2 - 1e-9 and hi <= math.pi + 1e-9


def test_04_quartic_root_count_transitions():
    trans = root_count_transitions(theta_min_curve(4.0, np.arange(-math.pi, math.pi + 0.005, 0.01)))
    print("transitions:", [(f"{a:.6f}", b, c) for a, b, c in trans], "(targets -1.02, -0.55, tol 0.01)")
    assert len(trans) == 2
    (a1, b1, c1), (a2, b2, c2) = trans
    assert (b1, c1) == (2, 4) and (b2, c2) == (4, 2)
    assert abs(a1 - (-1.02)) < 0.01
    assert abs(a2 - (-0.55)) < 0.01


def test_05_quartic_tied_minimizers_at_minus_quarter_pi():
    (rec,) = theta_min_curve(4.0, [-math.pi / 4])
    win = [r for r in rec.sets if r.label in rec.min_set_label]
    assert len(win) == 2
    got = sorted(
        (canonicalize_sign(normalize(np.asarray(r.q))) for r in win),
        key=lambda q: q[0],
    )
    targets = sorted(
        (canonicalize_sign(np.array([0.82, 0.56, 0.0, 0.0])),
         canonicalize_sign(np.array([-0.17, 0.98, 0.0, 0.0]))),
        key=lambda q: q[0],
    )
    worst = max(np.abs(g - t).max() for g, t in zip(got, targets))
    print(f"two tied classes, worst component error = {worst:.4f} (tol 0.01)")
    for g, t in zip(got, targets):
        assert np.abs(g - t).max() < 0.01


def test_06_euclidean_mean_characterization_and_oracle():
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    worst_char = worst_dist = 0.0
    for i in range(50):
        r = int(rng.integers(1, 7))
        samples = SampleSet(rng.normal(size=(r, 4)))
        model = CostModel.l2_chordal(samples)
        best = min(multistart(model, n_starts=12, seed=i), key=lambda pt: pt.cost)
        worst_char = max(worst_char, best.rotation_residual_norm)
        try:
            q_star = eigen_oracle_l2(samples)
        except AmbiguousMean:
            continue
        R = covering_map(normalize(np.asarray(best.q)))
        worst_dist = max(worst_dist, float(np.linalg.norm(R - covering_map(q_star))))
    dt = time.perf_counter() - t0
    print(f"50 sets: worst commutator residual = {worst_char:.3e} (tol 1e-8), "
          f"worst oracle distance = {worst_dist:.3e} (tol 1e-8), t = {dt:.1f}s (< 30)")
    assert worst_char < 1e-8
    assert worst_dist < 1e-8
    assert dt < 30.0


def test_07_riemannian_mean_log_sum_vanishes():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        r = int(rng.integers(2, 6))
        base = rng.normal(size=4)
        base /= np.linalg.norm(base)
        samples = SampleSet(base[None] + 0.25 * rng.normal(size=(r, 4)))
        model = CostModel.geodesic(samples)
        points = multistart(model, n_starts=8, seed=100 + i)
        assert points
        best = min(points, key=lambda pt: pt.cost)
        R = covering_map(normalize(np.asarray(best.q)))
        log_sum = sum(so3_log(Ri.T @ R) for Ri in covering_map(samples.quaternions))
        worst = max(worst, float(np.linalg.norm(log_sum)))
    print(f"20 sets: worst ||sum of logs|| = {worst:.3e} (tol 1e-7)")
    assert worst < 1e-7


def test_08_randomized_invariant_suite():
    t0 = time.perf_counter()
    results = checks.run_all(seed=0, trials=1000)
    dt = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed, t = {dt:.1f}s (< 60)")
    assert not failed, failed
    assert dt < 60.0


def test_09_polynomial_roots_match_critical_system():
    grid = np.linspace(-math.pi, math.pi, 100)
    for p in (2.0, 4.0):
        bad = polynomial_discrepancies(p, grid)
        print(f"p = {p:g}: {len(bad)} discrepancies on a 100-point grid (expect 0)")
        assert bad == []


def test_10_off_axis_family_constant():
    for p in (2.0, 4.0):
        worst_res = worst_cost = 0.0
        for alpha in np.linspace(-math.pi, math.pi, 201):
            rep = critical_sets(alpha, p)[0]
            assert rep.label == "black"
            worst_res = max(worst_res, rep.residual_norm)
            if p == 2.0:
                worst_cost = max(worst_cost, abs(rep.cost - 24.0))
        print(f"p = {p:g}: worst residual = {worst_res:.3e}", end="")
        if p == 2.0:
            print(f", worst |cost - 24| = {worst_cost:.3e} (tol 1e-12)")
            assert worst_cost <= 1e-12
        else:
            print()
        assert worst_res < 1e-8
