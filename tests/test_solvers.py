import math

import numpy as np
import pytest

from rotavg.costs import CostModel
from rotavg.geometry import SampleSet, canonicalize_sign, covering_map, normalize
from rotavg.solvers import (
    AmbiguousMean,
    CriticalPoint,
    DomainBreach,
    FlowConfig,
    MaxIters,
    classify,
    eigen_oracle_l2,
    flow_descend,
    multistart,
    random_unit_quaternion,
)
from rotavg.sweep import build_samples, critical_sets


def test_flow_config_validation():
    FlowConfig()  # defaults are fine
    for kw in (
        {"initial_step": 0.0},
        {"step_shrink": 1.0},
        {"step_shrink": 0.0},
        {"grad_tol": 0.0},
        {"max_iters": 0},
    ):
        with pytest.raises(ValueError):
            FlowConfig(**kw)


def test_random_unit_quaternion():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-14
    # seeded stream is reproducible
    a = random_unit_quaternion(np.random.default_rng(42))
    b = random_unit_quaternion(np.random.default_rng(42))
    assert np.abs(a - b).max() == 0.0


def test_flow_single_sample():
    # one sample: its rotation is the unique minimizer for every cost
    rng = np.random.default_rng(1)
    target = random_unit_quaternion(rng)
    samples = SampleSet.from_quaternions(target[None])
    # trace_sqrt and p=4 are quartically flat at their minimum, so a 1e-12
    # bound on the control norm only pins the position to ~(1e-12)^(1/3)
    cases = [
        (CostModel.l2_chordal(samples), 1e-7),
        (CostModel.geodesic(samples), 1e-7),
        (CostModel.trace_sqrt(samples), 5e-4),
        (CostModel.lp_chordal(samples, 4.0), 5e-4),
    ]
    for model, pos_tol in cases:
        for _ in range(5):
            q0 = random_unit_quaternion(rng)
            while not model.admissible(q0):
                q0 = random_unit_quaternion(rng)
            pt = flow_descend(model, q0)
            assert pt.control_norm < 1e-12
            assert np.abs(pt.R - covering_map(target)).max() < pos_tol
            assert pt.rotation_residual_norm < pos_tol


def test_flow_geodesic_midpoint():
    # two samples: the Riemannian mean bisects the connecting geodesic
    samples = SampleSet.from_quaternions(
        [[1.0, 0.0, 0.0, 0.0], [math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0, 0.0]]
    )
    model = CostModel.geodesic(samples)
    pt = flow_descend(model, normalize([1.0, 0.2, 0.1, -0.3]))
    mid = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0, 0.0])
    assert np.abs(canonicalize_sign(pt.q) - mid).max() < 1e-9


def test_flow_failure_modes():
    samples = build_samples(-math.pi)
    model = CostModel.l2_chordal(samples)
    with pytest.raises(MaxIters):
        flow_descend(model, [1.0, 0.0, 0.0, 0.0], FlowConfig(max_iters=1))
    geo = CostModel.geodesic(samples)
    with pytest.raises(DomainBreach):
        # start orthogonal to the first sample lift
        flow_descend(geo, [1.0, 0.0, 0.0, 0.0])


def test_multistart_matches_eigen_oracle():
    rng = np.random.default_rng(2)
    for trial in range(10):
        r = int(rng.integers(2, 7))
        Q = np.array([random_unit_quaternion(rng) for _ in range(r)])
        samples = SampleSet.from_quaternions(Q)
        model = CostModel.l2_chordal(samples)
        pts = multistart(model, 10, seed=trial)
        assert pts
        assert pts[0].classification == "Min"
        # sorted by cost
        costs = [p.cost for p in pts]
        assert costs == sorted(costs)
        q_or = eigen_oracle_l2(samples)
        assert np.abs(pts[0].R - covering_map(q_or)).max() < 1e-8


def test_multistart_validation():
    samples = build_samples(0.3)
    with pytest.raises(ValueError):
        multistart(CostModel.l2_chordal(samples), 0, seed=0)


def test_classify_labels():
    # at alpha=-pi, p=2 the three emitted classes have known characters:
    # the out-of-pencil circle is a degenerate max, and the two on-axis
    # classes split into the global min and a saddle
    samples = build_samples(-math.pi)
    model = CostModel.l2_chordal(samples)
    got = {}
    for rep in critical_sets(-math.pi, 2.0):
        q = np.asarray(rep.q)
        pt = CriticalPoint(
            q=q, R=covering_map(q), cost=rep.cost, control_norm=0.0, rotation_residual_norm=0.0
        )
        got[rep.label] = classify(model, pt)
    assert got["black"] == ("Max", True)
    assert got["red"] == ("Min", False)
    assert got["pink"] == ("Saddle", False)


def test_classify_boundary():
    geo = CostModel.geodesic(build_samples(0.5))
    q = normalize([1e-6, 0.0, 1.0, 0.0])
    pt = CriticalPoint(q=q, R=covering_map(q), cost=0.0, control_norm=0.0, rotation_residual_norm=0.0)
    assert classify(geo, pt) == ("Boundary", False)


def test_eigen_oracle_single_sample():
    rng = np.random.default_rng(3)
    q = random_unit_quaternion(rng)
    samples = SampleSet.from_quaternions(q[None])
    assert np.abs(eigen_oracle_l2(samples) - canonicalize_sign(q)).max() < 1e-14


def test_eigen_oracle_ambiguous():
    samples = SampleSet.from_quaternions([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(AmbiguousMean):
        eigen_oracle_l2(samples)
