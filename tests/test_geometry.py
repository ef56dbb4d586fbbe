import math

import numpy as np
import pytest

from rotavg.geometry import (
    SampleSet,
    canonicalize_sign,
    covering_map,
    delta_skew,
    dist_d1,
    dist_d2,
    dist_d3,
    dp_apply,
    normalize,
    quat_from_rotation,
    rotation_angle,
)


def rand_unit(rng):
    return normalize(rng.standard_normal(4))


def test_normalize():
    q = normalize([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(q, [1, 0, 0, 0])
    assert abs(np.linalg.norm(normalize([0.3, -1.2, 0.5, 2.0])) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0, 0.0])


def test_canonicalize_sign():
    assert np.allclose(canonicalize_sign([-0.5, 0.5, 0, 0]), [0.5, -0.5, 0, 0])
    assert np.allclose(canonicalize_sign([0.0, -0.3, 0, 0]), [0.0, 0.3, 0, 0])
    assert np.allclose(canonicalize_sign([0.5, -0.3, 0, 0]), [0.5, -0.3, 0, 0])


def test_covering_map_is_rotation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = rand_unit(rng)
        R = covering_map(q)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-14
        assert abs(np.linalg.det(R) - 1.0) < 1e-14
        # the two preimages give the same rotation
        assert np.abs(covering_map(-q) - R).max() == 0.0


def test_covering_map_known_rotations():
    # quarter turn about z
    q = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(covering_map(q) - Rz).max() < 1e-15
    # half turn about x
    assert np.abs(covering_map([0, 1, 0, 0]) - np.diag([1.0, -1.0, -1.0])).max() == 0.0


def test_lift_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(500):
        q = canonicalize_sign(rand_unit(rng))
        q2 = quat_from_rotation(covering_map(q))
        assert np.abs(q2 - q).max() < 1e-14


def test_lift_near_angle_pi():
    # the naive trace branch loses precision here; the max branch must not
    for axis in np.eye(3):
        for eps in (0.0, 1e-9, 1e-13):
            t = (math.pi - eps) / 2.0
            q = np.concatenate(([math.cos(t)], math.sin(t) * axis))
            R = covering_map(q)
            q2 = quat_from_rotation(R)
            assert np.abs(covering_map(q2) - R).max() < 1e-14


def test_rotation_angle():
    Rx = covering_map([math.cos(0.2), math.sin(0.2), 0, 0])
    assert abs(rotation_angle(np.eye(3), Rx) - 0.4) < 1e-12
    assert rotation_angle(Rx, Rx) == 0.0
    assert abs(rotation_angle(np.eye(3), np.diag([1.0, -1.0, -1.0])) - math.pi) < 1e-12


def test_distances_known_values():
    I = np.eye(3)
    Rx = covering_map([math.cos(0.2), math.sin(0.2), 0, 0])
    assert abs(dist_d1(I, Rx) - 2.0 * math.sqrt(2.0) * math.sin(0.2)) < 1e-12
    assert abs(dist_d2(I, Rx) - math.sqrt(2.0) * 0.4) < 1e-12
    assert abs(dist_d3(I, Rx) - (1.0 - math.cos(0.2))) < 1e-12


def test_d2_undefined_at_pi():
    with pytest.raises(ValueError):
        dist_d2(np.eye(3), np.diag([1.0, -1.0, -1.0]))


def test_d3_equals_quaternion_form():
    rng = np.random.default_rng(2)
    for _ in range(300):
        qa, qb = rand_unit(rng), rand_unit(rng)
        d = dist_d3(covering_map(qa), covering_map(qb))
        assert abs(d - (1.0 - abs(np.dot(qa, qb)))) < 1e-12


def test_delta_skew_structure():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q, qi = rand_unit(rng), rand_unit(rng)
        D = delta_skew(q, qi)
        assert np.abs(D + D.T).max() == 0.0
        assert np.abs(delta_skew(-q, qi) + D).max() == 0.0


def test_delta_skew_batched_matches_rows():
    # an (r, 4) array of lifts gives the entry arrays of every Delta_i, bit
    # for bit the entries of the one-sample call
    rng = np.random.default_rng(7)
    for r in (1, 2, 6):
        q = rand_unit(rng)
        Q = np.array([rand_unit(rng) for _ in range(r)])
        a, b, c = delta_skew(q, Q)
        assert a.shape == b.shape == c.shape == (r,)
        for i in range(r):
            D = delta_skew(q, Q[i])
            assert (D[0, 1], D[0, 2], D[1, 2]) == (a[i], b[i], c[i])


def test_delta_skew_rotation_relation():
    # <q,qi> Delta_i(q) = ((R^q)^T R^qi - (R^qi)^T R^q) / 4
    rng = np.random.default_rng(5)
    for _ in range(200):
        q, qi = rand_unit(rng), rand_unit(rng)
        R, Ri = covering_map(q), covering_map(qi)
        lhs = np.dot(q, qi) * delta_skew(q, qi)
        rhs = 0.25 * (R.T @ Ri - Ri.T @ R)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_dp_apply_tangent_is_skew():
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = rand_unit(rng)
        v = rng.standard_normal(4)
        v -= np.dot(v, q) * q  # tangent at q
        S = covering_map(q).T @ dp_apply(q, v)
        assert np.abs(S + S.T).max() < 1e-13


def test_dp_apply_matches_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(50):
        q = rand_unit(rng)
        v = rng.standard_normal(4)
        fd = (covering_map(q + h * v) - covering_map(q - h * v)) / (2.0 * h)
        assert np.abs(dp_apply(q, v) - fd).max() < 1e-6


def test_sample_set_construction():
    s = SampleSet.from_quaternions([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert s.r == 2 and len(s) == 2
    assert np.abs(s.rotations[1] - np.diag([1.0, -1.0, -1.0])).max() == 0.0

    # lifts are normalized but their signs kept as supplied
    s2 = SampleSet.from_quaternions([[-2.0, 0, 0, 0]])
    assert np.allclose(s2.quaternions[0], [-1, 0, 0, 0])

    rng = np.random.default_rng(8)
    Rs = np.array([covering_map(rand_unit(rng)) for _ in range(5)])
    s3 = SampleSet.from_rotations(Rs)
    assert np.abs(s3.rotations - Rs).max() == 0.0
    for q, R in zip(s3.quaternions, Rs):
        assert np.abs(covering_map(q) - R).max() < 1e-14


def test_sample_set_rejects_bad_input():
    with pytest.raises(ValueError):
        SampleSet.from_quaternions(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        SampleSet.from_quaternions([[1.0, 0, 0]])
    with pytest.raises(ValueError):
        # lift does not match the claimed rotation
        SampleSet(np.array([[1.0, 0, 0, 0]]), np.diag([1.0, -1.0, -1.0])[None])
