import math

import numpy as np
import pytest

from rotavg import geometry
from rotavg.checks import check_d3_identity
from rotavg.geometry import (
    SampleSet,
    canonicalize_sign,
    covering_map,
    delta_skew,
    dist_d1,
    dist_d2,
    dist_d3,
    normalize,
    quat_from_rotation,
    rotation_angle,
    tangent_frame,
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


def shepperd_lift(R):
    # the one-matrix lift, branch by branch: the trace branch where the
    # trace is at least every diagonal entry, else Shepperd's branch for the
    # largest diagonal entry under the cyclic relabelling (i, j, k), with the
    # subtrahends in ascending index order
    t, d = np.trace(R), np.diagonal(R)
    if t >= d.max():
        s = 2.0 * math.sqrt(max(1.0 + t, 0.0))
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(d))
        j, k = (i + 1) % 3, (i + 2) % 3
        m, n = sorted((j, k))
        s = 2.0 * math.sqrt(max(1.0 + R[i, i] - R[m, m] - R[n, n], 0.0))
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[i, j] + R[j, i]) / s
        q[1 + k] = (R[i, k] + R[k, i]) / s
    q = q / np.linalg.norm(q)
    for c in q:
        if c != 0.0:
            return -q if c < 0.0 else q
    return q


def test_batched_lift_matches_one_matrix_lift():
    # the stacked lift gives the bytes of the one-matrix lift on every
    # matrix: 20 000 random rotations, plus angle 0, pi/2, pi and pi - 1e-9
    # about the axes and diagonals, and those matrices rounded to integers
    rng = np.random.default_rng(9)
    axes = [*np.eye(3), *(normalize(v) for v in ([1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, -1, 0], [-1, 1, 1]))]
    special = [np.concatenate(([math.cos(a / 2)], math.sin(a / 2) * ax)) for ax in axes for a in (0.0, math.pi / 2, math.pi, math.pi - 1e-9)]
    Q = np.vstack([normalize(rng.standard_normal((20000, 4))), special])
    Rs = covering_map(Q)
    Rs = np.vstack([Rs, np.round(Rs[-len(special) :])])
    lifted = quat_from_rotation(Rs)
    assert lifted.shape == (len(Rs), 4)
    assert np.array_equal(lifted, np.array([shepperd_lift(R) for R in Rs]))
    assert np.array_equal(lifted[-100:], np.array([quat_from_rotation(R) for R in Rs[-100:]]))
    # the stacked covering map is the one-quaternion map on every row
    assert np.array_equal(Rs[: len(Q)], np.array([covering_map(q) for q in Q]))


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
    pairs = [(rand_unit(rng), rand_unit(rng)) for _ in range(300)]
    # near relative angle pi: <qa, qb> = x, where sqrt(t + 1) / 2 read off
    # the trace t would be good only to about 1e-17 / x
    for x in np.logspace(-12, -2, 60):
        qa, v = rand_unit(rng), rng.standard_normal(4)
        pairs.append((qa, normalize(normalize(v - np.dot(v, qa) * qa) + x * qa)))
    for qa, qb in pairs:
        d = dist_d3(covering_map(qa), covering_map(qb))
        assert abs(d - (1.0 - abs(np.dot(qa, qb)))) < 1e-12


def test_d3_identity_check_seed_next_to_pi():
    # the d3 family's seed under run_all(seed=11004); its worst pair has
    # x = -3.77e-5, where the trace form read 1.581e-12 against 1e-12
    assert check_d3_identity(seed=11012, trials=1000).passed


def test_abs_dots_of_a_stack():
    # every row within an ulp of |<q, q_i>|, on both sides of t = 0
    rng = np.random.default_rng(5)
    q, Q = rand_unit(rng), normalize(rng.standard_normal((200, 4)))
    x = geometry._abs_dots(covering_map(q), covering_map(Q))
    assert np.abs(x - np.abs(Q @ q)).max() < 1e-15
    # the ends x = 1 and x = 0, exactly
    assert geometry._abs_dots(np.eye(3), np.eye(3))[0] == 1.0
    assert geometry._abs_dots(np.eye(3), np.diag([1.0, -1.0, -1.0]))[0] == 0.0


def test_classes_rule():
    # the identity and rotations about x whose matrices lie 0.9e-8 and
    # 1.1e-8 from it: ||R(q) - I||_F = 2 sqrt(2) |sin(angle / 2)|. Row 2
    # lies within 1e-8 of row 1 but not of row 0, the head of row 1's
    # class, so it heads its own; in another order all three are one class
    t = np.array([0.0, 0.9e-8, 1.1e-8]) / (2.0 * math.sqrt(2.0))
    Q = normalize(np.stack([np.ones(3), t, np.zeros(3), np.zeros(3)], axis=1))
    assert geometry._classes(Q) == [0, 0, 2]
    assert geometry._classes(np.concatenate([Q[:1], -Q[:1]])) == [0, 0]
    assert geometry._classes(Q[:0]) == []
    stack = np.stack([Q, Q[::-1], Q[[1, 0, 2]]])
    assert geometry._classes(stack) == [[0, 0, 2], [0, 0, 2], [0, 0, 0]]
    assert geometry._classes(stack) == [geometry._classes(q) for q in stack]


def test_classes_match_the_matrix_rule():
    # the quaternion form of the rule equals the matrix rule, Frobenius
    # distance below 1e-8 to a class's head, read pair by pair with
    # np.linalg.norm, near pairs included
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 64):
        for scale in (0.0, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 1e-3):
            Q = normalize(rng.standard_normal((n, 4)))
            k = rng.integers(0, n, n // 2)
            Q[k] = normalize(Q[k[::-1]] + scale * rng.standard_normal((len(k), 4)))
            Q[::3] *= -1.0
            F = covering_map(Q).reshape(-1, 9)
            want = []
            for i in range(n):
                want.append(next((j for j in range(i) if want[j] == j and np.linalg.norm(F[i] - F[j]) < 1e-8), i))
            assert geometry._classes(Q) == want


def test_pair_distances_match_matrix_forms():
    # every pair of rows against dist_d1, dist_d2 and dist_d3, with d2 NaN
    # exactly where dist_d2 raises (a half-turn pair is among them)
    rng = np.random.default_rng(17)
    P, Q = normalize(rng.standard_normal((20, 4))), normalize(rng.standard_normal((30, 4)))
    Q[0] = [P[0, 1], -P[0, 0], P[0, 3], -P[0, 2]]  # <P[0], Q[0]> = 0
    d1, d2, d3 = geometry._pair_distances(P, Q)
    assert d1.shape == d2.shape == d3.shape == (20, 30)
    for i in range(20):
        for j in range(30):
            Ri, Rj = covering_map(P[i]), covering_map(Q[j])
            assert abs(d1[i, j] - dist_d1(Ri, Rj)) < 1e-14
            assert abs(d3[i, j] - dist_d3(Ri, Rj)) < 1e-14
            try:
                assert abs(d2[i, j] - dist_d2(Ri, Rj)) < 1e-12
            except ValueError:
                assert np.isnan(d2[i, j])
    assert np.isnan(d2[0, 0])
    # one lift or the other, in either order
    assert np.array_equal(geometry._pair_distances(-Q, P)[0], d1.T)


def test_pair_distances_take_stacks():
    # a stack of set pairs gives each pair's tables with the bits of the
    # call on that pair alone
    rng = np.random.default_rng(3)
    P = normalize(rng.standard_normal((6, 3, 4)))
    Q = normalize(rng.standard_normal((6, 5, 4)))
    Q[2, 1] = -P[2, 0]
    for got, *want in zip(geometry._pair_distances(P, Q), *(geometry._pair_distances(p, q) for p, q in zip(P, Q))):
        assert np.array_equal(got, np.array(want), equal_nan=True)


@pytest.mark.parametrize("angle", [1e-8, 1e-6, 1e-4])
def test_pair_distances_closed_forms(angle):
    # rotations by a small angle about each axis, where the matrix forms
    # cancel: d1 = 2 sqrt(2) sin(angle / 2), d2 = sqrt(2) angle and
    # d3 = 1 - cos(angle / 2) = 2 sin^2(angle / 4), each to a few ulp
    P = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    Q = np.zeros((3, 4))
    Q[:, 0] = math.cos(angle / 2.0)
    Q[[0, 1, 2], [1, 2, 3]] = math.sin(angle / 2.0)
    for sign in (1.0, -1.0):
        d1, d2, d3 = (np.diagonal(d) for d in geometry._pair_distances(P, sign * Q))
        for d, want in [(d1, 2.0 * math.sqrt(2.0) * math.sin(angle / 2.0)), (d2, math.sqrt(2.0) * angle),
                        (d3, 2.0 * math.sin(angle / 4.0) ** 2)]:
            assert np.abs(d / want - 1.0).max() < 1e-14


def test_delta_skew_structure():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q, qi = rand_unit(rng), rand_unit(rng)
        D = delta_skew(q, qi)
        assert np.abs(D + D.T).max() == 0.0
        assert np.abs(delta_skew(-q, qi) + D).max() == 0.0


def delta_entries(q, qi):
    # the entries (a, b, c) of Delta_i(q) written out term by term: a
    # reference for the frame rows
    q0, q1, q2, q3 = q
    p0, p1, p2, p3 = qi
    a = -q0 * p3 + q1 * p2 - q2 * p1 + q3 * p0
    b = q0 * p2 + q1 * p3 - q2 * p0 - q3 * p1
    c = -q0 * p1 + q1 * p0 + q2 * p3 - q3 * p2
    return np.array([a, b, c])


def test_tangent_frame_orthonormal_and_odd():
    rng = np.random.default_rng(8)
    Q = normalize(rng.standard_normal((500, 4)))
    Bs = tangent_frame(Q)
    assert Bs.shape == (500, 3, 4)
    for q, B in zip(Q, Bs):
        assert B.shape == (3, 4)
        assert np.abs(B @ q).max() < 1e-15
        assert np.abs(B @ B.T - np.eye(3)).max() < 1e-15
        assert np.array_equal(tangent_frame(-q), -B)
        # a stack gives the one-point frame row by row
        assert np.array_equal(tangent_frame(q), B)


def test_tangent_frame_gives_delta_entries():
    rng = np.random.default_rng(9)
    for _ in range(500):
        q, qi = rand_unit(rng), rand_unit(rng)
        abc = delta_entries(q, qi)
        assert np.abs(tangent_frame(q) @ qi - abc).max() < 1e-15
        D = delta_skew(q, qi)
        assert np.abs(D - np.array([[0, abc[0], abc[1]], [-abc[0], 0, abc[2]], [-abc[1], -abc[2], 0]])).max() < 1e-15


def test_delta_skew_rotation_relation():
    # <q,qi> Delta_i(q) = ((R^q)^T R^qi - (R^qi)^T R^q) / 4
    rng = np.random.default_rng(5)
    for _ in range(200):
        q, qi = rand_unit(rng), rand_unit(rng)
        R, Ri = covering_map(q), covering_map(qi)
        lhs = np.dot(q, qi) * delta_skew(q, qi)
        rhs = 0.25 * (R.T @ Ri - Ri.T @ R)
        assert np.abs(lhs - rhs).max() < 1e-12


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
    assert "rotations" not in vars(s3)  # formed from the lifts on first read
    assert np.array_equal(s3.rotations, covering_map(s3.quaternions))
    assert np.abs(s3.rotations - Rs).max() < 1e-14
    assert SampleSet.from_rotations(Rs[0]).r == 1


def test_sample_set_rejects_bad_input():
    with pytest.raises(ValueError):
        SampleSet.from_quaternions(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        SampleSet.from_quaternions([[1.0, 0, 0]])


def test_sample_set_forms_rotations_on_first_read(monkeypatch):
    calls = []
    real = geometry.covering_map
    monkeypatch.setattr(geometry, "covering_map", lambda q: calls.append(q) or real(q))
    s = SampleSet.from_quaternions(np.random.default_rng(3).standard_normal((5, 4)))
    assert calls == []
    R = s.rotations
    assert len(calls) == 1
    # the cached matrices are covering_map's, bit for bit, and formed once
    assert R.tobytes() == real(s.quaternions).tobytes()
    assert s.rotations is R and len(calls) == 1


def test_stacked_helpers_equal_row_calls():
    # delta_skew and dist_d3 pair the rows of two stacks
    rng = np.random.default_rng(21)
    q, p = normalize(rng.standard_normal((30, 4))), normalize(rng.standard_normal((30, 4)))
    Rq, Rp = covering_map(q), covering_map(p)
    D, d = delta_skew(q, p), dist_d3(Rq, Rp)
    assert D.shape == (30, 3, 3) and d.shape == (30,)
    for k in range(30):
        assert np.array_equal(D[k], delta_skew(q[k], p[k]))
        assert d[k] == dist_d3(Rq[k], Rp[k])
    Q = normalize(rng.standard_normal((5, 3, 4)))
    assert np.array_equal(covering_map(Q)[4], covering_map(Q[4]))
