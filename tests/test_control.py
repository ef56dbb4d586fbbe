import numpy as np
import pytest

from rotavg import control
from rotavg.control import (
    AmbientProblem,
    ScalarField,
    apply_T_sphere,
    dissipation_rate,
    fd_gradient,
    gramian,
    unit_sphere_problem,
    v0,
)


def quadratic_field(A, b):
    # x^T A x + b^T x at a point (m,) or at each row of a stack (n, m)
    A = 0.5 * (A + A.T)
    return ScalarField(
        value=lambda x, A=A, b=b: np.vecdot(x, np.matvec(A, x)) + np.vecdot(b, x),
        grad=lambda x, A=A, b=b: np.matvec(2.0 * A, x) + b,
    )


def random_problem(rng, m, k):
    constraints = tuple(
        quadratic_field(rng.standard_normal((m, m)), rng.standard_normal(m)) for _ in range(k)
    )
    objective = quadratic_field(rng.standard_normal((m, m)), rng.standard_normal(m))
    return AmbientProblem(dimension=m, constraints=constraints, objective=objective)


def test_gramian():
    g = gramian([[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [3.0, 0.0]])
    assert np.allclose(g, [[1.0, 3.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        gramian([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


def test_problem_validation():
    f = quadratic_field(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        AmbientProblem(dimension=3, constraints=(), objective=f)
    with pytest.raises(ValueError):
        AmbientProblem(dimension=2, constraints=(f, f), objective=f)


def test_v0_tangent_to_leaves():
    # <grad F_i, v0> = 0 identically: the defining determinants repeat a row
    rng = np.random.default_rng(10)
    for m, k in [(3, 1), (4, 1), (5, 2), (6, 3)]:
        prob = random_problem(rng, m, k)
        for _ in range(50):
            x = rng.standard_normal(m)
            v = v0(prob, x)
            for f in prob.constraints:
                g = f.grad(x)
                assert abs(np.dot(g, v)) < 1e-9 * max(1.0, np.linalg.norm(g) * np.linalg.norm(v))


def test_dissipation_identity():
    # <grad G, v0> equals the full Gramian determinant and is >= 0
    rng = np.random.default_rng(11)
    for m, k in [(4, 1), (5, 2), (6, 3)]:
        prob = random_problem(rng, m, k)
        for _ in range(50):
            x = rng.standard_normal(m)
            lhs = float(np.dot(prob.objective.grad(x), v0(prob, x)))
            rhs = dissipation_rate(prob, x)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
            assert rhs >= -1e-9 * max(1.0, abs(rhs))


def test_v0_k1_closed_form():
    # one constraint: v0 = |grad F|^2 grad G - <grad F, grad G> grad F
    rng = np.random.default_rng(12)
    prob = random_problem(rng, 4, 1)
    for _ in range(100):
        x = rng.standard_normal(4)
        gF = prob.constraints[0].grad(x)
        gG = prob.objective.grad(x)
        expected = np.dot(gF, gF) * gG - np.dot(gF, gG) * gF
        assert np.abs(v0(prob, x) - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())


def T_matrix_sphere(q):
    """The 4x4 matrix of the tensor T at q: 4(<q,q> I - q q^T)."""
    return 4.0 * (np.dot(q, q) * np.eye(4) - np.outer(q, q))


def regularity(problem, x):
    """det of the constraint Gramian at x; nonzero where x is regular."""
    grads = [f.grad(x) for f in problem.constraints]
    return float(np.linalg.det(gramian(grads, grads)))


def test_sphere_tensor():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rng.standard_normal(4)
        w = rng.standard_normal(4)
        assert np.abs(apply_T_sphere(q, w) - T_matrix_sphere(q) @ w).max() < 1e-12
        assert np.abs(T_matrix_sphere(q) @ q).max() < 1e-12  # T annihilates q
        M = T_matrix_sphere(q)
        assert np.abs(M - M.T).max() == 0.0


def test_sphere_problem_matches_tensor():
    # on F = |q|^2 the generic v0 reduces to the tensor applied to grad G
    rng = np.random.default_rng(14)
    obj = quadratic_field(rng.standard_normal((4, 4)), rng.standard_normal(4))
    prob = unit_sphere_problem(obj)
    assert prob.dimension == 4 and len(prob.constraints) == 1
    for _ in range(100):
        q = rng.standard_normal(4)
        assert np.abs(v0(prob, q) - apply_T_sphere(q, obj.grad(q))).max() < 1e-10


def test_sphere_v0_is_scaled_projection():
    # at unit q: v0 = 4 (grad G - <q, grad G> q)
    rng = np.random.default_rng(15)
    obj = quadratic_field(rng.standard_normal((4, 4)), rng.standard_normal(4))
    prob = unit_sphere_problem(obj)
    for _ in range(100):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        g = obj.grad(q)
        proj = g - np.dot(q, g) * q
        assert np.abs(v0(prob, q) - 4.0 * proj).max() < 1e-12


def test_regularity():
    obj = quadratic_field(np.eye(4), np.zeros(4))
    prob = unit_sphere_problem(obj)
    assert regularity(prob, np.array([1.0, 0, 0, 0])) == pytest.approx(4.0)
    assert regularity(prob, np.zeros(4)) == 0.0  # the origin is the only irregular point


def test_fd_gradient():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    f = lambda x: float(x @ A @ x)
    for _ in range(20):
        x = rng.standard_normal(4)
        assert np.abs(fd_gradient(f, x) - 2.0 * A @ x).max() < 1e-7


@pytest.mark.parametrize("m, k", [(4, 1), (5, 2), (6, 3), (9, 7)])
def test_stacks_equal_one_point_calls(m, k):
    # one result per row of an (n, m) stack, with the bits of the one-point
    # call; the one-point call keeps its shape (a float for the rate)
    rng = np.random.default_rng(17 + m)
    prob = random_problem(rng, m, k)
    X = rng.standard_normal((25, m))
    V, rate = v0(prob, X), dissipation_rate(prob, X)
    G = fd_gradient(prob.objective.value, X)
    assert V.shape == X.shape and rate.shape == (25,) and G.shape == X.shape
    for x, v, d, g in zip(X, V, rate, G):
        assert np.array_equal(v0(prob, x), v)
        one = dissipation_rate(prob, x)
        assert isinstance(one, float) and one == d
        assert np.array_equal(fd_gradient(prob.objective.value, x), g)


def test_sphere_stacks_equal_one_point_calls():
    rng = np.random.default_rng(18)
    prob = unit_sphere_problem(quadratic_field(rng.standard_normal((4, 4)), rng.standard_normal(4)))
    X = rng.standard_normal((25, 4))
    V, rate = v0(prob, X), dissipation_rate(prob, X)
    for x, v, d in zip(X, V, rate):
        assert np.array_equal(v0(prob, x), v) and dissipation_rate(prob, x) == d


def test_gramian_of_stacks():
    rng = np.random.default_rng(19)
    rows, cols = rng.standard_normal((3, 10, 5)), rng.standard_normal((2, 10, 5))
    G = gramian(list(rows), list(cols))
    assert G.shape == (10, 3, 2)
    for n in range(10):
        assert np.array_equal(G[n], gramian(rows[:, n], cols[:, n]))


def per_minor_v0(problem, x):
    """v0 from k + 1 separate Gram products per point, one per minor, as
    the control field was first written: the reference for the one-Gram
    form. A 1x1 minor is its entry, a larger one np.linalg.det."""
    x = np.asarray(x, dtype=float)
    gF = [f.grad(x) for f in problem.constraints]
    gG = problem.objective.grad(x)
    k = len(gF)

    def det(M):
        return M[..., 0, 0] if M.shape[-1] == 1 else np.linalg.det(M)

    out = np.expand_dims(det(gramian(gF, gF)), -1) * gG
    for i in range(1, k + 1):
        cols = gF[: i - 1] + gF[i:] + [gG]
        out = out + np.expand_dims(((-1.0) ** (i + k + 1)) * det(gramian(gF, cols)), -1) * gF[i - 1]
    return out


def per_minor_rate(problem, x):
    """det of the full Gramian, the 2x2 one by its cofactor formula."""
    g = [f.grad(x) for f in problem.constraints] + [problem.objective.grad(x)]
    S = gramian(g, g)
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0] if len(g) == 2 else np.linalg.det(S)


@pytest.mark.parametrize("m, k", [(4, 1), (3, 1), (5, 2), (6, 3)])
def test_one_gram_matches_per_minor_form(m, k):
    # on single points and on stacks, the rate bit for bit at every k: its
    # (k+1)x(k+1) determinant takes the reference's rule, the cofactor form
    # for 2x2 and np.linalg.det beyond. v0 bit for bit at k = 1 (1x1
    # minors) and k = 3 (3x3 minors, np.linalg.det on both sides), and
    # within 1e-12 relative at k = 2, whose 2x2 minors keep the cofactor
    # form where the reference takes np.linalg.det
    rng = np.random.default_rng(30 + m + k)
    for _ in range(20):
        prob = random_problem(rng, m, k)
        for X in (rng.standard_normal(m), rng.standard_normal((9, m))):
            V, W = v0(prob, X), per_minor_v0(prob, X)
            assert np.array_equal(dissipation_rate(prob, X), per_minor_rate(prob, X))
            if k == 2:
                assert np.abs(V - W).max() <= 1e-12 * np.abs(W).max()
            else:
                assert np.array_equal(V, W)


@pytest.mark.parametrize("k", [1, 3])
def test_v0_forms_one_gram_matrix_per_call(k, monkeypatch):
    calls = []
    monkeypatch.setattr(control, "gramian", lambda *a: calls.append(1) or gramian(*a))
    prob = random_problem(np.random.default_rng(32), 6, k)
    X = np.random.default_rng(33).standard_normal((9, 6))
    v0(prob, X)
    v0(prob, X[0])
    assert len(calls) == 2
