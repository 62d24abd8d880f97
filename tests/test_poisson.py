"""Poisson verification, brackets, Lie derivatives and chain builders."""

import numpy as np
import pytest

from haantjeskit import (BivectorField, Chart, OneFormField, OperatorField,
                         ScalarField, VectorField, apply_operator,
                         apply_transpose, check_chain_closed,
                         check_compatibility, check_jacobi, check_skew,
                         check_skew_compositions, hamiltonian_field,
                         identity_operator, jacobi_residual,
                         lie_derivative_bivector, lie_derivative_oneform,
                         lie_derivative_operator, poisson_bracket, r_tensor)
from haantjeskit.poisson import _jacobi
from haantjeskit.sampling import sample_points

from conftest import (fd_jacobian, kernel_error, point, points_of,
                      random_complex)


@pytest.fixture(scope="module")
def chart4():
    return Chart("p4", 4)


@pytest.fixture(scope="module")
def canonical(chart4):
    m = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    return BivectorField(chart4, lambda x: [list(r) for r in m])


@pytest.fixture(scope="module")
def sample4(chart4):
    return sample_points(chart4, 15, 31)


def test_canonical_bivector_verifies(canonical, sample4):
    skew, jacobi = check_skew(canonical, sample4), check_jacobi(canonical,
                                                               sample4)
    assert skew.passed and jacobi.passed
    assert skew.residual == 0.0
    assert jacobi.residual == 0.0


def test_lie_algebra_type_bivector_verifies():
    # so(3)-type linear bivector on a 3-dim chart
    chart = Chart("so3", 3)
    P = BivectorField(chart, lambda x: [[0.0, x[2], -x[1]],
                                        [-x[2], 0.0, x[0]],
                                        [x[1], -x[0], 0.0]])
    sample = sample_points(chart, 15, 32)
    assert check_skew(P, sample).passed and check_jacobi(P, sample).passed


def test_non_jacobi_bivector_fails():
    chart = Chart("nj", 3)
    P = BivectorField(chart, lambda x: [[0.0, x[0] * x[1], 0.0],
                                        [-x[0] * x[1], 0.0, x[0]],
                                        [0.0, -x[0], 0.0]])
    sample = sample_points(chart, 15, 33)
    assert check_skew(P, sample).passed
    assert not check_jacobi(P, sample).passed
    assert np.max(jacobi_residual(P, sample)) > 1e-3


def _jacobi_reference(Pc, Pd):
    # one einsum, kept as the reference of the batched `@` kernel
    term = np.einsum("sil,sjkl->sijk", Pc, Pd)
    return term + term.transpose(0, 2, 3, 1) + term.transpose(0, 3, 1, 2)


@pytest.mark.parametrize("points", [1, 33])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_jacobi_kernel_matches_einsum_reference(n, points):
    rng = np.random.default_rng(100 * n + points)
    for _ in range(5):
        Pc = random_complex(rng, points, n, n)
        Pd = random_complex(rng, points, n, n, n)
        assert np.all(kernel_error(_jacobi, _jacobi_reference, 1, Pc, Pd)
                      <= 1)


def test_poisson_bracket_canonical(canonical, chart4, sample4):
    q0 = ScalarField(chart4, lambda x: x[0])
    p0 = ScalarField(chart4, lambda x: x[2])
    p1 = ScalarField(chart4, lambda x: x[3])
    p = sample4[:5]
    assert np.max(np.abs(poisson_bracket(canonical, q0, p0, p) - 1.0)) < 1e-14
    assert np.max(np.abs(poisson_bracket(canonical, q0, p1, p))) < 1e-14
    assert np.max(np.abs(poisson_bracket(canonical, q0, q0, p))) < 1e-14


def test_bracket_antisymmetry_and_leibniz(canonical, chart4, sample4):
    f = ScalarField(chart4, lambda x: x[0] * x[3] + x[1] ** 2)
    g = ScalarField(chart4, lambda x: x[2] * x[1])
    h = ScalarField(chart4, lambda x: x[0] + x[2] ** 2)
    gh = ScalarField(chart4, lambda x: g.fn(x) * h.fn(x))
    p = sample4[:5]
    assert np.max(np.abs(poisson_bracket(canonical, f, g, p)
                         + poisson_bracket(canonical, g, f, p))) < 1e-13
    lhs = poisson_bracket(canonical, f, gh, p)
    rhs = (poisson_bracket(canonical, f, g, p) * h(p)
           + g(p) * poisson_bracket(canonical, f, h, p))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hamiltonian_field_is_differentiable(canonical, chart4, sample4):
    H = ScalarField(chart4, lambda x: 0.5 * (x[2] ** 2 + x[3] ** 2)
                    + x[0] ** 2 * x[1])
    X = hamiltonian_field(canonical, H)
    p = sample4[0]
    got = X.jacobian(p)[0]
    want = fd_jacobian(lambda x: canonical(point(chart4, *x))[0]
                       @ H.gradient(point(chart4, *x))[0],
                       points_of(p)[0])
    assert np.max(np.abs(got - want)) < 1e-6


def test_lie_derivatives_match_fd(chart4, sample4):
    Z = VectorField(chart4, lambda x: [x[1], x[0] * x[2], 1.0, x[3] ** 2])
    N = OperatorField(chart4, lambda x: [[x[0], 0, 1, 0],
                                         [0, x[1] * x[2], 0, 0],
                                         [0, 1, x[2], 0],
                                         [x[3], 0, 0, x[0] * x[1]]])
    a = OneFormField(chart4, lambda x: [x[2], x[3], x[0] ** 2, 1.0])
    P = BivectorField(chart4, lambda x: [[0, x[0], 0, 1],
                                         [-x[0], 0, x[1], 0],
                                         [0, -x[1], 0, x[2]],
                                         [-1, 0, -x[2], 0]])
    p = sample4[0]
    h = 1e-6

    def flowed(coords, t):
        # first-order Euler transport is enough for an O(h) check with
        # Richardson on the difference quotient below
        return [c + t * v for c, v in zip(coords, Z.fn(list(coords)))]

    # spot check just the operator Lie derivative with a two-sided
    # difference of the pulled-back tensor
    def pullback_N(t):
        x = flowed(points_of(p)[0], t)
        q = point(chart4, *x)
        J = np.eye(4, dtype=complex) + t * Z.jacobian(p)[0]
        return np.linalg.solve(J, N(q)[0] @ J)

    fd = (pullback_N(h) - pullback_N(-h)) / (2.0 * h)
    got = lie_derivative_operator(Z, N, p)[0]
    assert np.max(np.abs(got - fd)) < 1e-4

    # one-form and bivector versions through their component formulas,
    # over a sample
    s = sample4[:5]
    Zc, Zd = Z(s), Z.jacobian(s)
    got_a = lie_derivative_oneform(Z, a, s)
    want_a = (np.einsum("sk,sik->si", Zc, a.jacobian(s))
              + np.einsum("sk,ski->si", a(s), Zd))
    assert np.max(np.abs(got_a - want_a)) < 1e-12
    got_P = lie_derivative_bivector(Z, P, s)
    Pc = P(s)
    want_P = (np.einsum("sk,sijk->sij", Zc, P.jacobian(s))
              - Zd @ Pc - (Zd @ Pc.swapaxes(-1, -2)).swapaxes(-1, -2))
    assert np.max(np.abs(got_P - want_P)) < 1e-12


def test_compatibility_and_skew_compositions(canonical, chart4, sample4):
    N = OperatorField(chart4, lambda x: [[x[0], 0, 0, 0], [0, x[1], 0, 0],
                                         [0, 0, x[0], 0], [0, 0, 0, x[1]]])
    assert check_compatibility(N, canonical, sample4).passed
    f = ScalarField(chart4, lambda x: x[0] + x[1])
    sr = check_skew_compositions(N, N, canonical, f, 3, sample4)
    assert sr.passed and sr.points == len(sample4)
    # unpaired diagonal entries: K P is not skew
    M = OperatorField(chart4, lambda x: [[x[i] if i == j else 0.0
                                          for j in range(4)]
                                         for i in range(4)])
    assert not check_skew_compositions(M, M, canonical, f, 1,
                                       sample4).passed


def test_r_tensor_vanishes_for_darboux_pair(canonical, chart4, sample4):
    N = OperatorField(chart4, lambda x: [[x[0], 0, 0, 0], [0, x[1], 0, 0],
                                         [0, 0, x[0], 0], [0, 0, 0, x[1]]])
    a = OneFormField(chart4, lambda x: [x[1], x[2] ** 2, 1.0, x[0]])
    Y = VectorField(chart4, lambda x: [1.0, x[3], x[0] * x[1], x[2]])
    assert np.max(np.abs(r_tensor(canonical, N, a, Y, sample4[:5]))) < 1e-11


def test_r_tensor_matches_derived_field_formula(chart4, sample4):
    """The product-rule kernel against the tensor built from derived fields
    and the public Lie derivatives, on a pair where it does not vanish."""
    P = BivectorField(chart4, lambda x: [[0, x[0], 0, 1],
                                         [-x[0], 0, x[1], 0],
                                         [0, -x[1], 0, x[2] * x[3]],
                                         [-1, 0, -x[2] * x[3], 0]])
    N = OperatorField(chart4, lambda x: [[x[0], 0, 1, 0],
                                         [0, x[1] * x[2], 0, 0],
                                         [0, 1, x[2], 0],
                                         [x[3], 0, 0, x[0] * x[1]]])
    a = OneFormField(chart4, lambda x: [x[1], x[2] ** 2, 1.0, x[0]])
    Y = VectorField(chart4, lambda x: [1.0, x[3], x[0] * x[1], x[2]])
    p = sample4[:5]
    first = np.einsum("sij,sj->si",
                      lie_derivative_operator(apply_operator(P, a), N, p),
                      Y(p))
    inner = (lie_derivative_oneform(Y, apply_transpose(N, a), p)
             - lie_derivative_oneform(apply_operator(N, Y), a, p))
    want = first - np.einsum("sij,sj->si", P(p), inner)
    assert np.all(np.max(np.abs(want), axis=1) > 1e-3)
    assert np.max(np.abs(r_tensor(P, N, a, Y, p) - want)) < 1e-12


def test_chain_builders(canonical, chart4, sample4):
    N = OperatorField(chart4, lambda x: [[x[0], 0, 0, 0], [0, x[1], 0, 0],
                                         [0, 0, x[0], 0], [0, 0, 0, x[1]]])
    H = ScalarField(chart4, lambda x: x[2] ** 2 + x[3] ** 2 + x[0] * x[1])
    ident = identity_operator(chart4)
    assert check_chain_closed([ident], H, sample4).passed  # dH is closed
    # N^T dH = (x0 x1, x0 x1, 2 x0 x2, 2 x1 x3) is not closed, and a chain
    # is judged by its worst element
    assert not check_chain_closed([ident, N], H, sample4).passed
