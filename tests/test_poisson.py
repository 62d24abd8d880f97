"""Poisson verification, brackets, Lie derivatives and chain builders."""

import numpy as np
import pytest

from haantjeskit import (BivectorField, Chart, OneFormField, OperatorField,
                         ScalarField, VectorField, apply_operator,
                         apply_transpose, build_chain_oneforms,
                         check_compatibility, check_skew_compositions,
                         hamiltonian_field, identity_operator,
                         jacobi_residual, lie_derivative_bivector,
                         lie_derivative_oneform, lie_derivative_operator,
                         poisson_bracket, r_tensor, verify_poisson)
from haantjeskit.sampling import sample_points

from conftest import fd_jacobian, point


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
    ps = verify_poisson(canonical, sample4)
    assert ps.skew.passed and ps.jacobi.passed
    assert ps.skew.residual == 0.0
    assert ps.jacobi.residual == 0.0


def test_lie_algebra_type_bivector_verifies():
    # so(3)-type linear bivector on a 3-dim chart
    chart = Chart("so3", 3)
    P = BivectorField(chart, lambda x: [[0.0, x[2], -x[1]],
                                        [-x[2], 0.0, x[0]],
                                        [x[1], -x[0], 0.0]])
    sample = sample_points(chart, 15, 32)
    ps = verify_poisson(P, sample)
    assert ps.skew.passed and ps.jacobi.passed


def test_non_jacobi_bivector_fails():
    chart = Chart("nj", 3)
    P = BivectorField(chart, lambda x: [[0.0, x[0] * x[1], 0.0],
                                        [-x[0] * x[1], 0.0, x[0]],
                                        [0.0, -x[0], 0.0]])
    sample = sample_points(chart, 15, 33)
    ps = verify_poisson(P, sample)
    assert ps.skew.passed
    assert not ps.jacobi.passed
    assert max(jacobi_residual(P, p) for p in sample) > 1e-3


def test_poisson_bracket_canonical(canonical, chart4, sample4):
    q0 = ScalarField(chart4, lambda x: x[0])
    p0 = ScalarField(chart4, lambda x: x[2])
    p1 = ScalarField(chart4, lambda x: x[3])
    for p in sample4[:5]:
        assert abs(poisson_bracket(canonical, q0, p0, p) - 1.0) < 1e-14
        assert abs(poisson_bracket(canonical, q0, p1, p)) < 1e-14
        assert abs(poisson_bracket(canonical, q0, q0, p)) < 1e-14


def test_bracket_antisymmetry_and_leibniz(canonical, chart4, sample4):
    f = ScalarField(chart4, lambda x: x[0] * x[3] + x[1] ** 2)
    g = ScalarField(chart4, lambda x: x[2] * x[1])
    h = ScalarField(chart4, lambda x: x[0] + x[2] ** 2)
    gh = ScalarField(chart4, lambda x: g.fn(x) * h.fn(x))
    for p in sample4[:5]:
        assert abs(poisson_bracket(canonical, f, g, p)
                   + poisson_bracket(canonical, g, f, p)) < 1e-13
        lhs = poisson_bracket(canonical, f, gh, p)
        rhs = (poisson_bracket(canonical, f, g, p) * h(p)
               + g(p) * poisson_bracket(canonical, f, h, p))
        assert abs(lhs - rhs) < 1e-12


def test_hamiltonian_field_is_differentiable(canonical, chart4, sample4):
    H = ScalarField(chart4, lambda x: 0.5 * (x[2] ** 2 + x[3] ** 2)
                    + x[0] ** 2 * x[1])
    X = hamiltonian_field(canonical, H)
    p = sample4[0]
    got = X.jacobian(p)
    want = fd_jacobian(lambda x: [complex(v) for v in
                                  np.asarray(canonical(point(chart4, *x)))
                                  @ H.gradient(point(chart4, *x))],
                       p.coords)
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
        x = flowed(p.coords, t)
        q = point(chart4, *x)
        J = np.eye(4, dtype=complex) + t * Z.jacobian(p)
        return np.linalg.solve(J, N(q) @ J)

    fd = (pullback_N(h) - pullback_N(-h)) / (2.0 * h)
    got = lie_derivative_operator(Z, N, p)
    assert np.max(np.abs(got - fd)) < 1e-4

    # one-form and bivector versions through their component formulas
    got_a = lie_derivative_oneform(Z, a, p)
    want_a = (Z(p) @ a.jacobian(p).T + a(p) @ Z.jacobian(p))
    assert np.max(np.abs(got_a - want_a)) < 1e-12
    got_P = lie_derivative_bivector(Z, P, p)
    want_P = (np.einsum("k,ijk->ij", Z(p), P.jacobian(p))
              - Z.jacobian(p) @ P(p) - (Z.jacobian(p) @ P(p).T).T)
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
    for p in sample4[:5]:
        assert np.max(np.abs(r_tensor(canonical, N, a, Y, p))) < 1e-11


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
    for p in sample4[:5]:
        first = lie_derivative_operator(apply_operator(P, a), N, p) @ Y(p)
        inner = (lie_derivative_oneform(Y, apply_transpose(N, a), p)
                 - lie_derivative_oneform(apply_operator(N, Y), a, p))
        want = first - P(p) @ inner
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(r_tensor(P, N, a, Y, p) - want)) < 1e-12


def test_chain_builders(canonical, chart4, sample4):
    N = OperatorField(chart4, lambda x: [[x[0], 0, 0, 0], [0, x[1], 0, 0],
                                         [0, 0, x[0], 0], [0, 0, 0, x[1]]])
    H = ScalarField(chart4, lambda x: x[2] ** 2 + x[3] ** 2 + x[0] * x[1])
    chain = build_chain_oneforms([identity_operator(chart4), N], H, sample4)
    assert len(chain.elements) == 2
    assert chain.residuals[0].passed  # dH is closed
