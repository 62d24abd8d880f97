"""Algebra closure checks, minimal polynomials and ranks."""

import numpy as np
import pytest

from haantjeskit import (Chart, OperatorField, ScalarField, algebra_rank,
                         check_abelian, check_module_condition,
                         check_ring_condition, identity_operator,
                         minimal_polynomial, operator_polynomial)
from haantjeskit.lagrange import TopParams, nijenhuis_operator
from haantjeskit.lagrange.complex_chart import complex_chart
from haantjeskit.sampling import sample_points

from conftest import point


@pytest.fixture(scope="module")
def ncase():
    params = TopParams()
    chart = complex_chart(params)
    return chart, nijenhuis_operator(params)


def test_minimal_polynomial_of_projector():
    chart = Chart("m2", 2)
    L = OperatorField(chart, lambda x: [[1.0, 0.0], [0.0, 0.0]])
    mp = minimal_polynomial(L, point(chart, 0.3, 0.4))
    # projector satisfies L^2 - L = 0: monic coeffs (c0, c1) = (0, -1)
    assert mp.degree.tolist() == [2]
    assert np.max(np.abs(mp.coeffs - np.array([[0.0, -1.0]]))) < 1e-10


def test_minimal_polynomial_of_scalar_operator():
    chart = Chart("m3", 3)
    L = OperatorField(chart, lambda x: [[2.0 if i == j else 0.0
                                         for j in range(3)]
                                        for i in range(3)])
    mp = minimal_polynomial(L, point(chart, 0.0, 0.0, 0.0))
    assert mp.degree.tolist() == [1]
    # coefficients beyond the degree are zero
    assert np.max(np.abs(mp.coeffs - np.array([[-2.0, 0.0, 0.0]]))) < 1e-12


def test_recursion_operator_minimal_polynomial_frozen(ncase):
    chart, N = ncase
    # at x1 = 1, x2 = 2 (any y, F values) the quadratic is
    # t^2 + (x1/x2) t - 1/x2 = t^2 + 0.5 t - 0.5
    p = point(chart, 1.0, 2.0, 0.3, 0.4, 0.5, 1.5)
    mp = minimal_polynomial(N, p)
    assert mp.degree.tolist() == [2]
    assert np.max(np.abs(mp.coeffs[:, :2] - np.array([-0.5, 0.5]))) < 1e-10
    assert np.all(mp.coeffs[:, 2:] == 0.0)


def test_algebra_rank_of_powers(ncase):
    chart, N = ncase
    sample = sample_points(chart, 10, 21)
    gens = [identity_operator(chart), N,
            operator_polynomial(N, [0.0, 0.0, 1.0])]
    assert algebra_rank(gens, sample).tolist() == [2] * len(sample)


def test_algebra_conditions_with_module_coefficients(ncase):
    chart, N = ncase
    sample = sample_points(chart, 15, 23)
    f = ScalarField(chart, lambda x: x[0] + x[1] * x[2])
    g = ScalarField(chart, lambda x: 1.0 + x[3] ** 2)
    pair = [identity_operator(chart), N]
    assert check_module_condition(pair, f, g, sample, tol=1e-9).passed
    assert check_ring_condition(pair, sample, tol=1e-9).passed
    abelian = check_abelian(pair, sample)
    assert abelian.passed
    # the Abelian condition pairs distinct generators only: no self pair
    # (I, I), at scale (1+1)^2, widens its scale past that of (I, N) at the
    # first point, where the residual is 0 at every point
    assert abelian.scale == 2.0 * (1.0 + np.abs(N(sample[:1])).max())


def test_noncommuting_pair_fails_abelian():
    chart = Chart("nc", 2)
    A = OperatorField(chart, lambda x: [[0.0, 1.0], [0.0, 0.0]])
    B = OperatorField(chart, lambda x: [[0.0, 0.0], [1.0, 0.0]])
    sample = sample_points(chart, 5, 1)
    assert not check_abelian([A, B], sample).passed


def test_module_and_ring_conditions_on_diagonal_family():
    chart = Chart("df", 2)
    K1 = identity_operator(chart)
    K2 = OperatorField(chart, lambda x: [[x[0], 0.0], [0.0, x[1]]])
    sample = sample_points(chart, 20, 2)
    f = ScalarField(chart, lambda x: x[0] * x[1])
    g = ScalarField(chart, lambda x: x[0] - x[1])
    assert check_module_condition([K1, K2], f, g, sample).passed
    assert check_ring_condition([K1, K2], sample).passed


def _closure_conditions(chart):
    """The three family checks, each as a function of generators and
    sample."""
    one = ScalarField(chart, lambda x: 1.0)
    return [lambda gens, s: check_module_condition(gens, one, one, s),
            check_ring_condition, check_abelian]


def test_empty_sample_rejected(ncase):
    chart, N = ncase
    for check in _closure_conditions(chart):
        with pytest.raises(ValueError, match="empty sample"):
            check([N, N], [])


def test_single_generator_rejected(ncase):
    chart, N = ncase
    for check in _closure_conditions(chart):
        with pytest.raises(ValueError, match="two generators"):
            check([N], sample_points(chart, 2, 1))
