"""Torsion computations against frozen hand values and the bracket-based
definitional oracle."""

import numpy as np
import pytest

from haantjeskit import (Chart, OperatorField, add_fields, apply_operator,
                         identity_operator, lie_bracket, scale_field,
                         VectorField, haantjes_torsion, is_haantjes,
                         is_nijenhuis, nijenhuis_torsion)
from haantjeskit.sampling import sample_points

from conftest import point


@pytest.fixture(scope="module")
def chart2():
    return Chart("d2", 2)


@pytest.fixture(scope="module")
def swap_op(chart2):
    return OperatorField(chart2, lambda x: [[x[1], 0.0], [0.0, x[0]]])


def test_identity_has_zero_torsions(chart3, sample3):
    I = identity_operator(chart3)
    assert np.max(np.abs(nijenhuis_torsion(I, sample3[:5]))) == 0.0
    assert np.max(np.abs(haantjes_torsion(I, sample3[:5]))) == 0.0


def test_swap_operator_frozen_values(chart2, swap_op):
    # L = diag(x2, x1) at (1, 2):
    # T^1_12 = d_2 L^1_1 * L^2_2 ... worked out by hand from the local
    # formula: T^1_12 = L^1_1 - L^2_2 evaluated through the derivative
    # pattern gives T^1_12 = x2 - x1 ... at (1,2): T^1_12 = 1, T^2_12 = 1
    p = point(chart2, 1.0, 2.0)
    T = nijenhuis_torsion(swap_op, p)[0]
    assert abs(T[0, 0, 1] - 1.0) < 1e-14
    assert abs(T[1, 0, 1] - 1.0) < 1e-14
    assert abs(T[0, 0, 1] + T[0, 1, 0]) < 1e-14
    # Haantjes torsion of any diagonal operator vanishes
    assert np.max(np.abs(haantjes_torsion(swap_op, p))) < 1e-13


def test_diagonal_operators_are_haantjes():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        chart = Chart(f"d{dim}", dim)
        coeffs = rng.uniform(-1, 1, (dim, dim))

        def fn(x, coeffs=coeffs, dim=dim):
            d = [sum(coeffs[i][j] * x[j] for j in range(dim))
                 + x[i] * x[(i + 1) % dim] for i in range(dim)]
            return [[d[i] if i == j else 0.0 for j in range(dim)]
                    for i in range(dim)]

        L = OperatorField(chart, fn)
        sample = sample_points(chart, 30, 5)
        sr = is_haantjes(L, sample, 1e-9)
        assert sr.passed
        assert sr.residual < 1e-10


def test_swap_operator_is_not_nijenhuis_but_is_haantjes(chart2, swap_op):
    sample = sample_points(chart2, 30, 9)
    assert not is_nijenhuis(swap_op, sample, 1e-9).passed
    assert is_haantjes(swap_op, sample, 1e-9).passed


def test_torsion_antisymmetric_in_lower_indices(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0] * x[1], x[2], 1.0],
                                         [0.0, x[1] ** 2, x[0]],
                                         [x[2], 0.0, x[0] + x[1]]])
    def antisymmetry(t):
        return np.max(np.abs(t + t.swapaxes(-1, -2)))

    assert antisymmetry(nijenhuis_torsion(L, sample3[:5])) < 1e-12
    assert antisymmetry(haantjes_torsion(L, sample3[:5])) < 1e-11


def _bracket_torsion(L, X, Y):
    LX, LY = apply_operator(L, X), apply_operator(L, Y)
    t = lie_bracket(LX, LY)
    t = add_fields(t, scale_field(-1.0, apply_operator(L, lie_bracket(LX, Y))))
    t = add_fields(t, scale_field(-1.0, apply_operator(L, lie_bracket(X, LY))))
    return add_fields(t, apply_operator(
        L, apply_operator(L, lie_bracket(X, Y))))


def test_local_formula_matches_bracket_definition(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0] * x[1], x[2], 1.0],
                                         [0.0, x[1] ** 2, x[0]],
                                         [x[2], 0.0, x[0] + x[1]]])
    X = VectorField(chart3, lambda x: [x[1], 1.0, x[0] * x[2]])
    Y = VectorField(chart3, lambda x: [1.0, x[2] ** 2, x[1]])
    T_def = _bracket_torsion(L, X, Y)
    p = sample3[:8]
    got = np.einsum("sijk,sj,sk->si", nijenhuis_torsion(L, p), X(p), Y(p))
    assert np.max(np.abs(got - T_def(p))) < 1e-9


def test_empty_sample_rejected(chart3):
    I = identity_operator(chart3)
    with pytest.raises(ValueError):
        is_nijenhuis(I, [], 1e-9)
    with pytest.raises(ValueError):
        is_haantjes(I, [], 1e-9)


def test_sampled_residual_effective_tolerance():
    from haantjeskit import SampledResidual
    sr = SampledResidual(residual=5e-9, tolerance=1e-9, scale=10.0, points=4)
    assert sr.effective_tolerance == 1e-8
    assert sr.passed
    assert not SampledResidual(5e-8, 1e-9, 10.0, 4).passed
