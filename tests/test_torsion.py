"""Torsion computations against frozen hand values and the bracket-based
definitional oracle."""

import numpy as np
import pytest

from haantjeskit import (Chart, ChartMap, OperatorField, ScalarField,
                         add_fields, identity_operator, scale_field,
                         VectorField, haantjes_torsion, is_haantjes,
                         is_nijenhuis, nijenhuis_torsion)
from haantjeskit.report import _max_abs
from haantjeskit.sampling import sample_points
from haantjeskit.suites import _bracket_torsions, _random_field
from haantjeskit.torsion import _haantjes_components, _nijenhuis_components

from conftest import kernel_error, point, random_complex


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


def test_local_formula_matches_bracket_definition(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0] * x[1], x[2], 1.0],
                                         [0.0, x[1] ** 2, x[0]],
                                         [x[2], 0.0, x[0] + x[1]]])
    X = VectorField(chart3, lambda x: [x[1], 1.0, x[0] * x[2]])
    Y = VectorField(chart3, lambda x: [1.0, x[2] ** 2, x[1]])
    T_def = _bracket_torsions(L, X, Y)[0]
    p = sample3[:8]
    got = np.einsum("sijk,sj,sk->si", nijenhuis_torsion(L, p), X(p), Y(p))
    assert np.max(np.abs(got - T_def(p))) < 1e-9


# The kernels as one einsum per term of the local formulas, kept as the
# references of the batched `@` kernels.

def _nijenhuis_reference(Lc, Ld):
    T = np.einsum("sika,saj->sijk", Ld, Lc)
    T -= np.einsum("sija,sak->sijk", Ld, Lc)
    T += np.einsum("sia,sajk->sijk", Lc, Ld - Ld.transpose(0, 1, 3, 2))
    return T


def _haantjes_reference(Lc, Ld):
    T = _nijenhuis_reference(Lc, Ld)
    LT = np.einsum("sia,sajk->sijk", Lc, T)
    TL = np.einsum("siab,saj->sijb", T, Lc)
    H = np.einsum("sia,sajk->sijk", Lc, LT)
    H += np.einsum("sijb,sbk->sijk", TL, Lc)
    H -= np.einsum("sibk,sbj->sijk", LT, Lc)
    H -= np.einsum("sijb,sbk->sijk", LT, Lc)
    return H


@pytest.mark.parametrize("points", [1, 33])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_kernels_match_einsum_references(n, points):
    # against a scale, not relatively: the Haantjes torsion vanishes
    # identically at n = 2
    rng = np.random.default_rng(100 * n + points)
    for _ in range(5):
        Lc = random_complex(rng, points, n, n)
        Ld = random_complex(rng, points, n, n, n)
        assert np.all(kernel_error(_nijenhuis_components, _nijenhuis_reference,
                                   1, Lc, Ld) <= 1)
        assert np.all(kernel_error(_haantjes_components, _haantjes_reference,
                                   3, Lc, Ld) <= 1)


def test_haantjes_of_fI_plus_gL_is_g4_times_haantjes_of_L():
    # H_{fI+gL} = g^4 H_L for any operator L and scalar fields f, g: a
    # check on Haantjes torsions that do not vanish.  With g^3 in place of
    # g^4 the identity fails by about its own size.
    rng = np.random.default_rng(5)
    chart = Chart("aux3", 3)
    sample = sample_points(chart, 100, 42)
    L = _random_field(rng, OperatorField, chart)
    f = _random_field(rng, ScalarField, chart)
    g = _random_field(rng, ScalarField, chart)
    M = add_fields(scale_field(f, identity_operator(chart)),
                   scale_field(g, L))
    H_L, H_M, gv = (haantjes_torsion(L, sample), haantjes_torsion(M, sample),
                    g(sample)[:, None, None, None])

    def relative(power):
        want = gv ** power * H_L
        return _max_abs(H_M - want) / _max_abs(want)

    assert np.median(_max_abs(H_L)) > 1.0
    assert relative(4).max() < 1e-12
    assert np.median(relative(3)) > 0.5


def test_torsions_are_tensors_under_a_chart_change():
    # T(phi_* L) = J T(L) J^-1 J^-1 at phi(p), and the same for H, with J
    # the Jacobian of phi at p: a check on nonvanishing torsions of a
    # transported operator.  Dropping one J^-1 breaks it by about its own
    # size.
    rng = np.random.default_rng(5)
    chart = Chart("aux3", 3)
    phi = ChartMap(chart, Chart("aux3 image", 3),
                   lambda x: [x[0], x[1] + x[0] * x[0], x[2] + x[0] * x[1]],
                   lambda u: [u[0], u[1] - u[0] * u[0],
                              u[2] - u[0] * (u[1] - u[0] * u[0])])
    sample = sample_points(chart, 100, 42)
    L = _random_field(rng, OperatorField, chart)
    J = phi.jacobian(sample)
    Jinv = np.linalg.inv(J)
    for torsion in (nijenhuis_torsion, haantjes_torsion):
        T = torsion(L, sample)
        pushed = torsion(phi.push(L), phi.apply(sample))
        want = np.einsum("sia,sabc,sbj,sck->sijk", J, T, Jinv, Jinv)
        dropped = np.einsum("sia,sajc,sck->sijk", J, T, Jinv)
        assert np.median(_max_abs(T)) > 1.0
        assert (_max_abs(pushed - want) / _max_abs(want)).max() < 1e-11
        assert np.median(_max_abs(pushed - dropped) / _max_abs(want)) > 0.5


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
