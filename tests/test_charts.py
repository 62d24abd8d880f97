"""Charts, fields, derived-field algebra and chart maps, cross-checked
against the finite-difference oracle."""

import numpy as np
import pytest

from haantjeskit import (BivectorField, Chart, ChartError,
                         ChartMismatchError, ChartMap, OneFormField,
                         OperatorField, Point, ScalarField,
                         SingularPointError, VectorField, add_fields,
                         apply_operator, apply_transpose, compose_operators,
                         constant_operator, constant_vector, differential,
                         exterior_derivative, hamiltonian_field,
                         identity_operator, lie_bracket, operator_polynomial,
                         scale_field, wedge)
from haantjeskit import jets
from haantjeskit.lagrange import (TopParams, body_chart, body_to_complex,
                                  complex_chart, complex_integrals,
                                  nijenhuis_operator, p0_complex, p1_complex,
                                  x_fields_complex)
from haantjeskit.sampling import sample_points

from conftest import fd_gradient, fd_jacobian, point


def test_point_validation():
    chart = Chart("c2", 2)
    with pytest.raises(ChartError):
        Point(chart, (1.0,))
    with pytest.raises(ChartError):
        Point(chart, (float("nan"), 0.0))


def test_chart_mismatch_raises():
    f = ScalarField(Chart("a", 2), lambda x: x[0])
    p = point(Chart("b", 2), 1.0, 2.0)
    with pytest.raises(ChartMismatchError):
        f(p)


def test_singular_point_raises():
    chart = Chart("s", 2, singular=(lambda x: x[0],))
    f = ScalarField(chart, lambda x: x[1] / x[0])
    with pytest.raises(SingularPointError):
        f(point(chart, 0.0, 1.0))
    assert f(point(chart, 2.0, 4.0)) == 2.0


def test_sampler_respects_margin_and_seed():
    chart = Chart("s", 2, singular=(lambda x: x[0],))
    pts = sample_points(chart, 50, 3, margin=0.25)
    assert all(abs(p.coords[0]) >= 0.25 for p in pts)
    again = sample_points(chart, 50, 3, margin=0.25)
    assert [p.coords for p in pts] == [q.coords for q in again]
    with pytest.raises(ValueError):
        sample_points(chart, 0, 3)


def test_scalar_gradient_matches_fd(chart3, sample3):
    f = ScalarField(chart3, lambda x: x[0] * x[1] ** 2 + x[2] / (x[0] + 4.0))
    for p in sample3[:10]:
        got = f.gradient(p)
        want = fd_gradient(f.fn, p.coords)
        assert np.max(np.abs(got - want)) < 1e-6


def test_vector_jacobian_matches_fd(chart3, sample3):
    X = VectorField(chart3,
                    lambda x: [x[1] * x[2], x[0] ** 2, x[0] + x[1] * x[1]])
    for p in sample3[:10]:
        got = X.jacobian(p)
        want = fd_jacobian(X.fn, p.coords)
        assert np.max(np.abs(got - want)) < 1e-6


def test_operator_jacobian_matches_fd(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[i] * x[j] for j in range(3)]
                                         for i in range(3)])
    p = sample3[0]
    got = L.jacobian(p)
    for k in range(3):
        def slice_fn(x, k=k):
            return [row[k] for row in L.fn(x)]
        want = fd_jacobian(slice_fn, p.coords)
        assert np.max(np.abs(got[:, k, :] - want)) < 1e-6


def test_differential_and_exterior_derivative(chart3, sample3):
    f = ScalarField(chart3, lambda x: x[0] ** 3 + x[1] * x[2])
    df = differential(f)
    for p in sample3[:5]:
        assert np.max(np.abs(df(p) - f.gradient(p))) < 1e-14
        # d(df) = 0
        assert np.max(np.abs(exterior_derivative(df, p))) < 1e-12


def test_wedge_antisymmetry(chart3, sample3):
    X = VectorField(chart3, lambda x: [x[0], x[1] * x[2], 1.0])
    Z = VectorField(chart3, lambda x: [x[2], 1.0, x[0] * x[0]])
    W = wedge(X, Z)
    for p in sample3[:5]:
        m = W(p)
        assert np.max(np.abs(m + m.T)) < 1e-14
        n = wedge(Z, X)(p)
        assert np.max(np.abs(m + n)) < 1e-14


def test_lie_bracket_of_coordinate_fields_vanishes(chart3, sample3):
    e0 = constant_vector(chart3, [1.0, 0.0, 0.0])
    e1 = constant_vector(chart3, [0.0, 1.0, 0.0])
    br = lie_bracket(e0, e1)
    for p in sample3[:5]:
        assert np.max(np.abs(br(p))) == 0.0


def test_lie_bracket_antisymmetry(chart3, sample3):
    X = VectorField(chart3, lambda x: [x[1], x[2] ** 2, x[0] * x[1]])
    Y = VectorField(chart3, lambda x: [x[0] * x[2], 1.0, x[1]])
    a = lie_bracket(X, Y)
    b = lie_bracket(Y, X)
    for p in sample3[:5]:
        assert np.max(np.abs(a(p) + b(p))) < 1e-12


def test_operator_algebra(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0], 1.0, 0.0],
                                         [0.0, x[1], 0.0],
                                         [0.0, 0.0, x[2]]])
    I = identity_operator(chart3)
    p = sample3[0]
    assert np.max(np.abs(compose_operators(L, I)(p) - L(p))) < 1e-14
    sq = operator_polynomial(L, [0.0, 0.0, 1.0])
    assert np.max(np.abs(sq(p) - L(p) @ L(p))) < 1e-13
    f = ScalarField(chart3, lambda x: 2.0)
    comb = add_fields(scale_field(f, L), scale_field(-2.0, L))
    assert np.max(np.abs(comb(p))) < 1e-14


def test_apply_operator_and_transpose(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0], x[1], 0.0],
                                         [1.0, 0.0, x[2]],
                                         [0.0, 2.0, x[0]]])
    X = VectorField(chart3, lambda x: [1.0, x[0], x[2]])
    a = OneFormField(chart3, lambda x: [x[1], 0.0, 1.0])
    p = sample3[0]
    assert np.max(np.abs(apply_operator(L, X)(p) - L(p) @ X(p))) < 1e-14
    assert np.max(np.abs(apply_transpose(L, a)(p) - L(p).T @ a(p))) < 1e-14


def test_chart_map_push_scalar_and_roundtrip(chart3, sample3):
    # cubic-shear change of coordinates with exact inverse
    dst = Chart("shifted", 3)
    cmap = ChartMap(
        chart3, dst,
        lambda x: [x[0], x[1] + x[0] ** 2, x[2] + x[0] * x[1]],
        lambda y: [y[0], y[1] - y[0] ** 2,
                   y[2] - y[0] * (y[1] - y[0] ** 2)])
    f = ScalarField(chart3, lambda x: x[0] * x[2] + x[1] ** 2)
    pushed = cmap.push_scalar(f)
    for p in sample3[:8]:
        q = cmap.apply(p)
        assert abs(pushed(q) - f(p)) < 1e-12
        back = cmap.invert(q)
        assert np.max(np.abs(np.array(back.coords)
                             - np.array(p.coords))) < 1e-12


def test_bivector_and_operator_transport_consistency(chart3, sample3):
    dst = Chart("shifted", 3)
    cmap = ChartMap(
        chart3, dst,
        lambda x: [x[0], x[1] + x[0] ** 2, x[2] + x[0] * x[1]],
        lambda y: [y[0], y[1] - y[0] ** 2,
                   y[2] - y[0] * (y[1] - y[0] ** 2)])
    P = BivectorField(chart3, lambda x: [[0.0, x[0], -1.0],
                                         [-x[0], 0.0, x[1]],
                                         [1.0, -x[1], 0.0]])
    L = OperatorField(chart3, lambda x: [[x[0], 0.0, 1.0],
                                         [0.0, x[1], 0.0],
                                         [0.0, 1.0, x[2]]])
    for p in sample3[:5]:
        q = cmap.apply(p)
        J = cmap.jacobian(p)
        assert np.max(np.abs(cmap.push_bivector(P)(q)
                             - J @ P(p) @ J.T)) < 1e-10
        got = cmap.push_operator(L)(q)
        want = J @ L(p) @ np.linalg.inv(J)
        assert np.max(np.abs(got - want)) < 1e-9


def test_constant_operator(chart3):
    p = point(chart3, 1.0, 2.0, 3.0)
    M = constant_operator(chart3, np.eye(3) * 2.0)
    assert np.max(np.abs(M(p) - 2.0 * np.eye(3))) == 0.0


def _jet_cases(c):
    """Fields of the top's complex chart at inertia ratio ``c``, with a
    sample of that chart."""
    params = TopParams(c=c)
    chart = complex_chart(params)
    X1, X2 = x_fields_complex(params)
    body_op = OperatorField(
        body_chart(),
        lambda x: [[x[i] * x[j] + (1.0 if i == j else 0.0) for j in range(6)]
                   for i in range(6)])
    coeff = ScalarField(chart, lambda x: x[0] * x[1] - 0.5 * x[4] + 2.0)
    N = nijenhuis_operator(params)
    F2, F3 = complex_integrals(params)
    P1, P0 = p1_complex(params), p0_complex(params)
    fields = {
        "F2": F2,
        "dF3": differential(F3),
        "hamiltonian": hamiltonian_field(P1, F2),
        "bivector_sum": add_fields(P1, P0),
        "N": N,
        "P1": P1,
        "P0": P0,
        "X1": X1,
        "X2": X2,
        "pushed": body_to_complex(params).push_operator(body_op),
        "scaled_operator": scale_field(coeff, N),
        "scaled_vector": scale_field(coeff, X1),
        "bracket": lie_bracket(X1, X2),
    }
    return fields, sample_points(chart, 3, 5)


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_jet_equals_value_and_jacobian(c):
    """``jet`` gives bit for bit what the plain pass and ``jacobian`` give,
    so switching a check to it cannot change a reported residual; a scalar
    field's ``gradient`` is the same call."""
    fields, sample = _jet_cases(c)
    for name, F in fields.items():
        for p in sample:
            val, jac = F.jet(p)
            assert np.array_equal(val, F(p)), name
            assert np.array_equal(jac, F.jacobian(p)), name
            assert jac.shape == np.shape(val) + (6,), name
            if isinstance(F, ScalarField):
                assert type(val) is complex, name
                assert np.array_equal(jac, F.gradient(p)), name


def test_scale_field_reads_coefficient_once_per_evaluation(chart3, sample3):
    calls = []

    def coeff(x):
        calls.append(1)
        return x[0] * x[1] + 2.0

    s = ScalarField(chart3, coeff)
    X = VectorField(chart3, lambda x: [x[0], x[1] * x[2], 1.0])
    L = OperatorField(chart3, lambda x: [[x[i] * x[j] for j in range(3)]
                                         for i in range(3)])
    p = sample3[0]
    for f in (X, L):
        g = scale_field(s, f)
        # plain inputs, seeded jets, and jets whose values are jets
        for evaluate in (g, g.jacobian, g.jet,
                         lambda q: g.fn(jets.seed(jets.seed(list(q.coords))))):
            calls.clear()
            evaluate(p)
            assert len(calls) == 1, (type(f).__name__, evaluate)
