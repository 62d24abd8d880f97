"""Charts, fields, derived-field algebra and chart maps, cross-checked
against the finite-difference oracle."""

import numpy as np
import pytest

from haantjeskit import (BivectorField, Chart, ChartError, ChartMismatchError,
                         ChartMap, OneFormField, OperatorField, Point,
                         ScalarField, SingularPointError, VectorField,
                         add_fields, apply_operator, apply_transpose,
                         compose_operators, constant_operator, constant_vector,
                         diagonal_operator, differential, exterior_derivative,
                         hamiltonian_field, identity_operator, lie_bracket,
                         operator_polynomial, scale_field, wedge)
from haantjeskit import charts, jets, sampling
from haantjeskit.algebra import algebra_rank, check_ring_condition
from haantjeskit.lagrange import (TopParams, body_chart, body_to_complex,
                                  complex_chart, complex_integrals, integrals,
                                  lagrange_vector_field, leaf_chart,
                                  leaf_map, nijenhuis_operator, p0_complex,
                                  p1_complex, poisson_bivectors,
                                  separation_map, x_fields_complex)
from haantjeskit.poisson import check_compatibility, check_jacobi
from haantjeskit.report import matches, sampled
from haantjeskit.sampling import sample_points
from haantjeskit.suites import LEAF_C1, LEAF_C4
from haantjeskit.torsion import is_haantjes, is_nijenhuis

from conftest import fd_gradient, fd_jacobian, point, points_of


def test_point_validation():
    chart = Chart("c2", 2)
    with pytest.raises(ChartError):
        Point(chart, (1.0,))
    with pytest.raises(ChartError):
        Point(chart, (float("nan"), 0.0))
    # a chart's dimension is a positive integer, refused when it is built
    for dim in (-2, 0, 2.0, 2.5, True, "2", None):
        with pytest.raises(ValueError):
            Chart("x", dim)
    dim = Chart("x", np.int64(3)).dim
    assert type(dim) is int and dim == 3


def test_chart_mismatch_raises():
    f = ScalarField(Chart("a", 2), lambda x: x[0])
    p = point(Chart("b", 2), 1.0, 2.0)
    with pytest.raises(ChartMismatchError):
        f(p)


def test_model_charts_are_named_by_their_parameters():
    """A field of one inertia ratio reads no sample of another, whose
    singular sets differ: the point below is valid at c = 2 and lies on the
    c = 3 set delta = 0.  Equal values name the same chart whatever their
    type."""
    p = point(complex_chart(TopParams(2.0)), 1.0, -3.0, 0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ChartMismatchError):
        nijenhuis_operator(TopParams(3.0))(p)
    same = nijenhuis_operator(TopParams(np.float32(2.0)))
    assert np.all(np.isfinite(same(p)))
    leaf = leaf_chart(TopParams(2.0), LEAF_C1, LEAF_C4)
    assert leaf == leaf_chart(TopParams(np.float64(2.0)),
                              np.float64(LEAF_C1), complex(LEAF_C4))
    F2l = leaf_map(TopParams(2.0), LEAF_C1, LEAF_C4).push(
        complex_integrals(TopParams(2.0))[0])
    for other in (leaf_chart(TopParams(3.0), LEAF_C1, LEAF_C4),
                  leaf_chart(TopParams(2.0), LEAF_C1, 2.0 * LEAF_C4)):
        assert other != leaf
        with pytest.raises(ChartMismatchError):
            F2l(sample_points(other, 3, 0))


def test_singular_point_raises():
    chart = Chart("s", 2, singular=(lambda x: x[0],))
    f = ScalarField(chart, lambda x: x[1] / x[0])
    with pytest.raises(SingularPointError):
        f(point(chart, 0.0, 1.0))
    assert f(point(chart, 2.0, 4.0)) == 2.0


def test_singular_point_cannot_be_built():
    """A sample with one point on a singular set raises when it is built,
    before any field reads it."""
    chart = Chart("s", 2, singular=(lambda x: x[0], lambda x: x[0] - x[1]))
    with pytest.raises(SingularPointError):
        Point(chart, (0.0, 1.0))
    with pytest.raises(SingularPointError):
        Point(chart, (np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.0, 1.0])))
    assert len(Point(chart, (np.array([1.0, 2.0]), 0.5))) == 2


def test_field_reads_evaluate_no_singular_predicate():
    """A built sample is valid, so reading it checks only its chart: a
    counting predicate runs when the sample is built and never on a read."""
    calls = []

    def counted(x):
        calls.append(1)
        return x[0]

    chart = Chart("s", 2, singular=(counted,))
    p = Point(chart, (np.array([1.0, 2.0]), np.array([3.0, 4.0])))
    assert len(calls) == 1
    calls.clear()
    f = ScalarField(chart, lambda x: x[1] / x[0])
    L = OperatorField(chart, lambda x: [[x[0], x[1]], [x[1], 0.0]])
    for _ in range(5):
        f(p)
        L.jet(p)
    assert calls == []


@pytest.mark.parametrize("method", ["apply", "jacobian", "invert"])
def test_chart_map_raises_on_singular_point(method):
    """A point on a singular set of the chart a map reads cannot be built,
    so the map never reads one."""
    sep = separation_map(TopParams(), LEAF_C1, LEAF_C4)
    singular = {
        # discriminant x1^2 + 4 x2 = 0, where the eigenvalues coincide
        "apply": (sep.src, 2.0, -1.0, 0.1, 0.2),
        "jacobian": (sep.src, 2.0, -1.0, 0.1, 0.2),
        "invert": (sep.dst, 0.5, 0.5, 0.1, 0.2),  # l1 = l2
    }
    with pytest.raises(SingularPointError):
        getattr(sep, method)(point(*singular[method]))


def test_chart_map_raises_on_singular_image():
    """A regular point whose image lies on a singular set of the chart it
    maps to raises: body points with ``g3 = i g2`` map to ``x2 = 0``."""
    to_complex = body_to_complex(TopParams())
    q = to_complex.apply(point(body_chart(), 0.3, -0.2, 0.5, 0.1, 0.4, 0.8))
    assert len(q) == 1
    with pytest.raises(SingularPointError):
        to_complex.apply(point(body_chart(), 0.3, -0.2, 0.5, 0.1, 0.4,
                               0.4j))


def test_sampler_respects_margin_and_seed():
    chart = Chart("s", 2, singular=(lambda x: x[0],))
    pts = sample_points(chart, 50, 3)
    assert len(pts) == 50
    assert np.all(np.abs(pts.coords[0]) >= sampling.MARGIN)
    again = sample_points(chart, 50, 3)
    assert np.array_equal(np.array(pts.coords), np.array(again.coords))
    for n_points in (0, 2.5, 3.0, True):
        with pytest.raises(ValueError):
            sample_points(chart, n_points, 3)
    for seed in (1.5, 3.0, True):
        with pytest.raises(ValueError):
            sample_points(chart, 50, seed)


def test_sampler_budget_scales_with_sample_size(monkeypatch):
    """The try budget grows with the request: a sample larger than the
    minimum budget still fills, and an impossible margin raises a chart
    error, not a bare runtime error."""
    chart = Chart("s3", 3, singular=(lambda x: x[0],))
    assert len(sample_points(chart, 100001, 4)) == 100001
    monkeypatch.setattr(sampling, "MARGIN", np.inf)
    with pytest.raises(ChartError, match="singular margins too tight"):
        sample_points(chart, 3, 4)


@pytest.mark.parametrize("n_points", [2 ** 63 - 1, 10 ** 20 - 1])
def test_sampler_maps_a_size_beyond_the_index_range_to_memory_error(
        n_points):
    """A sample whose first block of tries numpy refuses as beyond its
    index range, before allocating anything, raises ``MemoryError``, as one
    that memory cannot hold does."""
    with pytest.raises(MemoryError):
        sample_points(Chart("s", 2), n_points, 0)


def test_scalar_gradient_matches_fd(chart3, sample3):
    f = ScalarField(chart3, lambda x: x[0] * x[1] ** 2 + x[2] / (x[0] + 4.0))
    sample = sample3[:10]
    want = np.array([fd_gradient(f.fn, x) for x in points_of(sample)])
    assert np.max(np.abs(f.gradient(sample) - want)) < 1e-6


def test_vector_jacobian_matches_fd(chart3, sample3):
    X = VectorField(chart3,
                    lambda x: [x[1] * x[2], x[0] ** 2, x[0] + x[1] * x[1]])
    sample = sample3[:10]
    want = np.array([fd_jacobian(X.fn, x) for x in points_of(sample)])
    assert np.max(np.abs(X.jacobian(sample) - want)) < 1e-6


def test_operator_jacobian_matches_fd(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[i] * x[j] for j in range(3)]
                                         for i in range(3)])
    p = sample3[0]
    got = L.jacobian(p)[0]
    for k in range(3):
        def slice_fn(x, k=k):
            return [row[k] for row in L.fn(x)]
        want = fd_jacobian(slice_fn, points_of(p)[0])
        assert np.max(np.abs(got[:, k, :] - want)) < 1e-6


def test_differential_and_exterior_derivative(chart3, sample3):
    f = ScalarField(chart3, lambda x: x[0] ** 3 + x[1] * x[2])
    df = differential(f)
    sample = sample3[:5]
    assert np.max(np.abs(df(sample) - f.gradient(sample))) < 1e-14
    # d(df) = 0
    assert np.max(np.abs(exterior_derivative(df, sample))) < 1e-12


def test_wedge_antisymmetry(chart3, sample3):
    X = VectorField(chart3, lambda x: [x[0], x[1] * x[2], 1.0])
    Z = VectorField(chart3, lambda x: [x[2], 1.0, x[0] * x[0]])
    W = wedge(X, Z)
    sample = sample3[:5]
    m = W(sample)
    assert np.max(np.abs(m + m.swapaxes(-1, -2))) < 1e-14
    n = wedge(Z, X)(sample)
    assert np.max(np.abs(m + n)) < 1e-14


def test_lie_bracket_of_coordinate_fields_vanishes(chart3, sample3):
    e0 = constant_vector(chart3, [1.0, 0.0, 0.0])
    e1 = constant_vector(chart3, [0.0, 1.0, 0.0])
    br = lie_bracket(e0, e1)
    assert np.max(np.abs(br(sample3[:5]))) == 0.0


def test_lie_bracket_antisymmetry(chart3, sample3):
    X = VectorField(chart3, lambda x: [x[1], x[2] ** 2, x[0] * x[1]])
    Y = VectorField(chart3, lambda x: [x[0] * x[2], 1.0, x[1]])
    a = lie_bracket(X, Y)
    b = lie_bracket(Y, X)
    sample = sample3[:5]
    assert np.max(np.abs(a(sample) + b(sample))) < 1e-12


def test_operator_algebra(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0], 1.0, 0.0],
                                         [0.0, x[1], 0.0],
                                         [0.0, 0.0, x[2]]])
    I = identity_operator(chart3)
    p = sample3[0]
    assert np.max(np.abs(compose_operators(L, I)(p) - L(p))) < 1e-14
    sq = operator_polynomial(L, [0.0, 0.0, 1.0])
    assert np.max(np.abs(sq(p) - L(p) @ L(p))) < 1e-13
    assert np.array_equal(operator_polynomial(L, [0.0, 1.0])(p), L(p))
    assert np.array_equal(operator_polynomial(L, [])(p), np.zeros((1, 3, 3)))
    f = ScalarField(chart3, lambda x: 2.0)
    comb = add_fields(scale_field(f, L), scale_field(-2.0, L))
    assert np.max(np.abs(comb(p))) < 1e-14


def test_apply_operator_and_transpose(chart3, sample3):
    L = OperatorField(chart3, lambda x: [[x[0], x[1], 0.0],
                                         [1.0, 0.0, x[2]],
                                         [0.0, 2.0, x[0]]])
    X = VectorField(chart3, lambda x: [1.0, x[0], x[2]])
    a = OneFormField(chart3, lambda x: [x[1], 0.0, 1.0])
    p = sample3[:4]
    assert np.max(np.abs(apply_operator(L, X)(p)
                         - np.einsum("sij,sj->si", L(p), X(p)))) < 1e-14
    assert np.max(np.abs(apply_transpose(L, a)(p)
                         - np.einsum("sji,sj->si", L(p), a(p)))) < 1e-14


# each constructor of the field algebra, with the parts it combines
CONSTRUCTORS = {
    "wedge": (lambda L, X, Y, A, f: wedge(X, Y), "XY"),
    "apply_operator": (lambda L, X, Y, A, f: apply_operator(L, X), "LX"),
    "apply_transpose": (lambda L, X, Y, A, f: apply_transpose(L, A), "LA"),
    "compose_operators": (lambda L, X, Y, A, f: compose_operators(L, L), "L"),
    "add_fields": (lambda L, X, Y, A, f: add_fields(X, Y), "XY"),
    "scale_field": (lambda L, X, Y, A, f: scale_field(f, L), "Lf"),
    "operator_polynomial": (
        lambda L, X, Y, A, f: operator_polynomial(L, [1.0, f]), "Lf"),
    "diagonal_operator": (lambda L, X, Y, A, f: diagonal_operator(X), "X"),
    "differential": (lambda L, X, Y, A, f: differential(f), "f"),
    "lie_bracket": (lambda L, X, Y, A, f: lie_bracket(X, Y), "XY"),
}


def _parts(chart):
    """The parts ``CONSTRUCTORS`` take, on ``chart``."""
    return {"L": OperatorField(chart, lambda x: np.eye(3).tolist()),
            "X": VectorField(chart, lambda x: [x[0], 1.0, x[2]]),
            "Y": VectorField(chart, lambda x: [1.0, x[1], 0.0]),
            "A": OneFormField(chart, lambda x: [x[2], 0.0, 1.0]),
            "f": ScalarField(chart, lambda x: x[0] * x[1])}


def _bivector(x):
    """Components of a bivector, the kind no constructor above takes."""
    return [[0.0, x[0], 0.0], [-x[0], 0.0, 1.0], [0.0, -1.0, 0.0]]


@pytest.mark.parametrize("moved", "LXYAf")
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_field_algebra_refuses_parts_on_other_charts(name, moved, chart3):
    """A constructor whose field parts lie on two charts raises when it is
    built, so no part is read at another chart's coordinates.  Parts on one
    chart give a field on it."""
    other = Chart("elsewhere", 3)
    parts = _parts(chart3)
    parts[moved] = type(parts[moved])(other, parts[moved].fn)
    build, uses = CONSTRUCTORS[name]
    if moved in uses and len(set(uses)) > 1:
        with pytest.raises(ChartMismatchError):
            build(**parts)
    else:
        assert build(**parts).chart == (other if set(uses) == {moved}
                                        else chart3)


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_field_algebra_refuses_a_part_of_another_kind(name, chart3):
    """Each constructor refuses a part of a kind it cannot combine with
    ``TypeError`` when the field is built: here each part it takes in turn,
    replaced by a field of every other kind.  Only a scaled field takes
    every kind, and a differential a vector field as well as a scalar."""
    build, uses = CONSTRUCTORS[name]
    parts = _parts(chart3)
    kinds = {type(q): q.fn for q in parts.values()}
    kinds[BivectorField] = _bivector
    allowed = {("scale_field", "L"): set(kinds),
               ("differential", "f"): {VectorField}}
    for part in set(uses):
        for kind, fn in kinds.items():
            if kind is type(parts[part]):
                continue
            swapped = {**parts, part: kind(chart3, fn)}
            if kind in allowed.get((name, part), ()):
                assert build(**swapped).chart == chart3
            else:
                with pytest.raises(TypeError):
                    build(**swapped)


def test_field_algebra_refuses_a_bad_coefficient_when_built(chart3):
    """A coefficient is a number or a scalar field; anything else, a vector
    field included, raises ``TypeError`` when the field is built, not at
    its first read."""
    L = OperatorField(chart3, lambda x: np.eye(3).tolist())
    X = VectorField(chart3, lambda x: [x[0], 1.0, x[2]])
    for bad in ("2", [1.0, 2.0, 3.0], np.ones(3), None, X):
        with pytest.raises(TypeError):
            scale_field(bad, L)
        with pytest.raises(TypeError):
            operator_polynomial(L, [1.0, bad])
    p = point(chart3, 1.0, 2.0, 3.0)
    for good in (2, 2.5, 1j, np.float32(2.0), np.complex128(1j)):
        assert np.array_equal(scale_field(good, L)(p), good * L(p))


def test_field_algebra_refuses_a_non_field_when_built(chart3):
    """Where a constructor takes a field it takes a field of a kind it can
    combine, and a number only where a coefficient stands: anything else
    raises ``TypeError`` when the field is built, not an ``IndexError``, a
    read of a list as a constant or a field of the wrong shape."""
    L, X, A, f = map(_parts(chart3).get, "LXAf")
    P = BivectorField(chart3, _bivector)
    for build in (lambda: scale_field(2.0, 3.0),
                  lambda: add_fields(1.0, 2.0),
                  lambda: diagonal_operator([1.0, 2.0]),
                  lambda: diagonal_operator(L),
                  lambda: apply_operator(L, [1.0, 2.0, 3.0]),
                  lambda: apply_operator(L, A),
                  lambda: apply_operator(P, X),
                  lambda: apply_transpose(L, X),
                  lambda: wedge(X, [1.0, 2.0, 3.0]),
                  lambda: wedge(X, 2.0),
                  lambda: wedge(X, A),
                  lambda: compose_operators(L, 2.0),
                  lambda: compose_operators(L, X),
                  lambda: compose_operators(L, P),
                  lambda: operator_polynomial(X, [1.0, 2.0]),
                  lambda: lie_bracket(X, f),
                  lambda: lie_bracket(X, A),
                  lambda: differential(2.0)):
        with pytest.raises(TypeError):
            build()
    # the kinds each takes give a field of the kind it makes
    for built, kind in ((apply_operator(L, X), VectorField),
                        (apply_operator(P, A), VectorField),
                        (apply_transpose(L, A), OneFormField),
                        (differential(f), OneFormField),
                        (differential(X), OperatorField),
                        (lie_bracket(X, X), VectorField)):
        assert type(built) is kind


def test_diagonal_operator(chart3, sample3):
    """``V``'s components on the diagonal and zeros elsewhere, with the
    partials of a matrix built by hand from ``V``."""
    V = VectorField(chart3, lambda x: [x[0] * x[1], 2.0, x[2] ** 2])
    D = diagonal_operator(V)
    assert isinstance(D, OperatorField) and D.chart == chart3
    v, dv = V.jet(sample3)
    d, dd = D.jet(sample3)
    want = np.zeros_like(dd)
    for i in range(3):
        want[:, i, i] = dv[:, i]
    assert np.array_equal(d, np.stack([np.diag(row) for row in v]))
    assert np.array_equal(dd, want)


def _shear(chart3):
    """Cubic-shear change of coordinates with exact inverse."""
    return ChartMap(
        chart3, Chart("shifted", 3),
        lambda x: [x[0], x[1] + x[0] ** 2, x[2] + x[0] * x[1]],
        lambda y: [y[0], y[1] - y[0] ** 2,
                   y[2] - y[0] * (y[1] - y[0] ** 2)])


def test_chart_map_pushes_a_scalar_and_roundtrip(chart3, sample3):
    cmap = _shear(chart3)
    f = ScalarField(chart3, lambda x: x[0] * x[2] + x[1] ** 2)
    pushed = cmap.push(f)
    p = sample3[:8]
    q = cmap.apply(p)
    assert np.max(np.abs(pushed(q) - f(p))) < 1e-12
    back = cmap.invert(q)
    assert np.max(np.abs(np.array(back.coords)
                         - np.array(p.coords))) < 1e-12


def test_chart_map_refuses_to_push_a_non_field():
    """A function or a number is no field: push raises ``TypeError``, as
    the field algebra does, not ``AttributeError``."""
    cmap = body_to_complex(TopParams())
    for thing in (lambda x: x, 3.0):
        with pytest.raises(TypeError):
            cmap.push(thing)


def test_bivector_and_operator_transport_consistency(chart3, sample3):
    cmap = _shear(chart3)
    P = BivectorField(chart3, lambda x: [[0.0, x[0], -1.0],
                                         [-x[0], 0.0, x[1]],
                                         [1.0, -x[1], 0.0]])
    L = OperatorField(chart3, lambda x: [[x[0], 0.0, 1.0],
                                         [0.0, x[1], 0.0],
                                         [0.0, 1.0, x[2]]])
    p = sample3[:5]
    q = cmap.apply(p)
    J = cmap.jacobian(p)
    assert np.max(np.abs(cmap.push(P)(q)
                         - J @ P(p) @ J.swapaxes(-1, -2))) < 1e-10
    got = cmap.push(L)(q)
    want = J @ L(p) @ np.linalg.inv(J)
    assert np.max(np.abs(got - want)) < 1e-9


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _naturality_cases(chart3, sample3):
    """Each chart map with a scalar, an operator, a vector and a bivector
    on its source chart and a sample of its target chart."""
    L = OperatorField(chart3, lambda x: [[x[0], x[1] * x[2], 1.0],
                                         [2.0, x[0] * x[0], x[2]],
                                         [x[1], 0.0, x[0] + x[2]]])
    X = VectorField(chart3, lambda x: [x[1] * x[2], x[0] ** 2, 1.0])
    P = BivectorField(chart3, lambda x: [[0.0, x[0], -1.0],
                                         [-x[0], 0.0, x[1] * x[2]],
                                         [1.0, -x[1] * x[2], 0.0]])
    f = ScalarField(chart3, lambda x: x[0] * x[2] + x[1] ** 2)
    shear = _shear(chart3)
    params = TopParams(2.0)
    F = integrals(params)
    body_op = OperatorField(
        body_chart(),
        lambda x: [[x[i] * x[j] + (1.0 if i == j else 0.0) for j in range(6)]
                   for i in range(6)])
    return {
        "shear": (shear, f, L, X, P, shear.apply(sample3)),
        "body_to_complex": (body_to_complex(params), F["F3"], body_op,
                            lagrange_vector_field(params),
                            poisson_bivectors(params)[1],
                            sample_points(complex_chart(params), 20, 43)),
    }


@pytest.mark.parametrize("name", ["shear", "body_to_complex"])
def test_push_is_natural(name, chart3, sample3):
    """``push`` commutes with the field algebra: the differential of a
    scalar (a one-form), an operator applied to a vector (a vector) and a
    Hamiltonian field (a bivector applied to a one-form) give the same
    field whether built before or after the move."""
    cmap, f, L, X, P, q = _naturality_cases(chart3, sample3)[name]
    pairs = [
        (cmap.push(differential(f)), differential(cmap.push(f))),
        (cmap.push(apply_operator(L, X)),
         apply_operator(cmap.push(L), cmap.push(X))),
        (cmap.push(hamiltonian_field(P, f)),
         hamiltonian_field(cmap.push(P), cmap.push(f))),
    ]
    for moved, built in pairs:
        assert _relative(moved(q), built(q)) < 1e-13
    for got, want in zip(pairs[0][0].jet(q), pairs[0][1].jet(q)):
        assert _relative(got, want) < 1e-13


def _separated(l1, l2, m1, m2, coupling=0.0):
    return [[l1, 0.0, 0.0, 0.0], [coupling * m1, l2, 0.0, 0.0],
            [0.0, 0.0, l1, 0.0], [0.0, 0.0, 0.0, l2]]


def test_pushed_separated_operator_keeps_its_algebra():
    """A known answer: ``L = diag(l1, l2, l1, l2)`` with the canonical
    bivector on a separated chart is a Nijenhuis operator compatible with
    a Poisson bivector, and ``{I, L}`` is a Haantjes algebra of rank 2.
    Moved by a polynomial map with an exact inverse, the pair keeps all of
    it, and moving back recovers ``L``.  An off-diagonal entry coupled to
    ``m1`` breaks the Haantjes property, so the judges can fail."""
    src = Chart("separated", 4, singular=(lambda x: x[0] - x[1],))
    # l1 - l2 at the preimage
    dst = Chart("separated image", 4,
                singular=(lambda y: y[0] - y[1] + y[0] ** 2,))

    def inverse(y):
        b = y[1] - y[0] ** 2
        c = y[2] - y[0] * b
        return [y[0], b, c, y[3] - c ** 2]

    phi = ChartMap(src, dst,
                   lambda x: [x[0], x[1] + x[0] ** 2, x[2] + x[0] * x[1],
                              x[3] + x[2] ** 2],
                   inverse)
    back = ChartMap(dst, src, phi.inverse, phi.forward)
    L = OperatorField(src, lambda x: _separated(*x))
    P = BivectorField(src, lambda x: [[0.0, 0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0, 1.0],
                                      [-1.0, 0.0, 0.0, 0.0],
                                      [0.0, -1.0, 0.0, 0.0]])
    sample = sample_points(src, 100, 13)
    q = phi.apply(sample)
    Lq, Pq = phi.push(L), phi.push(P)
    for judged in (is_nijenhuis(Lq, q), is_haantjes(Lq, q),
                   check_ring_condition([identity_operator(dst), Lq], q),
                   check_compatibility(Lq, Pq, q), check_jacobi(Pq, q)):
        assert judged.passed, judged
    assert np.all(algebra_rank([identity_operator(dst), Lq], q) == 2)
    assert _relative(back.push(Lq)(sample), L(sample)) < 1e-12
    coupled = OperatorField(src, lambda x: _separated(*x, coupling=0.5))
    assert not is_haantjes(phi.push(coupled), q).passed


def test_field_algebra_matches_index_loops(chart3, sample3):
    """Each numpy expression of the field algebra gives, value and
    Jacobian, exactly what the index loops it replaced give: the same
    products, summed in the same order."""
    n = 3
    L = OperatorField(chart3, lambda x: [[x[0], x[1] * x[2], 1.0],
                                         [2.0, x[0] * x[0], x[2]],
                                         [x[1], 0.0, x[0] + x[2]]])
    M = OperatorField(chart3, lambda x: [[x[i] * x[j] + i for j in range(n)]
                                         for i in range(n)])
    X = VectorField(chart3, lambda x: [x[1] * x[2], x[0] ** 2, 1.0])
    Z = VectorField(chart3, lambda x: [x[2], x[0] * x[1], x[0] + x[1]])
    a = OneFormField(chart3, lambda x: [x[1], x[0] * x[2], 2.0])
    s = ScalarField(chart3, lambda x: x[0] * x[1] - x[2])
    cmap = _shear(chart3)

    def dot(u, v):
        return sum(p * q for p, q in zip(u, v))

    def matmul(A, B):
        return [[dot(A[i], [B[k][j] for k in range(len(B))])
                 for j in range(len(B[0]))] for i in range(len(A))]

    def partials(fn, x):
        return [jets.gradient(v, len(x)) for v in fn(jets.seed(x))]

    def bracket(x):
        xv, yv = X.fn(x), Z.fn(x)
        xg, yg = partials(X.fn, x), partials(Z.fn, x)
        return [sum(xv[j] * yg[i][j] - yv[j] * xg[i][j] for j in range(n))
                for i in range(n)]

    def polynomial(x):
        m, c = L.fn(x), s.fn(x)
        sq = matmul(m, m)
        return [[0.0 + c * (1.0 if i == j else 0.0) + 0.5 * m[i][j]
                 + c * sq[i][j] for j in range(n)] for i in range(n)]

    def pushed_bivector(xi):
        x = cmap.inverse(xi)
        J = partials(cmap.forward, x)
        return matmul(matmul(J, M.fn(x)), [list(r) for r in zip(*J)])

    def pushed_operator(xi):
        x = [jets.value(v) for v in cmap.inverse(jets.seed(xi))]
        Jinv = partials(cmap.inverse, xi)
        return matmul(matmul(partials(cmap.forward, x), L.fn(x)), Jinv)

    pairs = [
        (apply_operator(L, X), lambda x: [dot(r, X.fn(x)) for r in L.fn(x)]),
        (apply_transpose(L, a),
         lambda x: [dot([r[j] for r in L.fn(x)], a.fn(x))
                    for j in range(n)]),
        (compose_operators(L, M), lambda x: matmul(L.fn(x), M.fn(x))),
        (wedge(X, Z), lambda x: [[X.fn(x)[i] * Z.fn(x)[j]
                                  - X.fn(x)[j] * Z.fn(x)[i]
                                  for j in range(n)] for i in range(n)]),
        (lie_bracket(X, Z), bracket),
        (operator_polynomial(L, [s, 0.5, s]), polynomial),
    ]
    for F, loops in pairs:
        ref = type(F)(F.chart, loops)
        p = sample3[:3]
        assert all(map(np.array_equal, F.jet(p), ref.jet(p))), loops
    for F, loops in [(cmap.push(BivectorField(chart3, M.fn)),
                      pushed_bivector),
                     (cmap.push(L), pushed_operator)]:
        ref = type(F)(F.chart, loops)
        q = cmap.apply(sample3[:3])
        assert all(map(np.array_equal, F.jet(q), ref.jet(q))), loops


def test_constant_operator(chart3):
    p = point(chart3, 1.0, 2.0, 3.0)
    M = constant_operator(chart3, np.eye(3) * 2.0)
    assert np.max(np.abs(M(p) - 2.0 * np.eye(3))) == 0.0


def _jet_cases(c):
    """Fields of the top at inertia ratio ``c``, each with a sample of its
    chart: the complex chart, the symplectic leaf and the separation
    chart."""
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
        "pushed": body_to_complex(params).push(body_op),
        "scaled_operator": scale_field(coeff, N),
        "scaled_vector": scale_field(coeff, X1),
        "bracket": lie_bracket(X1, X2),
        "wedge": wedge(X1, X2),
        "transpose": apply_transpose(N, differential(F3)),
        "composed": compose_operators(N, scale_field(coeff, N)),
        "polynomial": operator_polynomial(N, [coeff, 0.5, coeff]),
    }
    sample = sample_points(chart, 3, 5)
    cases = {name: (F, sample) for name, F in fields.items()}

    leaf = leaf_map(params, LEAF_C1, LEAF_C4).push
    leaf_sample = sample_points(leaf_chart(params, LEAF_C1, LEAF_C4), 3, 5)
    cases["leaf_operator"] = (leaf(N), leaf_sample)
    cases["leaf_vector"] = (leaf(X2), leaf_sample)
    sep = separation_map(params, LEAF_C1, LEAF_C4)
    sep_sample = sep.apply(leaf_sample)
    cases["separation_bivector"] = (sep.push(leaf(P1)), sep_sample)
    cases["separation_operator"] = (sep.push(leaf(N)), sep_sample)
    return cases


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_jet_equals_value_and_jacobian(c):
    """``jet`` gives bit for bit what the plain pass and ``jacobian`` give,
    so switching a check to it cannot change a reported residual; a scalar
    field's ``gradient`` is the same call.  The sample axis comes first."""
    for name, (F, sample) in _jet_cases(c).items():
        val, jac = F.jet(sample)
        assert np.array_equal(val, F(sample)), name
        assert np.array_equal(jac, F.jacobian(sample)), name
        assert val.shape[0] == len(sample), name
        assert jac.shape == val.shape + (F.chart.dim,), name
        if isinstance(F, ScalarField):
            assert val.shape == (len(sample),), name
            assert np.array_equal(jac, F.gradient(sample)), name


def test_seeded_keeps_a_partial_of_one_point_that_is_not_exactly_0_or_1():
    """On a one-point sample every partial is a ``(1,)`` array.  Only an
    exact 0 or 1 among them becomes that number, for the jets'
    exact-constant rules; the partial 2.0 stays a jet over its array."""
    x = jets.lift(point(Chart("t2", 2), 0.3 + 0.1j, -0.5).coords)
    _, grads = charts._seeded(lambda x: [2.0 * x[0] + x[1], x[1]], x)
    two = grads[0, 0]
    assert isinstance(two, jets.Jet) and two.val.shape == (1,)
    assert two.val[0] == 2.0
    for g, exact in ((grads[0, 1], 1.0), (grads[1, 0], 0.0),
                     (grads[1, 1], 1.0)):
        assert type(g) is float and g == exact


def _stacked(read, sample):
    """One read per point of ``sample``, stacked along the sample axis."""
    return np.concatenate([read(sample[i]) for i in range(len(sample))])


def _same_to_rounding(a, b):
    return (a.shape == b.shape
            and np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b))))


def test_sample_read_equals_stacked_point_reads():
    """Reading an N-point sample gives, to rounding, the N one-point reads
    stacked: every field kind, chart-map transport and a nested Lie
    bracket, so nothing leaks along the sample axis."""
    params = TopParams(c=2.0)
    X1, X2 = x_fields_complex(params)
    cases = _jet_cases(2.0)
    chart = complex_chart(params)
    cases["nested_bracket"] = (lie_bracket(lie_bracket(X1, X2), X1),
                               sample_points(chart, 3, 7))
    kinds = set()
    for name, (F, sample) in cases.items():
        kinds.add(type(F))
        assert _same_to_rounding(F(sample), _stacked(F, sample)), name
        points = [F.jet(sample[i]) for i in range(len(sample))]
        for got, want in zip(F.jet(sample), zip(*points)):
            assert _same_to_rounding(got, np.concatenate(want)), name
    assert kinds == {ScalarField, VectorField, OneFormField, OperatorField,
                     BivectorField}

    sep = separation_map(params, LEAF_C1, LEAF_C4)
    sample = sample_points(sep.src, 4, 9)
    coords = lambda p: np.array(p.coords).T
    assert _same_to_rounding(sep.jacobian(sample),
                             _stacked(sep.jacobian, sample))
    images = sep.apply(sample)
    assert _same_to_rounding(coords(images),
                             _stacked(lambda p: coords(sep.apply(p)), sample))
    assert _same_to_rounding(coords(sep.invert(images)),
                             _stacked(lambda q: coords(sep.invert(q)), images))
    pushed = sep.push(ScalarField(sep.src, lambda x: x[0] * x[3]))
    assert _same_to_rounding(pushed(images), _stacked(pushed, images))


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


def test_shared_coefficient_is_read_once_per_pass(chart3, sample3):
    """A scalar-field coefficient is read through the pass, so one that
    scales several parts of one field runs once per read of the field."""
    calls = []

    def coeff(x):
        calls.append(1)
        return x[0] * x[1] + 2.0

    s = ScalarField(chart3, coeff)
    A = VectorField(chart3, lambda x: [x[0], x[1] * x[2], 1.0])
    B = VectorField(chart3, lambda x: [x[2], 1.0, x[0] * x[0]])
    L = OperatorField(chart3, lambda x: [[x[i] * x[j] for j in range(3)]
                                         for i in range(3)])
    for g in (add_fields(scale_field(s, A), scale_field(s, B)),
              operator_polynomial(L, [s, s, s])):
        for read in (g, g.jet):
            calls.clear()
            read(sample3)
            assert len(calls) == 1, (type(g).__name__, read)


def test_reads_in_one_pass_share_their_work(chart3, sample3):
    """Within one pass a field is read once per sample and mode, whichever
    reader asks: a second plain read returns the first one's array, and the
    jet of ``f`` and its differential share one seeded evaluation of
    ``f``."""
    calls = []

    def fn(x):
        calls.append(1)
        return x[0] * x[1] + x[2]

    f = ScalarField(chart3, fn)

    def at(p):
        return f(p), f(p), f.jet(p), differential(f)(p)

    first, again, (vals, grads), df = charts._once(at, sample3)
    assert again is first and len(calls) == 2
    assert np.array_equal(df, grads) and np.array_equal(vals, first)


def test_read_results_are_read_only(chart3, sample3):
    """Readers in one pass share their results, so the components and
    partials a read returns cannot be written."""
    X = VectorField(chart3, lambda x: [x[0], x[1] * x[2], 1.0])
    for out in (X(sample3), *X.jet(sample3)):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.0


def test_a_read_outside_sampled_is_its_own_pass(chart3, sample3):
    """A read that no pass encloses opens one and closes it, as a call of
    a sample function does, so nothing either evaluated outlives it and
    the next read evaluates again."""
    calls = []
    X = VectorField(chart3, lambda x: calls.append(1) or [x[0], x[1], 1.0])
    for read in (X, X.jet, X, X.jet):
        read(sample3)
        assert charts._memo is None
    assert len(calls) == 4
    sampled(sample3, lambda p: (0.0 * X(p)[:, 0].real, 1.0), 1e-12)
    assert charts._memo is None and len(calls) == 5


def test_identity_operator_builds_no_jet(chart3, sample3, monkeypatch):
    """The zero entries of the identity multiply to the number 0, and its
    ones return the component itself, so reading ``I X`` builds exactly the
    jets that reading ``X`` builds."""
    X = VectorField(chart3, lambda x: [x[0] * x[1], x[2], x[0] + 1.0])
    IX = apply_operator(identity_operator(chart3), X)
    built = []
    init = jets.Jet.__init__

    def counting(self, val, grad):
        built.append(1)
        init(self, val, grad)

    monkeypatch.setattr(jets.Jet, "__init__", counting)
    counts = []
    for f in (X, IX):
        built.clear()
        vals, grads = f.jet(sample3)
        counts.append(len(built))
        assert np.array_equal(vals, X(sample3))
        assert np.array_equal(grads, X.jacobian(sample3))
    assert counts[0] == counts[1]


def test_nan_is_not_absorbed_by_exact_constants(chart3, sample3):
    """A zero entry drops the NaN of its factor, but the other entries
    still carry it, so a check on the field does not pass."""
    w = np.ones(len(sample3))
    w[4] = np.nan
    X = VectorField(chart3, lambda x: [x[0] * w, x[1], x[2]])
    L = OperatorField(chart3, lambda x: [[c * e for e in (1.0, 0.0, 0.0)]
                                         for c in X.fn(x)])
    IX = apply_operator(identity_operator(chart3), X)
    assert not is_nijenhuis(L, sample3).passed
    assert not sampled(sample3, matches(X, IX), 1e-12).passed
