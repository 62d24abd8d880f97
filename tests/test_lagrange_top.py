"""The heavy-top case study against frozen hand-computed values."""

import importlib

import numpy as np
import pytest

from haantjeskit import charts
from haantjeskit import (Chart, ChartMap, ChartMismatchError, OperatorField,
                         Point, ScalarField, SingularPointError,
                         apply_operator, apply_transpose, differential,
                         hamiltonian_field, identity_operator, is_haantjes,
                         is_nijenhuis, lie_bracket, operator_polynomial,
                         scale_field)
from haantjeskit.algebra import (algebra_rank, check_abelian,
                                 check_module_condition, check_ring_condition)
from haantjeskit.lagrange import (TopParams, benenti_operators,
                                  bihamiltonian_fields, body_chart,
                                  body_to_complex, complex_chart,
                                  complex_integrals, deformation,
                                  euler_chain_operators, euler_chart,
                                  euler_hamiltonian, hamiltonians, integrals,
                                  leaf_chart, lagrange_vector_field,
                                  leaf_map, leaf_structures,
                                  nijenhuis_operator, p0_complex, p1_complex,
                                  poisson_bivectors, separation_fields,
                                  separation_map, x_fields_complex)
from haantjeskit.poisson import check_compatibility
from haantjeskit.sampling import sample_points
from haantjeskit.suites import (LEAF_C1, LEAF_C4, SuiteConfig, _random_field,
                                run_suite)

from haantjeskit.lagrange.complex_chart import _discriminant, _p0_terms

from conftest import cauchy_jacobian, disk_clear, point

# the memoized constructors: equal parameters give the same objects
CONSTRUCTORS = (integrals, complex_integrals, p1_complex, x_fields_complex,
                _p0_terms, nijenhuis_operator)


@pytest.fixture(scope="module")
def tp():
    return TopParams()


@pytest.fixture(scope="module")
def bsample():
    return sample_points(body_chart(), 20, 41)


@pytest.fixture(scope="module")
def csample(tp):
    return sample_points(complex_chart(tp), 20, 42)


def test_params_validation():
    for c in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            TopParams(c=c)
    # a bool or a value that is not a real number is refused by type
    for c in (True, "3", 2.0 + 0j):
        with pytest.raises(ValueError, match="real number"):
            TopParams(c=c)
    sp = pytest.importorskip("sympy")
    with pytest.raises(ValueError, match="real number"):
        TopParams(c=sp.Symbol("c", real=True))


def test_params_store_a_real_c_as_a_python_float():
    c = TopParams(np.float32(2.0)).c
    assert type(c) is float and c == 2.0


def test_euler_hamiltonian_frozen(tp):
    # theta = pi/3, p_phi = 1, everything else zero:
    # H = (1/sin^2)/2 + cos = (4/3)/2 + 1/2 = 7/6
    p = point(euler_chart(), 0.0, np.pi / 3, 0.0, 1.0, 0.0, 0.0)
    assert abs(euler_hamiltonian(tp)(p) - 7.0 / 6.0) < 1e-14


def test_euler_chain_operator_identity(tp):
    H = euler_hamiltonian(tp)
    k1, k2, k3 = euler_chain_operators(tp)
    dH = differential(H)
    p = point(euler_chart(), 0.2, 1.1, -0.4, 0.8, 0.3, 0.5)
    v2 = apply_transpose(k2, dH)(p)[0]
    assert np.max(np.abs(v2 - np.array([0, 0, 0, 1, 0, 0]))) < 1e-12
    v3 = apply_transpose(k3, dH)(p)[0]
    # the third image is not d p_psi: it lives on the theta block
    assert abs(v3[5]) < 1e-12
    assert abs(v3[1]) > 1e-3 or abs(v3[4]) > 1e-3


def test_body_integrals_frozen(tp):
    p = point(body_chart(), 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    F = integrals(tp)
    assert abs(F["F1"](p) - 1.0) < 1e-14
    assert abs(F["F2"](p) - 0.5) < 1e-14   # (0 + 1 + 2)/2 - 1
    assert abs(F["F3"](p) - 2.0) < 1e-14   # 0 + 0 + 2*1*1
    assert abs(F["F4"](p) - 2.0) < 1e-14
    h0, h1, h2 = hamiltonians(tp)
    assert abs(h0(p) - 3.0) < 1e-14        # 1 + 1*2
    assert abs(h1(p) + 2.5) < 1e-14        # -2 - 0.5
    assert abs(h2(p) - 0.5) < 1e-14


def test_integrals_conserved_along_flow(tp, bsample):
    XL = lagrange_vector_field(tp)
    F = integrals(tp)
    p = bsample[:8]
    v = XL(p)
    for f in F.values():
        assert np.max(np.abs(np.einsum("si,si->s", f.gradient(p), v))) < 1e-12


def test_tri_hamiltonian_formulation(tp, bsample):
    P0, P1, P2 = poisson_bivectors(tp)
    h0, h1, h2 = hamiltonians(tp)
    XL = lagrange_vector_field(tp)
    p = bsample[:8]
    for P, h in ((P0, h0), (P1, h1), (P2, h2)):
        assert np.max(np.abs(hamiltonian_field(P, h)(p) - XL(p))) < 1e-11


def test_gz_chain_closes():
    # the suite samples the body chart as the bsample fixture does
    report = run_suite("euler-poisson", SuiteConfig(seed=41, points=20))
    gz = {c.id: c for c in report.checks if c.id.startswith("gz_")}
    assert set(gz) == {"gz_" + name for name in (
        "P1_dF1_zero", "P0_dF1_zero", "P1_dF4half_zero",
        "P0_dF4half_is_P1_dmF3", "P0_dmF3_is_P1_dF2", "P0_dF2_zero",
        "XL_ladder_decomposition")}
    for check in gz.values():
        assert check.status == "pass", check.id


def test_ladder_fields_frozen(tp):
    X1, X2 = bihamiltonian_fields(tp)
    p = point(body_chart(), 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    # X1 = (-g2, g1, 0, c w3 g2 - w2 g3, -c w3 g1 + w1 g3, w2 g1 - w1 g2)
    assert np.max(np.abs(X1(p) - np.array([0, 1, 0, -1, -2, 1]))) < 1e-14
    assert np.max(np.abs(X2(p) - np.array([1, 0, 0, 0, -1, 0]))) < 1e-14


def test_body_to_complex_frozen(tp):
    cmap = body_to_complex(tp)
    p = point(body_chart(), 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    q = cmap.apply(p)
    want = np.array([-2.0 + 1.0j, 1.0, 0.0, -1.0, 1.0, 2.0])
    assert np.max(np.abs(np.array(q.coords)[:, 0] - want)) < 1e-14
    back = cmap.invert(q)
    assert np.max(np.abs(np.array(back.coords) - np.array(p.coords))) < 1e-13


def test_complex_integrals_agree_with_transport(tp, bsample):
    cmap = body_to_complex(tp)
    F = integrals(tp)
    F2c, F3c = complex_integrals(tp)
    p = bsample[:8]
    q = cmap.apply(p)
    assert np.max(np.abs(F2c(q) - F["F2"](p))) < 1e-12
    assert np.max(np.abs(F3c(q) - F["F3"](p))) < 1e-12


def test_recursion_operator_frozen(tp):
    N = nijenhuis_operator(tp)
    p = point(complex_chart(tp), 1.0, 1.0, 0.2, 0.3, 1.0, 1.5)
    m = N(p)[0]
    # leaf block: two copies of [[0, 1], [1, -1]] at x1 = x2 = 1
    blk = np.array([[0.0, 1.0], [1.0, -1.0]])
    assert np.max(np.abs(m[0:2, 0:2] - blk)) < 1e-14
    assert np.max(np.abs(m[2:4, 2:4] - blk)) < 1e-14
    # transversal block at x1 = x2 = F1 = 1, c = 2 (delta = 3)
    assert abs(m[4, 4] - 2.0 / 3.0) < 1e-14
    assert abs(m[4, 5] - 1.0 / 12.0) < 1e-14
    assert abs(m[5, 4] + 4.0 / 3.0) < 1e-14
    assert abs(m[5, 5] + 5.0 / 3.0) < 1e-14


def test_recursion_operator_factors_deformed_bivector(tp, csample):
    N = nijenhuis_operator(tp)
    P1 = p1_complex(tp)
    _, _, Q = deformation(tp)
    p = csample[:8]
    assert np.max(np.abs(N(p) @ P1(p) - Q(p))) < 1e-11


def test_recursion_operator_is_nijenhuis(tp, csample):
    assert is_haantjes(nijenhuis_operator(tp), csample, 1e-9).passed


def test_benenti_family(tp, csample):
    N = nijenhuis_operator(tp)
    K1, K2, K3 = benenti_operators(tp, N)
    p = csample[:8]
    x1, x2 = p.coords[0], p.coords[1]
    assert np.max(np.abs(K1(p) - np.eye(6))) < 1e-14
    assert np.max(np.abs(K2(p) - ((x1 / x2)[:, None, None] * np.eye(6)
                                  + N(p)))) < 1e-13
    assert np.max(np.abs(K3(p))) < 1e-11


def test_deformed_bivector_structure(tp, csample):
    Z1, Z2, Q = deformation(tp)
    p = csample[:8]
    m = Q(p)
    assert np.max(np.abs(m[:, 4:, :])) < 1e-12
    assert np.max(np.abs(m[:, :, 4:])) < 1e-12
    assert np.max(np.abs(Z1(p) - np.array([0, 0, 0, 0, 1, 0]))) == 0.0
    assert np.max(np.abs(Z2(p) - np.array([0, 0, 0, 0, 0, 2]))) == 0.0


def _embedded_leaf_sample(tp, seed, points=5):
    """A leaf sample and the same points in the complex chart."""
    sample = sample_points(leaf_chart(tp, 0.4, 1.3), points, seed)
    return sample, leaf_map(tp, 0.4, 1.3).invert(sample)


def test_deformed_bivector_reads_its_transversal_term_once(
        tp, csample, monkeypatch):
    """``Q = P0 - X1 ^ Z2`` subtracts the term object that ``P0`` adds to
    its leaf block, and the memoized constructors hand every caller the
    same ``P1`` and ``X1 = P1 d(-F3)``, so one pass reading ``P1``, ``X1``,
    ``P0`` and ``Q`` runs the first bivector's block once per mode."""
    module = importlib.import_module("haantjeskit.lagrange.complex_chart")
    block, calls = module._p1_block, []

    def counting(x):
        calls.append(1)
        return block(x)

    monkeypatch.setattr(module, "_p1_block", counting)
    fields = [p1_complex(tp), x_fields_complex(tp)[0], p0_complex(tp),
              deformation(tp)[2]]
    for seeded in (False, True):
        calls.clear()
        charts._once(lambda: [f.jet(csample) if seeded else f(csample)
                              for f in fields])
        assert len(calls) == 1, seeded


@pytest.mark.parametrize("make", CONSTRUCTORS, ids=lambda f: f.__name__)
def test_constructors_return_one_object_per_parameter_set(make):
    """Equal parameters, an int, a float or a positive symbol ``c``, give
    the same object; other parameters give another."""
    sp = pytest.importorskip("sympy")
    for c in (3, 0.7, sp.Symbol("c", positive=True)):
        assert make(TopParams(c)) is make(TopParams(c)), c
    assert make(TopParams(3)) is make(TopParams(3.0))
    assert make(TopParams(3)) is not make(TopParams(0.7))


def test_integrals_are_a_read_only_mapping():
    """``integrals`` hands every caller one mapping, so none may change
    it."""
    F = integrals(TopParams(2))
    assert F is integrals(TopParams(2.0))
    with pytest.raises(TypeError):
        F["F1"] = F["F2"]
    assert list(F) == ["F1", "F2", "F3", "F4"]


def test_reports_do_not_depend_on_memoized_terms():
    """A report built on terms that earlier reports built equals one built
    on fresh terms, bit for bit."""
    cfg = SuiteConfig(points=20)
    run_suite("euler-poisson", cfg)
    warm = run_suite("euler-poisson", cfg).to_json()
    for make in CONSTRUCTORS:
        make.cache_clear()
    assert run_suite("euler-poisson", cfg).to_json() == warm


def _cauchy_cases(tp):
    """``(field values, field partials, sample, zeros, cuts)`` for model
    fields at first order: a body integral, polynomial; the recursion
    operator, rational, with poles on the complex chart's singular sets;
    and the separation map, through the square root of the discriminant.
    At second order, partials of fields whose plain read already takes
    partials, so their jets are nested: the Hessian of the integral, as
    the jet of its differential; the leaf's ``K2`` pushed to the
    separation chart, read at the preimage through the map's jacobians;
    and the Lie bracket of the first ladder field's image under ``N`` and
    the second ladder field, which do not commute."""
    F3 = integrals(tp)["F3"]
    N = nijenhuis_operator(tp)
    sep = separation_map(tp, LEAF_C1, LEAF_C4)
    leaf = sample_points(sep.src, 20, 43)
    dF3 = differential(F3)
    K2 = sep.push(leaf_structures(tp, LEAF_C1, LEAF_C4)["K2"])
    X1, X2 = x_fields_complex(tp)
    bracket = lie_bracket(apply_operator(N, X1), X2)

    def at_preimage(s):
        return lambda q: s(sep.inverse(q))

    return {
        "F3": (F3, lambda p: F3.jet(p)[1],
               sample_points(body_chart(), 20, 41), (), ()),
        "N": (N, lambda p: N.jet(p)[1], sample_points(N.chart, 20, 42),
              N.chart.singular, ()),
        "separation": (lambda q: np.array(sep.apply(q).coords).T,
                       sep.jacobian, leaf, sep.src.singular,
                       (_discriminant,)),
        "dF3": (dF3, lambda p: dF3.jet(p)[1],
                sample_points(body_chart(), 20, 41), (), ()),
        # K2 is read at the preimage, through the jacobians, whose square
        # root is that of the discriminant there
        "pushed K2": (K2, lambda p: K2.jet(p)[1], sep.apply(leaf),
                      sep.dst.singular + tuple(
                          map(at_preimage, sep.src.singular)),
                      (at_preimage(_discriminant),)),
        "bracket": (bracket, lambda p: bracket.jet(p)[1],
                    sample_points(N.chart, 20, 42), N.chart.singular, ()),
    }


# affine in each coordinate, so two nodes are already exact
_AFFINE = ("F3", "dF3", "pushed K2")


@pytest.mark.parametrize("name", ["F3", "N", "separation", "dF3",
                                  "pushed K2", "bracket"])
def test_jets_match_cauchys_integral(tp, name):
    """Partials from the jets, first and nested, equal those of Cauchy's
    integral, an oracle that shares no code with them, to 1e-12 of the
    largest partial, on the points whose disks of radius 0.02 along every
    coordinate keep off the singular sets and the square root's cut.  The
    pushed ``K2`` is affine, so there the oracle's own rounding of the
    values, which the map's jacobians reach through cancelling terms,
    divided by the radius, sets the error: 2.0e-12 measured, judged at
    1e-11.  The oracle's own control: too few nodes, or a radius that
    reaches a singularity, moves it by more than 1e-6."""
    values, partials, p, zeros, cuts = _cauchy_cases(tp)[name]
    r = 0.02
    clear = np.flatnonzero(disk_clear(p, r, zeros, cuts))
    assert len(clear) >= 15, len(clear)
    q = Point(p.chart, tuple(c[clear] for c in p.coords))
    exact = partials(q)
    scale = np.abs(exact).max()

    def error(p, r, nodes):
        return np.abs(cauchy_jacobian(values, p, r, nodes)
                      - partials(p)).max() / scale

    assert error(q, r, 32) <= (1e-11 if name == "pushed K2" else 1e-12)
    assert error(q, r, 1 if name in _AFFINE else 2) > 1e-6
    if zeros:
        assert not disk_clear(p, 1.0, zeros, cuts).all()
        assert error(p, 1.0, 32) > 1e-6


def test_raw_second_bivector_does_not_restrict(tp):
    # its transversal column carries twice the first ladder field, which is
    # nonzero at every leaf point
    _, embedded = _embedded_leaf_sample(tp, 43)
    column = np.abs(p0_complex(tp)(embedded)[:, :4, 5])
    assert np.all(column.max(axis=1) > 1e-3)


def test_ladder_fields_restrict(tp):
    """The ladder fields do not couple the leaf to the transversal
    directions, and pushing a field of every kind along the leaf map gives,
    bit for bit, its leaf slots on the embedded sample, in a plain and in a
    seeded read, whose partials are those along the first four
    coordinates.  On one point every partial is a ``(1,)`` array, a value
    of that point, not a constant."""
    _, embedded = _embedded_leaf_sample(tp, 44)
    for X in x_fields_complex(tp):
        v = X(embedded)
        coupling = np.abs(v[:, 4:]).max(axis=1)
        assert np.all(coupling <= 1e-12 * (1.0 + np.abs(v).max(axis=1)))
    N = nijenhuis_operator(tp)
    _, K2, _ = benenti_operators(tp, N)
    F2, F3 = complex_integrals(tp)
    fields = [F2, *x_fields_complex(tp),
              apply_transpose(K2, differential(scale_field(-1.0, F3))),
              N, K2, p1_complex(tp), deformation(tp)[2]]
    restrict = leaf_map(tp, 0.4, 1.3).push
    for points in (1, 5):
        sample, embedded = _embedded_leaf_sample(tp, 44, points)
        for F in fields:
            leaf = (slice(None),) + (slice(4),) * len(F.slots)
            restricted = restrict(F)
            assert restricted.chart == leaf_chart(tp, 0.4, 1.3)
            assert np.array_equal(restricted(sample), F(embedded)[leaf])
            (v, d), (fv, fd) = restricted.jet(sample), F.jet(embedded)
            assert np.array_equal(v, fv[leaf]), (points, F)
            assert np.array_equal(d, fd[leaf + (slice(4),)]), (points, F)


def test_restriction_refuses_a_field_off_the_complex_chart(tp):
    """Only a field on ``complex_chart(params)`` restricts: a body-chart
    field would be read at ``(x1, x2, y1, y2, C1, C4)``, and a complex-chart
    field of another ``c`` is singular on other sets."""
    restrict = leaf_map(tp, 0.4, 1.3).push
    for field in (integrals(tp)["F2"],
                  complex_integrals(TopParams(3.0))[0]):
        with pytest.raises(ChartMismatchError):
            restrict(field)
    with pytest.raises(TypeError):
        restrict(lambda x: x[0])


def test_leaf_recursion_frozen(tp):
    data = leaf_structures(tp, 0.4, 1.3)
    p = point(data["chart"], 0.0, 1.0, 0.3, 0.7)
    m = data["N"](p)[0]
    want = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.max(np.abs(m - want)) < 1e-14


def test_separation_coordinates_frozen(tp):
    chart = leaf_chart(tp, 0.4, 1.3)
    p = point(chart, 0.0, 1.0, 0.3, 0.7)
    l1, l2, m1, m2 = (v[0] for v in
                      separation_map(tp, 0.4, 1.3).apply(p).coords)
    assert abs(l1 + 1.0) < 1e-14
    assert abs(l2 - 1.0) < 1e-14
    assert abs(m1 + 1.0) < 1e-14          # -(0.3 + 0.7)
    assert abs(m2 - 0.4) < 1e-14          # -(0.3 - 0.7)


def test_separation_map_roundtrip(tp):
    sep = separation_map(tp, 0.4, 1.3)
    sample = sample_points(sep.src, 15, 45)
    back = sep.invert(sep.apply(sample))
    assert np.max(np.abs(np.array(back.coords)
                         - np.array(sample.coords))) < 1e-10


def test_separation_darboux_form(tp):
    sep = separation_map(tp, 0.4, 1.3)
    data = leaf_structures(tp, 0.4, 1.3)
    pushed = sep.push(data["P1"])
    target = np.zeros((4, 4), dtype=complex)
    target[0, 2] = target[1, 3] = 1.0j
    target[2, 0] = target[3, 1] = -1.0j
    q = sep.apply(sample_points(sep.src, 8, 46))
    assert np.max(np.abs(pushed(q) - target)) < 1e-9


def _levi_civita(H, p):
    """Levi-Civita's separability residual of ``H`` over the sample ``p``,
    the coordinates ordered ``(q1, q2, p1, p2)``, relative to
    ``(1 + |dH|)^2 (1 + |d2H|)`` at each point.  ``H`` separates in these
    coordinates exactly when the residual vanishes."""
    dH, d2H = differential(H).jet(p)
    qi, qj, pi, pj = dH.T
    r = (qi * qj * d2H[:, 2, 3] + pi * pj * d2H[:, 0, 1]
         - qi * pj * d2H[:, 2, 1] - pi * qj * d2H[:, 0, 3])
    return np.abs(r) / ((1.0 + np.abs(dH).max(axis=1)) ** 2
                        * (1.0 + np.abs(d2H).max(axis=(1, 2))))


def _runs_in_one_pass(monkeypatch, fields, p):
    """The component functions that one pass reading ``fields`` at ``p``,
    plain and seeded, evaluates, one entry per run."""
    runs, evaluate = [], charts._evaluate

    def counting_evaluate(fn, x):
        runs.append(fn)
        return evaluate(fn, x)

    monkeypatch.setattr(charts, "_evaluate", counting_evaluate)
    charts._once(lambda: [(f(p), f.jet(p)) for f in fields])
    return runs


@pytest.mark.parametrize("printed", [False, True])
def test_separation_variables_are_one_evaluation(tp, monkeypatch, printed):
    """The four separation variables are components of one evaluation per
    pass: a pass that reads all four runs their component function once
    per mode, with the corrected and with the circulated momenta."""
    leaf = importlib.import_module("haantjeskit.lagrange.leaf")
    fields = separation_fields(tp, 0.4, 1.3, printed=printed)
    sample = sample_points(fields[0].chart, 5, 48)
    runs = _runs_in_one_pass(monkeypatch, fields, sample)
    fn = leaf._printed if printed else leaf._separation
    assert runs.count(fn) == 2


def test_separation_coordinates_pass_levi_civita(tp):
    """A function of the two leaf integrals separates in the
    Darboux-Haantjes coordinates ``(l1, l2, m1, m2)``, the paper's claim
    (b); in the leaf coordinates ``(x1, x2, y1, y2)`` F3 does not, so the
    test can fail."""
    data = leaf_structures(tp, 0.4, 1.3)
    F2, F3 = data["F2"], data["F3"]
    sep = separation_map(tp, 0.4, 1.3)
    sample = sample_points(sep.src, 100, 42)
    H = sep.push(ScalarField(sep.src,
                                    lambda x: F2.fn(x) / F3.fn(x)))
    assert _levi_civita(H, sep.apply(sample)).max() <= 1e-12
    assert _levi_civita(F3, sample).max() > 0.1


def _separated_relations(F2, F3, p):
    """Residual and scale of the separated relations over the sample ``p``,
    the coordinates ordered ``(l1, l2, m1, m2)``: on a common level set of
    ``F2`` and ``F3``, ``M = -(dF/dm)^{-1} dF/dl`` holds the partials
    ``dm_i/dl_j``; the residual is ``max(|M_12|, |M_21|)`` at each point,
    and the scale ``1 + |M|``, so a near-singular ``dF/dm`` gives a large
    scale, and an exactly singular one raises ``LinAlgError``."""
    g = np.stack([F2.gradient(p), F3.gradient(p)], axis=1)
    M = -np.linalg.solve(g[:, :, 2:], g[:, :, :2])
    return (np.maximum(np.abs(M[:, 0, 1]), np.abs(M[:, 1, 0])),
            1.0 + np.abs(M).max(axis=(1, 2)))


def _mixed(chart, eps):
    """The map of ``chart`` that mixes its first two coordinates by
    ``eps``, ``l1 + eps l2`` and ``l2 + eps l1``, with its inverse."""
    def mix(x, e):
        return [x[0] + e * x[1], x[1] + e * x[0], x[2], x[3]]

    return ChartMap(chart, Chart("mixed", 4), lambda x: mix(x, eps),
                    lambda y: [v / (1.0 - eps * eps) if k < 2 else v
                               for k, v in enumerate(mix(y, -eps))])


@pytest.mark.parametrize("c", [0.5, 2.0, 1e3])
def test_separated_relations(c):
    """The paper's claim (b) at first order: in the separation coordinates
    each ``m_i`` depends on ``l_i`` alone on the common level sets of the
    leaf integrals, so ``M`` is diagonal.  Read from the jets of the
    pushed ``F2`` and ``F3`` on 100 leaf points, its off-diagonal entries
    are at most 1e-13 of ``1 + |M|`` (3.3e-14 measured at c = 1e3, at most
    1.3e-15 below), and the scale stays below 1e6 (3.3e4 at c = 1e3), so
    no point passes on a near-singular ``dF/dm``: where ``m1 = 1e-9`` every
    point's scale exceeds it, and where ``dF/dm`` is exactly singular the
    residual raises.  Controls: in the leaf coordinates, ``(x1, x2)``
    against ``(y1, y2)``, the median relative residual is above 0.1
    (0.37 to 0.67 measured), and with ``l1`` and ``l2`` mixed by 1e-6 it is
    above 1e-7 (9.3e-7 to 1.0e-6)."""
    data = leaf_structures(TopParams(c), LEAF_C1, LEAF_C4)
    sep = separation_map(TopParams(c), LEAF_C1, LEAF_C4)
    sample = sample_points(sep.src, 100, 42)
    q = sep.apply(sample)
    F2, F3 = sep.push(data["F2"]), sep.push(data["F3"])
    r, s = _separated_relations(F2, F3, q)
    assert (r / s).max() <= 1e-13
    assert s.max() < 1e6
    near = Point(q.chart, (*q.coords[:2], np.full(len(q), 1e-9),
                           q.coords[3]))
    assert _separated_relations(F2, F3, near)[1].min() > 1e6
    with pytest.raises(np.linalg.LinAlgError):
        _separated_relations(F2, F2, q)
    r, s = _separated_relations(data["F2"], data["F3"], sample)
    assert np.median(r / s) > 0.1
    mix = _mixed(sep.dst, 1e-6)
    r, s = _separated_relations(mix.push(F2), mix.push(F3), mix.apply(q))
    assert np.median(r / s) > 1e-7


def _leaf_sample(c):
    data = leaf_structures(TopParams(c=c), LEAF_C1, LEAF_C4)
    return data, sample_points(data["chart"], 100, 7)


def _squares(K):
    """``I``, ``K`` and ``K^2``, whose span has the dimension of the
    algebra ``K`` generates."""
    return [identity_operator(K.chart), K, operator_polynomial(K, [0, 0, 1])]


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_leaf_is_symplectic_haantjes(c):
    """The paper's claim (a) on the symplectic leaf: ``N`` is Nijenhuis,
    ``K2`` is Haantjes and compatible with ``P1``, and ``{I, K2}`` is a
    Haantjes algebra (module, ring and Abelian conditions) of rank two;
    each residual is judged at 1e-12 of its scale."""
    data, sample = _leaf_sample(c)
    K2 = data["K2"]
    pair = [identity_operator(K2.chart), K2]
    rng = np.random.default_rng(7)
    f, g = (_random_field(rng, ScalarField, K2.chart) for _ in range(2))
    results = {
        "nijenhuis N": is_nijenhuis(data["N"], sample, 1e-12),
        "haantjes K2": is_haantjes(K2, sample, 1e-12),
        "K2 P1 = P1 K2^T": check_compatibility(K2, data["P1"], sample,
                                               1e-12),
        "module": check_module_condition(pair, f, g, sample, 1e-12),
        "ring": check_ring_condition(pair, sample, 1e-12),
        "abelian": check_abelian(pair, sample, 1e-12),
    }
    failed = {k: r.residual / r.scale for k, r in results.items()
              if not r.passed}
    assert not failed, failed
    assert np.all(algebra_rank(_squares(K2), sample) == 2)


def test_leaf_axioms_reject_a_random_operator():
    """The leaf axioms' judges can fail: a random quadratic operator on the
    leaf chart is not Haantjes, and it generates an algebra of rank
    three."""
    data, sample = _leaf_sample(2.0)
    R = _random_field(np.random.default_rng(7), OperatorField, data["chart"])
    sr = is_haantjes(R, sample, 1e-12)
    assert sr.residual / sr.scale > 0.1
    assert np.all(algebra_rank(_squares(R), sample) == 3)


def test_coincident_eigenvalues_rejected(tp):
    chart = leaf_chart(tp, 0.4, 1.3)
    # discriminant x1^2 + 4 x2 = 0 collapses the two eigenvalues; the chart
    # marks it singular, so bypass the chart check and call the kernel
    from haantjeskit.lagrange.leaf import _eigenvalues
    l1, l2 = _eigenvalues(2.0, -1.0)
    assert abs(l1 - l2) < 1e-13
    with pytest.raises(SingularPointError):
        separation_map(tp, 0.4, 1.3).apply(point(chart, 2.0, -1.0, 0.1, 0.2))
