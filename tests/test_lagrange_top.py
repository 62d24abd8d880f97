"""The heavy-top case study against frozen hand-computed values."""

import numpy as np
import pytest

from haantjeskit import differential, hamiltonian_field, is_haantjes
from haantjeskit.lagrange import (TopParams, benenti_operators,
                                  bihamiltonian_fields, body_chart,
                                  body_to_complex, complex_chart,
                                  complex_integrals, deformation,
                                  euler_chain_operators, euler_chart,
                                  euler_hamiltonian, gz_chain_check,
                                  hamiltonians, integrals, leaf_chart,
                                  lagrange_vector_field, leaf_structures,
                                  nijenhuis_operator, p0_complex, p1_complex,
                                  poisson_bivectors, restrict_to_leaf, separation_coordinates,
                                  separation_map, x_fields_complex)
from haantjeskit.lagrange.leaf import LeafRestrictionError
from haantjeskit.sampling import sample_points

from conftest import point


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
    with pytest.raises(ValueError):
        TopParams(c=0.0)
    with pytest.raises(ValueError):
        TopParams(A=-1.0)


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
    from haantjeskit import apply_transpose
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


def test_gz_chain_closes(tp, bsample):
    out = gz_chain_check(tp, bsample)
    assert set(out) == {
        "P1_dF1_zero", "P0_dF1_zero", "P1_dF4half_zero",
        "P0_dF4half_is_P1_dmF3", "P0_dmF3_is_P1_dF2", "P0_dF2_zero",
        "XL_ladder_decomposition"}
    for sr in out.values():
        assert sr.passed


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


def test_raw_second_bivector_does_not_restrict(tp):
    sample = sample_points(leaf_chart(tp, 0.4, 1.3), 5, 43)
    with pytest.raises(LeafRestrictionError):
        restrict_to_leaf(p0_complex(tp), tp, 0.4, 1.3, sample=sample)


def test_ladder_fields_restrict(tp):
    sample = sample_points(leaf_chart(tp, 0.4, 1.3), 5, 44)
    X1, X2 = x_fields_complex(tp)
    for X in (X1, X2):
        restricted = restrict_to_leaf(X, tp, 0.4, 1.3, sample=sample)
        assert restricted.chart.dim == 4


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
    l1, l2, m1, m2 = separation_coordinates(p)
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
    pushed = sep.push_bivector(data["P1"])
    target = np.zeros((4, 4), dtype=complex)
    target[0, 2] = target[1, 3] = 1.0j
    target[2, 0] = target[3, 1] = -1.0j
    q = sep.apply(sample_points(sep.src, 8, 46))
    assert np.max(np.abs(pushed(q) - target)) < 1e-9


def test_coincident_eigenvalues_rejected(tp):
    chart = leaf_chart(tp, 0.4, 1.3)
    # discriminant x1^2 + 4 x2 = 0 collapses the two eigenvalues; the chart
    # marks it singular, so bypass the chart check and call the kernel
    from haantjeskit.lagrange.leaf import _eigenvalues
    l1, l2 = _eigenvalues(2.0, -1.0)
    assert abs(l1 - l2) < 1e-13
    p = point(chart, 2.0, -1.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        separation_coordinates(p)
