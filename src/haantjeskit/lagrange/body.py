"""Body-frame formulation: angular velocity plus vertical unit vector, the
three degenerate Poisson bivectors, the integrals of motion and the
bi-Hamiltonian ladder built on them."""

from __future__ import annotations

import numpy as np

from ..charts import (BivectorField, Chart, ScalarField, VectorField,
                      constant_vector)
from ..poisson import hamiltonian_field
from ..report import _max_abs, matches, sampled
from .params import TopParams

W1, W2, W3, G1, G2, G3 = range(6)

_BODY_COORDS = ("w1", "w2", "w3", "g1", "g2", "g3")


def body_chart() -> Chart:
    return Chart("body", 6, _BODY_COORDS)


def integrals(params: TopParams) -> dict:
    """The four independent integrals: axial spin, reduced energy,
    angular-momentum projection and the squared vertical vector."""
    c = params.c
    chart = body_chart()
    return {
        "F1": ScalarField(chart, lambda x: x[W3]),
        "F2": ScalarField(chart, lambda x: 0.5 * (
            x[W1] ** 2 + x[W2] ** 2 + c * x[W3] ** 2) - x[G3]),
        "F3": ScalarField(chart, lambda x: x[W1] * x[G1] + x[W2] * x[G2]
                          + c * x[W3] * x[G3]),
        "F4": ScalarField(chart, lambda x: x[G1] ** 2 + x[G2] ** 2
                          + x[G3] ** 2),
    }


def hamiltonians(params: TopParams):
    """The three Hamiltonians of the tri-Hamiltonian formulation."""
    c = params.c
    F = integrals(params)
    chart = body_chart()
    h0 = ScalarField(chart, lambda x: 0.5 * F["F4"].fn(x)
                     + (c - 1.0) * F["F1"].fn(x) * F["F3"].fn(x))
    h1 = ScalarField(chart, lambda x: -F["F3"].fn(x)
                     - (c - 1.0) * F["F1"].fn(x) * F["F2"].fn(x))
    h2 = F["F2"]
    return h0, h1, h2


def lagrange_vector_field(params: TopParams) -> VectorField:
    c = params.c

    def fn(x):
        w1, w2, w3, g1, g2, g3 = x
        return [(1.0 - c) * w2 * w3 - g2,
                -(1.0 - c) * w3 * w1 + g1,
                0.0,
                g2 * w3 - g3 * w2,
                g3 * w1 - g1 * w3,
                g1 * w2 - g2 * w1]

    return VectorField(body_chart(), fn)


# constant 3x3 blocks of the body-frame bivectors
_B = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
              dtype=object)
_Z = np.zeros((3, 3)).astype(object)


def poisson_bivectors(params: TopParams):
    """The three degenerate Poisson bivectors of the body-frame chart."""
    c = params.c
    chart = body_chart()

    def p0_fn(x):
        w1, w2, w3 = x[W1], x[W2], x[W3]
        C = [[0.0, c * w3, -w2], [-c * w3, 0.0, w1], [w2, -w1, 0.0]]
        return _assemble(_Z, _B, _B, C)

    def p1_fn(x):
        g1, g2, g3 = x[G1], x[G2], x[G3]
        G = [[0.0, g3, -g2], [-g3, 0.0, g1], [g2, -g1, 0.0]]
        return _assemble(-_B, _Z, _Z, G)

    def p2_fn(x):
        w1, w2, w3 = x[W1], x[W2], x[W3]
        g1, g2, g3 = x[G1], x[G2], x[G3]
        T = [[0.0, -c * w3, w2 / c], [c * w3, 0.0, -w1 / c],
             [-w2 / c, w1 / c, 0.0]]
        R = np.array([[0.0, -g3, g2], [g3, 0.0, -g1],
                      [-g2 / c, g1 / c, 0.0]], dtype=object)
        return _assemble(T, R, -R.T, _Z)

    return (BivectorField(chart, p0_fn), BivectorField(chart, p1_fn),
            BivectorField(chart, p2_fn))


def _assemble(ul, ur, ll, lr):
    return np.block([[np.asarray(b, dtype=object) for b in row]
                     for row in ((ul, ur), (ll, lr))])


def bihamiltonian_fields(params: TopParams):
    """The two commuting ladder fields in closed form."""
    c = params.c

    def x1_fn(x):
        w1, w2, w3, g1, g2, g3 = x
        return [-g2, g1, 0.0,
                c * w3 * g2 - w2 * g3,
                -c * w3 * g1 + w1 * g3,
                w2 * g1 - w1 * g2]

    def x2_fn(x):
        w1, w2, w3, g1, g2, g3 = x
        return [w2, -w1, 0.0, g2, -g1, 0.0]

    chart = body_chart()
    return VectorField(chart, x1_fn), VectorField(chart, x2_fn)


def gz_chain_check(params: TopParams, sample, tol: float = 1e-9) -> dict:
    """Residuals of the two-Casimir ladder built on the first two Poisson
    bivectors, plus the decomposition of the flow field over the ladder."""
    P0, P1, _ = poisson_bivectors(params)
    F = integrals(params)
    X1, X2 = bihamiltonian_fields(params)
    XL = lagrange_vector_field(params)
    c = params.c

    half_f4 = ScalarField(body_chart(), lambda x: 0.5 * F["F4"].fn(x))
    minus_f3 = ScalarField(body_chart(), lambda x: -F["F3"].fn(x))
    zero = constant_vector(body_chart(), [0.0] * 6)

    pairs = {
        "P1_dF1_zero": (hamiltonian_field(P1, F["F1"]), zero),
        "P0_dF1_zero": (hamiltonian_field(P0, F["F1"]), zero),
        "P1_dF4half_zero": (hamiltonian_field(P1, half_f4), zero),
        "P0_dF4half_is_P1_dmF3": (hamiltonian_field(P0, half_f4),
                                  hamiltonian_field(P1, minus_f3)),
        "P0_dmF3_is_P1_dF2": (hamiltonian_field(P0, minus_f3),
                              hamiltonian_field(P1, F["F2"])),
        "P0_dF2_zero": (hamiltonian_field(P0, F["F2"]), zero),
    }
    out = {name: sampled(sample, matches(a, b), tol)
           for name, (a, b) in pairs.items()}

    def ladder_at(p):
        xl = XL(p)
        v = xl - (X1(p) - (c - 1.0) * complex(F["F1"](p)) * X2(p))
        return _max_abs(v), 1.0 + _max_abs(xl)

    out["XL_ladder_decomposition"] = sampled(sample, ladder_at, tol)
    return out
