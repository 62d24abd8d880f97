"""Body-frame formulation: angular velocity plus vertical unit vector, the
three degenerate Poisson bivectors, the integrals of motion and the
bi-Hamiltonian ladder built on them."""

from __future__ import annotations

import functools
import types

import numpy as np

from ..charts import (BivectorField, Chart, ScalarField, VectorField,
                      add_fields, scale_field)
from .params import TopParams

W1, W2, W3, G1, G2, G3 = range(6)


def body_chart() -> Chart:
    return Chart("body", 6)


@functools.cache
def integrals(params: TopParams) -> types.MappingProxyType:
    """The four independent integrals: axial spin, reduced energy,
    angular-momentum projection and the squared vertical vector, in a
    read-only mapping, memoized (see :mod:`haantjeskit.lagrange`)."""
    c = params.c
    chart = body_chart()
    return types.MappingProxyType({
        "F1": ScalarField(chart, lambda x: x[W3]),
        "F2": ScalarField(chart, lambda x: 0.5 * (
            x[W1] ** 2 + x[W2] ** 2 + c * x[W3] ** 2) - x[G3]),
        "F3": ScalarField(chart, lambda x: x[W1] * x[G1] + x[W2] * x[G2]
                          + c * x[W3] * x[G3]),
        "F4": ScalarField(chart, lambda x: x[G1] ** 2 + x[G2] ** 2
                          + x[G3] ** 2),
    })


def hamiltonians(params: TopParams):
    """The three Hamiltonians, combined from the fields of :func:`integrals`
    by the field algebra: ``F4/2 + (c-1) F1 F3``, ``-F3 - (c-1) F1 F2``
    and ``F2``."""
    F = integrals(params)
    cF1 = scale_field(params.c - 1.0, F["F1"])  # built once, shared
    h0 = add_fields(scale_field(0.5, F["F4"]), scale_field(cF1, F["F3"]))
    h1 = add_fields(scale_field(-1.0, F["F3"]),
                    scale_field(-1.0, scale_field(cF1, F["F2"])))
    return h0, h1, F["F2"]


def lagrange_vector_field(params: TopParams) -> VectorField:
    """The body-frame equations of motion of the heavy symmetric top.

    :func:`~haantjeskit.lagrange.flow.integrate_flow` writes this component
    function out as the float form of its four RK4 stages, with the same
    expressions in the same operand order; the tests hold the two bit for
    bit equal, so a change here is a change there.
    """
    one_minus_c = 1.0 - params.c
    c_minus_one = -one_minus_c

    def fn(x):
        w1, w2, w3, g1, g2, g3 = x
        return [one_minus_c * w2 * w3 - g2,
                c_minus_one * w3 * w1 + g1,
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

