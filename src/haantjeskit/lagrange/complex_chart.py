"""Holomorphic six-dimensional chart adapted to the symplectic-leaf
reduction: two Casimir-level coordinates sit last, so the transversal
deformation frames are constant.

Coordinate order: ``(x1, x2, y1, y2, F1, F4)``.
"""

from __future__ import annotations

import functools

import numpy as np

from ..charts import (BivectorField, Chart, ChartMap, OperatorField,
                      ScalarField, add_fields, constant_vector,
                      identity_operator, operator_polynomial, scale_field,
                      wedge)
from ..poisson import hamiltonian_field
from .body import body_chart
from .params import TopParams

X1C, X2C, Y1C, Y2C, F1C, F4C = range(6)


def _delta(c):
    def fn(x):
        return x[X1C] ** 2 + (c - 1.0) * x[F1C] * x[X1C] + x[X2C]
    return fn


def _discriminant(x):
    return x[X1C] ** 2 + 4.0 * x[X2C]


def _chart_name(kind: str, **values) -> str:
    """``kind(name=value, ...)``: a chart whose singular sets depend on
    parameters carries them in its name, so fields read only samples drawn
    for the same values.  Equal numbers give equal names whatever their
    type; a symbol names itself."""
    def label(v):
        try:
            z = complex(v) + 0  # -0.0 names as 0.0
        except TypeError:
            return str(v)
        return repr(z.real) if z.imag == 0 else repr(z)
    return f"{kind}({', '.join(f'{k}={label(v)}' for k, v in values.items())})"


def complex_chart(params: TopParams) -> Chart:
    """Singular where the leaf degenerates (``x2 = 0``), where the solved
    operator entries blow up, and on the eigenvalue branch cut."""
    return Chart(_chart_name("complex", c=params.c), 6,
                 singular=(lambda x: x[X2C], _delta(params.c), _discriminant))


def body_to_complex(params: TopParams) -> ChartMap:
    c = params.c
    i = 1j

    def forward(m):
        w1, w2, w3, g1, g2, g3 = m
        return [-c * w3 + i * w2,
                g3 - i * g2,
                w1,
                -g1,
                w3,
                g1 ** 2 + g2 ** 2 + g3 ** 2]

    def inverse(x):
        x1, x2, y1, y2, f1, f4 = x
        g = (f4 - y2 ** 2) / x2
        return [y1,
                -i * (x1 + c * f1),
                f1,
                -y2,
                (i * 0.5) * (x2 - g),
                0.5 * (x2 + g)]

    return ChartMap(body_chart(), complex_chart(params), forward, inverse)


@functools.cache
def complex_integrals(params: TopParams):
    """Second and third integrals written directly in the adapted chart
    (the first and fourth are coordinates here)."""
    c = params.c
    chart = complex_chart(params)

    def f2_fn(x):
        x1, x2, y1, y2, f1, f4 = x
        g = (f4 - y2 ** 2) / x2
        return 0.5 * (y1 ** 2 - (x1 + c * f1) ** 2 + c * f1 ** 2) \
            - 0.5 * (x2 + g)

    def f3_fn(x):
        x1, x2, y1, y2, f1, f4 = x
        g = (f4 - y2 ** 2) / x2
        return -y1 * y2 - 0.5 * (x1 + c * f1) * (g - x2) \
            + 0.5 * c * f1 * (x2 + g)

    return (ScalarField(chart, f2_fn), ScalarField(chart, f3_fn))


def _p1_block(x):
    i = 1j
    x2 = x[X2C]
    return [[0.0, 0.0, -i, 0.0],
            [0.0, 0.0, 0.0, -i * x2],
            [i, 0.0, 0.0, 0.0],
            [0.0, i * x2, 0.0, 0.0]]


def _on_leaf(block):
    """A 4x4 leaf block embedded in the 6x6 chart, zero elsewhere."""
    out = np.zeros((6, 6)).astype(object)
    out[:4, :4] = block
    return out


@functools.cache
def p1_complex(params: TopParams) -> BivectorField:
    return BivectorField(complex_chart(params),
                         lambda x: _on_leaf(_p1_block(x)))


def _p0_block(x):
    i = 1j
    x1 = x[X1C]
    return [[0.0, 0.0, 0.0, -i],
            [0.0, 0.0, -i, i * x1],
            [0.0, i, 0.0, 0.0],
            [i, -i * x1, 0.0, 0.0]]


@functools.cache
def x_fields_complex(params: TopParams):
    """The ladder fields expressed in the adapted chart: ``P1 d(-F3)`` and
    ``P1 dF2``, images of the integral gradients under the first
    bivector."""
    P1c = p1_complex(params)
    F2c, F3c = complex_integrals(params)
    return (hamiltonian_field(P1c, scale_field(-1.0, F3c)),
            hamiltonian_field(P1c, F2c))


@functools.cache
def _p0_terms(params: TopParams):
    """``P0`` in the adapted chart, its transversal term ``X1 ^ Z2``, which
    ``Q`` subtracts as the same object, and the frame ``Z2``."""
    chart = complex_chart(params)
    X1f, _ = x_fields_complex(params)
    Z2 = constant_vector(chart, [0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    transversal = wedge(X1f, Z2)
    leaf = BivectorField(chart, lambda x: _on_leaf(_p0_block(x)))
    return add_fields(leaf, transversal), transversal, Z2


def p0_complex(params: TopParams) -> BivectorField:
    """Second Poisson bivector in the adapted chart: the leaf block plus the
    transversal term ``X1 ^ Z2``."""
    return _p0_terms(params)[0]


def deformation(params: TopParams):
    """Transversal frames normalized against the Casimir ladder heads, and
    the deformed bivector ``Q = P0 - X1 ^ Z2``, whose transversal rows and
    columns vanish."""
    P0, transversal, Z2 = _p0_terms(params)
    Z1 = constant_vector(P0.chart, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    return Z1, Z2, add_fields(P0, scale_field(-1.0, transversal))


@functools.cache
def nijenhuis_operator(params: TopParams) -> OperatorField:
    """The torsion-free recursion operator: leaf block equal to the ratio of
    the two leaf Poisson blocks, transversal block solved in closed form."""
    c = params.c
    chart = complex_chart(params)

    def fn(x):
        x1, x2, y1, y2, f1, f4 = x
        delta = _delta(c)(x)
        out = [[0.0] * 6 for _ in range(6)]
        # leaf block: two identical 2x2 companion blocks
        out[0][1] = 1.0 / x2
        out[1][0] = 1.0
        out[1][1] = -x1 / x2
        out[2][3] = 1.0 / x2
        out[3][2] = 1.0
        out[3][3] = -x1 / x2
        # transversal block
        out[4][4] = ((c - 1.0) * f1 + x1) / delta
        out[4][5] = 1.0 / (2.0 * c * x2 * delta)
        out[5][4] = -2.0 * c * x2 \
            * ((c - 1.0) * f1 * ((c - 1.0) * f1 + x1) - x2) / delta
        out[5][5] = -(x1 ** 3 + (c - 1.0) * f1 * x1 ** 2 + 2.0 * x1 * x2
                      + (c - 1.0) * f1 * x2) / (x2 * delta)
        return out

    return OperatorField(chart, fn)


def benenti_operators(params: TopParams, N: OperatorField):
    """Triangular relations expressing the operator family through the
    minimal-polynomial coefficients of the cyclic generator ``N``."""
    chart = complex_chart(params)
    z2_mf3 = ScalarField(chart, lambda x: x[X1C] / x[X2C])
    z2_f2 = ScalarField(chart, lambda x: -1.0 / x[X2C])
    K1 = identity_operator(chart)
    K2 = operator_polynomial(N, [z2_mf3, 1.0])
    K3 = operator_polynomial(N, [z2_f2, z2_mf3, 1.0])
    return K1, K2, K3
