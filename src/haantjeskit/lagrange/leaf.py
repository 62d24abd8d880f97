"""Restriction to a symplectic leaf of the degenerate Poisson structure and
the separation chart built from the eigenvalues of the restricted operator
family.

The leaf chart keeps the four tangential coordinates ``(x1, x2, y1, y2)``
with the two Casimir levels pinned to constants.
"""

from __future__ import annotations

import numpy as np

from ..charts import (BivectorField, Chart, ChartMap, OneFormField,
                      OperatorField, Point, ScalarField, VectorField)
from ..jets import sqrt_
from ..report import _max_abs, sampled
from .complex_chart import complex_chart, nijenhuis_operator
from .params import TopParams

_LEAF_COORDS = ("x1", "x2", "y1", "y2")
# largest coupling to the transversal directions, relative to the field's
# magnitude, that a restricted field may carry
RESTRICT_TOL = 1e-12


class LeafRestrictionError(Exception):
    """Raised when a field couples leaf and transversal directions and
    therefore does not restrict."""


def leaf_chart(params: TopParams, C1: complex, C4: complex) -> Chart:
    """Singular where the complex chart is, at the pinned Casimir levels."""
    return Chart(
        "leaf", 4, _LEAF_COORDS,
        singular=tuple(lambda x, s=s: s(_embed(x, C1, C4))
                       for s in complex_chart(params).singular))


def _embed(coords, C1, C4):
    return list(coords) + [C1, C4]


def restrict_to_leaf(field, params: TopParams, C1, C4, *, sample=None):
    """Pin the Casimir levels and drop the transversal slots.

    For vector fields the transversal components, and for operators and
    bivectors the transversal off-blocks, are checked to vanish on
    ``sample`` (when given); a nonvanishing coupling means the field does
    not restrict and raises :class:`LeafRestrictionError`.
    """
    kind = type(field)
    if not isinstance(field, (ScalarField, OneFormField, VectorField,
                              OperatorField, BivectorField)):
        raise TypeError(f"cannot restrict field of type {kind.__name__}")

    def fn(x):
        v = np.asarray(field.fn(_embed(x, C1, C4)), dtype=object)
        # the leaf slots of every index: v[:4], v[:4, :4], or a scalar
        return v[(slice(4),) * v.ndim]

    # a one-form pulls back by dropping its transversal slots; only
    # vectors, operators and bivectors must not couple to them
    if sample is not None and not isinstance(field, (ScalarField,
                                                     OneFormField)):
        _check_restricts(field, params, C1, C4, sample)
    return kind(leaf_chart(params, C1, C4), fn)


def _check_restricts(field, params, C1, C4, sample):
    """Raise unless the transversal part of ``field`` (components of a
    vector, off-blocks of a matrix) vanishes at every sample point,
    relative to ``1 + |field|`` at that point."""
    full = complex_chart(params)

    def coupling(p):
        v = field(Point(full, tuple(_embed(p.coords, C1, C4))))
        part = (v[4:],) if v.ndim == 1 else (v[:4, 4:], v[4:, :4])
        return _max_abs(*part) / (1.0 + _max_abs(v)), 1.0

    sr = sampled(sample, coupling, RESTRICT_TOL)
    if not sr.passed:
        raise LeafRestrictionError(
            "field couples the leaf to the transversal directions "
            f"(relative residual {sr.residual:.3e})")


def leaf_structures(params: TopParams, C1, C4, sample=None) -> dict:
    """All restricted data on one leaf: Poisson blocks, recursion operator,
    the second operator of the family, and the two restricted integrals."""
    from .complex_chart import (complex_integrals, deformation, p1_complex,
                                benenti_operators)
    N = nijenhuis_operator(params)
    _, K2, _ = benenti_operators(params, N)
    F2c, F3c = complex_integrals(params)
    r = lambda f: restrict_to_leaf(f, params, C1, C4, sample=sample)
    # the raw second bivector does not restrict (its transversal column
    # carries the ladder field); the deformed bivector does, and its leaf
    # block is the second Poisson block of the pair
    _, _, Q = deformation(params)
    return {
        "chart": leaf_chart(params, C1, C4),
        "P0": r(Q),
        "P1": r(p1_complex(params)),
        "N": r(N),
        "K2": r(K2),
        "F2": r(F2c),
        "F3": r(F3c),
    }


# -- separation chart -------------------------------------------------------

def separation_chart_def() -> Chart:
    return Chart("separation", 4, ("l1", "l2", "m1", "m2"),
                 singular=(lambda x: x[0] - x[1],
                           lambda x: x[0], lambda x: x[1]))


def _eigenvalues(x1, x2):
    # fixed branch: the first eigenvalue takes the negative square root
    d = sqrt_(x1 * x1 + 4.0 * x2)
    return (x1 - d) / (2.0 * x2), (x1 + d) / (2.0 * x2)


def _separation(x):
    """Jet-generic separation variables ``(l1, l2, m1, m2)`` of leaf
    coordinates."""
    x1, x2, y1, y2 = x
    l1, l2 = _eigenvalues(x1, x2)
    m1 = -(y1 - l1 * y2) / l1 ** 2
    m2 = -(y1 - l2 * y2) / l2 ** 2
    return [l1, l2, m1, m2]


def _printed_momenta(x):
    x1, x2, y1, y2 = x
    l1, l2 = _eigenvalues(x1, x2)
    return [(l2 * y1 + y2) / l1, (l1 * y1 + y2) / l2]


def separation_coordinates(p: Point):
    """Separation variables of a leaf point: the double eigenvalues of the
    restricted operator family and canonically conjugate momenta whose
    gradients are eigenforms."""
    l1, l2, m1, m2 = _separation(p.coords)
    if abs(l1 - l2) < 1e-13:
        raise ValueError("coincident eigenvalues: separation chart breaks down")
    return l1, l2, m1, m2


def separation_fields(params: TopParams, C1, C4, printed: bool = False):
    """The separation variables ``(l1, l2, m1, m2)`` as scalar fields on the
    leaf chart, so brackets and differentials come from jets; with
    ``printed`` the momenta are the circulated ones."""
    chart = leaf_chart(params, C1, C4)
    fns = _separation if not printed else (
        lambda x: _separation(x)[:2] + _printed_momenta(x))
    return [ScalarField(chart, lambda x, a=a: fns(x)[a]) for a in range(4)]


def separation_map(params: TopParams, C1, C4) -> ChartMap:
    src = leaf_chart(params, C1, C4)
    dst = separation_chart_def()

    def inverse(s):
        l1, l2, m1, m2 = s
        x2 = -1.0 / (l1 * l2)
        x1 = (l1 + l2) * x2
        # mi li^2 = -y1 + li y2, so the difference isolates y2
        y2 = (m1 * l1 ** 2 - m2 * l2 ** 2) / (l1 - l2)
        y1 = l1 * y2 - m1 * l1 ** 2
        return [x1, x2, y1, y2]

    return ChartMap(src, dst, _separation, inverse)
