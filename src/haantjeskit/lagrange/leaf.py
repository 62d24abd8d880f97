"""Restriction to a symplectic leaf of the degenerate Poisson structure and
the separation chart built from the eigenvalues of the restricted operator
family.

The leaf chart keeps the four tangential coordinates ``(x1, x2, y1, y2)``
with the two Casimir levels pinned to constants.
"""

from __future__ import annotations

from ..charts import (Chart, ChartMap, ScalarField, _components, _Field,
                      _same_chart)
from ..jets import sqrt_
from .complex_chart import (_chart_name, benenti_operators, complex_chart,
                            complex_integrals, deformation,
                            nijenhuis_operator, p1_complex)
from .params import TopParams

_LEAF_COORDS = ("x1", "x2", "y1", "y2")


def leaf_chart(params: TopParams, C1: complex, C4: complex) -> Chart:
    """Singular where the complex chart is, at the pinned Casimir levels."""
    return Chart(
        _chart_name("leaf", c=params.c, C1=C1, C4=C4), 4, _LEAF_COORDS,
        singular=tuple(lambda x, s=s: s(_embed(x, C1, C4))
                       for s in complex_chart(params).singular))


def _embed(coords, C1, C4):
    return list(coords) + [C1, C4]


def restrict_to_leaf(field, params: TopParams, C1, C4):
    """Pin the Casimir levels and drop the transversal slots of a field on
    ``complex_chart(params)``; one on another chart raises.

    This is the restriction only for a field that does not couple the leaf
    to the transversal directions: a vector without transversal components,
    an operator or bivector without transversal off-blocks.  Nothing here
    checks that; the suites judge it for the fields they restrict.  A
    one-form pulls back by dropping its slots either way.
    """
    if not isinstance(field, _Field):
        raise TypeError(f"cannot restrict a {type(field).__name__}")
    _same_chart(complex_chart(params), field.chart)

    def fn(x):
        v = _components(field.fn, _embed(x, C1, C4))
        # the leaf slots of every index: v[:4], v[:4, :4], or a scalar
        return v[(slice(4),) * v.ndim]

    return type(field)(leaf_chart(params, C1, C4), fn)


def leaf_structures(params: TopParams, C1, C4) -> dict:
    """All restricted data on one leaf: Poisson blocks, recursion operator,
    the second operator of the family, and the two restricted integrals."""
    N = nijenhuis_operator(params)
    _, K2, _ = benenti_operators(params, N)
    F2c, F3c = complex_integrals(params)
    r = lambda f: restrict_to_leaf(f, params, C1, C4)
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
