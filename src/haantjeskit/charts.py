"""Coordinate charts and differentiable tensor fields over complex scalars.

Fields are immutable wrappers around pure component functions.  A component
function receives the coordinate tuple (plain complex numbers, or jets when
a derivative is requested) and returns the components: a number, or
anything ``np.asarray(..., dtype=object)`` turns into an array of numbers
or jets (a list, a list of rows, an object array).  Derived fields
(brackets, differentials, transported tensors, ...) return such object
arrays and are built as numpy expressions over them (``L @ X``,
``J @ P @ J.T``, ...), so they remain differentiable to the depth the
computation needs.

Every field kind is read through the same two passes: ``f(p)`` evaluates the
component function once on the plain coordinates, and ``f.jet(p)`` once on
seeded jets, giving the components and their partials (last index the
variable); ``f.jacobian(p)`` is ``f.jet(p)[1]``, and a scalar field's
``gradient`` is its ``jacobian``.  Derived fields and chart maps take
partials through the same seeded pass, :func:`_seeded`, which also accepts
coordinates that are already jets.

Real charts embed with zero imaginary parts; every evaluation is pure and
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import jets

__all__ = [
    "Chart", "Point", "ChartError", "ChartMismatchError", "SingularPointError",
    "ScalarField", "VectorField", "OneFormField", "OperatorField",
    "BivectorField", "ChartMap",
    "differential", "exterior_derivative", "wedge",
    "apply_operator", "apply_transpose", "lie_bracket",
    "add_fields", "scale_field", "compose_operators", "operator_polynomial",
    "identity_operator", "constant_operator", "constant_vector",
]

_SINGULAR_TOL = 1e-13


class ChartError(Exception):
    pass


class ChartMismatchError(ChartError):
    pass


class SingularPointError(ChartError):
    pass


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart of fixed dimension.

    ``singular`` lists scalar functions of the coordinates whose zero sets
    are excluded from the chart domain; samplers keep a margin away from
    them and evaluation raises exactly on them.
    """

    name: str
    dim: int
    coord_names: tuple = ()
    singular: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.coord_names:
            object.__setattr__(
                self, "coord_names",
                tuple(f"x{i + 1}" for i in range(self.dim)))
        if len(self.coord_names) != self.dim:
            raise ChartError("coordinate-name count does not match dimension")


@dataclass(frozen=True)
class Point:
    chart: Chart
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.chart.dim:
            raise ChartError(
                f"point has {len(self.coords)} coordinates, chart "
                f"{self.chart.name!r} has dimension {self.chart.dim}")
        vals = tuple(complex(c) for c in self.coords)
        for v in vals:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ChartError("non-finite coordinate")
        object.__setattr__(self, "coords", vals)


def _same_chart(a, b):
    if a.name != b.name or a.dim != b.dim:
        raise ChartMismatchError(f"chart mismatch: {a.name!r} vs {b.name!r}")


class _Field:
    """Base for all field kinds: a chart plus a pure component function.

    Every kind is read the same way; the subclasses are kind tags that the
    field algebra checks.  A scalar field's components are one ``complex``.
    """

    def __init__(self, chart: Chart, fn: Callable):
        self.chart = chart
        self.fn = fn

    def _require(self, p: Point):
        _same_chart(self.chart, p.chart)
        for s in self.chart.singular:
            if abs(s(list(p.coords))) < _SINGULAR_TOL:
                raise SingularPointError(
                    f"point lies on a singular set of chart {self.chart.name!r}")

    def __call__(self, p: Point):
        """Components from a plain pass."""
        self._require(p)
        v = np.array(self.fn(list(p.coords)), dtype=complex)
        return complex(v) if v.ndim == 0 else v

    def jet(self, p: Point) -> tuple:
        """Components and their partials from one seeded pass; the last
        index of the partials is the variable, so a vector's ``[i, k]`` is
        the k-th partial of the i-th component."""
        self._require(p)
        vals, grads = _seeded(self.fn, list(p.coords))
        v = np.array(vals, dtype=complex)
        return (complex(v) if v.ndim == 0 else v,
                np.array(grads, dtype=complex))

    def jacobian(self, p: Point) -> np.ndarray:
        return self.jet(p)[1]


class ScalarField(_Field):

    gradient = _Field.jacobian


class VectorField(_Field):
    pass


class OneFormField(_Field):
    pass


class OperatorField(_Field):
    pass


class BivectorField(_Field):
    pass


# -- jet-generic internal evaluation (inputs may already be jets) -----------

def _components(fn, x):
    """``fn(x)`` as a numpy object array of numbers or jets."""
    return np.asarray(fn(x), dtype=object)


def _seeded(fn, x):
    """One pass of ``fn`` at the seeded ``x`` (numbers or jets): the
    components and their partials, the last index being the variable."""
    n = len(x)
    out = _components(fn, jets.seed(x))
    vals = np.array([jets.value(v) for v in out.flat], dtype=object)
    grads = np.array([jets.gradient(v, n) for v in out.flat], dtype=object)
    return vals.reshape(out.shape), grads.reshape(out.shape + (n,))


# -- field algebra ----------------------------------------------------------
#
# Components are object arrays, so each piece of the algebra is one numpy
# expression.  Jets go on the right of arrays (``arr * jet``): a jet on the
# left would take the whole array as one value.

def differential(f: ScalarField) -> OneFormField:
    return OneFormField(f.chart, lambda x: _seeded(f.fn, x)[1])


def exterior_derivative(alpha: OneFormField, p: Point) -> np.ndarray:
    """Pointwise exterior derivative; antisymmetric matrix with
    ``[i, j] = d_i alpha_j - d_j alpha_i``."""
    J = alpha.jacobian(p)
    return J.T - J


def wedge(X: VectorField, Z: VectorField) -> BivectorField:
    _same_chart(X.chart, Z.chart)

    def fn(x):
        outer = np.outer(_components(X.fn, x), _components(Z.fn, x))
        return outer - outer.T

    return BivectorField(X.chart, fn)


def apply_operator(L: OperatorField, X: VectorField) -> VectorField:
    _same_chart(L.chart, X.chart)
    return VectorField(
        L.chart, lambda x: _components(L.fn, x) @ _components(X.fn, x))


def apply_transpose(L: OperatorField, alpha: OneFormField) -> OneFormField:
    _same_chart(L.chart, alpha.chart)
    return OneFormField(
        L.chart, lambda x: _components(L.fn, x).T @ _components(alpha.fn, x))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    _same_chart(X.chart, Y.chart)

    def fn(x):
        xv, xg = _seeded(X.fn, x)
        yv, yg = _seeded(Y.fn, x)
        # one elementwise sum, so the rounding follows the index order
        return (xv * yg - yv * xg).sum(axis=1)

    return VectorField(X.chart, fn)


def add_fields(a, b):
    _same_chart(a.chart, b.chart)
    if type(a) is not type(b):
        raise TypeError("can only add fields of the same kind")
    return type(a)(
        a.chart, lambda x: _components(a.fn, x) + _components(b.fn, x))


def scale_field(s, f):
    """Multiply a field by a constant or by a scalar field."""
    if isinstance(s, ScalarField):
        _same_chart(s.chart, f.chart)
        sval = s.fn
    else:
        sval = lambda x: s
    return type(f)(f.chart, lambda x: _components(f.fn, x) * sval(x))


def compose_operators(L: OperatorField, M: OperatorField) -> OperatorField:
    _same_chart(L.chart, M.chart)
    return OperatorField(
        L.chart, lambda x: _components(L.fn, x) @ _components(M.fn, x))


def operator_polynomial(L: OperatorField, coeffs: Sequence) -> OperatorField:
    """``sum_k coeffs[k] L^k`` with constant or scalar-field coefficients."""

    def fn(x):
        n = L.chart.dim
        m = _components(L.fn, x)
        # Python floats: an object-dtype np.zeros would hold the int 0
        power = np.eye(n).astype(object)
        acc = np.zeros((n, n)).astype(object)
        for k, c in enumerate(coeffs):
            if k > 0:
                power = power @ m
            acc = acc + power * (c.fn(x) if isinstance(c, ScalarField) else c)
        return acc

    return OperatorField(L.chart, fn)


# -- simple constructors ----------------------------------------------------

def constant_vector(chart: Chart, v) -> VectorField:
    v = list(v)
    return VectorField(chart, lambda x: list(v))


def identity_operator(chart: Chart) -> OperatorField:
    return OperatorField(chart, lambda x: np.eye(chart.dim).astype(object))


def constant_operator(chart: Chart, m) -> OperatorField:
    rows = [list(r) for r in m]
    return OperatorField(chart, lambda x: [list(r) for r in rows])


class ChartMap:
    """A differentiable coordinate change with an explicit inverse.

    Tensor transport uses the forward jacobian and the jacobian of the
    inverse map, so no matrix inversion is ever performed and transported
    fields stay differentiable.
    """

    def __init__(self, src: Chart, dst: Chart, forward: Callable,
                 inverse: Callable):
        self.src = src
        self.dst = dst
        self.forward = forward
        self.inverse = inverse

    def apply(self, p: Point) -> Point:
        _same_chart(self.src, p.chart)
        return Point(self.dst, tuple(self.forward(list(p.coords))))

    def invert(self, q: Point) -> Point:
        _same_chart(self.dst, q.chart)
        return Point(self.src, tuple(self.inverse(list(q.coords))))

    def jacobian(self, p: Point) -> np.ndarray:
        """Forward jacobian ``[i, k] = d(dst_i)/d(src_k)`` at a source point."""
        _same_chart(self.src, p.chart)
        return np.array(_seeded(self.forward, list(p.coords))[1],
                        dtype=complex)

    def push_scalar(self, f: ScalarField) -> ScalarField:
        _same_chart(self.src, f.chart)
        return ScalarField(self.dst, lambda xi: f.fn(self.inverse(xi)))

    def push_bivector(self, P: BivectorField) -> BivectorField:
        _same_chart(self.src, P.chart)

        def fn(xi):
            x = self.inverse(xi)
            J = _seeded(self.forward, x)[1]
            return J @ _components(P.fn, x) @ J.T

        return BivectorField(self.dst, fn)

    def push_operator(self, L: OperatorField) -> OperatorField:
        _same_chart(self.src, L.chart)

        def fn(xi):
            x, Jinv = _seeded(self.inverse, xi)  # Jinv[src_k][dst_j]
            x = list(x)
            J = _seeded(self.forward, x)[1]
            return J @ _components(L.fn, x) @ Jinv

        return OperatorField(self.dst, fn)
