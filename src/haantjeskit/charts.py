"""Coordinate charts and differentiable tensor fields over complex scalars,
evaluated over a whole sample at once.

A :class:`Point` is a sample: ``N`` points of one chart, held as one complex
array of shape ``(N,)`` per coordinate (a point given by numbers is a sample
of one).  Fields are immutable wrappers around pure component functions.  A
component function receives the coordinate list and returns the components:
a number, or anything ``np.asarray(..., dtype=object)`` turns into an array
of numbers or jets (a list, a list of rows, an object array).  The
coordinates it receives are jets batched over the sample (see
:mod:`~haantjeskit.jets`): plain values over no variables for a plain pass,
seeded jets when a derivative is requested.  Each component is thus one
batched scalar, and the sample axis lives inside the jets.  Derived fields
(brackets, differentials, transported tensors, ...) return such object
arrays and are built as numpy expressions over them (``L @ X``,
``J @ P @ J.T``, ...), so they remain differentiable to the depth the
computation needs.

Every field kind is read through the same two passes over a sample:
``f(p)`` evaluates the component function once on the plain coordinates,
and ``f.jet(p)`` once on seeded jets, giving the components and their
partials (last index the variable).  Results are numeric arrays with the
sample axis first: ``(N,) + shape`` for the components and
``(N,) + shape + (dim,)`` for the partials.  ``f.jacobian(p)`` is
``f.jet(p)[1]``, and a scalar field's ``gradient`` is its ``jacobian``.
Derived fields and chart maps take partials through the same seeded pass,
:func:`_seeded`, which also accepts coordinates that are already jets.
Reading a sample once per field is the rule the checks keep: one plain or
one seeded pass per field and sample, never one per point.  Within a pass
the rule holds for subfields too: each component function runs once per
coordinate list, and each coordinate list is seeded once, so the subfields
of a derived field share their values and seeds.  The memo ends with the
pass, and the components it shares are read-only.

Real charts embed with zero imaginary parts; every evaluation is pure and
deterministic.
"""

from __future__ import annotations

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
    them and building a :class:`Point` raises exactly on them.
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


@dataclass(frozen=True, eq=False)
class Point:
    """A sample of ``N`` points of one chart: ``coords`` holds one read-only
    complex array of shape ``(N,)`` per coordinate.

    Numbers broadcast against arrays, so a point given by numbers is a
    sample of one.  ``len`` is ``N``; an index gives the sample of that one
    point and a slice a sub-sample.  A sample with a point on a singular
    set of its chart raises :class:`SingularPointError`, so every sample
    that exists is valid and field reads check only its chart.
    """

    chart: Chart
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.chart.dim:
            raise ChartError(
                f"point has {len(self.coords)} coordinates, chart "
                f"{self.chart.name!r} has dimension {self.chart.dim}")
        try:
            vals = np.array(np.broadcast_arrays(
                *(np.atleast_1d(np.asarray(c, dtype=complex))
                  for c in self.coords)))
        except (TypeError, ValueError) as exc:
            raise ChartError(f"coordinates do not form a sample: {exc}") \
                from None
        if vals.ndim != 2:
            raise ChartError("each coordinate must be a number or a "
                             "one-dimensional array")
        if not np.all(np.isfinite(vals)):
            raise ChartError("non-finite coordinate")
        for s in self.chart.singular:
            if np.any(np.abs(s(list(vals))) < _SINGULAR_TOL):
                raise SingularPointError(
                    f"point lies on a singular set of chart "
                    f"{self.chart.name!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "coords", tuple(vals))

    def __len__(self) -> int:
        return len(self.coords[0])

    def __getitem__(self, index) -> "Point":
        if not isinstance(index, slice):
            i = range(len(self))[index]
            index = slice(i, i + 1)
        return Point(self.chart, tuple(c[index] for c in self.coords))


def _same_chart(a, b):
    if a.name != b.name or a.dim != b.dim:
        raise ChartMismatchError(f"chart mismatch: {a.name!r} vs {b.name!r}")


class _Field:
    """Base for all field kinds: a chart plus a pure component function.

    Every kind is read the same way; the subclasses are kind tags that the
    field algebra checks, and each names its index slots, ``"u"`` upper and
    ``"d"`` lower, for :func:`~haantjeskit.poisson.lie_derivative`.  A
    scalar field's components are one number per point.
    """

    def __init__(self, chart: Chart, fn: Callable):
        self.chart = chart
        self.fn = fn

    def __call__(self, p: Point) -> np.ndarray:
        """Components from a plain pass, shape ``(N,) + shape``."""
        _same_chart(self.chart, p.chart)
        return _read(self.fn, p.coords)

    def jet(self, p: Point) -> tuple:
        """Components and their partials from one seeded pass; the last
        index of the partials is the variable, so a vector's ``[s, i, k]``
        is the k-th partial of the i-th component at the s-th point."""
        _same_chart(self.chart, p.chart)
        return _read(self.fn, p.coords, seeded=True)

    def jacobian(self, p: Point) -> np.ndarray:
        return self.jet(p)[1]


class ScalarField(_Field):

    slots = ""
    gradient = _Field.jacobian


class VectorField(_Field):
    slots = "u"


class OneFormField(_Field):
    slots = "d"


class OperatorField(_Field):
    slots = "ud"


class BivectorField(_Field):
    slots = "uu"


# -- jet-generic internal evaluation (inputs may already be jets) -----------
#
# Derived fields reach the same subfields many times in a pass (the bracket
# form of the Haantjes torsion reaches its operator 52 times); the pass memo
# turns those into one evaluation each.

# the open pass's results, or None between passes; evaluation is one thread
_memo = None


def _once(make, *args):
    """``make(*args)``, computed once per pass for the same ``make`` and the
    same argument objects.  The outermost call opens the pass and closes it
    when it returns, so nothing outlives the evaluation that asked for it."""
    global _memo
    if _memo is None:
        _memo = {}
        try:
            return _once(make, *args)
        finally:
            _memo = None
    key = (make, *map(id, args))
    hit = _memo.get(key)
    if hit is None:
        # the entry holds the arguments, so no id is reused while it lives
        hit = _memo[key] = (make(*args), args)
    return hit[0]


def _evaluate(fn, x):
    return np.asarray(fn(x), dtype=object)


def _components(fn, x):
    """``fn(x)`` as a numpy object array of numbers or jets.

    Within a pass ``fn`` runs once on ``x``, and every later caller gets the
    same array, so no component function or derived field may write into
    what this returns: build a new array instead."""
    return _once(_evaluate, fn, x)


def _read(fn, coords, seeded=False):
    """One pass of ``fn`` over a sample's coordinate arrays: the components
    as a complex array with the sample axis first, and with ``seeded`` also
    their partials, the last index being the variable.  Constant entries
    broadcast along the sample."""
    size, n = len(coords[0]), len(coords)
    out = _components(fn, jets.seed(coords) if seeded else jets.lift(coords))
    vals = np.empty((size, out.size), dtype=complex)
    grads = np.zeros((size, out.size, n if seeded else 0), dtype=complex)
    for k, e in enumerate(out.flat):
        if isinstance(e, jets.Jet):
            vals[:, k] = e.val
            grads[:, k] = e.grad.T
        else:
            vals[:, k] = e
    vals = vals.reshape((size,) + out.shape)
    if not seeded:
        return vals
    return vals, grads.reshape((size,) + out.shape + (n,))


def _objects(entries, shape):
    """Object array of batched entries; numeric arrays among them become
    plain jets, so numpy never splits an entry into its points."""
    arr = np.empty(len(entries), dtype=object)
    arr[:] = jets.lift(entries)
    return arr.reshape(shape)


def _seeded(fn, x):
    """One pass of ``fn`` at the seeded ``x`` (plain values or jets): object
    arrays of the components and their partials at the level of ``x``, the
    last index being the variable.  Within a pass ``x`` is seeded once, so
    sibling subfields share the seeded coordinates and their components."""
    n = len(x)
    out = _components(fn, _once(jets.seed, x))
    vals = _objects([jets.value(v) for v in out.flat], out.shape)
    grads = _objects([g for v in out.flat for g in jets.gradient(v, n)],
                     out.shape + (n,))
    return vals, grads


# -- field algebra ----------------------------------------------------------
#
# Components are object arrays, so each piece of the algebra is one numpy
# expression.  Jets go on the right of arrays (``arr * jet``): a jet on the
# left would take the whole array as one value.

def differential(f: ScalarField) -> OneFormField:
    return OneFormField(f.chart, lambda x: _seeded(f.fn, x)[1])


def exterior_derivative(alpha: OneFormField, p: Point) -> np.ndarray:
    """Exterior derivative over a sample; antisymmetric matrices with
    ``[s, i, j] = d_i alpha_j - d_j alpha_i`` at the s-th point."""
    J = alpha.jacobian(p)
    return J.swapaxes(-1, -2) - J


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
        # Python floats: an object-dtype np.eye or np.zeros would hold ints;
        # the zero operator is the sum of no terms
        power = np.eye(n).astype(object)
        acc = np.zeros((n, n)).astype(object)
        for k, c in enumerate(coeffs):
            if k > 0:
                power = m if k == 1 else power @ m
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
    fields stay differentiable.  A sample is mapped by reading the map as a
    vector field on its chart, and its image is a :class:`Point` of the
    other chart, so an image on a singular set of that chart raises.
    """

    def __init__(self, src: Chart, dst: Chart, forward: Callable,
                 inverse: Callable):
        self.src = src
        self.dst = dst
        self.forward = forward
        self.inverse = inverse
        self._forward = VectorField(src, forward)
        self._inverse = VectorField(dst, inverse)

    def apply(self, p: Point) -> Point:
        return Point(self.dst, tuple(self._forward(p).T))

    def invert(self, q: Point) -> Point:
        return Point(self.src, tuple(self._inverse(q).T))

    def jacobian(self, p: Point) -> np.ndarray:
        """Forward jacobians ``[s, i, k] = d(dst_i)/d(src_k)`` over a source
        sample."""
        return self._forward.jacobian(p)

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
