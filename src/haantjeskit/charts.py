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

Every field kind is read in the same two modes over a whole sample, never
point by point: ``f(p)`` evaluates the component function on the plain
coordinates, and ``f.jet(p)`` on seeded jets, giving the components and
their partials (last index the variable).  Results are read-only numeric
arrays with the sample axis first: ``(N,) + shape`` for the components
and ``(N,) + shape + (dim,)`` for the partials.  ``f.jacobian(p)`` is
``f.jet(p)[1]``, and a scalar field's ``gradient`` is its ``jacobian``.
Derived fields and chart maps take partials through the same seeded pass,
:func:`_seeded`, which also accepts coordinates that are already jets.
Reads share their work within a pass: one read, or one call of a sample
function by :func:`~haantjeskit.report.sampled`.  In a pass each component
function, subfields included, runs once per coordinate list and mode, and
each sample is lifted once and seeded once; the memo ends with the pass.

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
    "differential", "exterior_derivative", "wedge", "diagonal_operator",
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
    ``"d"`` lower, for :func:`~haantjeskit.poisson.lie_derivative` and
    :meth:`ChartMap.push`.  A scalar's components are one number per point.
    """

    def __init__(self, chart: Chart, fn: Callable):
        self.chart = chart
        self.fn = fn

    def __call__(self, p: Point) -> np.ndarray:
        """Components from a plain pass, shape ``(N,) + shape``."""
        _same_chart(self.chart, p.chart)
        return _once(_read, self.fn, p.coords, False)

    def jet(self, p: Point) -> tuple:
        """Components and their partials from one seeded pass; the last
        index of the partials is the variable, so a vector's ``[s, i, k]``
        is the k-th partial of the i-th component at the s-th point."""
        _same_chart(self.chart, p.chart)
        return _once(_read, self.fn, p.coords, True)

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

# Points per pass: `report.sampled` calls its sample function, and
# `integrate_flow` reads its invariants, on blocks of at most BLOCK points,
# so BLOCK bounds the memory of a pass.  A jet pass is mostly Python-level
# work whose cost hardly depends on the sample size, so fewer passes are
# faster.  Measured with `bench/run.py --workload geometry-large --seconds
# 30` (200 points a check) on a shared 2-vCPU Xeon VM, medians of 4
# rotating runs at seeds 42 and 7: BLOCK = 64 gave a norm_wall_s of 0.262 s
# and a peak RSS of 42.98 MB, BLOCK = 256 gave 0.140 s and 43.35 MB.
BLOCK = 256


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


def _read(fn, coords, seeded):
    """One read of ``fn`` over a sample's coordinate arrays: the components
    as a read-only complex array with the sample axis first, and with
    ``seeded`` also their read-only partials, the last index being the
    variable.  Constant entries broadcast along the sample.  The readers
    call it through `_once`, and it lifts and seeds the sample through
    `_once`, so a derived field that seeds ``F`` shares ``F.jet(p)``'s."""
    size, width = len(coords[0]), len(coords) if seeded else 0
    x = _once(jets.lift, coords)
    out = _components(fn, _once(jets.seed, x) if seeded else x)
    vals = np.empty((size, out.size), dtype=complex)
    grads = np.zeros((size, out.size, width), dtype=complex)
    for k, e in enumerate(out.flat):
        vals[:, k] = jets.value(e)
        if isinstance(e, jets.Jet):
            grads[:, k] = e.grad.T
    vals = vals.reshape((size,) + out.shape)
    grads = grads.reshape((size,) + out.shape + (width,))
    vals.flags.writeable = grads.flags.writeable = False
    return (vals, grads) if seeded else vals


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

def _derived(kind, combine, *fields, coefficients=()):
    """The one rule for combining fields: a ``kind`` field on the chart of
    ``fields``, with components ``combine`` of the fields' and then of the
    coefficients' (each field read once per pass through the memo, each
    number as it is).  Anything but a field among ``fields``, a coefficient
    that `_coefficient` refuses, or a part on another chart raises here."""
    for q in fields:
        if not isinstance(q, _Field):
            raise TypeError(f"{q!r} is not a field")
    parts = [*fields, *map(_coefficient, coefficients)]
    for q in parts[1:]:
        if isinstance(q, _Field):
            _same_chart(parts[0].chart, q.chart)
    return kind(parts[0].chart, lambda x: combine(*(
        _components(q.fn, x) if isinstance(q, _Field) else q for q in parts)))


def _coefficient(s):
    """``s``, refused with ``TypeError`` unless a number or a scalar field."""
    if not (isinstance(s, (int, float, complex, np.number, ScalarField))
            or getattr(s, "is_complex", None) is True):  # a sympy number
        raise TypeError(f"coefficient {s!r} is not a number or a ScalarField")
    return s


def differential(f: ScalarField) -> OneFormField:
    return OneFormField(f.chart, lambda x: _seeded(f.fn, x)[1])


def exterior_derivative(alpha: OneFormField, p: Point) -> np.ndarray:
    """Exterior derivative over a sample; antisymmetric matrices with
    ``[s, i, j] = d_i alpha_j - d_j alpha_i`` at the s-th point."""
    J = alpha.jacobian(p)
    return J.swapaxes(-1, -2) - J


def wedge(X: VectorField, Z: VectorField) -> BivectorField:
    def antisymmetrized(u, v):
        outer = np.outer(u, v)
        return outer - outer.T

    return _derived(BivectorField, antisymmetrized, X, Z)


def apply_operator(L: OperatorField, X: VectorField) -> VectorField:
    return _derived(VectorField, lambda m, v: m @ v, L, X)


def apply_transpose(L: OperatorField, alpha: OneFormField) -> OneFormField:
    return _derived(OneFormField, lambda m, a: m.T @ a, L, alpha)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    _same_chart(X.chart, Y.chart)

    def fn(x):
        xv, xg = _seeded(X.fn, x)
        yv, yg = _seeded(Y.fn, x)
        # one elementwise sum, so the rounding follows the index order
        return (xv * yg - yv * xg).sum(axis=1)

    return VectorField(X.chart, fn)


def add_fields(a, b):
    if type(a) is not type(b):
        raise TypeError("can only add fields of the same kind")
    return _derived(type(a), lambda u, v: u + v, a, b)


def scale_field(s, f):
    """Multiply a field by a coefficient ``s``: a number, or a scalar field
    on ``f``'s chart, read through the pass like ``f``."""
    return _derived(type(f), lambda v, c: v * c, f, coefficients=[s])


def compose_operators(L: OperatorField, M: OperatorField) -> OperatorField:
    return _derived(OperatorField, lambda m, n: m @ n, L, M)


def operator_polynomial(L: OperatorField, coeffs: Sequence) -> OperatorField:
    """``sum_k coeffs[k] L^k``; each coefficient as for :func:`scale_field`."""
    n = L.chart.dim

    def polynomial(m, *cs):
        # Python floats: an object-dtype np.eye or np.zeros would hold ints;
        # the zero operator is the sum of no terms
        power = np.eye(n).astype(object)
        acc = np.zeros((n, n)).astype(object)
        for k, c in enumerate(cs):
            if k > 0:
                power = m if k == 1 else power @ m
            acc = acc + power * c
        return acc

    return _derived(OperatorField, polynomial, L, coefficients=coeffs)


def diagonal_operator(V: VectorField) -> OperatorField:
    """The operator with ``V``'s components on its diagonal."""
    return _derived(OperatorField, np.diag, V)


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

    :meth:`push` moves a field of every kind by one rule: one contraction
    per slot, with the forward jacobian or the jacobian of the inverse
    map, so no matrix inversion is ever performed and moved fields stay
    differentiable.  A sample is mapped by reading the map as a vector
    field on its chart, and its image is a :class:`Point` of the other
    chart, so an image on a singular set of that chart raises.
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

    def push(self, T):
        """``T`` on the other chart: its components at the preimage, each
        slot contracted in order, an upper one with the forward jacobian
        ``J`` and a lower one with the inverse map's jacobian ``Jinv``, so
        a bivector goes to ``J @ P @ J.T`` and an operator to
        ``J @ L @ Jinv``; a scalar keeps its value."""
        _same_chart(self.src, T.chart)

        def fn(xi):
            if "d" in T.slots:
                x, Jinv = _seeded(self.inverse, xi)  # Jinv[src_k][dst_j]
                x = list(x)
            else:
                x = self.inverse(xi)
            out = _components(T.fn, x)
            J = _seeded(self.forward, x)[1] if T.slots else None
            for k, slot in enumerate(T.slots):
                A = J if slot == "u" else Jinv.T
                out = A @ out if k == 0 else out @ A.T
            return out

        return type(T)(self.dst, fn)
