"""First-order forward-mode scalars over complex arithmetic, batched over a
sample (vector forward mode).

A :class:`Jet` carries a value together with its gradient with respect to a
fixed tuple of independent variables.  The value is a complex array of shape
``(N,)``, one entry per sample point, and the gradient one array of shape
``(n_vars, N)``, the first index the variable (``(n_vars, 1)`` for a freshly
seeded coordinate, broadcast along the sample); a number in place of the
value, or a gradient of shape ``(n_vars,)``, is a single unbatched point.
Both slots may themselves hold jets (the gradient then an object array of
``n_vars`` entries), so nested differentiation (derivatives of quantities
that already contain derivatives) works without any special casing.

A jet over no variables is a *plain* batched value: it keeps numpy from
splitting a batched entry of a list of components into its points, and
seeding it starts a first-order pass rather than a nested one.

Arithmetic keeps the gradient array on the left of the value it is scaled
by (``self.grad * ov + other.grad * sv``), so an object array of jets
multiplies entry by entry, and every product of two jets rounds the same in
either order.  For rational component functions the derivatives are exact
up to rounding; transcendental entries (``sin``/``cos``/``sqrt``) use the
chain rule on top of numpy's principal branches.

Exact constants stay numbers and cost no array work.  An exact constant is a
Python or numpy scalar (``int``, ``float`` or ``complex``), never an array.
A product with an exact 0 is the number ``0.0``: the constant absorbs its
factor, as it does in exact arithmetic, so only the sign of a zero can
differ from the rounded product (``x * 0`` is ``-0`` for a negative ``x``),
and a non-finite factor is dropped rather than turned into NaN (``verify``
raises on a non-finite value before it can meet a constant).  A product with
an exact 1, and a sum or difference with an exact 0, is the jet itself.  So
the sparse operators and bivectors of a chart change (``J @ L @ Jinv``,
``J @ P @ J.T``) build no jet for a zero entry.  A plain jet never computes
on its empty gradient.
"""

from __future__ import annotations

import numpy as np

# gradient of a plain batched value: no variables
_NO_VARS = np.zeros((0, 1))


class Jet:
    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad if isinstance(grad, np.ndarray) else np.asarray(grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            g = self.grad
            return Jet(self.val + other.val, g + other.grad if len(g) else g)
        if _exactly(other, 0):
            return self
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            g = self.grad
            return Jet(self.val - other.val, g - other.grad if len(g) else g)
        if _exactly(other, 0):
            return self
        return Jet(self.val - other, self.grad)

    def __rsub__(self, other):
        g = self.grad
        return Jet(other - self.val, -g if len(g) else g)

    def __neg__(self):
        g = self.grad
        return Jet(-self.val, -g if len(g) else g)

    def __mul__(self, other):
        g = self.grad
        if isinstance(other, Jet):
            sv, ov = self.val, other.val
            if not len(g):  # plain values meet only plain values
                return Jet(_product(sv, ov), g)
            return Jet(_product(sv, ov),
                       _product(g, ov) + _product(other.grad, sv))
        if _exactly(other, 0):
            return 0.0
        if _exactly(other, 1):
            return self
        return Jet(self.val * other, g * other if len(g) else g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self.grad
        if isinstance(other, Jet):
            ov = other.val
            q = self.val / ov
            return Jet(q, (g - _product(other.grad, q)) / ov if len(g) else g)
        return Jet(self.val / other, g / other if len(g) else g)

    def __rtruediv__(self, other):
        sv, g = self.val, self.grad
        q = other / sv
        return Jet(q, _product(g, -q) / sv if len(g) else g)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("jets support non-negative integer powers only")
        g = self.grad
        if n == 0:
            return Jet(1.0 + 0.0j, g * 0.0 if len(g) else g)
        if not len(g):
            return Jet(self.val ** n, g)
        d = n * self.val ** (n - 1)
        return Jet(self.val ** n, _product(g, d))

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r})"


def _exactly(c, k) -> bool:
    """``c`` is a Python or numpy scalar number equal to ``k``; arrays and
    jets never are."""
    return isinstance(c, (int, float, complex, np.number)) and c == k


def _product(a, b):
    """``a * b``, rounded the same as ``b * a``, for every product of jet
    values and of gradients with values.  numpy's complex multiply may fuse
    a multiply and an add, so its ``a * b`` and ``b * a`` can differ in the
    last bit, and exact cancellations such as ``x . (G x) = 0`` for an
    antisymmetric ``G`` would leave rounding noise.  Gradient terms need it
    too: in a nested jet they are the values of inner jets, and a plain pass
    must round as the seeded pass does.  Jets and object arrays of them
    multiply entry by entry, each entry through this rule."""
    if isinstance(a, Jet) or isinstance(b, Jet):
        return a * b
    return 0.5 * (a * b + b * a)


# -- generic transcendental helpers ----------------------------------------

def sqrt_(x):
    if isinstance(x, Jet):
        s = sqrt_(x.val)
        return Jet(s, x.grad / (2.0 * s))
    return np.sqrt(np.asarray(x, dtype=complex))


def sin_(x):
    if isinstance(x, Jet):
        return Jet(sin_(x.val), _product(x.grad, cos_(x.val)))
    return np.sin(np.asarray(x, dtype=complex))


def cos_(x):
    if isinstance(x, Jet):
        return Jet(cos_(x.val), _product(x.grad, -sin_(x.val)))
    return np.cos(np.asarray(x, dtype=complex))


# -- seeding / extraction ---------------------------------------------------

def _plain(v) -> bool:
    return isinstance(v, Jet) and len(v.grad) == 0


def lift(values):
    """Plain batched values: each array of a coordinate list as a jet over
    no variables; numbers stay numbers."""
    return [Jet(v, _NO_VARS) if isinstance(v, np.ndarray) else v
            for v in values]


def seed(values):
    """Wrap a coordinate list so that evaluating a function of the result
    yields the function value and all first partials in one pass.

    Batched values (arrays, plain jets) get gradients of shape
    ``(n, 1)`` that broadcast along the sample; jets over variables are
    nested; numbers alone are one unbatched point.
    """
    n = len(values)
    rows = np.eye(n)
    if any(isinstance(v, np.ndarray) or _plain(v) for v in values):
        rows = rows[:, :, None]
    return [Jet(v.val if _plain(v) else v, rows[i])
            for i, v in enumerate(values)]


def value(v):
    return v.val if isinstance(v, Jet) else v
