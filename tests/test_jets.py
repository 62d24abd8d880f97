"""Forward-mode jet arithmetic against closed forms and the
finite-difference oracle."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haantjeskit import Chart, Point, ScalarField, jets
from haantjeskit.jets import Jet, cos_, sin_, sqrt_

from conftest import fd_gradient

finite_complex = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                                    allow_nan=False, allow_infinity=False)


def test_seed_gradients_are_unit_vectors():
    xs = jets.seed([1.0, 2.0, 3.0])
    for i, x in enumerate(xs):
        assert x.grad[i] == 1.0
        assert sum(abs(g) for j, g in enumerate(x.grad) if j != i) == 0.0


def test_rational_function_gradient_exact():
    x, y = jets.seed([2.0 + 0.0j, 3.0 + 0.0j])
    f = (x * x * y + 1.0) / (y - x)
    # f = (x^2 y + 1)/(y - x); df/dx = (2xy (y-x) + (x^2 y + 1))/(y-x)^2
    assert abs(f.val - 13.0) < 1e-14
    assert abs(f.grad[0] - (12.0 + 13.0)) < 1e-12
    assert abs(f.grad[1] - (4.0 - 13.0)) < 1e-12


@given(st.lists(finite_complex, min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_polynomial_gradient_matches_fd(coords):
    def fn(x):
        acc = 1.0
        for i, v in enumerate(x):
            acc = acc + (i + 1) * v + v * v * x[0]
        return acc

    xs = jets.seed(list(coords))
    got = np.array(list(fn(xs).grad), dtype=complex)
    want = fd_gradient(fn, coords, h=1e-5)
    assert np.max(np.abs(got - want)) < 1e-6 * (1.0 + np.max(np.abs(want)))


def test_transcendental_chain_rule():
    (x,) = jets.seed([0.7 + 0.2j])
    f = sin_(x) * cos_(x) + sqrt_(x + 2.0)
    v = 0.7 + 0.2j
    want_val = cmath.sin(v) * cmath.cos(v) + cmath.sqrt(v + 2.0)
    want_der = cmath.cos(2.0 * v) + 0.5 / cmath.sqrt(v + 2.0)
    assert abs(f.val - want_val) < 1e-14
    assert abs(f.grad[0] - want_der) < 1e-13


def test_nested_jets_second_derivative():
    # second derivative of x^3 at x = 2 is 12, via one jet level inside
    # another
    def d1(xval):
        (x,) = jets.seed([xval])
        return (x * x * x).grad[0]

    (outer,) = jets.seed([2.0 + 0.0j])
    second = d1(outer).grad[0]
    assert abs(jets.value(second) - 12.0) < 1e-12


def test_division_and_reciprocal():
    x, y = jets.seed([4.0 + 0.0j, 2.0 + 0.0j])
    f = 1.0 / x + y / x
    assert abs(f.val - 0.75) < 1e-14
    assert abs(f.grad[0] - (-1.0 / 16.0 - 2.0 / 16.0)) < 1e-14
    assert abs(f.grad[1] - 0.25) < 1e-14


def test_integer_powers_only():
    (x,) = jets.seed([2.0 + 0.0j])
    assert abs((x ** 3).val - 8.0) < 1e-14
    assert abs((x ** 0).val - 1.0) < 1e-14
    with pytest.raises(TypeError):
        x ** 0.5
    with pytest.raises(TypeError):
        x ** (-1)


def test_value_and_gradient_of_constants():
    """A number is its own value, and a constant among jets is read with
    zero partials."""
    assert jets.value(3.5) == 3.5
    F = ScalarField(Chart("t2", 2), lambda x: 3.5)
    val, grad = F.jet(Point(F.chart, (0.5, -1.0)))
    assert val.tolist() == [3.5] and grad.tolist() == [[0.0, 0.0]]


@given(finite_complex, finite_complex)
@settings(max_examples=50, deadline=None)
def test_product_rule(a, b):
    x, y = jets.seed([a, b])
    f = x * y
    assert abs(f.grad[0] - b) < 1e-12
    assert abs(f.grad[1] - a) < 1e-12


def test_repr_mentions_value():
    j = Jet(1.0, (0.5,))
    assert "Jet" in repr(j)


def test_array_transcendentals_match_cmath_principal_branch():
    """``sqrt_``, ``sin_`` and ``cos_`` of an array agree, entry by entry and
    to rounding, with :mod:`cmath`; for ``sqrt_`` the sign of a zero
    imaginary part picks the side of the cut on the negative real axis, as
    in ``cmath``."""
    rng = np.random.default_rng(3)
    zs = [complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-2.5, -0.0),
          complex(-1e-300, 0.0), complex(-1e-300, -0.0), complex(0.0, 0.0),
          complex(-0.0, -0.0), complex(3.0, 4.0), complex(-3.0, 4.0),
          complex(-3.0, -4.0), complex(0.5, -1e-12), complex(-7.25, 1e-300)]
    zs += [complex(a, b) for a, b in rng.uniform(-3.0, 3.0, (50, 2))]
    arr = np.array(zs)
    for ours, ref in ((sqrt_, cmath.sqrt), (sin_, cmath.sin),
                      (cos_, cmath.cos)):
        got = ours(arr)
        want = np.array([ref(z) for z in zs])
        assert got.shape == arr.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), ref
    root = sqrt_(arr)
    want = np.array([cmath.sqrt(z) for z in zs])
    assert np.array_equal(np.signbit(root.imag), np.signbit(want.imag))
    assert np.array_equal(np.signbit(root.real), np.signbit(want.real))
    # a real negative number lies on the upper side of the cut, as in cmath
    assert sqrt_(-4.0) == cmath.sqrt(-4.0) == 2j


def test_batched_jet_equals_pointwise_jets():
    """A jet over a sample carries, point by point, the value and gradient
    of one-point jets: arithmetic and the transcendental chain rule act
    entry by entry along the sample axis."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (7, 3)) + 1j * rng.uniform(-1.0, 1.0, (7, 3))

    def fn(x):
        return (sqrt_(x[0] * x[1] + 3.0) / (x[2] - 4.0)
                + sin_(x[1]) * cos_(x[0]))

    batched = fn(jets.seed(list(pts.T)))
    assert batched.val.shape == (7,)
    assert np.broadcast_to(batched.grad, (3, 7)).shape == (3, 7)
    for s, p in enumerate(pts):
        one = fn(jets.seed(list(p)))
        assert abs(batched.val[s] - one.val) <= 1e-15 * abs(one.val)
        assert np.max(np.abs(batched.grad[:, s] - one.grad)) \
            <= 1e-14 * (1.0 + np.max(np.abs(one.grad)))


def test_products_round_the_same_in_either_order():
    """Every product of two batched jets rounds the same in either order,
    value and gradient, so antisymmetric contractions cancel exactly, as
    they do in scalar arithmetic: x . (G x) = 0 for G = [x]_x."""
    rng = np.random.default_rng(11)
    cols = (rng.uniform(-2.0, 2.0, (3, 64))
            + 1j * rng.uniform(-1.0, 1.0, (3, 64)))
    a, b, c = jets.seed(list(cols))
    u = a * b + c
    for p, q in ((a, b), (u, c), (u, a * c)):
        assert np.array_equal((p * q).val, (q * p).val)
        assert np.array_equal((p * q).grad, (q * p).grad)
    for x in (jets.lift(list(cols)), jets.seed(list(cols))):
        x0, x1, x2 = x
        G = np.array([[0.0, x2, -x1], [-x2, 0.0, x0], [x1, -x0, 0.0]],
                     dtype=object)
        xv = np.array(x, dtype=object)
        q = xv @ (G @ xv)
        assert np.all(q.val == 0.0)
        assert np.all(q.grad == 0.0)


def _one_of_each_kind():
    """A plain, a seeded and a nested jet over a sample of two points."""
    cols = list(np.array([[1.0 + 2.0j, -0.5], [3.0, 0.25j]]))
    return {"plain": jets.lift(cols)[0], "seeded": jets.seed(cols)[0],
            "nested": jets.seed(jets.seed(cols))[0]}


@pytest.mark.parametrize("kind", ["plain", "seeded", "nested"])
def test_exact_constants_do_no_array_work(kind):
    """A product with an exact 0 is the number 0.0; a product with an exact
    1, and a sum or difference with an exact 0, is the jet itself.  Arrays
    are never exact constants."""
    x = _one_of_each_kind()[kind]
    for zero in (0, 0.0, 0j, np.float64(0)):
        for product in (x * zero, zero * x):
            assert type(product) is float and product == 0.0, repr(zero)
        assert x + zero is x and zero + x is x and x - zero is x
    for one in (1, 1.0):
        assert x * one is x and one * x is x
    assert isinstance(x * np.zeros(2), Jet)
    assert isinstance(x + np.zeros(2), Jet)


def test_plain_jets_never_compute_on_their_gradient():
    x = _one_of_each_kind()["plain"]
    y = jets.lift([np.array([2.0, 5.0j])])[0]
    for result in (-x, x - y, 2.0 - x, x * 3.0, x / 3.0, 3.0 / x, x / y,
                   x ** 0, x ** 2):
        assert result.grad is x.grad
