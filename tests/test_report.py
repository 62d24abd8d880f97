"""The sampled-identity primitive: every point judged against its own
scale, one pass per block, NaN propagation, and the one way results are
combined."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haantjeskit import Chart, OperatorField, is_haantjes, sample_points
from haantjeskit.charts import BLOCK
from haantjeskit.jets import value
from haantjeskit.poisson import _jacobi
from haantjeskit.report import (SLICE, SampledResidual, _max_abs,
                                _sliced_max, check_from_residual, matches,
                                sampled, worst)
from haantjeskit.torsion import _haantjes_components, _nijenhuis_components

from conftest import random_complex

NAN = float("nan")
# The primitive only takes the sample's length and hands the sample to the
# identity, so an array of point indices stands in for a sample here.
SAMPLE = np.arange(3.0)


def vectors(*columns):
    """One vector per point, from per-point arrays or constants."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def test_pointwise_scale_is_the_largest_pointwise_value():
    sr = sampled(SAMPLE, lambda p: (1e-12 * p, 1.0 + p), 1e-9)
    assert (sr.residual, sr.scale, sr.points) == (2e-12, 3.0, 3)
    assert sr.passed


def test_pointwise_scale_never_below_one():
    assert sampled(SAMPLE, lambda p: (0.0, 0.5), 1e-9).scale == 1.0
    # a residual with no magnitudes
    sr = sampled(SAMPLE, lambda p: (1e-12 * p,), 1e-12)
    assert (sr.residual, sr.scale, sr.passed) == (2e-12, 1.0, False)


def test_pointwise_scale_over_several_magnitudes():
    sr = sampled(SAMPLE, lambda p: (0.0, 2.0 + p, 5.0 - p), 1e-9)
    assert sr.scale == 5.0


def test_one_block_goes_to_the_identity_as_it_is():
    seen = []

    def at(p):
        seen.append(p)
        return 2.0 * p, 10.0

    sr = sampled(SAMPLE, at, 1.0)
    # one call, with the sample itself, not a copy
    assert len(seen) == 1 and seen[0] is SAMPLE
    assert (sr.residual, sr.tolerance, sr.scale) == (4.0, 1.0, 10.0)


def test_large_sample_is_judged_in_blocks():
    """A sample longer than ``BLOCK`` goes to the identity in consecutive
    blocks, and the maxima, a NaN included, are taken over all of them."""
    sample = np.arange(2.5 * BLOCK)
    seen = []

    def at(p):
        seen.append(p)
        return np.where(p == len(sample) - 1, NAN, 1e-15), 1.0 + p

    sr = sampled(sample, at, 1e-9)
    assert [len(p) for p in seen] == [BLOCK, BLOCK, BLOCK // 2]
    assert np.array_equal(np.concatenate(seen), sample)
    assert math.isnan(sr.residual) and sr.points == len(sample)
    assert sr.scale == len(sample)
    ok = sampled(sample, lambda p: (1e-12 * (p == 7), 1.0), 1e-9)
    assert (ok.residual, ok.passed) == (1e-12, True)


# Points per kernel call at each dimension n, SLICE // n**3: a slice of
# an (N, n, n, n) temporary holds at most SLICE entries.
SLICE_POINTS = {2: 864, 3: 256, 4: 108, 6: 32}


def _slice_cases():
    """Sizes on both sides of each dimension's slice length, and the
    200 points of a large geometry run; the cases at n = 6 are named by
    their size alone."""
    for n, step in SLICE_POINTS.items():
        sizes = {1, step - 1, step, step + 1, 200}
        if n == 6:
            sizes |= {2 * step - 1, 2 * step, 2 * step + 1}
        for points in sorted(sizes):
            yield pytest.param(n, points,
                               id=str(points) if n == 6 else f"n{n}-{points}")


@pytest.mark.parametrize("n, points", _slice_cases())
def test_sliced_kernels_match_the_whole_sample(n, points):
    """The torsion and Jacobi kernels reduced slice by slice give the
    per-point maxima of the kernel over the whole sample, bit for bit; no
    kernel call spans more than ``SLICE`` entries of an (N, n, n, n)
    array, and a sample takes as few calls as that allows: at 200 points,
    1, 1, 2 and 7 at n = 2, 3, 4 and 6."""
    assert SLICE_POINTS[n] == SLICE // n ** 3
    rng = np.random.default_rng(points)
    Lc, Pc = (random_complex(rng, points, n, n) for _ in range(2))
    Ld, Pd = (random_complex(rng, points, n, n, n) for _ in range(2))
    for kernel, c, d in [(_nijenhuis_components, Lc, Ld),
                         (_haantjes_components, Lc, Ld),
                         (_jacobi, Pc, Pd)]:
        calls = []

        def seen(a, b):
            calls.append((a, b))
            return kernel(a, b)

        sliced = _sliced_max(seen, c, d)
        assert sliced.shape == (points,)
        assert np.array_equal(sliced, _max_abs(kernel(c, d)))
        assert max(len(a) for a, _ in calls) * n ** 3 <= SLICE
        assert len(calls) == -(-points // SLICE_POINTS[n])


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        sampled([], lambda p: (0.0, 1.0), 1e-9)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_nan_residual_fails_at_any_point(where):
    def at(p):
        return np.where(p == where, NAN, 1e-15), 1.0

    sr = sampled(SAMPLE, at, 1e-9)
    assert math.isnan(sr.residual)
    assert not sr.passed
    assert check_from_residual(
        "x", "", "", sampled(SAMPLE, at, 1e-9)).status == "fail"


@pytest.mark.parametrize("tol", [0.0, -1.0, NAN, math.inf, -math.inf,
                                 True, "1e-3", 1e-3j, None])
def test_tolerance_must_be_finite_and_positive(tol):
    """A tolerance that is not a finite positive real number is refused
    where it enters, by ``sampled`` and so by every judge that hands its
    ``tol`` on: the worst point is the one with the largest
    ``residual / scale / tol``, which only a finite positive ``tol`` keeps
    the one with the largest ``residual / scale``."""
    sample = np.arange(4.0)
    residuals = np.array([0.0, 1e-3, 0.0, 2.0])
    with pytest.raises(ValueError, match="tolerance"):
        sampled(sample, lambda p: (residuals,), tol)
    L = OperatorField(Chart("tol2", 2), lambda x: [[x[1], 0.0], [0.0, x[0]]])
    with pytest.raises(ValueError, match="tolerance"):
        is_haantjes(L, sample_points(L.chart, 4, 0), tol)
    sr = sampled(sample, lambda p: (residuals,), 1e-3)
    assert (sr.residual, sr.passed) == (2.0, False)


def test_nan_magnitude_fails():
    sr = sampled(SAMPLE, lambda p: (0.0, np.where(p == 1, NAN, 1.0)), 1e-9)
    assert math.isnan(sr.scale)
    assert not sr.passed
    # an overflow: an infinite residual at an infinite scale
    assert not SampledResidual(math.inf, 1e-9, math.inf, 3).passed


def test_is_haantjes_nan_at_later_point_fails():
    chart = Chart("nan2", 2)
    sample = sample_points(chart, 5, 3)
    bad = sample[2].coords[0]

    def fn(x):
        w = np.where(value(x[0]) == bad, NAN, 1.0)
        return [[x[1] * w, 0.0], [0.0, x[0]]]

    L = OperatorField(chart, fn)
    assert is_haantjes(L, sample[:2]).passed
    sr = is_haantjes(L, sample)
    assert math.isnan(sr.residual)
    assert not sr.passed


def test_matches_takes_largest_residual_at_scale_of_g():
    # plain callables stand in for fields; the offsets are exact in binary
    G = lambda p: vectors(1.0, -3.0, p)[:, :2]
    F1 = lambda p: vectors(1.0 + 0.25 * p, -3.0)
    F2 = lambda p: vectors(1.0, -3.0 - 0.5 * p)
    sr = sampled(SAMPLE, matches(G, F1, F2), 1e-9)
    assert (sr.residual, sr.scale, sr.points) == (1.0, 4.0, 3)
    assert sampled(SAMPLE, matches(G, F1), 1e-9).residual == 0.5
    assert sampled(SAMPLE, matches(G, G, G), 1e-9).residual == 0.0


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad", ["G", "F1", "F2"])
def test_matches_nan_in_any_field_fails(bad, where):
    def field(name):
        return lambda p: vectors(
            np.where((name == bad) & (p == where), NAN, 1.0), 2.0)

    at = matches(field("G"), field("F1"), field("F2"))
    assert check_from_residual(
        "x", "", "", sampled(SAMPLE, at, 1e-9)).status == "fail"


def test_large_scale_at_one_point_does_not_cover_another():
    """A residual that fails at its own point fails the check, whatever
    scale another point of the sample has, in the same block or not."""
    def at(p):
        return np.where(p == 0, 5e-9, 0.0), np.where(p == 1, 1e3, 1.0)

    sr = sampled(SAMPLE[:2], at, 1e-9)
    assert (sr.residual, sr.scale, sr.passed) == (5e-9, 1.0, False)
    sample = np.arange(2.5 * BLOCK)
    for bad, big in [(0, BLOCK), (2 * BLOCK + 3, 5), (BLOCK - 1, BLOCK)]:
        sr = sampled(sample, lambda p: (np.where(p == bad, 5e-9, 0.0),
                                        np.where(p == big, 1e6, 1.0)), 1e-9)
        assert (sr.residual, sr.scale, sr.passed) == (5e-9, 1.0, False)
        assert sr.points == len(sample)


def test_worst_fails_when_any_part_fails():
    """A passing result of larger scale does not cover a failing one."""
    a = SampledResidual(5e-9, 1e-9, 1.0, 3)
    b = SampledResidual(1e-8, 1e-9, 1e3, 3)
    assert not a.passed and b.passed
    assert worst([a, b]) is a and worst([b, a]) is a


_ENTRY = st.one_of(st.floats(0.0, 1e3), st.just(NAN))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=2,
                max_size=2 * BLOCK + 5), st.data())
def test_sample_judged_as_the_worse_of_its_halves(entries, data):
    """Judging a sample gives the pass, residual and scale of the worse of
    judging its two halves, wherever the cut falls."""
    r, s = (np.array(column) for column in zip(*entries))
    sample = np.arange(len(entries))
    cut = data.draw(st.integers(1, len(entries) - 1))

    def at(p):
        return r[p] * 1e-9, s[p]

    whole = sampled(sample, at, 1e-9)
    halves = worst([sampled(sample[:cut], at, 1e-9),
                    sampled(sample[cut:], at, 1e-9)])
    assert whole.passed == halves.passed
    np.testing.assert_equal((whole.residual, whole.scale),
                            (halves.residual, halves.scale))
    assert whole.points == len(sample)


def test_worst_keeps_its_own_scale_and_prefers_nan():
    a = SampledResidual(1e-12, 1e-9, 5.0, 3)
    b = SampledResidual(1e-10, 1e-9, 2.0, 3)
    n = SampledResidual(NAN, 1e-9, 1.0, 3)
    assert worst([a, b]) is b
    assert worst([a, n, b]) is n
    assert worst([a, b], points=6) == SampledResidual(1e-10, 1e-9, 2.0, 6)
