"""The sampled-identity primitive: maxima over the sample, the two scale
rules, several residuals from one pass, NaN propagation, and the ways
results are combined."""

import math

import numpy as np
import pytest

from haantjeskit import Chart, OperatorField, is_haantjes, sample_points
from haantjeskit.jets import value
from haantjeskit.report import (SampledResidual, identity_check, matches,
                                merge, sampled, worst)

NAN = float("nan")
# The primitive only iterates over the sample, so plain integers stand in
# for points here.
SAMPLE = [0, 1, 2]


def test_pointwise_scale_is_the_largest_pointwise_value():
    sr = sampled(SAMPLE, lambda p: (1e-12 * p, 1.0 + p), 1e-9)
    assert (sr.residual, sr.scale, sr.points) == (2e-12, 3.0, 3)
    assert sr.passed


def test_pointwise_scale_never_below_one():
    assert sampled(SAMPLE, lambda p: (0.0, 0.5), 1e-9).scale == 1.0


def test_pointwise_scale_over_several_magnitudes():
    sr = sampled(SAMPLE, lambda p: (0.0, 2.0 + p, 5.0 - p), 1e-9)
    assert sr.scale == 5.0


def test_sample_wide_scale_is_a_function_of_the_maxima():
    # pointwise products would peak at 4; the maxima give (1 + 2)(1 + 2)
    sr = sampled(SAMPLE, lambda p: (0.0, float(p), 2.0 - p), 1e-9,
                 scale=lambda m, d: (1.0 + m) * (1.0 + d))
    assert sr.scale == 9.0


def test_several_residuals_from_one_pass():
    seen = []

    def at(p):
        seen.append(p)
        return p, 2.0 * p, 10.0

    a, b = sampled(SAMPLE, at, (1.0, 2.0))
    assert seen == SAMPLE
    assert (a.residual, a.tolerance, a.scale) == (2.0, 1.0, 10.0)
    assert (b.residual, b.tolerance, b.scale) == (4.0, 2.0, 10.0)
    m, d = sampled(SAMPLE, lambda p: (p, -p, 1.0), (1.0, 1.0),
                   scale=lambda s: (s, 2.0 * s))
    assert (m.scale, d.scale) == (1.0, 2.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        sampled([], lambda p: (0.0, 1.0), 1e-9)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_nan_residual_fails_at_any_point(where):
    def at(p):
        return (NAN if p == where else 1e-15), 1.0

    sr = sampled(SAMPLE, at, 1e-9)
    assert math.isnan(sr.residual)
    assert not sr.passed
    assert identity_check("x", "", "", SAMPLE, at, 1e-9).status == "fail"


@pytest.mark.parametrize("scale", [None, lambda m: 1.0 + m])
def test_nan_magnitude_fails(scale):
    sr = sampled(SAMPLE, lambda p: (0.0, NAN if p == 1 else 1.0), 1e-9,
                 scale)
    assert math.isnan(sr.scale)
    assert not sr.passed


def test_is_haantjes_nan_at_later_point_fails():
    chart = Chart("nan2", 2)
    sample = sample_points(chart, 5, 3)
    bad = sample[2].coords[0]

    def fn(x):
        w = NAN if complex(value(x[0])) == bad else 1.0
        return [[x[1] * w, 0.0], [0.0, x[0]]]

    L = OperatorField(chart, fn)
    assert is_haantjes(L, sample[:2]).passed
    sr = is_haantjes(L, sample)
    assert math.isnan(sr.residual)
    assert not sr.passed


def test_matches_takes_largest_residual_at_scale_of_g():
    # plain callables stand in for fields; the offsets are exact in binary
    G = lambda p: np.array([1.0, -3.0])
    F1 = lambda p: np.array([1.0 + 0.25 * p, -3.0])
    F2 = lambda p: np.array([1.0, -3.0 - 0.5 * p])
    sr = sampled(SAMPLE, matches(G, F1, F2), 1e-9)
    assert (sr.residual, sr.scale, sr.points) == (1.0, 4.0, 3)
    assert sampled(SAMPLE, matches(G, F1), 1e-9).residual == 0.5
    assert sampled(SAMPLE, matches(G, G, G), 1e-9).residual == 0.0


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad", ["G", "F1", "F2"])
def test_matches_nan_in_any_field_fails(bad, where):
    def field(name):
        return lambda p: np.array(
            [NAN if (name, p) == (bad, where) else 1.0, 2.0])

    at = matches(field("G"), field("F1"), field("F2"))
    assert identity_check("x", "", "", SAMPLE, at, 1e-9).status == "fail"


def test_merge_takes_largest_residual_and_scale():
    a = SampledResidual(1e-12, 1e-9, 5.0, 3)
    b = SampledResidual(1e-10, 1e-9, 2.0, 3)
    m = merge([a, b])
    assert (m.residual, m.tolerance, m.scale, m.points) == \
        (1e-10, 1e-9, 5.0, 3)
    assert merge([a, b], points=6).points == 6
    assert not merge([a, SampledResidual(NAN, 1e-9, 1.0, 3)]).passed


def test_worst_keeps_its_own_scale_and_prefers_nan():
    a = SampledResidual(1e-12, 1e-9, 5.0, 3)
    b = SampledResidual(1e-10, 1e-9, 2.0, 3)
    n = SampledResidual(NAN, 1e-9, 1.0, 3)
    assert worst([a, b]) is b
    assert worst([a, n, b]) is n
