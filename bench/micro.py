"""Micro-timings of single public operations, on fixed inputs built from the
benchmark seed.  Each operation runs once before it is timed, so lazy
set-up is not counted; the figure is the median over repeats of the mean
time per call."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from haantjeskit import (Chart, Check, Point, VerificationReport, algebra_rank,
                         constant_operator, haantjes_torsion, jacobi_residual,
                         lie_derivative_operator, minimal_polynomial,
                         sample_points)
from haantjeskit.jets import Jet, seed as seed_jets
from haantjeskit.lagrange import (TopParams, benenti_operators, body_chart,
                                  complex_chart, integrate_flow,
                                  nijenhuis_operator, poisson_bivectors,
                                  x_fields_complex)

REPEATS = 5
TARGET_S = 0.02  # per repeat
SAMPLE_POINTS = 200
FLOW_STEPS = 2000


def per_call_s(fn) -> float:
    fn()
    number = 1
    while True:
        t0 = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= TARGET_S:
            break
        number *= 2 if elapsed <= 0 else max(2, int(TARGET_S / elapsed) + 1)
    times = [elapsed / number]
    for _ in range(REPEATS - 1):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def _complex(rng, *shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def measure(seed: int, report: dict) -> dict:
    """Per-operation timings in the units their metric names carry;
    ``report`` is a parsed verify report used for the serializer timing."""
    rng = np.random.default_rng(seed)
    us = 1e6
    a, b = (Jet(complex(v), tuple(complex(g) for g in _complex(rng, 6)))
            for v in _complex(rng, 2))
    x = seed_jets(seed_jets([complex(v) for v in _complex(rng, 6)]))
    na, nb = x[0] * x[1] + x[2], x[3] * x[4] + x[5]

    params = TopParams(c=2.0)
    N = nijenhuis_operator(params)
    p = sample_points(complex_chart(params), 1, seed)[0]
    gens = benenti_operators(params, N)
    Z = x_fields_complex(params)[0]
    P = poisson_bivectors(params)[2]
    q = sample_points(body_chart(), 1, seed)[0]
    chart6 = Chart("bench6", 6)
    K = constant_operator(chart6, _complex(rng, 6, 6).tolist())
    r = Point(chart6, tuple(complex(v) for v in _complex(rng, 6)))
    y0 = rng.uniform(-1.0, 1.0, 6)
    rep = VerificationReport(report["suite"], report["seed"], report["params"],
                             [Check(**c) for c in report["checks"]])
    chart = complex_chart(params)

    return {
        "jets.mul_us": per_call_s(lambda: a * b) * us,
        "jets.add_us": per_call_s(lambda: a + b) * us,
        "jets.nested_mul_us": per_call_s(lambda: na * nb) * us,
        "charts.op_eval_us": per_call_s(lambda: N(p)) * us,
        "charts.op_jacobian_us": per_call_s(lambda: N.jacobian(p)) * us,
        "torsion.haantjes_us": per_call_s(lambda: haantjes_torsion(K, r)) * us,
        "algebra.minimal_polynomial_us":
            per_call_s(lambda: minimal_polynomial(N, p)) * us,
        "algebra.algebra_rank_us":
            per_call_s(lambda: algebra_rank(gens, p)) * us,
        "poisson.jacobi_us": per_call_s(lambda: jacobi_residual(P, q)) * us,
        "poisson.lie_derivative_operator_us":
            per_call_s(lambda: lie_derivative_operator(Z, N, p)) * us,
        "sampling.us_per_point":
            per_call_s(lambda: sample_points(chart, SAMPLE_POINTS, seed))
            * us / SAMPLE_POINTS,
        "lagrange.flow_steps_per_s":
            FLOW_STEPS / per_call_s(
                lambda: integrate_flow(params, y0, 1e-3, FLOW_STEPS * 1e-3)),
        "report.to_json_ms": per_call_s(rep.to_json) * 1e3,
    }
