"""Fixed-step fourth-order integration of the body-frame flow, with the
integral and Hamiltonian values recorded along the trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import charts
from ..sampling import _real
from .body import body_chart, hamiltonians, integrals, lagrange_vector_field
from .params import TopParams

CSV_HEADER = "t,w1,w2,w3,g1,g2,g3,F1,F2,F3,F4,h0,h1,h2"

# Steps per write into the trajectory: each step keeps its new state as the
# tuple of floats that the next step starts from, and the tuples of ROWS
# steps go into the state array in one slice assignment.  The time per step
# hardly depends on ROWS (64 to 4096 gave the same medians); the memory of
# the pending tuples, about 230 bytes a state, does.  Traced with
# tracemalloc over a 20,000-step `integrate_flow` at c = 2 (Python 3.11.7,
# numpy 2.4.6), the call peaked at 3.77 MB with ROWS = 256 and at 4.64 MB
# with ROWS = 4096, PASS being 4096 in both.
ROWS = 256

# States per read of the recorded invariants: each pass writes its rows of
# the invariant array, which is allocated with the states, so the memory of
# a pass is bounded by PASS whatever the length of the trajectory.  A pass
# is mostly Python-level work whose cost hardly depends on its size, so
# fewer passes are faster, up to where the arrays of a pass outgrow the
# caches.  Read over a 20,000-step trajectory at c = 2 on a shared 2-vCPU
# Xeon VM, medians of 15 alternating runs: 19.5 ms at 256 states a pass,
# 6.5 ms at 1024, 3.1 ms at 4096, 3.4 ms at 8192 and 6.7 ms in one pass of
# all 20,001 states, with tracemalloc peaks of 1.23, 1.51, 2.64, 4.15 and
# 8.49 MB above the states (the invariant array itself is 1.12 MB of that).
PASS = 4096


class FlowBlowupError(RuntimeError):

    def __init__(self, t_last: float):
        super().__init__(f"non-finite state; last valid time t = {t_last:.6g}")
        self.t_last = t_last

    def __reduce__(self):
        # a pickle rebuilds the error from its time, not from its message
        return type(self), (self.t_last,)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray        # (k,)
    states: np.ndarray       # (k, 6) real
    invariants: np.ndarray   # (k, 7): F1..F4, h0..h2


def integrate_flow(params: TopParams, y0, dt: float, t_max: float) -> Trajectory:
    """Classical RK4 with a fixed step; deterministic by construction.

    The right-hand side is the component function of
    :func:`lagrange_vector_field`, and the recorded invariants are those of
    :func:`integrals` and :func:`hamiltonians`, read on the trajectory as
    one field, one pass per block of ``PASS`` states, each written into an
    array allocated with the states before the first step.  Raises
    ``ValueError`` for an input out of range (``dt`` not finite and
    positive, for one) or a ``dt`` or ``t_max`` that is a ``bool`` or not a
    real number,
    :class:`FlowBlowupError` carrying the last valid time when the state
    stops being finite, and :class:`MemoryError` when the trajectory does
    not fit in memory.
    """
    dt, t_max = _real("step size", dt), _real("final time", t_max)
    if not 0 < dt < math.inf:
        raise ValueError("step size must be finite and positive")
    if t_max < 0:
        raise ValueError("final time must be non-negative")
    if not math.isfinite(t_max / dt):
        raise ValueError("step count t_max / dt must be finite")
    rhs = lagrange_vector_field(params).fn
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (6,):
        raise ValueError("initial state must have six components")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    n_steps = int(round(t_max / dt))
    try:
        states = np.empty((n_steps + 1, 6))
        invariants = np.empty((n_steps + 1, 7))
    except ValueError:
        # numpy refuses a shape beyond its index range before allocating
        raise MemoryError(f"{n_steps + 1} states do not fit in memory") \
            from None
    states[0] = y0
    # Each step unpacks the state into six Python floats and hands the
    # right-hand side 6-tuples built from them, in the order of operations
    # of the array form: y + (dt/2) k, y + dt k3 and
    # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).  A float overflow gives inf,
    # never an exception, and ends in the finiteness check.  The new state
    # is the tuple that the next step's first call takes.
    y = tuple(y0.tolist())
    y1, y2, y3, y4, y5, y6 = y
    half, sixth = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    for start in range(0, n_steps, ROWS):
        stop = min(start + ROWS, n_steps)
        rows = []
        append = rows.append
        for k in range(start, stop):
            a1, a2, a3, a4, a5, a6 = rhs(y)
            b1, b2, b3, b4, b5, b6 = rhs((y1 + half * a1, y2 + half * a2,
                                          y3 + half * a3, y4 + half * a4,
                                          y5 + half * a5, y6 + half * a6))
            c1, c2, c3, c4, c5, c6 = rhs((y1 + half * b1, y2 + half * b2,
                                          y3 + half * b3, y4 + half * b4,
                                          y5 + half * b5, y6 + half * b6))
            d1, d2, d3, d4, d5, d6 = rhs((y1 + dt * c1, y2 + dt * c2,
                                          y3 + dt * c3, y4 + dt * c4,
                                          y5 + dt * c5, y6 + dt * c6))
            y1 += sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            y2 += sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
            y3 += sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
            y4 += sixth * (((a4 + 2.0 * b4) + 2.0 * c4) + d4)
            y5 += sixth * (((a5 + 2.0 * b5) + 2.0 * c5) + d5)
            y6 += sixth * (((a6 + 2.0 * b6) + 2.0 * c6) + d6)
            if not (isfinite(y1) and isfinite(y2) and isfinite(y3)
                    and isfinite(y4) and isfinite(y5) and isfinite(y6)):
                raise FlowBlowupError(k * dt)
            y = y1, y2, y3, y4, y5, y6
            append(y)
        states[start + 1:stop + 1] = rows
    times = np.arange(n_steps + 1) * dt
    # one pass evaluates each integral once for all seven
    recorded = charts._derived(charts.VectorField, lambda *v: np.stack(v),
                               *integrals(params).values(),
                               *hamiltonians(params))
    for i in range(0, n_steps + 1, PASS):
        invariants[i:i + PASS] = recorded(charts.Point(
            body_chart(), tuple(states[i:i + PASS].T))).real
    return Trajectory(times, states, invariants)


def max_relative_drift(traj: Trajectory) -> float:
    """Worst relative excursion of any recorded invariant from its initial
    value."""
    ref = traj.invariants[0]
    drift = traj.invariants - ref  # the one temporary, worked in place
    np.abs(drift, out=drift)
    drift /= np.maximum(1.0, np.abs(ref))
    return float(drift.max())


def write_csv(traj: Trajectory, path: str) -> None:
    # 17 significant digits so trajectories diff bit-faithfully; a text
    # handle keeps the file plain text whatever its suffix (numpy
    # compresses a path ending in .gz)
    with open(path, "w") as fh:
        np.savetxt(fh, np.column_stack([traj.times, traj.states,
                                        traj.invariants]),
                   fmt="%.16e", delimiter=",", header=CSV_HEADER,
                   comments="")
