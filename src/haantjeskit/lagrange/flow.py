"""Fixed-step fourth-order integration of the body-frame flow, with the
integral and Hamiltonian values recorded along the trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import charts
from ..sampling import _real
from .body import _recorded, body_chart, lagrange_vector_field
from .params import TopParams

CSV_HEADER = "t,w1,w2,w3,g1,g2,g3,F1,F2,F3,F4,h0,h1,h2"


class FlowBlowupError(RuntimeError):

    def __init__(self, t_last: float):
        super().__init__(f"non-finite state; last valid time t = {t_last:.6g}")
        self.t_last = t_last


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
    one field, one pass per block of ``charts.BLOCK`` points.  Raises
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
    except ValueError:
        # numpy refuses a shape beyond its index range before allocating
        raise MemoryError(f"{n_steps + 1} states do not fit in memory") \
            from None
    states[0] = y0
    # Each step unpacks the state into six Python floats and hands the
    # right-hand side 6-tuples built from them, in the order of operations
    # of the array form: y + (dt/2) k, y + dt k3 and
    # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).  A float overflow gives inf,
    # never an exception, and ends in the finiteness check.
    y1, y2, y3, y4, y5, y6 = y0.tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    for k in range(n_steps):
        a1, a2, a3, a4, a5, a6 = rhs((y1, y2, y3, y4, y5, y6))
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
        states[k + 1] = (y1, y2, y3, y4, y5, y6)
    times = np.arange(n_steps + 1) * dt
    # one pass per block evaluates each integral once for all seven
    recorded = charts._derived(charts.VectorField, lambda *v: np.stack(v),
                               *_recorded(params))
    blocks = (charts.Point(body_chart(),
                           tuple(states[i:i + charts.BLOCK].T))
              for i in range(0, n_steps + 1, charts.BLOCK))
    return Trajectory(times, states, np.concatenate(
        [recorded(block).real for block in blocks]))


def max_relative_drift(traj: Trajectory) -> float:
    """Worst relative excursion of any recorded invariant from its initial
    value."""
    ref = traj.invariants[0]
    denom = np.maximum(1.0, np.abs(ref))
    return float(np.max(np.abs(traj.invariants - ref) / denom))


def write_csv(traj: Trajectory, path: str) -> None:
    # 17 significant digits so trajectories diff bit-faithfully; a text
    # handle keeps the file plain text whatever its suffix (numpy
    # compresses a path ending in .gz)
    with open(path, "w") as fh:
        np.savetxt(fh, np.column_stack([traj.times, traj.states,
                                        traj.invariants]),
                   fmt="%.16e", delimiter=",", header=CSV_HEADER,
                   comments="")
