"""Fixed-step fourth-order integration of the body-frame flow, with the
integral and Hamiltonian values recorded along the trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import hamiltonians, integrals, lagrange_vector_field
from .params import TopParams

INVARIANT_NAMES = ("F1", "F2", "F3", "F4", "h0", "h1", "h2")

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
    :func:`integrals` and :func:`hamiltonians`, evaluated on the state
    columns.  Raises :class:`FlowBlowupError` carrying the last valid time
    when the state stops being finite.
    """
    if dt <= 0:
        raise ValueError("step size must be positive")
    if t_max < 0:
        raise ValueError("final time must be non-negative")
    if not math.isfinite(t_max / dt):
        raise ValueError("step count t_max / dt must be finite")
    rhs = lagrange_vector_field(params).fn
    f = lambda y: np.array(rhs(y))
    y = np.asarray(y0, dtype=float)
    if y.shape != (6,):
        raise ValueError("initial state must have six components")
    n_steps = int(round(t_max / dt))
    times = [0.0]
    states = [y.copy()]
    t = 0.0
    # overflow is detected through the finiteness check, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = (k + 1) * dt
            if not np.all(np.isfinite(y)):
                raise FlowBlowupError(times[-1])
            times.append(t)
            states.append(y.copy())
    states = np.array(states)
    columns = list(states.T)
    recorded = [*integrals(params).values(), *hamiltonians(params)]
    return Trajectory(np.array(times), states,
                      np.column_stack([F.fn(columns) for F in recorded]))


def max_relative_drift(traj: Trajectory) -> float:
    """Worst relative excursion of any recorded invariant from its initial
    value."""
    ref = traj.invariants[0]
    denom = np.maximum(1.0, np.abs(ref))
    return float(np.max(np.abs(traj.invariants - ref) / denom))


def write_csv(traj: Trajectory, path: str) -> None:
    # 17 significant digits so trajectories diff bit-faithfully
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, s, inv in zip(traj.times, traj.states, traj.invariants):
            row = [t, *s, *inv]
            fh.write(",".join(f"{v:.16e}" for v in row) + "\n")
