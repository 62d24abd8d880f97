"""Flow integration: invariant drift, convergence order, blow-up handling
and CSV output."""

import numpy as np
import pytest

from haantjeskit.lagrange import (TopParams, integrate_flow,
                                  lagrange_vector_field, max_relative_drift,
                                  write_csv)
from haantjeskit.lagrange.flow import CSV_HEADER, FlowBlowupError

Y0 = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.8])


def test_invariants_drift_small():
    traj = integrate_flow(TopParams(), Y0, 1e-3, 10.0)
    assert max_relative_drift(traj) < 1e-8


def test_halving_step_reduces_drift_by_order():
    # steps coarse enough that truncation error dominates rounding
    params = TopParams()
    d1 = max_relative_drift(integrate_flow(params, Y0, 8e-3, 5.0))
    d2 = max_relative_drift(integrate_flow(params, Y0, 4e-3, 5.0))
    assert d2 > 0.0
    assert d1 / d2 >= 8.0


def test_axial_spin_exactly_conserved():
    traj = integrate_flow(TopParams(), Y0, 1e-3, 2.0)
    # the third angular velocity has zero time derivative identically
    assert np.max(np.abs(traj.states[:, 2] - Y0[2])) == 0.0


def test_trajectory_shapes():
    traj = integrate_flow(TopParams(), Y0, 1e-2, 1.0)
    assert traj.times.shape == (101,)
    assert traj.states.shape == (101, 6)
    assert traj.invariants.shape == (101, 7)
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_input_validation():
    params = TopParams()
    with pytest.raises(ValueError):
        integrate_flow(params, Y0, -1e-3, 1.0)
    with pytest.raises(ValueError):
        integrate_flow(params, Y0, 1e-3, -1.0)
    with pytest.raises(ValueError):
        integrate_flow(params, np.zeros(5), 1e-3, 1.0)
    with pytest.raises(ValueError):  # t_max / dt overflows to infinity
        integrate_flow(params, Y0, 1e-300, 1e300)


def test_blowup_reported_with_last_time():
    # an enormous step on a large state overflows quickly
    with pytest.raises(FlowBlowupError) as exc:
        integrate_flow(TopParams(), Y0 * 1e150, 1e3, 1e6)
    assert exc.value.t_last >= 0.0


def test_csv_output(tmp_path):
    traj = integrate_flow(TopParams(), Y0, 1e-2, 0.1)
    path = tmp_path / "traj.csv"
    write_csv(traj, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 14
    assert row[0] == 0.0
    np.testing.assert_allclose(row[1:7], Y0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_float_steps_equal_array_reference_bit_for_bit(c):
    """The steps run on Python floats; they give bit for bit what the array
    form of classical RK4 gives, in the same order of operations."""
    params = TopParams(c=c)
    rhs = lagrange_vector_field(params).fn
    dt, steps = 1e-2, 300
    traj = integrate_flow(params, Y0, dt, steps * dt)

    def f(y):
        return np.array(rhs(y))

    y = Y0.copy()
    states = [y]
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    assert np.array_equal(traj.states, np.array(states))
    assert np.array_equal(traj.times, np.array([k * dt
                                                for k in range(steps + 1)]))
