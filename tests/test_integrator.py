"""Flow integration: invariant drift, convergence order, blow-up handling
and CSV output."""

import hashlib

import numpy as np
import pytest

from haantjeskit import charts
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


def test_invariants_are_read_in_blocks(monkeypatch):
    """The recorded invariants are read in samples of at most
    ``charts.BLOCK`` points, which together cover the trajectory once per
    invariant, and they equal one read of the whole trajectory bit for
    bit."""
    sizes = []
    read = charts._read

    def recording(fn, coords, seeded):
        sizes.append(len(coords[0]))
        return read(fn, coords, seeded)

    monkeypatch.setattr(charts, "_read", recording)
    traj = integrate_flow(TopParams(), Y0, 1e-3, 1.0)
    assert max(sizes) <= charts.BLOCK < len(traj.times)
    assert sum(sizes) == 7 * len(traj.times)
    monkeypatch.setattr(charts, "BLOCK", len(traj.times))
    sizes.clear()
    whole = integrate_flow(TopParams(), Y0, 1e-3, 1.0)
    assert set(sizes) == {len(traj.times)}
    assert np.array_equal(whole.invariants, traj.invariants)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_recorded_invariants_are_the_closed_forms(c):
    """The invariants read through the field algebra equal the closed forms
    of F1..F4, ``h0 = F4/2 + (c-1) F1 F3`` and ``h1 = -F3 - (c-1) F1 F2``,
    evaluated in float arithmetic on the state columns."""
    traj = integrate_flow(TopParams(c), Y0, 1e-2, 5.0)
    w1, w2, w3, g1, g2, g3 = traj.states.T
    F1 = w3
    F2 = 0.5 * (w1 ** 2 + w2 ** 2 + c * w3 ** 2) - g3
    F3 = w1 * g1 + w2 * g2 + c * w3 * g3
    F4 = g1 ** 2 + g2 ** 2 + g3 ** 2
    h0 = 0.5 * F4 + (c - 1.0) * F1 * F3
    h1 = -F3 - (c - 1.0) * F1 * F2
    reference = np.column_stack([F1, F2, F3, F4, h0, h1, F2])
    assert traj.invariants.dtype == float
    np.testing.assert_array_max_ulp(traj.invariants, reference, maxulp=4)


def test_trajectory_shapes():
    traj = integrate_flow(TopParams(), Y0, 1e-2, 1.0)
    assert traj.times.shape == (101,)
    assert traj.states.shape == (101, 6)
    assert traj.invariants.shape == (101, 7)
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_input_validation():
    params = TopParams()
    for dt in (-1e-3, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="step size"):
            integrate_flow(params, Y0, dt, 1.0)
    with pytest.raises(ValueError):
        integrate_flow(params, Y0, 1e-3, -1.0)
    with pytest.raises(ValueError):
        integrate_flow(params, np.zeros(5), 1e-3, 1.0)
    with pytest.raises(ValueError):  # t_max / dt overflows to infinity
        integrate_flow(params, Y0, 1e-300, 1e300)
    for bad in (np.nan, np.inf, -np.inf):
        y0 = Y0.copy()
        y0[3] = bad
        for t_max in (0.0, 1.0):
            with pytest.raises(ValueError, match="finite"):
                integrate_flow(params, y0, 1e-3, t_max)
    # a bool or a value that is not a real number is refused by type
    for dt in (True, "1e-3", 1e-3 + 0j):
        with pytest.raises(ValueError, match="step size"):
            integrate_flow(params, Y0, dt, 2.0)
    for t_max in (True, "1", 1.0 + 0j):
        with pytest.raises(ValueError, match="final time"):
            integrate_flow(params, Y0, 1e-3, t_max)


def test_blowup_reported_with_last_time():
    # an enormous step on a large state overflows quickly
    with pytest.raises(FlowBlowupError) as exc:
        integrate_flow(TopParams(), Y0 * 1e150, 1e3, 1e6)
    assert exc.value.t_last >= 0.0


def test_blowup_time_is_last_finite_state():
    """A step far beyond RK4's stability bound grows the state until it
    overflows after several steps; ``t_last`` is the time of the last
    finite state of the array-form reference."""
    params, dt = TopParams(), 2.5
    with pytest.raises(FlowBlowupError) as exc:
        integrate_flow(params, Y0, dt, 40 * dt)
    states = _array_rk4(params, Y0, dt, 40)
    last = max(k for k, y in enumerate(states) if np.all(np.isfinite(y)))
    assert last > 3
    assert exc.value.t_last == last * dt


def _array_rk4(params, y0, dt, steps):
    """Classical RK4 on arrays, the step to step reference of the float
    loop; a step that overflows leaves inf or nan without a warning."""
    rhs = lagrange_vector_field(params).fn
    y, states = np.array(y0, dtype=float), []
    with np.errstate(all="ignore"):
        for _ in range(steps):
            states.append(y)
            k1 = np.array(rhs(y))
            k2 = np.array(rhs(y + 0.5 * dt * k1))
            k3 = np.array(rhs(y + 0.5 * dt * k2))
            k4 = np.array(rhs(y + dt * k3))
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return states + [y]


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


def test_states_bit_for_bit_at_benchmark_length():
    """20 000 steps, as many as one ``integrate`` call of the benchmark,
    give the frozen states bit for bit.  The states are plain float
    arithmetic, so the digest is portable; the invariants go through numpy
    and can round differently between machines, so they are not hashed."""
    traj = integrate_flow(TopParams(c=2.0), Y0, 1e-3, 20.0)
    assert traj.states.shape == (20001, 6)
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == (
        "f9de4a355b4a2755e6f35e7559d1a1b0bc658d4ccc532c30e52be8e7ed1fc1a7")
