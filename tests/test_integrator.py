"""Flow integration: invariant drift, convergence order, blow-up handling
and CSV output."""

import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from haantjeskit import charts
from haantjeskit.lagrange import (TopParams, flow, integrate_flow,
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


def _read_sizes(monkeypatch):
    """The sample sizes of the reads of ``charts._read``, as they happen."""
    sizes = []
    read = charts._read

    def recording(fn, coords, seeded):
        sizes.append(len(coords[0]))
        return read(fn, coords, seeded)

    monkeypatch.setattr(charts, "_read", recording)
    return sizes


def test_invariants_are_read_in_blocks(monkeypatch):
    """The recorded invariants are read as one field in samples of at most
    ``flow.PASS`` points, which together cover the trajectory once, and
    they equal one read of the whole trajectory bit for bit."""
    sizes, t_max = _read_sizes(monkeypatch), 2 * flow.PASS * 1e-3
    traj = integrate_flow(TopParams(), Y0, 1e-3, t_max)
    assert len(sizes) == 3
    assert max(sizes) <= flow.PASS < len(traj.times)
    assert sum(sizes) == len(traj.times)
    monkeypatch.setattr(flow, "PASS", len(traj.times))
    sizes.clear()
    whole = integrate_flow(TopParams(), Y0, 1e-3, t_max)
    assert sizes == [len(traj.times)]
    assert np.array_equal(whole.states, traj.states)
    assert np.array_equal(whole.invariants, traj.invariants)


@pytest.mark.parametrize("n_states", [
    1, flow.ROWS - 1, flow.ROWS, flow.ROWS + 1, 2 * flow.ROWS + 1,
    flow.PASS - 1, flow.PASS, flow.PASS + 1])
def test_block_boundaries(monkeypatch, n_states):
    """At a state count one below, equal to and one above a multiple of
    the row block ``flow.ROWS`` and of the invariant pass ``flow.PASS``,
    and at ``t_max = 0`` (one state), the states are the array form's bit
    for bit, the passes cover the trajectory once in order, and the
    invariants equal one read of the whole trajectory bit for bit."""
    dt = 1e-2
    sizes = _read_sizes(monkeypatch)
    traj = integrate_flow(TopParams(), Y0, dt, (n_states - 1) * dt)
    assert traj.states.shape == (n_states, 6)
    assert traj.invariants.shape == (n_states, 7)
    assert np.array_equal(traj.times, np.arange(n_states) * dt)
    assert np.array_equal(traj.states, np.array(
        _array_rk4(TopParams(), Y0, dt, n_states - 1)))
    assert sizes == [min(flow.PASS, n_states - i)
                     for i in range(0, n_states, flow.PASS)]
    monkeypatch.setattr(flow, "PASS", n_states)
    whole = integrate_flow(TopParams(), Y0, dt, (n_states - 1) * dt)
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


def test_blowup_after_more_than_one_row_block():
    """A step just above the largest at which RK4 keeps this orbit bounded
    grows the state slowly, so it overflows only after more than one
    block of ``flow.ROWS`` steps; ``t_last`` is still the time of the last
    finite state of the array-form reference."""
    params, dt = TopParams(), 2.4237825
    with pytest.raises(FlowBlowupError) as exc:
        integrate_flow(params, Y0, dt, 4 * flow.ROWS * dt)
    states = _array_rk4(params, Y0, dt, 4 * flow.ROWS)
    last = max(k for k, y in enumerate(states) if np.all(np.isfinite(y)))
    assert flow.ROWS < last < 4 * flow.ROWS
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


@pytest.mark.parametrize("c, y0, dt", [
    pytest.param(0.5, Y0, 1e-2, id="0.5"),
    pytest.param(2.0, Y0, 1e-2, id="2.0"),
    pytest.param(10.0, Y0, 1e-2, id="10.0"),
    # neither 1 - c nor w3 is a power of two (w3 = 0.5 in Y0), and the
    # step is long enough for a last-bit change of one rate to reach the
    # state, so a regrouped product shows
    pytest.param(0.7, (0.3, -0.7, 0.2, 0.5, 0.4, -0.6), 0.5, id="0.7"),
    # 1 - c is 0.0 and its negation -0.0
    pytest.param(1.0, Y0, 1e-2, id="1.0"),
    # w3 = -0.0 with further exact zeros, and all signed zeros: the sign
    # of a zero shows in the states only if w3 + 0.0 is carried from the
    # second stage of the first step on, and only if c - 1 is -(1 - c)
    pytest.param(2.0, (0.3, -0.7, -0.0, 0.5, 0.4, 0.0), 1e-2,
                 id="2.0-w3=-0"),
    pytest.param(2.0, (-0.0, 0.0, -0.0, 0.0, 0.0, -0.0), 1e-2,
                 id="2.0-zeros"),
    pytest.param(1.0, (0.0, -0.0, -0.0, -0.0, -0.0, -0.25), 1e-2,
                 id="1.0-w3=-0")])
def test_float_steps_equal_array_reference_bit_for_bit(c, y0, dt):
    """The stages run on Python floats; they give byte for byte what the
    array form of classical RK4 on :func:`lagrange_vector_field` gives, in
    the same order of operations, signs of zero included."""
    params, steps = TopParams(c=c), 300
    traj = integrate_flow(params, y0, dt, steps * dt)
    reference = np.array(_array_rk4(params, y0, dt, steps))
    assert traj.states.tobytes() == reference.tobytes()
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


def _agm(a, b):
    """The arithmetic-geometric mean of two positive numbers."""
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def _nutation(c, y):
    """The exact period of ``g3``, and the roots ``e1 >= e2 > e3`` of its
    cubic, from the state ``y`` alone.  With the integrals F1..F4 of the
    heavy symmetric top, Lagrange's identity gives ``g3'^2 = f(g3)`` for
    ``f(u) = (F4 - u^2)(2 F2 + 2u - c F1^2) - (F3 - c F1 u)^2``, a cubic with
    leading coefficient -2, so ``g3`` oscillates between ``e2`` and ``e1``
    with period ``sqrt(2) pi / AGM(sqrt(e1 - e3), sqrt(e2 - e3))``
    (Goldstein, Classical Mechanics, 3rd ed., 5.7; Abramowitz & Stegun,
    17.6)."""
    w1, w2, w3, g1, g2, g3 = y
    F1 = w3
    F2 = 0.5 * (w1 * w1 + w2 * w2 + c * w3 * w3) - g3
    F3 = w1 * g1 + w2 * g2 + c * w3 * g3
    F4 = g1 * g1 + g2 * g2 + g3 * g3
    u = Polynomial([0.0, 1.0])
    f = ((F4 - u ** 2) * (2.0 * F2 + 2.0 * u - c * F1 ** 2)
         - (F3 - c * F1 * u) ** 2)
    e3, e2, e1 = np.sort(f.roots().real)
    period = math.sqrt(2.0) * math.pi / _agm(math.sqrt(e1 - e3),
                                             math.sqrt(e2 - e3))
    return period, (e1, e2, e3)


def _measured_period(g3, dt):
    """The mean spacing of the maxima of ``g3`` sampled at steps of ``dt``,
    each maximum refined by the parabola through its three samples."""
    i = np.flatnonzero((g3[1:-1] > g3[:-2]) & (g3[1:-1] >= g3[2:])) + 1
    assert len(i) >= 3, "too few maxima to measure a period"
    a, b, d = g3[i - 1], g3[i], g3[i + 1]
    t = (i + 0.5 * (a - d) / (a - 2.0 * b + d)) * dt
    return (t[-1] - t[0]) / (len(t) - 1)


def test_nutation_period_matches_the_elliptic_quadrature():
    """A known answer that drift cannot see: the nutation period of ``g3``
    measured on the trajectory equals the exact period of the quadrature to
    1e-9 relative.  A vector field scaled by ``1 + eps`` keeps every
    invariant; read as steps of ``dt (1 + 1e-6)``, the same trajectories
    keep their drift and fail on the period."""
    rng, dt = np.random.default_rng(0), 1e-3
    for c in (0.5, 2.0, 3.0, 10.0):
        y0 = rng.uniform(-1.0, 1.0, 6)
        period, (e1, e2, _) = _nutation(c, y0)
        # not a sleeping top: g3 swings far enough for sharp maxima
        assert e1 - e2 > 0.05, (c, e1, e2)
        traj = integrate_flow(TopParams(c=c), y0, dt, 20.0)
        assert max_relative_drift(traj) < 1e-8
        g3 = traj.states[:, 5]
        assert abs(_measured_period(g3, dt) / period - 1.0) < 1e-9, c
        assert abs(_measured_period(g3, dt * (1.0 + 1e-6)) / period
                   - 1.0) > 1e-9, c
