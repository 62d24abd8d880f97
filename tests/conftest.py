"""Shared fixtures and the finite-difference and Cauchy-integral oracles
used only by tests."""

from __future__ import annotations

import contextlib
import functools
import json
import os
import select
from pathlib import Path

import numpy as np
import pytest

from haantjeskit import Chart, Point, suites
from haantjeskit.sampling import sample_points
from haantjeskit.lagrange import TopParams
from haantjeskit.report import _max_abs

# the frozen full-suite report at three points and c = 2, the one list of
# checks the tests read
GOLDEN_REPORT = (Path(__file__).resolve().parent / "data"
                 / "report_all_p3_c2.json")


def golden_ids():
    """The check ids of the frozen report, each ``suite.check``."""
    return [c["id"] for c in json.loads(GOLDEN_REPORT.read_text())["checks"]]


def golden_findings():
    """The frozen report's ids that end in ``_finding``."""
    return {i for i in golden_ids() if i.endswith("_finding")}


def use_cpus(monkeypatch, n):
    """Let ``run_suite`` see ``n`` usable CPUs, so that ``all`` runs on
    min(5, n) processes; with one, everything runs in this process, as a
    test that records calls in this process needs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def no_worker_left():
    """Every process ``run_suite`` forked has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def tables_in_workers(in_worker, in_parent=lambda name: None):
    """Wrap every table of ``suites._SUITES`` so that, in a worker process,
    it writes its index to a pipe and calls ``in_worker(name)``, and in
    this process waits up to 10 s until some worker has written and calls
    ``in_parent(name)``, so at least one table runs in a worker whichever
    process claims which; then it builds the table as before.  Yields a
    function that reads the names of the tables workers ran, once
    ``run_suite`` is done, and restores the tables on exit."""
    parent = os.getpid()
    tables = dict(suites._SUITES)
    names = list(tables)
    ran, wrote = os.pipe()

    def table(name, cfg):
        if os.getpid() != parent:
            os.write(wrote, bytes([names.index(name)]))
            in_worker(name)
        else:
            select.select([ran], [], [], 10)
            in_parent(name)
        return tables[name](cfg)

    def worker_tables():
        os.set_blocking(ran, False)
        return [names[i] for i in sorted(os.read(ran, len(names)))]

    suites._SUITES.update(
        {name: functools.partial(table, name) for name in names})
    try:
        yield worker_tables
    finally:
        suites._SUITES.update(tables)
        os.close(ran)
        os.close(wrote)


def fd_gradient(fn, coords, h=1e-6):
    """Central-difference gradient of a scalar callable of a coordinate
    list, with one Richardson extrapolation level."""
    coords = [complex(c) for c in coords]
    n = len(coords)

    def central(step):
        out = np.zeros(n, dtype=complex)
        for k in range(n):
            up = list(coords)
            dn = list(coords)
            up[k] += step
            dn[k] -= step
            out[k] = (fn(up) - fn(dn)) / (2.0 * step)
        return out

    d1 = central(h)
    d2 = central(h / 2.0)
    # central differences are O(h^2); one Richardson level removes the
    # leading term
    return (4.0 * d2 - d1) / 3.0


def fd_jacobian(fn, coords, h=1e-6):
    """Finite-difference jacobian of a vector-valued callable;
    ``[i, k]`` is the k-th partial of component i."""
    coords = [complex(c) for c in coords]
    n = len(coords)

    def central(step):
        cols = []
        for k in range(n):
            up = list(coords)
            dn = list(coords)
            up[k] += step
            dn[k] -= step
            fu = np.asarray(fn(up), dtype=complex)
            fd = np.asarray(fn(dn), dtype=complex)
            cols.append((fu - fd) / (2.0 * step))
        return np.stack(cols, axis=-1)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


@pytest.fixture(scope="session")
def params():
    return TopParams()


@pytest.fixture(scope="session")
def chart3():
    return Chart("t3", 3)


@pytest.fixture(scope="session")
def sample3(chart3):
    return sample_points(chart3, 20, 11)


def point(chart, *coords):
    """A sample of one point given by its coordinates."""
    return Point(chart, tuple(complex(c) for c in coords))


def points_of(sample):
    """The coordinate lists of a sample's points, as Python complex numbers,
    for the finite-difference oracle."""
    return np.array(sample.coords).T.tolist()


def random_complex(rng, *shape):
    """Complex normal entries of ``shape``."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def kernel_error(kernel, reference, power, Lc, Ld):
    """Largest ``|kernel - reference|`` at each point of the jet
    ``(Lc, Ld)`` over the kernel's scale ``(1+|L|)^power (1+|dL|)`` there,
    in units of ``n^3`` machine epsilons: each component sums O(n^3)
    products."""
    n = Lc.shape[-1]
    scale = (1 + _max_abs(Lc)) ** power * (1 + _max_abs(Ld))
    return (_max_abs(kernel(Lc, Ld) - reference(Lc, Ld)) / scale
            / (n ** 3 * np.finfo(float).eps))


def cauchy_jacobian(values, p, r, nodes):
    """Partials of a holomorphic field from Cauchy's integral by the
    trapezoid rule, ``d f / d x_k ~ (1/M) sum_m f(x + r w_m e_k) / (r w_m)``
    with ``w_m = exp(2 pi i m / M)``: ``values`` maps a sample to the
    field's components, and the result is ``(N,) + shape + (dim,)``, the
    last index the variable, as a seeded read gives.  The error falls as
    ``(r / R)^M``, ``R`` the distance to the nearest singularity, as long
    as no circle reaches one (see :func:`disk_clear`)."""
    w = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    cols = []
    for k in range(p.chart.dim):
        acc = 0.0
        for wm in w:
            coords = list(p.coords)
            coords[k] = coords[k] + r * wm
            acc = acc + values(Point(p.chart, tuple(coords))) / (r * wm)
        cols.append(acc / nodes)
    return np.stack(cols, axis=-1)


def disk_clear(p, r, zeros=(), cuts=(), nodes=256):
    """Which points of ``p`` keep every disk ``|t| <= r`` along each
    coordinate ``x + t e_k`` off the zeros of the functions ``zeros`` and
    off the branch cut ``(-inf, 0]`` of the square roots of ``cuts``.

    Each function is holomorphic in ``t``, so the real part of any fixed
    rotation of it is harmonic and takes its minimum over the disk on the
    circle: values on the circle that lie in an open half-plane, facing
    the centre's value for ``zeros`` and the right, upper or lower one for
    ``cuts``, keep the whole disk there.  The circle is read at ``nodes``
    points, and a zero's half-plane keeps a margin of a tenth of the
    centre's modulus for what falls between them."""
    w = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    ok = np.ones(len(p), dtype=bool)

    def circle(s, k):
        """``s`` on the circle around each point, ``(nodes, N)``."""
        out = []
        for wm in w:
            coords = list(p.coords)
            coords[k] = coords[k] + r * wm
            out.append(s(coords))
        return np.array(out)

    for k in range(p.chart.dim):
        for s in zeros:
            centre = s(list(p.coords))
            ok &= np.all((circle(s, k) * np.conj(centre)).real
                         > 0.1 * np.abs(centre) ** 2, axis=0)
        for s in cuts:
            b = circle(s, k)
            ok &= (np.all(b.real > 0, axis=0) | np.all(b.imag > 0, axis=0)
                   | np.all(b.imag < 0, axis=0))
    return ok
