"""Shared fixtures and the finite-difference oracle used only by tests."""

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
