"""Shared fixtures and the finite-difference oracle used only by tests."""

from __future__ import annotations

import numpy as np
import pytest

from haantjeskit import Chart, Point
from haantjeskit.sampling import sample_points
from haantjeskit.lagrange import TopParams
from haantjeskit.report import _max_abs


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
