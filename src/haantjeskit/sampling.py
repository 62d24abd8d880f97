"""Seeded random point sampling on chart boxes with singular-set margins."""

from __future__ import annotations

import contextlib
import operator

import numpy as np

from .charts import Chart, ChartError, Point

__all__ = ["sample_points"]

BOX = 2.0
IMAG = 1.0
MIN_TRIES = 100000
TRIES_PER_POINT = 100
DEFAULT_MARGIN = 0.1


def _integer(name: str, value) -> int:
    """``value`` as a Python ``int``; a ``bool`` or a value that is not an
    integer, ``3.0`` included, raises ``ValueError``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, not {value!r}")


def sample_points(chart: Chart, n_points: int, seed: int, *,
                  margin: float = DEFAULT_MARGIN, real: bool = False) -> Point:
    """Draw ``n_points`` points uniformly from the chart box, rejecting any
    point closer than ``margin`` to a declared singular set, and return them
    as one sample.

    Real parts are uniform in ``[-BOX, BOX]``, imaginary parts in
    ``[-IMAG, IMAG]`` (zero when ``real`` is set).  Each try draws the real
    parts of its coordinates, then the imaginary parts; tries are drawn in
    blocks and judged together, in order, so a given seed always yields the
    same sample.

    The try budget is ``TRIES_PER_POINT`` per requested point, and at least
    ``MIN_TRIES``; a sample the budget cannot fill raises
    :class:`~haantjeskit.charts.ChartError`.  A size or seed that is not an
    integer, or is a ``bool``, raises ``ValueError``.
    """
    n_points = _integer("sample size", n_points)
    if n_points <= 0:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(_integer("seed", seed))
    dim = chart.dim
    per_try = dim if real else 2 * dim
    kept = []
    budget = max(MIN_TRIES, TRIES_PER_POINT * n_points)
    count = tries = 0
    while count < n_points:
        if tries >= budget:
            raise ChartError(
                f"could not sample {n_points} points on chart "
                f"{chart.name!r} in {budget} tries: singular margins too "
                f"tight")
        block = min(max(2 * (n_points - count), 8), budget - tries)
        tries += block
        # low + range * u, as Generator.uniform computes it
        u = rng.random((block, per_try))
        coords = np.zeros((dim, block), dtype=complex)
        coords.real = (-BOX + 2.0 * BOX * u[:, :dim]).T
        if not real:
            coords.imag = (-IMAG + 2.0 * IMAG * u[:, dim:]).T
        ok = np.ones(block, dtype=bool)
        for s in chart.singular:
            ok &= ~(np.abs(s(list(coords))) < margin)
        good = coords[:, ok][:, :n_points - count]
        kept.append(good)
        count += good.shape[1]
    return Point(chart, tuple(np.concatenate(kept, axis=1)))
