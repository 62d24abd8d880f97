"""Seeded random point sampling on chart boxes with singular-set margins."""

from __future__ import annotations

import numpy as np

from .charts import Chart, ChartError, Point, _integer

__all__ = ["sample_points"]

BOX = 2.0
IMAG = 1.0
MIN_TRIES = 100000
TRIES_PER_POINT = 100
MARGIN = 0.1


def sample_points(chart: Chart, n_points: int, seed: int) -> Point:
    """Draw ``n_points`` points uniformly from the chart box, rejecting any
    point closer than ``MARGIN`` to a declared singular set, and return them
    as one sample.

    Real parts are uniform in ``[-BOX, BOX]``, imaginary parts in
    ``[-IMAG, IMAG]``.  Each try draws the real parts of its coordinates,
    then the imaginary parts; tries are drawn in blocks and judged together,
    in order, so a given seed always yields the same sample.

    The try budget is ``TRIES_PER_POINT`` per requested point, and at least
    ``MIN_TRIES``; a sample the budget cannot fill raises
    :class:`~haantjeskit.charts.ChartError`.  A size or seed that is not an
    integer, or is a ``bool``, raises ``ValueError``, and a size whose block
    of tries does not fit in memory :class:`MemoryError`.
    """
    n_points = _integer("sample size", n_points)
    if n_points <= 0:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(_integer("seed", seed))
    dim = chart.dim
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
        try:
            # low + range * u, as Generator.uniform computes it
            u = rng.random((block, 2 * dim))
        except ValueError:
            # numpy refuses a shape beyond its index range before allocating
            raise MemoryError(f"{block} tries do not fit in memory") from None
        coords = np.empty((dim, block), dtype=complex)
        coords.real = (-BOX + 2.0 * BOX * u[:, :dim]).T
        coords.imag = (-IMAG + 2.0 * IMAG * u[:, dim:]).T
        ok = np.ones(block, dtype=bool)
        for s in chart.singular:
            ok &= ~(np.abs(s(list(coords))) < MARGIN)
        good = coords[:, ok][:, :n_points - count]
        kept.append(good)
        count += good.shape[1]
    return Point(chart, tuple(np.concatenate(kept, axis=1)))
