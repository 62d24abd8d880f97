"""Seeded random point sampling on chart boxes with singular-set margins."""

from __future__ import annotations

import numpy as np

from .charts import Chart, Point

__all__ = ["sample_points"]

BOX = 2.0
IMAG = 1.0
MAX_TRIES = 100000
DEFAULT_MARGIN = 0.1


def sample_points(chart: Chart, n_points: int, seed: int, *,
                  margin: float = DEFAULT_MARGIN, real: bool = False):
    """Draw ``n_points`` points uniformly from the chart box, rejecting any
    point closer than ``margin`` to a declared singular set.

    Real parts are uniform in ``[-BOX, BOX]``, imaginary parts in
    ``[-IMAG, IMAG]`` (zero when ``real`` is set).  The draw order is fixed,
    so a given seed always yields the same sample.
    """
    if n_points <= 0:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    pts = []
    tries = 0
    while len(pts) < n_points:
        tries += 1
        if tries > MAX_TRIES:
            raise RuntimeError(
                f"could not sample {n_points} points on chart "
                f"{chart.name!r}: singular margins too tight")
        re = rng.uniform(-BOX, BOX, chart.dim)
        if real:
            coords = [complex(r) for r in re]
        else:
            im = rng.uniform(-IMAG, IMAG, chart.dim)
            coords = [complex(r, i) for r, i in zip(re, im)]
        if any(abs(s(coords)) < margin for s in chart.singular):
            continue
        pts.append(Point(chart, tuple(coords)))
    return pts
