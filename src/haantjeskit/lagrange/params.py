"""Physical parameters of the heavy symmetric top."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TopParams:
    """Inertia ratio ``c`` (symmetry axis over equatorial); the equatorial
    moment and the torque scale are fixed to 1.

    ``c`` must be finite and positive; a positive sympy symbol is accepted.
    ``c = 1`` is the degenerate spherically-symmetric case; generic runs
    keep ``c != 1``.
    """

    c: float = 2.0

    def __post_init__(self):
        # `not c > 0` rejects NaN; math.isfinite would refuse a sympy symbol
        if not self.c > 0 or self.c == math.inf:
            raise ValueError("inertia ratio c must be finite and positive")
