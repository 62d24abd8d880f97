"""Physical parameters of the heavy symmetric top."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..charts import _real


@dataclass(frozen=True)
class TopParams:
    """Inertia ratio ``c`` (symmetry axis over equatorial); the equatorial
    moment and the torque scale are fixed to 1.

    ``c`` must be finite and positive; a real number is stored as a Python
    ``float``, and a symbolic ``c`` (a sympy symbol) is kept when it is
    declared positive.  A ``bool`` or any other value raises ``ValueError``.
    ``c = 1`` is the degenerate spherically-symmetric case; generic runs
    keep ``c != 1``.
    """

    c: float = 2.0

    def __post_init__(self):
        c = self.c
        if isinstance(c, numbers.Real) \
                or getattr(c, "is_positive", None) is not True:
            c = _real("inertia ratio c", c)
        object.__setattr__(self, "c", c)
        # `not c > 0` rejects NaN; math.isfinite would refuse a sympy symbol
        if not c > 0 or c == math.inf:
            raise ValueError("inertia ratio c must be finite and positive")
