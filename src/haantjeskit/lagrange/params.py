"""Physical parameters of the heavy symmetric top."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TopParams:
    """Inertia ratio ``c`` (symmetry axis over equatorial) and equatorial
    moment ``A``; the torque scale is fixed to ``A``.

    ``c = 1`` is the degenerate spherically-symmetric case; generic runs
    keep ``c != 1``.
    """

    c: float = 2.0
    A: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("inertia ratio must be positive")
        if self.A <= 0:
            raise ValueError("equatorial inertia moment must be positive")
