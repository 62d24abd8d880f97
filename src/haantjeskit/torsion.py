"""Nijenhuis and Haantjes torsions of operator fields.

Both torsions are evaluated over a sample from the first-order local
formulas, the sample axis first; no symbolic machinery is involved.  "Is a
Nijenhuis/Haantjes operator" is therefore a sampled statement: each point's
torsion is judged against the magnitudes of ``L`` and ``dL`` at that point,
and the result carries the sample size and the residual and scale of the
worst point.
"""

from __future__ import annotations

import numpy as np

from .charts import OperatorField, Point
from .report import SampledResidual, _first_order

__all__ = [
    "nijenhuis_torsion", "haantjes_torsion",
    "is_nijenhuis", "is_haantjes",
]


# The kernels sum their terms in place, so a sample holds few arrays of
# shape (N, n, n, n) at a time; a sampled check reduces them in slices of
# `report.SLICE` points.

def _nijenhuis_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    # Lc[s, i, j] operator entries, Ld[s, i, j, a] their a-th partials.
    T = np.einsum("sika,saj->sijk", Ld, Lc)
    T -= np.einsum("sija,sak->sijk", Ld, Lc)
    T += np.einsum("sia,sajk->sijk", Lc, Ld - Ld.transpose(0, 1, 3, 2))
    return T


def _haantjes_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    # L^2 T(X, Y) + T(LX, LY) - L T(LX, Y) - L T(X, LY), contracted one
    # index at a time
    T = _nijenhuis_components(Lc, Ld)
    LT = np.einsum("sia,sajk->sijk", Lc, T)
    TL = np.einsum("siab,saj->sijb", T, Lc)
    del T
    H = np.einsum("sia,sajk->sijk", Lc, LT)
    H += np.einsum("sijb,sbk->sijk", TL, Lc)
    H -= np.einsum("sibk,sbj->sijk", LT, Lc)
    H -= np.einsum("sijb,sbk->sijk", LT, Lc)
    return H


def nijenhuis_torsion(L: OperatorField, p: Point) -> np.ndarray:
    """Nijenhuis torsion components ``[s, i, j, k]`` at the s-th point,
    antisymmetric in the last two slots."""
    return _nijenhuis_components(*L.jet(p))


def haantjes_torsion(L: OperatorField, p: Point) -> np.ndarray:
    """Haantjes torsion components; only first derivatives of ``L`` are
    needed because the Nijenhuis torsion enters algebraically."""
    return _haantjes_components(*L.jet(p))


def is_nijenhuis(L: OperatorField, sample, tol: float = 1e-9) -> SampledResidual:
    """Nijenhuis torsion, each point against ``(1+|L|)(1+|dL|)`` there."""
    return _first_order(L, sample, tol, _nijenhuis_components, 1)


def is_haantjes(L: OperatorField, sample, tol: float = 1e-9) -> SampledResidual:
    """Haantjes torsion, each point against ``(1+|L|)^3(1+|dL|)`` there."""
    return _first_order(L, sample, tol, _haantjes_components, 3)
