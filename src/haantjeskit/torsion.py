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


# The kernels are batched `@` products on reshaped views of the
# (N, n, n, n) arrays, so BLAS does the contractions and sets their
# summation order.  They sum their terms in place, so a sample holds few
# such arrays at a time; a sampled check reduces them in slices of
# `report.SLICE` entries.

def _left(Lc: np.ndarray, A: np.ndarray) -> np.ndarray:
    # (L A)[s, i, j, k] = L[s, i, a] A[s, a, j, k]
    s, n = Lc.shape[:2]
    return (Lc @ A.reshape(s, n, n * n)).reshape(s, n, n, n)


def _right(A: np.ndarray, Lc: np.ndarray) -> np.ndarray:
    # (A L)[s, i, j, k] = A[s, i, j, a] L[s, a, k]
    s, n = Lc.shape[:2]
    return (A.reshape(s, n * n, n) @ Lc).reshape(s, n, n, n)


def _nijenhuis_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    # Lc[s, i, j] operator entries, Ld[s, i, j, a] their a-th partials;
    # T[s, i, j, k] = L[a, j] d_a L[i, k] - L[a, k] d_a L[i, j]
    #                 + L[i, a] (d_k L[a, j] - d_j L[a, k])
    M = _right(Ld, Lc)
    T = M.swapaxes(-1, -2) - M
    T += _left(Lc, Ld - Ld.swapaxes(-1, -2))
    return T


def _haantjes_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    # L^2 T(X, Y) + T(LX, LY) - L T(LX, Y) - L T(X, LY), with
    # T(X, LY) = -T(LY, X) from the antisymmetry of T:
    # H = T(LX, LY) + L (L T(X, Y) - T(LX, Y) + T(LY, X))
    T = _nijenhuis_components(Lc, Ld)
    TL = _right(T.swapaxes(-1, -2), Lc).swapaxes(-1, -2)  # T(LX, Y)
    inner = _left(Lc, T)
    del T
    inner -= TL
    inner += TL.swapaxes(-1, -2)
    H = _right(TL, Lc)  # T(LX, LY)
    del TL
    H += _left(Lc, inner)
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
