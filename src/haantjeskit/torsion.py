"""Nijenhuis and Haantjes torsions of operator fields.

Both torsions are evaluated pointwise from the first-order local formulas;
no symbolic machinery is involved.  "Is a Nijenhuis/Haantjes operator" is
therefore a sampled statement: the result always carries the sample size,
the maximum residual and the magnitude scale the residual was compared
against.
"""

from __future__ import annotations

import numpy as np

from .charts import OperatorField, Point
from .report import SampledResidual, _max_abs, sampled

__all__ = [
    "nijenhuis_torsion", "haantjes_torsion",
    "is_nijenhuis", "is_haantjes",
]


def _nijenhuis_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    # Lc[i, j] operator entries, Ld[i, j, a] their a-th partials.
    t1 = np.einsum("ika,aj->ijk", Ld, Lc)
    t2 = np.einsum("ija,ak->ijk", Ld, Lc)
    t3 = np.einsum("ia,ajk->ijk", Lc, Ld - Ld.transpose(0, 2, 1))
    return t1 - t2 + t3


def _haantjes_components(Lc: np.ndarray, Ld: np.ndarray) -> np.ndarray:
    T = _nijenhuis_components(Lc, Ld)
    return (np.einsum("ia,ab,bjk->ijk", Lc, Lc, T)
            + np.einsum("iab,aj,bk->ijk", T, Lc, Lc)
            - np.einsum("ia,abk,bj->ijk", Lc, T, Lc)
            - np.einsum("ia,ajb,bk->ijk", Lc, T, Lc))


def nijenhuis_torsion(L: OperatorField, p: Point) -> np.ndarray:
    """Nijenhuis torsion components ``[i, j, k]``, antisymmetric in the
    last two slots."""
    return _nijenhuis_components(*L.jet(p))


def haantjes_torsion(L: OperatorField, p: Point) -> np.ndarray:
    """Haantjes torsion components; only first derivatives of ``L`` are
    needed because the Nijenhuis torsion enters algebraically."""
    return _haantjes_components(*L.jet(p))


def _sampled_torsion(L: OperatorField, sample, tol: float, components,
                     scale) -> SampledResidual:
    """Max torsion over the sample against ``scale(m, d)``, with ``m`` and
    ``d`` the sample-wide maxima of ``|L|`` and ``|dL|``; ``L`` and its
    jacobian come from one jet pass per point."""
    def at(p):
        Lc, Ld = L.jet(p)
        return _max_abs(components(Lc, Ld)), _max_abs(Lc), _max_abs(Ld)

    return sampled(sample, at, tol, scale)


def is_nijenhuis(L: OperatorField, sample, tol: float = 1e-9) -> SampledResidual:
    """Max Nijenhuis-torsion residual over the sample, scaled by the
    magnitude of the terms of the local formula."""
    return _sampled_torsion(L, sample, tol, _nijenhuis_components,
                            lambda m, d: (1.0 + m) * (1.0 + d))


def is_haantjes(L: OperatorField, sample, tol: float = 1e-9) -> SampledResidual:
    return _sampled_torsion(L, sample, tol, _haantjes_components,
                            lambda m, d: (1.0 + m) ** 3 * (1.0 + d))
