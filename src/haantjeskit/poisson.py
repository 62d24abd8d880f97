"""Poisson bivectors, brackets, compatibility with operator algebras, Lie
derivatives and chain construction.

Chain failures are data: a chain that does not close is returned with its
residuals, never raised as an exception, because adjudicating identities is
the whole point of the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import (BivectorField, OneFormField, OperatorField, Point,
                     ScalarField, VectorField, _same_chart, apply_operator,
                     apply_transpose, differential)
from .report import SampledResidual, _max_abs, _sliced_max, sampled

__all__ = [
    "PoissonStructure", "MagriChain",
    "jacobi_residual", "verify_poisson", "poisson_bracket",
    "hamiltonian_field", "check_compatibility", "check_skew_compositions",
    "lie_derivative_operator", "lie_derivative_oneform",
    "lie_derivative_bivector", "r_tensor",
    "build_chain_oneforms",
]


@dataclass(frozen=True)
class PoissonStructure:
    skew: SampledResidual
    jacobi: SampledResidual


def _jacobi(Pc: np.ndarray, Pd: np.ndarray) -> np.ndarray:
    # Pd[s, i, j, l] = d_l P^{ij} at the s-th point; the cyclic sum is
    # reduced in slices of `report.SLICE` points by `_sliced_max`
    term = np.einsum("sil,sjkl->sijk", Pc, Pd)
    return term + term.transpose(0, 2, 3, 1) + term.transpose(0, 3, 1, 2)


def jacobi_residual(P: BivectorField, p: Point) -> np.ndarray:
    """Max over index triples of the cyclic Schouten sum, per point."""
    return _sliced_max(_jacobi, *P.jet(p))


def verify_poisson(P: BivectorField, sample, tol_exact: float = 1e-12,
                   tol_deriv: float = 1e-9) -> PoissonStructure:
    """Skew residual against ``1+|P|`` and Jacobi residual against
    ``(1+|P|)(1+|dP|)``, each at its own point; the skew check reads ``P``
    alone, the Jacobi check its one jet."""
    def skew(p):
        Pc = P(p)
        return _max_abs(Pc + Pc.swapaxes(-1, -2)), 1.0 + _max_abs(Pc)

    def jacobi(p):
        Pc, Pd = P.jet(p)
        return (_sliced_max(_jacobi, Pc, Pd),
                (1.0 + _max_abs(Pc)) * (1.0 + _max_abs(Pd)))

    return PoissonStructure(sampled(sample, skew, tol_exact),
                            sampled(sample, jacobi, tol_deriv))


def poisson_bracket(P: BivectorField, f: ScalarField, g: ScalarField,
                    p: Point) -> np.ndarray:
    """``<df, P dg>`` at each point of ``p``."""
    _same_chart(P.chart, f.chart)
    _same_chart(P.chart, g.chart)
    return np.einsum("si,sij,sj->s", f.gradient(p), P(p), g.gradient(p))


def hamiltonian_field(P: BivectorField, f: ScalarField) -> VectorField:
    """``P df`` as a differentiable vector field."""
    return apply_operator(P, differential(f))


def check_compatibility(K: OperatorField, P: BivectorField, sample,
                        tol: float = 1e-12) -> SampledResidual:
    """Residual of ``K P = P K^T`` over the sample."""
    def at(p):
        k, m = K(p), P(p)
        return (_max_abs(k @ m - m @ k.swapaxes(-1, -2)),
                (1.0 + _max_abs(k)) * (1.0 + _max_abs(m)))

    return sampled(sample, at, tol)


def check_skew_compositions(Ki: OperatorField, Kj: OperatorField,
                            P: BivectorField, f: ScalarField, r: int,
                            sample, tol: float = 1e-12) -> SampledResidual:
    """Largest skew residual of ``Ki P``, ``Ki P Kj^T`` and
    ``(Ki - f I)^s P`` for ``s = 1..r``."""
    n = Ki.chart.dim

    def at(p):
        ki, kj, m = Ki(p), Kj(p), P(p)
        composites = [ki @ m, ki @ m @ kj.swapaxes(-1, -2)]
        shifted = ki - f(p)[:, None, None] * np.eye(n)
        power = np.eye(n, dtype=complex)
        for _ in range(r):
            power = power @ shifted
            composites.append(power @ m)
        return (_max_abs(*(a + a.swapaxes(-1, -2) for a in composites)),
                (1.0 + _max_abs(ki, kj, m)) ** (r + 2))

    return sampled(sample, at, tol)


# -- Lie derivatives over a sample ------------------------------------------
#
# Every kernel takes components and partials with the sample axis first.

def _lie_operator(Zc, Zd, Nc, Nd) -> np.ndarray:
    # Zd[s, i, k] = d_k Z^i, Nd[s, i, j, k] = d_k N^i_j
    return (np.einsum("sk,sijk->sij", Zc, Nd)
            - np.einsum("skj,sik->sij", Nc, Zd)
            + np.einsum("sik,skj->sij", Nc, Zd))


def lie_derivative_operator(Z: VectorField, N: OperatorField,
                            p: Point) -> np.ndarray:
    """``(L_Z N)^i_j = Z^k d_k N^i_j - N^k_j d_k Z^i + N^i_k d_j Z^k``."""
    return _lie_operator(*Z.jet(p), *N.jet(p))


def _lie_oneform(Yc, Yd, Ac, Ad) -> np.ndarray:
    # Yd[s, i, k] = d_k Y^i, Ad[s, i, k] = d_k a_i
    return (np.einsum("sk,sik->si", Yc, Ad)
            + np.einsum("sk,ski->si", Ac, Yd))


def lie_derivative_oneform(Y: VectorField, alpha: OneFormField,
                           p: Point) -> np.ndarray:
    """Cartan formula in components:
    ``(L_Y a)_i = Y^k d_k a_i + a_k d_i Y^k``."""
    return _lie_oneform(*Y.jet(p), *alpha.jet(p))


def _lie_bivector(Zc, Zd, Pc, Pd) -> np.ndarray:
    # Zd[s, i, k] = d_k Z^i, Pd[s, i, j, k] = d_k P^{ij}
    return (np.einsum("sk,sijk->sij", Zc, Pd)
            - np.einsum("skj,sik->sij", Pc, Zd)
            - np.einsum("sik,sjk->sij", Pc, Zd))


def lie_derivative_bivector(Z: VectorField, P: BivectorField,
                            p: Point) -> np.ndarray:
    """``(L_Z P)^{ij} = Z^k d_k P^{ij} - P^{kj} d_k Z^i - P^{ik} d_k Z^j``."""
    return _lie_bivector(*Z.jet(p), *P.jet(p))


def _r_tensor(Pc, Pd, Nc, Nd, ac, ad, yc, yd) -> np.ndarray:
    # P a, N^T a and N Y with their partials by the product rule
    pa = np.einsum("sij,sj->si", Pc, ac)
    pa_d = np.einsum("sijk,sj->sik", Pd, ac) + Pc @ ad
    nta = np.einsum("sij,si->sj", Nc, ac)
    nta_d = np.einsum("sijk,si->sjk", Nd, ac) + Nc.swapaxes(-1, -2) @ ad
    ny = np.einsum("sij,sj->si", Nc, yc)
    ny_d = np.einsum("sijk,sj->sik", Nd, yc) + Nc @ yd
    inner = _lie_oneform(yc, yd, nta, nta_d) - _lie_oneform(ny, ny_d, ac, ad)
    return (np.einsum("sij,sj->si", _lie_operator(pa, pa_d, Nc, Nd), yc)
            - np.einsum("sij,sj->si", Pc, inner))


def r_tensor(P: BivectorField, N: OperatorField, alpha: OneFormField,
             Y: VectorField, p: Point) -> np.ndarray:
    """Compatibility tensor of a bivector and an operator applied to a
    one-form and a vector:
    ``L_{P a}(N) Y - P (L_Y (N^T a) - L_{N Y} a)``."""
    for f in (N, alpha, Y):
        _same_chart(P.chart, f.chart)
    return _r_tensor(*P.jet(p), *N.jet(p), *alpha.jet(p), *Y.jet(p))


# -- Magri chains -----------------------------------------------------------

@dataclass(frozen=True)
class MagriChain:
    """Elements produced by pushing one seed differential through an
    operator family, with the residuals that decide whether the chain
    closes."""

    elements: list
    residuals: list


def build_chain_oneforms(generators, H: ScalarField, sample,
                         tol: float = 1e-9) -> MagriChain:
    """Elements ``K_i^T dH`` with pointwise-closedness residuals.

    The terms of ``J = d(K^T dH)`` can cancel, so the scale is not
    ``1 + |J|`` but the backward-error bound
    ``1 + |J| + |dK| |dH| + |K| |d^2 H|``, its products summed entry by
    entry as the terms of ``J`` are (the componentwise bound)."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    dH = differential(H)
    elements = [apply_transpose(K, dH) for K in generators]

    def closedness(K, el):
        def at(p):
            J = el.jacobian(p)  # d(el) = J^T - J
            Kc, Kd = K.jet(p)
            h, hd = dH.jet(p)
            # J[i, k] = sum_j d_k K[j, i] h[j] + K[j, i] d_k h[j]
            terms = (np.einsum("sjik,sj->sik", abs(Kd), abs(h))
                     + np.einsum("sji,sjk->sik", abs(Kc), abs(hd)))
            return (_max_abs(J.swapaxes(-1, -2) - J),
                    1.0 + _max_abs(J) + _max_abs(terms))
        return at

    return MagriChain(elements, [sampled(sample, closedness(K, el), tol)
                                 for K, el in zip(generators, elements)])
