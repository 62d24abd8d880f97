"""Poisson bivectors, brackets, compatibility with operator algebras, Lie
derivatives and chain construction.

Chain failures are data: a chain that does not close is returned with its
residuals, never raised as an exception, because adjudicating identities is
the whole point of the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import (BivectorField, OneFormField, OperatorField, Point,
                     ScalarField, VectorField, _same_chart, apply_operator,
                     apply_transpose, differential, lie_bracket)
from .report import SampledResidual, _max_abs, sampled

__all__ = [
    "PoissonStructure", "MagriChain",
    "jacobi_residual", "verify_poisson", "poisson_bracket",
    "hamiltonian_field", "check_compatibility", "check_skew_compositions",
    "lie_derivative_operator", "lie_derivative_oneform",
    "lie_derivative_bivector", "r_tensor",
    "build_chain_oneforms", "build_chain_vectorfields",
]


@dataclass(frozen=True)
class PoissonStructure:
    P: BivectorField
    skew: SampledResidual
    jacobi: SampledResidual

    @property
    def verified(self) -> bool:
        return self.skew.passed and self.jacobi.passed


def _jacobi(Pc: np.ndarray, Pd: np.ndarray) -> float:
    # Pd[i, j, l] = d_l P^{ij}
    term = np.einsum("il,jkl->ijk", Pc, Pd)
    return _max_abs(term + term.transpose(1, 2, 0) + term.transpose(2, 0, 1))


def jacobi_residual(P: BivectorField, p: Point) -> float:
    """Max over index triples of the cyclic Schouten sum."""
    return _jacobi(*P.jet(p))


def verify_poisson(P: BivectorField, sample, tol_exact: float = 1e-12,
                   tol_deriv: float = 1e-9) -> PoissonStructure:
    """Skew residual against ``1+m`` and Jacobi residual against
    ``(1+m)(1+d)``, with ``m`` and ``d`` the sample-wide maxima of ``|P|``
    and ``|dP|``."""
    def at(p):
        Pc, Pd = P.jet(p)
        return (_max_abs(Pc + Pc.T), _jacobi(Pc, Pd), _max_abs(Pc),
                _max_abs(Pd))

    skew, jacobi = sampled(
        sample, at, (tol_exact, tol_deriv),
        scale=lambda m, d: (1.0 + m, (1.0 + m) * (1.0 + d)))
    return PoissonStructure(P, skew=skew, jacobi=jacobi)


def poisson_bracket(P: BivectorField, f: ScalarField, g: ScalarField,
                    p: Point) -> complex:
    """``<df, P dg>`` at ``p``."""
    _same_chart(P.chart, f.chart)
    _same_chart(P.chart, g.chart)
    df = f.gradient(p)
    dg = g.gradient(p)
    return complex(df @ P(p) @ dg)


def hamiltonian_field(P: BivectorField, f: ScalarField) -> VectorField:
    """``P df`` as a differentiable vector field."""
    return apply_operator(P, differential(f))


def check_compatibility(K: OperatorField, P: BivectorField, sample,
                        tol: float = 1e-12) -> SampledResidual:
    """Residual of ``K P = P K^T`` over the sample."""
    def at(p):
        k, m = K(p), P(p)
        return (_max_abs(k @ m - m @ k.T),
                (1.0 + _max_abs(k)) * (1.0 + _max_abs(m)))

    return sampled(sample, at, tol)


def check_skew_compositions(Ki: OperatorField, Kj: OperatorField,
                            P: BivectorField, f: ScalarField, r: int,
                            sample, tol: float = 1e-12) -> dict:
    """Skew residuals of ``Ki P``, ``Ki P Kj^T`` and ``(Ki - f I)^s P`` for
    ``s = 1..r``."""
    n = Ki.chart.dim
    names = ["KiP", "KiPKjT"] + [f"(Ki-fI)^{s}P" for s in range(1, r + 1)]

    def at(p):
        ki, kj, m = Ki(p), Kj(p), P(p)
        skew = lambda a: _max_abs(a + a.T)
        out = [skew(ki @ m), skew(ki @ m @ kj.T)]
        shifted = ki - complex(f(p)) * np.eye(n)
        power = np.eye(n, dtype=complex)
        for _ in range(r):
            power = power @ shifted
            out.append(skew(power @ m))
        return (*out, (1.0 + _max_abs(ki, kj, m)) ** (r + 2))

    return dict(zip(names, sampled(sample, at, (tol,) * len(names))))


# -- Lie derivatives (pointwise) -------------------------------------------

def lie_derivative_operator(Z: VectorField, N: OperatorField,
                            p: Point) -> np.ndarray:
    """``(L_Z N)^i_j = Z^k d_k N^i_j - N^k_j d_k Z^i + N^i_k d_j Z^k``."""
    Zc, Zd = Z.jet(p)
    Nc, Nd = N.jet(p)
    return (np.einsum("k,ijk->ij", Zc, Nd)
            - np.einsum("kj,ik->ij", Nc, Zd)
            + np.einsum("ik,kj->ij", Nc, Zd))


def lie_derivative_oneform(Y: VectorField, alpha: OneFormField,
                           p: Point) -> np.ndarray:
    """Cartan formula in components:
    ``(L_Y a)_i = Y^k d_k a_i + a_k d_i Y^k``."""
    Yc, Yd = Y.jet(p)
    Ac, Ad = alpha.jet(p)
    return np.einsum("k,ik->i", Yc, Ad) + np.einsum("k,ki->i", Ac, Yd)


def _lie_bivector(Zc, Zd, Pc, Pd) -> np.ndarray:
    # Zd[i, k] = d_k Z^i, Pd[i, j, k] = d_k P^{ij}
    return (np.einsum("k,ijk->ij", Zc, Pd)
            - np.einsum("kj,ik->ij", Pc, Zd)
            - np.einsum("ik,jk->ij", Pc, Zd))


def lie_derivative_bivector(Z: VectorField, P: BivectorField,
                            p: Point) -> np.ndarray:
    """``(L_Z P)^{ij} = Z^k d_k P^{ij} - P^{kj} d_k Z^i - P^{ik} d_k Z^j``."""
    return _lie_bivector(*Z.jet(p), *P.jet(p))


def r_tensor(P: BivectorField, N: OperatorField, alpha: OneFormField,
             Y: VectorField, p: Point) -> np.ndarray:
    """Compatibility tensor of a bivector and an operator applied to a
    one-form and a vector:
    ``L_{P a}(N) Y - P (L_Y (N^T a) - L_{N Y} a)``."""
    for f in (N, alpha, Y):
        _same_chart(P.chart, f.chart)
    Pa = apply_operator(P, alpha)
    NY = apply_operator(N, Y)
    NTa = apply_transpose(N, alpha)
    first = lie_derivative_operator(Pa, N, p) @ Y(p)
    inner = lie_derivative_oneform(Y, NTa, p) - lie_derivative_oneform(NY, alpha, p)
    return first - P(p) @ inner


# -- Magri chains -----------------------------------------------------------

@dataclass
class MagriChain:
    """Elements produced by pushing one seed field through an operator
    family, with the residuals that decide whether the chain closes."""

    kind: str  # "one-forms" | "vector-fields"
    elements: list
    residuals: list = field(default_factory=list)
    ok: bool = True


def build_chain_oneforms(generators, H: ScalarField, sample,
                         tol: float = 1e-9) -> MagriChain:
    """Elements ``K_i^T dH`` with pointwise-closedness residuals."""
    if not sample:
        raise ValueError("empty sample")
    dH = differential(H)
    chain = MagriChain("one-forms", [])
    for K in generators:
        el = apply_transpose(K, dH)

        def at(p, el=el):
            J = el.jacobian(p)  # d(el) = J^T - J
            return _max_abs(J.T - J), 1.0 + _max_abs(J)

        chain.elements.append(el)
        chain.residuals.append(sampled(sample, at, tol))
    chain.ok = all(r.passed for r in chain.residuals)
    return chain


def build_chain_vectorfields(generators, Y: VectorField, sample,
                             tol: float = 1e-9) -> MagriChain:
    """Elements ``K_i Y`` with pairwise-commutation residuals."""
    if not sample:
        raise ValueError("empty sample")
    elements = [apply_operator(K, Y) for K in generators]
    chain = MagriChain("vector-fields", elements)
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            br = lie_bracket(a, b)
            chain.residuals.append(sampled(
                sample, lambda p, a=a, b=b, br=br: (
                    _max_abs(br(p)),
                    (1.0 + _max_abs(a(p))) * (1.0 + _max_abs(b.jacobian(p)))),
                tol))
    chain.ok = all(r.passed for r in chain.residuals)
    return chain
