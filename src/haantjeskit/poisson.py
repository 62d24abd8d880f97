"""Poisson bivectors, brackets, compatibility with operator algebras, Lie
derivatives and Magri chains.

Each check judges one condition over a sample and returns its
:class:`~haantjeskit.report.SampledResidual`.  A condition that does not
hold, such as a chain that does not close, is data in that result, never
raised as an exception, because adjudicating identities is the whole point
of the toolkit.
"""

from __future__ import annotations

import numpy as np

from .charts import (BivectorField, OneFormField, OperatorField, Point,
                     ScalarField, VectorField, apply_operator,
                     apply_transpose, differential)
from .report import (SampledResidual, _first_order, _max_abs, _sliced_max,
                     sampled, worst)

__all__ = [
    "jacobi_residual", "check_skew", "check_jacobi", "poisson_bracket",
    "hamiltonian_field", "check_compatibility", "check_skew_compositions",
    "lie_derivative", "lie_derivative_operator", "r_tensor",
    "check_chain_closed",
]


def _jacobi(Pc: np.ndarray, Pd: np.ndarray) -> np.ndarray:
    # Pd[s, i, j, l] = d_l P^{ij} at the s-th point;
    # term[s, i, j, k] = P^{il} d_l P^{jk}, one batched `@` over the
    # flattened (j, k) pair.  The cyclic sum is reduced in slices of
    # `report.SLICE` entries by `_sliced_max`
    s, n = Pc.shape[:2]
    term = (Pc @ Pd.reshape(s, n * n, n).swapaxes(-1, -2)).reshape(
        s, n, n, n)
    return term + term.transpose(0, 2, 3, 1) + term.transpose(0, 3, 1, 2)


def jacobi_residual(P: BivectorField, p: Point) -> np.ndarray:
    """Max over index triples of the cyclic Schouten sum, per point."""
    return _sliced_max(_jacobi, *P.jet(p))


def check_skew(P: BivectorField, sample,
               tol: float = 1e-12) -> SampledResidual:
    """Residual of ``P + P^T = 0`` against ``1+|P|`` at each point, from
    one plain read of ``P``."""
    def at(p):
        Pc = P(p)
        return _max_abs(Pc + Pc.swapaxes(-1, -2)), 1.0 + _max_abs(Pc)

    return sampled(sample, at, tol)


def check_jacobi(P: BivectorField, sample,
                 tol: float = 1e-9) -> SampledResidual:
    """Cyclic Schouten sum against ``(1+|P|)(1+|dP|)`` at each point, from
    one jet of ``P``."""
    return _first_order(P, sample, tol, _jacobi, 1)


def poisson_bracket(P: BivectorField, f: ScalarField, g: ScalarField,
                    p: Point) -> np.ndarray:
    """``<df, P dg>`` at each point of ``p``."""
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

def _lie(Zc, Zd, Tc, Td, slots: str) -> np.ndarray:
    # Zd[s, i, k] = d_k Z^i, Td[s, ..., k] = d_k T^{...}; `slots` names
    # T's indices in order, "u" upper and "d" lower, at most two.  Each
    # term is one batched `@` over T's other indices: Z^k d_k T contracts
    # the last index of Td, and a slot moves its index last and contracts
    # it with Zd^T (upper) or Zd (lower)
    s, n = Zc.shape
    L = (Td.reshape(s, -1, n) @ Zc[:, :, None]).reshape(Tc.shape)
    for a, slot in enumerate(slots, 1):
        T = np.moveaxis(Tc, a, -1)
        A = Zd.swapaxes(-1, -2) if slot == "u" else Zd
        term = np.moveaxis((T.reshape(s, -1, n) @ A).reshape(T.shape), -1, a)
        L = L - term if slot == "u" else L + term
    return L


def lie_derivative(Z: VectorField, T, p: Point) -> np.ndarray:
    """``L_Z T`` at each point of ``p`` for a field ``T`` of any kind, from
    one jet of each field: ``Z^k d_k T``, then for each index of ``T`` in
    order ``- T^{..k..} d_k Z^i`` if it is upper or ``+ T_{..k..} d_j Z^k``
    if it is lower.  So a scalar gives ``Z^k d_k f``, a vector the bracket
    ``[Z, Y]``, and an operator
    ``(L_Z N)^i_j = Z^k d_k N^i_j - N^k_j d_k Z^i + N^i_k d_j Z^k``."""
    return _lie(*Z.jet(p), *T.jet(p), T.slots)


# an older name, still imported by `bench/micro.py`
lie_derivative_operator = lie_derivative


def r_tensor(P: BivectorField, N: OperatorField, alpha: OneFormField,
             Y: VectorField, p: Point) -> np.ndarray:
    """Compatibility tensor of a bivector and an operator applied to a
    one-form and a vector:
    ``L_{P a}(N) Y - P (L_Y (N^T a) - L_{N Y} a)``; ``P a``, ``N^T a`` and
    ``N Y`` are fields of the field algebra, so each Lie derivative reads
    one jet of each of its two fields."""
    inner = (lie_derivative(Y, apply_transpose(N, alpha), p)
             - lie_derivative(apply_operator(N, Y), alpha, p))
    return (np.einsum("sij,sj->si",
                      lie_derivative(apply_operator(P, alpha), N, p),
                      Y.jet(p)[0])
            - np.einsum("sij,sj->si", P.jet(p)[0], inner))


# -- Magri chains -----------------------------------------------------------

def check_chain_closed(generators, H: ScalarField, sample,
                       tol: float = 1e-9) -> SampledResidual:
    """Pointwise closedness of every chain element ``K^T dH``, one per
    generator ``K``.

    The terms of ``J = d(K^T dH)`` can cancel, so the scale is not
    ``1 + |J|`` but the backward-error bound
    ``1 + |J| + |dK| |dH| + |K| |d^2 H|``, its products summed entry by
    entry as the terms of ``J`` are (the componentwise bound).  ``J`` and
    its terms are contracted from one jet of ``K`` and one of ``dH``."""
    dH = differential(H)

    def jacobian(Kc, Kd, h, hd):
        # J[i, k] = sum_j d_k K[j, i] h[j] + K[j, i] d_k h[j], each sum
        # one batched `@` over j
        s, n = h.shape
        return ((h[:, None] @ Kd.reshape(s, n, n * n)).reshape(s, n, n)
                + Kc.swapaxes(-1, -2) @ hd)

    def closedness(K):
        def at(p):
            parts = (*K.jet(p), *dH.jet(p))
            J = jacobian(*parts)  # d(K^T dH) = J^T - J
            return (_max_abs(J.swapaxes(-1, -2) - J),
                    1.0 + _max_abs(J)
                    + _max_abs(jacobian(*(abs(a) for a in parts))))
        return at

    return worst(sampled(sample, closedness(K), tol) for K in generators)
