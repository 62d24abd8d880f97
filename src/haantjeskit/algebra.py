"""Haantjes-algebra verification: module/ring/Abelian conditions, numerical
rank and minimal polynomials."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .charts import (OperatorField, Point, ScalarField, add_fields,
                     compose_operators, scale_field)
from .report import SampledResidual, _max_abs, sampled, worst
from .torsion import is_haantjes

__all__ = [
    "MinimalPolynomial",
    "check_module_condition", "check_ring_condition", "check_abelian",
    "minimal_polynomial", "algebra_rank",
]

RANK_RTOL = 1e-8


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic annihilating polynomial of an operator at each point of a
    sample, one row per point.

    ``coeffs[s, k]`` multiplies the k-th power at the s-th point, for
    ``k < degree[s]``, and is zero beyond; the leading (degree) coefficient
    is 1 and is not stored.
    """

    degree: np.ndarray
    coeffs: np.ndarray


def _family(generators, sample) -> None:
    """Reject what the closure conditions of a generator family cannot
    judge: an empty sample, or fewer than two generators."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    if len(generators) < 2:
        raise ValueError("an algebra needs at least two generators")


def check_module_condition(generators, f: ScalarField, g: ScalarField,
                           sample, tol: float = 1e-9) -> SampledResidual:
    """Haantjes residual of ``f*Ki + g*Kj`` for every pair of generators,
    each with itself too, ``i <= j``."""
    _family(generators, sample)
    return worst(
        is_haantjes(add_fields(scale_field(f, a), scale_field(g, b)),
                    sample, tol)
        for i, a in enumerate(generators) for b in generators[i:])


def check_ring_condition(generators, sample,
                         tol: float = 1e-9) -> SampledResidual:
    """Haantjes residual of ``Ki Kj`` for both orders of every pair of
    generators, each with itself too, each composite judged once."""
    _family(generators, sample)
    return worst(is_haantjes(compose_operators(a, b), sample, tol)
                 for a in generators for b in generators)


def check_abelian(generators, sample, tol: float = 1e-12) -> SampledResidual:
    """Commutator ``[Ki, Kj]`` of every pair of distinct generators, each
    against ``(1+|Ki|)(1+|Kj|)``; the condition is algebraic, so ``tol`` is
    an exact-arithmetic tolerance."""
    _family(generators, sample)

    def commutator(a, b):
        def at(p):
            x, y = a(p), b(p)
            return (_max_abs(x @ y - y @ x),
                    (1.0 + _max_abs(x)) * (1.0 + _max_abs(y)))
        return at

    return worst(sampled(sample, commutator(a, b), tol)
                 for a, b in itertools.combinations(generators, 2))


def _vec_powers(m: np.ndarray, count: int):
    size, n = m.shape[0], m.shape[-1]
    power = np.broadcast_to(np.eye(n, dtype=complex), m.shape)
    out = [power.reshape(size, -1)]
    for _ in range(count):
        power = power @ m
        out.append(power.reshape(size, -1))
    return out


def _least_squares(A: np.ndarray, b: np.ndarray):
    """Minimum-norm least-squares solutions of ``A[s] c = b[s]`` for a stack
    of matrices; singular values below the cut of ``numpy.linalg.lstsq``'s
    default are dropped."""
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * max(A.shape[-2:]) * s[:, :1]
    sinv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return np.einsum("sji,sj->si", vh.conj(),
                     sinv * np.einsum("ski,sk->si", u.conj(), b))


def minimal_polynomial(L: OperatorField, p: Point) -> MinimalPolynomial:
    """Smallest monic polynomial annihilating ``L`` at each point of ``p``,
    found by least squares on the vectorized power sequence, one degree at
    a time for the whole sample."""
    m = L(p)
    size, n = m.shape[0], m.shape[-1]
    vecs = _vec_powers(m, n)
    norm = np.maximum(1.0, _max_abs(m))
    degree = np.zeros(size, dtype=int)
    coeffs = np.zeros((size, n), dtype=complex)
    for d in range(1, n + 1):
        A = np.stack(vecs[:d], axis=-1)
        b = vecs[d]
        c = _least_squares(A, -b)
        res = np.abs(np.einsum("ski,si->sk", A, c) + b).max(axis=1)
        new = (degree == 0) & (res <= RANK_RTOL * np.maximum(1.0, norm ** d))
        degree[new] = d
        coeffs[new, :d] = c[new]
        if degree.all():
            return MinimalPolynomial(degree, coeffs)
    raise ValueError("no annihilating polynomial found up to full degree")


def algebra_rank(generators, p: Point) -> np.ndarray:
    """Numerical dimension of the span of the vectorized generator values,
    at each point of ``p``, each value normalised to unit length first."""
    stack = np.stack([K(p).reshape(len(p), -1) for K in generators],
                     axis=-1)
    # unit columns, so the relative cut does not depend on how the
    # generators scale with the parameters; a zero generator stays zero
    norms = np.linalg.norm(stack, axis=1, keepdims=True)
    stack = np.divide(stack, norms, out=np.zeros_like(stack),
                      where=norms > 0)
    s = np.linalg.svd(stack, compute_uv=False)
    return np.sum(s > RANK_RTOL * s[:, :1], axis=1)
