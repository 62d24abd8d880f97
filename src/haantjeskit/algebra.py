"""Haantjes-algebra verification: module/ring/Abelian conditions, numerical
rank and minimal polynomials."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .charts import (OperatorField, Point, ScalarField, add_fields,
                     compose_operators, scale_field)
from .report import SampledResidual, _max_abs, merge, sampled
from .torsion import is_haantjes

__all__ = [
    "HaantjesAlgebra", "MinimalPolynomial",
    "check_module_condition", "check_abelian",
    "minimal_polynomial", "verify_algebra", "algebra_rank",
]

RANK_RTOL = 1e-8
COND_LIMIT = 1e12


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic annihilating polynomial of an operator at each point of a
    sample, one row per point.

    ``coeffs[s, k]`` multiplies the k-th power at the s-th point, for
    ``k < degree[s]``, and is zero beyond; the leading (degree) coefficient
    is 1 and is not stored.  An ill-conditioned power sequence is reported
    through the flag, never silently accepted.
    """

    degree: np.ndarray
    coeffs: np.ndarray
    residual: np.ndarray
    condition: np.ndarray

    @property
    def ill_conditioned(self) -> np.ndarray:
        return self.condition > COND_LIMIT


@dataclass(frozen=True)
class HaantjesAlgebra:
    """Sampled verification state of a generator family."""

    haantjes: SampledResidual
    ring: SampledResidual
    abelian: SampledResidual
    module: SampledResidual


def check_module_condition(Ki: OperatorField, Kj: OperatorField,
                           f: ScalarField, g: ScalarField, sample,
                           tol: float = 1e-9) -> SampledResidual:
    """Haantjes residual of ``f*Ki + g*Kj`` over the sample."""
    comb = add_fields(scale_field(f, Ki), scale_field(g, Kj))
    return is_haantjes(comb, sample, tol)


def check_abelian(Ki: OperatorField, Kj: OperatorField, sample,
                  tol: float = 1e-12) -> SampledResidual:
    def at(p):
        a, b = Ki(p), Kj(p)
        return (_max_abs(a @ b - b @ a),
                (1.0 + _max_abs(a)) * (1.0 + _max_abs(b)))

    return sampled(sample, at, tol)


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
    of matrices, with the condition numbers of ``A[s]``; singular values
    below the cut of ``numpy.linalg.lstsq``'s default are dropped."""
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * max(A.shape[-2:]) * s[:, :1]
    sinv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    c = np.einsum("sji,sj->si", vh.conj(),
                  sinv * np.einsum("ski,sk->si", u.conj(), b))
    cond = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf),
                     where=s[:, -1] > 0)
    return c, cond


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
    residual = np.zeros(size)
    condition = np.zeros(size)
    for d in range(1, n + 1):
        A = np.stack(vecs[:d], axis=-1)
        b = vecs[d]
        c, cond = _least_squares(A, -b)
        res = np.abs(np.einsum("ski,si->sk", A, c) + b).max(axis=1)
        new = (degree == 0) & (res <= RANK_RTOL * np.maximum(1.0, norm ** d))
        degree[new] = d
        coeffs[new, :d] = c[new]
        residual[new] = res[new]
        condition[new] = cond[new]
        if degree.all():
            return MinimalPolynomial(degree, coeffs, residual, condition)
    raise ValueError("no annihilating polynomial found up to full degree")


def algebra_rank(generators, p: Point) -> np.ndarray:
    """Numerical dimension of the span of the vectorized generator values,
    at each point of ``p``."""
    stack = np.stack([K(p).reshape(len(p), -1) for K in generators],
                     axis=-1)
    s = np.linalg.svd(stack, compute_uv=False)
    return np.sum(s > RANK_RTOL * s[:, :1], axis=1)


def verify_algebra(generators, sample, module_coeffs,
                   tol: float = 1e-9) -> HaantjesAlgebra:
    """Run the generator, pairwise-ring, Abelian and function-linear
    combination checks on a sample; ``module_coeffs`` is the pair of scalar
    fields of the combinations.  The Abelian condition is judged on pairs of
    distinct generators, so it needs at least two."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    if len(generators) < 2:
        raise ValueError("an algebra needs at least two generators")
    pairs = [(a, b) for i, a in enumerate(generators)
             for b in generators[i:]]
    f, g = module_coeffs
    return HaantjesAlgebra(
        haantjes=merge(is_haantjes(K, sample, tol) for K in generators),
        # both orders of every pair, each composite judged once
        ring=merge(is_haantjes(compose_operators(a, b), sample, tol)
                   for a in generators for b in generators),
        abelian=merge(check_abelian(a, b, sample)
                      for a, b in itertools.combinations(generators, 2)),
        module=merge(check_module_condition(a, b, f, g, sample, tol)
                     for a, b in pairs))
