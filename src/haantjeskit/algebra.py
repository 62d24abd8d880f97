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
    """Monic annihilating polynomial of an operator at one point.

    ``coeffs[k]`` multiplies the k-th power; the leading (degree) coefficient
    is 1 and is not stored.  An ill-conditioned power sequence is reported
    through the flag, never silently accepted.
    """

    degree: int
    coeffs: np.ndarray
    residual: float
    condition: float

    @property
    def ill_conditioned(self) -> bool:
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
    n = m.shape[0]
    power = np.eye(n, dtype=complex)
    out = [power.reshape(-1)]
    for _ in range(count):
        power = power @ m
        out.append(power.reshape(-1))
    return out


def minimal_polynomial(L: OperatorField, p: Point) -> MinimalPolynomial:
    """Smallest monic polynomial annihilating ``L(p)``, found by least
    squares on the vectorized power sequence."""
    m = L(p)
    n = m.shape[0]
    vecs = _vec_powers(m, n)
    norm = max(1.0, float(np.max(np.abs(m))))
    for d in range(1, n + 1):
        A = np.column_stack(vecs[:d])
        b = vecs[d]
        c, *_ = np.linalg.lstsq(A, -b, rcond=None)
        residual = float(np.max(np.abs(A @ c + b)))
        if residual <= RANK_RTOL * max(1.0, norm ** d):
            s = np.linalg.svd(A, compute_uv=False)
            cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
            return MinimalPolynomial(d, c, residual, cond)
    raise ValueError("no annihilating polynomial found up to full degree")


def algebra_rank(generators, p: Point) -> int:
    """Numerical dimension of the span of the vectorized generator values."""
    stack = np.column_stack([K(p).reshape(-1) for K in generators])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


def verify_algebra(generators, sample, module_coeffs,
                   tol: float = 1e-9) -> HaantjesAlgebra:
    """Run the generator, pairwise-ring, Abelian and function-linear
    combination checks on a sample; ``module_coeffs`` is the pair of scalar
    fields of the combinations.  The Abelian condition is judged on pairs of
    distinct generators, so it needs at least two."""
    if not sample:
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
