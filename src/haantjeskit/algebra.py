"""Haantjes-algebra verification: module/ring/Abelian conditions, numerical
rank, minimal polynomials and cyclic generation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import (OperatorField, Point, ScalarField, add_fields,
                     compose_operators, operator_polynomial, scale_field)
from .report import SampledResidual, _max_abs, merge, sampled
from .torsion import is_haantjes

__all__ = [
    "HaantjesAlgebra", "MinimalPolynomial",
    "check_module_condition", "check_ring_condition", "check_abelian",
    "minimal_polynomial", "cyclic_algebra", "verify_algebra", "algebra_rank",
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


@dataclass
class HaantjesAlgebra:
    """A generator family with its sampled verification state."""

    generators: list
    rank: int = 0
    rank_consistent: bool = True
    haantjes: SampledResidual | None = None
    module: SampledResidual | None = None
    ring: SampledResidual | None = None
    abelian: SampledResidual | None = None
    ranks_per_point: list = field(default_factory=list)


def check_module_condition(Ki: OperatorField, Kj: OperatorField,
                           f: ScalarField, g: ScalarField, sample,
                           tol: float = 1e-9) -> SampledResidual:
    """Haantjes residual of ``f*Ki + g*Kj`` over the sample."""
    comb = add_fields(scale_field(f, Ki), scale_field(g, Kj))
    return is_haantjes(comb, sample, tol)


def check_ring_condition(Ki: OperatorField, Kj: OperatorField, sample,
                         tol: float = 1e-9) -> SampledResidual:
    """Worst Haantjes residual of the two composition orders."""
    return merge([is_haantjes(compose_operators(Ki, Kj), sample, tol),
                  is_haantjes(compose_operators(Kj, Ki), sample, tol)])


def check_abelian(Ki: OperatorField, Kj: OperatorField, sample,
                  tol: float = 1e-12) -> SampledResidual:
    def at(p):
        a = Ki(p)
        b = a if Kj is Ki else Kj(p)  # a field paired with itself: one read
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


def minimal_polynomial(L: OperatorField, p: Point,
                       rtol: float = RANK_RTOL) -> MinimalPolynomial:
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
        if residual <= rtol * max(1.0, norm ** d):
            s = np.linalg.svd(A, compute_uv=False)
            cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
            return MinimalPolynomial(d, c, residual, cond)
    raise ValueError("no annihilating polynomial found up to full degree")


def algebra_rank(generators, p: Point, rtol: float = RANK_RTOL) -> int:
    """Numerical dimension of the span of the vectorized generator values."""
    stack = np.column_stack([K(p).reshape(-1) for K in generators])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def cyclic_algebra(L: OperatorField, sample, m: int | None = None,
                   tol: float = 1e-9) -> HaantjesAlgebra:
    """The algebra generated by powers of ``L``; by default the power count
    is the minimal-polynomial degree on the sample."""
    if not sample:
        raise ValueError("empty sample")
    if m is None:
        m = max(minimal_polynomial(L, p).degree for p in sample)
    coeffs_for = lambda k: [1.0 if i == k else 0.0 for i in range(k + 1)]
    generators = [operator_polynomial(L, coeffs_for(k)) for k in range(m)]
    alg = verify_algebra(generators, sample, tol=tol)
    return alg


def verify_algebra(generators, sample, tol: float = 1e-9,
                   module_coeffs=None) -> HaantjesAlgebra:
    """Run the generator, pairwise-ring and Abelian checks on a sample, and
    compute the sampled rank.

    ``module_coeffs`` is an optional pair of scalar fields used for the
    function-linear combination check; identity coefficients are used when
    it is omitted.
    """
    if not sample:
        raise ValueError("empty sample")
    alg = HaantjesAlgebra(generators=list(generators))

    alg.haantjes = merge(is_haantjes(K, sample, tol) for K in generators)
    pairs = [(a, b) for i, a in enumerate(generators)
             for b in generators[i:]]
    # both orders of every pair, each composite judged once
    alg.ring = merge(is_haantjes(compose_operators(a, b), sample, tol)
                     for a in generators for b in generators)
    alg.abelian = merge(check_abelian(a, b, sample) for a, b in pairs)

    if module_coeffs is not None:
        f, g = module_coeffs
        alg.module = merge(check_module_condition(a, b, f, g, sample, tol)
                           for a, b in pairs)
    else:
        alg.module = alg.haantjes

    ranks = [algebra_rank(generators, p) for p in sample]
    alg.ranks_per_point = ranks
    alg.rank = ranks[0]
    alg.rank_consistent = all(r == ranks[0] for r in ranks)
    return alg
