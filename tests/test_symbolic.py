"""Exact certificates for closed forms, with the inertia ratio ``c`` a
positive symbol.

The sampled checks judge an identity at float points for one value of
``c``.  Here the component functions run on sympy symbols instead, with
``TopParams(c=Symbol('c', positive=True))``; ``nsimplify`` turns their
float literals (``1.0``, ``0.5``, ``2.0``) into rationals, and each
identity must cancel to exactly 0 for every ``c``.
"""

from __future__ import annotations

import itertools

import pytest

sp = pytest.importorskip("sympy")

from haantjeskit.lagrange import (TopParams, benenti_operators,  # noqa: E402
                                  complex_integrals, nijenhuis_operator,
                                  poisson_bivectors)

C = sp.Symbol("c", positive=True)
PARAMS = TopParams(c=C)
X = sp.symbols("x1 x2 y1 y2 f1 f4")
BODY = sp.symbols("w1 w2 w3 g1 g2 g3")


def _exact(expr):
    return sp.nsimplify(expr, rational=True)


def _matrix(field, coords=X):
    """The field's components at the symbolic coordinates, exact."""
    return sp.Matrix(field.fn(list(coords))).applyfunc(_exact)


def _gradient(field):
    f = _exact(field.fn(list(X)))
    return sp.Matrix([sp.diff(f, v) for v in X])


def test_recursion_operator_is_nijenhuis_for_every_c():
    """``T^i_jk = L^a_j d_a L^i_k - L^a_k d_a L^i_j
    - L^i_a (d_j L^a_k - d_k L^a_j)`` cancels in all 90 components
    ``j < k`` of the recursion operator."""
    L = _matrix(nijenhuis_operator(PARAMS))
    n = len(X)
    dL = [L.diff(v) for v in X]  # dL[a][i, k] = d_a L^i_k
    nonzero = []
    for i, (j, k) in itertools.product(range(n),
                                       itertools.combinations(range(n), 2)):
        t = sum(L[a, j] * dL[a][i, k] - L[a, k] * dL[a][i, j]
                - L[i, a] * (dL[j][a, k] - dL[k][a, j]) for a in range(n))
        if sp.cancel(sp.together(t)) != 0:
            nonzero.append((i, j, k))
    assert nonzero == []


def test_second_chain_element_is_the_differential_of_f2_for_every_c():
    """``K2^T d(-F3) = dF2`` exactly: the sampled check
    ``euler-poisson.oneform_chain_step`` loses this identity to rounding
    at c = 1e6 (the strict xfail in ``test_suites.py``), not to algebra."""
    N = nijenhuis_operator(PARAMS)
    _, K2, _ = benenti_operators(PARAMS, N)
    F2, F3 = complex_integrals(PARAMS)
    residual = _matrix(K2).T * -_gradient(F3) - _gradient(F2)
    assert residual.applyfunc(lambda e: sp.cancel(sp.together(e))) \
        == sp.zeros(len(X), 1)


def _jacobi_failures(P, coords):
    """Index triples ``i < j < k`` on which the cyclic sum
    ``P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij`` does not cancel; for a
    skew ``P`` the sum is totally antisymmetric, so these triples cover
    every component."""
    n = len(coords)
    dP = [P.diff(v) for v in coords]  # dP[l][i, j] = d_l P^ij
    return [(i, j, k) for i, j, k in itertools.combinations(range(n), 3)
            if sp.cancel(sp.together(sum(
                P[i, l] * dP[l][j, k] + P[j, l] * dP[l][k, i]
                + P[k, l] * dP[l][i, j] for l in range(n)))) != 0]


def test_body_bivectors_are_compatible_poisson_for_every_c():
    """``P0``, ``P1`` and ``P2`` are skew and satisfy Jacobi on all 20
    index triples, and so does each pairwise sum, so the three are
    pairwise compatible.  Putting ``c + 1`` for ``c`` in one entry of
    ``P2`` (and its skew partner) breaks Jacobi, so the test can fail."""
    P = [_matrix(f, BODY) for f in poisson_bivectors(PARAMS)]
    for m in P:
        assert m + m.T == sp.zeros(6, 6)
    for m in P + [a + b for a, b in itertools.combinations(P, 2)]:
        assert _jacobi_failures(m, BODY) == []
    wrong = P[2].copy()
    wrong[0, 1] = wrong[0, 1].subs(C, C + 1)
    wrong[1, 0] = -wrong[0, 1]
    assert len(_jacobi_failures(wrong, BODY)) == 2
