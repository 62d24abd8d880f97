"""Named verification suites.

Each suite function samples chart points with a seeded generator, builds
the fields its identities read and returns a table: a list of entries
``(id, description, reference, judge)``.  ``judge()`` judges one condition
over the sample and returns its
:class:`~haantjeskit.report.SampledResidual`, usually through
:func:`~haantjeskit.report.sampled` with a sample function that returns the
residual at each point.  Entries share only the set-up, so each can be
judged alone and in any order; :func:`run_suite` judges them in order and
builds the report, and the entries of a table that judge the same sample
in a row share their evaluations, which changes no result: every
evaluation on samples of at most ``charts.SHARED`` points, and above,
those of source fields; above ``charts.BLOCK`` points each check judges
blocks of its own, so nothing is shared (see ``charts._sharing``).  The
tables themselves are independent, so ``all`` judges them on up to
min(tables, usable CPUs) processes and gives the same bytes, or raises
the same error, on any number; ``taskset -c 0`` runs everything in one
process, for profilers.  A check whose id ends in ``_finding``
adjudicates a known ambiguity: its judge returns a pair, the check's
result and a companion whose residual fills its description, and it
always reports and never fails a run.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
from dataclasses import dataclass
from functools import cache, partial, reduce

import numpy as np

from . import charts, jets
from .algebra import (algebra_rank, check_abelian, check_module_condition,
                      check_ring_condition, minimal_polynomial)
from .jets import Jet
from .charts import (BivectorField, Chart, OperatorField, OneFormField,
                     ScalarField, VectorField, add_fields, apply_operator,
                     apply_transpose, constant_operator, constant_vector,
                     diagonal_operator, differential, identity_operator,
                     _integer, _real, lie_bracket, operator_polynomial,
                     scale_field, wedge)
from .poisson import (check_chain_closed, check_compatibility, check_jacobi,
                      check_skew, check_skew_compositions, hamiltonian_field,
                      lie_derivative, poisson_bracket, r_tensor)
from .report import (VerificationReport, _max_abs as _mag,
                     check_from_residual, matches, sampled, worst)
from .sampling import sample_points
from .torsion import (haantjes_torsion, is_haantjes, is_nijenhuis,
                      nijenhuis_torsion)
from .lagrange import (TopParams, benenti_operators, bihamiltonian_fields,
                       body_chart, body_to_complex, complex_chart,
                       complex_integrals, deformation, euler_chain_operators,
                       euler_chart, euler_hamiltonian, hamiltonians,
                       integrals, lagrange_vector_field, leaf_chart,
                       leaf_map, leaf_structures, nijenhuis_operator,
                       p0_complex, p1_complex, poisson_bivectors,
                       separation_fields, separation_map, x_fields_complex)
from .lagrange.complex_chart import F1C, F4C, X1C, X2C, _p0_block

__all__ = ["SuiteConfig", "SUITE_NAMES", "run_suite"]

# Casimir levels pinning the symplectic leaf used by the reduced suite.
LEAF_C1 = 0.4
LEAF_C4 = 1.3


@dataclass(frozen=True)
class SuiteConfig:
    """The parameters of a run; one out of range raises ``ValueError``.
    ``points`` and ``seed`` are stored as Python ``int``, the tolerances
    and a numeric ``c`` as Python ``float``."""

    seed: int = 42
    points: int = 100
    tol_exact: float = 1e-12
    tol_deriv: float = 1e-9
    c: float = 2.0

    def __post_init__(self):
        for name in ("points", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not self.points > 0:
            raise ValueError("points must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")
        for name in ("tol_exact", "tol_deriv"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        object.__setattr__(self, "c", TopParams(self.c).c)

    def params(self) -> TopParams:
        return TopParams(c=self.c)

    def as_dict(self) -> dict:
        # the report schema requires the equatorial moment, fixed to 1
        return {"points": self.points, "tol_exact": self.tol_exact,
                "tol_deriv": self.tol_deriv, "c": self.c, "A": 1.0,
                "leaf_C1": LEAF_C1, "leaf_C4": LEAF_C4}


# -- seeded random auxiliary fields ----------------------------------------

def _random_field(rng, kind, chart):
    """A field of ``kind`` on ``chart`` with ``dim ** len(kind.slots)``
    components, each a random quadratic polynomial ``c0 + x . (lin + Q x)``
    in the chart coordinates.  The complex coefficients are drawn in one
    call, component after component, ``c0``, ``lin`` and ``Q`` by rows,
    each as its real and imaginary part uniform in [-1, 1].

    One call of the component function computes every component over the
    whole sample in closed form: the values from the coordinates' values,
    and in a seeded pass the exact partials ``lin + (Q + Q^T) x``, chained
    through the coordinates' own first-order partials.  The values come
    from the same arithmetic in both passes, so a plain and a seeded read
    agree bit for bit.  It returns one jet per component, plain in a plain
    pass, and numbers for coordinates that are all numbers.  The
    coordinates are numbers or first-order jets: a random field has no
    second derivatives, and reading one at depth 2 (the jet of its
    differential) raises ``TypeError``."""
    n = chart.dim
    shape = (n,) * len(kind.slots)
    size = math.prod(shape)
    coeffs = rng.uniform(-1.0, 1.0, 2 * size * (1 + n + n * n))
    c = coeffs.view(complex).reshape(size, -1)
    c0, lin = c[:, 0], c[:, 1:n + 1]
    quad = c[:, n + 1:].reshape(size, n, n)
    sym = quad + quad.transpose(0, 2, 1)

    def fn(x):
        if any(isinstance(v, Jet) and (isinstance(v.val, Jet)
                                       or v.grad.dtype == object) for v in x):
            raise TypeError("random fields are first-order: their "
                            "coordinates must be numbers or jets over "
                            "numbers")
        y = np.array(np.broadcast_arrays(*map(jets.value, x)))
        e = (...,) + (None,) * (y.ndim - 1)  # a sample axis, if y has one
        t = lin[e] + np.einsum("sjk,k...->sj...", quad, y)
        values = c0[e] + np.einsum("sj...,j...->s...", t, y)
        width = max((len(v.grad) for v in x if isinstance(v, Jet)), default=0)
        if width:  # d_m f = (lin + (Q + Q^T) x)_k d_m x_k
            g = lin[e] + np.einsum("sjk,k...->sj...", sym, y)
            dy = np.zeros((n, width) + y.shape[1:], dtype=complex)
            for k, v in enumerate(x):
                if isinstance(v, Jet):
                    dy[k] = v.grad
            entries = list(map(Jet, values,
                               np.einsum("sk...,km...->sm...", g, dy)))
        else:  # plain jets, or numbers
            entries = jets.lift(list(values))
        return np.array(entries, dtype=object).reshape(shape)[()]

    return kind(chart, fn)


def _mv(m, v):
    """Matrix times vector at each point of a sample."""
    return np.einsum("sij,sj->si", m, v)


def _in_involution(P, fields):
    """Sample function of "every pairwise bracket ``<df, P dg>`` of
    ``fields`` vanishes", each pair at scale ``(1 + |df|)(1 + |dg|)``."""
    pairs = list(itertools.combinations(fields, 2))

    def at(p):
        return (_mag(*(poisson_bracket(P, f, g, p) for f, g in pairs)),
                *((1.0 + _mag(f.gradient(p))) * (1.0 + _mag(g.gradient(p)))
                  for f, g in pairs))

    return at


def _lie_matches(Z, P, W):
    """Sample function of the identity ``L_Z P = W`` at scale
    ``1 + |P| + |W|``."""
    def at(p):
        w = W(p)
        return (_mag(lie_derivative(Z, P, p) - w),
                1.0 + _mag(P.jet(p)[0]) + _mag(w))

    return at


# -- definitional torsion oracle (vector-field brackets) --------------------

def _bracket_torsions(L, X, Y) -> tuple:
    """The torsions ``T(X, Y)`` and ``H(X, Y)`` of ``L`` through their
    defining bracket combinations, ``T(A, B) = [LA, LB] - L[LA, B]
    - L[A, LB] + L^2 [A, B]`` and ``H(X, Y) = L^2 T(X, Y) + T(LX, LY)
    - L T(LX, Y) - L T(X, LY)``.  Each image ``L A``, each bracket
    ``[A, B]`` and each ``T(A, B)`` is built once, keyed by the identity
    of its fields, so the two torsions share them: ``H(X, Y)`` is built on
    ``T(X, Y)`` itself, and its four torsions share the images ``LX``,
    ``LY``, ``L^2 X`` and ``L^2 Y``, the 9 distinct brackets of these and
    ``X`` and ``Y``, and the brackets' images, such as ``L[LX, Y]`` of
    ``T(X, Y)`` and ``T(LX, Y)``; built apart, the two fields build 20
    brackets.  A pass evaluates each shared field once."""
    image = cache(partial(apply_operator, L))
    bracket = cache(lie_bracket)

    @cache
    def torsion(A, B):
        LA, LB = image(A), image(B)
        t = bracket(LA, LB)
        t = add_fields(t, scale_field(-1.0, image(bracket(LA, B))))
        t = add_fields(t, scale_field(-1.0, image(bracket(A, LB))))
        return add_fields(t, image(image(bracket(A, B))))

    LX, LY = image(X), image(Y)
    h = image(image(torsion(X, Y)))
    h = add_fields(h, torsion(LX, LY))
    h = add_fields(h, scale_field(-1.0, image(torsion(LX, Y))))
    h = add_fields(h, scale_field(-1.0, image(torsion(X, LY))))
    return torsion(X, Y), h


# -- torsion suite ----------------------------------------------------------

def suite_torsion(cfg: SuiteConfig) -> list:
    rng = np.random.default_rng(cfg.seed + 1)
    chart3 = Chart("aux3", 3)
    sample3 = sample_points(chart3, cfg.points, cfg.seed)

    def torsion_free(L):
        """Judge of "both torsions of ``L`` vanish" on ``sample3``."""
        return lambda: worst([is_nijenhuis(L, sample3, cfg.tol_exact),
                              is_haantjes(L, sample3, cfg.tol_exact)])

    values = rng.uniform(-1.0, 1.0, 18).view(complex).reshape(3, 3)
    const = constant_operator(chart3, values.tolist())

    diagonal = []  # (operator, sample) in dimensions 2-4
    for dim in (2, 3, 4):
        chart = Chart(f"aux{dim}d", dim)
        sample = sample_points(chart, cfg.points, cfg.seed + dim)
        for _ in range(3):
            diagonal.append((diagonal_operator(
                _random_field(rng, VectorField, chart)), sample))

    def diagonal_haantjes():
        results = [is_haantjes(D, s, cfg.tol_deriv) for D, s in diagonal]
        return worst(results, points=sum(sr.points for sr in results))

    chart2 = Chart("aux2", 2)
    sample2 = sample_points(chart2, cfg.points, cfg.seed + 7)
    swap = OperatorField(chart2, lambda x: [[x[1], 0.0], [0.0, x[0]]])
    L = _random_field(rng, OperatorField, chart3)

    def antisymmetry(p):
        T, H = nijenhuis_torsion(L, p), haantjes_torsion(L, p)
        Lc, Ld = L.jet(p)
        return (_mag(T + T.swapaxes(-1, -2), H + H.swapaxes(-1, -2)),
                (1.0 + _mag(Lc)) ** 3 * (1.0 + _mag(Ld)))

    # definitional oracle on a small subsample: the component formula against
    # the vector-field bracket form applied to random fields
    X = _random_field(rng, VectorField, chart3)
    Y = _random_field(rng, VectorField, chart3)
    fields = _bracket_torsions(L, X, Y)

    def definitional(p):
        T, H = nijenhuis_torsion(L, p), haantjes_torsion(L, p)
        Xc, Yc = X(p), Y(p)
        res = (np.einsum("sijk,sj,sk->si", t, Xc, Yc) - f(p)
               for t, f in zip((T, H), fields))
        m = _mag(L.jet(p)[0]) + _mag(Xc) + _mag(Yc)
        return _mag(*res), (1.0 + m) ** 5

    return [
        ("identity_torsion", "both torsions of the identity operator vanish",
         "T(I) = 0 and H(I) = 0", torsion_free(identity_operator(chart3))),
        ("constant_operator_torsion",
         "both torsions of a random constant operator vanish",
         "T(L) = 0 and H(L) = 0 for dL = 0", torsion_free(const)),
        ("diagonal_haantjes",
         "random smooth diagonal operators in dimensions 2-4 have vanishing "
         "Haantjes torsion", "H(diag) = 0", diagonal_haantjes),
        ("swapped_diagonal_nijenhuis_nonzero",
         "the operator diag(x2, x1) has nonvanishing Nijenhuis torsion yet "
         "vanishing Haantjes torsion", "T(L) != 0, H(L) = 0",
         partial(sampled, sample2, lambda p: (np.maximum(
             0.0, 1e-3 - _mag(nijenhuis_torsion(swap, p))),),
             cfg.tol_exact)),
        ("swapped_diagonal_haantjes",
         "Haantjes torsion of diag(x2, x1) vanishes", "H(L) = 0",
         partial(is_haantjes, swap, sample2, cfg.tol_deriv)),
        ("torsion_antisymmetry",
         "both torsions of a random operator field are antisymmetric in the "
         "lower index pair", "T^i_{jk} = -T^i_{kj}, H^i_{jk} = -H^i_{kj}",
         partial(sampled, sample3, antisymmetry, cfg.tol_exact)),
        ("torsion_definitional_oracle",
         "component torsions agree with the bracket definitions applied to "
         "random vector fields", "T(X,Y), H(X,Y) via Lie brackets",
         partial(sampled, sample3[:10], definitional, cfg.tol_deriv)),
    ]


# -- algebra suite ----------------------------------------------------------

def suite_algebra(cfg: SuiteConfig) -> list:
    rng = np.random.default_rng(cfg.seed + 2)
    params = cfg.params()
    chart = complex_chart(params)
    sample = sample_points(chart, cfg.points, cfg.seed)
    N = nijenhuis_operator(params)
    comb = operator_polynomial(N, [_random_field(rng, ScalarField, chart)
                                   for _ in range(3)])

    def minpoly(p):
        mp = minimal_polynomial(N, p)
        x1, x2 = p.coords[X1C], p.coords[X2C]
        expected = np.stack([-1.0 / x2, x1 / x2], axis=-1)
        quadratic = mp.degree == 2
        return (np.where(quadratic, _mag(mp.coeffs[:, :2] - expected), 1.0),
                np.where(quadratic, 1.0 + _mag(expected), 1.0))

    powers = [identity_operator(chart), N,
              operator_polynomial(N, [0.0, 0.0, 1.0])]
    pair = [identity_operator(chart), N]
    f, g = (_random_field(rng, ScalarField, chart) for _ in range(2))
    esample = sample_points(euler_chart(), cfg.points, cfg.seed + 3)
    family = euler_chain_operators(params)
    ef, eg = (_random_field(rng, ScalarField, euler_chart())
              for _ in range(2))
    return [
        ("recursion_operator_nijenhuis",
         "the recursion operator of the adapted chart is torsion free",
         "T(N) = 0", partial(is_nijenhuis, N, sample, cfg.tol_deriv)),
        ("polynomial_closure",
         "function-coefficient polynomials in the recursion operator remain "
         "Haantjes operators", "H(f0 I + f1 N + f2 N^2) = 0",
         partial(is_haantjes, comb, sample, cfg.tol_deriv)),
        ("minimal_polynomial",
         "the recursion operator satisfies a monic quadratic with the "
         "coordinate-ratio coefficients", "N^2 + (x1/x2) N - (1/x2) I = 0",
         partial(sampled, sample, minpoly, 1e-6)),
        ("algebra_rank", "the span of I, N, N^2 has pointwise dimension two",
         "rank span{I, N, N^2} = 2",
         partial(sampled, sample,
                 lambda p: (abs(algebra_rank(powers, p) - 2),), 0.5)),
        ("module_condition",
         "function-linear combinations of the generators stay Haantjes",
         "H(f Ki + g Kj) = 0",
         partial(check_module_condition, pair, f, g, sample, cfg.tol_deriv)),
        ("ring_condition", "products of generators stay Haantjes",
         "H(Ki Kj) = 0",
         partial(check_ring_condition, pair, sample, cfg.tol_deriv)),
        ("abelian", "generators commute pointwise", "[Ki, Kj] = 0",
         partial(check_abelian, pair, sample, cfg.tol_exact)),
        ("euler_family_haantjes",
         "the diagonal operator family of the angle chart consists of "
         "Haantjes operators", "H(Ki) = 0",
         lambda: worst(is_haantjes(K, esample, cfg.tol_deriv)
                       for K in family)),
        ("euler_family_module",
         "function-linear combinations of the angle-chart family stay "
         "Haantjes", "H(f Ki + g Kj) = 0",
         partial(check_module_condition, family, ef, eg, esample,
                 cfg.tol_deriv)),
        ("euler_family_ring", "products of the angle-chart family stay "
         "Haantjes", "H(Ki Kj) = 0",
         partial(check_ring_condition, family, esample, cfg.tol_deriv)),
        ("euler_family_abelian",
         "the angle-chart family commutes pointwise", "[Ki, Kj] = 0",
         partial(check_abelian, family, esample, cfg.tol_exact)),
    ]


# -- angle-chart suite ------------------------------------------------------

def suite_euler(cfg: SuiteConfig) -> list:
    params = cfg.params()
    chart = euler_chart()
    sample = sample_points(chart, cfg.points, cfg.seed)
    H = euler_hamiltonian(params)
    k1, k2, k3 = euler_chain_operators(params)
    dH = differential(H)
    el2 = apply_transpose(k2, dH)
    target2 = np.array([0, 0, 0, 1, 0, 0], dtype=complex)

    # Open adjudication: the third operator does not reproduce the
    # differential of the axial momentum.  Report the residual and what the
    # image actually looks like.
    el3 = apply_transpose(k3, dH)
    target3 = np.array([0, 0, 0, 0, 0, 1], dtype=complex)

    def k3_image(part):
        """Sample function of "``part`` of the image ``K3^T dH`` vanishes",
        at scale ``1 + |K3^T dH|``."""
        def at(p):
            v = el3(p)
            return _mag(part(v)), 1.0 + _mag(v)
        return at

    return [
        *((f"{name.lower()}_haantjes",
           f"the diagonal operator {name} has vanishing Haantjes torsion",
           f"H({name}) = 0", partial(is_haantjes, K, sample, cfg.tol_deriv))
          for name, K in (("K2", k2), ("K3", k3))),
        ("chain_identity",
         "the identity maps the energy differential to itself",
         "K1^T dH = dH",
         partial(sampled, sample, matches(dH, apply_transpose(k1, dH)),
                 cfg.tol_exact)),
        ("chain_second_integral",
         "the second operator maps the energy differential to the "
         "differential of the azimuthal momentum", "K2^T dH = d p_phi",
         partial(sampled, sample, lambda p: (
             _mag(el2(p) - target2), 1.0 + _mag(k2(p)) + _mag(dH(p))),
             cfg.tol_deriv)),
        ("chain_closedness",
         "the first two chain elements are closed one-forms",
         "d(Ki^T dH) = 0",
         partial(check_chain_closed, [k1, k2], H, sample, cfg.tol_deriv)),
        ("k3_image_finding",
         "the image K3^T dH is supported on the (theta, p_theta, p_phi) "
         "slots and is not d p_psi; the axial-momentum reading of the third "
         "chain element does not hold (residual of K3^T dH - d p_psi "
         "reported; off-slot magnitude {:.3e})", "K3^T dH vs d p_psi",
         lambda: (sampled(sample, k3_image(lambda v: v - target3),
                          cfg.tol_deriv),
                  sampled(sample, k3_image(lambda v: v[:, [0, 2, 5]]),
                          cfg.tol_deriv))),
    ]


# -- body-frame / adapted-chart suite ---------------------------------------

def suite_euler_poisson(cfg: SuiteConfig) -> list:
    rng = np.random.default_rng(cfg.seed + 4)
    params = cfg.params()
    bchart = body_chart()
    bsample = sample_points(bchart, cfg.points, cfg.seed)

    P0, P1, P2 = poisson_bivectors(params)
    checks = []
    for name, P in (("p0", P0), ("p1", P1), ("p2", P2)):
        checks += [
            (f"{name}_skew", f"bivector {name} is antisymmetric",
             "P + P^T = 0", partial(check_skew, P, bsample, cfg.tol_exact)),
            (f"{name}_jacobi", f"bivector {name} satisfies the Jacobi "
             "identity", "cyclic sum P^il d_l P^jk = 0",
             partial(check_jacobi, P, bsample, cfg.tol_deriv))]

    XL = lagrange_vector_field(params)
    pairs = list(zip((P0, P1, P2), hamiltonians(params)))

    def tri_hamiltonian(p):
        # backward-error bound of P dh: each product carries |P| |dh|
        x = XL(p)
        flows = [(P(p), h.gradient(p)) for P, h in pairs]
        return (_mag(*(_mv(m, dh) - x for m, dh in flows)),
                1.0 + _mag(x) + reduce(
                    np.maximum, (_mag(m) * _mag(dh) for m, dh in flows)))

    checks.append((
        "tri_hamiltonian",
        "all three bivector/Hamiltonian pairs generate the same flow field",
        "P0 dh0 = P1 dh1 = P2 dh2 = X",
        partial(sampled, bsample, tri_hamiltonian, cfg.tol_deriv)))

    # the two-Casimir ladder on the first two bivectors, and the flow field
    # decomposed over the ladder fields
    F = integrals(params)
    minus_f3 = scale_field(-1.0, F["F3"])
    half_f4 = scale_field(0.5, F["F4"])
    X1, X2 = bihamiltonian_fields(params)
    zero_vector = constant_vector(bchart, [0.0] * 6)

    def ladder_decomposition(p):
        xl = XL(p)
        v = xl - (X1(p) - (params.c - 1.0) * F["F1"](p)[:, None] * X2(p))
        return _mag(v), 1.0 + _mag(xl)

    ladder = {
        "P1_dF1_zero": matches(hamiltonian_field(P1, F["F1"]), zero_vector),
        "P0_dF1_zero": matches(hamiltonian_field(P0, F["F1"]), zero_vector),
        "P1_dF4half_zero": matches(hamiltonian_field(P1, half_f4),
                                   zero_vector),
        "P0_dF4half_is_P1_dmF3": matches(hamiltonian_field(P0, half_f4),
                                         hamiltonian_field(P1, minus_f3)),
        "P0_dmF3_is_P1_dF2": matches(hamiltonian_field(P0, minus_f3),
                                     hamiltonian_field(P1, F["F2"])),
        "P0_dF2_zero": matches(hamiltonian_field(P0, F["F2"]), zero_vector),
        "XL_ladder_decomposition": ladder_decomposition,
    }
    checks += [(f"gz_{name}", "two-Casimir ladder relation on the first two "
                "bivectors", name,
                partial(sampled, bsample, at, cfg.tol_deriv))
               for name, at in ladder.items()]

    casimir_poly = [F["F2"], minus_f3, half_f4]

    def pencil(p):
        grads = [f.gradient(p) for f in casimir_poly]
        m0, m1 = P0(p), P1(p)
        res, scales = [], []
        for lam in (0.5, 1.0, 2.0):
            m = m0 - lam * m1
            dc = sum(lam ** k * g for k, g in enumerate(grads))
            res.append(_mv(m, dc))
            scales.append((1.0 + _mag(m)) * (1.0 + _mag(dc)))
        return (_mag(*res), *scales)

    checks.append((
        "pencil_casimir",
        "the quadratic Casimir polynomial is annihilated by the bivector "
        "pencil", "(P0 - t P1) dC(t) = 0",
        partial(sampled, bsample, pencil, cfg.tol_deriv)))
    checks += [(f"involution_{name}",
                f"the four integrals are in involution under {name}",
                "{Fi, Fj} = 0",
                partial(sampled, bsample, _in_involution(P, list(F.values())),
                        cfg.tol_deriv))
               for name, P in (("p0", P0), ("p1", P1))]

    # adapted holomorphic chart
    cchart = complex_chart(params)
    csample = sample_points(cchart, cfg.points, cfg.seed + 1)
    to_cx = body_to_complex(params)
    P1c = p1_complex(params)
    P0c = p0_complex(params)
    F2c, F3c = complex_integrals(params)
    pF2 = to_cx.push(F["F2"])
    pF3 = to_cx.push(F["F3"])

    def integral_transform(p):
        f2, f3 = F2c(p), F3c(p)
        return (_mag(pF2(p) - f2, pF3(p) - f3),
                1.0 + abs(f2) + abs(f3))

    Z1, Z2, Q = deformation(params)
    ladder_heads = [ScalarField(cchart, lambda x: x[F1C]),
                    ScalarField(cchart, lambda x: 0.5 * x[F4C])]

    def normalization(p):
        grads = [head.gradient(p) for head in ladder_heads]
        return _mag(*(np.einsum("si,si->s", g, z) - (1.0 if i == j else 0.0)
                      for i, z in enumerate((Z1(p), Z2(p)))
                      for j, g in enumerate(grads))),

    checks += [
        ("complex_p1_transform",
         "the transported first bivector matches its closed form in the "
         "adapted chart", "phi_* P1 = P1_adapted",
         partial(sampled, csample, matches(P1c, to_cx.push(P1)),
                 cfg.tol_exact)),
        ("complex_p0_transform",
         "the transported second bivector matches its closed form in the "
         "adapted chart", "phi_* P0 = P0_adapted",
         partial(sampled, csample, matches(P0c, to_cx.push(P0)),
                 cfg.tol_deriv)),
        ("complex_integral_transform",
         "the transported integrals match their closed forms in the adapted "
         "chart", "Fi o phi^{-1} = Fi_adapted",
         partial(sampled, csample, integral_transform, cfg.tol_exact)),
        ("transversal_normalization",
         "the transversal frames pair to the identity against the Casimir "
         "ladder heads", "Zi(H0^(j)) = delta_ij",
         partial(sampled, csample, normalization, cfg.tol_exact))]

    X1f, X2f = x_fields_complex(params)
    zero_bivector = BivectorField(cchart,
                                  lambda x: [[0.0] * 6 for _ in range(6)])
    for i, Z in enumerate((Z1, Z2)):
        checks += [
            (f"lie_z{i + 1}_p1",
             "the first bivector is invariant along the transversal frames",
             "L_Z P1 = 0",
             partial(sampled, csample, _lie_matches(Z, P1c, zero_bivector),
                     cfg.tol_deriv)),
            (f"lie_z{i + 1}_p0",
             "the transversal variation of the second bivector is carried "
             "entirely by the ladder-head wedge term",
             "L_Z P0 = [Z, X1] ^ Z2",
             partial(sampled, csample, _lie_matches(
                 Z, P0c, wedge(lie_bracket(Z, X1f), Z2)), cfg.tol_deriv)),
            (f"lie_z{i + 1}_q",
             "the deformed bivector is invariant along the transversal "
             "frames", "L_Z Q = 0",
             partial(sampled, csample, _lie_matches(Z, Q, zero_bivector),
                     cfg.tol_deriv))]

    def q_split(p):
        m = Q(p)
        return _mag(m[:, 4:, :], m[:, :, 4:]), 1.0 + _mag(m)

    p0_block = BivectorField(cchart, _p0_block)

    def q_block(p):
        blk = p0_block(p)
        return _mag(Q(p)[:, :4, :4] - blk), 1.0 + _mag(blk)

    N = nijenhuis_operator(params)

    def factorization(p):
        n, m = N(p), P1c(p)
        return _mag(n @ m - Q(p)), (1.0 + _mag(n)) * (1.0 + _mag(m))

    K1, K2, K3 = benenti_operators(params, N)
    checks += [
        ("deformation_transversal_rows",
         "the deformed bivector has vanishing transversal rows and columns",
         "Q^{i5} = Q^{i6} = 0",
         partial(sampled, csample, q_split, cfg.tol_deriv)),
        ("deformation_leaf_block",
         "the leaf block of the deformed bivector equals the closed-form "
         "leaf block of the second bivector", "Q|leaf = P0|leaf",
         partial(sampled, csample, q_block, cfg.tol_exact)),
        ("n_factorization",
         "the recursion operator factors the deformed bivector through the "
         "first one", "N P1 = Q",
         partial(sampled, csample, factorization, cfg.tol_deriv)),
        ("n_nijenhuis", "the recursion operator is torsion free", "T(N) = 0",
         partial(is_nijenhuis, N, csample, cfg.tol_deriv)),
        ("n_p1_compatible",
         "the recursion operator is symmetric with respect to the first "
         "bivector", "N P1 = P1 N^T",
         partial(check_compatibility, N, P1c, csample, cfg.tol_deriv)),
        ("minimal_polynomial_identity",
         "the recursion operator is annihilated by its quadratic with the "
         "coordinate-ratio coefficients", "N^2 + (x1/x2) N - (1/x2) I = 0",
         partial(sampled, csample,
                 lambda p: (_mag(K3(p)), (1.0 + _mag(N(p))) ** 2),
                 cfg.tol_deriv)),
        ("operator_bivector_skew",
         "compositions of family operators with the first bivector stay "
         "antisymmetric", "Ki P, Ki P Kj^T, (Ki - f I)^s P skew",
         partial(check_skew_compositions, K2, N, P1c,
                 _random_field(rng, ScalarField, cchart), 3, csample,
                 cfg.tol_deriv))]

    ratio = ScalarField(cchart, lambda x: x[X1C] / x[X2C])
    inv_x2 = ScalarField(cchart, lambda x: 1.0 / x[X2C])

    def vector_chain(p):
        x1v, x2v, n = X1f(p), X2f(p), N(p)
        return (_mag(_mv(K2(p), x1v) - x2v,
                     _mv(n, x1v) - (x2v - ratio(p)[:, None] * x1v),
                     _mv(n, x2v) - inv_x2(p)[:, None] * x1v),
                (1.0 + _mag(n)) * (1.0 + _mag(x1v) + _mag(x2v)))

    mF3 = scale_field(-1.0, F3c)
    el2 = apply_transpose(K2, differential(mF3))

    # X1 = P1 d(-F3) is the seed Hamiltonian field, X2 = P1 dF2
    def correspondence(p):
        lhs = _mv(P1c(p), el2(p))
        k, xh = K2(p), X1f(p)
        return (_mag(lhs - _mv(k, xh), lhs - X2f(p)),
                (1.0 + _mag(k)) * (1.0 + _mag(xh)))

    return checks + [
        ("vector_chain",
         "the recursion operator steps the ladder fields with the "
         "minimal-polynomial corrections", "K2 X1 = X2, N X2 ~ X1",
         partial(sampled, csample, vector_chain, cfg.tol_deriv)),
        ("oneform_chain_closed",
         "the operator images of the chain seed differential are closed",
         "d(Ki^T dH) = 0",
         partial(check_chain_closed, [K1, K2], mF3, csample, cfg.tol_deriv)),
        ("oneform_chain_step",
         "the second chain element is the differential of the next integral",
         "K2^T d(-F3) = dF2",
         partial(sampled, csample, matches(differential(F2c), el2),
                 cfg.tol_deriv)),
        ("chain_involution",
         "the chain Hamiltonians are in involution under the first bivector",
         "{-F3, F2} = 0",
         partial(sampled, csample, _in_involution(P1c, [mF3, F2c]),
                 cfg.tol_deriv)),
        ("hamiltonian_correspondence",
         "bivector images of chain one-forms equal operator images of the "
         "seed Hamiltonian field", "P (Ki^T dH) = Ki (P dH)",
         partial(sampled, csample, correspondence, cfg.tol_deriv)),
    ]


# -- reduced (leaf) suite ---------------------------------------------------

def suite_reduced(cfg: SuiteConfig) -> list:
    rng = np.random.default_rng(cfg.seed + 5)
    params = cfg.params()
    C1, C4 = LEAF_C1, LEAF_C4
    lchart = leaf_chart(params, C1, C4)
    sample = sample_points(lchart, cfg.points, cfg.seed)
    embedded = leaf_map(params, C1, C4).invert(sample)

    N = nijenhuis_operator(params)
    P1c = p1_complex(params)
    X1f, X2f = x_fields_complex(params)

    def block_structure(p):
        ms = [N(p), P1c(p)]
        vs = [X1f(p), X2f(p)]
        return (_mag(*(m[:, :4, 4:] for m in ms), *(m[:, 4:, :4] for m in ms),
                     *(v[:, 4:] for v in vs)),
                *(1.0 + _mag(a) for a in ms + vs))

    data = leaf_structures(params, C1, C4)
    Nl, K2l = data["N"], data["K2"]
    P0l, P1l = data["P0"], data["P1"]
    F2l, F3l = data["F2"], data["F3"]

    def recursion_ratio(p):
        n, m0 = Nl(p), P0l(p)
        ratio = np.linalg.solve(P1l(p).swapaxes(-1, -2),
                                m0.swapaxes(-1, -2)).swapaxes(-1, -2)
        return (_mag(n - ratio),
                (1.0 + _mag(n)) * (1.0 + _mag(m0)))

    mF3l = scale_field(-1.0, F3l)
    dmF3l = differential(mF3l)
    k = -(params.c - 1.0) * C1
    h1l = add_fields(mF3l, scale_field(k, F2l))
    comb = apply_transpose(
        add_fields(identity_operator(lchart), scale_field(k, K2l)), dmF3l)
    checks = [
        ("restriction_block_structure",
         "recursion operator, first bivector and ladder fields decouple the "
         "leaf from the transversal directions",
         "off-blocks and transversal components vanish",
         partial(sampled, embedded, block_structure, cfg.tol_exact)),
        ("leaf_recursion_ratio",
         "the restricted recursion operator equals the ratio of the two "
         "restricted Poisson blocks", "N = P0 P1^{-1} on the leaf",
         partial(sampled, sample, recursion_ratio, cfg.tol_exact)),
        ("leaf_chain_step",
         "the restricted operator family steps the restricted integral "
         "differentials", "K2^T d(-F3) = dF2 on the leaf",
         partial(sampled, sample, matches(differential(F2l),
                                          apply_transpose(K2l, dmF3l)),
                 cfg.tol_deriv)),
        ("leaf_h1_chain",
         "the restricted second Hamiltonian differential decomposes over the "
         "operator family",
         "dh1 = -(I - (c-1) C1 K2)^T dF3 on the leaf",
         partial(sampled, sample, matches(differential(h1l), comb),
                 cfg.tol_deriv))]

    sep = separation_map(params, C1, C4)

    def eigen_symmetric(p):
        l1, l2, _, _ = sep.apply(p).coords
        x1, x2 = p.coords[0], p.coords[1]
        return (_mag(l1 + l2 - x1 / x2, l1 * l2 + 1.0 / x2),
                1.0 + abs(l1) + abs(l2))

    def eigen_numeric(p):
        l1, l2, _, _ = sep.apply(p).coords
        ev = np.linalg.eigvals(K2l(p))
        ours = np.stack([l1, l1, l2, l2], axis=-1)
        # numpy sorts complex numbers by real part, then imaginary part
        return (_mag(np.sort(ours, axis=-1) - np.sort(ev, axis=-1)),
                1.0 + _mag(ev))

    checks += [
        ("eigenvalue_symmetric_functions",
         "the separation eigenvalues have the coordinate-ratio sum and "
         "product", "l1 + l2 = x1/x2, l1 l2 = -1/x2",
         partial(sampled, sample, eigen_symmetric, cfg.tol_exact)),
        ("eigenvalues_numeric",
         "the closed-form eigenvalues match the numerical doubly degenerate "
         "spectrum of the restricted operator", "spec K2 = {l1, l1, l2, l2}",
         partial(sampled, sample, eigen_numeric, 1e-7)),
        ("double_degeneracy",
         "the restricted operator satisfies a quadratic on a four dimensional "
         "leaf, so each eigenvalue is double", "deg minpoly K2 = 2",
         partial(sampled, sample, lambda p: (
             abs(minimal_polynomial(K2l, p).degree - 2),), 0.5))]

    # Open adjudication: which eigenvalue multiplies the differential of
    # which separation variable in the eigenform relation.
    separation = separation_fields(params, C1, C4)
    dl1 = differential(separation[0])
    K2T_dl1 = apply_transpose(K2l, dl1)

    def eigenform(k):
        """Sample function of ``K2^T dl1 = lk dl1`` for the k-th separation
        eigenvalue ``lk``, at scale ``(1 + |K2|)(1 + |dl1|)``."""
        def at(p):
            lk = sep.apply(p).coords[k]
            v, d = K2T_dl1(p), dl1(p)
            return (_mag(v - lk[:, None] * d),
                    (1.0 + _mag(K2l(p))) * (1.0 + _mag(d)))
        return at

    # Open adjudication: the circulated momenta are not conjugate to the
    # eigenvalues; the corrected ones are.
    def canonical(fields):
        def at(p):
            m1, m2 = (f.jet(p)[0] for f in fields[2:])
            res = (poisson_bracket(P1l, fields[a], fields[2 + b], p)
                   - (1.0j if a == b else 0.0)
                   for a in range(2) for b in range(2))
            return _mag(*res), 1.0 + abs(m1) + abs(m2)
        return at

    printed = separation_fields(params, C1, C4, printed=True)

    def momenta_reading():
        circulated = sampled(sample, canonical(printed), cfg.tol_deriv)
        return (sampled(sample, canonical(separation), cfg.tol_deriv),
                circulated)

    images = sep.apply(sample)
    iJ = np.zeros((4, 4), dtype=complex)
    iJ[0, 2] = iJ[1, 3] = 1.0j
    iJ[2, 0] = iJ[3, 1] = -1.0j
    crossed = diagonal_operator(
        VectorField(sep.dst, lambda s: [s[1], s[0], s[1], s[0]]))

    def roundtrip(p):
        x = np.array(p.coords).T
        return (_mag(np.array(sep.invert(sep.apply(p)).coords).T - x),
                1.0 + _mag(x))

    checks += [
        ("eigenform_pairing_finding",
         "the differential of the first eigenvalue is an eigenform of the "
         "restricted operator for the second eigenvalue (crossed pairing); "
         "same-index pairing leaves residual {:.3e}", "K2^T dl1 = l2 dl1",
         lambda: (sampled(sample, eigenform(1), cfg.tol_deriv),
                  sampled(sample, eigenform(0), cfg.tol_deriv))),
        ("momenta_reading_finding",
         "the eigenvalue-rescaled momenta are canonically conjugate to the "
         "eigenvalues under the restricted bivector, while the circulated "
         "form leaves residual {:.3e}", "{la, mb} = i delta_ab",
         momenta_reading),
        ("separation_darboux",
         "the restricted bivector takes the constant canonical form in the "
         "separation chart", "phi_* P1 = i J",
         partial(sampled, images, matches(
             BivectorField(sep.dst, lambda x: iJ), sep.push(P1l)),
             cfg.tol_deriv)),
        ("separation_operator_diagonal",
         "the restricted operator becomes diagonal in the separation chart "
         "with the crossed eigenvalue placement",
         "phi_* K2 = diag(l2, l1, l2, l1)",
         partial(sampled, images,
                 matches(crossed, sep.push(K2l)), cfg.tol_deriv)),
        ("separation_roundtrip", "the separation chart map inverts exactly",
         "phi^{-1}(phi(p)) = p",
         partial(sampled, sample, roundtrip, 1e-10))]

    # The compatibility tensor of bivector and recursion operator vanishes
    # on the leaf, where the pair is nondegenerate; on the full chart the
    # transversal block of the operator does not participate in a
    # bivector/operator pair and the tensor has no reason to vanish.
    alpha = _random_field(rng, OneFormField, lchart)
    Yf = _random_field(rng, VectorField, lchart)

    def compatibility(p):
        Pc, Nc, ac, yc = (F.jet(p)[0] for F in (P1l, Nl, alpha, Yf))
        return (_mag(r_tensor(P1l, Nl, alpha, Yf, p)),
                (1.0 + _mag(Nc)) ** 2 * (1.0 + _mag(Pc))
                * (1.0 + _mag(ac)) * (1.0 + _mag(yc)))

    return checks + [
        ("r_tensor",
         "the compatibility tensor of the restricted bivector and recursion "
         "operator vanishes on random arguments", "R(P1, N)(alpha, Y) = 0",
         partial(sampled, sample[:20], compatibility, cfg.tol_deriv)),
        ("leaf_involution",
         "the restricted integrals are in involution under the restricted "
         "bivector", "{F2, F3} = 0 on the leaf",
         partial(sampled, sample, _in_involution(P1l, [F2l, F3l]),
                 cfg.tol_deriv)),
    ]


# -- registry ----------------------------------------------------------------

_SUITES = {
    "torsion": suite_torsion,
    "algebra": suite_algebra,
    "euler": suite_euler,
    "euler-poisson": suite_euler_poisson,
    "reduced": suite_reduced,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _judge_table(suite, cfg: SuiteConfig, prefix: str) -> list:
    """The checks of one table: build it, then judge its entries in order,
    sharing evaluations across them while the table is judged (see
    ``charts._sharing``)."""
    table = suite(cfg)
    with charts._sharing():
        return [check_from_residual(prefix + check_id, description,
                                    reference, judge())
                for check_id, description, reference, judge in table]


def run_suite(name: str, cfg: SuiteConfig) -> VerificationReport:
    """Run a suite, or every suite for ``all`` with ids prefixed by the
    suite name.  Each table is one job, `_judge_table`.  The five jobs of
    ``all`` are shared among min(5, usable CPUs) processes (see
    `_in_workers`) and their checks listed in table order, so the report
    has the same bytes on any number of processes, and a run that raises
    raises what one process would: the first table in order that raises
    decides, with its own exception.  Under ``taskset -c 0``, or for a
    single suite, everything runs in this process, as a profiler needs.
    A caller with other threads running forks them away with ``all``; one
    usable CPU (``os.sched_setaffinity(0, {0})``) opts out."""
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}")
    report = VerificationReport(name, cfg.seed, cfg.as_dict())
    suites = _SUITES if name == "all" else {name: _SUITES[name]}
    jobs = [partial(_judge_table, suite, cfg,
                    f"{key}." if name == "all" else "")
            for key, suite in suites.items()]
    for checks in _in_workers(jobs):
        report.extend(checks)
    return report


# -- jobs in worker processes ------------------------------------------------

def _in_workers(jobs: list) -> list:
    """``[job() for job in jobs]``, the jobs shared among one process per
    CPU this process may run on, at most one per job, and one where the
    CPU set is unknown: this one and workers forked from it.

    Each process claims its next job by reading the job's index, one byte,
    from a pipe filled and closed for writing before the first fork, so
    the jobs balance themselves.  A worker sends the results of the jobs
    that returned through a pipe of its own (see `_work`).  Once every
    worker is reaped, this process runs each job still without a result,
    in order: the job raised, or its worker ended without sending.  So the
    first job in order that raises decides, with its own exception and
    traceback, as in a run without workers.  Every worker is killed if
    this process raises meanwhile, and reaped, so none outlives the
    call."""
    count = (min(len(jobs), len(os.sched_getaffinity(0)))
             if hasattr(os, "sched_getaffinity") else 1)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(jobs))))
    os.close(fill)
    pids, replies, sent = [], [], []
    try:
        for _ in range(count - 1):
            reply, send = os.pipe()
            # Fork safety: OpenBLAS ends its thread pool in an atfork
            # handler of its own, so this process forks with one thread
            # (2 threads before `fork`, 1 after, on a 2-vCPU VM with
            # numpy 2.4.6), and Python 3.12's DeprecationWarning on forking
            # a multi-threaded process should not fire.  Where it does fire
            # (on the Python 3.12 leg of CI, say), a thread outlived the
            # fork, and a worker risks a lock that thread held.
            try:
                pid = os.fork()
            except OSError:
                # no more processes: those started share the jobs
                os.close(reply)
                os.close(send)
                break
            if pid == 0:
                _work(jobs, queue, send)
            os.close(send)
            pids.append(pid)
            replies.append(reply)
        done = _claim(jobs, queue)
        for reply in replies:
            with open(reply, "rb", closefd=False) as fh:
                sent.append(fh.read())
    except BaseException:
        import signal  # only here, so the CLI starts without it
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in (queue, *replies):
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for status, data in zip(statuses, sent):
        if status == 0:
            done.update(pickle.loads(data))
    return [done[i] if i in done else job() for i, job in enumerate(jobs)]


def _claim(jobs: list, queue: int) -> dict:
    """Run the jobs whose indices this process reads from the pipe
    ``queue``, one byte each, until it is empty: ``{index: result}`` of
    the jobs that returned.  A job that raises is left out, for
    `_in_workers` to run again."""
    done = {}
    while claimed := os.read(queue, 1):
        with contextlib.suppress(Exception):
            done[claimed[0]] = jobs[claimed[0]]()
    return done


def _work(jobs: list, queue: int, send: int):
    """The life of a worker process: claim jobs, pickle their results into
    the pipe ``send`` and end with ``os._exit``, never returning into the
    caller's stack, so it flushes no stdio buffer it inherited and runs no
    atexit handler; exit status 0 means the results were sent."""
    code = 1
    try:
        done = _claim(jobs, queue)
        with open(send, "wb") as fh:
            fh.write(pickle.dumps(done))
        code = 0
    finally:
        os._exit(code)
