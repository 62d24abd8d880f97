"""Acceptance gate: one test per criterion, each printing a single
pass/fail line directly to the terminal."""

import numpy as np
import pytest

from haantjeskit import (Chart, OperatorField, ScalarField, VectorField,
                         add_fields, apply_transpose, differential,
                         hamiltonian_field, identity_operator, is_haantjes,
                         lie_derivative, operator_polynomial,
                         poisson_bracket, scale_field, wedge, lie_bracket)
from haantjeskit.cli import main as cli_main
from haantjeskit.lagrange import (TopParams, benenti_operators,
                                  bihamiltonian_fields, body_chart,
                                  complex_chart, complex_integrals,
                                  deformation, hamiltonians,
                                  integrals, integrate_flow,
                                  lagrange_vector_field, leaf_structures,
                                  max_relative_drift, nijenhuis_operator,
                                  p1_complex, poisson_bivectors,
                                  separation_map, x_fields_complex)
from haantjeskit.poisson import (check_compatibility, check_jacobi,
                                 check_skew, check_skew_compositions)
from haantjeskit.sampling import sample_points
from haantjeskit.suites import (LEAF_C1, LEAF_C4, SuiteConfig, run_suite,
                                _random_field)
from haantjeskit.torsion import _nijenhuis_components, nijenhuis_torsion

from conftest import fd_jacobian, golden_findings, points_of

SEED = 42
POINTS = 100
PARAMS = TopParams()


def report(capsys, number, label, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\nacceptance {number:2d} [{status}] {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def mag(a):
    return float(np.max(np.abs(a)))


def mag_each(a):
    """Largest absolute entry at each point of a sample."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def test_criterion_1_diagonal_operators(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(10):
        dim = 2 + k % 3
        chart = Chart(f"acc{k}", dim)
        V = _random_field(rng, VectorField, chart)
        L = OperatorField(chart, lambda x, V=V: np.diag(V.fn(x)))
        sample = sample_points(chart, POINTS, SEED + k)
        worst = max(worst, is_haantjes(L, sample, 1e-9).residual)
    report(capsys, 1, "diagonal operators are Haantjes", worst <= 1e-9,
           f"max residual {worst:.3e} (tol 1e-09)")


def test_criterion_2_polynomial_closure(capsys):
    rng = np.random.default_rng(SEED + 1)
    chart = complex_chart(PARAMS)
    N = nijenhuis_operator(PARAMS)
    coeffs = [_random_field(rng, ScalarField, chart) for _ in range(3)]
    comb = operator_polynomial(N, coeffs)
    sample = sample_points(chart, POINTS, SEED)
    sr = is_haantjes(comb, sample, 1e-9)
    # compared relative to the cubic magnitude scale of the combination;
    # random quadratic coefficients push operator norms to 1e2-1e3 where an
    # absolute 1e-9 is finer than double precision can represent
    rel = sr.residual / sr.scale
    report(capsys, 2, "polynomial closure in the recursion operator",
           rel <= 1e-9,
           f"relative residual {rel:.3e} (raw {sr.residual:.3e}, "
           f"scale {sr.scale:.1e})")


def test_criterion_3_poisson_trio(capsys):
    sample = sample_points(body_chart(), POINTS, SEED)
    trio = poisson_bivectors(PARAMS)
    skew = max(check_skew(P, sample).residual for P in trio)
    jac = max(check_jacobi(P, sample).residual for P in trio)
    h = hamiltonians(PARAMS)
    XL = lagrange_vector_field(PARAMS)
    tri = max(mag(hamiltonian_field(P, hk)(sample) - XL(sample))
              for P, hk in zip(trio, h))
    ok = skew <= 1e-12 and jac <= 1e-9 and tri <= 1e-9
    report(capsys, 3, "Poisson trio and tri-Hamiltonian identity", ok,
           f"skew {skew:.3e}, jacobi {jac:.3e}, flow match {tri:.3e}")


def test_criterion_4_gz_chain(capsys):
    # the suite samples POINTS body-chart points at SEED
    suite = run_suite("euler-poisson", SuiteConfig(seed=SEED, points=POINTS))
    gz = {c.id: c.max_residual for c in suite.checks
          if c.id.startswith("gz_")}
    decomp = gz.pop("gz_XL_ladder_decomposition")
    ladder = max(gz.values())
    ok = ladder <= 1e-9 and decomp <= 1e-12
    report(capsys, 4, "two-Casimir ladder and flow decomposition", ok,
           f"ladder {ladder:.3e} (tol 1e-09), "
           f"decomposition {decomp:.3e} (tol 1e-12)")


def test_criterion_5_deformation(capsys):
    chart = complex_chart(PARAMS)
    sample = sample_points(chart, POINTS, SEED)
    N = nijenhuis_operator(PARAMS)
    P1 = p1_complex(PARAMS)
    Z1, Z2, Q = deformation(PARAMS)
    X1f, _ = x_fields_complex(PARAMS)
    from haantjeskit.lagrange.complex_chart import p0_complex
    P0 = p0_complex(PARAMS)
    fact = mag(N(sample) @ P1(sample) - Q(sample))
    lie = 0.0
    for Z in (Z1, Z2):
        corr = wedge(lie_bracket(Z, X1f), Z2)
        lie = max(lie, mag(lie_derivative(Z, P1, sample)),
                  mag(lie_derivative(Z, P0, sample) - corr(sample)))
    q = Q(sample)
    rows = max(mag(q[:, 4:, :]), mag(q[:, :, 4:]))
    ok = fact <= 1e-9 and lie <= 1e-9 and rows <= 1e-12
    report(capsys, 5, "bivector deformation", ok,
           f"factorization {fact:.3e}, transversal Lie {lie:.3e}, "
           f"rows {rows:.3e}")


def test_criterion_6_operator_identities(capsys):
    rng = np.random.default_rng(SEED + 2)
    chart = complex_chart(PARAMS)
    sample = sample_points(chart, POINTS, SEED)
    N = nijenhuis_operator(PARAMS)
    P1 = p1_complex(PARAMS)
    K1, K2, K3 = benenti_operators(PARAMS, N)
    minpoly = mag(K3(sample))
    compat = max(check_compatibility(K, P1, sample).residual
                 for K in (K1, K2, N))
    f = _random_field(rng, ScalarField, chart)
    skew = check_skew_compositions(K2, N, P1, f, 3, sample).residual
    ok = minpoly <= 1e-10 and compat <= 1e-12 and skew <= 1e-12
    report(capsys, 6, "operator family identities", ok,
           f"minimal polynomial {minpoly:.3e}, compatibility {compat:.3e}, "
           f"skew compositions {skew:.3e}")


def test_criterion_7_chains_and_involution(capsys):
    chart = complex_chart(PARAMS)
    sample = sample_points(chart, POINTS, SEED)
    N = nijenhuis_operator(PARAMS)
    _, K2, _ = benenti_operators(PARAMS, N)
    F2c, F3c = complex_integrals(PARAMS)
    mF3 = ScalarField(chart, lambda x: -F3c.fn(x))
    X1f, X2f = x_fields_complex(PARAMS)
    vec = mag(np.einsum("sij,sj->si", K2(sample), X1f(sample))
              - X2f(sample))
    el2 = apply_transpose(K2, differential(mF3))
    dF2 = differential(F2c)
    form = mag(el2(sample) - dF2(sample))
    P0b, P1b, _ = poisson_bivectors(PARAMS)
    bsample = sample_points(body_chart(), POINTS, SEED)
    F = integrals(PARAMS)
    keys = list(F)
    invol, inv_scale = 0.0, 1.0
    for P in (P0b, P1b):
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                invol = max(invol,
                            mag(poisson_bracket(P, F[a], F[b], bsample)))
                inv_scale = max(inv_scale, float(np.max(
                    (1.0 + mag_each(F[a].gradient(bsample)))
                    * (1.0 + mag_each(F[b].gradient(bsample))))))
    ok = vec <= 1e-9 and form <= 1e-9 and invol <= 1e-10 * inv_scale
    report(capsys, 7, "chains and involution", ok,
           f"vector chain {vec:.3e}, one-form chain {form:.3e}, "
           f"involution {invol:.3e} (scale {inv_scale:.1e})")


def test_criterion_8_separation_chart(capsys):
    data = leaf_structures(PARAMS, LEAF_C1, LEAF_C4)
    lchart = data["chart"]
    sample = sample_points(lchart, POINTS, SEED)
    sep = separation_map(PARAMS, LEAF_C1, LEAF_C4)
    target = np.zeros((4, 4), dtype=complex)
    target[0, 2] = target[1, 3] = 1.0j
    target[2, 0] = target[3, 1] = -1.0j
    pushedP = sep.push(data["P1"])
    pushedK = sep.push(data["K2"])
    q = sep.apply(sample)
    darboux = mag(pushedP(q) - target)
    l1, l2 = q.coords[0], q.coords[1]
    diag = mag(pushedK(q)
               - np.stack([l2, l1, l2, l1], axis=-1)[:, :, None] * np.eye(4))
    x1, x2 = sample.coords[0], sample.coords[1]
    sym = max(mag(l1 + l2 - x1 / x2), mag(l1 * l2 + 1.0 / x2))
    mF3 = ScalarField(lchart, lambda x: -data["F3"].fn(x))
    el2 = apply_transpose(data["K2"], differential(mF3))
    dF2 = differential(data["F2"])
    chain = mag(el2(sample) - dF2(sample))
    c = PARAMS.c
    h1l = ScalarField(lchart, lambda x: -data["F3"].fn(x)
                      - (c - 1.0) * LEAF_C1 * data["F2"].fn(x))
    comb = apply_transpose(
        add_fields(identity_operator(lchart),
                   scale_field(-(c - 1.0) * LEAF_C1, data["K2"])),
        differential(data["F3"]))
    dh1 = differential(h1l)
    h1chain = mag(dh1(sample) + comb(sample))
    ok = (darboux <= 1e-9 and diag <= 1e-9 and sym <= 1e-12
          and chain <= 1e-9 and h1chain <= 1e-9)
    report(capsys, 8, "separation chart", ok,
           f"canonical form {darboux:.3e}, diagonal form {diag:.3e}, "
           f"symmetric functions {sym:.3e}, chains {chain:.3e} / "
           f"{h1chain:.3e}")


def test_criterion_9_dynamics(capsys):
    y0 = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.8])
    drift = max_relative_drift(integrate_flow(PARAMS, y0, 1e-3, 10.0))
    # the order check needs steps where truncation dominates rounding;
    # at dt = 1e-3 the drift already sits at the 1e-15 rounding floor
    d1 = max_relative_drift(integrate_flow(PARAMS, y0, 8e-3, 5.0))
    d2 = max_relative_drift(integrate_flow(PARAMS, y0, 4e-3, 5.0))
    factor = d1 / d2
    ok = drift <= 1e-8 and factor >= 8.0
    report(capsys, 9, "flow invariant drift and convergence order", ok,
           f"drift {drift:.3e} (tol 1e-08), halving factor {factor:.1f}")


def test_criterion_10_ad_vs_fd(capsys):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for k in range(10):
        dim = 2 + k % 3
        chart = Chart(f"fd{k}", dim)
        L = _random_field(rng, OperatorField, chart)
        sample = sample_points(chart, 5, SEED + k, real=True)
        Ld_fd = np.array([
            [fd_jacobian(lambda y, i=i: L.fn(y)[i], x) for i in range(dim)]
            for x in points_of(sample)])
        T_fd = _nijenhuis_components(L(sample), Ld_fd)
        worst = max(worst, mag(nijenhuis_torsion(L, sample) - T_fd))
    report(capsys, 10, "derivative oracle cross-check", worst <= 1e-6,
           f"max deviation {worst:.3e} (tol 1e-06)")


def test_criterion_11_findings_terminate(capsys):
    cfg = SuiteConfig(points=20)
    euler = run_suite("euler", cfg)
    reduced = run_suite("reduced", cfg)
    findings = [(run.suite, c) for run in (euler, reduced)
                for c in run.checks if c.status == "finding"]
    ids = {f"{suite}.{c.id}" for suite, c in findings}
    ok = (golden_findings() <= ids
          and all(np.isfinite(c.max_residual) for _, c in findings)
          and cli_main(["verify", "--suite", "euler", "--points", "10"]) == 0
          and cli_main(["verify", "--suite", "reduced",
                        "--points", "10"]) == 0)
    report(capsys, 11, "open questions reported as findings", ok,
           f"{len(findings)} findings with finite residuals, "
           "both suites exit cleanly")
