"""Suite registry and report structure."""

import collections
import json
import sys

import pytest

from haantjeskit import (Chart, OperatorField, VectorField,
                         VerificationReport, report as report_module)
from haantjeskit.charts import _Field
from haantjeskit.report import Check, check_from_residual
from haantjeskit.sampling import sample_points
from haantjeskit.suites import (SUITE_NAMES, SuiteConfig,
                                _bracket_haantjes, _bracket_nijenhuis,
                                run_suite)
from haantjeskit.torsion import SampledResidual


def test_registry_names():
    assert set(SUITE_NAMES) == {"torsion", "algebra", "euler",
                                "euler-poisson", "reduced", "all"}
    with pytest.raises(KeyError):
        run_suite("bogus", SuiteConfig())


@pytest.mark.parametrize("name", ["torsion", "algebra", "euler",
                                  "euler-poisson", "reduced"])
def test_each_suite_passes_at_small_sample(name):
    report = run_suite(name, SuiteConfig(points=8))
    assert report.checks
    assert report.ok
    for c in report.checks:
        assert c.status in ("pass", "fail", "finding")
        assert c.points_sampled > 0


@pytest.mark.parametrize("c", [1e-6, 0.5, 1.5, 3.0, 10.0, 100.0])
def test_checks_pass_across_inertia_ratios(c):
    report = run_suite("all", SuiteConfig(points=4, c=c))
    assert report.ok, [ch.id for ch in report.failed]


@pytest.mark.parametrize("name, points", [("euler", 200),
                                          ("euler-poisson", 200),
                                          ("all", 100)])
def test_report_does_not_depend_on_block_size(monkeypatch, name, points):
    """Reading a sample in blocks of 64 points gives the same report, byte
    for byte, as reading it in one block."""
    assert report_module.BLOCK >= points
    cfg = SuiteConfig(points=points)
    whole = run_suite(name, cfg).to_json()
    monkeypatch.setattr(report_module, "BLOCK", 64)
    assert run_suite(name, cfg).to_json() == whole


def test_checks_read_each_field_once_per_sample(monkeypatch):
    """Inside each call ``at(sample)`` of the sampled-identity primitive,
    every field object is read at most once: one plain pass ``F(sample)``
    or one seeded pass ``F.jet(sample)`` (``jacobian`` and ``gradient`` go
    through ``jet``).  Re-reads are charged to the next check built, so a
    sampled residual that only enters another check's description counts
    towards that check."""
    reads = collections.Counter()
    reread = collections.Counter()  # since the last check was built
    per_check = []

    def counting(method):
        def wrapper(self, p):
            reads[self] += 1
            return method(self, p)
        return wrapper

    monkeypatch.setattr(_Field, "__call__", counting(_Field.__call__))
    monkeypatch.setattr(_Field, "jet", counting(_Field.jet))

    real_sampled = report_module.sampled

    def counting_sampled(sample, at, *args, **kwargs):
        def counted(whole):
            reads.clear()
            out = at(whole)
            reread.update(type(f).__name__ for f, n in reads.items() if n > 1)
            return out
        return real_sampled(sample, counted, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("haantjeskit")
                and getattr(module, "sampled", None) is real_sampled):
            monkeypatch.setattr(module, "sampled", counting_sampled)

    real_check = report_module.Check

    def recording_check(check_id, *args):
        per_check.append(dict(reread))
        reread.clear()
        return real_check(check_id, *args)

    monkeypatch.setattr(report_module, "Check", recording_check)
    report = run_suite("all", SuiteConfig(points=2))

    assert len(per_check) == len(report.checks) == 77
    offenders = {c.id: bad for c, bad in zip(report.checks, per_check) if bad}
    assert not offenders, offenders


@pytest.mark.parametrize("build", [_bracket_nijenhuis, _bracket_haantjes],
                         ids=["nijenhuis", "haantjes"])
def test_subfields_run_once_per_pass(build):
    """Within one read of a derived field each subfield's component
    function runs once per coordinate list: ``L`` once on the plain and once
    on the seeded coordinates, ``X`` and ``Y`` only inside the brackets.  A
    second read runs them again: the memo ends with its pass."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    chart = Chart("aux3", 3)
    L = OperatorField(chart, counted("L", lambda x: [
        [x[0], x[1], 1.0], [x[2], 0.0, x[0] * x[1]], [1.0, x[2], x[1]]]))
    X = VectorField(chart, counted("X", lambda x: [x[1], x[0] * x[2], 1.0]))
    Y = VectorField(chart, counted("Y", lambda x: [x[2] * x[2], 1.0, x[0]]))
    field = build(L, X, Y)
    sample = sample_points(chart, 5, 1)
    first = field(sample)
    assert dict(calls) == {"L": 2, "X": 1, "Y": 1}
    second = field(sample)
    assert dict(calls) == {"L": 4, "X": 2, "Y": 2}
    assert (first == second).all()


@pytest.mark.parametrize("c", [1e-9, 1e4, 1e6])
def test_algebra_passes_at_extreme_inertia_ratios(c):
    """``algebra_rank`` normalises each generator before its relative rank
    cut, so the span of I, N, N^2 keeps dimension two when N's entries
    scale with 1/c or c."""
    report = run_suite("algebra", SuiteConfig(points=3, c=c))
    assert report.ok, [ch.id for ch in report.failed]


def test_euler_poisson_passes_at_tiny_inertia_ratio():
    """At c = 1e-9 the third bivector carries entries of size 1/c; the
    tri-Hamiltonian check scales with |P| |dh|, so it still passes."""
    report = run_suite("euler-poisson", SuiteConfig(points=3, c=1e-9))
    assert report.ok, [ch.id for ch in report.failed]


def test_euler_poisson_passes_at_huge_inertia_ratio():
    """At c = 1e6 the terms of d(K^T dH) cancel to a residual far above
    1 + |J| times the tolerance; the closedness scale covers the terms,
    |dK| |dH| + |K| |d^2 H|, so the one-form chain still passes."""
    report = run_suite("euler-poisson", SuiteConfig(points=20, c=1e6))
    assert report.ok, [ch.id for ch in report.failed]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open: at c = 1e6 the one-form chain fails on a "
                   "larger sample (oneform_chain_closed 1.18e5 against "
                   "8.98e4 at seed 5, 200 points); a fix makes this pass")
def test_euler_poisson_one_form_chain_at_huge_inertia_ratio_larger_sample():
    report = run_suite("euler-poisson",
                       SuiteConfig(seed=5, points=200, c=1e6))
    assert report.ok, [ch.id for ch in report.failed]


def test_all_suite_prefixes_ids():
    report = run_suite("all", SuiteConfig(points=5))
    prefixes = {c.id.split(".", 1)[0] for c in report.checks}
    assert prefixes == {"torsion", "algebra", "euler", "euler-poisson",
                        "reduced"}


def test_report_json_round_trip():
    report = run_suite("torsion", SuiteConfig(points=5))
    data = json.loads(report.to_json())
    assert data["suite"] == "torsion"
    assert len(data["checks"]) == len(report.checks)
    assert data["params"]["points"] == 5


def test_summary_lines_cover_all_checks():
    report = run_suite("euler", SuiteConfig(points=5))
    lines = list(report.summary_lines())
    assert len(lines) == len(report.checks)
    assert any("FINDING" in line for line in lines)


def test_check_from_residual_statuses():
    good = SampledResidual(1e-12, 1e-9, 1.0, 3)
    bad = SampledResidual(1e-3, 1e-9, 1.0, 3)
    assert check_from_residual("a", "", "", good).status == "pass"
    assert check_from_residual("a", "", "", bad).status == "fail"
    assert check_from_residual("a", "", "", bad,
                               finding=True).status == "finding"


def test_failed_and_ok_properties():
    r = VerificationReport("x", 1, {})
    r.extend([Check("c1", "", "", "pass", 0.0, 1.0, 1)])
    assert r.ok
    r.extend([Check("c2", "", "", "fail", 2.0, 1.0, 1)])
    assert not r.ok
    assert [c.id for c in r.failed] == ["c2"]
    r.checks[-1] = Check("c2", "", "", "finding", 2.0, 1.0, 1)
    assert r.ok  # findings never fail a report
