"""Suite registry and report structure."""

import collections
import contextlib
import functools
import itertools
import json
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from haantjeskit import (Chart, OperatorField, Point, ScalarField,
                         SingularPointError, VectorField, VerificationReport,
                         add_fields, apply_operator, charts, differential,
                         jets, lie_bracket, report as report_module,
                         scale_field)
from haantjeskit.report import Check, check_from_residual
from haantjeskit.sampling import sample_points
from haantjeskit.lagrange.flow import FlowBlowupError
from haantjeskit.suites import (SUITE_NAMES, SuiteConfig, _SUITES,
                                _bracket_torsions, _random_field, run_suite)
from haantjeskit.torsion import SampledResidual

from conftest import (golden_findings, golden_ids, no_worker_left,
                      tables_in_workers, use_cpus)


def test_registry_names():
    assert set(SUITE_NAMES) == {"torsion", "algebra", "euler",
                                "euler-poisson", "reduced", "all"}
    with pytest.raises(KeyError):
        run_suite("bogus", SuiteConfig())


@pytest.mark.parametrize("field, value", [
    ("points", 0), ("points", -3), ("seed", -1),
    *((tol, v) for tol in ("tol_exact", "tol_deriv")
      for v in (0.0, -1e-9, np.nan, np.inf)),
    *(("c", v) for v in (0.0, -2.0, np.nan, np.inf, -np.inf)),
    *((name, v) for name in ("points", "seed") for v in (2.5, 3.0, True)),
    *((name, v) for name in ("tol_exact", "tol_deriv", "c")
      for v in (True, 2.0 + 0j, "1e-9"))])
def test_config_rejects_values_out_of_range(field, value):
    """A run cannot be configured with a value out of range, so no suite
    judges a sample drawn with one; ``points`` and ``seed`` must be
    integers, not floats, which slice no sample, and the tolerances and
    ``c`` real numbers; neither may be a bool, which the report schema
    rejects."""
    with pytest.raises(ValueError):
        SuiteConfig(**{field: value})


def test_config_accepts_a_positive_symbol():
    sp = pytest.importorskip("sympy")
    c = sp.Symbol("c", positive=True)
    assert SuiteConfig(c=c).params().c is c


def test_config_rejects_a_symbol_not_declared_positive():
    sp = pytest.importorskip("sympy")
    with pytest.raises(ValueError):
        SuiteConfig(c=sp.Symbol("c", real=True))


@pytest.mark.parametrize("name", ["torsion", "algebra", "euler",
                                  "euler-poisson", "reduced"])
def test_each_suite_passes_at_small_sample(name):
    report = run_suite(name, SuiteConfig(points=8))
    assert report.checks
    assert report.ok
    for c in report.checks:
        assert c.status in ("pass", "fail", "finding")
        assert c.points_sampled > 0


def test_random_field_draws_its_coefficients_component_by_component():
    """One draw of 2 k (1 + n + n^2) uniforms gives the coefficients of the
    k components in turn, each ``c0``, ``lin``, ``Q`` by rows as real and
    imaginary parts, the same values and generator state as drawing them
    one number at a time."""
    n, shape = 2, (2, 2)
    whole, single = np.random.default_rng(5), np.random.default_rng(5)
    F = _random_field(whole, OperatorField, Chart("r2", n))
    terms = 1 + n + n * n
    coeffs = [complex(single.uniform(-1.0, 1.0), single.uniform(-1.0, 1.0))
              for _ in range(4 * terms)]
    assert whole.uniform() == single.uniform()
    x = np.array([0.5 - 0.25j, 2.0 + 1.0j])
    values = F(Point(F.chart, tuple(x)))[0]
    for k, (i, j) in enumerate(np.ndindex(shape)):
        c = coeffs[k * terms:(k + 1) * terms]
        quad = np.array(c[1 + n:]).reshape(n, n)
        expected = c[0] + x @ (np.array(c[1:1 + n]) + quad @ x)
        assert values[i, j] == pytest.approx(expected, rel=1e-14)


def _reference_field(rng, kind, chart):
    """The same draw as ``_random_field``, evaluated one component at a time
    over numpy object arrays: ``c0 + x @ (lin + Q @ x)``."""
    n = chart.dim
    shape = (n,) * len(kind.slots)
    size = int(np.prod(shape))
    coeffs = rng.uniform(-1.0, 1.0, 2 * size * (1 + n + n * n))
    polys = [(c[0], np.array(c[1:n + 1], dtype=object),
              np.array(c[n + 1:], dtype=object).reshape(n, n))
             for c in coeffs.view(complex).reshape(size, -1).tolist()]

    def fn(x):
        x = np.asarray(x, dtype=object)
        out = np.array([c0 + x @ (lin + quad @ x) for c0, lin, quad in polys],
                       dtype=object)
        return out.reshape(shape)[()]

    return kind(chart, fn)


def _both_fields(kind, n, seed=3):
    chart = Chart(f"r{n}", n)
    return (_random_field(np.random.default_rng(seed), kind, chart),
            _reference_field(np.random.default_rng(seed), kind, chart))


def _entries(components):
    """Value and gradient of each component (``None`` for a number)."""
    return [(e.val, e.grad) if isinstance(e, jets.Jet) else (e, None)
            for e in np.asarray(components, dtype=object).flat]


KINDS = [ScalarField, VectorField, OperatorField]


def _close(got, want):
    """``got`` has ``want``'s shape and entries within 1e-14 of its
    largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.all(
        np.abs(got - want) <= 1e-14 * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("points", [1, 33])
@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_random_field_rounds_like_the_object_array_formula(kind, n, points):
    """The closed form gives the values and partials of the per-component
    object-array formula to rounding, and the same values, bit for bit,
    in a plain and in a seeded read."""
    F, ref = _both_fields(kind, n)
    p = sample_points(F.chart, points, 11)
    (v, d), (rv, rd) = F.jet(p), ref.jet(p)
    assert np.array_equal(F(p), v)
    assert _close(v, rv) and _close(d, rd)


@pytest.mark.parametrize("points", [1, 33])
@pytest.mark.parametrize("n, numbers", [(3, [0.4]), (6, [0.4, 1.3])],
                         ids=["n3", "n6"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_random_field_takes_numbers_among_jet_coordinates(kind, n, numbers,
                                                          points):
    """Coordinates that end in numbers, as ``leaf_map``'s inverse pins the
    Casimir levels, give the components of the object-array formula to
    rounding, for seeded and for plain jets, with the same values in
    both; the numbers contribute no partials."""
    F, ref = _both_fields(kind, n)
    p = sample_points(F.chart, points, 12)
    leaf = list(p.coords[:n - len(numbers)])
    values = []
    for x in (jets.seed(leaf) + numbers, jets.lift(leaf) + numbers):
        got, want = _entries(F.fn(x)), _entries(ref.fn(x))
        assert len(got) == len(want)
        for (v, g), (rv, rg) in zip(got, want):
            assert _close(v, rv) and _close(g, rg)
        values.append([v for v, _ in got])
    assert np.array_equal(*values)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_random_field_of_numbers_is_numbers(kind):
    """An unbatched list of numbers, as a finite-difference oracle passes
    it to ``fn``, gives numbers, those of the object-array formula to
    rounding."""
    F, ref = _both_fields(kind, 3)
    y = [0.5 - 0.25j, 2.0 + 1.0j, -0.75]
    got, want = _entries(F.fn(y)), _entries(ref.fn(y))
    assert len(got) == len(want)
    for (v, g), (rv, _) in zip(got, want):
        assert g is None and isinstance(v, complex)
        assert v == pytest.approx(rv, rel=1e-14, abs=1e-14)


def test_random_field_refuses_a_second_order_read():
    """A random field of every kind is first-order: a read on nested jets,
    as the jet of its differential is, raises a ``TypeError`` that says
    so."""
    for kind, n in itertools.product(KINDS, [2, 3, 6]):
        F, _ = _both_fields(kind, n)
        p = sample_points(F.chart, 4, 13)
        nested = jets.seed(jets.seed(jets.lift(list(p.coords))))
        with pytest.raises(TypeError, match="random fields are first-order"):
            F.fn(nested)
        if kind is not OperatorField:
            assert differential(F)(p).shape == F(p).shape + (n,)
            with pytest.raises(TypeError,
                               match="random fields are first-order"):
                differential(F).jet(p)


DECADES = [float(f"1e{k}") for k in range(-12, 13)]
_CHAIN = ("open, ROADMAP item 12: the chain checks' scales miss the "
          "cancellation in d(-F3) that K2 amplifies, so r/tol grows in "
          "proportion to c; a fix makes this pass")
_MINIMAL = ("open, ROADMAP item 18: algebra.minimal_polynomial thresholds a "
            "least-squares fit on powers of N, whose size grows like c^2, "
            "and loses the O(1) coefficients; a fix makes this pass")
# The sample sizes of the sweep over c; the cases at 20 points are named
# by c alone.
SWEEP_POINTS = (20, 100)
# The checks of `all` that fail, on seed 42 or 7, from a decade of c on,
# at each size of the sweep, each with its defect.  At c = 1e7 the ladder
# relation passes at 20 points, at r/tol 0.64 to 0.72, and fails at 100
# points on seed 42, at r/tol 1.03.
HUGE_C_DEFECTS = {
    "algebra.minimal_polynomial": ({20: 1e7, 100: 1e7}, _MINIMAL),
    "euler-poisson.oneform_chain_closed": ({20: 1e7, 100: 1e7}, _CHAIN),
    "euler-poisson.oneform_chain_step": ({20: 1e7, 100: 1e7}, _CHAIN),
    "euler-poisson.gz_P0_dmF3_is_P1_dF2": ({20: 1e8, 100: 1e7}, _CHAIN),
}


@functools.cache
def _failed_ids(c, points):
    """The ids of the checks of `all` that fail at ``points`` points on
    seed 42 or on seed 7."""
    return frozenset(ch.id for seed in (42, 7) for ch in run_suite(
        "all", SuiteConfig(points=points, seed=seed, c=c)).failed)


def _sweep(values):
    """``(c, points)`` over ``values`` at every size of the sweep."""
    for points in SWEEP_POINTS:
        for c in values:
            yield pytest.param(c, points, id=str(c) if points == 20
                               else f"{c}-{points}")


@pytest.mark.parametrize("c, points", _sweep(sorted({0.5, 1.5, 3.0,
                                                     *DECADES})))
def test_checks_pass_across_inertia_ratios(c, points):
    """Every check passes at every decade of c from 1e-12 to 1e12, at 20
    and at 100 points, but the known defects of ``HUGE_C_DEFECTS``, each
    a strict xfail below."""
    assert _failed_ids(c, points) <= {
        i for i, (start, _) in HUGE_C_DEFECTS.items() if c >= start[points]}


@pytest.mark.parametrize("c, points, check_id", [
    pytest.param(c, points, i, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))
    for points in SWEEP_POINTS for c in DECADES
    for i, (start, reason) in HUGE_C_DEFECTS.items() if c >= start[points]])
def test_known_defects_at_huge_inertia_ratios(c, points, check_id):
    assert check_id not in _failed_ids(c, points)


@pytest.mark.parametrize("name, points", [("euler", 200),
                                          ("euler-poisson", 200),
                                          ("all", 100)])
def test_report_does_not_depend_on_block_size(monkeypatch, name, points):
    """Reading a sample in blocks of 64 points gives the same report, byte
    for byte, as reading it in one block."""
    assert charts.BLOCK >= points
    cfg = SuiteConfig(points=points)
    whole = run_suite(name, cfg).to_json()
    monkeypatch.setattr(charts, "BLOCK", 64)
    assert run_suite(name, cfg).to_json() == whole


def _arrays(x):
    """The arrays under a coordinate list, each with the number of seeded
    levels above it: two lists that wrap the same arrays at the same depth
    are one coordinate list in one mode, whatever their wrappers."""
    def leaf(v, depth):
        if isinstance(v, jets.Jet):
            return leaf(v.val, depth + bool(len(v.grad)))
        return id(v), depth
    return tuple(leaf(v, 0) for v in x)


def _evaluations_and_repeats(monkeypatch, points):
    """The counts of component evaluations and reads in
    ``run_suite("all", SuiteConfig(points=points))``, and the repeated
    evaluations charged to each check.  A repeat is an evaluation of a
    component function on a coordinate list and mode it already ran on in
    the same scope.  The scope is the calls ``at(sample)`` of the
    sampled-identity primitive in a row, within one table, on the same
    sample; but that of a combination that the field algebra built is one
    call, when the sample has more than ``charts.SHARED`` points.  Repeats
    are charged to the next check built, which is the one whose judge made
    them."""
    kept = in_pass = None  # (fn, arrays) -> x of each evaluation in scope
    last = None  # the sample of the table's last call ``at(sample)``
    repeats = collections.Counter()  # since the last check was built
    per_check = []
    calls = collections.Counter()
    evaluate, read, seeded = charts._evaluate, charts._read, charts._seeded
    sharing, real_sampled = charts._sharing, report_module.sampled

    def counting_evaluate(fn, x):
        calls["evaluate"] += 1
        scope = (in_pass if hasattr(fn, "combination") and (
            last is None or len(last) > charts.SHARED) else kept)
        if scope is not None:
            key = (fn, _arrays(x))
            if key in scope:
                repeats[getattr(fn, "__qualname__", repr(fn))] += 1
            scope[key] = x  # holds x, so no id is reused meanwhile
        return evaluate(fn, x)

    def counting_read(*args):
        calls["read"] += 1
        return read(*args)

    def counting_seeded(*args):
        calls["seeded"] += 1
        return seeded(*args)

    @contextlib.contextmanager
    def counting_sharing():
        nonlocal kept, last
        kept = {}
        try:
            with sharing():
                yield
        finally:
            kept = last = None

    def counting_sampled(sample, at, *args, **kwargs):
        def counted(p):
            nonlocal in_pass, last
            if p is not last:
                kept.clear()
                last = p
            in_pass = {}
            try:
                return at(p)
            finally:
                in_pass = None
        return real_sampled(sample, counted, *args, **kwargs)

    monkeypatch.setattr(charts, "_evaluate", counting_evaluate)
    monkeypatch.setattr(charts, "_read", counting_read)
    monkeypatch.setattr(charts, "_seeded", counting_seeded)
    monkeypatch.setattr(charts, "_sharing", counting_sharing)
    for name, module in list(sys.modules.items()):
        if (name.startswith("haantjeskit")
                and getattr(module, "sampled", None) is real_sampled):
            monkeypatch.setattr(module, "sampled", counting_sampled)

    real_check = report_module.Check

    def recording_check(check_id, *args):
        per_check.append(dict(repeats))
        repeats.clear()
        return real_check(check_id, *args)

    monkeypatch.setattr(report_module, "Check", recording_check)
    # the counters live in this process, so every table must run here
    use_cpus(monkeypatch, 1)
    report = run_suite("all", SuiteConfig(points=points))
    assert len(per_check) == len(report.checks) == len(golden_ids())
    return dict(calls), {c.id: bad for c, bad
                         in zip(report.checks, per_check) if bad}


def test_each_check_runs_a_component_function_once_per_sample_and_mode(
        monkeypatch):
    """Every component function runs at most once per coordinate list and
    mode, subfields included, whichever readers and derived fields reach
    it, across the checks of a table that read the same sample in a row;
    a combination's, on a sample of more than ``charts.SHARED`` points,
    once inside each call ``at(sample)``, which is one pass.  Reads stay
    one per pass, so only the count of evaluations depends on the sample
    size.  The seeded reads that `_derived` converts into object arrays
    are pinned too: fields pushed along one chart map share the run of its
    jacobians."""
    for points, evaluations, seeded in [(20, 379, 55),
                                        (charts.SHARED + 1, 498, 89)]:
        with monkeypatch.context() as mp:
            calls, offenders = _evaluations_and_repeats(mp, points)
        assert calls == {"evaluate": evaluations, "read": 233,
                         "seeded": seeded}, points
        assert not offenders, (points, offenders)


def _no_sharing():
    """`charts._sharing` patched off: every evaluation ends with its pass."""
    return contextlib.nullcontext()


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_report_does_not_depend_on_shared_evaluations(c):
    """Sharing evaluations across a table's checks changes no result, so
    no byte of a report, which ``run_suite`` builds from the results alone
    in table order: each entry judged alone gives the result it gives
    inside its table, judged in order with sharing on, at most
    ``charts.SHARED`` points, where checks on the same sample share every
    evaluation; above, on one sample, where they share those of source
    fields; and on several blocks, where each check judges blocks of its
    own and shares nothing."""
    sizes = (20, 200, 2 * charts.BLOCK + 1)
    assert sizes[0] <= charts.SHARED < sizes[1] <= charts.BLOCK
    for points in sizes:
        cfg = SuiteConfig(points=points, c=c)
        for name, suite in _SUITES.items():
            table = suite(cfg)
            alone = [judge() for *_, judge in reversed(table)][::-1]
            with charts._sharing():
                assert [judge() for *_, judge in table] == alone, \
                    (points, name)


@pytest.mark.parametrize("points", [3, charts.SHARED + 1])
def test_shared_evaluations_end_with_the_table(monkeypatch, points):
    """A table's judges share evaluations on samples of every size, and
    ``run_suite`` drops them once the table is judged, also when a judge
    raises: here twice, where the table was claimed and again when
    ``run_suite`` judges it to raise."""
    seen = []

    def judge():
        seen.append(charts._table is not None)
        raise RuntimeError("judge failed")

    monkeypatch.setitem(_SUITES, "torsion",
                        lambda cfg: [("broken", "", "", judge)])
    with pytest.raises(RuntimeError, match="judge failed"):
        run_suite("torsion", SuiteConfig(points=points))
    assert seen == [True] * 2
    assert charts._table is None and charts._judged is None


def test_a_table_keeps_evaluations_for_the_sample_it_judges(monkeypatch):
    """Shared evaluations live while a table's checks judge the same
    sample, at every size: a table that judges sample A, then B, then A
    again runs a source field on A twice, and after the pass on B holds
    nothing computed on A."""
    chart = Chart("s", 2)
    a, b = sample_points(chart, 3, 1), sample_points(chart, 3, 2)
    runs = []  # the coordinate lists the field ran on
    held = []  # the arguments of the table's entries before each check
    field = ScalarField(chart, lambda x: runs.append(x) or x[0] * x[1])

    def judge(p):
        held.append([arg for _, args in charts._table.values()
                     for arg in args])
        return report_module.sampled(
            p, lambda q: (0.0 * np.abs(field(q)), np.abs(field(q))), 1e-12)

    monkeypatch.setitem(_SUITES, "torsion", lambda cfg: [
        (name, "", "", lambda p=p: judge(p))
        for name, p in (("a", a), ("b", b), ("a_again", a))])
    assert run_suite("torsion", SuiteConfig(points=3)).ok
    assert len(runs) == 3
    # after the pass on B: neither A's coordinates nor the field's run
    # on them, but B's
    assert not any(arg is a.coords or arg is runs[0] for arg in held[2])
    assert any(arg is b.coords for arg in held[2])


def test_shared_evaluations_hold_no_more_than_one_block(monkeypatch):
    """The memory that shared evaluations hold is bounded as a pass's is:
    every suite's traced peak at ``charts.SHARED`` points, where checks
    on the same sample share every evaluation, at ``charts.BLOCK``
    points, where they share those of source fields, and at
    ``2 * charts.BLOCK + 1`` points, where each check judges blocks of
    its own and shares nothing, stays within 10% of the euler-poisson
    suite's at ``charts.BLOCK`` points, read in per-call passes."""
    def peak(name, points):
        tracemalloc.start()
        try:
            run_suite(name, SuiteConfig(points=points))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run builds the model's memoized terms, which then stay
    run_suite("euler-poisson", SuiteConfig(points=3))
    with monkeypatch.context() as mp:
        mp.setattr(charts, "_sharing", _no_sharing)
        bound = 1.1 * peak("euler-poisson", charts.BLOCK)
    peaks = {(name, points): peak(name, points) for name in _SUITES
             for points in (charts.SHARED, charts.BLOCK,
                            2 * charts.BLOCK + 1)}
    assert max(peaks.values()) <= bound, (peaks, bound)


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("points", [3, 20, charts.SHARED + 1])
def test_report_does_not_depend_on_the_number_of_processes(
        monkeypatch, points, c):
    """``all`` gives the same report, byte for byte, whether its five
    tables are judged in this process alone (one usable CPU, or a platform
    without ``os.sched_getaffinity``) or on one process each (five CPUs),
    and no worker outlives the run."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    cfg = SuiteConfig(points=points, c=c)
    reports = {}
    for cpus in (1, 5, None):
        forks.clear()
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            use_cpus(monkeypatch, cpus)
        reports[cpus] = run_suite("all", cfg).to_json()
        assert len(forks) == (cpus or 1) - 1, cpus
        no_worker_left()
    assert reports[1] == reports[5] == reports[None]


def test_a_fork_that_fails_leaves_the_jobs_to_the_processes_started(
        monkeypatch):
    """When the system refuses a new process, the processes already
    started judge every table, and the report is the same."""
    cfg = SuiteConfig(points=3)
    use_cpus(monkeypatch, 1)
    alone = run_suite("all", cfg).to_json()
    forks = []
    fork = os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("fork: Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    use_cpus(monkeypatch, 5)
    assert run_suite("all", cfg).to_json() == alone
    assert len(forks) == 2
    no_worker_left()


@pytest.mark.parametrize("cpus", [2, 5])
def test_a_table_that_raises_in_a_worker_raises_here(monkeypatch, cpus):
    """A table that raises in every process, workers included, makes
    ``run_suite`` raise its own exception, type, message and attributes
    intact, here the first table's, as in one process."""
    use_cpus(monkeypatch, cpus)
    for error in (lambda name: SingularPointError(f"table {name} is singular"),
                  lambda name: FlowBlowupError(1.5)):
        def fault(name):
            raise error(name)

        with tables_in_workers(fault, fault) as worker_tables:
            with pytest.raises(Exception) as info:
                run_suite("all", SuiteConfig(points=3))
            assert worker_tables()
        first = error("torsion")
        assert type(info.value) is type(first)
        assert str(info.value) == str(first)
        assert vars(info.value) == vars(first)  # FlowBlowupError's t_last
        no_worker_left()


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_the_earliest_table_that_raises_decides(monkeypatch, cpus):
    """When two tables raise, ``run_suite`` raises the exception of the
    earlier one in table order, on any number of processes, even when the
    later one raises first."""
    def slow_value_error(cfg):
        time.sleep(0.05)
        raise ValueError("algebra failed")

    def singular(cfg):
        raise SingularPointError("reduced failed")

    use_cpus(monkeypatch, cpus)
    for name in _SUITES:
        monkeypatch.setitem(_SUITES, name, lambda cfg: [])
    monkeypatch.setitem(_SUITES, "algebra", slow_value_error)
    monkeypatch.setitem(_SUITES, "reduced", singular)
    with pytest.raises(ValueError, match="^algebra failed$"):
        run_suite("all", SuiteConfig(points=3))
    no_worker_left()


def _no_memory(name):
    raise MemoryError


def _singular(name):
    raise SingularPointError(f"table {name} is singular")


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("fault", [lambda name: os._exit(1), _no_memory,
                                   _singular],
                         ids=["exit", "memory", "singular"])
def test_a_table_a_worker_could_not_judge_is_judged_here(
        monkeypatch, fault, cpus):
    """A table whose worker ends without sending its checks, or that
    raises only in a worker, is judged again in this process: the report
    is the one-process report, byte for byte."""
    cfg = SuiteConfig(points=3)
    use_cpus(monkeypatch, 1)
    alone = run_suite("all", cfg).to_json()
    use_cpus(monkeypatch, cpus)
    with tables_in_workers(fault) as worker_tables:
        assert run_suite("all", cfg).to_json() == alone
        assert worker_tables()
    no_worker_left()


def test_forking_gives_no_warning(monkeypatch):
    """``all`` forks its workers from a process with one thread, so
    Python's ``DeprecationWarning`` on forking a multi-threaded process
    (Python 3.12 and later) does not fire; see the fork-safety comment in
    ``suites._in_workers``."""
    use_cpus(monkeypatch, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_suite("all", SuiteConfig(points=3))
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)
                and "fork" in str(w.message)]
    no_worker_left()


def test_forking_with_deprecation_warnings_as_errors(monkeypatch):
    """``all`` on two usable CPUs, one worker forked, runs with every
    ``DeprecationWarning`` turned into an error, so on Python 3.12 and
    later the warning on forking a multi-threaded process would fail it
    where it fired."""
    use_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert run_suite("all", SuiteConfig(points=3)).ok
    no_worker_left()


def test_workers_are_killed_when_this_process_raises(monkeypatch):
    """An exception that stops this process while workers still judge
    their tables (here a ``BaseException``, as ``KeyboardInterrupt`` is)
    kills and reaps them before it propagates."""
    class Stop(BaseException):
        pass

    def stop(name):
        raise Stop

    use_cpus(monkeypatch, 5)
    start = time.monotonic()
    with tables_in_workers(lambda name: time.sleep(60), stop):
        with pytest.raises(Stop):
            run_suite("all", SuiteConfig(points=3))
    assert time.monotonic() - start < 30
    no_worker_left()


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_table_entries_are_self_contained(c):
    """The entries of a fresh table, each judged alone and the last first,
    give the checks of ``run_suite``: no entry depends on another having
    been judged.  Exactly the ``_finding`` ids have status finding."""
    cfg = SuiteConfig(points=3, c=c)
    findings = set()
    for name, suite in _SUITES.items():
        table = suite(cfg)
        assert isinstance(table, list)
        checks = [check_from_residual(check_id, description, reference,
                                      judge())
                  for check_id, description, reference, judge
                  in reversed(table)][::-1]
        assert checks == run_suite(name, cfg).checks, name
        assert {ch.id for ch in checks if ch.status == "finding"} == \
            {ch.id for ch in checks if ch.id.endswith("_finding")}
        findings |= {f"{name}.{ch.id}" for ch in checks
                     if ch.status == "finding"}
    assert findings == golden_findings()


@pytest.mark.parametrize("which", [0, 1], ids=["nijenhuis", "haantjes"])
def test_subfields_run_once_per_pass(which):
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
    field = _bracket_torsions(L, X, Y)[which]
    sample = sample_points(chart, 5, 1)
    first = field(sample)
    assert dict(calls) == {"L": 2, "X": 1, "Y": 1}
    second = field(sample)
    assert dict(calls) == {"L": 4, "X": 2, "Y": 2}
    assert (first == second).all()


def _unshared_nijenhuis(L, X, Y):
    """``[LX, LY] - L[LX, Y] - L[X, LY] + L^2 [X, Y]``, every subfield
    built afresh."""
    LX, LY = apply_operator(L, X), apply_operator(L, Y)
    t = lie_bracket(LX, LY)
    t = add_fields(t, scale_field(-1.0, apply_operator(L, lie_bracket(LX, Y))))
    t = add_fields(t, scale_field(-1.0, apply_operator(L, lie_bracket(X, LY))))
    return add_fields(
        t, apply_operator(L, apply_operator(L, lie_bracket(X, Y))))


def _unshared_haantjes(L, X, Y):
    """``L^2 T(X,Y) + T(LX,LY) - L T(LX,Y) - L T(X,LY)``, every subfield
    built afresh."""
    LX, LY = apply_operator(L, X), apply_operator(L, Y)
    h = apply_operator(L, apply_operator(L, _unshared_nijenhuis(L, X, Y)))
    h = add_fields(h, _unshared_nijenhuis(L, LX, LY))
    h = add_fields(h, scale_field(
        -1.0, apply_operator(L, _unshared_nijenhuis(L, LX, Y))))
    return add_fields(h, scale_field(
        -1.0, apply_operator(L, _unshared_nijenhuis(L, X, LY))))


def test_bracket_torsions_share_their_brackets(monkeypatch):
    """The oracle's two fields, ``T(X, Y)`` and ``H(X, Y)``, reach 9
    distinct Lie brackets, and one pass that reads both evaluates each of
    them once; built apart, as the definitions read, they evaluate 20.
    Sharing changes no bit: both fields equal the unshared ones."""
    rng = np.random.default_rng(3)
    chart = Chart("aux3", 3)
    L = _random_field(rng, OperatorField, chart)
    X, Y = (_random_field(rng, VectorField, chart) for _ in range(2))
    sample = sample_points(chart, 10, 42)
    built, runs = set(), []
    evaluate = charts._evaluate

    def recording_bracket(A, B):
        field = charts.lie_bracket(A, B)
        built.add(field.fn)
        return field

    def counting(fn, x):
        runs.append(fn in built)
        return evaluate(fn, x)

    # the oracle and the unshared definitions below build their brackets
    # through these names
    monkeypatch.setattr(sys.modules["haantjeskit.suites"], "lie_bracket",
                        recording_bracket)
    monkeypatch.setitem(globals(), "lie_bracket", recording_bracket)
    monkeypatch.setattr(charts, "_evaluate", counting)

    def bracket_runs(T, H):
        """Lie bracket runs in one read, so one pass, of both fields."""
        runs.clear()
        add_fields(T, H)(sample)
        return sum(runs)

    T, H = _bracket_torsions(L, X, Y)
    T0, H0 = _unshared_nijenhuis(L, X, Y), _unshared_haantjes(L, X, Y)
    assert (bracket_runs(T, H), bracket_runs(T0, H0)) == (9, 20)
    assert np.array_equal(T(sample), T0(sample))
    assert np.array_equal(H(sample), H0(sample))


@pytest.mark.parametrize("c", [1e-9, 1e4, 1e6])
def test_algebra_passes_at_extreme_inertia_ratios(c):
    """``algebra_rank`` normalises each generator before its relative rank
    cut, so the span of I, N, N^2 keeps dimension two when N's entries
    scale with 1/c or c."""
    report = run_suite("algebra", SuiteConfig(points=3, c=c))
    assert report.ok, [ch.id for ch in report.failed]


def test_tol_exact_reaches_the_abelian_checks():
    """The Abelian conditions of both generator families are algebraic, so
    ``tol_exact`` sets their tolerance; no other check of the suite moves."""
    base = run_suite("algebra", SuiteConfig(points=3))
    loose = run_suite("algebra", SuiteConfig(points=3, tol_exact=1e-3))
    abelian = {"abelian", "euler_family_abelian"}
    assert abelian <= {c.id for c in loose.checks}
    for a, b in zip(base.checks, loose.checks):
        if a.id in abelian:
            assert b.tolerance >= 1e-3
            assert b.tolerance == pytest.approx(a.tolerance * 1e9)
            assert b.max_residual == a.max_residual
        else:
            assert b == a


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
    # a finding by its id: it reports its result whatever it is, and its
    # companion's residual fills the description
    finding = check_from_residual("a_finding", "other {:.3e}", "",
                                  (bad, good))
    assert (finding.status, finding.description, finding.max_residual) == \
        ("finding", "other 1.000e-12", 1e-3)


def test_failed_and_ok_properties():
    r = VerificationReport("x", 1, {})
    r.extend([Check("c1", "", "", "pass", 0.0, 1.0, 1)])
    assert r.ok
    r.extend([Check("c2", "", "", "fail", 2.0, 1.0, 1)])
    assert not r.ok
    assert [c.id for c in r.failed] == ["c2"]
    r.checks[-1] = Check("c2", "", "", "finding", 2.0, 1.0, 1)
    assert r.ok  # findings never fail a report
