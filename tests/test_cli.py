"""Command-line interface: exit codes, deterministic JSON, schema
conformance and the reported findings."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import haantjeskit
from haantjeskit import ChartError, SingularPointError, cli, sampling, suites
from haantjeskit.cli import main

from conftest import no_worker_left, tables_in_workers, use_cpus

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent
     / "docs" / "report_schema.json").read_text())


def run_cli(*args):
    # the child imports the package from the same place as this process,
    # installed or not
    src = str(Path(haantjeskit.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-m", "haantjeskit.cli", *args],
                          capture_output=True, text=True, env=env)


def test_verify_torsion_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "torsion", "--points", "10",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["suite"] == "torsion"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_numpy_integer_config_gives_a_schema_valid_report():
    """NumPy integers are stored as Python ints, so the report
    serializes and its ``points`` and ``seed`` are JSON integers."""
    cfg = suites.SuiteConfig(points=np.int64(3), seed=np.int64(5))
    assert type(cfg.points) is int and type(cfg.seed) is int
    report = json.loads(suites.run_suite("torsion", cfg).to_json())
    jsonschema.validate(report, SCHEMA)


def test_numpy_real_config_gives_a_schema_valid_report():
    """NumPy reals are stored as Python floats, so the report serializes
    and its tolerances and ``c`` are JSON numbers."""
    cfg = suites.SuiteConfig(points=3, c=np.float32(2.0),
                             tol_exact=np.float64(1e-12),
                             tol_deriv=np.float32(1e-9))
    assert all(type(v) is float for v in (cfg.c, cfg.tol_exact,
                                          cfg.tol_deriv))
    report = json.loads(suites.run_suite("torsion", cfg).to_json())
    jsonschema.validate(report, SCHEMA)


def test_verify_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "torsion", "--points", "10",
                 "--json", str(a)]) == 0
    assert main(["verify", "--suite", "torsion", "--points", "10",
                 "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_sample(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "torsion", "--points", "10",
          "--seed", "1", "--json", str(a)])
    main(["verify", "--suite", "torsion", "--points", "10",
          "--seed", "2", "--json", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["seed"] != rb["seed"]


def test_euler_suite_reports_finding(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "euler", "--points", "10",
                 "--json", str(out)])
    assert code == 0  # findings never fail the run
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["k3_image_finding"] == "finding"
    finding = next(c for c in report["checks"]
                   if c["id"] == "k3_image_finding")
    assert finding["max_residual"] > 1.0  # an honest nonzero residual


def test_verify_defaults_are_the_config_defaults(tmp_path):
    """With no option but the suite and the path, the report records the
    defaults of ``SuiteConfig``, seed 42 among them; ``integrate`` takes
    its default ``c`` from ``TopParams``."""
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "euler", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["params"] == suites.SuiteConfig().as_dict()
    assert report["seed"] == suites.SuiteConfig().seed == 42
    args = cli._build_parser().parse_args(["integrate", "--init", "0"])
    assert args.c == haantjeskit.lagrange.TopParams().c


def test_reduced_suite_reports_findings(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "reduced", "--points", "10",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    ids = {c["id"]: c for c in report["checks"]}
    assert ids["eigenform_pairing_finding"]["status"] == "finding"
    assert ids["momenta_reading_finding"]["status"] == "finding"


def test_usage_errors_exit_2():
    assert main(["verify", "--points", "0"]) == 2
    assert main(["verify", "--tol-exact", "-1"]) == 2
    assert main(["integrate", "--init", "1,2,3"]) == 2
    assert main(["integrate", "--init", "a,b,c,d,e,f"]) == 2
    assert main(["integrate", "--init", "1,2,3,4,5,6", "--dt", "-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--c", "-1"],
    ["verify", "--c", "0"],
    ["verify", "--suite", "all", "--c", "inf"],
    ["verify", "--c", "nan"],
    ["verify", "--seed", "-1"],
    ["verify", "--tol-exact", "nan"],
    ["verify", "--tol-deriv", "inf"],
    ["integrate", "--init", "nan,2,3,4,5,6"],
    ["integrate", "--init", "1,2,3,4,5,6", "--c", "-1"],
    ["integrate", "--init", "1,2,3,4,5,6", "--c", "inf"],
    ["integrate", "--init", "1,2,3,4,5,6", "--dt", "nan"],
    ["integrate", "--init", "1,2,3,4,5,6", "--tmax", "inf"],
    ["integrate", "--init", "0.1,0.2,0.3,0.4,0.5,0.6", "--dt", "1e-300",
     "--tmax", "1e300"],
    ["integrate", "--init", "0,1,1,1,0,1", "--dt", "1e-300", "--tmax", "1"],
    ["verify", "--tol-deriv", "0"],
    ["integrate", "--init", "1,2,3,4,5,6", "--dt", "inf"],
])
def test_bad_numbers_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unknown_flag_exits_2():
    r = run_cli("verify", "--nonsense")
    assert r.returncode == 2


def test_io_error_exit_3(tmp_path):
    bad = tmp_path / "missing" / "report.json"
    assert main(["verify", "--suite", "torsion", "--points", "5",
                 "--json", str(bad)]) == 3


def test_integrate_exit_0_and_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--init", "0.3,-0.2,0.5,0.1,0.4,0.8",
                 "--dt", "0.001", "--tmax", "1", "--csv", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "drift" in captured.out
    header = out.read_text().split("\n", 1)[0]
    assert header == "t,w1,w2,w3,g1,g2,g3,F1,F2,F3,F4,h0,h1,h2"


def test_integrate_blowup_exit_4():
    code = main(["integrate", "--init", "1e200,0,0,0,1e200,0",
                 "--dt", "1000", "--tmax", "100000"])
    assert code == 4


def test_integrate_invariant_overflow_exit_4(tmp_path):
    """A finite trajectory whose recorded invariants overflow, here the
    fixed point w1 = 1e200 where F2 = inf, is a numerical failure: exit 4
    with one line on standard error, no numpy warning and no CSV."""
    out = tmp_path / "t.csv"
    r = run_cli("integrate", "--init=1e200,0,0,0,0,0", "--tmax", "1",
                "--csv", str(out))
    assert r.returncode == 4, r.stderr
    assert r.stderr.startswith("error: invariants: FloatingPointError:")
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_integrate_too_many_steps_exit_2(monkeypatch, capsys):
    """A step count whose trajectory cannot be allocated is a usage error
    with one line on standard error, not a traceback."""
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "integrate_flow", no_memory)
    code = main(["integrate", "--init", "0,1,1,1,0,1", "--dt", "1e-12",
                 "--tmax", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --tmax / --dt")


def test_verify_failure_exit_1(tmp_path, monkeypatch):
    # force a failing check by shrinking the derivative tolerance absurdly
    code = main(["verify", "--suite", "algebra", "--points", "5",
                 "--tol-deriv", "1e-30"])
    assert code == 1


@pytest.mark.parametrize("suite", ["torsion", "algebra", "euler"])
def test_console_entry_point(suite):
    r = run_cli("verify", "--suite", suite, "--points", "5")
    assert r.returncode == 0
    assert "checks" in r.stdout


@pytest.mark.parametrize("exc", [
    SingularPointError("point lies on a singular set of chart 'complex'"),
    ChartError("chart mismatch"),
    np.linalg.LinAlgError("SVD did not converge"),
    ValueError("no annihilating polynomial found up to full degree"),
    OverflowError("absolute value too large")])
def test_numerical_error_in_check_exits_4(exc, monkeypatch, capsys):
    def failing_suite(name, cfg):
        raise exc

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    code = main(["verify", "--suite", "algebra", "--points", "3"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: suite algebra:")
    assert type(exc).__name__ in err and str(exc) in err
    assert "\n" not in err and "Traceback" not in err


def test_verify_out_of_memory_exits_2(monkeypatch, capsys):
    """A sample too large for memory (the sampler's first block of tries
    grows with ``--points``) is a usage error with one line on standard
    error, not a traceback."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(suites, "sample_points", no_memory)
    code = main(["verify", "--suite", "euler", "--points", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --points")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_points_beyond_the_index_range_exit_2(monkeypatch, capsys):
    """A ``--points`` beyond numpy's index range is the usage error of a
    sample memory cannot hold, exit 2 with one line: for one suite, and for
    ``all``, where the tables that raised in the worker are judged again
    in this process."""
    message = "error: --points is more than memory holds\n"
    assert main(["verify", "--suite", "torsion",
                 "--points", str(10 ** 20 - 1)]) == 2
    assert capsys.readouterr() == ("", message)
    use_cpus(monkeypatch, 2)
    with tables_in_workers(lambda name: None) as worker_tables:
        assert main(["verify", "--points", str(2 ** 63 - 1)]) == 2
        assert worker_tables()
    assert capsys.readouterr() == ("", message)
    no_worker_left()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("fault, everywhere, code, err", [
    (lambda name: _raise(SingularPointError(f"{name} is singular")), True, 4,
     "error: suite all: SingularPointError: torsion is singular\n"),
    (lambda name: os._exit(1), False, 0, ""),
    (lambda name: _raise(MemoryError()), True, 2,
     "error: --points is more than memory holds\n")],
    ids=["raised", "lost", "memory"])
def test_verify_maps_a_worker_failure_to_one_error_line(
        fault, everywhere, code, err, monkeypatch, capsys):
    """A worker that ends without sending its checks changes nothing: the
    tables it had claimed are judged in this process, and the output is
    that of one process.  A table that raises everywhere ends
    ``verify --suite all`` with the first table's error line alone, exit 4
    or, for a ``MemoryError``, exit 2.  No worker is left running."""
    use_cpus(monkeypatch, 1)
    assert main(["verify", "--points", "3"]) == 0
    alone = capsys.readouterr().out
    use_cpus(monkeypatch, 2)
    in_parent = fault if everywhere else (lambda name: None)
    with tables_in_workers(fault, in_parent) as worker_tables:
        assert main(["verify", "--points", "3"]) == code
        assert worker_tables()
    assert capsys.readouterr() == (alone if code == 0 else "", err)
    no_worker_left()


def test_sampling_failure_exits_4(monkeypatch, capsys):
    """A sample the try budget cannot fill ends with exit 4 and one error
    line, like any other chart error."""
    monkeypatch.setattr(sampling, "MIN_TRIES", 80)
    monkeypatch.setattr(sampling, "MARGIN", np.inf)
    code = main(["verify", "--suite", "euler", "--points", "3"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: suite euler: ChartError: could not sample")
    assert "\n" not in err and "Traceback" not in err


def test_extreme_inertia_ratio_exits_4():
    """A huge but finite ``--c`` overflows in numpy arithmetic; the run ends
    with exit 4 and exactly one line on standard error: no traceback, and
    no numpy warnings before it."""
    for suite, exc in [("algebra", "FloatingPointError"),
                       ("euler-poisson", "FloatingPointError")]:
        r = run_cli("verify", "--suite", suite, "--points", "1",
                    "--c", "1e308")
        assert r.returncode == 4, (suite, r.stderr)
        assert r.stderr.startswith(f"error: suite {suite}: {exc}:"), suite
        assert len(r.stderr.splitlines()) == 1, (suite, r.stderr)


def test_report_grid_freezes_and_diffs_per_check_id(monkeypatch, capsys,
                                                    tmp_path):
    """``--freeze FILE`` writes each report's checks by id; ``--against
    FILE`` prints nothing moved for the same code, and a status change and
    the move of each tolerance, over the tolerance, when checks are judged
    at other tolerances, then one line per moved id."""
    path = Path(__file__).resolve().parent.parent / "tools" / "report_grid.py"
    spec = importlib.util.spec_from_file_location("report_grid", path)
    report_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_grid)
    monkeypatch.setattr(report_grid, "grid",
                        lambda: iter([("euler", 3, 42, 2.0)]))
    frozen = tmp_path / "grid.json"
    assert report_grid.main(["--freeze", str(frozen)]) == 0
    checks = json.loads(frozen.read_text())["euler points 3 seed 42 c 2"]
    report = cli.run_suite("euler", suites.SuiteConfig(points=3, seed=42))
    assert list(checks) == [c.id for c in report.checks]
    for c in report.checks:
        assert checks[c.id] == {"status": c.status,
                                "residual": c.max_residual,
                                "tolerance": c.tolerance,
                                "points": c.points_sampled}
    capsys.readouterr()
    assert report_grid.main(["--against", str(frozen)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 check ids moved"
    run_suite = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: run_suite(
        name, dataclasses.replace(cfg, tol_exact=1e-300, tol_deriv=1e-300)))
    assert report_grid.main(["--against", str(frozen)]) == 1
    out = capsys.readouterr().out.splitlines()
    strict = cli.run_suite("euler", suites.SuiteConfig(
        points=3, seed=42, tol_exact=1e-300, tol_deriv=1e-300))
    changed = [c.id for c in strict.checks if c.status != checks[c.id][
        "status"]]
    moved = [c for c in strict.checks
             if c.tolerance != checks[c.id]["tolerance"]]
    assert changed and moved
    for i in changed:
        status = f"{checks[i]['status']} -> fail"
        assert f"euler points 3 seed 42 c 2  {i}: status {status}" in out
    for c in moved:
        assert f"moved {c.id}: 1 reports, largest |d|/tol 0.00e+00 " \
            "(euler points 3 seed 42 c 2)" in out
    assert out[-2:] == [f"{len(moved)} check ids moved",
                        "1 reports exited non-zero"]


def test_report_grid_exits_1_when_a_report_fails(monkeypatch, capsys):
    """``tools/report_grid.py`` exits 0 when every call passes and 1 when
    any exits non-zero: here a report judged at tolerances no residual
    meets, then an ``integrate`` call with a negative final time, whose
    exit code stands in place of its CSV digest."""
    path = Path(__file__).resolve().parent.parent / "tools" / "report_grid.py"
    spec = importlib.util.spec_from_file_location("report_grid", path)
    report_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_grid)
    monkeypatch.setattr(report_grid, "grid",
                        lambda: iter([("euler", 3, 42, 2.0)]))
    assert report_grid.main() == 0
    # each run prints its report line, the combined digest and the
    # integrate CSV digests
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("exit 0") and len(out) == 3
    assert out[2].startswith("integrate csv ") and "exit" not in out[2]
    run_suite = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: run_suite(
        name, dataclasses.replace(cfg, tol_exact=1e-300, tol_deriv=1e-300)))
    assert report_grid.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("exit 1")
    assert out[-1] == "1 reports exited non-zero"
    monkeypatch.setattr(cli, "run_suite", run_suite)
    (c, init, dt, _), second = report_grid.INTEGRATE
    monkeypatch.setattr(report_grid, "INTEGRATE",
                        ((c, init, dt, "-1"), second))
    assert report_grid.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("exit 0")
    assert out[2].startswith("integrate csv exit 2  ")
    assert out[-1] == "1 reports exited non-zero"


@pytest.mark.parametrize("seed", [42, 7])
def test_benchmark_calls_pass(monkeypatch, capsys, tmp_path, seed):
    """One pass of every workload of ``bench/workloads.py``, each call
    through ``cli.main`` as the benchmark makes it, passes the benchmark's
    own judge: no failed operation and no problem.  Among them are calls
    no other test makes, such as ``all`` at 2 and 3 points at c = 1 and
    c = 3 and seed ``seed + 1``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, make in workloads.WORKLOADS.items():
        calls = make(seed)

        def report(i):
            return tmp_path / f"{name}-{i}.json"

        results = []
        for i, call in enumerate(calls):
            code = main(call.args(report(i)))
            captured = capsys.readouterr()
            results.append((code, captured.out + captured.err))
        checked = workloads.check_pass(calls, results, report)
        assert checked.failed == 0 and not checked.problems, \
            (name, checked.problems)
