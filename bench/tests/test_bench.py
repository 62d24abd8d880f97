"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest bench/tests -q``; the full runs take about two
minutes."""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from haantjeskit import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 42


def bench(workload, trace, seed=SEED, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result(workload, trace, seed=SEED):
    done = bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 1) for w in workloads.WORKLOADS}


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(traced):
    res = result("geometry-large", 0)
    assert res["correct"]
    for key, res_ in (("end_to_end", res), ("per_layer",
                                            traced["geometry-large"])):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in res_["metrics"].items()}
        assert got == want


def test_counts_repeat_across_traced_runs(traced):
    again = result("geometry-large", 1)
    first = traced["geometry-large"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert again["metrics"][name] == first["metrics"][name], name
    assert (again["attempted"], again["failed"]) == (first["attempted"],
                                                     first["failed"])


def test_self_times_account_for_traced_wall(traced):
    for workload, res in traced.items():
        m = values(res)
        own = sum(v for k, v in m.items() if k.endswith("self_s"))
        assert abs(own - m["trace.wall_s"]) <= 0.01 * m["trace.wall_s"], \
            workload
        assert math.isfinite(m["trace.overhead_s"])


def test_failed_fraction_at_the_seed(traced):
    for workload in ("verify-all", "geometry-large"):
        assert traced[workload]["correct"]
        assert values(traced[workload])["ops_failed_frac"] == 0.0
    res = traced["sweep-small"]
    assert res["correct"]
    calls = workloads.sweep_small(SEED)
    bad = sum(1 for c in calls if c.kind == "verify"
              and c.c not in workloads.DEFECT_FREE_C)
    per_pass = sum(c.operations for c in calls)
    # one untraced and one traced pass
    assert res["attempted"] == 2 * per_pass
    assert res["failed"] == 2 * 10 * bad
    assert values(res)["ops_failed_frac"] == pytest.approx(
        10 * bad / per_pass)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("verify-all", 0, cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the output check, on reports altered by hand ---------------------------

def _report(tmp_path, call):
    path = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        rc = cli.main(call.args(path))
    return rc, json.loads(path.read_text()), path


def _check(call, rc, report, path):
    path.write_text(json.dumps(report))
    return workloads.check_pass([call], [(rc, "")], lambda i: path)


def test_output_check_accepts_a_clean_report(tmp_path):
    call = workloads.verify("reduced", 2, 7, 2.0)
    out = _check(call, *_report(tmp_path, call))
    assert (out.attempted, out.failed, out.problems) == (14, 0, [])


def test_output_check_flags_lost_finding_and_failure(tmp_path):
    call = workloads.verify("reduced", 2, 7, 2.0)
    rc, report, path = _report(tmp_path, call)
    for c in report["checks"]:
        if c["id"] == "eigenform_pairing_finding":
            c["status"] = "pass"
    report["checks"][0]["status"] = "fail"
    del report["checks"][1]
    out = _check(call, 1, report, path)
    assert out.failed == 2  # one failing, one missing
    text = " ".join(out.problems)
    assert "findings lost" in text and "unexpected failures" in text
    assert "13 checks" in text


def test_output_check_counts_known_defect_only_off_c_1_2(tmp_path):
    call = workloads.verify("euler-poisson", 1, 7, 3.0)
    rc, report, path = _report(tmp_path, call)
    out = _check(call, rc, report, path)
    assert rc == 1 and out.failed == 4 and out.problems == []
    same = workloads.verify("euler-poisson", 1, 7, 2.0)
    report["params"]["c"] = 2.0
    out = _check(same, rc, report, path)
    assert out.failed == 4 and out.problems


def test_output_check_counts_crashed_call(tmp_path):
    call = workloads.verify("all", 1, 7, 2.0)
    out = workloads.check_pass([call], [(None, "Traceback")],
                               lambda i: tmp_path / "absent.json")
    assert out.failed == out.attempted == 77 and out.problems


# -- the speed correction ---------------------------------------------------

def test_normalised_rescales_by_probe_speed():
    import speed
    ref = speed.REF_S
    assert speed.normalised(2.0, [ref] * 4) == pytest.approx(2.0 - 4 * ref)
    assert speed.normalised(2.0, [2 * ref, 2 * ref], 0.0) == pytest.approx(1.0)
    # the mean of the speeds, not of the durations
    assert speed.normalised(3.0, [ref, 2 * ref], 0.0) == pytest.approx(2.25)


def test_speed_probe_samples_during_work_and_restores_handler():
    import signal
    import time
    import speed
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    assert len(probe.take()) >= 5 and probe.samples == []
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
