"""Benchmark of ``haantjeskit verify`` and ``haantjeskit integrate``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify-all --seed 42 --seconds 30 --trace 0

The workloads (see ``workloads.py`` and ``README.md``) call
``haantjeskit.cli.main`` in this process, one call after another, on one
thread.  A pass runs every call of the workload once; passes repeat until
``--seconds`` would be exceeded.  Every report of every pass is read back
and checked.

Timings are corrected for the machine's speed (``speed.py``): neighbouring
load on a shared machine slows the same code by up to 2x, in stretches that
alternate every second or so.  A timer-driven probe samples the speed during
every call, and each call's wall time is rescaled to the speed at which the
probe takes ``speed.REF_S``.  ``norm_wall_s`` is the sum over calls of the
median over passes of that time; README.md gives the figures that led to it.
``setup_s`` is the median over fresh interpreters started between passes,
each rescaled by probes run during its imports.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and one traced, then the micro-timings, and prints the per-layer
metrics.  Earlier lines of standard output carry the provenance; the last
line is the JSON result.  A full record, and the span dump of a traced run,
go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One OpenBLAS thread, here and in the set-up children, set before numpy is
# imported: the program runs on one thread, and on a 2-vCPU machine the
# start of OpenBLAS's thread pool at import swings set-up time by a third,
# with where the scheduler puts the new thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 5  # before the first pass and after each pass
# Child program for setup_s: a fresh interpreter imports the CLI (numpy
# included) and builds its parser by asking for the top-level help, with
# speed probes running.  It prints its end time, the time spent in probes
# and the probe durations (one probe after the end if none ran).
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "with speed.SpeedProbe(speed.SETUP_INTERVAL_S) as probe:\n"
    "    sys.path.insert(0, sys.argv[1])\n"
    "    from haantjeskit import cli\n"
    "    cli.main(['--help'])\n"
    "    end = time.monotonic()\n"
    "spent = sum(probe.samples)\n"
    "samples = probe.samples or [speed.timed_probe()]\n"
    "print(repr(end), repr(spent), *map(repr, samples), file=sys.stderr)\n"
)

SELF_LAYERS = {
    "cli": "cli.self_s", "report": "report.self_s",
    "suites": "suites.self_s", "sampling": "sampling.self_s",
    "charts": "charts.self_s", "torsion": "torsion.self_s",
    "algebra": "algebra.self_s", "poisson": "poisson.self_s",
    "lagrange.flow": "lagrange.flow_self_s",
    "lagrange.model": "lagrange.model_self_s",
}
CALL_LAYERS = {"torsion": "torsion.calls", "algebra": "algebra.calls",
               "poisson": "poisson.calls"}


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be non-negative and --seconds at least 1")
    return args


def setup_start() -> tuple:
    """Seconds from starting a fresh interpreter to a built CLI parser, as
    measured and at reference speed."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=60, check=True)
    end, spent, *samples = map(float, done.stderr.split("\n")[-2].split())
    return end - t0, speed.normalised(end - t0, samples, spent)


def run_calls(cli, calls, report_path, probe=None):
    """One pass: each call through ``cli.main`` with its output captured.
    Returns per call the wall time, the durations of the ``probe`` samples
    taken during it (none without a probe) and ``(exit code or None,
    output)``."""
    for i in range(len(calls)):
        report_path(i).unlink(missing_ok=True)
    times, probes, results = [], [], []
    for i, call in enumerate(calls):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if probe:
                probe.take()
            t0 = time.perf_counter()
            try:
                rc = cli.main(call.args(report_path(i)))
            except Exception:  # a crash is a failed operation, not a stop
                rc = None
                traceback.print_exc(file=buf)
            times.append(time.perf_counter() - t0)
            probes.append(probe.take() if probe else [])
        results.append((rc, buf.getvalue()))
    return times, probes, results


def normalise_pass(times, probes) -> list:
    """Each call's time at reference speed.  A call too short to hold a
    probe takes the speed measured over the whole pass."""
    every = [d for p in probes for d in p] or [speed.timed_probe()]
    return [speed.normalised(t, p) if p else speed.normalised(t, every, 0.0)
            for t, p in zip(times, probes)]


def provenance(args, calls) -> dict:
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        head = ((git / ref[5:]).read_text().strip()
                if ref.startswith("ref: ") else ref)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": head,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "probe_ref_s": speed.REF_S,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workloads.size(args.workload, calls),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "haantjeskit" / "__init__.py").is_file():
        print(f"error: no haantjeskit sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from haantjeskit import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported haantjeskit from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    calls = workloads.WORKLOADS[args.workload](args.seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    report_path = lambda i: work / f"report-{i}.json"

    if args.trace == 0:
        setup_start()  # writes the byte-code, as an installed CLI has it
    run_calls(cli, workloads.warmup_calls(calls), report_path)

    # set-up samples are spread over the run, like the passes
    setup = [] if args.trace else [setup_start() for _ in range(SETUP_STARTS)]
    times, norm, slowdown, checks = [], [], [], []
    start = time.perf_counter()
    while True:
        if args.trace:
            call_s, _, results = run_calls(cli, calls, report_path)
        else:
            with speed.SpeedProbe() as probe:
                call_s, probes, results = run_calls(cli, calls, report_path,
                                                    probe)
            norm.append(normalise_pass(call_s, probes))
            slowdown.append(statistics.median(
                d for p in probes for d in p) / speed.REF_S
                if any(probes) else None)
        times.append(call_s)
        checks.append(workloads.check_pass(calls, results, report_path))
        if args.trace:
            break
        setup += [setup_start() for _ in range(SETUP_STARTS)]
        if time.perf_counter() - start + sum(call_s) > args.seconds:
            break

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, results = run_calls(cli, calls, report_path)
        finally:
            tracer.uninstall()
        checks.append(workloads.check_pass(calls, results, report_path))

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    if any(c.digests != checks[0].digests for c in checks):
        problems.append("outputs differ between passes of one seed")
    first = checks[0]

    if args.trace == 0:
        wall = sum(map(statistics.median, zip(*norm)))
        metrics = {
            "norm_wall_s": metric(wall, "s"),
            "norm_check_points_per_s": metric(first.points / wall, "1/s"),
            "setup_s": metric(statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "ops_ok_frac": metric((attempted - failed) / attempted, "ratio"),
        }
    else:
        import micro
        metrics = layer_metrics(tracer, sum(traced), sum(times[0]), first,
                                attempted, failed)
        if first.first_report is None:
            problems.append("no report to time the serializer on")
        else:
            for name, value in micro.measure(args.seed,
                                             first.first_report).items():
                unit = "1/s" if name.endswith("_per_s") else (
                    "ms" if name.endswith("_ms") else "us")
                metrics[name] = metric(value, unit)
        tracer.dump(OUT / f"trace-{args.workload}.npz")

    record = {
        "provenance": provenance(args, calls),
        "call_s": times,
        "call_norm_s": norm,
        "pass_slowdown": slowdown,
        "setup_s_samples": [s for s, _ in setup],
        "setup_norm_s_samples": [s for _, s in setup],
        "report_sha256": first.digests,
        "problems": problems,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("# provenance " + json.dumps(record["provenance"]))
    print(f"# {len(times)} passes of {len(calls)} calls; "
          f"{len(setup)} set-up starts")
    if norm:
        raw, at_ref = (statistics.median(map(sum, t)) for t in (times, norm))
        print(f"# median pass wall time {raw:.3f} s as measured, "
              f"{at_ref:.3f} s at reference speed; "
              "median probe / reference per pass "
              + " ".join(f"{x:.2f}" for x in slowdown if x is not None))
    for p in problems[:20]:
        print("# problem: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, traced_wall, untraced_wall, check, attempted,
                  failed) -> dict:
    spans = tracer.per_name()

    def total(column, keep):
        return sum(s[column] for n, s in spans.items() if keep(n, s[0]))

    def field_calls(methods):
        def keep(name, layer):
            cls, _, method = name.partition(":")[2].rpartition(".")
            return (layer == "charts" and cls not in ("", "ChartMap")
                    and method in methods)
        return metric(total(1, keep), "count")

    m = {name: metric(total(3, lambda n, lay: lay == layer), "s")
         for layer, name in SELF_LAYERS.items()}
    m["jets.constructed"] = metric(tracer.jets, "count")
    m["charts.evals"] = field_calls(("__call__",))
    m["charts.jacobians"] = field_calls(("gradient", "jacobian"))
    for layer, name in CALL_LAYERS.items():
        m[name] = metric(total(1, lambda n, lay: lay == layer), "count")
    m["sampling.points"] = metric(tracer.points, "count")
    for key in workloads.SUITES:
        m[f"suites.{key}_s"] = metric(
            total(2, lambda n, lay: n == f"suites:{key}"), "s")
    m["suites.worst_margin"] = metric(check.worst_margin, "ratio")
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m["ops_failed_frac"] = metric(failed / attempted, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
