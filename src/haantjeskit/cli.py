"""Command-line entry point.

``haantjeskit verify`` runs a named verification suite and prints one line
per check; ``haantjeskit integrate`` runs the fixed-step flow integrator and
reports the worst invariant drift.

Exit codes: 0 all checks pass (findings do not fail), 1 at least one check
failed, 2 usage error (a value that ``SuiteConfig``, ``TopParams`` or
``integrate_flow`` rejects, as the CLI only parses, or a sample or a
trajectory too large for memory), 3 I/O error, 4 numerical failure: the
flow blew up, or a check raised a chart error (such as a singular point),
a linear-algebra error, a value error or an arithmetic error (such as an
overflow; numpy floating-point errors raise, not warn, inside ``verify``).
``verify --suite all`` judges its tables in worker processes, and here
again any table a worker could not judge, so it exits as a run in one
process would (see ``suites.run_suite``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .charts import ChartError
from .lagrange import TopParams, integrate_flow, max_relative_drift, write_csv
from .lagrange.flow import FlowBlowupError
from .suites import SUITE_NAMES, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haantjeskit",
        description="numerical verification of Haantjes-algebra structures "
                    "for the heavy symmetric top")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--points", type=int, default=SuiteConfig.points)
    v.add_argument("--tol-exact", type=float, default=SuiteConfig.tol_exact)
    v.add_argument("--tol-deriv", type=float, default=SuiteConfig.tol_deriv)
    v.add_argument("--json", type=str, default=None,
                   help="write the report as JSON to this path")
    v.add_argument("--c", type=float, default=SuiteConfig.c,
                   help="inertia ratio of the top")

    g = sub.add_parser("integrate", help="integrate the body-frame flow")
    g.add_argument("--c", type=float, default=TopParams.c)
    g.add_argument("--init", type=str, required=True,
                   help="six comma-separated initial values "
                        "(w1,w2,w3,g1,g2,g3)")
    g.add_argument("--dt", type=float, default=1e-3)
    g.add_argument("--tmax", type=float, default=10.0)
    g.add_argument("--csv", type=str, default=None,
                   help="write the trajectory as CSV to this path")
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_verify(args) -> int:
    try:
        cfg = SuiteConfig(seed=args.seed, points=args.points,
                          tol_exact=args.tol_exact, tol_deriv=args.tol_deriv,
                          c=args.c)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        # numpy overflows raise, so they end in the one error line below
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = run_suite(args.suite, cfg)
    except (ChartError, np.linalg.LinAlgError, ValueError,
            ArithmeticError) as exc:
        print(f"error: suite {args.suite}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        # the sampler allocates its first block of tries from --points
        return _usage_error("--points is more than memory holds")
    for line in report.summary_lines():
        print(line)
    n_fail = len(report.failed)
    n_find = sum(1 for c in report.checks if c.status == "finding")
    print(f"suite {report.suite}: {len(report.checks)} checks, "
          f"{n_fail} failed, {n_find} findings")
    if args.json is not None:
        try:
            with open(args.json, "w") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_integrate(args) -> int:
    try:
        values = [float(v) for v in args.init.split(",")]
    except ValueError:
        return _usage_error("--init must be six comma-separated numbers")
    try:
        traj = integrate_flow(TopParams(c=args.c), values, args.dt,
                              args.tmax)
    except ValueError as exc:
        return _usage_error(str(exc))
    except FlowBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        # the trajectory array is allocated before the first step
        return _usage_error("--tmax / --dt is more steps than memory holds")
    drift = max_relative_drift(traj)
    print(f"integrated {len(traj.times) - 1} steps to t = "
          f"{traj.times[-1]:.6g}; max relative invariant drift "
          f"{drift:.3e}")
    if args.csv is not None:
        try:
            write_csv(traj, args.csv)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize anyway
        return EXIT_USAGE if exc.code not in (0,) else 0
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_integrate(args)


if __name__ == "__main__":
    sys.exit(main())
