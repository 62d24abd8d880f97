"""Digest a fixed grid of 185 ``haantjeskit verify`` reports.

The grid is every suite choice (the five suites and ``all``) at points
1, 2, 3, 20 and 100, seeds 42 and 7 and inertia ratios 0.5, 2 and 10; then
the four geometry suites (torsion, euler, euler-poisson, reduced) at 200
points; then ``all`` at 300 points, seed 5, c = 3.  One point is the
smallest sample the CLI takes, and two the smallest that the sweep-small
benchmark runs; on one point every partial is that point's value, not a
constant.  Each report runs in process through ``cli.main``.  For each
one the script prints the sha256 of its JSON report, the sha256 of what
it printed and its exit code, and at the end one sha256 over all those
lines.  Two checkouts that print the same final digest wrote the same
reports byte for byte.  The script exits 1 when any report exits
non-zero, so a check that fails anywhere on the grid fails the run.

After the combined digest it runs the two reference ``haantjeskit
integrate`` calls with ``--csv`` and prints the sha256 of both CSVs on one
line, so trajectories are compared the same way; an ``integrate`` call that
exits non-zero fails the run too, and its exit code stands in place of its
digest.

Run from a checkout, with no options::

    python3 tools/report_grid.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GEOMETRY = ("torsion", "euler", "euler-poisson", "reduced")


def grid():
    """``(suite, points, seed, c)`` for each report, in order."""
    suites = ("torsion", "algebra", "euler", "euler-poisson", "reduced",
              "all")
    yield from itertools.product(suites, (1, 2, 3, 20, 100), (42, 7),
                                 (0.5, 2.0, 10.0))
    for suite in GEOMETRY:
        yield suite, 200, 42, 2.0
    yield "all", 300, 5, 3.0


# the two reference ``integrate`` calls: (c, initial state, dt, t_max)
INTEGRATE = (("2.0", "0.3,-0.7,0.2,0.5,0.4,-0.6", "1e-3", "20"),
             ("0.5", "0.1,0.7,-0.2,0.9,0.4,-0.6", "1e-3", "5"))


def main() -> int:
    sys.path.insert(0, str(SRC))
    from haantjeskit import cli

    combined = hashlib.sha256()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for suite, points, seed, c in grid():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--suite", suite, "--points",
                                 str(points), "--seed", str(seed),
                                 "--c", repr(c), "--json", str(path)])
            report = hashlib.sha256(path.read_bytes()).hexdigest()
            printed = hashlib.sha256(out.getvalue().encode()).hexdigest()
            line = (f"{suite:13s} points {points:3d} seed {seed:2d} "
                    f"c {c:4g}  json {report}  stdout {printed}  "
                    f"exit {code}")
            print(line)
            combined.update(line.encode() + b"\n")
            failed += code != 0
            path.unlink()
        print(f"combined {combined.hexdigest()}")
        csvs, csv = [], Path(tmp) / "trajectory.csv"
        for c, init, dt, tmax in INTEGRATE:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["integrate", "--c", c, "--init", init,
                                 "--dt", dt, "--tmax", tmax,
                                 "--csv", str(csv)])
            # a failed call writes no CSV: its exit code stands in the line
            failed += code != 0
            csvs.append(f"exit {code}" if code else
                        hashlib.sha256(csv.read_bytes()).hexdigest())
            csv.unlink(missing_ok=True)
    print(f"integrate csv {'  '.join(csvs)}")
    if failed:
        print(f"{failed} reports exited non-zero")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
