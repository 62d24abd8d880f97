"""Workloads of the benchmark and the check of every report they produce.

A workload is a list of CLI calls made from the benchmark seed.  One pass
runs every call once, in-process, through ``haantjeskit.cli.main``.  The
checks read each written report back and count failed operations: an
operation is one expected check of a ``verify`` call or one ``integrate``
call.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SUITES = ("torsion", "algebra", "euler", "euler-poisson", "reduced")
# Checks each suite must report, and the findings that must keep status
# "finding" (ids as a single-suite report prints them).
EXPECTED_CHECKS = {"torsion": 7, "algebra": 11, "euler": 6,
                   "euler-poisson": 39, "reduced": 14, "all": 77}
FINDINGS = {
    "euler": ("k3_image_finding",),
    "reduced": ("eigenform_pairing_finding", "momenta_reading_finding"),
}
# The recursion-operator defect: these checks fail at every inertia ratio
# other than 1 and 2.  They are counted as failed operations, never skipped;
# the run stays correct while no other check fails.
KNOWN_C_DEFECT = {
    "algebra": ("recursion_operator_nijenhuis", "polynomial_closure",
                "minimal_polynomial", "algebra_rank", "module_condition",
                "ring_condition"),
    "euler-poisson": ("n_nijenhuis", "minimal_polynomial_identity",
                      "oneform_chain_closed", "oneform_chain_step"),
}
DEFECT_FREE_C = (1.0, 2.0)

VERIFY_ALL_POINTS = 20
GEOMETRY_SUITES = ("torsion", "euler", "euler-poisson", "reduced")
GEOMETRY_POINTS = 200
SWEEP_C = (0.5, 1.0, 2.0, 3.0, 10.0)
SWEEP_POINTS = (2, 3)
FLOW_DT = 1e-3
FLOW_TMAX = 20.0
FLOW_STEPS = 20000
# RK4 at this step keeps every invariant within ~1e-11 of its start on
# these initial states; a drift above the bound is a failed operation.
FLOW_DRIFT_BOUND = 1e-8

_DRIFT_RE = re.compile(
    r"integrated (\d+) steps .* max relative invariant drift (\S+)")


def _expected_ids(suite: str):
    """Ids of the findings and of the known defects in a report of
    ``suite``."""
    def qualify(key, name):
        return f"{key}.{name}" if suite == "all" else name
    keys = SUITES if suite == "all" else (suite,)
    findings = {qualify(k, n) for k in keys for n in FINDINGS.get(k, ())}
    defects = {qualify(k, n) for k in keys for n in KNOWN_C_DEFECT.get(k, ())}
    return findings, defects


@dataclass(frozen=True)
class Call:
    """One CLI call; ``argv`` lacks the ``--json`` target."""

    kind: str  # "verify" | "integrate"
    argv: tuple
    suite: str = ""
    c: float = 2.0
    points: int = 0
    seed: int = 0

    @property
    def operations(self) -> int:
        return EXPECTED_CHECKS[self.suite] if self.kind == "verify" else 1

    def args(self, report: Path) -> list:
        if self.kind == "verify":
            return [*self.argv, "--json", str(report)]
        return list(self.argv)


def verify(suite: str, points: int, seed: int, c: float) -> Call:
    return Call("verify", ("verify", "--suite", suite, "--points", str(points),
                           "--seed", str(seed), "--c", repr(c)),
                suite, c, points, seed)


def integrate(c: float, init, tmax: float = FLOW_TMAX) -> Call:
    # "--init=" keeps a leading minus sign from reading as an option
    return Call("integrate",
                ("integrate", "--c", repr(c),
                 "--init=" + ",".join(repr(float(v)) for v in init),
                 "--dt", repr(FLOW_DT), "--tmax", repr(tmax)), c=c)


def verify_all(seed: int) -> list:
    return [verify("all", VERIFY_ALL_POINTS, seed, 2.0)]


def geometry_large(seed: int) -> list:
    return [verify(s, GEOMETRY_POINTS, seed, 2.0) for s in GEOMETRY_SUITES]


def sweep_small(seed: int) -> list:
    rng = np.random.default_rng(seed)
    calls = []
    for c in SWEEP_C:
        for k, points in enumerate(SWEEP_POINTS):
            calls.append(verify("all", points, seed + k, c))
        calls.append(integrate(c, rng.uniform(-1.0, 1.0, 6)))
    return calls


WORKLOADS = {
    "verify-all": verify_all,
    "geometry-large": geometry_large,
    "sweep-small": sweep_small,
}


def warmup_calls(calls) -> list:
    """One tiny call per distinct suite, plus a short flow, so that lazy
    imports and numpy set-up finish before anything is timed."""
    out, seen = [], set()
    for call in calls:
        key = call.suite or "integrate"
        if key in seen:
            continue
        seen.add(key)
        if call.kind == "verify":
            out.append(verify(call.suite, 1, call.seed, call.c))
        else:
            out.append(integrate(call.c, (0.5,) * 6, tmax=0.01))
    return out


def size(name: str, calls) -> dict:
    verifies = [c for c in calls if c.kind == "verify"]
    return {
        "workload": name,
        "verify_calls": len(verifies),
        "integrate_calls": len(calls) - len(verifies),
        "suites": sorted({c.suite for c in verifies}),
        "points": sorted({c.points for c in verifies}),
        "c": sorted({c.c for c in calls}),
        "program_seeds": sorted({c.seed for c in verifies}),
        "flow_steps": FLOW_STEPS if len(calls) > len(verifies) else 0,
        "operations": sum(c.operations for c in calls),
    }


@dataclass
class PassCheck:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    points: int = 0
    worst_margin: float = 0.0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    first_report: dict | None = None


def check_pass(calls, results, report_path) -> PassCheck:
    """``results[i]`` is ``(exit code or None if it raised, output text)``
    for ``calls[i]``; reports are read from ``report_path(i)``."""
    out = PassCheck()
    for i, (call, (rc, text)) in enumerate(zip(calls, results)):
        out.attempted += call.operations
        label = " ".join(call.argv)
        if call.kind == "integrate":
            _check_flow(out, label, rc, text)
        else:
            _check_report(out, call, label, rc, report_path(i))
    return out


def _check_flow(out: PassCheck, label: str, rc, text: str) -> None:
    m = _DRIFT_RE.search(text)
    if rc != 0 or m is None:
        out.failed += 1
        out.problems.append(f"{label}: exit {rc}: {text.strip()[-200:]}")
        return
    steps, drift = int(m.group(1)), float(m.group(2))
    out.digests.append(f"flow:{steps}:{m.group(2)}")
    if steps != FLOW_STEPS or not drift <= FLOW_DRIFT_BOUND:
        out.failed += 1
        out.problems.append(f"{label}: {steps} steps, drift {drift:.3e}")


def _check_report(out: PassCheck, call: Call, label: str, rc,
                  path: Path) -> None:
    expected = call.operations
    if rc not in (0, 1):
        out.failed += expected
        out.problems.append(f"{label}: exit {rc}")
        return
    try:
        raw = path.read_bytes()
        report = json.loads(raw)
        checks = report["checks"]
        status = {c["id"]: c["status"] for c in checks}
        points = sum(int(c["points_sampled"]) for c in checks)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failed += expected
        out.problems.append(f"{label}: unreadable report: {exc!r}")
        return
    out.digests.append(hashlib.sha256(raw).hexdigest())
    if out.first_report is None:
        out.first_report = report
    params = report.get("params", {})
    if (report.get("suite") != call.suite or report.get("seed") != call.seed
            or params.get("points") != call.points
            or params.get("c") != call.c):
        out.problems.append(f"{label}: report header does not match call")
    if len(checks) != expected or len(status) != len(checks):
        out.problems.append(
            f"{label}: {len(checks)} checks ({len(status)} distinct), "
            f"expected {expected}")
    missing = max(0, expected - len(status))
    failing = sorted(i for i, s in status.items() if s == "fail")
    out.failed += missing + len(failing)
    findings, defects = _expected_ids(call.suite)
    allowed = set() if call.c in DEFECT_FREE_C else defects
    unexpected = [i for i in failing if i not in allowed]
    if unexpected:
        out.problems.append(f"{label}: unexpected failures {unexpected}")
    lost = sorted(i for i in findings if status.get(i) != "finding")
    if lost:
        out.problems.append(f"{label}: findings lost {lost}")
    if rc != (1 if failing else 0):
        out.problems.append(f"{label}: exit {rc} with {len(failing)} failed")
    out.points += points
    for c in checks:
        if c["status"] == "pass" and c["tolerance"] > 0:
            out.worst_margin = max(out.worst_margin,
                                   c["max_residual"] / c["tolerance"])
