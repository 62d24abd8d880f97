"""Guard for refactors of the checking code: the full-suite report at three
points, frozen in ``tests/data`` from an earlier implementation, must keep
every id, status, sample size, description and reference exactly, and
every tolerance and residual to rounding.  A finding quotes a residual in
its description, which is compared up to that number.

The comparison does not survive every change of summation order, such as
another BLAS or another way of contracting the torsions.  A check whose
residual is at rounding level picks its worst point by rounding, and its
tolerance follows the scale at that point, so the tolerance itself can
move by more than rounding, as the Haantjes checks,
``torsion_antisymmetry``, ``torsion_definitional_oracle`` and
``euler_family_ring`` do.  Such a change refreezes the files and lists
each moved value.

The frozen files are the output of
``haantjeskit verify --suite all --points 3 --c C --json FILE``.
"""

import json
import re
from pathlib import Path

import pytest

from haantjeskit.suites import SuiteConfig, run_suite

DATA = Path(__file__).resolve().parent / "data"
# the one residual a finding quotes, in the ``{:.3e}`` format
QUOTED = re.compile(r"-?\d\.\d{3}e[+-]\d{2,3}")


def text(check):
    """A check's description and reference, a finding's quoted number
    replaced by a marker."""
    description = check["description"]
    if check["id"].endswith("_finding"):
        description, quoted = QUOTED.subn("<residual>", description)
        assert quoted == 1, check["id"]
    return description, check["reference"]


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_report_matches_frozen(c):
    want = json.loads((DATA / f"report_all_p3_c{c:g}.json").read_text())
    got = run_suite("all", SuiteConfig(points=3, c=c)).to_dict()
    assert (got["suite"], got["seed"], got["params"]) == \
        (want["suite"], want["seed"], want["params"])
    assert [ch["id"] for ch in got["checks"]] == \
        [ch["id"] for ch in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["status"], g["points_sampled"]) == \
            (w["status"], w["points_sampled"]), g["id"]
        assert text(g) == text(w), g["id"]
        assert g["tolerance"] == pytest.approx(w["tolerance"], rel=1e-9), \
            g["id"]
        assert g["max_residual"] == pytest.approx(
            w["max_residual"], rel=1e-6, abs=1e-3 * w["tolerance"]), g["id"]
