"""Sampled identities and verification reports.

An identity is judged over a sample by one primitive, :func:`sampled`: a
function of the whole sample returns the residual at each point and the
magnitudes that set the scale, the primitive takes the maximum of each over
the sample, and the result is a :class:`SampledResidual`.  Named checks carry
the residual, the scaled tolerance and a pass/fail/finding status, and
serialize to deterministic JSON.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SampledResidual", "sampled", "matches", "merge", "worst",
           "Check", "VerificationReport", "check_from_residual",
           "identity_check"]

# Points per call of a sample function.  It bounds the memory a check
# holds at once: the torsion kernels keep a few arrays of shape
# (N, n, n, n).  Measured with `bench/run.py --workload geometry-large`
# (200 points) on a shared 2-vCPU Xeon VM, against 40.4 MB reading one
# point at a time: peak RSS 41.8, 42.7 and 43.4 MB for blocks of 64, 96
# and 128 points, at a norm_wall_s of 0.40, 0.36 and 0.29 s (3.6 s one
# point at a time).
BLOCK = 64

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_FINDING = "finding"


@dataclass(frozen=True)
class SampledResidual:
    """Outcome of a sampled identity check.

    ``residual`` is the raw maximum over the sample; the identity counts as
    satisfied when ``residual <= tolerance * scale``, where ``scale`` grows
    with the magnitude of the inputs entering the identity (1 for checks on
    bounded data).  A NaN residual or scale never passes.
    """

    residual: float
    tolerance: float
    scale: float = 1.0
    points: int = 0

    @property
    def effective_tolerance(self) -> float:
        return self.tolerance * self.scale

    @property
    def passed(self) -> bool:
        return self.residual <= self.effective_tolerance


def _max_abs(*values):
    """Largest absolute entry at each point of several arrays with the
    sample axis first, or of numbers (constant over the sample); NaN
    propagates."""
    return functools.reduce(np.maximum, (
        np.abs(v).reshape(len(v), -1).max(axis=1) if np.ndim(v) else abs(v)
        for v in values))


def sampled(sample, at, tol, scale=None):
    """Judge an identity over a sample.

    ``at(sample)`` returns the residual at each point followed by the
    magnitudes that set the scale, each an array with one entry per point
    (or a number, the same at every point).  It is called once per block
    of at most ``BLOCK`` points, so once for most samples.  Each entry is
    maximized over the sample, and a NaN in any of them propagates into the
    result, so the check fails.  The scale follows one of two rules:

    * ``scale=None``, maximum of a pointwise scale: ``at`` returns
      ``(residual, s1, s2, ...)`` and the scale is the largest of 1 and
      every ``sk`` over the sample;
    * ``scale=f``, function of sample-wide maxima: ``at`` returns
      ``(residual, m1, m2, ...)`` and the scale is ``f(M1, M2, ...)`` with
      ``Mk`` the maximum of ``mk`` over the sample.

    Several residuals read from one evaluation pass are judged together by
    passing a tuple of tolerances: ``at`` then returns that many residuals
    before the magnitudes, ``scale`` (if given) returns that many scales,
    and a tuple of results comes back.  Under the pointwise rule they share
    the one scale.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    many = isinstance(tol, tuple)
    tols = tol if many else (tol,)
    k = len(tols)
    top = np.max([[float(np.max(v)) for v in at(sample[i:i + BLOCK])]
                  for i in range(0, len(sample), BLOCK)], axis=0).tolist()
    if scale is None:
        scales = [float(np.maximum(1.0, np.max(top[k:])))] * k
    else:
        scales = scale(*top[k:]) if many else [scale(*top[k:])]
    out = tuple(SampledResidual(r, t, s, len(sample))
                for r, t, s in zip(top[:k], tols, scales))
    return out if many else out[0]


def matches(G, *Fs):
    """Sample function of the identity "every ``F`` equals ``G``": the
    residual is the largest ``|F - G|`` and the scale ``1 + |G|``, each
    field read once."""
    def at(p):
        g = G(p)
        return _max_abs(*(F(p) - g for F in Fs)), 1.0 + _max_abs(g)

    return at


def merge(results, points: int | None = None) -> SampledResidual:
    """Several results judged at one tolerance as one: the largest residual
    against the largest scale.  ``points`` defaults to the first result's
    sample size."""
    results = list(results)
    first = results[0]
    return SampledResidual(
        float(np.max([r.residual for r in results])), first.tolerance,
        float(np.max([r.scale for r in results])),
        first.points if points is None else points)


def worst(results) -> SampledResidual:
    """The result with the largest residual, judged at its own scale; a NaN
    residual counts as the largest."""
    return max(results, key=lambda r: (r.residual != r.residual, r.residual))


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    reference: str
    status: str
    max_residual: float
    tolerance: float
    points_sampled: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "reference": self.reference,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "points_sampled": self.points_sampled,
        }


def check_from_residual(check_id: str, description: str, reference: str,
                        sr: SampledResidual, finding: bool = False) -> Check:
    """Build a check from a sampled residual.

    ``finding`` marks checks that adjudicate a known ambiguity: they always
    report, never fail a run.
    """
    if finding:
        status = STATUS_FINDING
    else:
        status = STATUS_PASS if sr.passed else STATUS_FAIL
    return Check(check_id, description, reference, status,
                 float(sr.residual), float(sr.effective_tolerance),
                 sr.points)


def identity_check(check_id: str, description: str, reference: str, sample,
                   at, tol: float, finding: bool = False) -> Check:
    """A check straight from an identity: :func:`sampled` over ``sample``
    with the pointwise scale rule, then :func:`check_from_residual`."""
    return check_from_residual(check_id, description, reference,
                               sampled(sample, at, tol), finding)


@dataclass
class VerificationReport:
    suite: str
    seed: int
    params: dict
    checks: list = field(default_factory=list)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if c.status == STATUS_FAIL]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def summary_lines(self):
        for c in self.checks:
            yield (f"[{c.status.upper():7s}] {c.id}: "
                   f"residual {c.max_residual:.3e} "
                   f"(tolerance {c.tolerance:.3e}, "
                   f"{c.points_sampled} points)")
