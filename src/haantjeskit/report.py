"""Sampled identities and verification reports.

An identity is judged over a sample by one primitive, :func:`sampled`: a
function of the whole sample returns the residual at each point and the
magnitudes that set that point's scale, each point is judged against its
own scale, and the result is a :class:`SampledResidual` at the worst point.
Named checks carry that point's residual, the tolerance scaled to it and a
pass/fail/finding status, and serialize to deterministic JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import charts

__all__ = ["SampledResidual", "sampled", "matches", "worst",
           "Check", "VerificationReport", "check_from_residual"]

# Points per slice of a kernel that builds arrays of shape (N, n, n, n),
# the torsions and the Jacobi sum, reduced slice by slice in `_sliced_max`.
# Those temporaries, beside the arrays a read holds, set a check's memory.
# Traced with tracemalloc at 200 points of the Euler chart (n = 6), with
# `charts.BLOCK` = 256 and the kernels as batched `@` products, the
# Haantjes check of K3 peaked 3.41 MB above what its suite held before it
# unsliced, 1.62 MB with slices of 64 points and 1.20 MB with slices of 32.
# On a shared 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6), 3 alternating
# 10-s `bench/run.py --workload geometry-large --seed 42` runs a side gave
# a peak RSS of 42.9-43.3 MB with slices of 32 and 45.9-46.0 MB unsliced,
# at a norm_wall_s of 0.089-0.099 s and 0.095-0.105 s.
SLICE = 32


def _sliced_max(kernel, *arrays):
    """Largest absolute entry at each point of ``kernel(*arrays)``, the
    kernel called on slices of at most ``SLICE`` points of the arrays
    (sample axis first), so its temporaries never span more points.  The
    kernel must act on each point alone; then the result is the same as
    over the whole sample, bit for bit."""
    return np.concatenate([
        _max_abs(kernel(*(a[i:i + SLICE] for a in arrays)))
        for i in range(0, len(arrays[0]), SLICE)])


def _first_order(F, sample, tol, kernel, power):
    """Judge a first-order identity of the field ``F`` over a sample: the
    residual at each point is ``kernel(Fc, Fd)`` reduced by `_sliced_max`,
    judged against ``(1+|F|)^power (1+|dF|)`` there, the magnitude of the
    terms of the kernel's local formula; ``F`` and its partials come from
    one jet pass per block."""
    def at(p):
        Fc, Fd = F.jet(p)
        return (_sliced_max(kernel, Fc, Fd),
                (1.0 + _max_abs(Fc)) ** power * (1.0 + _max_abs(Fd)))

    return sampled(sample, at, tol)


STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_FINDING = "finding"


@dataclass(frozen=True)
class SampledResidual:
    """Outcome of a sampled identity check at its worst point, the one
    with the largest ``residual / scale``.

    ``scale`` grows with the magnitude of the inputs entering the identity
    at that point (1 for checks on bounded data); the identity holds when
    ``residual / scale <= tolerance``.  A NaN residual or scale never
    passes, nor does an infinite residual at an infinite scale.
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
        return self.residual / self.scale <= self.tolerance


def _max_abs(*values):
    """Largest absolute entry at each point of several arrays with the
    sample axis first, or of numbers (constant over the sample); NaN
    propagates."""
    return functools.reduce(np.maximum, (
        np.abs(v).reshape(len(v), -1).max(axis=1) if np.ndim(v) else abs(v)
        for v in values))


def sampled(sample, at, tol):
    """Judge an identity over a sample, every point against its own scale.

    ``at(sample)`` returns the residual at each point followed by the
    magnitudes that set the scale, ``(residual, s1, s2, ...)``, each an
    array with one entry per point (or a number, the same at every point).
    It is called once per block of at most ``charts.BLOCK`` points, so
    once, with the sample itself, for most samples, and each call is one
    pass, in which the reads of every field share their work.  The scale
    at a point is the largest of 1 and every ``sk`` there.  The check
    passes when ``residual / scale <= tol`` at every point, and the result
    holds the residual and the scale of the worst point.  A NaN residual
    or magnitude at any point is the worst point, so the check fails.
    """
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    block = charts.BLOCK
    parts = ([sample] if n <= block else
             (sample[i:i + block] for i in range(0, n, block)))
    blocks = []  # the worst point of each block
    for part in parts:
        r, *magnitudes = charts._once(at, part)
        scale = np.maximum(1.0, functools.reduce(np.maximum, magnitudes))
        j = np.argmax(r / scale / tol)  # the key of `worst`; a NaN first
        blocks.append(SampledResidual(_entry(r, j), tol, _entry(scale, j), n))
    return worst(blocks)


def _entry(v, j) -> float:
    """The ``j``-th point's entry of a per-point array or a number."""
    return float(v[j] if np.ndim(v) else v)


def matches(G, *Fs):
    """Sample function of the identity "every ``F`` equals ``G``": the
    residual is the largest ``|F - G|`` and the scale ``1 + |G|``, each
    field read once."""
    def at(p):
        g = G(p)
        return _max_abs(*(F(p) - g for F in Fs)), 1.0 + _max_abs(g)

    return at


def worst(results, points: int | None = None) -> SampledResidual:
    """The result with the largest ``residual / (tolerance * scale)``, so a
    whole passes only when every part does; a NaN counts as the largest,
    and of equal ones the first is taken.  ``points`` replaces its sample
    size, as when the parts are samples of their own."""
    def margin(r):
        m = r.residual / r.scale / r.tolerance
        return (m != m, m)

    out = max(results, key=margin)
    return out if points is None else dataclasses.replace(out, points=points)


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
        # the fields in declaration order; shallow, as every field is a
        # str, float or int, where `dataclasses.asdict` deep-copies
        return dict(vars(self))


def check_from_residual(check_id: str, description: str, reference: str,
                        result) -> Check:
    """Build a check from a judged result, a :class:`SampledResidual`.

    A check whose id ends in ``_finding`` adjudicates a known ambiguity: it
    always reports and never fails a run.  Its result is a pair, the
    sampled residual and a companion result, and the companion's residual
    fills the one ``{:.3e}`` field of its description.
    """
    if check_id.endswith("_finding"):
        sr, companion = result
        description = description.format(companion.residual)
        status = STATUS_FINDING
    else:
        sr = result
        status = STATUS_PASS if sr.passed else STATUS_FAIL
    return Check(check_id, description, reference, status,
                 float(sr.residual), float(sr.effective_tolerance),
                 sr.points)


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
