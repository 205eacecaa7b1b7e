"""Mass-concentration certificates and the metric probe.

A certificate is a chain of decomposable-sheaf pairs.  Each step carries two
sheaves with declared local Euler characteristics and a declared bound on
their convolution distance; the endpoints of consecutive steps agree.  Any
pseudo-metric on constructible functions that is controlled by the
convolution distance must therefore assign the two chain endpoints a
distance that vanishes with the per-step bounds, which the probe makes
observable as a table: certified bounds shrinking to zero against a fixed
endpoint metric value.

Construction: every term's support is collapsed onto a basepoint along a
homothety flag whose graded sheaf keeps the same local Euler characteristic
while sitting within half the flag spacing of the basepoint sheaf.  Chaining
through segments to a common target point concentrates any function with
integral m onto m times a point mass, and two functions with equal integral
are linked through that common point mass.

Verification is independent of construction: it rederives every local Euler
characteristic, decides each declared distance bound from the embedded
rational geometry, and rechecks chaining, endpoints and integral
preservation.  It does not recompute the optimal bound: it asks whether some
matching of the step's summands stays within the declared one
(`distance.decide`), and every cost it reads is recomputed from the parsed
geometry or is a proven upper or lower bound of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .constructible import (
    ConstructibleFunction,
    Verdict,
    equals,
    euler_integral,
    from_terms,
    nonzero_cells,
    normalize,
    zero_function,
)
from .distance import _decide_forced, _forced
from .flags import build_flag
from .geometry import (
    Norm,
    Polytope,
    RoundedReal,
    ZERO_REAL,
    as_point,
    from_vertices,
    reach,
    vertex_centroid,
)
from .sheafsum import SheafSum, Summand, Support, _scan, sheaf_sum


@dataclass(frozen=True)
class CertificateStep:
    left: SheafSum
    right: SheafSum
    declared_bound: RoundedReal
    chi_left: ConstructibleFunction
    chi_right: ConstructibleFunction

    def reversed(self) -> "CertificateStep":
        return CertificateStep(self.right, self.left, self.declared_bound, self.chi_right, self.chi_left)


@dataclass(frozen=True)
class Certificate:
    source: ConstructibleFunction
    target: ConstructibleFunction
    epsilon: Fraction
    steps: tuple[CertificateStep, ...]
    # the norm it was built under, None for a file that records none; it says
    # how to check the certificate, so equality ignores it
    norm: Optional[Norm] = field(default=None, compare=False)

    def __post_init__(self):
        parts = [("target", self.target)]  # named as in the certificate's JSON
        for k, s in enumerate(self.steps):
            names = (f"step {k} {n}" for n in ("F", "G", "chi_F", "chi_G"))
            parts += zip(names, (s.left, s.right, s.chi_left, s.chi_right))
        for name, part in parts:
            if part.dimension != self.dimension:
                raise ValueError(f"{name}: dimension {part.dimension} != source dimension {self.dimension}")

    @property
    def dimension(self) -> int:
        return self.source.dimension


class MetricKind(Enum):
    L1 = "l1"
    SUP = "sup"
    INTEGRAL_GAP = "gap"


def concentrate_basepoints(
    f: ConstructibleFunction,
    basepoints: Sequence,
    epsilon,
    norm: Norm = Norm.L2,
) -> CertificateStep:
    """One step collapsing each term's support onto its basepoint.

    Flags use n = max(1, ceil(reach / (2 eps))) steps per term, so each graded
    block sits within eps of its basepoint sheaf; negative coefficients ride
    in homological degree 1 so the local Euler characteristics come out with
    the right sign.  The declared bound is eps itself (0 if every block is
    degenerate); the recomputed bound certifies it.  A basepoint outside its
    term's support raises ValueError, from `build_flag`, which also refuses a
    flag of over `MAX_FLAG_STEPS` steps.  The left sheaf holds only its flag
    blocks (flag, shift, multiplicity), which the writers write; no level is
    built until its summands are first read.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    fn = normalize(f)
    pts = [as_point(p) for p in basepoints]
    if len(pts) != len(fn.terms):
        raise ValueError("one basepoint per normalized term required")
    blocks = []
    right_parts: list[Summand] = []
    degenerate = True
    for term, pt in zip(fn.terms, pts):
        r = reach(term.support, pt, norm)
        flag = build_flag(term.support, pt, max(1, math.ceil(r.value / (2 * eps))))
        if r.value > 0:  # so is the flag's spacing, r / its steps
            degenerate = False
        shift = 0 if term.coeff > 0 else 1
        mult = abs(term.coeff)
        blocks.append((flag, shift, mult))
        right_parts.append(Summand(Support(Polytope((pt,))), shift, mult))
    left = SheafSum(fn.dimension, None, tuple(blocks))
    right = sheaf_sum(fn.dimension, right_parts)
    chi_right = from_terms(
        fn.dimension, [(t.coeff, Polytope((pt,))) for t, pt in zip(fn.terms, pts)]
    )
    declared = ZERO_REAL if degenerate else RoundedReal(eps)
    return CertificateStep(left, right, declared, fn, chi_right)


def concentrate_to_point(
    f: ConstructibleFunction, x, epsilon, norm: Norm = Norm.L2
) -> Certificate:
    """Three-step chain from f to (integral of f) times the point mass at x.

    Step one collapses every term onto its vertex centroid; step two grows
    those point masses back out along the segments joining them to x; step
    three collapses the segments onto x.  The step count never depends on
    epsilon, only the flags get finer.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    target_pt = as_point(x)
    fn = normalize(f)
    if len(target_pt) != fn.dimension:
        raise ValueError(f"target dimension {len(target_pt)} != function dimension {fn.dimension}")
    centroids = [vertex_centroid(t.support) for t in fn.terms]
    step1 = concentrate_basepoints(fn, centroids, eps, norm)

    # segment terms merge only when their centroids coincide, so the
    # basepoint of a merged segment term is well defined
    seg_pairs = [(t.coeff, from_vertices([c, target_pt])) for t, c in zip(fn.terms, centroids)]
    base_of = {seg: c for (_, seg), c in zip(seg_pairs, centroids)}
    psi = from_terms(fn.dimension, seg_pairs)
    step2 = concentrate_basepoints(psi, [base_of[t.support] for t in psi.terms], eps, norm)
    step3 = concentrate_basepoints(psi, [target_pt for _ in psi.terms], eps, norm)

    total = euler_integral(fn)
    target_fn = (
        from_terms(fn.dimension, [(total, Polytope((target_pt,)))])
        if total
        else zero_function(fn.dimension)
    )
    return Certificate(fn, target_fn, eps, (step1, step2.reversed(), step3), norm)


def link(
    f: ConstructibleFunction, g: ConstructibleFunction, epsilon, norm: Norm = Norm.L2
) -> Certificate:
    """Chain two functions of equal Euler integral through a point mass at 0."""
    if f.dimension != g.dimension:
        raise ValueError(f"second function dimension {g.dimension} != first function dimension {f.dimension}")
    mf, mg = euler_integral(f), euler_integral(g)
    if mf != mg:
        raise ValueError(f"integral mismatch: {mf} != {mg}")
    origin = tuple(Fraction(0) for _ in range(f.dimension))
    down = concentrate_to_point(f, origin, epsilon, norm)
    up = concentrate_to_point(g, origin, epsilon, norm)
    steps = down.steps + tuple(s.reversed() for s in reversed(up.steps))
    return Certificate(down.source, up.source, Fraction(epsilon), steps, norm)


@dataclass(frozen=True)
class Report:
    passed: bool
    failures: tuple[str, ...]


def _streamed(s: SheafSum, norm: Norm, d: Fraction) -> tuple[ConstructibleFunction, list[Summand]]:
    """One pass over the summands of s: its local Euler characteristic, and
    the summands that the vertex filter of `decide` leaves forced at d, which
    alone are kept."""
    return _scan(s, lambda sm: d >= 0 and _forced(sm, norm, d))


def verify(cert: Certificate) -> Report:
    """Re-derive everything a certificate claims; report itemized failures.

    Distances are measured under the norm the certificate records.  One that
    records none (version 1) raises ValueError: its caller sets one with
    `dataclasses.replace`, as the CLI sets its configured norm.  Each step's
    declared bound d is decided, not recomputed: the step passes when some
    partial matching of its summands keeps every element within d
    (`distance.decide`).  An element x, a vanishing bound or an edge cost, is
    within d when x.value - (0 if x.exact else SLACK) <= d: exact values
    compare exactly, and a rounded L2 value may exceed d by up to SLACK.
    """
    if cert.norm is None:
        raise ValueError("the certificate records no norm to verify it under")
    failures: list[str] = []

    def check_equal(a: ConstructibleFunction, b: ConstructibleFunction, what: str) -> None:
        if equals(a, b).verdict is Verdict.NOT_EQUAL:
            failures.append(what)

    if not cert.steps:
        return Report(False, ("certificate has no steps",))
    for k, step in enumerate(cert.steps):
        d = step.declared_bound.value
        (chi_f, left), (chi_g, right) = (_streamed(h, cert.norm, d) for h in (step.left, step.right))
        check_equal(chi_f, step.chi_left, f"left local euler mismatch at step {k}")
        check_equal(chi_g, step.chi_right, f"right local euler mismatch at step {k}")
        if not _decide_forced(left, right, cert.norm, d):
            failures.append(f"bound understated at step {k}")
        if step.declared_bound.value > cert.epsilon:
            failures.append(f"declared bound exceeds epsilon at step {k}")
        if euler_integral(step.chi_left) != euler_integral(step.chi_right):
            failures.append(f"integral not preserved at step {k}")
    for k in range(len(cert.steps) - 1):
        check_equal(
            cert.steps[k].chi_right, cert.steps[k + 1].chi_left, f"chain broken at step {k + 1}"
        )
    check_equal(cert.source, cert.steps[0].chi_left, "source mismatch")
    check_equal(cert.target, cert.steps[-1].chi_right, "target mismatch")
    return Report(not failures, tuple(failures))


def metric_eval(
    kind: MetricKind, f: ConstructibleFunction, g: ConstructibleFunction
) -> RoundedReal:
    """Candidate metrics on constructible functions, evaluated exactly."""
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    if kind is MetricKind.INTEGRAL_GAP:
        return RoundedReal(Fraction(abs(euler_integral(f) - euler_integral(g))))
    if kind is MetricKind.L1 and f.dimension > 2:
        raise ValueError("the L1 metric requires dimension <= 2")
    # f - g is constant on each piece of its own supports and shows every
    # value on one; pieces where it vanishes add nothing to either metric
    cells = list(nonzero_cells(f - g))
    if kind is MetricKind.SUP:
        return RoundedReal(Fraction(max((abs(v) for _, v in cells), default=0)))
    return RoundedReal(
        sum((abs(v) * cell.volume for cell, v in cells if cell.volume is not None), Fraction(0))
    )


@dataclass(frozen=True)
class ProbeRow:
    epsilon: Fraction
    dc_bound: RoundedReal
    delta: RoundedReal


def probe_metric(
    kind: MetricKind,
    f: ConstructibleFunction,
    x,
    schedule: Sequence,
    norm: Norm = Norm.L2,
) -> list[ProbeRow]:
    """Certified bound vs candidate-metric table over a shrinking schedule.

    The endpoints do not depend on epsilon, so the metric column is constant;
    a candidate metric bounded away from zero against vanishing certified
    bounds is thereby witnessed as not controlled by the convolution
    distance.
    """
    eps_list = [Fraction(e) for e in schedule]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("schedule must list positive epsilon values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("schedule must be strictly decreasing")
    rows = []
    delta: Optional[RoundedReal] = None
    for eps in eps_list:
        cert = concentrate_to_point(f, x, eps, norm)
        if delta is None:
            delta = metric_eval(kind, cert.source, cert.target)
        worst = max((step.declared_bound for step in cert.steps), key=lambda b: b.value)
        rows.append(ProbeRow(eps, worst, delta))
    return rows
