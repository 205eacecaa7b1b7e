"""Certified upper bounds on the convolution distance of decomposable sheaves.

Only upper bounds are ever produced, assembled from summand-level rules:

* plain vs plain, same shift: the Hausdorff distance of the supports.  This
  follows from pushforward stability applied to the correspondence
  {(a, b) in A x B : ||a - b|| <= d_H(A, B)}, whose two projections are
  proper with nonempty compact convex fibers (norm balls intersected with a
  convex compact), so both pushforwards of its constant sheaf are the plain
  summands, and the sup displacement over the correspondence is d_H(A, B).
* nested difference vs zero: half the directed Hausdorff distance from outer
  to inner (the outer set lies in that thickening of the inner one, which
  makes local sections over slightly larger balls vanish).
* anything whose global sections disagree: infinite (finite convolution
  distance forces isomorphic global sections).
* difference vs difference: zero if structurally equal, the translation norm
  if one is an exact translate of the other, and otherwise (or across
  shifts) the sum of the two vanishing bounds via the triangle inequality.

Sums are bounded through additivity over any partial bijection of unit
copies: the maximum of the matched pair bounds and the unmatched-to-zero
bounds, minimized over bijections.  This bottleneck b-matching is solved on
summands, multiplicities as capacities.  At a threshold tau, a summand whose
vanishing bound exceeds tau is forced (every copy matched).  Dominance lemma:
a difference pair costing the triangle bound v_a + v_b never helps, since
leaving both unmatched costs max(v_a, v_b); this holds for every input.  So
the only edges join summands of one bucket: plain summands of one shift, or
differences of one shift that are equal or exact translates, paired below
v_a + v_b.  Bucket lemma: the summands of a bucket share one vanishing bound
v_B (infinite for plain ones; translates have equal directed Hausdorff
distances), so at any tau a bucket is forced as a whole or not at all, and
feasibility splits by bucket.  The bound is the maximum over buckets of
min(v_B, c_B), where c_B is the least edge cost below v_B at which the bucket
has a perfect b-matching on edges of at most that cost.  Its edges are priced
as `decide` prices them (grid lemma, below), at side 2 v_B: an edge costing at
least 2 v_B is dominated, so that side holds every edge the bound or the
matching reads, and a plain bucket (v_B infinite) prices every pair.  c_B is a
binary search over the distinct priced costs below v_B, one max-flow by
augmenting paths per step on a prefix of the pairs sorted by cost.  Both
questions share one bucket grouping, one pricing and one flow builder.  The
matching returned is the lexicographically least optimal one in unit indices,
unmatched last; copies being interchangeable, each left summand gives each
right summand in turn as many copies as keep its forced bucket's flow
saturated, or all it can when its bucket is not forced.

`decide(f, g, norm, d)` answers the question `verify` asks of each step: is
some partial matching within the declared bound d?  It never computes the
optimum.  An element x, a vanishing bound or an edge cost, is within d when
x.value - (0 if x.exact else SLACK) <= d.  A bucket is unforced when its
vanishing bound is within d, and needs nothing; a forced bucket needs equal
multiplicity totals on its two sides and one saturated flow on its edges
within d.  The first forced bucket that fails ends the decision.

Vertex filter.  For polytopes Y and X, the directed Hausdorff distance from Y
to X is the largest dist(y, X) over y in Y.  dist(., X) is convex, so that
largest value is reached at a vertex of Y, and dist(y, X) <= ||y - w|| for
every w in X.  So any pairing of Y's vertices with points of X bounds it from
above, for any two polytopes, whoever built them.  `decide` pairs vertex i of
outer with vertex i of inner when their counts agree (a positive homothety
keeps the sorted vertex order, so for flag levels this is the spacing itself)
and each outer vertex with its nearest inner vertex otherwise, and compares
twice d with that bound exactly on the integer forms, squared under L2.  A
difference that passes is unforced: its true vanishing bound is at most d,
and a rounded L2 value exceeds its true value by less than SLACK / 2, so the
slack rule would not force it either.  Only a difference that fails gets a
bucket key, and each bucket of such differences one exact vanishing bound.

Grid lemma.  For compact A and B, and every axis k, the Hausdorff distance of
A and B is at least |min_k A - min_k B|: if min_k A is the smaller, the point
of A where it is reached lies at least that far from every point of B along
axis k, and the L1, L2 and L-infinity norms of a vector are each at least the
absolute value of any of its coordinates.  The translation of one difference
onto another moves each lowest coordinate by that coordinate of the
translation, which its norm bounds the same way.  An edge within d has a
cost whose true value is at most d, or d + SLACK if the cost is rounded, so
the lowest corners of its ends lie within side = d (d + SLACK under L2) on
every axis, and in neighbouring cells of a grid of that side.  Only such
candidate pairs get an exact edge cost, at side d in `decide` and 2 v_B in
the bound.  At side 0 the corners are equal, and a hash of the corner finds
them.  A bucket with fewer than two summands on a side prices every pair: no
more than its larger side holds, and no grid cell to compute.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional

from .geometry import (
    INF,
    Norm,
    RoundedReal,
    SLACK,
    ZERO_REAL,
    _gap,
    directed_hausdorff,
    hausdorff,
    norm_value,
    translate,
    vsub,
)
from .sheafsum import SheafSum, Summand, Support

#: Most unit copies a side of `sum_bound` may hold: its matching lists every
#: copy, so a multiplicity written in the input would otherwise set its size.
MAX_UNITS = 10**5


@dataclass(frozen=True)
class Matching:
    """Partial bijection on unit-multiplicity summand expansions."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


def _vanishing(s: Summand, norm: Norm) -> RoundedReal:
    sup = s.support
    if sup.inner is None:
        return INF  # nonzero global sections vs zero
    return directed_hausdorff(sup.outer, sup.inner, norm) / 2


def _edge(a: Summand, b: Summand, norm: Norm) -> RoundedReal:
    """Cost of pairing two summands of one bucket (see `_bucket`): the
    Hausdorff distance of plain supports, and for differences, which the
    bucket key makes exact translates, the norm of the translation."""
    if not a.support.is_difference:
        return hausdorff(a.support.outer, b.support.outer, norm)
    return norm_value(vsub(b.support.outer.vertices[0], a.support.outer.vertices[0]), norm)


def pair_bound(a: Optional[Summand], b: Optional[Summand], norm: Norm = Norm.L2) -> RoundedReal:
    """Certified bound between two summands, either possibly zero.

    Multiplicities are ignored: the bound applies to matching single copies,
    and equal multiplicities inherit it copy by copy.  This is the reference
    rule: it tests exact translates in Fractions, independently of the
    matcher's bucket key.
    """
    if a is None and b is None:
        return ZERO_REAL
    if a is None:
        return _vanishing(b, norm)
    if b is None:
        return _vanishing(a, norm)
    if a.support.outer.dimension != b.support.outer.dimension:
        raise ValueError("dimension mismatch")
    da, db = a.support.is_difference, b.support.is_difference
    if not da and not db:
        if a.shift != b.shift:
            return INF
        return hausdorff(a.support.outer, b.support.outer, norm)
    if da != db:
        return INF  # global sections k vs 0
    if a.shift == b.shift and a.support == b.support:
        return ZERO_REAL
    triangle = _vanishing(a, norm) + _vanishing(b, norm)  # through zero
    if a.shift == b.shift:
        v = vsub(b.support.outer.vertices[0], a.support.outer.vertices[0])
        if translate(a.support.outer, v) == b.support.outer and translate(a.support.inner, v) == b.support.inner:
            moved = norm_value(v, norm)
            if moved.value < triangle.value:
                return moved
    return triangle


def _bucket(s: Summand) -> tuple:
    """Key shared by possible edge ends: plain summands of one shift, and
    differences of one shift that are equal or exact translates of each other.

    A difference is keyed by its vertices less the first outer vertex, in
    lowest terms: integer numerators over the least common denominator, with
    the outer vertex count that splits them into outer and inner.
    """
    if not s.support.is_difference:
        return (s.shift,)
    (dout, outer), (din, inner) = s.support.outer._ints, s.support.inner._ints
    den = math.lcm(dout, din)
    so, si = den // dout, den // din
    origin = [c * so for c in outer[0]]
    rel = [c * so - o for v in outer for c, o in zip(v, origin)]
    rel += [c * si - o for v in inner for c, o in zip(v, origin)]
    g = math.gcd(den, *rel)
    return (s.shift, len(outer), den // g) + tuple(c // g for c in rel)


def _groups(left: list[Summand], right: list[Summand]) -> list:
    """The buckets (`_bucket`) of the summands of each side, as (left pairs,
    right pairs) of (index, summand)."""
    groups: dict = {}
    for side, summands in enumerate((left, right)):
        for k, s in enumerate(summands):
            groups.setdefault(_bucket(s), ([], []))[side].append((k, s))
    return list(groups.values())


def _cell(s: Summand, side: Fraction) -> tuple:
    """The grid cell of the lowest corner of s's outer polytope, or for side
    0 the corner itself in lowest terms."""
    den, nums = s.support.outer._ints
    corner = [min(c) for c in zip(*nums)]
    if not side:
        g = math.gcd(den, *corner)
        return (den // g,) + tuple(c // g for c in corner)
    a, b = side.numerator, side.denominator
    return tuple(c * b // (den * a) for c in corner)


def _priced(ls: list, rs: list, norm: Norm, side) -> list:
    """(cost, i, j) for the pairs of one bucket whose lowest corners lie in
    neighbouring cells of a grid of `side` (equal corners at side 0), which
    holds every edge of true cost at most `side` (grid lemma), sorted by cost
    value, ties by j and then i.  An infinite side, or a side of the bucket
    with fewer than two summands, prices every pair: at most max(len(ls),
    len(rs)) of them in the latter case."""
    if side == math.inf or len(ls) < 2 or len(rs) < 2:
        pairs = [(a, b) for b in rs for a in ls]
    else:
        cells: dict = {}
        for b in rs:
            cells.setdefault(_cell(b[1], side), []).append(b)
        pairs = []
        for a in ls:
            key = _cell(a[1], side)
            near = product(*((c - 1, c, c + 1) for c in key)) if side else (key,)
            pairs += [(a, b) for cell in near for b in cells.get(cell, ())]
    priced = [(_edge(a, b, norm), i, j) for (i, a), (j, b) in pairs]
    return sorted(priced, key=lambda e: (e[0].value, e[2], e[1]))


SOURCE, SINK = "source", "sink"


class _Flow:
    """Max-flow from a source via the right summands of one bucket, along arcs
    (i, j) from right summand j to left summand i, to its left summands and a
    sink, with multiplicities as capacities.

    `saturated` tells whether the arcs carry a perfect b-matching: supply and
    demand totals agree and every demand can be met.  Copies matched along an
    arc can then be taken out while the flow reroutes to stay saturated: how
    many can is a max-flow value, so it does not depend on the paths taken.
    """

    def __init__(self, ls: list, rs: list, arcs) -> None:
        supply = {("g", j): b.multiplicity for j, b in rs}
        demand = {("f", i): a.multiplicity for i, a in ls}
        self.res: dict = {SOURCE: {}, SINK: {}}
        for u, v, cap in (
            [(SOURCE, u, c) for u, c in supply.items()]
            + [(w, SINK, c) for w, c in demand.items()]
            + [(("g", j), ("f", i), supply["g", j]) for i, j in arcs]
        ):
            self.res.setdefault(u, {})[v] = cap
            self.res.setdefault(v, {})[u] = 0
        need = sum(demand.values())
        self.saturated = sum(supply.values()) == need and self._push(SOURCE, SINK, need) == need

    def take(self, i: int, j: int, limit: int) -> int:
        """Take out up to `limit` copies matched from j to i; return how many."""
        return self._push(("f", i), ("g", j), limit)

    def _push(self, src, dst, limit: int) -> int:
        """Send up to `limit` units from src to dst along shortest residual paths."""
        sent = 0
        while sent < limit:
            prev = {src: src}
            queue = [src]
            for u in queue:
                for v, cap in self.res.get(u, {}).items():
                    if cap > 0 and v not in prev:
                        prev[v] = u
                        queue.append(v)
                if dst in prev:
                    break
            if dst not in prev:
                break
            path, v = [], dst
            while v != src:
                path.append((prev[v], v))
                v = prev[v]
            amount = min([limit - sent] + [self.res[u][v] for u, v in path])
            for u, v in path:
                self.res[u][v] -= amount
                self.res[v][u] += amount
            sent += amount
        return sent


def _bounded(f: SheafSum, g: SheafSum, norm: Norm) -> tuple[RoundedReal, list]:
    """The bound of `sum_bound`, and each bucket as (left pairs, right pairs,
    v_B, its pairs priced at side 2 v_B).

    That side holds every edge the bound or the matching reads: an edge of
    cost at least 2 v_B is dominated.  c_B is found by a binary search over
    the distinct costs below v_B; the arcs at or below a cost are a prefix of
    the priced pairs.
    """
    if f.dimension != g.dimension:
        raise ValueError(f"right sheaf dimension {g.dimension} != left sheaf dimension {f.dimension}")
    bound, buckets = ZERO_REAL, []
    for ls, rs in _groups(f.summands, g.summands):
        vb = _vanishing((ls or rs)[0][1], norm)
        priced = _priced(ls, rs, norm, 2 * vb.value)
        values = [c.value for c, _, _ in priced]
        below = sorted({x for x in values if x < vb.value})
        k = bisect_left(
            below, True, key=lambda tau: _Flow(ls, rs, [e[1:] for e in priced[: bisect_right(values, tau)]]).saturated
        )
        best = priced[bisect_left(values, below[k])][0] if k < len(below) else vb
        if best.value > bound.value:
            bound = best
        buckets.append((ls, rs, vb.value, priced))
    return bound, buckets


def _lex_matching(f: SheafSum, g: SheafSum, tau, buckets: list) -> Matching:
    """The lexicographically least matching within the bound tau of `_bounded`."""
    rem = [a.multiplicity for a in f.summands]
    cap = [b.multiplicity for b in g.summands]
    ends_f, ends_g = list(accumulate(rem)), list(accumulate(cap))
    pairs: list[tuple[int, int]] = []
    if tau < math.inf:  # an infinite bound matches no pair
        fv, gv, edges = [None] * len(rem), [None] * len(cap), {}
        flows = {}  # left summand -> the flow of its bucket, if the bucket is forced
        for ls, rs, v, priced in buckets:
            for i, _ in ls:
                fv[i] = v
            for j, _ in rs:
                gv[j] = v
            edges.update(((i, j), c.value) for c, i, j in priced)
            if v > tau:
                flow = _Flow(ls, rs, [(i, j) for c, i, j in priced if c.value <= tau])
                flows.update((i, flow) for i, _ in ls)
        for i in range(len(rem)):
            for j in range(len(cap)):
                # the pair costs at most tau, dominated pairs included; a + b
                # <= tau without adding math.inf to a Fraction beyond float range
                a, b = fv[i], gv[j]
                if not (rem[i] and cap[j] and (edges.get((i, j), math.inf) <= tau or (b <= tau and a <= tau - b))):
                    continue
                k = min(rem[i], cap[j])
                if i in flows:
                    k = flows[i].take(i, j, k)
                first = ends_f[i] - rem[i]
                pairs.extend(zip(range(first, first + k), range(ends_g[j] - cap[j], ends_g[j])))
                rem[i] -= k
                cap[j] -= k

    def tails(ends: list[int], left_over: list[int]) -> tuple[int, ...]:
        return tuple(u for end, n in zip(ends, left_over) for u in range(end - n, end))

    return Matching(tuple(pairs), tails(ends_f, rem), tails(ends_g, cap))


def bottleneck_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> RoundedReal:
    """The minimized bottleneck bound of `sum_bound`, without the matching."""
    return _bounded(f, g, norm)[0]


def sum_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> tuple[RoundedReal, Matching]:
    """Minimized bottleneck bound over partial bijections, with the matching."""
    if max(sum(s.multiplicity for s in h.summands) for h in (f, g)) > MAX_UNITS:
        raise ValueError(f"a matching may list at most {MAX_UNITS} unit copies a side")
    bound, buckets = _bounded(f, g, norm)
    return bound, _lex_matching(f, g, bound.value, buckets)


def _within(x: RoundedReal, d: Fraction) -> bool:
    """The slack rule of `decide`: x less its own rounding slack is at most d."""
    return x.value - (0 if x.exact else SLACK) <= d


def _paired_within(sup: Support, norm: Norm, d: Fraction) -> bool:
    """Whether a pairing of outer with inner vertices shows the directed
    Hausdorff distance from outer to inner at most 2d (the vertex filter).

    With outer O / Do and inner I / Di, each gap o - w is (o Di - w Do) /
    (Do Di), so its norm is compared with 2d = 2p / q as the norm of the
    integer vector o Di - w Do times q against 2 p Do Di.
    """
    (do, outer), (di, inner) = sup.outer._ints, sup.inner._ints
    limit, q = 2 * d.numerator * do * di, d.denominator
    if len(outer) == len(inner):
        worst = _gap(norm, zip(outer, inner), do, di)
    else:  # each outer vertex with its nearest inner vertex
        worst = max(min(_gap(norm, ((o, w),), do, di) for w in inner) for o in outer)
    return worst * q * q <= limit * limit if norm is Norm.L2 else worst * q <= limit


def _matched(ls: list, rs: list, norm: Norm, d: Fraction) -> bool:
    """Whether every copy of a forced bucket matches along its edges within d:
    one flow over the pairs priced at side d (d + SLACK under L2)."""
    if sum(s.multiplicity for _, s in ls) != sum(s.multiplicity for _, s in rs):
        return False
    priced = _priced(ls, rs, norm, d + SLACK if norm is Norm.L2 else d)
    return _Flow(ls, rs, [(i, j) for cost, i, j in priced if _within(cost, d)]).saturated


def _forced(s: Summand, norm: Norm, d: Fraction) -> bool:
    """Whether the vertex filter leaves s forced at d >= 0: plain summands
    always, and the differences it cannot show within d."""
    return not (s.support.is_difference and _paired_within(s.support, norm, d))


def _decide_forced(left: list[Summand], right: list[Summand], norm: Norm, d: Fraction) -> bool:
    """The decision of `decide` from the summands of each side that `_forced`
    keeps at d, merged or not: equal summands left apart are flow nodes whose
    capacities the merge would add, so the verdict is the same."""
    if d < 0:
        return False
    return all(
        _within(_vanishing((ls or rs)[0][1], norm), d) or _matched(ls, rs, norm, d)
        for ls, rs in _groups(left, right)
    )


def decide(f: SheafSum, g: SheafSum, norm: Norm, d) -> bool:
    """Whether some partial matching keeps every element within d, the
    per-element slack rule: the decision of `verify` at a declared bound.

    Differences that the vertex filter shows unforced get no bucket key; each
    remaining bucket of differences computes its one vanishing bound, and is
    unforced if that is within d.  Every forced bucket must then be matched
    (`_matched`); the first that cannot be ends the decision.  No bound is
    negative, so no d below 0 holds one.  `verify` reaches the same routine,
    `_decide_forced`, from its own one pass over each side.
    """
    if f.dimension != g.dimension:
        raise ValueError(f"right sheaf dimension {g.dimension} != left sheaf dimension {f.dimension}")
    d = Fraction(d)
    left, right = ([s for s in h.summands if d >= 0 and _forced(s, norm, d)] for h in (f, g))
    return _decide_forced(left, right, norm, d)
