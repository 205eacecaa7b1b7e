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
has a perfect b-matching on edges of at most that cost: one max-flow by
augmenting paths per bucket and binary-search step.  The matching returned is
the lexicographically least optimal one in unit indices, unmatched last;
copies being interchangeable, each left summand gives each right summand in
turn as many copies as keep its forced bucket's flow saturated, or all it can
when its bucket is not forced.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .geometry import (
    INF,
    Norm,
    RoundedReal,
    ZERO_REAL,
    directed_hausdorff,
    hausdorff,
    norm_value,
    translate,
    vsub,
)
from .sheafsum import SheafSum, Summand

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


SOURCE, SINK = "source", "sink"


class _Flow:
    """Max-flow from a source via supply nodes and arcs to demand nodes and a sink.

    `saturated` tells whether the arcs carry a perfect b-matching: supply and
    demand totals agree and every demand can be met.  Copies matched along an
    arc can then be taken out while the flow reroutes to stay saturated.
    """

    def __init__(self, supply: dict, demand: dict, arcs: list) -> None:
        self.res: dict = {SOURCE: {}, SINK: {}}
        for u, v, cap in (
            [(SOURCE, u, c) for u, c in supply.items()]
            + [(w, SINK, c) for w, c in demand.items()]
            + [(u, w, supply[u]) for u, w in arcs]
        ):
            self.res.setdefault(u, {})[v] = cap
            self.res.setdefault(v, {})[u] = 0
        need = sum(demand.values())
        self.saturated = sum(supply.values()) == need and self._push(SOURCE, SINK, need) == need

    def take(self, u, w, limit: int) -> int:
        """Take out up to `limit` copies matched from u to w; return how many."""
        return self._push(w, u, limit)

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


class _Matcher:
    """Summand-level data of one bottleneck b-matching problem."""

    def __init__(self, f: SheafSum, g: SheafSum, norm: Norm) -> None:
        if f.dimension != g.dimension:
            raise ValueError(f"right sheaf dimension {g.dimension} != left sheaf dimension {f.dimension}")
        self.left, self.right = f.summands, g.summands
        groups: dict = {}
        for side, summands in enumerate((self.left, self.right)):
            for k, s in enumerate(summands):
                groups.setdefault(_bucket(s), ([], []))[side].append(k)
        self.buckets: list = []  # (left summands, right summands, vanishing bound)
        self.fv: list = [None] * len(self.left)
        self.gv: list = [None] * len(self.right)
        self.edges: dict[tuple[int, int], RoundedReal] = {}
        self.bound = ZERO_REAL
        for ls, rs in groups.values():
            vb = _vanishing(self.left[ls[0]] if ls else self.right[rs[0]], norm)
            v = vb.value
            for i in ls:
                self.fv[i] = v
            for j in rs:
                self.gv[j] = v
            self.buckets.append((ls, rs, v))
            below: dict = {}  # edge costs under v, the only thresholds that beat v
            for j in rs:
                for i in ls:
                    cost = _edge(self.left[i], self.right[j], norm)
                    if cost.value < 2 * v:
                        self.edges[i, j] = cost
                        if cost.value < v:
                            below.setdefault(cost.value, cost)
            costs = sorted(below.items())
            k = bisect_left(costs, True, key=lambda c: self._flow(ls, rs, c[0]).saturated)
            bucket = costs[k][1] if k < len(costs) else vb
            if bucket.value > self.bound.value:
                self.bound = bucket

    def _flow(self, ls: list[int], rs: list[int], tau: Fraction) -> _Flow:
        """Right summands of one bucket supplying its left ones along edges of cost at most tau."""
        return _Flow(
            {("g", j): self.right[j].multiplicity for j in rs},
            {("f", i): self.left[i].multiplicity for i in ls},
            [(("g", j), ("f", i)) for j in rs for i in ls if (i, j) in self.edges and self.edges[i, j].value <= tau],
        )

    def lex_matching(self) -> Matching:
        tau = self.bound.value
        rem = [a.multiplicity for a in self.left]
        cap = [b.multiplicity for b in self.right]
        ends_f, ends_g = list(accumulate(rem)), list(accumulate(cap))
        pairs: list[tuple[int, int]] = []
        if tau < math.inf:  # an infinite bound matches no pair
            flows = {}  # left summand -> the flow of its bucket, if the bucket is forced
            for ls, rs, v in self.buckets:
                if v > tau:
                    flow = self._flow(ls, rs, tau)
                    flows.update((i, flow) for i in ls)
            for i in range(len(rem)):
                for j in range(len(cap)):
                    if not (rem[i] and cap[j] and self._ok(i, j, tau)):
                        continue
                    k = min(rem[i], cap[j])
                    if i in flows:
                        k = flows[i].take(("g", j), ("f", i), k)
                    first = ends_f[i] - rem[i]
                    pairs.extend(zip(range(first, first + k), range(ends_g[j] - cap[j], ends_g[j])))
                    rem[i] -= k
                    cap[j] -= k

        def tails(ends: list[int], left_over: list[int]) -> tuple[int, ...]:
            return tuple(u for end, n in zip(ends, left_over) for u in range(end - n, end))

        return Matching(tuple(pairs), tails(ends_f, rem), tails(ends_g, cap))

    def _ok(self, i: int, j: int, tau: Fraction) -> bool:
        """Whether the pair costs at most tau, dominated pairs included."""
        a, b = self.fv[i], self.gv[j]
        # a + b <= tau, without adding math.inf to a Fraction beyond float range
        return self.edges.get((i, j), INF).value <= tau or (b <= tau and a <= tau - b)


def bottleneck_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> RoundedReal:
    """The minimized bottleneck bound of `sum_bound`, without the matching."""
    return _Matcher(f, g, norm).bound


def sum_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> tuple[RoundedReal, Matching]:
    """Minimized bottleneck bound over partial bijections, with the matching."""
    if max(sum(s.multiplicity for s in h.summands) for h in (f, g)) > MAX_UNITS:
        raise ValueError(f"a matching may list at most {MAX_UNITS} unit copies a side")
    matcher = _Matcher(f, g, norm)
    return matcher.bound, matcher.lex_matching()
