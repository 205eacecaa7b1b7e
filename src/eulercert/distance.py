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
the only edges are plain pairs of equal shift and equal or exactly translated
differences of equal shift cheaper than v_a + v_b.  By Mendelsohn-Dulmage
both forced sides saturate at once iff each does alone: two max-flows by
augmenting paths.  The bound is the least feasible candidate among 0, the
vanishing bounds and the edge costs.  The matching returned is the
lexicographically least optimal one in unit indices, unmatched last; copies
being interchangeable, each left summand gives each right summand in turn as
many copies as keep both flows saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .geometry import (
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


@dataclass(frozen=True)
class Bound:
    """A certified upper bound; value None means +infinity."""

    value: Optional[RoundedReal]

    @property
    def finite(self) -> bool:
        return self.value is not None

    def leq(self, other) -> bool:
        if isinstance(other, Bound):
            if other.value is None:
                return True
            limit = other.value.value
        else:
            limit = RoundedReal._val(other)
        return self.value is not None and self.value.value <= limit

    def decimal_up(self, places: int = 12) -> str:
        return "inf" if self.value is None else self.value.decimal_up(places)

    def __float__(self) -> float:
        return float("inf") if self.value is None else float(self.value)


INFINITE = Bound(None)
ZERO_BOUND = Bound(ZERO_REAL)


@dataclass(frozen=True)
class Matching:
    """Partial bijection on unit-multiplicity summand expansions."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


def _vanishing(s: Summand, norm: Norm) -> Bound:
    sup = s.support
    if sup.inner is None:
        return INFINITE  # nonzero global sections vs zero
    return Bound(directed_hausdorff(sup.outer, sup.inner, norm).half())


def _pair_rule(a: Summand, b: Summand, va: Bound, vb: Bound, norm: Norm) -> Bound:
    """Bound between two nonzero summands whose vanishing bounds are va, vb."""
    if a.support.outer.dimension != b.support.outer.dimension:
        raise ValueError("dimension mismatch")
    da, db = a.support.is_difference, b.support.is_difference
    if not da and not db:
        if a.shift != b.shift:
            return INFINITE
        return Bound(hausdorff(a.support.outer, b.support.outer, norm))
    if da != db:
        return INFINITE  # global sections k vs 0
    if a.shift == b.shift and a.support == b.support:
        return ZERO_BOUND
    triangle = Bound(va.value + vb.value)  # through zero; both are finite
    if a.shift == b.shift:
        v = vsub(b.support.outer.vertices[0], a.support.outer.vertices[0])
        if translate(a.support.outer, v) == b.support.outer and translate(a.support.inner, v) == b.support.inner:
            moved = norm_value(v, norm)
            if moved.value < triangle.value.value:
                return Bound(moved)
    return triangle


def pair_bound(a: Optional[Summand], b: Optional[Summand], norm: Norm = Norm.L2) -> Bound:
    """Certified bound between two summands, either possibly zero.

    Multiplicities are ignored: the bound applies to matching single copies,
    and equal multiplicities inherit it copy by copy.
    """
    if a is None and b is None:
        return ZERO_BOUND
    if a is None:
        return _vanishing(b, norm)
    if b is None:
        return _vanishing(a, norm)
    return _pair_rule(a, b, _vanishing(a, norm), _vanishing(b, norm), norm)


def _bucket(s: Summand) -> tuple:
    """Key shared by possible edge ends: plain summands of one shift, and
    differences of one shift that are equal or exact translates of each other."""
    if not s.support.is_difference:
        return (s.shift,)
    origin = s.support.outer.vertices[0]
    polys = (s.support.outer, s.support.inner)
    return (s.shift,) + tuple(tuple(vsub(p, origin) for p in q.vertices) for q in polys)


SOURCE, SINK = "source", "sink"


class _Flow:
    """Max-flow from a source via supply nodes and arcs to demand nodes and a sink.

    `saturated` tells whether every demand can be met.  Copies matched along
    an arc can then be taken out while the flow reroutes to stay saturated.
    """

    def __init__(self, supply: dict, demand: dict, arcs: list) -> None:
        self.demand = demand
        self.res: dict = {SOURCE: {}, SINK: {}}
        for u, v, cap in (
            [(SOURCE, u, c) for u, c in supply.items()]
            + [(w, SINK, c) for w, c in demand.items()]
            + [(u, w, supply[u]) for u, w in arcs]
        ):
            self.res.setdefault(u, {})[v] = cap
            self.res.setdefault(v, {})[u] = 0
        need = sum(demand.values())
        self.saturated = self._push(SOURCE, SINK, need) == need

    def take(self, u, w, limit: int) -> int:
        """Take out up to `limit` copies matched from u to w; return how many."""
        return self._push(w if w in self.demand else SOURCE, u, limit)

    def give_back(self, u, w, k: int) -> None:
        self._push(u, w if w in self.demand else SOURCE, k)

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
            raise ValueError("dimension mismatch")
        self.left, self.right = f.summands, g.summands
        vanishing: dict = {}
        for s in self.left + self.right:
            if s.support not in vanishing:
                vanishing[s.support] = _vanishing(s, norm)
        vf = [vanishing[a.support] for a in self.left]
        vg = [vanishing[b.support] for b in self.right]
        self.fv = [None if b.value is None else b.value.value for b in vf]
        self.gv = [None if b.value is None else b.value.value for b in vg]
        buckets: dict = {}
        for i, a in enumerate(self.left):
            buckets.setdefault(_bucket(a), []).append(i)
        self.edges: dict[tuple[int, int], RoundedReal] = {}
        for j, b in enumerate(self.right):
            for i in buckets.get(_bucket(b), ()):
                cost = _pair_rule(self.left[i], b, vf[i], vg[j], norm).value
                if cost is not None and (self.fv[i] is None or cost.value < self.fv[i] + self.gv[j]):
                    self.edges[i, j] = cost
        reals = {Fraction(0): ZERO_REAL}
        for r in [b.value for b in vf + vg if b.value is not None] + list(self.edges.values()):
            reals.setdefault(r.value, r)
        self.tau, self.flows = self._solve(sorted(reals))
        self.bound = INFINITE if self.tau is None else Bound(reals[self.tau])

    def _flows(self, tau: Fraction) -> tuple[_Flow, _Flow]:
        """Forced left summands filled from right capacities, and the mirror."""
        ok = [e for e, cost in self.edges.items() if cost.value <= tau]
        left = {("f", i): a.multiplicity for i, a in enumerate(self.left)}
        right = {("g", j): b.multiplicity for j, b in enumerate(self.right)}
        forced_f = {("f", i): left["f", i] for i, v in enumerate(self.fv) if v is None or v > tau}
        forced_g = {("g", j): right["g", j] for j, v in enumerate(self.gv) if v is None or v > tau}
        return (
            _Flow(right, forced_f, [(("g", j), ("f", i)) for i, j in ok if ("f", i) in forced_f]),
            _Flow(left, forced_g, [(("f", i), ("g", j)) for i, j in ok if ("g", j) in forced_g]),
        )

    def _solve(self, candidates: list[Fraction]) -> tuple[Optional[Fraction], Optional[tuple]]:
        """The least feasible threshold with its saturated flows, or Nones."""
        lo, hi, best = 0, len(candidates) - 1, (None, None)
        while lo <= hi:
            mid = (lo + hi) // 2
            flows = self._flows(candidates[mid])
            if flows[0].saturated and flows[1].saturated:
                best, hi = (candidates[mid], flows), mid - 1
            else:
                lo = mid + 1
        return best

    def lex_matching(self) -> Matching:
        flows, tau = self.flows, self.tau  # both None when the bound is infinite
        rem = [a.multiplicity for a in self.left]
        cap = [b.multiplicity for b in self.right]
        ends_f, ends_g = list(accumulate(rem)), list(accumulate(cap))
        pairs: list[tuple[int, int]] = []
        for i in range(len(rem)) if tau is not None else ():
            for j in range(len(cap)):
                if not (rem[i] and cap[j] and self._ok(i, j, tau)):
                    continue
                # copies given to j leave both problems; what one flow takes
                # and the other cannot, it gives back (never today: every edge
                # joins summands of equal vanishing bound, so the flows agree)
                k = flows[0].take(("g", j), ("f", i), min(rem[i], cap[j]))
                kept = flows[1].take(("f", i), ("g", j), k)
                flows[0].give_back(("g", j), ("f", i), k - kept)
                first = ends_f[i] - rem[i]
                pairs.extend(zip(range(first, first + kept), range(ends_g[j] - cap[j], ends_g[j])))
                rem[i] -= kept
                cap[j] -= kept

        def tails(ends: list[int], left_over: list[int]) -> tuple[int, ...]:
            return tuple(u for end, n in zip(ends, left_over) for u in range(end - n, end))

        return Matching(tuple(pairs), tails(ends_f, rem), tails(ends_g, cap))

    def _ok(self, i: int, j: int, tau: Fraction) -> bool:
        """Whether the pair costs at most tau, dominated pairs included."""
        cost, a, b = self.edges.get((i, j)), self.fv[i], self.gv[j]
        return (cost is not None and cost.value <= tau) or (a is not None and b is not None and a + b <= tau)


def bottleneck_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> Bound:
    """The minimized bottleneck bound of `sum_bound`, without the matching."""
    return _Matcher(f, g, norm).bound


def sum_bound(f: SheafSum, g: SheafSum, norm: Norm = Norm.L2) -> tuple[Bound, Matching]:
    """Minimized bottleneck bound over partial bijections, with the matching."""
    matcher = _Matcher(f, g, norm)
    return matcher.bound, matcher.lex_matching()
