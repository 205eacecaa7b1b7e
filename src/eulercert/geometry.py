"""Exact rational convex-polytope primitives in dimensions 1 to 3.

Coordinates are fractions.Fraction throughout.  Combinatorial predicates
(membership, equality, hulls) are exact.  Metric quantities are carried as
RoundedReal values: exact rationals for polyhedral norms, certified rational
upper bounds (integer-sqrt based, within SLACK) for euclidean norms.
Distance results are therefore always valid upper bounds of the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations, groupby, product
from operator import mul, sub
from typing import Iterable, Optional, Sequence

from . import _simplex

Point = tuple[Fraction, ...]

#: Width of the interval below an inexact RoundedReal that holds its true value.
SLACK = Fraction(2, 10**12)

_SQRT_SCALE = 10**12


class Norm(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


# ---------------------------------------------------------------------------
# points (the vector helpers serve Fraction points and integer numerators alike)


def as_point(coords: Iterable) -> Point:
    # Fractions are immutable, so coordinates that already are one are kept
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def vadd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Point, b: Point) -> Point:
    return tuple(map(sub, a, b))


def vscale(t: Fraction, a: Point) -> Point:
    return tuple(t * x for x in a)


def dot(a: Point, b: Point) -> Fraction:
    return sum(map(mul, a, b))


def _cross2(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _cross3(a: Point, b: Point) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# ---------------------------------------------------------------------------
# certified scalars


@dataclass(frozen=True)
class RoundedReal:
    """A nonnegative real carried as a rational upper bound of itself, or +infinity.

    ``exact`` is True when ``value`` equals the quantity exactly.  When False
    the true quantity lies in [value - SLACK, value], so the stored value
    still certifies every upper bound we report.

    ``value`` is a Fraction, except in :data:`INF`, whose value is
    ``math.inf``: the bound of sheaves whose global sections differ.
    ``math.inf`` compares exactly with every Fraction and is written only as
    ``inf``.  No parsed input becomes it, since the parser rejects ``inf``,
    ``nan`` and JSON ``Infinity`` as not rational.
    """

    value: Fraction
    exact: bool = True

    def __float__(self) -> float:
        return float(self.value)

    def __add__(self, other: "RoundedReal") -> "RoundedReal":
        # Python adds a Fraction to math.inf in floats, which overflow past 1e308
        if math.inf in (self.value, other.value):
            return INF
        return RoundedReal(self.value + other.value, self.exact and other.exact)

    def __truediv__(self, k) -> "RoundedReal":
        return RoundedReal(self.value / Fraction(k), self.exact)

    def decimal_up(self) -> str:
        return "inf" if self.value == math.inf else decimal_up(self.value)


ZERO_REAL = RoundedReal(Fraction(0))
INF = RoundedReal(math.inf)


def decimal_up(q: Fraction) -> str:
    """Fixed-point decimal string with 12 places, rounded toward +infinity."""
    scale = 10**12
    n = q.numerator * scale
    d = q.denominator
    units = -((-n) // d)  # ceil
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // scale}.{units % scale:012d}"


def sqrt_upper(q: Fraction) -> RoundedReal:
    """Rational upper bound of sqrt(q); exact when q is a perfect square."""
    if q < 0:
        raise ValueError("sqrt of negative value")
    if q == 0:
        return ZERO_REAL
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return RoundedReal(Fraction(ns, ds))
    m = math.isqrt((q.numerator * _SQRT_SCALE * _SQRT_SCALE) // q.denominator)
    return RoundedReal(Fraction(m + 1, _SQRT_SCALE), exact=False)


def norm_value(v: Point, norm: Norm) -> RoundedReal:
    if norm is Norm.L1:
        return RoundedReal(sum((abs(x) for x in v), Fraction(0)))
    if norm is Norm.LINF:
        return RoundedReal(max(abs(x) for x in v) if v else Fraction(0))
    return sqrt_upper(dot(v, v))


# ---------------------------------------------------------------------------
# polytopes


class Polytope:
    """Canonical V-representation: the sorted tuple of extreme points.

    Build through :func:`from_vertices`; structural equality of two polytopes
    is then equality as point sets.  The vertices are the public and
    serialized form.  Beside them a polytope caches its integer form
    (:func:`_integer_form`), which gives its equality and its hash, its
    chart, its edges and the fans of its chart faces, each computed on first
    use.  A flag level is born as its integer form and its chart
    (:meth:`_given`), and its Fraction vertices are built only when first
    read.  A polytope is immutable, its forms and caches built once each.
    """

    def __init__(self, vertices: tuple[Point, ...]):
        self.__dict__["vertices"] = vertices

    @classmethod
    def _given(cls, ints: tuple, chart: "_Chart") -> "Polytope":
        """The polytope of least-terms integer form ints, of canonical
        vertices, whose chart is the one `_Chart(*ints)` would build."""
        p = cls.__new__(cls)
        p.__dict__["_ints"] = ints
        p.__dict__["_chart"] = chart
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"a Polytope is immutable: cannot set {name!r}")

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        den, nums = self._ints
        return tuple(tuple(Fraction(c, den) for c in v) for v in nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Polytope:
            return NotImplemented
        # equal vertices have one least-terms integer form
        return self is other or self._ints == other._ints

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._ints)

    @property
    def dimension(self) -> int:
        # off whichever form is at hand: a level builds no vertex for it
        return len(self.vertices[0] if "vertices" in self.__dict__ else self._ints[1][0])

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _integer_form(self.vertices)

    @cached_property
    def _chart(self) -> "_Chart":
        return _Chart(*self._ints)

    @cached_property
    def _faces(self) -> tuple:
        # (row, faces) per chart face: its ring as a point, a segment or a fan
        # of triangles, the pieces of the L2 kernel and of volume
        return tuple((row, _fan(ring)) for row, ring in self._chart.faces)

    @cached_property
    def _edges(self) -> frozenset:
        # (i, j), i < j, for the vertices consecutive on a chart face's ring
        return frozenset((min(e), max(e)) for _, r in self._chart.faces for e in zip(r, r[1:] + r[:1]) if e[0] != e[1])

    @property
    def affine_dim(self) -> int:
        return self._chart.k

    def __repr__(self) -> str:  # compact, for test failures
        pts = ", ".join("(" + ",".join(str(c) for c in v) + ")" for v in self.vertices)
        return f"Polytope[{pts}]"


def _in_hull_lp(points: Sequence[Point], x: Point) -> bool:
    # feasibility of the convex-combination system in exact rationals
    if not points:
        return False
    a = [list(coords) for coords in zip(*points)] + [[Fraction(1)] * len(points)]
    return _simplex.feasible(a, list(x) + [Fraction(1)])


def from_vertices(points: Iterable) -> Polytope:
    """Canonicalize a point list to the extreme points of its convex hull.

    Exact integer tests decide extremeness, with no LP in any dimension: the
    extreme points are the vertices of the boundary faces that the chart of
    the sorted distinct points records.  When all are extreme, that polytope,
    chart and all, is the hull.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("mixed coordinate dimensions")
    if n not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {n}")
    poly = Polytope(tuple(v for v, _ in groupby(sorted(pts))))
    keep = sorted({i for _, ring in poly._chart.faces for i in ring})
    return poly if len(keep) == len(poly.vertices) else Polytope(tuple(poly.vertices[i] for i in keep))


def translate(p: Polytope, v: Point) -> Polytope:
    return Polytope(tuple(sorted(vadd(w, v) for w in p.vertices)))


def centroid(points: Sequence[Point]) -> Point:
    acc = points[0]
    for v in points[1:]:
        acc = vadd(acc, v)
    return vscale(Fraction(1, len(points)), acc)


def vertex_centroid(p: Polytope) -> Point:
    return centroid(p.vertices)


def _ccw_sorted(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise ring of the extreme points of a planar point set.

    Andrew's monotone chain: the lower hull left to right, then the upper
    hull right to left, over the sorted distinct points.  Only strict left
    turns are kept, so duplicate, collinear and edge-interior points drop.
    The ring starts at the least point; points on one line give its two ends.
    Works on rational and on integer coordinates alike.
    """
    pts = sorted(set(points))
    lower: list[Point] = []
    upper: list[Point] = []
    for chain, seq in ((lower, pts), (upper, pts[::-1])):
        for p in seq:
            while len(chain) > 1 and _cross2(vsub(chain[-1], chain[-2]), vsub(p, chain[-2])) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1] or pts


# --- the integer chart kernel -----------------------------------------------
#
# Predicates run on integer numerators over a common denominator (Yap,
# "Towards Exact Geometric Computation", 1997): a point set is held as
# (D, nums) with point i equal to nums[i] / D, and a polytope as integer rows
# (a_1, ..., a_n, b) of the plane or half-space a.x = b or a.x <= b.


def _integer_form(points: Sequence[Point]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, nums): the least common denominator D of every coordinate, and
    each point times D, so that point i equals nums[i] / D exactly."""
    den = 1
    for p in points:
        for c in p:
            if den % c.denominator:
                den = math.lcm(den, c.denominator)
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in p) for p in points)


def _reduced(den: int, nums: Sequence[tuple[int, ...]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, nums) over g = gcd(den, nums): the least common denominator of
    the points nums / den, as M | E g for every common denominator E."""
    g = math.gcd(den, *chain.from_iterable(nums))
    return den // g, tuple(tuple(c // g for c in v) for v in nums)


def _basis(vectors: Iterable[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """A basis of the span of integer vectors in n <= 3 dimensions, by echelon.

    Each vector is kept when it is independent of those kept before it: when
    it is nonzero, then when its cross product with the first is nonzero,
    then when its determinant with the first two is nonzero.
    """
    basis: list[tuple[int, ...]] = []
    for v in vectors:
        if not basis:
            ok = any(v)
        elif len(basis) == 1:
            ok = _cross2(basis[0], v) != 0 if n == 2 else any(_cross3(basis[0], v))
        else:
            w = _cross3(basis[0], basis[1])
            ok = w[0] * v[0] + w[1] * v[1] + w[2] * v[2] != 0
        if ok:
            basis.append(v)
            if len(basis) == n:
                break
    return basis


def _kept_axes(normal: tuple[int, ...]) -> tuple[int, int]:
    """The two axes left by dropping the first axis a plane's normal uses.

    Projecting onto them is one-to-one on that plane.
    """
    axis = next(i for i in range(3) if normal[i])
    return (1, 2) if axis == 0 else (0, 2) if axis == 1 else (0, 1)


def _ring(nums: Sequence[tuple[int, ...]], keep: tuple[int, int]) -> list[int]:
    """Indices of the counterclockwise ring of coplanar points, in the projection onto `keep`."""
    i, j = keep
    flat = [(v[i], v[j]) for v in nums]
    index = {q: k for k, q in enumerate(flat)}
    return [index[q] for q in _ccw_sorted(flat)]


def _facet_planes(nums: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], list[int]]]:
    """The facet planes of the hull of a full-dimensional set of 3-D integer points.

    Every plane through three of the points that leaves them all on one side,
    as a primitive row (a_1, a_2, a_3, b) with a.v <= b for every point v,
    together with the indices of the points on it.  The triples are
    enumerated on integer cross products; a plane met again through another
    triple is not tested again.
    """
    planes: list[tuple[tuple[int, ...], list[int]]] = []
    tried: set[tuple[int, ...]] = set()
    for i, j, k in combinations(range(len(nums)), 3):
        p = nums[i]
        a0, a1, a2 = _cross3(vsub(nums[j], p), vsub(nums[k], p))
        b = a0 * p[0] + a1 * p[1] + a2 * p[2]
        g = math.gcd(a0, a1, a2, b)
        if g == 0:  # collinear triple
            continue
        row = (a0 // g, a1 // g, a2 // g, b // g)
        if row in tried:
            continue
        flipped = (-row[0], -row[1], -row[2], -row[3])
        tried.add(row)
        tried.add(flipped)
        vals = [a0 * x + a1 * y + a2 * z for x, y, z in nums]
        top = max(vals)
        if b in (top, min(vals)):
            planes.append((row if b == top else flipped, [m for m, v in enumerate(vals) if v == b]))
    return planes


def _scaled_row(row: Sequence[int], den: int) -> tuple[int, ...]:
    """A row a.v <= b on numerators v = D x, as the primitive row of x."""
    out = [den * a for a in row[:-1]] + [row[-1]]
    g = math.gcd(*out)
    return tuple(c // g for c in out)


class _Chart:
    """Cached exact face data of one polytope, in integers.

    Built from the polytope's integer form (D, nums) alone.  The polytope is
    the set of points x with a.x = b on every row of `eqs` and a.x <= b on
    every row of `ineqs`, rows being primitive integer tuples (a_1, ..., a_n,
    b).  By affine dimension k:

    * k = 0: one equality per axis;
    * k = 1 (a segment, also in 1-D): its line, as one equality per axis
      other than the first one its direction d moves along, and the one
      parameter t = d.(x - v0) / d.d in [0, 1] as two caps;
    * k = 2 (a polygon): in 3-space its plane, and in both cases the edges of
      its counterclockwise ring, taken in the projection that drops one axis;
    * k = 3: the facet planes of :func:`_facet_planes`.

    `faces` records the boundary faces as pairs (row, ring), the ring listing
    vertex indices in cyclic order.  A full-dimensional polytope has one face
    per inequality row: an endpoint, a ring edge, or the ring of the points
    on a facet plane.  A lower-dimensional polytope has the one face (None,
    ring) of its point, its two ends or its polygon ring, which is the whole
    polytope.  Every nearest point of a full polytope to a point x outside it
    lies on a face whose row x violates: for the nearest point y, x - y is a
    nonnegative combination of the outward normals of the facets through y,
    and as its square is positive, so is its product with one of them.
    """

    __slots__ = ("ambient", "k", "eqs", "ineqs", "faces")

    def __init__(self, den: int, nums: tuple[tuple[int, ...], ...]):
        n = self.ambient = len(nums[0])
        o = nums[0]
        basis = _basis([vsub(v, o) for v in nums[1:]], n)
        k = self.k = len(basis)
        eqs: list[Sequence[int]] = []
        ineqs: list[Sequence[int]] = []
        if k == 0:
            eqs = [tuple(int(i == j) for j in range(n)) + (o[i],) for i in range(n)]
            rings = [(0,)]
        elif k == 1:
            d = basis[0]
            lead = next(i for i in range(n) if d[i])
            for i in range(n):
                if i != lead:
                    row = [0] * n
                    row[i], row[lead] = d[lead], -d[i]
                    eqs.append(row + [d[lead] * o[i] - d[i] * o[lead]])
            ts = [dot(d, v) for v in nums]
            lo, hi = ts.index(min(ts)), ts.index(max(ts))
            ineqs = [tuple(-a for a in d) + (-ts[lo],), d + (ts[hi],)]
            rings = [(lo,), (hi,)] if n == 1 else [(lo, hi)]
        elif k == 2:
            keep = (0, 1)
            if n == 3:
                w = _cross3(basis[0], basis[1])
                eqs = [w + (dot(w, o),)]
                keep = _kept_axes(w)
            ring = tuple(_ring(nums, keep))
            edges = list(zip(ring, ring[1:] + ring[:1]))
            x, y = keep
            for s, t in edges:
                p, q = nums[s], nums[t]
                row = [0] * (n + 1)
                # outward normal of the edge p -> q, the interior on its left
                row[x], row[y] = q[y] - p[y], p[x] - q[x]
                row[n] = row[x] * p[x] + row[y] * p[y]
                ineqs.append(row)
            rings = edges if n == 2 else [ring]
        else:
            planes = _facet_planes(nums)
            ineqs = [row for row, _ in planes]
            rings = [tuple(on[i] for i in _ring([nums[j] for j in on], _kept_axes(row))) for row, on in planes]
        self.eqs = [_scaled_row(r, den) for r in eqs]
        self.ineqs = [_scaled_row(r, den) for r in ineqs]
        self.faces = tuple(zip(self.ineqs if k == n else [None], rings))

    def holds(self, num: tuple[int, ...], den: int) -> bool:
        """Whether the point num / den lies in the polytope: a.num = b den on
        every equality row and a.num <= b den on every inequality row."""
        q = num + (-den,)
        return all(not dot(r, q) for r in self.eqs) and all(dot(r, q) <= 0 for r in self.ineqs)


def _planes(polytopes: Iterable[Polytope]) -> list[tuple[int, ...]]:
    """The distinct hyperplanes of the polytopes' chart rows, sorted.

    A row (a, b) of a.x = b or a.x <= b is flipped, if need be, so that its
    normal a is lexicographically positive: the two sides of one plane give
    one row.
    """
    rows = set()
    for p in polytopes:
        for r in p._chart.eqs + p._chart.ineqs:
            rows.add(r if r[:-1] > (0,) * (len(r) - 1) else tuple(-c for c in r))
    return sorted(rows)


def contains(p: Polytope, x) -> bool:
    """Exact membership in the closed hull, decided in integer arithmetic."""
    pt = as_point(x)
    if len(pt) != p.dimension:
        raise ValueError("dimension mismatch")
    den, (num,) = _integer_form((pt,))
    return p._chart.holds(num, den)


def _outside(y: Polytope, x: Polytope) -> list[int]:
    """The indices of the vertices of y that lie outside x."""
    holds = x._chart.holds
    den, nums = y._ints
    return [i for i, num in enumerate(nums) if not holds(num, den)]


def homothet(p: Polytope, c, t) -> Polytope:
    """Scale p toward a center c in p by ratio t in [0, 1]."""
    center = as_point(c)
    ratio = Fraction(t)
    if not 0 <= ratio <= 1:
        raise ValueError("homothety ratio must lie in [0, 1]")
    if not contains(p, center):
        raise ValueError("homothety center must lie in the polytope")
    return _levels(p, Polytope((center,)), ratio.denominator, (ratio.numerator,))[0]


class _levels:
    """base scaled toward the point of tip, checked to lie in it, by i / steps
    for each i of `ratios` (0 to steps by default): a sequence, like range,
    whose items are built when read, so iterating yields the levels one at a
    time and keeps none.

    With base = V / D and tip = C / L, level i is ((steps - i) C D + i L V) /
    (steps L D), reduced by one gcd: a level is born as its least-terms
    integer form (`Polytope._given`), since a ratio in (0, 1) keeps the
    vertices extreme and in their order.

    A middle level is born with its chart too, the base's chart moved by the
    level's homothety.  A point x lies in level i exactly when (steps x -
    (steps - i) C / L) / i lies in the base, so a base row a.x <= b (or = b)
    becomes steps L a.x <= i L b + (steps - i) a.C, which is made primitive by
    the gcd of its right side and of steps L a, the latter fixed per block.  A
    primitive row is unique up to a positive factor, and the fresh chart of
    the level takes each row with the sign of the base's, as its vertex
    differences are positive multiples of the base's, so the moved rows are
    the ones `_Chart` would build from the level, in the same order.  The
    level's `faces` rings are the base's: a positive homothety keeps the
    sorted order of the vertices, of their projections onto any two axes,
    and every turn's orientation, so each ring starts at the same least
    point and runs the same way.  Nothing here trusts the builder: the base
    chart is the one its reader built from the base it parsed, and the
    nesting of each level difference is still checked by `Support`.
    """

    def __init__(self, base: Polytope, tip: Polytope, steps: int, ratios: Optional[Sequence[int]] = None):
        den, nums = base._ints
        cden, (cnum,) = tip._ints
        self._ends = (tip, base)
        self._steps, self._den = steps, steps * cden * den
        self._fixed = [c * den for c in cnum]
        self._moved = [[cden * c for c in v] for v in nums]
        self._ratios = range(steps + 1) if ratios is None else ratios
        chart = self._chart = base._chart
        # per row (a, b): the scaled normal steps L a, its gcd, L b and a.C
        scale = steps * cden
        self._rows = [
            [(tuple(scale * a for a in r[:-1]), scale * math.gcd(*r[:-1]), cden * r[-1], dot(r[:-1], cnum)) for r in rows]
            for rows in (chart.eqs, chart.ineqs)
        ]
        self._rings = [ring for _, ring in chart.faces]

    def __len__(self) -> int:
        return len(self._ratios)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        return self._level(self._ratios[k])

    def __iter__(self):
        return map(self._level, self._ratios)

    def _level(self, i: int) -> Polytope:
        steps = self._steps
        if i in (0, steps):
            return self._ends[i > 0]
        j = steps - i
        ints = _reduced(self._den, [[j * f + i * m for f, m in zip(self._fixed, v)] for v in self._moved])
        base = self._chart
        chart = _Chart.__new__(_Chart)
        chart.ambient, chart.k = base.ambient, base.k
        chart.eqs, chart.ineqs = (_moved_rows(rows, i, j) for rows in self._rows)
        chart.faces = tuple(zip(chart.ineqs if base.k == base.ambient else [None], self._rings))
        return Polytope._given(ints, chart)


def _moved_rows(rows, i: int, j: int) -> list[tuple[int, ...]]:
    """The primitive rows (A, i B + j E) of level i, j = steps - i, from each
    row's (A, gcd(A), B, E) of `_levels`."""
    out = []
    for normal, g, b, e in rows:
        rhs = i * b + j * e
        g = math.gcd(g, rhs)
        out.append((*[c // g for c in normal], rhs // g))
    return out


def _gap(norm: Norm, pairs, do: int, di: int) -> int:
    """The largest norm of o di - w do over the pairs (o, w) of integer
    points, squared under L2."""
    if norm is Norm.L1:
        return max(sum(abs(a * di - b * do) for a, b in zip(o, w)) for o, w in pairs)
    if norm is Norm.LINF:
        return max(abs(a * di - b * do) for o, w in pairs for a, b in zip(o, w))
    return max(sum((a * di - b * do) ** 2 for a, b in zip(o, w)) for o, w in pairs)


def reach(p: Polytope, c, norm: Norm = Norm.L2) -> RoundedReal:
    """max over vertices of ||v - c||; the farthest point of p from c.  On
    integer forms p = V / D and c = C / L, each v - c is (L V - D C) / (L D)."""
    center = as_point(c)
    if len(center) != p.dimension:
        raise ValueError("dimension mismatch")
    den, nums = p._ints
    cden, (cnum,) = _integer_form((center,))
    worst, scale = _gap(norm, ((v, cnum) for v in nums), den, cden), cden * den
    if norm is Norm.L2:
        return sqrt_upper(Fraction(worst, scale * scale))
    return RoundedReal(Fraction(worst, scale))


# --- point-to-polytope distance --------------------------------------------
#
# The L2 kernel works on integer numerators: the query points and the target
# polytope are brought to one common denominator L, so that every squared
# distance below is an integer ratio (num, den) over L^2.  Nearest points are
# closed-form on a segment (one clamped projection parameter) and on a
# triangle (Ericson's Voronoi-region test, *Real-Time Collision Detection*,
# 2005, sec. 5.1.5), both exact, and candidates are compared by
# cross-multiplication.


def _fan(ring: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex index faces covering a convex ring: itself when it has at most
    two vertices, otherwise its fan of triangles from the first vertex."""
    if len(ring) < 3:
        return (tuple(ring),)
    return tuple((ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1))


def _face_sqdist(y: tuple[int, ...], face: tuple[int, ...], pts: Sequence[tuple[int, ...]]) -> tuple[int, int]:
    """Squared distance (num, den) from the integer point y to a face of pts."""
    a = pts[face[0]]
    ap = vsub(y, a)
    if len(face) == 1:
        return dot(ap, ap), 1
    if len(face) == 2:
        # the segment a + t d, t = w.d / d.d clamped to [0, 1]
        d = vsub(pts[face[1]], a)
        t = dot(ap, d)
        if t <= 0:
            return dot(ap, ap), 1
        dd = dot(d, d)
        if t >= dd:
            e = vsub(ap, d)
            return dot(e, e), 1
        return dot(ap, ap) * dd - t * t, dd
    # a triangle in 3-space: find the Voronoi region of y among its vertices,
    # edges and interior
    b, c = pts[face[1]], pts[face[2]]
    ab, ac = vsub(b, a), vsub(c, a)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return dot(ap, ap), 1
    bp = vsub(y, b)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return dot(bp, bp), 1
    if d1 >= 0 and d3 <= 0 and d1 * d4 - d3 * d2 <= 0:
        dd = d1 - d3  # ab.ab
        return dot(ap, ap) * dd - d1 * d1, dd
    cp = vsub(y, c)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return dot(cp, cp), 1
    if d2 >= 0 and d6 <= 0 and d5 * d2 - d1 * d6 <= 0:
        dd = d2 - d6  # ac.ac
        return dot(ap, ap) * dd - d2 * d2, dd
    if d4 >= d3 and d5 >= d6 and d3 * d6 - d5 * d4 <= 0:
        t = d4 - d3  # bp.bc
        dd = t + d5 - d6  # bc.bc
        return dot(bp, bp) * dd - t * t, dd
    nrm = _cross3(ab, ac)
    s = dot(ap, nrm)
    return s * s, dot(nrm, nrm)


def _sqdist_outside(den: int, queries: Sequence[tuple[int, ...]], p: Polytope) -> Fraction:
    """The largest squared L2 distance to p of the points num / den outside it.

    Against a full-dimensional polytope only the faces whose rows a point
    violates are tried (see :class:`_Chart`).
    """
    pden, pnums = p._ints
    big = math.lcm(den, pden)
    if big != den:
        s = big // den
        queries = [tuple(c * s for c in y) for y in queries]
    if big != pden:
        s = big // pden
        pnums = tuple(tuple(c * s for c in v) for v in pnums)
    groups = p._faces
    worst, worst_den = 0, 1
    for y in queries:
        q = y + (-big,)
        best, best_den = -1, 1
        for row, faces in groups:
            if row is not None and dot(row, q) <= 0:
                continue
            for face in faces:
                num, d = _face_sqdist(y, face, pnums)
                if best < 0 or num * best_den < best * d:
                    best, best_den = num, d
        if best * worst_den > worst * best_den:
            worst, worst_den = best, best_den
    return Fraction(worst, worst_den * big * big)


# Under L1 and L-infinity the unit ball B is a polytope, and a point set y
# lies in p + tB iff h_y(u) <= h_p(u) + t h_B(u) for every facet normal u of
# p + B, h being support functions, with h_B(u) = ||u||_1 for L-infinity and
# ||u||_inf for L1.  Any superset of those normals gives the same largest gap.
# A facet of p + B is a facet of p (a chart row of either sign), a facet of B,
# or in 3-D the sum of an edge e of p and an edge f of B, with normal e x f.


@cache
def _ball(norm: Norm, n: int) -> tuple[tuple, tuple]:
    """Facet normals and edge directions, up to sign, of the unit ball of a
    polyhedral norm: the cube [-1, 1]^n for L-infinity, the hull of the +-e_i
    for L1."""
    axes = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if norm is Norm.LINF:
        return axes, axes
    edges = tuple(vsub(a, vscale(s, b)) for a, b in combinations(axes, 2) for s in (1, -1))
    return tuple((1,) + s for s in product((1, -1), repeat=n - 1)), edges


def _support_gap(den: int, queries: Sequence[tuple[int, ...]], p: Polytope, norm: Norm) -> Fraction:
    """The largest L1 or L-infinity distance to p of the points num / den: the
    largest (h_y(u) - h_p(u)) / h_B(u), or 0, over the normals u of p + B and
    their negatives, y being the queries."""
    pden, pnums = p._ints
    ch = p._chart
    ball_normals, ball_edges = _ball(norm, ch.ambient)
    normals = {r[:-1] for r in ch.eqs + ch.ineqs}.union(ball_normals)
    if ch.ambient == 3:
        crosses = (_cross3(vsub(pnums[j], pnums[i]), f) for i, j in p._edges for f in ball_edges)
        normals.update(w for w in crosses if any(w))
    worst, worst_den = 0, 1
    for u in normals:
        ys = [dot(u, y) for y in queries]
        vs = [dot(u, v) for v in pnums]
        gap = max(pden * max(ys) - den * max(vs), den * min(vs) - pden * min(ys))
        h = sum(map(abs, u)) if norm is Norm.LINF else max(map(abs, u))
        if gap * worst_den > worst * h:
            worst, worst_den = gap, h
    return Fraction(worst, worst_den * den * pden)


def distance_point_to_polytope(x, p: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    return directed_hausdorff(Polytope((as_point(x),)), p, norm)


def directed_hausdorff(y: Polytope, x: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    """Least eps with y inside the eps-thickening of x; exact 0 on containment."""
    if y.dimension != x.dimension:
        raise ValueError("dimension mismatch")
    outside = _outside(y, x)
    if not outside:
        return ZERO_REAL
    den, nums = y._ints
    queries = [nums[i] for i in outside]
    if norm is Norm.L2:
        return sqrt_upper(_sqdist_outside(den, queries, x))
    return RoundedReal(_support_gap(den, queries, x, norm))


def hausdorff(a: Polytope, b: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    return max(directed_hausdorff(a, b, norm), directed_hausdorff(b, a, norm), key=lambda d: d.value)


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset with exact rational entries."""

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: Point

    def __post_init__(self):
        if len(self.matrix) != len(self.offset):
            raise ValueError("offset length must match the number of matrix rows")
        width = len(self.matrix[0]) if self.matrix else 0
        if any(len(row) != width for row in self.matrix):
            raise ValueError("ragged matrix")

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0])

    @property
    def codomain_dim(self) -> int:
        return len(self.matrix)

    def __call__(self, x) -> Point:
        pt = as_point(x)
        if len(pt) != self.domain_dim:
            raise ValueError("dimension mismatch")
        return tuple(dot(row, pt) + o for row, o in zip(self.matrix, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        if inner.codomain_dim != self.domain_dim:
            raise ValueError("dimension mismatch in composition")
        cols = list(zip(*inner.matrix))
        mat = tuple(tuple(dot(row, col) for col in cols) for row in self.matrix)
        return AffineMap(mat, self(inner.offset))


def affine_map(matrix: Iterable[Iterable], offset: Iterable) -> AffineMap:
    return AffineMap(tuple(tuple(Fraction(v) for v in row) for row in matrix), as_point(offset))


def affine_image(f: AffineMap, p: Polytope) -> Polytope:
    if f.domain_dim != p.dimension:
        raise ValueError("dimension mismatch")
    if f.codomain_dim not in (1, 2, 3):
        raise ValueError("codomain dimension must be 1, 2 or 3")
    return from_vertices([f(v) for v in p.vertices])


# ---------------------------------------------------------------------------
# volume


def volume(p: Polytope) -> Fraction:
    """Lebesgue measure in the ambient dimension n, exact.

    The cones from the vertex centroid over the pieces of `Polytope._faces`
    (the endpoints in 1-D, the ring edges in 2-D, the fan triangles of the
    facets in 3-D) tile a full-dimensional polytope, and each is a simplex
    of volume |det(face - centroid)| / n!.
    """
    n = p.dimension
    if p.affine_dim < n:
        return Fraction(0)
    c = vertex_centroid(p)
    total = sum(abs(_det([vsub(p.vertices[i], c) for i in face])) for _, faces in p._faces for face in faces)
    return total / math.factorial(n)


def _det(rows: Sequence[Point]) -> Fraction:
    """Determinant of a square matrix, by cofactors of its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, x in enumerate(rows[0]))
