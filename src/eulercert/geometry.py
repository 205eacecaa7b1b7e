"""Exact rational convex-polytope primitives in dimensions 1 to 3.

Coordinates are fractions.Fraction throughout.  Combinatorial predicates
(membership, equality, hulls) are exact.  Metric quantities are carried as
RoundedReal values: exact rationals for polyhedral norms, certified rational
upper bounds (integer-sqrt based, slack below 2e-12) for euclidean norms.
Distance results are therefore always valid upper bounds of the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import _simplex

Point = tuple[Fraction, ...]

#: Comparison slack for certified distance bounds (not an arithmetic fudge:
#: internal values are tighter; this is the tolerance verifiers allow).
TOL_DIST = Fraction(1, 10**9)

_SQRT_SCALE = 10**12


class Norm(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


# ---------------------------------------------------------------------------
# points


def as_point(coords: Iterable) -> Point:
    return tuple(Fraction(c) for c in coords)


def vadd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vscale(t: Fraction, a: Point) -> Point:
    return tuple(t * x for x in a)


def dot(a: Point, b: Point) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def sqnorm(a: Point) -> Fraction:
    return dot(a, a)


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
    """A nonnegative real carried as a rational upper bound of itself.

    ``exact`` is True when ``value`` equals the quantity exactly.  When False
    the true quantity lies in [value - 2/10**12, value], so the stored value
    still certifies every upper bound we report.
    """

    value: Fraction
    exact: bool = True

    def __float__(self) -> float:
        return float(self.value)

    @staticmethod
    def _val(other) -> Fraction:
        if isinstance(other, RoundedReal):
            return other.value
        return Fraction(other)

    def __lt__(self, other) -> bool:
        return self.value < self._val(other)

    def __le__(self, other) -> bool:
        return self.value <= self._val(other)

    def __gt__(self, other) -> bool:
        return self.value > self._val(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._val(other)

    def __add__(self, other: "RoundedReal") -> "RoundedReal":
        return RoundedReal(self.value + other.value, self.exact and other.exact)

    def __truediv__(self, k) -> "RoundedReal":
        return RoundedReal(self.value / Fraction(k), self.exact)

    def half(self) -> "RoundedReal":
        return RoundedReal(self.value / 2, self.exact)

    def decimal_up(self, places: int = 12) -> str:
        return decimal_up(self.value, places)


ZERO_REAL = RoundedReal(Fraction(0))


def decimal_up(q: Fraction, places: int = 12) -> str:
    """Fixed-point decimal string, rounded toward +infinity."""
    scale = 10**places
    n = q.numerator * scale
    d = q.denominator
    units = -((-n) // d)  # ceil
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // scale}.{units % scale:0{places}d}"


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
    return sqrt_upper(sqnorm(v))


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Polytope:
    """Canonical V-representation: the sorted tuple of extreme points.

    Build through :func:`from_vertices`; structural equality of two polytopes
    is then equality as point sets.
    """

    vertices: tuple[Point, ...]

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def _chart(self) -> "_Chart":
        return _Chart(self)

    @property
    def affine_dim(self) -> int:
        return self._chart.k

    def __repr__(self) -> str:  # compact, for test failures
        pts = ", ".join("(" + ",".join(str(c) for c in v) + ")" for v in self.vertices)
        return f"Polytope[{pts}]"


def _in_hull_lp(points: Sequence[Point], x: Point) -> bool:
    # feasibility of the convex-combination system in exact rationals
    n = len(x)
    k = len(points)
    if k == 0:
        return False
    a = [[points[j][i] for j in range(k)] for i in range(n)]
    a.append([Fraction(1)] * k)
    b = [x[i] for i in range(n)] + [Fraction(1)]
    return _simplex.feasible(a, b)


def from_vertices(points: Iterable) -> Polytope:
    """Canonicalize a point list to the extreme points of its convex hull.

    Exact orientation tests decide extremeness in dimensions 1 and 2 (the
    end points, or the counterclockwise ring); dimension 3 asks one
    convex-combination LP per point.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("mixed coordinate dimensions")
    if n not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {n}")
    uniq = sorted(set(pts))
    if n == 1:
        keep = {uniq[0], uniq[-1]}
    elif n == 2:
        keep = set(_ccw_sorted(uniq))
    else:
        keep = {p for p in uniq if not _in_hull_lp([q for q in uniq if q != p], p)}
    return Polytope(tuple(sorted(keep)))


def translate(p: Polytope, v: Point) -> Polytope:
    return Polytope(tuple(sorted(vadd(w, v) for w in p.vertices)))


def vertex_centroid(p: Polytope) -> Point:
    k = Fraction(1, len(p.vertices))
    acc = p.vertices[0]
    for v in p.vertices[1:]:
        acc = vadd(acc, v)
    return vscale(k, acc)


def _ccw_sorted(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise ring of the extreme points of a planar point set.

    Andrew's monotone chain: the lower hull left to right, then the upper
    hull right to left, over the sorted distinct points.  Only strict left
    turns are kept, so duplicate, collinear and edge-interior points drop.
    The ring starts at the least point; points on one line give its two ends.
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


def _primitive(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


class _Chart:
    """Cached exact containment/face data for one polytope."""

    def __init__(self, poly: Polytope):
        verts = poly.vertices
        self.ambient = len(verts[0])
        self.v0 = verts[0]
        self.dirs: list[Point] = []
        echelon: list[list[Fraction]] = []
        for v in verts[1:]:
            vec = list(vsub(v, self.v0))
            red = _eliminate(vec, echelon)
            if any(x != 0 for x in red):
                echelon.append(red)
                self.dirs.append(vsub(v, self.v0))
        self.k = len(self.dirs)
        self.proj_poly: Optional[Polytope] = None
        self.proj_of: dict[Point, Point] = {}
        self.ineqs: list[tuple[Point, Fraction]] = []
        self.interval: Optional[tuple[Fraction, Fraction]] = None
        n = self.ambient
        if self.k == n:
            if n == 1:
                self.interval = (verts[0][0], verts[-1][0])
            elif n == 2:
                self.ineqs = _polygon_ineqs(verts)
            else:
                self.ineqs = _polyhedron_ineqs(verts)
        elif self.k > 0:
            proj_pts = []
            for v in verts:
                coords = _solve_coords(self.dirs, vsub(v, self.v0))
                assert coords is not None
                pt = tuple(coords)
                proj_pts.append(pt)
                self.proj_of[pt] = v
            self.proj_poly = Polytope(tuple(sorted(proj_pts)))

    def contains(self, x: Point) -> bool:
        if self.k == self.ambient:
            if self.interval is not None:
                lo, hi = self.interval
                return lo <= x[0] <= hi
            return all(dot(a, x) <= b for a, b in self.ineqs)
        if self.k == 0:
            return x == self.v0
        coords = _solve_coords(self.dirs, vsub(x, self.v0))
        if coords is None:
            return False
        assert self.proj_poly is not None
        return contains(self.proj_poly, tuple(coords))


def _eliminate(vec: list[Fraction], echelon: list[list[Fraction]]) -> list[Fraction]:
    red = list(vec)
    for row in echelon:
        lead = next(i for i, v in enumerate(row) if v != 0)
        if red[lead] != 0:
            f = red[lead] / row[lead]
            red = [a - f * b for a, b in zip(red, row)]
    return red


def _solve_coords(dirs: Sequence[Point], target: Point) -> Optional[list[Fraction]]:
    """Coordinates of target in span(dirs), or None if outside the span."""
    n = len(target)
    k = len(dirs)
    aug = [[dirs[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), -1)
        if pr < 0:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][-1] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = aug[i][-1]
    return sol


def _polygon_ineqs(verts: Sequence[Point]) -> list[tuple[Point, Fraction]]:
    # the interior lies to the left of every edge of the counterclockwise ring
    ring = _ccw_sorted(verts)
    ineqs = []
    m = len(ring)
    for i in range(m):
        p, q = ring[i], ring[(i + 1) % m]
        a: Point = (q[1] - p[1], p[0] - q[0])
        ineqs.append((a, dot(a, p)))
    return ineqs


def _polyhedron_ineqs(verts: Sequence[Point]) -> list[tuple[Point, Fraction]]:
    seen: dict[tuple[tuple[int, ...], Fraction], tuple[Point, Fraction]] = {}
    for i, j, k in combinations(range(len(verts)), 3):
        nrm = _cross3(vsub(verts[j], verts[i]), vsub(verts[k], verts[i]))
        if nrm == (0, 0, 0):
            continue
        b = dot(nrm, verts[i])
        sides = [dot(nrm, v) - b for v in verts]
        if all(s <= 0 for s in sides):
            a, off = nrm, b
        elif all(s >= 0 for s in sides):
            a, off = (-nrm[0], -nrm[1], -nrm[2]), -b
        else:
            continue
        prim = _primitive(list(a) + [off])
        canon_a = tuple(Fraction(v) for v in prim[:3])
        canon_b = Fraction(prim[3])
        seen[(prim[:3], canon_b)] = (canon_a, canon_b)
    return list(seen.values())


def contains(p: Polytope, x) -> bool:
    """Exact membership in the closed hull, decided in rational arithmetic."""
    pt = as_point(x)
    if len(pt) != p.dimension:
        raise ValueError("dimension mismatch")
    return p._chart.contains(pt)


def contains_oracle(p: Polytope, x) -> bool:
    """Independent membership test: convex-combination LP feasibility."""
    pt = as_point(x)
    if len(pt) != p.dimension:
        raise ValueError("dimension mismatch")
    return _in_hull_lp(p.vertices, pt)


def homothet(p: Polytope, c, t) -> Polytope:
    """Scale p toward a center c in p by ratio t in [0, 1]."""
    center = as_point(c)
    ratio = Fraction(t)
    if not 0 <= ratio <= 1:
        raise ValueError("homothety ratio must lie in [0, 1]")
    if not contains(p, center):
        raise ValueError("homothety center must lie in the polytope")
    if ratio == 1:
        return p
    if ratio == 0:
        return Polytope((center,))
    s = 1 - ratio
    scaled = tuple(sorted(vadd(vscale(s, center), vscale(ratio, v)) for v in p.vertices))
    # homotheties with t > 0 are affine bijections, extremeness is preserved
    return Polytope(scaled)


def reach(p: Polytope, c, norm: Norm = Norm.L2) -> RoundedReal:
    """max over vertices of ||v - c||; the farthest point of p from c."""
    center = as_point(c)
    if len(center) != p.dimension:
        raise ValueError("dimension mismatch")
    if norm is Norm.L2:
        best = max(sqnorm(vsub(v, center)) for v in p.vertices)
        return sqrt_upper(best)
    vals = [norm_value(vsub(v, center), norm).value for v in p.vertices]
    return RoundedReal(max(vals))


# --- point-to-polytope distance --------------------------------------------


def _distance_faces(p: Polytope) -> list[tuple[Point, ...]]:
    """Simplices (1 to 3 vertices) whose union contains every closest point.

    Full-dimensional polytopes contribute their boundary faces (the query
    point is screened for containment first); lower-dimensional ones
    contribute a triangulation of themselves.
    """
    ch = p._chart
    n, k = ch.ambient, ch.k
    verts = p.vertices
    if k == 0:
        return [(verts[0],)]
    if k == 1:
        if n == 1:
            return [(verts[0],), (verts[-1],)]
        return [(verts[0], verts[-1])]
    if k == 2:
        if n == 2:
            ring = _ccw_sorted(verts)
            return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        assert ch.proj_poly is not None
        ring2 = _ccw_sorted(ch.proj_poly.vertices)
        ring = [ch.proj_of[q] for q in ring2]
        return [(ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]
    # k == 3: triangulated facets
    tris: list[tuple[Point, ...]] = []
    for facet in _facet_rings(p):
        tris.extend((facet[0], facet[i], facet[i + 1]) for i in range(1, len(facet) - 1))
    return tris


def _facet_rings(p: Polytope) -> list[list[Point]]:
    """Cyclically ordered vertex rings of the facets of a full-dim 3-polytope."""
    rings = []
    for a, b in p._chart.ineqs:
        on = [v for v in p.vertices if dot(a, v) == b]
        if len(on) < 3:
            continue
        axis = next(i for i in range(3) if a[i] != 0)
        keep = [i for i in range(3) if i != axis]
        flat = {(v[keep[0]], v[keep[1]]): v for v in on}
        ring2 = _ccw_sorted(list(flat.keys()))
        rings.append([flat[q] for q in ring2])
    return rings


def _sqdist_to_simplex(x: Point, simplex: tuple[Point, ...]) -> Fraction:
    best: Optional[Fraction] = None
    m = len(simplex)
    for size in range(1, m + 1):
        for subset in combinations(simplex, size):
            w0 = subset[0]
            dirs = [vsub(w, w0) for w in subset[1:]]
            rel = vsub(x, w0)
            if not dirs:
                cand = sqnorm(rel)
            else:
                g = [[dot(di, dj) for dj in dirs] for di in dirs]
                r = [dot(di, rel) for di in dirs]
                s = _solve_coords([tuple(col) for col in zip(*g)], tuple(r))
                if s is None:
                    continue
                if any(si < 0 for si in s) or sum(s) > 1:
                    continue
                proj = w0
                for si, di in zip(s, dirs):
                    proj = vadd(proj, vscale(si, di))
                cand = sqnorm(vsub(x, proj))
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _sqdist_outside(x: Point, p: Polytope, faces: list[tuple[Point, ...]]) -> Fraction:
    """Squared L2 distance to p of a point x outside it, over p's distance faces.

    Against a full-dimensional polygon only the ring edges that x lies
    strictly to the right of are tried.  The nearest point y lies on one of
    them: x - y is a nonnegative combination of the outward normals of the
    edges through y, and as its square is positive, so is its product with
    one of those normals.
    """
    if len(x) == 2 and p._chart.k == 2:
        faces = [(a, b) for a, b in faces if _cross2(vsub(b, a), vsub(x, a)) < 0]
    return min(_sqdist_to_simplex(x, f) for f in faces)


def _polyhedral_distance_lp(x: Point, p: Polytope, norm: Norm) -> Fraction:
    verts = p.vertices
    n = len(x)
    k = len(verts)
    nt = 1 if norm is Norm.LINF else n

    def t_col(i: int) -> int:
        return k if norm is Norm.LINF else k + i

    nv = k + nt + 2 * n  # lambdas, t's, slacks
    rows = []
    rhs = []
    for i in range(n):
        row = [Fraction(0)] * nv
        for j in range(k):
            row[j] = verts[j][i]
        row[t_col(i)] = Fraction(1)
        row[k + nt + i] = Fraction(-1)
        rows.append(row)
        rhs.append(x[i])
        row = [Fraction(0)] * nv
        for j in range(k):
            row[j] = -verts[j][i]
        row[t_col(i)] = Fraction(1)
        row[k + nt + n + i] = Fraction(-1)
        rows.append(row)
        rhs.append(-x[i])
    row = [Fraction(0)] * nv
    for j in range(k):
        row[j] = Fraction(1)
    rows.append(row)
    rhs.append(Fraction(1))
    cost = [Fraction(0)] * nv
    for i in range(nt):
        cost[k + i] = Fraction(1)
    ok, _, value = _simplex.solve(rows, rhs, cost)
    if not ok:
        raise RuntimeError("distance LP infeasible for a nonempty polytope")
    return value


def distance_point_to_polytope(x, p: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    pt = as_point(x)
    if len(pt) != p.dimension:
        raise ValueError("dimension mismatch")
    if contains(p, pt):
        return ZERO_REAL
    if norm is Norm.L2:
        return sqrt_upper(_sqdist_outside(pt, p, _distance_faces(p)))
    return RoundedReal(_polyhedral_distance_lp(pt, p, norm))


def directed_hausdorff(y: Polytope, x: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    """Least eps with y inside the eps-thickening of x; exact 0 on containment."""
    if y.dimension != x.dimension:
        raise ValueError("dimension mismatch")
    outside = [v for v in y.vertices if not contains(x, v)]
    if not outside:
        return ZERO_REAL
    if norm is Norm.L2:
        faces = _distance_faces(x)
        worst = max(_sqdist_outside(v, x, faces) for v in outside)
        return sqrt_upper(worst)
    vals = [_polyhedral_distance_lp(v, x, norm) for v in outside]
    return RoundedReal(max(vals))


def hausdorff(a: Polytope, b: Polytope, norm: Norm = Norm.L2) -> RoundedReal:
    d1 = directed_hausdorff(a, b, norm)
    d2 = directed_hausdorff(b, a, norm)
    return d1 if d1.value >= d2.value else d2


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
    """Lebesgue measure in the ambient dimension, exact."""
    ch = p._chart
    n, k = ch.ambient, ch.k
    if k < n:
        return Fraction(0)
    verts = p.vertices
    if n == 1:
        return verts[-1][0] - verts[0][0]
    if n == 2:
        return _polygon_area(_ccw_sorted(verts))
    c = vertex_centroid(p)
    total = Fraction(0)
    for facet in _facet_rings(p):
        for i in range(1, len(facet) - 1):
            e1 = vsub(facet[0], c)
            e2 = vsub(facet[i], c)
            e3 = vsub(facet[i + 1], c)
            det = dot(e1, _cross3(e2, e3))
            total += abs(det)
    return total / 6


def _polygon_area(ring: Sequence[Point]) -> Fraction:
    acc = Fraction(0)
    m = len(ring)
    for i in range(m):
        acc += _cross2(ring[i], ring[(i + 1) % m])
    return abs(acc) / 2
