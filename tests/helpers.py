"""Seeded generators and independent brute-force oracles for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from eulercert import _simplex, jsonio
from eulercert.cellcomplex import arrangement
from eulercert.certify import Certificate, MetricKind
from eulercert.constructible import ConstructibleFunction, EvalReport, Term, Verdict, evaluate, from_terms
from eulercert.distance import pair_bound
from eulercert.geometry import (
    Norm,
    Point,
    Polytope,
    RoundedReal,
    _ccw_sorted,
    _cross3,
    _in_hull_lp,
    as_point,
    dot,
    from_vertices,
    norm_value,
    sqrt_upper,
    translate,
    vadd,
    vertex_centroid,
    vscale,
    vsub,
)
from eulercert.sheafsum import SheafSum, Summand, Support, difference, plain, sheaf_sum
from eulercert.geometry import homothet

def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, dens=(1, 2, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_point(rng: random.Random, dim: int, lo=-4, hi=4, dens=(1, 2, 4)) -> Point:
    return tuple(rand_fraction(rng, lo, hi, dens) for _ in range(dim))


def rand_polytope(
    rng: random.Random, dim: int, max_vertices: int = 8, lo=-4, hi=4, dens=(1, 2, 4)
) -> Polytope:
    k = rng.randint(1, max_vertices)
    return from_vertices([rand_point(rng, dim, lo, hi, dens) for _ in range(k)])


def interior_point(rng: random.Random, p: Polytope) -> Point:
    """Random strictly positive convex combination of the vertices."""
    weights = [Fraction(rng.randint(1, 8)) for _ in p.vertices]
    total = sum(weights)
    acc = tuple(Fraction(0) for _ in range(p.dimension))
    for w, v in zip(weights, p.vertices):
        acc = vadd(acc, vscale(w / total, v))
    return acc


def rand_cf(
    rng: random.Random,
    dim: int,
    max_terms: int = 4,
    max_vertices: int = 6,
    coeff_range: int = 3,
    lo=-4,
    hi=4,
    dens=(1, 2, 4),
) -> ConstructibleFunction:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([k for k in range(-coeff_range, coeff_range + 1) if k != 0])
        pairs.append((c, rand_polytope(rng, dim, max_vertices, lo, hi, dens)))
    return from_terms(dim, pairs)


def rand_sheaf(
    rng: random.Random,
    dim: int,
    max_summands: int = 8,
    max_vertices: int = 5,
    shift_range: int = 2,
    max_mult: int = 3,
) -> SheafSum:
    summands = []
    for _ in range(rng.randint(1, max_summands)):
        outer = rand_polytope(rng, dim, max_vertices)
        shift = rng.randint(-shift_range, shift_range)
        mult = rng.randint(1, max_mult)
        if rng.random() < 0.5 and len(outer.vertices) > 1:
            t = Fraction(rng.randint(1, 7), 8)
            inner = homothet(outer, interior_point(rng, outer), t)
            if inner != outer:
                summands.append(difference(outer, inner, shift, mult))
                continue
        summands.append(plain(outer, shift, mult))
    return sheaf_sum(dim, summands)


def rand_nearby_sheaf(rng: random.Random, s: SheafSum, max_mult: int = 3, reach: int = 4) -> SheafSum:
    """A sheaf with the global sections of s, mostly built from its summands.

    Plain summands keep shift and multiplicity and may move by a translation
    of up to `reach` per coordinate; differences are kept, translated by up to
    1, moved to another shift or dropped, with a fresh multiplicity, and one
    random difference may be added.
    """
    dim = s.dimension
    out = []
    for sm in s.summands:
        sup = sm.support
        r = 1 if sup.is_difference else reach
        v = rand_point(rng, dim, -r, r)
        moved = Support(translate(sup.outer, v), None if sup.inner is None else translate(sup.inner, v))
        if sup.inner is None:
            out.append(Summand(rng.choice([sup, moved]), sm.shift, sm.multiplicity))
        elif rng.random() < 0.8:
            shift = sm.shift + rng.choice([0, 0, 1])
            out.append(Summand(rng.choice([sup, moved]), shift, rng.randint(1, max_mult)))
    extra = [x for x in rand_sheaf(rng, dim, 1, max_mult=max_mult).summands if x.support.is_difference]
    return sheaf_sum(dim, out + extra)


def split_indicator(rng: random.Random, p: Polytope) -> ConstructibleFunction:
    """The indicator of p written with other terms: p cut along a chord.

    The two pieces minus the chord; in 3-D the chord is p's section by a
    plane through a point inside p.  A point, which has no chord, stays as it
    is.
    """
    dim = p.dimension
    if len(p.vertices) == 1:
        return from_terms(dim, [(1, p)])
    if len(p.vertices) == 2:
        a, b = p.vertices
        m = vadd(a, vscale(Fraction(rng.randint(1, 3), 4), vsub(b, a)))
        return from_terms(dim, [(1, from_vertices([a, m])), (1, from_vertices([m, b])), (-1, from_vertices([m]))])
    if dim == 3:
        # cut by a plane through a relative interior point, with a random normal
        normal = (rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        level = dot(normal, interior_point(rng, p))
        side = {v: dot(normal, v) - level for v in p.vertices}
        section = [v for v in p.vertices if side[v] == 0] + [
            vadd(a, vscale(side[a] / (side[a] - side[b]), vsub(b, a)))
            for a in p.vertices
            for b in p.vertices
            if side[a] < 0 < side[b]
        ]
        below = [v for v in p.vertices if side[v] < 0] + section
        above = [v for v in p.vertices if side[v] > 0] + section
        return from_terms(3, [(1, from_vertices(below)), (1, from_vertices(above)), (-1, from_vertices(section))])
    ring = _ccw_sorted(p.vertices)
    if len(ring) == 3:
        mid = vscale(Fraction(1, 2), vadd(ring[1], ring[2]))
        ring = [ring[0], ring[1], mid, ring[2]]
        j = 2
    else:
        j = rng.randint(2, len(ring) - 2)
    pieces = [ring[: j + 1], ring[j:] + ring[:1], [ring[0], ring[j]]]
    return from_terms(dim, [(1, from_vertices(pieces[0])), (1, from_vertices(pieces[1])), (-1, from_vertices(pieces[2]))])


def prism(f: ConstructibleFunction) -> ConstructibleFunction:
    """The 3-D function f x 1[0, 1] of a 2-D function f."""
    return from_terms(3, [(t.coeff, from_vertices([v + (z,) for v in t.support.vertices for z in (0, 1)])) for t in f.terms])


def rand_equality_pair(rng: random.Random, dim: int) -> tuple[ConstructibleFunction, ConstructibleFunction]:
    """Two functions for equality tests, f and g of one of four kinds.

    g is f with one support cut along a chord (equal, written with other
    terms), f plus a term and its structurally equal rewrite subtracted
    (cancelling terms), f plus a cut polytope minus the polytope (terms that
    cancel only pointwise), or f moved by one point mass at a vertex, an edge
    point or a random point (one-point perturbation, possibly on top of a
    cut).
    """
    f = rand_cf(rng, dim, max_terms=3, max_vertices=5)
    kind = rng.randrange(4)
    t = rng.choice(f.terms)
    cut = f + t.coeff * (split_indicator(rng, t.support) - from_terms(dim, [(1, t.support)]))
    if kind == 0:
        return f, cut
    if kind == 1:
        p = rand_polytope(rng, dim, 5)
        same = from_vertices(p.vertices + (interior_point(rng, p),))
        return f, from_terms(dim, [(tt.coeff, tt.support) for tt in f.terms] + [(2, p), (-2, same)])
    if kind == 2:
        p = rand_polytope(rng, dim, 5)
        return f, f + split_indicator(rng, p) - from_terms(dim, [(1, p)])
    verts = rng.choice(f.terms).support.vertices
    a, b = rng.choice(verts), rng.choice(verts)
    pt = rng.choice([a, vscale(Fraction(1, 2), vadd(a, b)), rand_point(rng, dim)])
    return f, rng.choice([f, cut]) + from_terms(dim, [(rng.choice([-1, 1]), from_vertices([pt]))])


# --- independent oracles -----------------------------------------------------


def caratheodory_contains(points: Sequence[Point], x: Point) -> bool:
    """x in conv(points) iff x lies in some small affinely independent simplex."""
    dim = len(x)
    for size in range(1, dim + 2):
        for subset in itertools.combinations(points, size):
            lam = _barycentric(subset, x)
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def contains_oracle(p: Polytope, x) -> bool:
    """Independent membership test: convex-combination LP feasibility."""
    pt = as_point(x)
    if len(pt) != p.dimension:
        raise ValueError("dimension mismatch")
    return _in_hull_lp(p.vertices, pt)


def fraction_homothet(p: Polytope, center: Point, ratio: Fraction) -> Polytope:
    """p scaled toward a center in p by a ratio in [0, 1], in Fractions: the
    point fixed + ratio v for each vertex v, with fixed = (1 - ratio) center."""
    if ratio == 1:
        return p
    if ratio == 0:
        return Polytope((center,))
    fixed = vscale(1 - ratio, center)
    # a positive ratio keeps extremeness and the lexicographic order
    return Polytope(tuple(vadd(fixed, vscale(ratio, v)) for v in p.vertices))


def fraction_reach(p: Polytope, center: Point, norm: Norm) -> RoundedReal:
    """The largest norm of v - center over the vertices v of p, in Fractions."""
    if norm is Norm.L2:
        return sqrt_upper(max(dot(vsub(v, center), vsub(v, center)) for v in p.vertices))
    return RoundedReal(max(norm_value(vsub(v, center), norm).value for v in p.vertices))


def fraction_slice(p: Polytope, z: Fraction) -> Optional[Polytope]:
    """The polytope, one dimension down, that p meets the hyperplane {last
    coordinate = z} in, in Fractions: the hull of p's vertices at height z and
    of the points where segments joining vertices on either side cross it."""
    at, below, above = [], [], []
    for v in p.vertices:
        (below if v[-1] < z else above if v[-1] > z else at).append(v)
    pts = [v[:-1] for v in at]
    for a in below:
        for b in above:
            t = (z - a[-1]) / (b[-1] - a[-1])
            pts.append(tuple(x + t * (y - x) for x, y in zip(a[:-1], b[:-1])))
    return from_vertices(pts) if pts else None


def lp_hull(points: Sequence[Point]) -> tuple[Point, ...]:
    """Sorted extreme points: those outside the hull of the others, by one LP each."""
    uniq = set(points)
    return tuple(sorted(p for p in uniq if not _in_hull_lp([q for q in uniq if q != p], p)))


def polygon_ineqs(verts: Sequence[Point]) -> list[tuple[Point, Fraction]]:
    """Rational half-planes (a, b), a.x <= b, of a full-dimensional polygon."""
    # the interior lies to the left of every edge of the counterclockwise ring
    ring = _ccw_sorted(verts)
    ineqs = []
    m = len(ring)
    for i in range(m):
        p, q = ring[i], ring[(i + 1) % m]
        a: Point = (q[1] - p[1], p[0] - q[0])
        ineqs.append((a, dot(a, p)))
    return ineqs


def shoelace_area(ring: Sequence[Point]) -> Fraction:
    """Area of the polygon with this vertex ring, by the shoelace formula."""
    return abs(sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(ring, ring[1:] + ring[:1]))) / 2


def _primitive(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer tuple with the direction of a rational one."""
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


def polyhedron_ineqs(verts: Sequence[Point]) -> list[tuple[Point, Fraction]]:
    """Rational facet half-spaces (a, b), a.x <= b, of a full-dimensional 3-polytope,
    each as its primitive integer row, from every vertex triple."""
    seen: dict[tuple[tuple[int, ...], Fraction], tuple[Point, Fraction]] = {}
    for i, j, k in itertools.combinations(range(len(verts)), 3):
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


def gram_sqdist(x: Point, simplex: Sequence[Point]) -> Fraction:
    """Squared L2 distance from x to the hull of a few points, in Fractions.

    Every subset of the points is tried: the projection of x onto its affine
    hull, from the Gram system of its edge vectors, counts when its
    coordinates make a convex combination.  Each candidate is a point of the
    hull, and the nearest point lies inside some affinely independent
    subset, whose projection is unique, so the least candidate is exact.
    """
    best: Optional[Fraction] = None
    for size in range(1, len(simplex) + 1):
        for subset in itertools.combinations(simplex, size):
            w0 = subset[0]
            dirs = [vsub(w, w0) for w in subset[1:]]
            rel = vsub(x, w0)
            if not dirs:
                cand = dot(rel, rel)
            else:
                g = [[dot(di, dj) for dj in dirs] for di in dirs]
                r = [dot(di, rel) for di in dirs]
                s = _solve_coords([tuple(col) for col in zip(*g)], tuple(r))
                if s is None or any(si < 0 for si in s) or sum(s) > 1:
                    continue
                proj = w0
                for si, di in zip(s, dirs):
                    proj = vadd(proj, vscale(si, di))
                cand = dot(vsub(x, proj), vsub(x, proj))
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def oracle_sqdist(x: Point, p: Polytope) -> Fraction:
    """Squared L2 distance from x to p with no face structure: by Caratheodory
    p is the union of the simplices on n + 1 of its vertices (fewer when it
    has fewer), so the least :func:`gram_sqdist` over those is exact."""
    size = min(len(x) + 1, len(p.vertices))
    return min(gram_sqdist(x, s) for s in itertools.combinations(p.vertices, size))


def lp_distance(x: Point, p: Polytope, norm: Norm) -> Fraction:
    """L1 or L-infinity distance from x to p, by one exact simplex LP.

    Minimize the sum of t_i (L1) or one t (L-infinity) over convex weights
    lam of p's vertices with -t_i <= x_i - (V lam)_i <= t_i, the two sides
    as equalities with slack columns.
    """
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
        for sign, slack in ((1, k + nt + i), (-1, k + nt + n + i)):
            row = [Fraction(0)] * nv
            for j in range(k):
                row[j] = sign * verts[j][i]
            row[t_col(i)] = Fraction(1)
            row[slack] = Fraction(-1)
            rows.append(row)
            rhs.append(sign * x[i])
    rows.append([Fraction(1)] * k + [Fraction(0)] * (nv - k))
    rhs.append(Fraction(1))
    cost = [Fraction(0)] * nv
    for i in range(nt):
        cost[k + i] = Fraction(1)
    ok, _, value = _simplex.solve(rows, rhs, cost)
    assert ok, "distance LP infeasible for a nonempty polytope"
    return value


def _barycentric(subset: Sequence[Point], x: Point) -> Optional[list[Fraction]]:
    # solve sum lam_i v_i = x, sum lam_i = 1 by plain Gaussian elimination
    k = len(subset)
    dim = len(x)
    rows = [[subset[j][i] for j in range(k)] + [x[i]] for i in range(dim)]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    if len(pivots) < k:
        # affinely dependent subset: skip (a smaller subset will witness)
        return None
    lam = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        lam[c] = rows[i][-1]
    return lam


def brute_canonical(dimension: int, pairs: Sequence[tuple[int, Polytope]]) -> ConstructibleFunction:
    """The canonical function sum of c 1[P], by brute force: a Counter merge
    of the coefficients, zero sums dropped, sorted by vertices."""
    merged: Counter = Counter()
    for c, p in pairs:
        merged[p] += c
    kept = sorted((p.vertices, c, p) for p, c in merged.items() if c)
    return ConstructibleFunction(dimension, tuple(Term(c, p) for _, c, p in kept))


def brute_equals(f: ConstructibleFunction, g: ConstructibleFunction) -> EvalReport:
    """Equality by the arrangement of every support of f and g (dimensions 1, 2).

    Compares the values of f and g on each cell, with no cancellation first.
    """
    for cell in arrangement(f.supports() + g.supports(), f.dimension).cells:
        if evaluate(f, cell.representative) != evaluate(g, cell.representative):
            return EvalReport(Verdict.NOT_EQUAL, cell.representative)
    return EvalReport(Verdict.EQUAL)


def sampled_points(supports: Sequence[Polytope], dimension: int, density: int, seed: int = 7) -> list[Point]:
    """Deterministic probe points for a function on these supports (any dimension).

    Each vertex, each vertex shifted by 1/1024 along each axis, each
    vertex midpoint and centroid, the origin, and `density` seeded random
    points per unit volume of the bounding box grown by 1.  A point where
    two functions differ proves them unequal; no set of samples proves them
    equal, so this is an oracle for NOT_EQUAL only.
    """
    pts: set[Point] = {tuple(Fraction(0) for _ in range(dimension))}
    delta = Fraction(1, 1024)
    for p in supports:
        verts = p.vertices
        pts.update(verts)
        pts.add(vertex_centroid(p))
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                pts.add(vscale(Fraction(1, 2), vadd(a, b)))
            for axis in range(dimension):
                for sign in (1, -1):
                    pts.add(tuple(c + sign * delta if k == axis else c for k, c in enumerate(a)))
    if supports:
        coords = [v for p in supports for v in p.vertices]
        lo = [min(c[i] for c in coords) - 1 for i in range(dimension)]
        hi = [max(c[i] for c in coords) + 1 for i in range(dimension)]
        vol = 1
        for a, b in zip(lo, hi):
            vol *= b - a
        rng = random.Random(seed)
        grid = 1 << 20
        for _ in range(density * (int(vol) + 1)):
            pts.add(tuple(a + (b - a) * Fraction(rng.randrange(grid + 1), grid) for a, b in zip(lo, hi)))
    return sorted(pts)


def brute_metric(kind: MetricKind, f: ConstructibleFunction, g: ConstructibleFunction) -> RoundedReal:
    """SUP or L1 distance of f and g over the arrangement of all their supports."""
    cc = arrangement(f.supports() + g.supports(), f.dimension)
    if kind is MetricKind.SUP:
        worst = 0
        for cell in cc.cells:
            worst = max(worst, abs(evaluate(f, cell.representative) - evaluate(g, cell.representative)))
        return RoundedReal(Fraction(worst))
    total = Fraction(0)
    for cell in cc.cells:
        if cell.volume is None:
            continue
        d = evaluate(f, cell.representative) - evaluate(g, cell.representative)
        if d:
            total += abs(d) * cell.volume
    return RoundedReal(total)


def brute_bottleneck(left: Sequence[Summand], right: Sequence[Summand], norm: Norm = Norm.L2) -> Fraction:
    """Exhaustive minimum over partial bijections of the additivity bound.

    Returns the optimal value (math.inf when every partial bijection has an
    infinite bound), independently of the binary-search matcher.
    """
    nf, ng = len(left), len(right)
    cost = [[pair_bound(a, b, norm).value for b in right] for a in left]
    zf = [pair_bound(a, None, norm).value for a in left]
    zg = [pair_bound(None, b, norm).value for b in right]
    best = math.inf
    for k in range(0, min(nf, ng) + 1):
        for fsub in itertools.combinations(range(nf), k):
            for gsub in itertools.permutations(range(ng), k):
                worst = max(
                    [Fraction(0)]
                    + [cost[i][j] for i, j in zip(fsub, gsub)]
                    + [zf[i] for i in set(range(nf)) - set(fsub)]
                    + [zg[j] for j in set(range(ng)) - set(gsub)]
                )
                best = min(best, worst)
    return best


def brute_lex_matching(
    left: Sequence[Summand], right: Sequence[Summand], norm: Norm = Norm.L2
) -> Optional[tuple[int, ...]]:
    """Lexicographically least optimal partial bijection, by exhaustion.

    Entry i is the right unit matched to left unit i, or len(right) when i
    stays unmatched, so an unmatched unit ranks after every partner.  The
    least tuple is taken over all partial bijections of optimal value; None
    when every partial bijection has an infinite bound.
    """
    nf, ng = len(left), len(right)
    cost = [[pair_bound(a, b, norm).value for b in right] for a in left]
    zf = [pair_bound(a, None, norm).value for a in left]
    zg = [pair_bound(None, b, norm).value for b in right]
    best: list = [math.inf, None]  # optimal value, its least tuple

    def search(i: int, used: frozenset, worst: Fraction, choice: tuple) -> None:
        # tuples are visited in increasing order, so only a strictly better
        # value may replace the current best; an infinite one never does
        if worst >= best[0]:
            return
        if i == nf:
            total = max([worst] + [zg[j] for j in range(ng) if j not in used])
            if total < best[0]:
                best[:] = [total, choice]
            return
        for j in range(ng):
            if j not in used:
                search(i + 1, used | {j}, max(worst, cost[i][j]), choice + (j,))
        search(i + 1, used, max(worst, zf[i]), choice + (ng,))

    search(0, frozenset(), Fraction(0), ())
    return best[1]


def expand_units(s: SheafSum) -> list[Summand]:
    out = []
    for sm in s.summands:
        out.extend([Summand(sm.support, sm.shift, 1)] * sm.multiplicity)
    return out


def _multiplicities(rng: random.Random, k: int, total: int) -> list[int]:
    """k multiplicities of 1 to 3 summing to total (k <= total <= 3 k)."""
    mults = [1] * k
    while sum(mults) < total:
        i = rng.randrange(k)
        mults[i] += mults[i] < 3
    return mults


def crowded_bucket_pair(rng: random.Random, dim: int, max_units: int = 6) -> tuple[SheafSum, SheafSum]:
    """Two sheaves whose summands crowd into one bucket of the matcher.

    Either each side holds 3 to 5 small translates of one difference summand,
    or each side holds 2 to 4 plain summands of one shift; multiplicities run
    from 1 to 3, and both sides mostly hold the same number of unit copies, at
    most `max_units`.
    """
    translates = rng.random() < 0.5
    while translates:
        outer = rand_polytope(rng, dim, max_vertices=4)
        inner = homothet(outer, interior_point(rng, outer), Fraction(rng.randint(1, 7), 8))
        if inner != outer:
            break
    total = rng.randint(3, max_units)
    sides = []
    for _ in range(2):
        k = rng.randint(3, min(5, total)) if translates else rng.randint(2, min(4, total))
        units = total if rng.random() < 0.8 else rng.randint(k, min(max_units, 3 * k))
        mults = _multiplicities(rng, k, units)
        if translates:
            moves = [rand_point(rng, dim, -1, 1, dens=(4, 8)) for _ in mults]
            sides.append([difference(translate(outer, v), translate(inner, v), 0, m) for v, m in zip(moves, mults)])
        else:
            sides.append([plain(rand_polytope(rng, dim, 4, lo=-2, hi=2), 0, m) for m in mults])
    return sheaf_sum(dim, sides[0]), sheaf_sum(dim, sides[1])


def v1_cert_bytes(cert: Certificate) -> bytes:
    """The bytes `link --out` wrote for this certificate in format v1: every
    summand written out, flag levels included, and no version or norm."""
    def plain(s: SheafSum) -> SheafSum:
        return SheafSum(s.dimension, s.summands)

    steps = tuple(dataclasses.replace(st, left=plain(st.left), right=plain(st.right)) for st in cert.steps)
    blob = jsonio.cert_to_json(dataclasses.replace(cert, steps=steps, norm=cert.norm or Norm.L2))
    del blob["version"], blob["norm"]
    return (json.dumps(blob) + "\n").encode()
