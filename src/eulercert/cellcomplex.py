"""Exact cell decompositions induced by polytope boundaries, as one recursion.

:func:`_stack` cuts space along the last axis into pieces, each with a
representative point and the value on it of f = sum of c 1[P] over n-D terms
(c, P).  :func:`arrangement` (the cells of dims 1 and 2), ``nonzero_cells``,
``equals``, ``oracle_integral`` and ``metric_eval`` all read it.  In 1-D the
pieces are the cells: the inputs' endpoints and the open intervals between
and beyond them, a value read off the cuts' intervals.

Dimension n = 2, 3 is a stack of (n - 1)-D slices (Viro, "Some integral
calculus based on Euler characteristic", 1988): one wall at each event height
in Z, where n independent chart rows of the inputs meet
(:func:`_event_heights`; n rows of an input meet at each of its vertices),
and one open slab between consecutive walls and beyond each end.  Each is
cut by :func:`_slice` at its height (a slab at mid-height), equal cuts merged
and cancelled ones dropped, and stacked on the recursion one dimension down.
On a wall, x lies in an input exactly when it lies in the input's slice.

* 2-D pieces are cells.  Every boundary point of an input lies on a row, and
  a row passes through a vertex, so a horizontal row is a wall.  Inside an
  open slab no two rows cross, so the inputs' boundaries cross it as segments
  in a fixed left-to-right order.  The mid-height slice meets each piece
  between them once: its 0-cells are open segments and its 1-cells open
  trapezoids, of area the slab width times their mid-height length, exactly,
  as that length is affine.
* 3-D pieces are not cells, as the walls of a slice can swap order inside a
  slab, and carry no volume.  Equality, the sup and the integral oracle need
  only two facts.  (i) Every value of f shows on a piece.  The chart rows
  cut space into cells on which f is constant; they span R^3, so every cell
  has in its closure a vertex, where three independent rows meet.  A cell
  where f != 0 is bounded, so its z-range is a point of Z or an open
  interval between two points of Z, holding the mid-height of a gap.  (ii)
  The signed count of the bounded pieces, sum of (-1)^dim f, is the Euler
  integral of f (Fubini): the slices' integrals at the walls, less those at
  mid-height of the gaps, on each of which the integral of f_z is constant.

With R distinct rows, |Z| <= C(R, n) and 2|Z| + 1 slices are cut, at most
2|Z| - 1 of them holding a cut: the slabs beyond the ends meet no input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .geometry import Point, Polytope, _cross3, _planes, dot

Terms = Sequence[tuple[int, Polytope]]


@dataclass(frozen=True)
class Cell:
    dimension: int
    representative: Point
    bounded: bool
    volume: Optional[Fraction] = None  # bounded full-dimensional cells in dims 1-2 only


@dataclass(frozen=True)
class CellComplex:
    dimension: int
    cells: tuple[Cell, ...]


def arrangement(polytopes: Sequence[Polytope], dimension: Optional[int] = None) -> CellComplex:
    """Exact decomposition for dimensions 1 and 2, in cell order."""
    if dimension is None:
        if not polytopes:
            raise ValueError("dimension required for an empty polytope list")
        dimension = polytopes[0].dimension
    if any(p.dimension != dimension for p in polytopes):
        raise ValueError("dimension mismatch among polytopes")
    if dimension not in (1, 2):
        raise ValueError("exact arrangements support dimensions 1 and 2 only")
    cells = [c for c, _ in _stack([(1, p) for p in polytopes], dimension)]
    cells.sort(key=lambda c: (c.dimension, c.representative))
    return CellComplex(dimension, tuple(cells))


def _stack(terms: Terms, n: int) -> Iterator[tuple[Cell, int]]:
    """The pieces of the n-D terms' arrangement, each with the value of the
    terms' sum on it, lazily, slice by slice (in 1-D, in cell order)."""
    if n == 1:
        yield from _line(terms)
        return
    zs = _event_heights([p for _, p in terms])
    # (height, width) of every wall (width 0) and slab (width None: unbounded)
    slices = [(z, 0) for z in zs] + [((a + b) / 2, b - a) for a, b in zip(zs, zs[1:])]
    slices += [(zs[0] - 1, None), (zs[-1] + 1, None)] if zs else [(Fraction(0), None)]
    spans = []  # each term's height range [lo, hi] / D, read once
    for c, p in terms:
        den, nums = p._ints
        spans.append((c, p, den, min(v[-1] for v in nums), max(v[-1] for v in nums)))
    for z, width in slices:
        h, q = z.numerator, z.denominator
        cuts: dict[Polytope, int] = {}
        for c, p, den, lo, hi in spans:
            if lo * q <= h * den <= hi * q:  # only a term that z = h / q meets is cut
                s = _slice(p, z)
                cuts[s] = cuts.get(s, 0) + c
        for cell, v in _stack([(c, s) for s, c in cuts.items() if c], n - 1):
            rep = cell.representative + (z,)
            if width == 0:  # a wall's pieces are pieces of the space as they stand
                yield Cell(cell.dimension, rep, cell.bounded), v
            elif width is None:
                yield Cell(cell.dimension + 1, rep, False), v
            else:
                area = width * cell.volume if n == 2 and cell.volume is not None else None
                yield Cell(cell.dimension + 1, rep, cell.bounded, area), v


def _line(terms: Terms) -> Iterator[tuple[Cell, int]]:
    """The 1-D cells in cell order, a cell's value summed over the terms whose
    interval [lo, hi] covers it."""
    spans = [(c, p.vertices[0][0], p.vertices[-1][0]) for c, p in terms]
    xs = sorted({x for _, lo, hi in spans for x in (lo, hi)})

    def value(a: Fraction, b: Fraction) -> int:
        return sum(c for c, lo, hi in spans if lo <= a and b <= hi)

    for x in xs:
        yield Cell(0, (x,), True), value(x, x)
    if not xs:
        yield Cell(1, (Fraction(0),), False), 0
        return
    yield Cell(1, (xs[0] - 1,), False), 0
    for a, b in zip(xs, xs[1:]):
        yield Cell(1, ((a + b) / 2,), True, b - a), value(a, b)
    yield Cell(1, (xs[-1] + 1,), False), 0


def _event_heights(supports: Sequence[Polytope]) -> list[Fraction]:
    """The sorted last coordinates of the points where n independent chart
    rows of n-D supports meet (n = 2, 3), by Cramer's rule on the integer
    rows: the cofactors w of n - 1 rows give the determinant w . c with each
    later row c, and wz, with the rows' last normal entry replaced by their
    right-hand side, the numerator."""
    rows = _planes(supports)
    if not rows:
        return []
    n = len(rows[0]) - 1
    zrows = [r[: n - 1] + r[n:] for r in rows]
    cof = _cross3 if n == 3 else (lambda a: (-a[1], a[0]))
    zs = set()
    for lead in combinations(range(len(rows)), n - 1):
        w = cof(*(rows[i] for i in lead))
        wz = cof(*(zrows[i] for i in lead))
        for j in range(lead[-1] + 1, len(rows)):
            det = dot(w, rows[j])
            if det:
                zs.add(Fraction(dot(wz, zrows[j]), det))
    return sorted(zs)


def _slice(p: Polytope, z: Fraction) -> Optional[Polytope]:
    """The polytope, one dimension down, that p = V / D meets the plane H at
    height z = h / q in, cut from p's edges with no hull (Ziegler, *Lectures
    on Polytopes*, 1995): the face of p holding a slice vertex in its relative
    interior meets H in it alone, so the vertices are p's vertices on H and,
    as edges share at most an end, the distinct crossings (s_b A - s_a B) /
    (D (s_b - s_a)) of edges A, B with sides s_a s_b < 0, s = q V_n - h D."""
    den, nums = p._ints
    sides = [(z.denominator * v[-1] - z.numerator * den, v[:-1]) for v in nums]
    pts = [tuple(Fraction(x, den) for x in a) for s, a in sides if not s]
    for (sa, a), (sb, b) in ((sides[i], sides[j]) for i, j in p._edges):
        if sa * sb < 0:
            pts.append(tuple(Fraction(sb * x - sa * y, den * (sb - sa)) for x, y in zip(a, b)))
    return Polytope(tuple(sorted(pts))) if pts else None
