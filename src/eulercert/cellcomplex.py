"""Exact cell decompositions induced by polytope boundaries (dims 1 and 2).

Every input polytope is a union of cells, and every cell of every dimension
carries a representative point in its relative interior, so membership
predicates are constant per cell.  Bounded full-dimensional cells carry
their exact measure.  In 1-D the cells are the inputs' vertices and the open
intervals between and beyond them.

2-D is a stack of 1-D slices along y (Viro, "Some integral calculus based on
Euler characteristic", 1988): one wall y = y0 at each event height y0 in Y,
where two independent chart rows of the inputs meet (:func:`_event_heights`),
and one open slab between consecutive walls and beyond each end.  Each wall
and slab is cut by the 1-D cells of its slice, and the cells are valid:

* every boundary point of an input lies on a row, and every vertex on a
  wall, where two rows of its polytope meet; a row passes through a vertex
  of its polytope, so a horizontal row is a wall as well;
* inside an open slab no two rows cross, so the inputs' boundaries cross it
  as segments that keep their left-to-right order at every height.  The
  slice at mid-height meets each piece between them once: its 0-cells are
  open segments and its 1-cells open trapezoids, whose area is the slab
  width times their mid-height length, exactly, as that length is affine;
* on a wall, (x, y0) lies in an input exactly when x lies in its slice.

With R distinct rows, |Y| <= C(R, 2) and 2|Y| + 1 slices are cut.  3-D
equality (:func:`constructible.equals`) slices with the same two routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .geometry import Point, Polytope, _cross3, _planes, dot, from_vertices


@dataclass(frozen=True)
class Cell:
    dimension: int
    representative: Point
    bounded: bool
    volume: Optional[Fraction] = None  # bounded full-dimensional cells only


@dataclass(frozen=True)
class CellComplex:
    dimension: int
    cells: tuple[Cell, ...]


def arrangement(polytopes: Sequence[Polytope], dimension: Optional[int] = None) -> CellComplex:
    """Exact decomposition for dimensions 1 and 2."""
    if dimension is None:
        if not polytopes:
            raise ValueError("dimension required for an empty polytope list")
        dimension = polytopes[0].dimension
    if any(p.dimension != dimension for p in polytopes):
        raise ValueError("dimension mismatch among polytopes")
    if dimension == 1:
        return _arrangement_1d(polytopes)
    if dimension == 2:
        return _arrangement_2d(polytopes)
    raise ValueError("exact arrangements support dimensions 1 and 2 only")


def _arrangement_1d(polytopes: Sequence[Polytope]) -> CellComplex:
    xs = sorted({v[0] for p in polytopes for v in p.vertices})
    cells: list[Cell] = []
    for x in xs:
        cells.append(Cell(0, (x,), True))
    for a, b in zip(xs, xs[1:]):
        cells.append(Cell(1, ((a + b) / 2,), True, b - a))
    if xs:
        cells.append(Cell(1, (xs[0] - 1,), False))
        cells.append(Cell(1, (xs[-1] + 1,), False))
    else:
        cells.append(Cell(1, (Fraction(0),), False))
    cells.sort(key=lambda c: (c.dimension, c.representative))
    return CellComplex(1, tuple(cells))


def _arrangement_2d(polytopes: Sequence[Polytope]) -> CellComplex:
    ys = _event_heights(polytopes)
    # (height, width) of every wall (width 0) and slab (width None: unbounded)
    slices = [(y, 0) for y in ys] + [((a + b) / 2, b - a) for a, b in zip(ys, ys[1:])]
    if ys:
        slices += [(ys[0] - 1, None), (ys[-1] + 1, None)]
    else:
        slices.append((Fraction(0), None))
    cells: list[Cell] = []
    for y, width in slices:
        cuts = [s for s in (_slice(p, y) for p in polytopes) if s is not None]
        for c in _arrangement_1d(cuts).cells:
            rep = c.representative + (y,)
            if width == 0:  # a wall's cells are cells of the plane as they stand
                cells.append(Cell(c.dimension, rep, c.bounded))
            elif width is None:
                cells.append(Cell(c.dimension + 1, rep, False))
            else:
                area = None if c.volume is None else width * c.volume
                cells.append(Cell(c.dimension + 1, rep, c.bounded, area))
    cells.sort(key=lambda c: (c.dimension, c.representative))
    return CellComplex(2, tuple(cells))


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
    """The polytope, one dimension down, that p meets the hyperplane {last
    coordinate = z} in: the hull of p's vertices at height z and of the
    points where segments joining vertices on either side cross it."""
    at, below, above = [], [], []
    for v in p.vertices:
        (below if v[-1] < z else above if v[-1] > z else at).append(v)
    pts = [v[:-1] for v in at]
    for a in below:
        for b in above:
            t = (z - a[-1]) / (b[-1] - a[-1])
            pts.append(tuple(x + t * (y - x) for x, y in zip(a[:-1], b[:-1])))
    return from_vertices(pts) if pts else None
