"""Exact cell decompositions induced by polytope boundaries (dims 1 and 2).

The decomposition refines the line arrangement spanned by every facet line of
the inputs (plus transversal cap lines for degenerate inputs, so that points
and segment endpoints are arrangement vertices).  Every input polytope is a
union of cells, and every cell of every dimension carries a representative
point in its relative interior, so membership predicates are constant per
cell.  Bounded full-dimensional cells carry their exact measure.

Faces are enumerated by splitting a margin box that encloses all arrangement
vertices: each face of the line arrangement meets the box interior, so each
face yields exactly one convex piece, and a piece touches the box boundary
precisely when its face is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    Point,
    Polytope,
    _planes,
    _polygon_area,
    centroid,
    dot,
    vadd,
    vscale,
    vsub,
)


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


# --- 2-d -------------------------------------------------------------------


@dataclass(frozen=True)
class _Line:
    # a x + b y = c with (a, b, c) primitive integers, (a, b) lex-positive
    a: int
    b: int
    c: int

    def side(self, p: Point) -> Fraction:
        return self.a * p[0] + self.b * p[1] - self.c

    def direction(self) -> Point:
        return (-self.b, self.a)

    def anchor(self) -> Point:
        if self.b != 0:
            return (Fraction(0), Fraction(self.c, self.b))
        return (Fraction(self.c, self.a), Fraction(0))


def _intersect(l1: _Line, l2: _Line) -> Optional[Point]:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    return (Fraction(l1.c * l2.b - l2.c * l1.b, det), Fraction(l1.a * l2.c - l2.a * l1.c, det))


def _split(poly: list[Point], line: _Line) -> list[list[Point]]:
    sides = [line.side(p) for p in poly]
    if all(s >= 0 for s in sides) or all(s <= 0 for s in sides):
        return [poly]
    neg: list[Point] = []
    pos: list[Point] = []
    m = len(poly)
    for i in range(m):
        p, sp = poly[i], sides[i]
        q, sq = poly[(i + 1) % m], sides[(i + 1) % m]
        if sp <= 0:
            neg.append(p)
        if sp >= 0:
            pos.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            cut = vadd(p, vscale(t, vsub(q, p)))
            neg.append(cut)
            pos.append(cut)
    out = []
    for piece in (neg, pos):
        cleaned = [piece[i] for i in range(len(piece)) if piece[i] != piece[i - 1]]
        if len(cleaned) >= 3 and _polygon_area(cleaned) > 0:
            out.append(cleaned)
    return out or [poly]


def _arrangement_2d(polytopes: Sequence[Polytope]) -> CellComplex:
    # the chart rows: two axis lines through a point, a segment's line and its
    # two end caps, or a polygon's edge lines
    lines = [_Line(*r) for r in _planes(polytopes)]
    verts: set[Point] = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = _intersect(lines[i], lines[j])
            if pt is not None:
                verts.add(pt)

    cells: list[Cell] = [Cell(0, v, True) for v in verts]

    for ln in lines:
        d = ln.direction()
        on = sorted((v for v in verts if ln.side(v) == 0), key=lambda v: dot(v, d))
        if not on:
            cells.append(Cell(1, ln.anchor(), False))
            continue
        for a, b in zip(on, on[1:]):
            cells.append(Cell(1, vscale(Fraction(1, 2), vadd(a, b)), True))
        cells.append(Cell(1, vsub(on[0], d), False))
        cells.append(Cell(1, vadd(on[-1], d), False))

    coords = [v for p in polytopes for v in p.vertices] + list(verts)
    if coords:
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        x0, x1 = min(xs) - 1, max(xs) + 1
        y0, y1 = min(ys) - 1, max(ys) + 1
    else:
        x0, x1, y0, y1 = Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)
    box = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    pieces = [box]
    for ln in lines:
        pieces = [part for piece in pieces for part in _split(piece, ln)]
    for piece in pieces:
        touches = any(v[0] in (x0, x1) or v[1] in (y0, y1) for v in piece)
        rep = centroid(piece)
        if touches:
            cells.append(Cell(2, rep, False))
        else:
            cells.append(Cell(2, rep, True, _polygon_area(piece)))

    cells.sort(key=lambda c: (c.dimension, c.representative))
    return CellComplex(2, tuple(cells))
