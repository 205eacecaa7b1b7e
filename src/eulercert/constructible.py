"""Compactly supported PL constructible functions.

A function is a finite formal integer combination of indicators of compact
convex polytopes.  The group operations, evaluation, Euler integration and
pushforward along affine maps all stay in exact rational arithmetic; a
combinatorial cell-complex route provides independent oracles for the
integral, for pushforward values and for equality testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import _simplex
from .cellcomplex import Cell, arrangement
from .geometry import (
    AffineMap,
    Point,
    Polytope,
    affine_image,
    as_point,
    contains,
    vertex_centroid,
    vadd,
    vscale,
)


@dataclass(frozen=True)
class Term:
    coeff: int
    support: Polytope

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero coefficient")


@dataclass(frozen=True)
class ConstructibleFunction:
    dimension: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if any(t.support.dimension != self.dimension for t in self.terms):
            raise ValueError("term dimension mismatch")

    def __add__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return normalize(ConstructibleFunction(self.dimension, self.terms + other.terms))

    def __neg__(self) -> "ConstructibleFunction":
        return ConstructibleFunction(
            self.dimension, tuple(Term(-t.coeff, t.support) for t in self.terms)
        )

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        return self + (-other)

    def __rmul__(self, k: int) -> "ConstructibleFunction":
        if k == 0:
            return ConstructibleFunction(self.dimension, ())
        return normalize(
            ConstructibleFunction(
                self.dimension, tuple(Term(k * t.coeff, t.support) for t in self.terms)
            )
        )

    def supports(self) -> tuple[Polytope, ...]:
        return tuple(t.support for t in self.terms)


def indicator(p: Polytope) -> ConstructibleFunction:
    return ConstructibleFunction(p.dimension, (Term(1, p),))


def zero_function(dimension: int) -> ConstructibleFunction:
    return ConstructibleFunction(dimension, ())


def from_terms(dimension: int, pairs: Sequence[tuple[int, Polytope]]) -> ConstructibleFunction:
    return normalize(
        ConstructibleFunction(dimension, tuple(Term(c, p) for c, p in pairs if c != 0))
    )


def normalize(f: ConstructibleFunction) -> ConstructibleFunction:
    """Merge terms with structurally equal supports, drop zero coefficients."""
    merged: dict[Polytope, int] = {}
    for t in f.terms:
        merged[t.support] = merged.get(t.support, 0) + t.coeff
    terms = tuple(
        Term(c, p) for p, c in sorted(merged.items(), key=lambda kv: kv[0].vertices) if c != 0
    )
    return ConstructibleFunction(f.dimension, terms)


def evaluate(f: ConstructibleFunction, x) -> int:
    pt = as_point(x)
    if len(pt) != f.dimension:
        raise ValueError("dimension mismatch")
    return sum(t.coeff for t in f.terms if contains(t.support, pt))


def euler_integral(f: ConstructibleFunction) -> int:
    """Sum of coefficients: each support is compact convex, so it counts 1."""
    return sum(t.coeff for t in f.terms)


def oracle_integral(f: ConstructibleFunction) -> int:
    """Independent route: alternating sum over bounded open cells.

    Exact in dimensions 1 and 2.  Each bounded cell of the induced
    decomposition contributes its value times (-1)^dim, which realizes the
    compactly supported Euler characteristic of the level sets.
    """
    if f.dimension > 2:
        raise ValueError("oracle integral requires dimension <= 2")
    total = 0
    for cell, v in nonzero_cells(f):
        if cell.bounded:
            total += v if cell.dimension % 2 == 0 else -v
    return total


def nonzero_cells(f: ConstructibleFunction) -> Iterator[tuple[Cell, int]]:
    """The cells of the arrangement of f's own supports where f is nonzero.

    Yields each such cell with f's value on it, in cell order (dimensions 1
    and 2).  f is constant on every cell, so f is zero exactly when nothing
    is yielded; a function without terms builds no arrangement at all.
    """
    if not f.terms:
        return
    for cell in arrangement(f.supports(), f.dimension).cells:
        v = evaluate(f, cell.representative)
        if v:
            yield cell, v


class Verdict(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    PROBABLY_EQUAL = "probably-equal"


@dataclass(frozen=True)
class EvalReport:
    verdict: Verdict
    witness: Optional[Point] = None


def equals(
    f: ConstructibleFunction,
    g: ConstructibleFunction,
    *,
    sample_density: int = 64,
    seed: int = 7,
) -> EvalReport:
    """Pointwise equality, decided on the difference h = f - g.

    Normalizing h cancels terms with structurally equal supports, so equal
    functions written alike leave no term and need no geometry.  Otherwise
    h is decided exactly through the cell decomposition of its own supports
    in dimensions 1 and 2 (every cell of every dimension is probed, so
    boundary effects are visible), and the witness is a point where f and g
    differ.  Dimension 3 probes deterministic samples taken from the
    supports of f and g and can only answer probably-equal.
    """
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    h = f - g
    if f.dimension <= 2:
        for cell, _ in nonzero_cells(h):
            return EvalReport(Verdict.NOT_EQUAL, cell.representative)
        return EvalReport(Verdict.EQUAL)
    if h.terms:
        for pt in _probe_points(f.supports() + g.supports(), f.dimension, sample_density, seed):
            if evaluate(h, pt):
                return EvalReport(Verdict.NOT_EQUAL, pt)
    return EvalReport(Verdict.PROBABLY_EQUAL)


def _probe_points(
    supports: Sequence[Polytope], dimension: int, density: int, seed: int
) -> list[Point]:
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
                    shift = tuple(
                        c + sign * delta if k == axis else c for k, c in enumerate(a)
                    )
                    pts.add(shift)
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
            pts.add(
                tuple(
                    a + (b - a) * Fraction(rng.randrange(grid + 1), grid)
                    for a, b in zip(lo, hi)
                )
            )
    return sorted(pts)


def pushforward(f: ConstructibleFunction, m: AffineMap) -> ConstructibleFunction:
    """Direct image along an affine map: each support maps to its hull image.

    Fibers of an affine map sliced against a compact convex support are
    compact convex, so per-term the image indicator picks up the whole
    coefficient.
    """
    if m.domain_dim != f.dimension:
        raise ValueError("dimension mismatch")
    return from_terms(
        m.codomain_dim, [(t.coeff, affine_image(m, t.support)) for t in f.terms]
    )


def oracle_pushforward_at(f: ConstructibleFunction, m: AffineMap, y) -> int:
    """Direct image value at y from the definition: per-fiber slices.

    Decides emptiness of each slice support /\\ m^{-1}(y) by exact rational
    feasibility, independent of the hull-image construction.
    """
    if m.domain_dim != f.dimension:
        raise ValueError("dimension mismatch")
    target = as_point(y)
    if len(target) != m.codomain_dim:
        raise ValueError("dimension mismatch")
    total = 0
    for t in f.terms:
        if _slice_nonempty(t.support, m, target):
            total += t.coeff
    return total


def _slice_nonempty(p: Polytope, m: AffineMap, y: Point) -> bool:
    imgs = [m(v) for v in p.vertices]
    k = len(imgs)
    rows = []
    rhs = []
    for i in range(m.codomain_dim):
        rows.append([imgs[j][i] - m.offset[i] for j in range(k)])
        rhs.append(y[i] - m.offset[i])
    rows.append([Fraction(1)] * k)
    rhs.append(Fraction(1))
    return _simplex.feasible(rows, rhs)
