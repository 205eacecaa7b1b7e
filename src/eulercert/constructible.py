"""Compactly supported PL constructible functions.

A function is a finite formal integer combination of indicators of compact
convex polytopes.  The group operations, evaluation, Euler integration and
pushforward along affine maps all stay in exact rational arithmetic; a
combinatorial cell-complex route provides independent oracles for the
integral, for pushforward values and for equality testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .cellcomplex import Cell, _stack
from .geometry import (
    AffineMap,
    Point,
    Polytope,
    _in_hull_lp,
    affine_image,
    as_point,
    contains,
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
        return from_terms(self.dimension, self._pairs() + other._pairs())

    def __neg__(self) -> "ConstructibleFunction":
        return from_terms(self.dimension, self._pairs(-1))

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return from_terms(self.dimension, self._pairs() + other._pairs(-1))

    def __rmul__(self, k: int) -> "ConstructibleFunction":
        return from_terms(self.dimension, self._pairs(k))

    def _pairs(self, k: int = 1) -> list[tuple[int, Polytope]]:
        return [(k * t.coeff, t.support) for t in self.terms]

    def supports(self) -> tuple[Polytope, ...]:
        return tuple(t.support for t in self.terms)


def indicator(p: Polytope) -> ConstructibleFunction:
    return ConstructibleFunction(p.dimension, (Term(1, p),))


def zero_function(dimension: int) -> ConstructibleFunction:
    return ConstructibleFunction(dimension, ())


def from_terms(dimension: int, pairs: Iterable[tuple[int, Polytope]]) -> ConstructibleFunction:
    """The canonical function sum of c 1[P]: coefficients merged per
    structurally equal support, zero sums dropped, terms sorted by vertices.
    This is the one place a function is made canonical."""
    merged: dict[Polytope, int] = {}
    for c, p in pairs:
        if c:
            if p.dimension != dimension:
                raise ValueError("term dimension mismatch")
            merged[p] = merged.get(p, 0) + c
    kept = sorted((p for p, c in merged.items() if c), key=lambda p: p.vertices)
    return ConstructibleFunction(dimension, tuple(Term(merged[p], p) for p in kept))


def normalize(f: ConstructibleFunction) -> ConstructibleFunction:
    """f in canonical form (:func:`from_terms`)."""
    return from_terms(f.dimension, f._pairs())


def evaluate(f: ConstructibleFunction, x) -> int:
    pt = as_point(x)
    if len(pt) != f.dimension:
        raise ValueError("dimension mismatch")
    return sum(t.coeff for t in f.terms if contains(t.support, pt))


def euler_integral(f: ConstructibleFunction) -> int:
    """Sum of coefficients: each support is compact convex, so it counts 1."""
    return sum(t.coeff for t in f.terms)


def oracle_integral(f: ConstructibleFunction) -> int:
    """Independent route: the sum of (-1)^dim times the value over the
    bounded pieces of f's supports (:mod:`cellcomplex`), the compactly
    supported Euler characteristic of the level sets, by Fubini in 3-D."""
    total = 0
    for cell, v in nonzero_cells(f):
        if cell.bounded:
            total += v if cell.dimension % 2 == 0 else -v
    return total


def nonzero_cells(f: ConstructibleFunction) -> Iterator[tuple[Cell, int]]:
    """The pieces of the arrangement of f's own supports where f is nonzero.

    Yields each such piece with f's value on it, lazily, slice by slice
    (:func:`cellcomplex._stack`).  f is constant on every piece and every
    value of f shows on one, so f is zero exactly when nothing is yielded;
    a function without terms builds no arrangement at all.
    """
    if not f.terms:
        return
    for cell, v in _stack([(t.coeff, t.support) for t in f.terms], f.dimension):
        if v:
            yield cell, v


class Verdict(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"


@dataclass(frozen=True)
class EvalReport:
    verdict: Verdict
    witness: Optional[Point] = None


def equals(f: ConstructibleFunction, g: ConstructibleFunction) -> EvalReport:
    """Pointwise equality, decided exactly on the difference h = f - g.

    Normalizing h cancels terms with structurally equal supports, so equal
    functions written alike leave no term and need no geometry.  Otherwise
    h is nonzero exactly where one of the pieces of its own supports is
    (:mod:`cellcomplex`; every piece of every dimension is probed, so
    boundary effects are visible), and the first such piece ends the search;
    its representative is the witness, a point where f and g differ.  A
    decision in dimension n cuts at most 2|Z| - 1 slices that hold a cut, Z
    being the heights where n of the supports' R distinct chart rows meet,
    so |Z| <= C(R, n).
    """
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    for cell, _ in nonzero_cells(f - g):
        return EvalReport(Verdict.NOT_EQUAL, cell.representative)
    return EvalReport(Verdict.EQUAL)


def pushforward(f: ConstructibleFunction, m: AffineMap) -> ConstructibleFunction:
    """Direct image along an affine map: each support maps to its hull image.

    Fibers of an affine map sliced against a compact convex support are
    compact convex, so per-term the image indicator picks up the whole
    coefficient.
    """
    if m.domain_dim != f.dimension:
        raise ValueError(f"map domain dimension {m.domain_dim} != function dimension {f.dimension}")
    return from_terms(
        m.codomain_dim, [(t.coeff, affine_image(m, t.support)) for t in f.terms]
    )


def oracle_pushforward_at(f: ConstructibleFunction, m: AffineMap, y) -> int:
    """Direct image value at y from the definition: per-fiber slices.

    Decides emptiness of each slice support /\\ m^{-1}(y) by exact rational
    feasibility: y is a convex combination of the images of the support's
    vertices.  This is independent of the hull-image construction.
    """
    if m.domain_dim != f.dimension:
        raise ValueError("dimension mismatch")
    target = as_point(y)
    if len(target) != m.codomain_dim:
        raise ValueError("dimension mismatch")
    total = 0
    for t in f.terms:
        if _in_hull_lp([m(v) for v in t.support.vertices], target):
            total += t.coeff
    return total
