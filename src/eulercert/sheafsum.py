"""Decomposable sheaves: direct sums of shifted constant summands.

Each summand is a constant sheaf on either a compact convex polytope (plain)
or a nested difference outer minus inner (locally closed).  This class is
closed under exactly the constructions the certificates need, and both the
local Euler characteristic and global sections reduce to summand-level rules:
a plain summand on a compact convex set is contractible, and the restriction
triangle of a nested difference of convex compacts has vanishing sections.

Every difference support is checked to be nested when it is made, by
`Support`'s constructor, the flag levels' differences included.  A sum of flag
blocks is expanded in one place, `SheafSum.summands`: the builder's sums are
expanded when first read, which `concentrate`, `link` and `probe` never do,
and a reader's once, as it parses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .constructible import ConstructibleFunction, from_terms
from .geometry import Polytope, _outside


@dataclass(frozen=True)
class Support:
    """Plain convex support, or the difference outer \\ inner when inner is set."""

    outer: Polytope
    inner: Optional[Polytope] = None

    def __post_init__(self):
        if self.inner is not None:
            if self.inner.dimension != self.outer.dimension:
                raise ValueError("dimension mismatch in support")
            if self.inner == self.outer:
                raise ValueError("difference support needs inner != outer")
            if _outside(self.inner, self.outer):
                raise ValueError("inner polytope not contained in outer")

    @property
    def is_difference(self) -> bool:
        return self.inner is not None


@dataclass(frozen=True)
class Summand:
    support: Support
    shift: int = 0
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")


@dataclass(frozen=True, eq=False, repr=False)
class SheafSum:
    """A sum in the canonical form of :func:`sheaf_sum`.

    `blocks`, when set, are the entries the sum was made from, some of them
    flag blocks: each a Summand or a block (flag, shift, multiplicity) standing
    for that flag's graded sheaf.  Writers write these instead of the merged
    summands.  A sum of blocks is made with no summands, which are expanded
    from its blocks on first read, each difference checked as it is made.
    Equality and hash are over (dimension, summands), whichever way the sum
    was made.
    """

    dimension: int
    _summands: Optional[tuple[Summand, ...]]
    blocks: Optional[tuple] = None

    @property
    def summands(self) -> tuple[Summand, ...]:
        if self._summands is None:
            from .flags import _graded_summands  # flags imports this module

            expanded = [sm for e in self.blocks for sm in ([e] if isinstance(e, Summand) else _graded_summands(*e))]
            object.__setattr__(self, "_summands", sheaf_sum(self.dimension, expanded).summands)
        return self._summands

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dimension, self.summands) == (other.dimension, other.summands)

    def __hash__(self):
        return hash((self.dimension, self.summands))

    def __repr__(self):
        return f"SheafSum(dimension={self.dimension!r}, summands={self.summands!r})"


def _sort_key(s: Summand):
    inner = s.support.inner
    return (
        s.support.outer.vertices,
        0 if inner is None else 1,
        () if inner is None else inner.vertices,
        s.shift,
    )


def sheaf_sum(dimension: int, summands: Iterable[Summand]) -> SheafSum:
    """Canonical form: merge equal (support, shift) pairs, sort."""
    merged: dict = {}
    for s in summands:
        if s.support.outer.dimension != dimension:
            raise ValueError("summand dimension mismatch")
        key = (s.support, s.shift)
        merged[key] = merged.get(key, 0) + s.multiplicity
    out = [Summand(sup, shift, m) for (sup, shift), m in merged.items()]
    out.sort(key=_sort_key)
    return SheafSum(dimension, tuple(out))


def plain(p: Polytope, shift: int = 0, multiplicity: int = 1) -> Summand:
    return Summand(Support(p), shift, multiplicity)


def difference(outer: Polytope, inner: Polytope, shift: int = 0, multiplicity: int = 1) -> Summand:
    return Summand(Support(outer, inner), shift, multiplicity)


def local_euler(s: SheafSum) -> ConstructibleFunction:
    """Pointwise alternating sum of stalk dimensions, as a normalized function."""
    pairs: list[tuple[int, Polytope]] = []
    for sm in s.summands:
        sign = sm.multiplicity if sm.shift % 2 == 0 else -sm.multiplicity
        pairs.append((sign, sm.support.outer))
        if sm.support.inner is not None:
            pairs.append((-sign, sm.support.inner))
    return from_terms(s.dimension, pairs)


@dataclass(frozen=True)
class GlobalSections:
    """Per-degree dimensions of the derived global sections."""

    dims: tuple[tuple[int, int], ...]  # (degree, dimension), sorted, no zeros

    @staticmethod
    def from_dict(d: dict[int, int]) -> "GlobalSections":
        return GlobalSections(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    def euler(self) -> int:
        return sum(v if k % 2 == 0 else -v for k, v in self.dims)


def global_sections(s: SheafSum) -> GlobalSections:
    """Plain summands on convex compacts contribute in degree -shift; nested
    differences contribute nothing in any degree."""
    acc: dict[int, int] = {}
    for sm in s.summands:
        if sm.support.inner is None:
            deg = -sm.shift
            acc[deg] = acc.get(deg, 0) + sm.multiplicity
    return GlobalSections.from_dict(acc)
