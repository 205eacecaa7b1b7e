"""Nested homothety chains that collapse a polytope onto a basepoint.

A chain with n steps scales the base polytope toward an interior center by
ratios i/n.  Consecutive levels are then exactly reach/n apart in directed
Hausdorff distance, where reach is the base's farthest point from the center
under the norm in use.  A flag is the same under every norm, so it carries no
spacing: the readers of one, `concentrate_basepoints` and the CLI `flag`,
compute `reach(base, center, norm) / steps` under their norm.

A flag's levels are built when read, not by :func:`build_flag`, which runs
every check of the flag before it returns.  The builders `concentrate`,
`link` and `probe` read no level: a certificate writes each flag as a block of
base, center and step count.  The readers (`verify`, `chi`, `bound`) and
`flag` read a block through :func:`_graded_summands`, which builds its levels
one at a time, each born as its integer form and the base's chart moved to it
(`geometry._levels`), and keeps none: `verify` and `chi` hold about one level
of a block at a time, whatever its step count.  `Flag.levels` keeps them all,
for a caller that wants the tuple.  A block pays for its base's chart, the
facet search of a hull, once.  Each level then costs one pass over its
numerators and their gcd with its denominator, two products, a sum and a
two-integer gcd per base row, and its nesting check (`geometry._outside`):
a few integer products per vertex of the level below and row of its own,
up to the first row a vertex violates.

The levels of a flag that :func:`build_flag` made are nested, since its
center lies in the convex base, but nothing here trusts that: every difference
of consecutive levels is made through `Support`'s constructor, which checks
that it is nested.  So `verify`, `chi` and `bound` re-check every difference
a certificate or sheaf file stands for, those of its flag blocks included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Iterator

from .geometry import Point, Polytope, _lazy, _levels, _outside, as_point
from .sheafsum import SheafSum, Summand, Support, sheaf_sum

#: Most steps a flag may have.  A flag's levels are built here alone, when
#: read: `verify`, `chi`, `bound` and `flag` read them, and `concentrate`,
#: `link` and `probe` do not.  So a reader's work stays within this many
#: levels per block whatever step count a file writes, and the builders
#: refuse any flag a reader would refuse.
MAX_FLAG_STEPS = 10**4


@dataclass(frozen=True)
class Flag:
    base: Polytope
    center: Point
    steps: int
    tip: Polytope = field(repr=False, compare=False)  # {center}, levels[0]

    @_lazy
    def levels(self) -> tuple[Polytope, ...]:
        """levels[0] = {center}, levels[steps] = base; built on first read."""
        return tuple(_levels(self.base, self.tip, self.steps))


def build_flag(base: Polytope, center, steps: int) -> Flag:
    c = as_point(center)
    if len(c) != base.dimension:
        raise ValueError(f"center dimension {len(c)} != polytope dimension {base.dimension}")
    tip = Polytope((c,))  # levels[0]: its integer form serves the check and every level
    # before the step count, which a caller may derive from the center's reach
    if _outside(tip, base):
        raise ValueError("flag center must lie in the base polytope")
    if steps < 1:
        raise ValueError("a flag needs at least one step")
    if steps > MAX_FLAG_STEPS:
        raise ValueError(f"a flag may have at most {MAX_FLAG_STEPS} steps")
    return Flag(base, c, steps, tip)


def _graded_summands(flag: Flag, shift: int = 0, multiplicity: int = 1) -> Iterator[Summand]:
    """The summands of :func:`graded_sheaf`, shifted and repeated, unmerged,
    each made as it is read from levels built one at a time (`_levels`, read
    here and not from `Flag.levels`), so no level is kept."""
    levels = _levels(flag.base, flag.tip, flag.steps)
    yield Summand(Support(levels[0]), shift, multiplicity)
    for lo, hi in pairwise(levels):
        if lo != hi:
            yield Summand(Support(hi, lo), shift, multiplicity)


def graded_sheaf(flag: Flag) -> SheafSum:
    """Sum of the constant sheaves on the successive level differences.

    Degenerate consecutive levels (only possible once the base is a point)
    contribute nothing.
    """
    return sheaf_sum(flag.base.dimension, _graded_summands(flag))
