"""Nested homothety chains that collapse a polytope onto a basepoint.

A chain with n steps scales the base polytope toward an interior center by
ratios i/n.  Consecutive levels are then exactly reach/n apart in directed
Hausdorff distance, which is the certified spacing the distance bounds use.

The builder trusts one fact and nothing else: the levels of a flag that
:func:`build_flag` made are nested, since its center lies in the convex base.
So :func:`graded_sheaf` makes the differences of consecutive levels without a
containment test (`Support._nested`).  Every difference a certificate or sheaf
file holds is parsed through `Support`'s checks, so `verify` and `bound`
re-check all of them, those a flag block in the file stands for included: the
reader rebuilds that flag and makes each of its differences with the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Norm, Point, Polytope, RoundedReal, _levels, _outside, _reach, as_point
from .sheafsum import SheafSum, Summand, Support, sheaf_sum

#: Most steps a flag may have.  Every level is built and kept, and `flag`,
#: `concentrate`, `link` and `probe` build their levels here alone, so their
#: work stays within this many levels per term whatever epsilon or step count
#: is written in the input.
MAX_FLAG_STEPS = 10**4


@dataclass(frozen=True)
class Flag:
    base: Polytope
    center: Point
    steps: int
    levels: tuple[Polytope, ...]  # levels[0] = {center}, levels[steps] = base
    spacing: RoundedReal  # certified max directed Hausdorff gap, reach/steps


def build_flag(base: Polytope, center, steps: int, norm: Norm = Norm.L2) -> Flag:
    c = as_point(center)
    if len(c) != base.dimension:
        raise ValueError(f"center dimension {len(c)} != polytope dimension {base.dimension}")
    tip = Polytope((c,))  # levels[0]: its integer form serves the check, every level and the reach
    # before the step count, which a caller may derive from the center's reach
    if _outside(tip, base):
        raise ValueError("flag center must lie in the base polytope")
    if steps < 1:
        raise ValueError("a flag needs at least one step")
    if steps > MAX_FLAG_STEPS:
        raise ValueError(f"a flag may have at most {MAX_FLAG_STEPS} steps")
    levels = _levels(base, tip, steps)
    return Flag(base, c, steps, levels, _reach(base, tip, norm) / steps)


def _graded_summands(flag: Flag, shift: int = 0, multiplicity: int = 1, checked: bool = False) -> list[Summand]:
    """The summands of :func:`graded_sheaf`, shifted and repeated, unsorted.

    `checked` makes every difference with `Support`'s containment check, as a
    reader of a flag block must; the builder's own flags skip it.
    """
    nested = Support if checked else Support._nested
    summands = [Summand(Support(flag.levels[0]), shift, multiplicity)]
    for lo, hi in zip(flag.levels, flag.levels[1:]):
        if lo != hi:
            summands.append(Summand(nested(hi, lo), shift, multiplicity))
    return summands


def graded_sheaf(flag: Flag) -> SheafSum:
    """Sum of the constant sheaves on the successive level differences.

    Degenerate consecutive levels (only possible once the base is a point)
    contribute nothing.
    """
    return sheaf_sum(flag.base.dimension, _graded_summands(flag))
