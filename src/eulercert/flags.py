"""Nested homothety chains that collapse a polytope onto a basepoint.

A chain with n steps scales the base polytope toward an interior center by
ratios i/n.  Consecutive levels are then exactly reach/n apart in directed
Hausdorff distance, which is the certified spacing the distance bounds use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Norm, Point, Polytope, RoundedReal, _homothet, as_point, contains, reach
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
    if steps < 1:
        raise ValueError("a flag needs at least one step")
    if steps > MAX_FLAG_STEPS:
        raise ValueError(f"a flag may have at most {MAX_FLAG_STEPS} steps")
    if not contains(base, c):
        raise ValueError("flag center must lie in the base polytope")
    # the center is checked once here, not once per level
    levels = tuple(_homothet(base, c, Fraction(i, steps)) for i in range(steps + 1))
    spacing = reach(base, c, norm) / steps
    return Flag(base, c, steps, levels, spacing)


def graded_sheaf(flag: Flag) -> SheafSum:
    """Sum of the constant sheaves on the successive level differences.

    Degenerate consecutive levels (only possible once the base is a point)
    contribute nothing.
    """
    summands = [Summand(Support(flag.levels[0]), 0, 1)]
    for lo, hi in zip(flag.levels, flag.levels[1:]):
        if lo == hi:
            continue
        summands.append(Summand(Support(hi, lo), 0, 1))
    return sheaf_sum(flag.base.dimension, summands)
