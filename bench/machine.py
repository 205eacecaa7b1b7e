"""Machine-speed reference for the benchmark's timings.

The benchmark shares its CPUs with other work whose load changes how fast the
same Python code runs, by a quarter or more over tens of seconds.  So each op
is followed by a fixed loop of exact Fraction arithmetic, sorting and tuple
building (the kind of work eulercert does, but none of its code), and every
time the benchmark reports is divided by the machine's speed factor: the
median loop time around that op over REF_S.  Reported times are therefore
seconds of a machine on which the loop takes REF_S; raw times and the factors
stay in the trace output.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.005  # the loop's median time on a quiet 2-CPU Xeon guest
WINDOW = 5  # loop samples on each side of an op that set its factor


def reference() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    start = perf_counter()
    acc = Fraction(0)
    keys = []
    for i in range(1, 400):
        q = Fraction(i, 7 * i + 3)
        acc += q * q - Fraction(1, i)
        keys.append((q, acc.denominator % 97))
    keys.sort()
    return perf_counter() - start


def speed_factors(refs: list) -> list:
    """For each position, the median loop time within WINDOW of it, over REF_S."""
    return [
        statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1]) / REF_S
        for i in range(len(refs))
    ]
