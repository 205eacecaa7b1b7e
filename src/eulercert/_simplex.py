"""Tiny exact simplex solver over rationals.

Solves standard-form problems (min c.x subject to A x = b, x >= 0) for the
independent oracles only: the convex-combination feasibility of
``constructible.oracle_pushforward_at`` and the test suite's membership and
distance oracles.  No decision of the library makes an LP.  Everything is
fractions.Fraction, so answers are exact; Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UnboundedProblem(RuntimeError):
    pass


def _pivot(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [v - f * p for v, p in zip(row, prow)]
    if cost[c] != 0:
        f = cost[c]
        cost[:] = [v - f * p for v, p in zip(cost, prow)]
    basis[r] = c


def _optimize(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int], ncols: int) -> None:
    # Bland: entering = smallest improving column, leaving = smallest basic
    # index among minimal ratios.  No cycling, always terminates.
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedProblem("objective unbounded below")
        _pivot(rows, cost, basis, leave, enter)


def _phase1(a: list[list[Fraction]], b: list[Fraction], n: int):
    """Tableau (rows, cost, basis) of a x = b over n columns after phase 1, or
    None when no x >= 0 solves it.  Artificial columns follow the n real ones."""
    m = len(a)
    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in a[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [_ZERO] * m
        art[i] = _ONE
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]

    # drive the artificial variables to zero
    width = n + m
    cost = [_ZERO] * (width + 1)
    for j in range(n):
        cost[j] = -sum(row[j] for row in rows)
    cost[-1] = -sum(row[-1] for row in rows)
    _optimize(rows, cost, basis, width)
    if -cost[-1] > 0:
        return None
    return rows, cost, basis


def solve(a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]) -> tuple[bool, list[Fraction], Fraction]:
    """min c.x s.t. a x = b, x >= 0.  Returns (feasible, x, value)."""
    n = len(c)
    tableau = _phase1(a, b, n)
    if tableau is None:
        return False, [], _ZERO
    rows, cost, basis = tableau

    # pivot surviving artificials out (or drop redundant rows)
    r = 0
    while r < len(rows):
        if basis[r] >= n:
            col = next((j for j in range(n) if rows[r][j] != 0), -1)
            if col < 0:
                del rows[r]
                del basis[r]
                continue
            _pivot(rows, cost, basis, r, col)
        r += 1
    rows = [row[:n] + [row[-1]] for row in rows]

    # phase 2 with the real objective
    cost = [Fraction(v) for v in c] + [_ZERO]
    for i, bi in enumerate(basis):
        if cost[bi] != 0:
            f = cost[bi]
            cost = [v - f * p for v, p in zip(cost, rows[i])]
    _optimize(rows, cost, basis, n)

    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return True, x, value


def feasible(a: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Is {x >= 0 : a x = b} nonempty?"""
    return _phase1(a, b, len(a[0]) if a else 0) is not None
