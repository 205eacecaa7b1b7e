import random
from fractions import Fraction as F

from eulercert import _simplex


def test_feasible_basic():
    # x + y = 2, x - y = 0 with x, y >= 0 -> x = y = 1
    a = [[F(1), F(1)], [F(1), F(-1)]]
    assert _simplex.feasible(a, [F(2), F(0)])
    # x + y = -1 is hopeless for x, y >= 0
    assert not _simplex.feasible([[F(1), F(1)]], [F(-1)])


def test_solve_min():
    # min x + y s.t. x + 2y = 4
    ok, x, v = _simplex.solve([[F(1), F(2)]], [F(4)], [F(1), F(1)])
    assert ok and v == F(2) and x == [F(0), F(2)]


def test_solve_degenerate_rows():
    # duplicated constraint rows are tolerated
    a = [[F(1), F(1)], [F(2), F(2)]]
    ok, x, v = _simplex.solve(a, [F(1), F(2)], [F(3), F(1)])
    assert ok and v == F(1)


def test_solve_infeasible():
    a = [[F(1), F(1)], [F(1), F(1)]]
    ok, _, _ = _simplex.solve(a, [F(1), F(2)], [F(0), F(0)])
    assert not ok


def test_feasible_agrees_with_solve():
    rng = random.Random(72)
    verdicts = set()
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        ok = _simplex.feasible(a, b)
        assert ok == _simplex.solve(a, b, [F(0)] * n)[0]
        verdicts.add(ok)
    assert verdicts == {True, False}
