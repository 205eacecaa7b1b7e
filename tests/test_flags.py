import random
from fractions import Fraction as F

import pytest

from eulercert import flags, geometry
from eulercert.constructible import Verdict, equals, euler_integral, indicator
from eulercert.distance import sum_bound
from eulercert.flags import build_flag, graded_sheaf
from eulercert.geometry import TOL_DIST, Polytope, directed_hausdorff, from_vertices, homothet, reach
from eulercert.sheafsum import local_euler, plain, sheaf_sum

from helpers import interior_point, rand_polytope

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_build_flag_tests_its_center_once(monkeypatch):
    calls = []
    real = geometry._outside

    def counting(y, x):
        calls.append(1)
        return real(y, x)

    monkeypatch.setattr(flags, "_outside", counting)
    c = (F(1, 3), F(1, 4))
    fl = build_flag(UNIT_SQUARE, c, 12)
    assert len(calls) == 1
    assert fl.levels == tuple(homothet(UNIT_SQUARE, c, F(i, 12)) for i in range(13))


def test_build_flag_refuses_too_many_steps_before_any_level(monkeypatch):
    built = []
    real = flags._levels

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(flags, "_levels", counting)
    for steps in (flags.MAX_FLAG_STEPS + 1, 10**12, 10**999):
        with pytest.raises(ValueError, match=f"at most {flags.MAX_FLAG_STEPS} steps"):
            build_flag(UNIT_SQUARE, (0, 0), steps)
    assert not built
    assert len(build_flag(from_vertices([(0,), (1,)]), (0,), flags.MAX_FLAG_STEPS).levels) == flags.MAX_FLAG_STEPS + 1


def test_build_flag_forms_its_center_once_and_one_chart_per_level(monkeypatch):
    forms, charts = [], []
    form, init = geometry._integer_form, geometry._Chart.__init__

    def counting_form(points):
        forms.append(points)
        return form(points)

    def counting_init(self, den, nums):
        charts.append(nums)
        init(self, den, nums)

    cube = from_vertices([(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 1)])
    for base, c in ((UNIT_SQUARE, (F(1, 3), F(1, 4))), (cube, (F(1, 2), F(1, 7), F(1, 3)))):
        base._chart  # the base's own form and chart are built before the count
        monkeypatch.setattr(geometry, "_integer_form", counting_form)
        monkeypatch.setattr(geometry._Chart, "__init__", counting_init)
        fl = build_flag(base, c, 12)
        graded_sheaf(fl)  # the containment check of every difference summand
        monkeypatch.undo()
        assert forms == [(tuple(map(F, c)),)]
        # at most one chart per level, none for the base
        assert len(charts) == len(set(charts)) <= len(fl.levels) - 1
        forms.clear()
        charts.clear()


def test_flag_of_segment():
    fl = build_flag(from_vertices([(0,), (4,)]), (0,), 4)
    assert [p.vertices for p in fl.levels] == [
        ((F(0),),),
        ((F(0),), (F(1),)),
        ((F(0),), (F(2),)),
        ((F(0),), (F(3),)),
        ((F(0),), (F(4),)),
    ]
    assert fl.spacing.value == 1

    gs = graded_sheaf(fl)
    assert len(gs.summands) == 5
    assert gs.summands[0].support.inner is None  # the point summand
    assert sum(1 for s in gs.summands if s.support.inner is not None) == 4


def test_flag_single_step_square():
    fl = build_flag(UNIT_SQUARE, (0, 0), 1)
    assert fl.levels[0].vertices == ((F(0), F(0)),)
    assert fl.levels[1] == UNIT_SQUARE
    assert fl.spacing.value ** 2 >= 2  # sqrt(2) rounded up


def test_degenerate_flag():
    p = from_vertices([(3,)])
    fl = build_flag(p, (3,), 5)
    assert all(level == p for level in fl.levels)
    assert fl.spacing.value == 0
    assert graded_sheaf(fl).summands == (plain(p),)


def test_flag_errors():
    with pytest.raises(ValueError):
        build_flag(UNIT_SQUARE, (2, 2), 3)
    with pytest.raises(ValueError):
        build_flag(UNIT_SQUARE, (0, 0), 0)


def test_telescoping_to_base_indicator():
    assert local_euler(graded_sheaf(build_flag(UNIT_SQUARE, (0, 0), 8))) == indicator(UNIT_SQUARE)
    rng = random.Random(51)
    for _ in range(40):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=8)
        c = interior_point(rng, p)
        n = rng.choice([1, 2, 3, 7, 16])
        chi = local_euler(graded_sheaf(build_flag(p, c, n)))
        assert euler_integral(chi) == 1
        # independent oracle route on top of the structural identity
        assert equals(chi, indicator(p)).verdict is Verdict.EQUAL


def test_flag_distance_bound():
    rng = random.Random(52)
    for _ in range(25):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=6)
        c = interior_point(rng, p)
        n = rng.choice([1, 2, 4, 8])
        fl = build_flag(p, c, n)
        singleton = sheaf_sum(dim, [plain(Polytope((c,)))])
        bound, _ = sum_bound(graded_sheaf(fl), singleton)
        assert bound.value <= fl.spacing.value / 2 + TOL_DIST


def test_flag_levels_nested_with_certified_spacing():
    rng = random.Random(53)
    for _ in range(20):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=6)
        c = interior_point(rng, p)
        n = rng.choice([2, 3, 5])
        fl = build_flag(p, c, n)
        r = reach(p, c)
        for lo, hi in zip(fl.levels, fl.levels[1:]):
            assert directed_hausdorff(hi, lo).value <= fl.spacing.value + TOL_DIST
            assert directed_hausdorff(lo, hi).value == 0  # nested
        assert fl.spacing.value == r.value / n
