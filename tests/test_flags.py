import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from eulercert import flags, geometry, sheafsum
from eulercert.constructible import Verdict, equals, euler_integral, indicator
from eulercert.distance import sum_bound
from eulercert.flags import build_flag, graded_sheaf
from eulercert.geometry import SLACK, Norm, Polytope, directed_hausdorff, from_vertices, homothet, reach
from eulercert.sheafsum import local_euler, plain, sheaf_sum

from helpers import fraction_reach, interior_point, rand_polytope

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


def test_build_flag_forms_the_center_once_and_graded_sheaf_checks_each_difference(monkeypatch):
    forms, charts, checked = [], [], []
    form, init, outside = geometry._integer_form, geometry._Chart.__init__, sheafsum._outside

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
        monkeypatch.setattr(sheafsum, "_outside", lambda y, x: checked.append((y, x)) or outside(y, x))
        fl = build_flag(base, c, 12)
        assert forms == [(tuple(map(F, c)),)] and charts == [] and checked == []
        # the levels are nested by construction, yet each difference summand
        # tests its containment on a chart of its outer level
        graded_sheaf(fl)
        monkeypatch.undo()
        assert checked == list(zip(fl.levels, fl.levels[1:]))
        forms.clear(), charts.clear(), checked.clear()


def test_flag_of_segment():
    fl = build_flag(from_vertices([(0,), (4,)]), (0,), 4)
    assert [p.vertices for p in fl.levels] == [
        ((F(0),),),
        ((F(0),), (F(1),)),
        ((F(0),), (F(2),)),
        ((F(0),), (F(3),)),
        ((F(0),), (F(4),)),
    ]
    assert reach(fl.base, fl.center).value / fl.steps == 1

    gs = graded_sheaf(fl)
    assert len(gs.summands) == 5
    assert gs.summands[0].support.inner is None  # the point summand
    assert sum(1 for s in gs.summands if s.support.inner is not None) == 4


def test_flag_single_step_square():
    fl = build_flag(UNIT_SQUARE, (0, 0), 1)
    assert fl.levels[0].vertices == ((F(0), F(0)),)
    assert fl.levels[1] == UNIT_SQUARE
    assert (reach(fl.base, fl.center).value / fl.steps) ** 2 >= 2  # sqrt(2) rounded up


def test_degenerate_flag():
    p = from_vertices([(3,)])
    fl = build_flag(p, (3,), 5)
    assert all(level == p for level in fl.levels)
    assert reach(p, (3,)).value / 5 == 0
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
        assert bound.value <= reach(p, c).value / n / 2 + SLACK  # L2 values, rounded up


_COORD = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _flag_input(draw):
    """A base and a center in it: the base spans 0 to dim directions of its
    dim-space (a segment or polygon in 3-space is flat), and the center is at
    a vertex, on an edge, on a facet or inside, as a positive combination of
    the vertices of one face of the base (the vertex indices of
    `Polytope._faces`: endpoints, edges or facet triangles of a full base,
    edges or triangles covering a flat one)."""
    dim = draw(st.sampled_from([1, 2, 3]))
    point = st.tuples(*[_COORD] * dim)
    origin = draw(point)
    directions = [draw(point) for _ in range(draw(st.integers(0, dim)))]
    ks = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(directions)), min_size=1, max_size=7))
    base = from_vertices(
        [tuple(a + sum(k * d[i] for k, d in zip(kk, directions)) for i, a in enumerate(origin)) for kk in ks]
    )
    face = draw(st.sampled_from([f for _, faces in base._faces for f in faces]))
    picks = {
        "vertex": face[:1],
        "edge": face[-2:],  # the ring edge of a fan triangle (r0, r_i, r_i+1)
        "facet": face,
        "inside": range(len(base.vertices)),
    }[draw(st.sampled_from(["vertex", "edge", "facet", "inside"]))]
    weights = [draw(st.integers(1, 5)) for _ in picks]
    vs = [base.vertices[i] for i in picks]
    center = tuple(sum(w * v[i] for w, v in zip(weights, vs)) / sum(weights) for i in range(dim))
    return base, center


# the one fact the builder trusts: consecutive levels are nested
@settings(deadline=None)  # 64 levels of a 3-polytope make 64 distance calls
@given(_flag_input(), st.sampled_from([1, 2, 3, 7, 64]))
@example((UNIT_SQUARE, (F(1), F(1))), 7)
@example((from_vertices([(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 1, 1)]), (F(1), F(2), F(1, 2))), 3)
@example((from_vertices([(0, 0, 0), (3, 1, 2)]), (F(1), F(1, 3), F(2, 3))), 64)
def test_flag_levels_nested_with_certified_spacing(flag_input, n):
    p, c = flag_input
    fl = build_flag(p, c, n)
    spacing = reach(p, c).value / n
    for lo, hi in zip(fl.levels, fl.levels[1:]):
        assert not geometry._outside(lo, hi)
        assert directed_hausdorff(hi, lo).value <= spacing + SLACK  # L2 values, rounded up
    assert spacing == fraction_reach(p, c, Norm.L2).value / n
