import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eulercert import _simplex, geometry
from eulercert.geometry import (
    INF,
    SLACK,
    Norm,
    Polytope,
    RoundedReal,
    ZERO_REAL,
    affine_map,
    affine_image,
    contains,
    decimal_up,
    directed_hausdorff,
    distance_point_to_polytope,
    dot,
    from_vertices,
    hausdorff,
    homothet,
    norm_value,
    reach,
    sqrt_upper,
    translate,
    vertex_centroid,
    volume,
    vsub,
    _ccw_sorted,
    _cross3,
    _integer_form,
    _sqdist_outside,
)

from helpers import (
    _primitive,
    caratheodory_contains,
    contains_oracle,
    fraction_homothet,
    fraction_reach,
    fraction_slice,
    gram_sqdist,
    interior_point,
    lp_distance,
    lp_hull,
    oracle_sqdist,
    polygon_ineqs,
    polyhedron_ineqs,
    rand_point,
    rand_polytope,
    shoelace_area,
)

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


# --- construction ------------------------------------------------------------


def test_from_vertices_drops_interior_point():
    p = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert p == UNIT_SQUARE
    assert len(p.vertices) == 4


def test_from_vertices_single_point():
    p = from_vertices([(0, 0)])
    assert p.vertices == ((F(0), F(0)),)


def test_from_vertices_collinear_midpoint_removed():
    p = from_vertices([(0,), (2,), (1,)])
    assert p.vertices == ((F(0),), (F(2),))


def test_from_vertices_builds_one_chart_per_canonical_input(monkeypatch):
    built = []
    init = geometry._Chart.__init__

    def counting(self, den, nums):
        built.append(nums)
        init(self, den, nums)

    monkeypatch.setattr(geometry._Chart, "__init__", counting)
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    slanted = [(1, 0, 0), (0, 2, 0), (0, 0, 3)]
    # an interior point of the cube, and a point inside an edge of the triangle
    inside = cube + [(F(1, 2), F(1, 3), F(1, 4))]
    on_edge = slanted + [(F(1, 2), 1, 0)]
    cases = [([(0,)], 0), ([(0,), (3,)], 1), (UNIT_SQUARE.vertices, 2), (slanted, 2), (cube, 3)]
    # a non-extreme input builds the point list's chart, then the hull's own
    # when it is read
    for (pts, k), charts in [(case, 1) for case in cases] + [((inside, 3), 2), ((on_edge, 2), 2)]:
        built.clear()
        assert from_vertices(pts).affine_dim == k
        assert len(built) == charts


def test_from_vertices_errors():
    with pytest.raises(ValueError):
        from_vertices([])
    with pytest.raises(ValueError):
        from_vertices([(0, 0), (1,)])


def test_3d_hull_of_cube_with_interior_points():
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = from_vertices(pts + [(F(1, 2), F(1, 2), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2))])
    assert len(p.vertices) == 8


_COORD = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))


def _combination(points, weights):
    total = sum(weights)
    return tuple(sum(w * p[i] for w, p in zip(weights, points)) / total for i in range(len(points[0])))


@st.composite
def _hull_input(draw, dims=(1, 2, 3), full=False):
    """Points with duplicates, and with points on a line, in a plane, on a
    segment between two of them (edge-interior for hull neighbours) and inside
    a triangle of three of them (facet-interior for points of one facet).

    `full` draws only inputs that can span their space: no line or plane, and
    at least dim + 1 base points."""
    dim = draw(st.sampled_from(dims))
    point = st.tuples(*[_COORD] * dim)
    base = draw(st.lists(point, min_size=dim + 1 if full else 1, max_size=7))
    # span 1 puts every point on a line through the first, span 2 in a plane
    span = 0 if full else draw(st.sampled_from([0, 1, 2]))
    if span:
        steps = [draw(point) for _ in range(span)]
        ks = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * span), min_size=1, max_size=6))
        base = [tuple(a + sum(k * d[i] for k, d in zip(kk, steps)) for i, a in enumerate(base[0])) for kk in ks]
    pick = st.sampled_from(base)
    on_segment = st.tuples(pick, pick, st.sampled_from([F(0), F(1, 3), F(1, 2)]))
    extra = [
        tuple(x + t * (y - x) for x, y in zip(a, b)) for a, b, t in draw(st.lists(on_segment, max_size=4))
    ]
    for tri in draw(st.lists(st.tuples(pick, pick, pick), max_size=2)):
        extra.append(_combination(tri, [1, 1, 1]))
    return base + extra


@given(_hull_input())
def test_from_vertices_keeps_what_the_lp_keeps(pts):
    assert from_vertices(pts).vertices == lp_hull(pts)


@given(_hull_input())
@example([(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [(F(1, 2), F(1, 3), F(1, 4))])
@example([(F(1), F(0), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(3)), (F(1, 2), F(1), F(0))])
@example([(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1, 7), F(1, 7))])
@example([(F(0),), (F(1, 5),), (F(1),)])
def test_from_vertices_hands_the_hull_the_form_and_chart_of_its_own(pts):
    # a hull of points that are not all extreme takes over the chart of the
    # sorted distinct points; it must be the chart of the hull's own form
    p = from_vertices(pts)
    assert p._ints == _integer_form(p.vertices)
    fresh, ch = geometry._Chart(*p._ints), p._chart
    assert (ch.ambient, ch.k, sorted(ch.faces)) == (fresh.ambient, fresh.k, sorted(fresh.faces))
    assert sorted(ch.ineqs) == sorted(fresh.ineqs)
    # an equality row may come with either sign
    assert geometry._planes([p]) == sorted(
        r if r[:-1] > (0,) * (len(r) - 1) else tuple(-c for c in r) for r in fresh.eqs + fresh.ineqs
    )


@given(_hull_input(), st.data())
def test_contains_agrees_with_the_lp(pts, data):
    # vertices, points on edges and facets, points on the affine hull beyond
    # the polytope (a negative weight) and points off it
    p = from_vertices(pts)
    picks = data.draw(st.lists(st.sampled_from(p.vertices), min_size=1, max_size=3))
    weights = data.draw(st.lists(st.integers(-1, 3), min_size=len(picks), max_size=len(picks)))
    if sum(weights) == 0:
        weights[0] += 1
    near = _combination(picks, weights)
    x = data.draw(st.sampled_from([near, data.draw(st.tuples(*[_COORD] * p.dimension))]))
    assert contains(p, x) == contains_oracle(p, x)


@given(_hull_input(dims=(2, 3), full=True))
def test_chart_planes_are_the_rational_facet_planes(pts):
    p = from_vertices(pts)
    assume(p.affine_dim == p.dimension)
    oracle = polygon_ineqs if p.dimension == 2 else polyhedron_ineqs
    assert set(p._chart.ineqs) == {_primitive(list(a) + [b]) for a, b in oracle(p.vertices)}


def _cyclic(ring):
    """Whether consecutive points of a ring of coplanar points are joined by
    edges of their hull: every other point lies strictly on one side of the
    line through them, the same side for every pair."""
    pts = [tuple(v) + (F(0),) * (3 - len(v)) for v in ring]
    turns = []
    for p, q in zip(pts, pts[1:] + pts[:1]):
        turns += [_cross3(vsub(q, p), vsub(r, p)) for r in pts if r not in (p, q)]
    return all(dot(t, turns[0]) > 0 for t in turns)


@given(_hull_input())
@example([(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [(F(1, 2), F(1, 2), F(0))])
def test_chart_faces_are_the_facets_with_their_vertex_rings(pts):
    p = from_vertices(pts)
    faces = p._chart.faces
    if p.affine_dim < p.dimension:  # one face, the whole polytope
        ((row, ring),) = faces
        assert row is None and sorted(ring) == list(range(len(p.vertices)))
    else:
        if p.dimension == 1:
            (lo,), (hi,) = p.vertices
            oracle = [((F(-1),), -lo), ((F(1),), hi)]
        else:
            oracle = (polygon_ineqs if p.dimension == 2 else polyhedron_ineqs)(p.vertices)
        facets = {
            _primitive(list(a) + [b]): [i for i, v in enumerate(p.vertices) if dot(a, v) == b] for a, b in oracle
        }
        assert sorted(row for row, _ in faces) == sorted(facets)
        for row, ring in faces:
            assert sorted(ring) == facets[row]
    for _, ring in faces:
        assert len(ring) < 3 or _cyclic([p.vertices[i] for i in ring])


def test_hulls_solve_no_lp(monkeypatch):
    calls = []
    feasible = _simplex.feasible
    monkeypatch.setattr(_simplex, "feasible", lambda a, b: calls.append(1) or feasible(a, b))
    rng = random.Random(21)
    for dim in (1, 2, 3):
        for _ in range(20):
            rand_polytope(rng, dim, max_vertices=9)
    from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 4), F(1, 4), F(1, 4))])
    assert not calls
    # the membership oracle stays an LP, independent of the hull code
    assert contains_oracle(UNIT_SQUARE, (F(1, 2), F(1, 2)))
    assert calls == [1]


def test_pruned_l2_distance_equals_min_over_all_faces():
    rng = random.Random(22)
    for dim, count in ((2, 150), (3, 40), (1, 40)):
        seen = 0
        while seen < count:
            p = rand_polytope(rng, dim, max_vertices=8)
            if p.affine_dim < dim:
                continue
            pts = [rand_point(rng, dim, lo=-6, hi=6, dens=(1, 3, 4)) for _ in range(3)]
            outside = [x for x in pts if not contains(p, x)]
            if not outside:
                continue
            seen += 1
            faces = [[p.vertices[i] for i in f] for _, group in p._faces for f in group]
            full = [min(gram_sqdist(x, f) for f in faces) for x in outside]
            for x, sq in zip(outside, full):
                assert distance_point_to_polytope(x, p) == sqrt_upper(sq)
            y = from_vertices(pts)
            assert directed_hausdorff(y, p) == sqrt_upper(max(full))


_QUERY_COORD = st.builds(F, st.integers(-8 * 1024, 8 * 1024), st.integers(1, 1024))


# one input of each chart kind: a point, segments in 1-, 2- and 3-space,
# polygons in the plane and in space, and a 3-polytope
@settings(deadline=None)  # the oracle tries every simplex of n + 1 vertices
@given(_hull_input(), st.data())
@example([(F(1, 3),)], None)
@example([(F(0),), (F(5, 2),)], None)
@example([(F(0), F(1)), (F(3), F(-2, 7))], None)
@example([(F(0), F(1), F(2)), (F(3), F(-2, 7), F(1, 5))], None)
@example([(F(0), F(0)), (F(4), F(1)), (F(1), F(3)), (F(-1, 2), F(2))], None)
@example([(F(6), F(0), F(0)), (F(0), F(3), F(0)), (F(0), F(0), F(2)), (F(4), F(2), F(-2, 3))], None)
@example([(F(x), F(y), F(z)) for x in (0, 2) for y in (0, 3) for z in (0, 1)] + [(F(1), F(5, 2), F(4))], None)
def test_l2_distance_equals_the_gram_oracle(pts, data):
    # queries inside and outside: convex and affine combinations of vertices
    # (beyond the polytope on its affine hull for a negative weight), and
    # points anywhere, with denominators up to 1024
    p = from_vertices(pts)
    if data is None:  # an explicit example: fixed queries around p
        c = _combination(p.vertices, [1] * len(p.vertices))
        queries = [c, tuple(2 * a - b for a, b in zip(p.vertices[0], c))]
        queries += [tuple(a + F(k, 1024) for a in c) for k in (-3 * 1024 - 1, 5 * 1024 + 7)]
        queries += [tuple(a + F(k + i, 97) for i, a in enumerate(c)) for k in (-300, 250)]
    else:
        picks = data.draw(st.lists(st.sampled_from(p.vertices), min_size=1, max_size=3))
        weights = data.draw(st.lists(st.integers(-2, 3), min_size=len(picks), max_size=len(picks)))
        if sum(weights) == 0:
            weights[0] += 1
        queries = [_combination(picks, weights), data.draw(st.tuples(*[_QUERY_COORD] * p.dimension))]
    for x in queries:
        sq = oracle_sqdist(x, p)
        den, nums = _integer_form((x,))
        if contains(p, x):
            assert sq == 0 and distance_point_to_polytope(x, p) == RoundedReal(F(0))
        else:
            assert _sqdist_outside(den, nums, p) == sq
            assert distance_point_to_polytope(x, p) == sqrt_upper(sq)


# a point beyond an edge of a 3-polytope, of a segment in space and of a
# polygon in a slanted plane, beyond a slanted segment in the plane, and off a
# point along a diagonal
@settings(deadline=None)  # the oracle solves one LP per vertex and query
@given(_hull_input(), st.data())
@example([(F(0), F(0), F(0)), (F(2), F(0), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(2))], [(F(2), F(2), F(-1))])
@example([(F(0), F(0), F(0)), (F(3), F(1), F(2))], [(F(1), F(3), F(-1)), (F(-2), F(1), F(4))])
@example([(F(1), F(0), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(3))], [(F(2), F(2), F(2)), (F(-1), F(-1), F(1))])
@example([(F(0), F(0)), (F(3), F(1))], [(F(2), F(-3)), (F(-1), F(2))])
@example([(F(1), F(-1))], [(F(3), F(2))])
def test_polyhedral_distance_equals_the_lp_oracle(pts, data):
    # queries beyond p on its affine hull (a negative weight), inside it and
    # anywhere, as points and as the vertices of one polytope
    p = from_vertices(pts)
    if isinstance(data, list):  # an explicit example: its own queries
        queries = data
    else:
        picks = data.draw(st.lists(st.sampled_from(p.vertices), min_size=1, max_size=3))
        weights = data.draw(st.lists(st.integers(-2, 3), min_size=len(picks), max_size=len(picks)))
        if sum(weights) == 0:
            weights[0] += 1
        free = data.draw(st.lists(st.tuples(*[_QUERY_COORD] * p.dimension), min_size=1, max_size=3))
        queries = [_combination(picks, weights)] + free
    y = from_vertices(queries)
    for norm in (Norm.L1, Norm.LINF):
        for x in queries:
            assert distance_point_to_polytope(x, p, norm) == RoundedReal(lp_distance(x, p, norm))
        want = max(lp_distance(v, p, norm) for v in y.vertices)
        assert directed_hausdorff(y, p, norm) == RoundedReal(want)


def test_3d_pruning_tries_only_facets_facing_the_point(monkeypatch):
    cube = from_vertices([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    tried = []
    face_sqdist = geometry._face_sqdist

    def spy(y, face, pts):
        tried.append(tuple(pts[i] for i in face))
        return face_sqdist(y, face, pts)

    monkeypatch.setattr(geometry, "_face_sqdist", spy)
    # beyond one, two and three facets: two fan triangles per facet faced
    for x, facing, sq in (((3, 1, 1), [0], 1), ((3, 3, 1), [0, 1], 2), ((3, 3, 4), [0, 1, 2], 6)):
        tried.clear()
        assert distance_point_to_polytope(x, cube) == sqrt_upper(F(sq))
        assert len(tried) == 2 * len(facing)
        # the numerators are over the common denominator 1: the cube's facets
        # facing x are those at coordinate 2 on the axes where x exceeds 2
        on = {axis: sum(all(v[axis] == 2 for v in face) for face in tried) for axis in range(3)}
        assert on == {axis: 2 if axis in facing else 0 for axis in range(3)}


# --- membership --------------------------------------------------------------


def test_contains_examples():
    assert contains(UNIT_SQUARE, (F(1, 2), F(1, 2)))
    assert contains(UNIT_SQUARE, (1, 1))
    assert not contains(UNIT_SQUARE, (1, F(1000001, 1000000)))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(UNIT_SQUARE, (1,))


def test_contains_agrees_with_feasibility_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        dim = rng.choice([1, 2, 2, 3])
        p = rand_polytope(rng, dim, max_vertices=7)
        if rng.random() < 0.4:
            x = interior_point(rng, p)
        else:
            x = rand_point(rng, dim)
        assert contains(p, x) == contains_oracle(p, x)


def test_contains_agrees_with_caratheodory():
    rng = random.Random(12)
    for _ in range(150):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=6)
        x = interior_point(rng, p) if rng.random() < 0.5 else rand_point(rng, dim)
        assert contains(p, x) == caratheodory_contains(p.vertices, x)


# --- homothety ---------------------------------------------------------------


def test_homothet_examples():
    h = homothet(UNIT_SQUARE, (0, 0), F(1, 2))
    assert h == from_vertices([(0, 0), (F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2))])
    assert homothet(UNIT_SQUARE, (0, 0), 1) == UNIT_SQUARE
    assert homothet(UNIT_SQUARE, (F(1, 2), F(1, 2)), 0).vertices == ((F(1, 2), F(1, 2)),)


@given(_hull_input(), st.data())
def test_homothet_is_the_hull_of_the_scaled_vertices(pts, data):
    # a ratio in (0, 1) keeps the vertices extreme and in lexicographic order
    p = from_vertices(pts)
    k = len(p.vertices)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    c = _combination(p.vertices, weights)
    t = data.draw(st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1))
    scaled = [tuple(a + t * (x - a) for a, x in zip(c, v)) for v in p.vertices]
    assert homothet(p, c, t).vertices == from_vertices(scaled).vertices


@given(_hull_input(), st.lists(st.integers(0, 3), min_size=1, max_size=5), st.sampled_from([1, 2, 3, 7, 64, 255]))
@example([(F(1, 3),)], [1], 5)
@example([(F(0),), (F(5, 2),)], [1, 2], 255)
@example([(F(0), F(1)), (F(3), F(-2, 7))], [3, 1], 64)
@example([(F(0), F(1), F(2)), (F(3), F(-2, 7), F(1, 5))], [1], 7)
@example([(F(0), F(0)), (F(4), F(1)), (F(1), F(3)), (F(-1, 2), F(2))], [1, 0, 2], 255)
@example([(F(6), F(0), F(0)), (F(0), F(3), F(0)), (F(0), F(0), F(2))], [1, 1, 0], 64)
@example([(F(x), F(y), F(z)) for x in (0, 2) for y in (0, 3) for z in (0, 1)], [1, 2, 3], 255)
@settings(deadline=None)
def test_levels_match_the_fraction_homothety(pts, weights, steps):
    p = from_vertices(pts)
    w = [weights[i % len(weights)] for i in range(len(p.vertices))]
    assume(any(w))
    c = _combination(p.vertices, w)
    levels = geometry._levels(p, Polytope((c,)), steps)
    assert len(levels) == steps + 1
    for i, level in enumerate(levels):
        assert level.vertices == fraction_homothet(p, c, F(i, steps)).vertices
        # the handed integer form is the one the vertices give: least terms
        assert level._ints == _integer_form(level.vertices)
        assert 0 < i < steps or level is (p if i else levels[0])


@given(_hull_input(), st.lists(st.integers(0, 3), min_size=1, max_size=5), st.sampled_from([1, 2, 3, 7, 64]))
@example([(F(0), F(0)), (F(3), F(0)), (F(0), F(2))], [1, 1, 1], 7)
@example([(F(1, 3),)], [1], 3)
@settings(deadline=None)
def test_levels_are_born_as_integers_and_equal_their_own_hulls(pts, weights, steps):
    p = from_vertices(pts)
    w = [weights[i % len(weights)] for i in range(len(p.vertices))]
    assume(any(w))
    c = _combination(p.vertices, w)
    for i, level in enumerate(geometry._levels(p, Polytope((c,)), steps)):
        expected = fraction_homothet(p, c, F(i, steps))
        if 0 < i < steps:
            # equality and hash read the integer form, and build no vertex
            assert level == expected and hash(level) == hash(expected)
            assert "vertices" not in vars(level)
        hull = from_vertices(level.vertices)
        assert hull == level and hash(hull) == hash(level) and hull._ints == level._ints
        assert level.vertices == expected.vertices


@given(_hull_input(), st.lists(st.integers(-2, 3), min_size=1, max_size=5), st.sampled_from(list(Norm)))
@example([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))], [1, 0, 0, 0], Norm.L2)  # sqrt 2
@example([(F(0), F(0)), (F(3), F(0)), (F(0), F(4))], [1, 0, 0], Norm.L2)  # 5, exact
@example([(F(1, 3), F(0), F(2)), (F(0), F(1, 7), F(0))], [2, -1], Norm.L1)
@example([(F(1, 3), F(0), F(2)), (F(0), F(1, 7), F(0))], [2, -1], Norm.LINF)
@example([(F(3),)], [1], Norm.L1)  # 0
def test_reach_equals_the_fraction_oracle(pts, weights, norm):
    # affine weights put the center anywhere, inside p or not
    p = from_vertices(pts)
    w = [weights[i % len(weights)] for i in range(len(p.vertices))]
    assume(sum(w))
    c = _combination(p.vertices, w)
    assert reach(p, c, norm) == fraction_reach(p, c, norm)  # value and exact


def test_homothet_errors():
    with pytest.raises(ValueError):
        homothet(UNIT_SQUARE, (2, 2), F(1, 2))
    with pytest.raises(ValueError):
        homothet(UNIT_SQUARE, (0, 0), F(3, 2))


def test_homothet_monotone_nesting():
    rng = random.Random(13)
    for _ in range(60):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=6)
        c = interior_point(rng, p)
        t1 = F(rng.randint(0, 7), 8)
        t2 = t1 + F(rng.randint(0, 8 - t1.numerator if t1.denominator == 8 else 1), 8)
        t2 = min(t2, F(1))
        small, big = homothet(p, c, min(t1, t2)), homothet(p, c, max(t1, t2))
        assert all(contains(big, v) for v in small.vertices)


# --- metric quantities ---------------------------------------------------------


def test_reach_examples():
    r = reach(UNIT_SQUARE, (0, 0), Norm.L2)
    # frozen from the vertex-distance oracle: max_v ||v|| = sqrt(2)
    oracle = max(math.hypot(float(v[0]), float(v[1])) for v in UNIT_SQUARE.vertices)
    assert r.value**2 >= 2  # certified upper bound, exact arithmetic
    assert abs(float(r) - oracle) <= 1e-9
    assert reach(UNIT_SQUARE, (0, 0), Norm.LINF).value == 1
    assert reach(from_vertices([(3,)]), (3,), Norm.L1).value == 0


def test_directed_hausdorff_examples():
    d = directed_hausdorff(UNIT_SQUARE, from_vertices([(0, 0)]))
    assert d.value**2 >= 2 and abs(float(d) - math.sqrt(2)) <= 1e-9
    assert directed_hausdorff(homothet(UNIT_SQUARE, (0, 0), F(1, 2)), UNIT_SQUARE).value == 0
    seg4, seg3 = from_vertices([(0,), (4,)]), from_vertices([(0,), (3,)])
    assert directed_hausdorff(seg4, seg3).value == 1


def test_hausdorff_examples():
    assert hausdorff(UNIT_SQUARE, UNIT_SQUARE).value == 0
    a, b = from_vertices([(0,), (1,)]), from_vertices([(0,), (2,)])
    assert hausdorff(a, b).value == 1
    assert hausdorff(from_vertices([(0, 0)]), from_vertices([(3, 4)])).value == 5


def test_directed_hausdorff_zero_iff_contained():
    rng = random.Random(14)
    for _ in range(80):
        dim = rng.choice([1, 2])
        x = rand_polytope(rng, dim, max_vertices=5)
        y = rand_polytope(rng, dim, max_vertices=5)
        zero = directed_hausdorff(y, x).value == 0
        assert zero == all(contains(x, v) for v in y.vertices)


@given(st.randoms(use_true_random=False), st.sampled_from(list(Norm)))
def test_directed_hausdorff_is_translation_invariant(rng, norm):
    # the matcher gives every exact translate of a difference summand one
    # vanishing bound, so this must hold exactly, rounding included
    dim = rng.choice([1, 2, 3])
    outer, inner = rand_polytope(rng, dim, max_vertices=5), rand_polytope(rng, dim, max_vertices=5)
    v = rand_point(rng, dim, dens=(1, 3, 8))
    moved = directed_hausdorff(translate(outer, v), translate(inner, v), norm)
    assert moved == directed_hausdorff(outer, inner, norm)


def test_point_distance_against_sampled_lower_bounds():
    # distances under every norm can never exceed the distance to any sampled
    # polytope point, and convexity sampling brackets them from above
    rng = random.Random(15)
    for _ in range(40):
        dim = rng.choice([1, 2, 3])
        p = rand_polytope(rng, dim, max_vertices=5)
        x = rand_point(rng, dim)
        for norm in Norm:
            d = distance_point_to_polytope(x, p, norm)
            for _ in range(12):
                inside = interior_point(rng, p)
                gap = norm_value(tuple(a - b for a, b in zip(x, inside)), norm)
                assert d.value <= gap.value + (0 if d.exact else SLACK)
            if contains(p, x):
                assert d.value == 0


def test_polyhedral_distances_match_rectangle_closed_form():
    # for an axis-aligned box the componentwise gaps give exact distances:
    # L1 = dx + dy, Linf = max(dx, dy)
    rng = random.Random(19)
    for _ in range(60):
        a, b = sorted(rand_point(rng, 1)[0] for _ in range(2))
        c, d = sorted(rand_point(rng, 1)[0] for _ in range(2))
        box = from_vertices([(a, c), (b, c), (a, d), (b, d)])
        x, y = rand_point(rng, 2)
        dx = max(a - x, F(0), x - b)
        dy = max(c - y, F(0), y - d)
        assert distance_point_to_polytope((x, y), box, Norm.L1).value == dx + dy
        assert distance_point_to_polytope((x, y), box, Norm.LINF).value == max(dx, dy)
        assert distance_point_to_polytope((x, y), box, Norm.L2).value ** 2 >= dx**2 + dy**2


def test_norm_comparisons():
    # l_inf <= l_2 <= l_1 on every distance instance
    rng = random.Random(16)
    for _ in range(40):
        dim = rng.choice([2, 3])
        p = rand_polytope(rng, dim, max_vertices=5)
        x = rand_point(rng, dim)
        d1 = distance_point_to_polytope(x, p, Norm.L1).value
        d2 = distance_point_to_polytope(x, p, Norm.L2).value
        di = distance_point_to_polytope(x, p, Norm.LINF).value
        assert di <= d2  # d2 is rounded up
        assert d2 <= d1 + SLACK


def test_flag_spacing_property():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=6)
        c = interior_point(rng, p)
        n = rng.choice([1, 2, 3, 5, 8])
        r = reach(p, c)
        for i in range(1, n + 1):
            hi = homothet(p, c, F(i, n))
            lo = homothet(p, c, F(i - 1, n))
            d = directed_hausdorff(hi, lo)
            assert d.value <= r.value / n + SLACK  # L2 values, rounded up


# --- affine maps --------------------------------------------------------------


def test_affine_image_examples():
    proj = affine_map([[1, 0]], [0])
    assert affine_image(proj, UNIT_SQUARE) == from_vertices([(0,), (1,)])
    ident = affine_map([[1, 0], [0, 1]], [0, 0])
    assert affine_image(ident, UNIT_SQUARE) == UNIT_SQUARE
    s = affine_map([[1, 1]], [0])
    assert affine_image(s, UNIT_SQUARE) == from_vertices([(0,), (2,)])


def test_affine_compose_matches_pointwise():
    rng = random.Random(18)
    for _ in range(30):
        f = affine_map([[rand_point(rng, 1)[0] for _ in range(2)] for _ in range(2)], rand_point(rng, 2))
        g = affine_map([[rand_point(rng, 1)[0] for _ in range(2)]], rand_point(rng, 1))
        x = rand_point(rng, 2)
        assert g.compose(f)(x) == g(f(x))


# --- volume -------------------------------------------------------------------


def test_volume_examples():
    assert volume(UNIT_SQUARE) == 1
    assert volume(from_vertices([(0, 0), (1, 1)])) == 0
    # frozen from the determinant oracle: |det([[2,0],[0,2]])| / 2 = 2
    assert volume(from_vertices([(0, 0), (2, 0), (0, 2)])) == 2


def test_volume_3d():
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert volume(cube) == 1
    simplex = from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert volume(simplex) == F(1, 6)
    flat = from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert volume(flat) == 0


@given(_hull_input(dims=(2,)))
def test_volume_matches_the_shoelace_area(pts):
    p = from_vertices(pts)
    assert volume(p) == shoelace_area(_ccw_sorted(p.vertices))


@settings(deadline=None)
@given(_hull_input(dims=(3,)))
@example([(F(x), F(y), F(0)) for x in (0, 2) for y in (0, 2)] + [(F(1), F(1), F(3))])  # a square base
@example([(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)][:7])  # a cube less a corner
def test_volume_3d_integrates_the_slice_areas(pts):
    # a slice's area is quadratic in its height on each gap between vertex
    # heights, so Milne's rule, (4h/3)(2 A(a + h) - A(a + 2h) + 2 A(a + 3h))
    # with h = (b - a)/4, integrates it exactly; flat inputs have area 0
    p = from_vertices(pts)

    def area(z):
        return shoelace_area(_ccw_sorted(fraction_slice(p, z).vertices))

    zs = sorted({v[-1] for v in p.vertices})
    total = F(0)
    for a, b in zip(zs, zs[1:]):
        h = (b - a) / 4
        total += 4 * h / 3 * (2 * area(a + h) - area(a + 2 * h) + 2 * area(a + 3 * h))
    assert volume(p) == total


def test_translate_and_centroid():
    t = translate(UNIT_SQUARE, (F(1), F(2)))
    assert t == from_vertices([(1, 2), (2, 2), (1, 3), (2, 3)])
    assert vertex_centroid(UNIT_SQUARE) == (F(1, 2), F(1, 2))


# --- certified scalars ---------------------------------------------------------


@given(st.fractions(min_value=0, max_value=10**6))
@example(F(1, 10**24 + 1))
def test_sqrt_upper_certifies(q):
    u = sqrt_upper(q)
    assert u.value * u.value >= q
    if not u.exact:
        # the true root lies in [value - slack, value] and is nonnegative
        slack = F(2, 10**12)
        assert max(F(0), u.value - slack) ** 2 <= q
    else:
        assert u.value * u.value == q


@given(st.fractions(min_value=-100, max_value=100))
def test_decimal_up_rounds_toward_plus_infinity(q):
    s = decimal_up(q)
    parsed = F(s)
    assert parsed >= q
    assert parsed - q < F(1, 10**12)


def test_rounded_real_ordering():
    a, b = RoundedReal(F(1, 3)), RoundedReal(F(1, 2))
    assert (a + b).value == F(5, 6)
    assert (b / 2).value == F(1, 4)
    # the one infinity compares exactly with every Fraction, also past float range
    huge = F(10**400, 3)
    assert huge < INF.value and not INF.value <= huge and INF.value != huge
    assert max([ZERO_REAL, RoundedReal(huge), INF], key=lambda r: r.value) is INF
    assert INF.decimal_up() == "inf" and RoundedReal(F(1, 3)).decimal_up() == "0.333333333334"


def test_rounded_real_sum_with_inf_is_inf():
    # past float range too, where adding math.inf to the Fraction would overflow
    huge = RoundedReal(F(10**999))
    assert INF + huge is INF and huge + INF is INF and INF + INF is INF
    assert INF + RoundedReal(F(1, 3), exact=False) is INF
