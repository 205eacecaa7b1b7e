import itertools
import math
import operator
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulercert import cellcomplex, constructible
from eulercert.cellcomplex import arrangement
from eulercert.constructible import (
    ConstructibleFunction,
    EvalReport,
    Term,
    Verdict,
    equals,
    euler_integral,
    evaluate,
    from_terms,
    indicator,
    nonzero_cells,
    normalize,
    oracle_integral,
    oracle_pushforward_at,
    pushforward,
    zero_function,
)
from eulercert.geometry import affine_map, from_vertices, homothet

from helpers import (
    brute_canonical,
    brute_equals,
    interior_point,
    prism,
    rand_cf,
    rand_equality_pair,
    rand_point,
    rand_polytope,
    sampled_points,
    split_indicator,
)

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
INNER = homothet(UNIT_SQUARE, (0, 0), F(1, 2))
RING = indicator(UNIT_SQUARE) - indicator(INNER)


def test_normalize_merges_and_cancels():
    doubled = normalize(ConstructibleFunction(2, (Term(1, UNIT_SQUARE), Term(1, UNIT_SQUARE))))
    assert doubled.terms == (Term(2, UNIT_SQUARE),)
    cancelled = normalize(ConstructibleFunction(2, (Term(1, UNIT_SQUARE), Term(-1, UNIT_SQUARE))))
    assert cancelled.terms == ()
    a, b = from_vertices([(0,), (1,)]), from_vertices([(1,), (2,)])
    two = normalize(ConstructibleFunction(1, (Term(2, a), Term(3, b))))
    assert len(two.terms) == 2


# a few shared 2-D supports, listed out of vertex order, and one 1-D one
SHARED = (UNIT_SQUARE, from_vertices([(0, 0)]), INNER, from_vertices([(-1, 2), (3, 0)]))
SEGMENT_1D = from_vertices([(0,), (1,)])
_PAIRS = st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(SHARED)), max_size=8)


def _by_hand(pairs):
    # not canonical: repeated supports, cancelling terms, unsorted
    return ConstructibleFunction(2, tuple(Term(c, p) for c, p in pairs if c))


@given(_PAIRS, _PAIRS, st.integers(-2, 2), st.integers(1, 3))
def test_group_operations_are_the_brute_canonical_form(a, b, k, c):
    f, g = _by_hand(a), _by_hand(b)
    neg_b = [(-x, p) for x, p in b]
    assert from_terms(2, a) == brute_canonical(2, a)
    assert normalize(f) == brute_canonical(2, a)
    assert f + g == brute_canonical(2, a + b)
    assert f - g == brute_canonical(2, a + neg_b)
    assert -g == brute_canonical(2, neg_b)
    assert k * f == brute_canonical(2, [(k * x, p) for x, p in a])
    # a support of another dimension is refused even where it cancels, but
    # not with a zero coefficient
    with pytest.raises(ValueError, match="term dimension mismatch"):
        from_terms(2, a + [(c, SEGMENT_1D), (-c, SEGMENT_1D)])
    assert from_terms(2, a + [(0, SEGMENT_1D)]) == brute_canonical(2, a)
    for h in (zero_function(1), indicator(SEGMENT_1D)):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="^dimension mismatch"):
                op(f, h)


def test_normalize_preserves_values():
    rng = random.Random(31)
    for _ in range(3):
        dim = rng.choice([1, 2])
        f = rand_cf(rng, dim)
        raw = ConstructibleFunction(dim, f.terms + f.terms + tuple(Term(-t.coeff, t.support) for t in f.terms))
        n = normalize(raw)
        for _ in range(10_000):
            x = rand_point(rng, dim, dens=(1, 2, 3, 4, 8))
            assert evaluate(raw, x) == evaluate(n, x)


def test_evaluate_examples():
    assert evaluate(RING, (F(3, 4), F(3, 4))) == 1
    assert evaluate(RING, (F(1, 4), F(1, 4))) == 0
    assert evaluate(RING, (5, 5)) == 0


def test_euler_integral_examples():
    seg = from_vertices([(0, 0), (1, 0)])
    f = from_terms(2, [(2, UNIT_SQUARE), (-3, seg)])
    assert euler_integral(f) == -1
    assert euler_integral(zero_function(2)) == 0
    assert euler_integral(RING) == 0


def test_euler_integral_is_additive():
    rng = random.Random(32)
    for _ in range(40):
        dim = rng.choice([1, 2])
        f, g = rand_cf(rng, dim), rand_cf(rng, dim)
        assert euler_integral(f + g) == euler_integral(f) + euler_integral(g)
        assert euler_integral(-f) == -euler_integral(f)


def test_oracle_integral_examples():
    assert oracle_integral(indicator(UNIT_SQUARE)) == 1
    two = indicator(from_vertices([(0,), (1,)])) + indicator(from_vertices([(2,), (3,)]))
    assert oracle_integral(two) == 2
    assert oracle_integral(zero_function(1)) == 0


def test_oracle_integral_matches_coefficient_sum():
    rng = random.Random(33)
    for _ in range(60):
        dim = rng.choice([1, 2])
        f = rand_cf(rng, dim, max_terms=3, max_vertices=5)
        assert oracle_integral(f) == euler_integral(f)


def _open_segment_3d():
    seg = from_vertices([(0, 0, 0), (1, 2, 4)])
    return from_terms(3, [(1, seg)] + [(-1, from_vertices([v])) for v in seg.vertices])


def _open_cube():
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    facets = [[v for v in corners if v[i] == c] for i in range(3) for c in (0, 1)]
    edges = [[a, b] for a, b in itertools.combinations(corners, 2) if sum(map(operator.ne, a, b)) == 1]
    return from_terms(
        3,
        [(1, from_vertices(corners))]
        + [(-1, from_vertices(f)) for f in facets]
        + [(1, from_vertices(e)) for e in edges]
        + [(-1, from_vertices([v])) for v in corners],
    )


def test_oracle_integral_in_dimension_3():
    # by Fubini along z: the slices' integrals at the walls less those between
    rng = random.Random(35)
    for _ in range(8):
        f = rand_cf(rng, 3, max_terms=2, max_vertices=4)
        assert oracle_integral(f) == euler_integral(f)
        g, h = rand_equality_pair(rng, 3)
        assert oracle_integral(g - h) == euler_integral(g - h)
    # an open k-cell counts (-1)^k, though it vanishes on every wall
    assert oracle_integral(_open_segment_3d()) == euler_integral(_open_segment_3d()) == -1
    assert oracle_integral(_open_cube()) == euler_integral(_open_cube()) == -1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_nonzero_cells_carry_the_value_at_their_representative(seed, dim):
    f = rand_cf(random.Random(seed), dim, max_terms=3 if dim < 3 else 2, max_vertices=5 if dim < 3 else 4)
    for cell, v in nonzero_cells(f):
        assert v != 0 and v == evaluate(f, cell.representative)


def test_equals_inclusion_exclusion_on_line():
    lhs = from_terms(
        1,
        [
            (1, from_vertices([(0,), (1,)])),
            (1, from_vertices([(1,), (2,)])),
            (-1, from_vertices([(1,)])),
        ],
    )
    rhs = indicator(from_vertices([(0,), (2,)]))
    assert equals(lhs, rhs).verdict is Verdict.EQUAL
    assert equals(rhs, rhs).verdict is Verdict.EQUAL


def test_equals_witness():
    rep = equals(indicator(from_vertices([(0,), (1,)])), indicator(from_vertices([(0,), (2,)])))
    assert rep.verdict is Verdict.NOT_EQUAL
    (w,) = rep.witness
    assert 1 < w <= 2


def test_equals_boundary_sensitivity():
    closed = indicator(from_vertices([(0,), (1,)]))
    open_ish = from_terms(1, [(1, from_vertices([(0,), (1,)])), (-1, from_vertices([(1,)]))])
    assert equals(closed, open_ish).verdict is Verdict.NOT_EQUAL
    assert equals(closed, open_ish).witness == ((F(1),))


def test_equals_agrees_with_arrangement_of_all_supports():
    rng = random.Random(37)
    seen = set()
    for _ in range(80):
        dim = rng.choice([1, 2])
        f, g = rand_equality_pair(rng, dim)
        rep = equals(f, g)
        assert rep.verdict is brute_equals(f, g).verdict
        if rep.verdict is Verdict.NOT_EQUAL:
            assert evaluate(f, rep.witness) != evaluate(g, rep.witness)
        seen.add((rep.verdict, bool((f - g).terms)))
    # cancelled, equal only pointwise, and unequal inputs all occurred
    assert seen == {(Verdict.EQUAL, False), (Verdict.EQUAL, True), (Verdict.NOT_EQUAL, True)}


def test_equals_builds_no_arrangement_when_difference_cancels(monkeypatch):
    built = []
    real = constructible._stack
    monkeypatch.setattr(constructible, "_stack", lambda *a: built.append(a) or real(*a))
    rng = random.Random(38)
    for dim in (1, 2, 1, 2):
        f = rand_cf(rng, dim)
        p = rand_polytope(rng, dim)
        rewritten = from_vertices(p.vertices + (interior_point(rng, p),))
        g = from_terms(dim, [(t.coeff, t.support) for t in reversed(f.terms)] + [(3, p), (-3, rewritten)])
        assert equals(f, g).verdict is Verdict.EQUAL
    assert built == []
    assert equals(f, f + indicator(from_vertices([p.vertices[0]]))).verdict is Verdict.NOT_EQUAL
    assert len(built) == 1


def test_equals_sampled_in_dimension_3():
    # dimension 3 is decided exactly: two verdicts, no sampling
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert equals(indicator(cube), indicator(cube)) == EvalReport(Verdict.EQUAL)
    shrunk = homothet(cube, (0, 0, 0), F(1, 2))
    rep2 = equals(indicator(cube), indicator(shrunk))
    assert rep2.verdict is Verdict.NOT_EQUAL
    assert evaluate(indicator(cube), rep2.witness) != evaluate(indicator(shrunk), rep2.witness)
    assert [v.value for v in Verdict] == ["equal", "not-equal"]


def test_equals_sees_a_difference_only_between_event_heights():
    # an open segment and an open cube vanish on every slice through a vertex;
    # only the heights between vertices see them
    for h in (_open_segment_3d(), _open_cube()):
        rep = equals(h, zero_function(3))
        assert rep.verdict is Verdict.NOT_EQUAL
        assert evaluate(h, rep.witness) != 0


def test_equals_2d_sees_a_difference_on_walls_and_between_them():
    # the open vertical segment and the open square vanish on every wall of
    # the 2-D arrangement and show only between walls; the open horizontal
    # segment lies on a wall and vanishes on every slab
    def open_segment(a, b):
        return from_terms(2, [(1, from_vertices([a, b])), (-1, from_vertices([a])), (-1, from_vertices([b]))])

    corners = [(x, y) for x in (0, 1) for y in (0, 1)]
    edges = [[a, b] for a, b in itertools.combinations(corners, 2) if sum(map(operator.ne, a, b)) == 1]
    open_square = from_terms(
        2,
        [(1, from_vertices(corners))]
        + [(-1, from_vertices(e)) for e in edges]
        + [(1, from_vertices([v])) for v in corners],
    )
    for h in (open_segment((0, 0), (2, 0)), open_segment((1, 0), (1, 3)), open_square):
        rep = equals(h, zero_function(2))
        assert rep.verdict is Verdict.NOT_EQUAL
        assert evaluate(h, rep.witness) != 0
        assert oracle_integral(h) == euler_integral(h)


def _box(lo, hi):
    return from_vertices([(x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])


def test_equals_on_prisms_gives_the_2d_verdict():
    rng = random.Random(71)
    seen = set()
    for _ in range(12):
        f, g = rand_equality_pair(rng, 2)
        rep = equals(prism(f), prism(g))
        assert rep.verdict is equals(f, g).verdict
        if rep.verdict is Verdict.NOT_EQUAL:
            assert evaluate(prism(f), rep.witness) != evaluate(prism(g), rep.witness)
        seen.add((rep.verdict, bool((f - g).terms)))
    assert seen == {(Verdict.EQUAL, False), (Verdict.EQUAL, True), (Verdict.NOT_EQUAL, True)}


def test_equals_in_dimension_3_against_the_sampler():
    # the sampler can only prove inequality: it must find nothing where equals says EQUAL
    rng = random.Random(72)
    seen = set()
    for _ in range(14):
        f, g = rand_equality_pair(rng, 3)
        rep = equals(f, g)
        h = f - g
        if rep.verdict is Verdict.NOT_EQUAL:
            assert evaluate(f, rep.witness) != evaluate(g, rep.witness)
        else:
            assert not any(evaluate(h, x) for x in sampled_points(f.supports() + g.supports(), 3, 1))
        seen.add((rep.verdict, bool(h.terms)))
    assert seen == {(Verdict.EQUAL, False), (Verdict.EQUAL, True), (Verdict.NOT_EQUAL, True)}


def _solid(rng):
    while True:
        p = rand_polytope(rng, 3, 5, -2, 2, (1, 2))
        if p.affine_dim == 3:
            return p


def test_equals_catches_3d_point_edge_and_facet_perturbations():
    rng = random.Random(73)
    for kind in ("point", "edge", "facet") * 2:
        p = _solid(rng)
        f = from_terms(3, [(2, p), (-1, rand_polytope(rng, 3, 2))])
        rows = p._chart.ineqs
        tight = {v: {r for r in rows if sum(a * c for a, c in zip(r, v + (-1,))) == 0} for v in p.vertices}
        if kind == "point":
            feature = [rng.choice(p.vertices)]
        elif kind == "edge":
            a = rng.choice(p.vertices)
            feature = [a, rng.choice([b for b in p.vertices if len(tight[a] & tight[b]) >= 2])]
        else:
            r = rng.choice(rows)
            feature = [v for v in p.vertices if r in tight[v]]
        cut = f + 2 * (split_indicator(rng, p) - indicator(p))
        g = cut + from_terms(3, [(rng.choice([-1, 1]), from_vertices(feature))])
        rep = equals(f, g)
        assert rep.verdict is Verdict.NOT_EQUAL, kind
        assert evaluate(f, rep.witness) != evaluate(g, rep.witness)


def test_equals_decides_at_most_two_slices_per_event_height(monkeypatch):
    # the slices that hold a cut are the 2-D calls of the recursion with terms
    calls = []
    real = cellcomplex._stack
    monkeypatch.setattr(cellcomplex, "_stack", lambda terms, n: calls.append((terms, n)) or real(terms, n))
    rng = random.Random(74)
    for _ in range(4):
        p = _solid(rng)
        f = from_terms(3, [(1, p), (-2, rand_polytope(rng, 3, 3))])
        g = f + split_indicator(rng, p) - indicator(p)
        h = f - g
        rows = {min(r, tuple(-c for c in r)) for p in h.supports() for r in p._chart.eqs + p._chart.ineqs}
        heights = cellcomplex._event_heights(h.supports())
        calls.clear()
        assert equals(f, g).verdict is Verdict.EQUAL
        decided = [terms for terms, n in calls if n == 2 and terms]
        assert 0 < len(decided) <= 2 * len(heights) - 1
        assert len(heights) <= math.comb(len(rows), 3)


def test_equals_decides_a_split_cube_of_side_10_6_within_a_second():
    s = 10**6
    cube = _box((0, 0, 0), (s, s, s))
    split = from_terms(
        3,
        [
            (1, _box((0, 0, 0), (s, s, s // 2))),
            (1, _box((0, 0, s // 2), (s, s, s))),
            (-1, from_vertices([(x, y, s // 2) for x in (0, s) for y in (0, s)])),
        ],
    )
    start = time.perf_counter()
    assert equals(indicator(cube), split).verdict is Verdict.EQUAL
    assert time.perf_counter() - start < 1


def test_pushforward_examples():
    proj = affine_map([[1, 0]], [0])
    assert pushforward(indicator(UNIT_SQUARE), proj) == indicator(from_vertices([(0,), (1,)]))
    ident = affine_map([[1, 0], [0, 1]], [0, 0])
    assert pushforward(RING, ident) == RING
    inner = from_vertices(
        [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(3, 4))]
    )
    f = indicator(UNIT_SQUARE) - indicator(inner)
    img = pushforward(f, proj)
    assert img == from_terms(
        1, [(1, from_vertices([(0,), (1,)])), (-1, from_vertices([(F(1, 4),), (F(3, 4),)]))]
    )


def test_oracle_pushforward_examples():
    proj = affine_map([[1, 0]], [0])
    assert oracle_pushforward_at(indicator(UNIT_SQUARE), proj, (F(1, 2),)) == 1
    assert oracle_pushforward_at(indicator(UNIT_SQUARE), proj, (2,)) == 0
    inner = from_vertices(
        [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(3, 4))]
    )
    f = indicator(UNIT_SQUARE) - indicator(inner)
    assert oracle_pushforward_at(f, proj, (F(1, 2),)) == 0


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (3, 3), (3, 1)], ids=["1to2", "2to3", "3to3", "3to1"])
def test_oracle_pushforward_matches_the_hull_image(n, m):
    rng = random.Random(36 + 4 * n + m)
    for _ in range(4):
        f = rand_cf(rng, n, max_terms=3, max_vertices=5)
        offset = [rng.choice([-1, 1]) * F(rng.randint(1, 9), rng.choice([1, 2, 3])) for _ in range(m)]
        mp = affine_map([[rand_point(rng, 1)[0] for _ in range(n)] for _ in range(m)], offset)
        img = pushforward(f, mp)
        # image vertices and edge midpoints lie on boundaries, centroids and
        # images of interior points inside, and a random point anywhere
        probes = [rand_point(rng, m)]
        for t in f.terms:
            verts = [mp(v) for v in t.support.vertices]
            probes += verts + [mp(interior_point(rng, t.support))]
            probes += [tuple((x + y) / 2 for x, y in zip(a, b)) for a, b in zip(verts, verts[1:])]
        for t in img.terms:
            probes.append(tuple(sum(c) / len(t.support.vertices) for c in zip(*t.support.vertices)))
        if m <= 2:
            probes += [cell.representative for cell in arrangement(img.supports(), m).cells]
        for y in probes:
            assert oracle_pushforward_at(f, mp, y) == evaluate(img, y)


def test_pushforward_functoriality_and_pointwise_oracle():
    rng = random.Random(34)
    for _ in range(25):
        f = rand_cf(rng, 2, max_terms=3, max_vertices=5)
        m1 = affine_map(
            [[rand_point(rng, 1)[0] for _ in range(2)] for _ in range(2)], rand_point(rng, 2)
        )
        m2 = affine_map([[rand_point(rng, 1)[0] for _ in range(2)]], rand_point(rng, 1))
        comp = m2.compose(m1)
        lhs = pushforward(f, comp)
        rhs = pushforward(pushforward(f, m1), m2)
        assert equals(lhs, rhs).verdict is Verdict.EQUAL
        assert euler_integral(lhs) == euler_integral(f)
        cc = arrangement(lhs.supports(), 1)
        for cell in cc.cells:
            y = cell.representative
            assert evaluate(lhs, y) == oracle_pushforward_at(f, comp, y)
