import random
from fractions import Fraction as F

import pytest

from eulercert import constructible
from eulercert.cellcomplex import arrangement
from eulercert.constructible import (
    ConstructibleFunction,
    Term,
    Verdict,
    equals,
    euler_integral,
    evaluate,
    from_terms,
    indicator,
    normalize,
    oracle_integral,
    oracle_pushforward_at,
    pushforward,
    zero_function,
)
from eulercert.geometry import affine_map, from_vertices, homothet

from helpers import brute_equals, interior_point, rand_cf, rand_equality_pair, rand_point, rand_polytope

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


def test_oracle_integral_dimension_guard():
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    with pytest.raises(ValueError):
        oracle_integral(indicator(cube))


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
    real = constructible.arrangement
    monkeypatch.setattr(constructible, "arrangement", lambda *a: built.append(a) or real(*a))
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
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    rep = equals(indicator(cube), indicator(cube))
    assert rep.verdict is Verdict.PROBABLY_EQUAL
    shrunk = homothet(cube, (0, 0, 0), F(1, 2))
    rep2 = equals(indicator(cube), indicator(shrunk))
    assert rep2.verdict is Verdict.NOT_EQUAL


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
