import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import eulercert.distance
import eulercert.geometry
from eulercert.distance import MAX_UNITS, Matching, _bucket, _edge, _vanishing, bottleneck_bound, decide, pair_bound, sum_bound
from eulercert.flags import build_flag, graded_sheaf
from eulercert.geometry import INF, SLACK, Norm, from_vertices, norm_value, reach, translate, vsub
from eulercert.sheafsum import Summand, Support, difference, global_sections, plain, sheaf_sum

from helpers import (
    brute_bottleneck,
    brute_lex_matching,
    crowded_bucket_pair,
    expand_units,
    rand_nearby_sheaf,
    rand_point,
    rand_polytope,
    rand_sheaf,
)

I1 = from_vertices([(0,), (1,)])
I2 = from_vertices([(0,), (2,)])
UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_pair_bound_plain_plain():
    assert pair_bound(plain(I1), plain(I2)).value == 1
    assert pair_bound(plain(UNIT_SQUARE, 0), plain(UNIT_SQUARE, 1)) == INF


def test_pair_bound_vanishing_rule():
    b = pair_bound(difference(I2, I1), None)
    assert b.value == F(1, 2)


def test_pair_bound_plain_vs_zero_infinite():
    assert pair_bound(plain(UNIT_SQUARE), None) == INF
    assert pair_bound(None, plain(UNIT_SQUARE)) == INF
    with pytest.raises(ValueError):
        pair_bound(plain(UNIT_SQUARE), plain(I1))


def test_pair_bound_mixed_kind_infinite():
    d2 = difference(UNIT_SQUARE, from_vertices([(0, 0)]))
    assert pair_bound(plain(UNIT_SQUARE), d2) == INF


def test_pair_bound_diff_diff():
    a = difference(I2, I1)
    assert pair_bound(a, a).value == 0
    shifted_support = difference(translate(I2, (F(1, 4),)), translate(I1, (F(1, 4),)))
    got = pair_bound(a, shifted_support)
    assert got.value == F(1, 4)  # exact translate wins over 1/2 + 1/2
    other = difference(I2, from_vertices([(1,), (2,)]))
    via_zero = pair_bound(a, other)
    assert via_zero.value == F(1, 2) + F(1, 2)
    cross_shift = pair_bound(a, difference(I2, I1, shift=1))
    assert cross_shift.value == 1


def test_sum_bound_self_zero_identity_matching():
    s = graded_sheaf(build_flag(from_vertices([(0,), (4,)]), (0,), 4))
    b, m = sum_bound(s, s)
    assert b.value == 0
    assert m.pairs == tuple((i, i) for i in range(5))
    assert m.unmatched_left == () and m.unmatched_right == ()


def test_sum_bound_symmetry_and_nonnegativity():
    rng = random.Random(61)
    for _ in range(25):
        dim = rng.choice([1, 2])
        f, g = rand_sheaf(rng, dim, 3), rand_sheaf(rng, dim, 3)
        bf, _ = sum_bound(f, g)
        bg, _ = sum_bound(g, f)
        assert bf.value == bg.value >= 0


def test_sum_bound_flag_example():
    s = graded_sheaf(build_flag(from_vertices([(0,), (4,)]), (0,), 4))
    singleton = sheaf_sum(1, [plain(from_vertices([(0,)]))])
    b, m = sum_bound(s, singleton)
    assert b.value == F(1, 2)
    assert (0, 0) in m.pairs and len(m.pairs) == 1


def test_sum_bound_mixed_example():
    f = sheaf_sum(1, [plain(I1), difference(I2, I1)])
    g = sheaf_sum(1, [plain(I2)])
    b, _ = sum_bound(f, g)
    # frozen from the exhaustive-bijection oracle
    assert brute_bottleneck(expand_units(f), expand_units(g)) == F(1)
    assert b.value == 1


def test_sum_bound_global_section_mismatch_is_infinite():
    rng = random.Random(62)
    seen = 0
    for _ in range(60):
        dim = rng.choice([1, 2])
        f, g = rand_sheaf(rng, dim, 3), rand_sheaf(rng, dim, 3)
        if global_sections(f) != global_sections(g):
            seen += 1
            b, _ = sum_bound(f, g)
            assert b == INF
    assert seen > 10


def test_sum_bound_translation_bound():
    rng = random.Random(63)
    for _ in range(30):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=5)
        v = rand_point(rng, dim)
        for norm in Norm:
            b, _ = sum_bound(
                sheaf_sum(dim, [plain(p)]), sheaf_sum(dim, [plain(translate(p, v))]), norm
            )
            # exact under L1 and L-infinity; a rounded-up L2 bound exceeds its value by at most SLACK
            assert b.value <= norm_value(v, norm).value + (0 if b.exact else SLACK)


def test_matcher_matches_brute_force():
    rng = random.Random(64)
    pairs = []
    for _ in range(60):
        dim = rng.choice([1, 2])
        f = rand_sheaf(rng, dim, max_summands=3, max_mult=2)
        pairs.append((f, rand_sheaf(rng, dim, max_summands=3, max_mult=2)))
    crowded = random.Random(67)
    pairs += [crowded_bucket_pair(crowded, crowded.choice([1, 2])) for _ in range(24)]
    for f, g in pairs:
        lf, lg = expand_units(f), expand_units(g)
        if len(lf) > 6 or len(lg) > 6:
            continue
        expect = brute_bottleneck(lf, lg)
        got, matching = sum_bound(f, g)
        assert got.value == expect
        assert isinstance(matching, Matching)


def test_empty_sheaves():
    empty = sheaf_sum(1, [])
    b, m = sum_bound(empty, empty)
    assert b.value == 0 and m.pairs == ()
    inf, _ = sum_bound(sheaf_sum(1, [plain(I1)]), empty)
    assert inf == INF and INF.decimal_up() == "inf"


def test_infinite_bounds_meet_finite_ones_past_float_range():
    # a plain summand (infinite vanishing bound) beside a difference whose
    # vanishing bound exceeds every float, and which the matching tries
    # first: the matcher compares the two bounds exactly and never adds them
    big = difference(from_vertices([(-(10**400),), (0,)]), from_vertices([(0,)]))
    b, m = sum_bound(sheaf_sum(1, [plain(I1)]), sheaf_sum(1, [plain(I1), big]))
    assert b.value == F(10**400, 2) and m == Matching(((0, 1),), (), (0,))
    b, m = sum_bound(sheaf_sum(1, [plain(I1), big]), sheaf_sum(1, [big]))
    assert b == INF and m == Matching((), (0, 1), (0,))


@pytest.mark.parametrize("norm", [Norm.L2, Norm.LINF])
def test_matching_is_lexicographically_least(norm):
    def finite_and_checked(f, g) -> bool:
        lf, lg = expand_units(f), expand_units(g)
        bound, m = sum_bound(f, g, norm)
        expect = brute_lex_matching(lf, lg, norm)
        if expect is None:
            assert bound == INF
            assert m == Matching((), tuple(range(len(lf))), tuple(range(len(lg))))
            return False
        partner = dict(m.pairs)
        assert tuple(partner.get(i, len(lg)) for i in range(len(lf))) == expect
        assert m.unmatched_left == tuple(i for i in range(len(lf)) if i not in partner)
        assert m.unmatched_right == tuple(sorted(set(range(len(lg))) - set(partner.values())))
        return True

    rng = random.Random(66)
    checked = finite = 0
    while checked < 40:
        dim = rng.choice([1, 2])
        f = rand_sheaf(rng, dim, max_summands=3, max_vertices=4, max_mult=3)
        g = rand_nearby_sheaf(rng, f) if rng.random() < 0.8 else rand_sheaf(rng, dim, 3, 4, max_mult=3)
        if len(expand_units(f)) > 6 or len(expand_units(g)) > 6:
            continue
        finite += finite_and_checked(f, g)
        checked += 1
    assert finite >= 20
    crowded = random.Random(68)
    pairs = [crowded_bucket_pair(crowded, crowded.choice([1, 2])) for _ in range(20)]
    assert sum(finite_and_checked(f, g) for f, g in pairs) >= 10


def test_bound_only_entry_handles_huge_multiplicities():
    def seg(a, b):
        return from_vertices([(a,), (b,)])

    n = 10**6
    f = sheaf_sum(1, [difference(seg(0, 2), seg(0, 1), 0, n), plain(seg(0, 3), 1, n)])
    g = sheaf_sum(1, [difference(seg(1, 3), seg(1, 2), 0, n), plain(seg(1, 3), 1, n)])
    tracemalloc.start()
    try:
        started = time.perf_counter()
        b = bottleneck_bound(f, g)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.value == 1  # the plain pair's Hausdorff distance
    assert elapsed < 1.0
    assert peak < 2**20  # a list of 10**6 unit copies alone takes 8 MB


def test_sum_bound_refuses_too_many_unit_copies():
    # the matching lists every copy; the bound alone does not
    seg = from_vertices([(0,), (1,)])
    f = sheaf_sum(1, [plain(seg, 0, MAX_UNITS)])
    g = sheaf_sum(1, [plain(seg, 0, 10**4000)])
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"at most {MAX_UNITS} unit copies"):
        sum_bound(f, g)
    assert time.perf_counter() - started < 1.0
    assert bottleneck_bound(f, g) == INF  # global sections differ
    bound, matching = sum_bound(f, f)
    assert bound.value == 0 and len(matching.pairs) == MAX_UNITS


def test_sum_bound_computes_each_vanishing_bound_once(monkeypatch):
    calls = []
    original = eulercert.geometry.directed_hausdorff

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eulercert.distance, "directed_hausdorff", counting)
    monkeypatch.setattr(eulercert.geometry, "directed_hausdorff", counting)
    f = graded_sheaf(build_flag(from_vertices([(0, 0), (4, 0), (0, 3)]), (1, 1), 6))
    v = (F(1, 8), F(-1, 4))
    moved = [
        difference(translate(s.support.outer, v), translate(s.support.inner, v))
        if s.support.is_difference
        else plain(translate(s.support.outer, v))
        for s in f.summands
    ]
    g = sheaf_sum(2, moved + [plain(UNIT_SQUARE), difference(UNIT_SQUARE, from_vertices([(0, 0)]), 1)])
    f = sheaf_sum(2, list(f.summands) + [plain(UNIT_SQUARE, 0, 2)])
    differences = sum(s.support.is_difference for s in f.summands + g.summands)
    plain_pairs = sum(
        a.shift == b.shift
        for a in f.summands
        for b in g.summands
        if not a.support.is_difference and not b.support.is_difference
    )
    sum_bound(f, g)
    assert 0 < len(calls) <= differences + 2 * plain_pairs


def test_matcher_makes_no_translate_call(monkeypatch):
    # the bucket key is the matcher's only exact-translate test; pair_bound
    # keeps the Fraction test as the reference rule
    calls = []
    real = eulercert.distance.translate

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eulercert.distance, "translate", spy)
    rng = random.Random(69)
    pairs = [crowded_bucket_pair(rng, dim) for dim in (1, 2, 3) for _ in range(6)]
    for f, g in pairs:
        sum_bound(f, g)
        bottleneck_bound(f, g)
    assert not calls
    a, b = next(
        (f.summands[0], g.summands[0])
        for f, g in pairs
        if f.summands[0].support.is_difference and f.summands[0].support != g.summands[0].support
    )
    assert pair_bound(a, b) != INF and calls


def _fraction_bucket(s):
    # the key the integer `_bucket` replaced: vertices less the first outer
    # vertex, as Fractions
    if not s.support.is_difference:
        return (s.shift,)
    origin = s.support.outer.vertices[0]
    polys = (s.support.outer, s.support.inner)
    return (s.shift,) + tuple(tuple(vsub(p, origin) for p in q.vertices) for q in polys)


def _partition(summands, key):
    groups = {}
    for k, s in enumerate(summands):
        groups.setdefault(key(s), set()).add(k)
    return {frozenset(g) for g in groups.values()}


def test_integer_bucket_key_partitions_like_the_fraction_key():
    rng = random.Random(91)
    for dim in (1, 2, 3):
        for _ in range(12):
            summands = list(rand_sheaf(rng, dim, max_summands=6).summands)
            summands += crowded_bucket_pair(rng, dim)[0].summands
            # translates by vectors with denominators new to both polytopes,
            # some to another shift
            for s in [s for s in summands if s.support.is_difference]:
                for _ in range(2):
                    v = tuple(F(rng.randint(-300, 300), rng.choice([101, 103, 1024 * 3])) for _ in range(dim))
                    moved = Support(translate(s.support.outer, v), translate(s.support.inner, v))
                    summands.append(Summand(moved, s.shift + rng.choice([0, 0, 1]), 1))
            expect = _partition(summands, _fraction_bucket)
            assert len(expect) < len(summands)  # translates share a bucket
            assert _partition(summands, eulercert.distance._bucket) == expect


# --- decide: the per-element decision that verify makes --------------------------


def _within(x, d):
    # the per-element slack rule, applied here to the optimum
    return x.value - (0 if x.exact else SLACK) <= d


def _costs(f, g, norm):
    """Every element a decision may read: the optimum, each vanishing bound
    and each same-bucket edge cost."""
    costs = [bottleneck_bound(f, g, norm)]
    costs += [_vanishing(s, norm) for s in f.summands + g.summands if s.support.is_difference]
    costs += [_edge(a, b, norm) for a in f.summands for b in g.summands if _bucket(a) == _bucket(b)]
    return costs


@settings(deadline=None, max_examples=90)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(list(Norm)),
    st.sampled_from(["rand", "nearby", "crowded"]),
)
def test_decide_is_the_optimum_within_d(seed, dim, norm, kind):
    rng = random.Random(seed)
    if kind == "crowded":
        f, g = crowded_bucket_pair(rng, dim)
    else:
        f = rand_sheaf(rng, dim, max_summands=4)
        g = rand_nearby_sheaf(rng, f) if kind == "nearby" else rand_sheaf(rng, dim, max_summands=4)
    costs = _costs(f, g, norm)
    best = costs[0]
    step = F(1, 10**9)
    ds = {F(0)} | {c.value + k * step for c in costs if c != INF for k in (-1, 0, 1)}
    # the two slack rules can part only within SLACK below an inexact element
    rounded = [c.value for c in costs if not c.exact]
    for d in sorted(ds):
        if any(abs(d - r) <= SLACK for r in rounded):
            continue
        assert decide(f, g, norm, d) == _within(best, d), (d, best)


def test_decide_lets_each_rounded_element_alone_have_its_slack():
    # two plain pairs that must match as they are: (0, 0)-(1, 1) costs
    # sqrt 2, rounded up, and (10, 0)-(10 + c, 0) costs c exactly, c lying
    # within SLACK below the rounded sqrt 2; the optimum is the rounded one
    root2 = norm_value((F(1), F(1)), Norm.L2)
    c = root2.value - F(1, 10**12)
    assert not root2.exact and c * c < 2
    f = sheaf_sum(2, [plain(from_vertices([(0, 0)])), plain(from_vertices([(10, 0)]))])
    g = sheaf_sum(2, [plain(from_vertices([(1, 1)])), plain(from_vertices([(10 + c, 0)]))])
    best = bottleneck_bound(f, g, Norm.L2)
    assert best == root2
    d = root2.value - SLACK  # c > d >= root2 - SLACK
    # the optimum's own slack would pass d, but the exact element c > d
    # fails it, and no other matching is near: the decision rejects
    assert _within(best, d) and not decide(f, g, Norm.L2, d)
    assert decide(f, g, Norm.L2, c) and not decide(f, g, Norm.L2, c - F(1, 10**15))


def test_decide_refuses_a_negative_bound():
    empty = sheaf_sum(1, [])
    assert decide(empty, empty, Norm.L2, 0) and not decide(empty, empty, Norm.L2, F(-1, 10**20))
    with pytest.raises(ValueError, match="right sheaf dimension 2 != left sheaf dimension 1"):
        decide(empty, sheaf_sum(2, []), Norm.L2, 1)


@pytest.mark.parametrize("norm", list(Norm))
def test_decide_finds_equal_corners_at_zero(norm):
    # at d = 0 a plain bucket matches equal supports only: a hash of the
    # lowest corner under L1 and L-infinity, a grid of side SLACK under L2
    pts = [from_vertices([(k, 2 * k), (k + 1, 2 * k)]) for k in range(6)]
    f = sheaf_sum(2, [plain(p) for p in pts])
    assert decide(f, f, norm, 0)
    moved = sheaf_sum(2, [plain(translate(p, (F(0), F(1, 10**15)))) for p in pts])
    assert not decide(f, moved, norm, 0) and decide(f, moved, norm, F(1, 10**15))


def test_decide_prices_o_of_k_candidate_edges(monkeypatch):
    # k point summands a side, right = left + 1/3: every plain pair is an
    # edge of the one bucket, and the optimum prices all k^2 of them; the
    # grid leaves each left point one candidate
    k = 1000
    f = sheaf_sum(1, [plain(from_vertices([(i,)])) for i in range(k)])
    g = sheaf_sum(1, [plain(from_vertices([(i + F(1, 3),)])) for i in range(k)])
    calls = []
    real = eulercert.distance._edge

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eulercert.distance, "_edge", spy)
    started = time.perf_counter()
    assert decide(f, g, Norm.L2, F(1, 3))
    elapsed = time.perf_counter() - started
    assert len(calls) <= 3 * k
    assert elapsed < 1.0
    calls.clear()
    assert not decide(f, g, Norm.L2, F(1, 3) - F(1, 10**9))
    assert len(calls) <= 3 * k


def test_decide_filters_flag_level_differences(monkeypatch):
    # at half its spacing, each level difference of a flag passes the vertex
    # filter: no exact vanishing bound, no bucket key; just below, each fails
    # it, and their exact vanishing bounds, equal to it here, force them
    calls = []
    real = eulercert.distance._vanishing

    def spy(s, norm):
        calls.append(s)
        return real(s, norm)

    monkeypatch.setattr(eulercert.distance, "_vanishing", spy)
    for norm in Norm:
        flag = build_flag(from_vertices([(0, 0), (4, 0), (0, 3)]), (1, 1), 6)
        f = graded_sheaf(flag)
        point = sheaf_sum(2, [plain(from_vertices([(1, 1)]))])
        half = reach(flag.base, flag.center, norm).value / flag.steps / 2
        calls.clear()
        assert decide(f, point, norm, half)
        assert not [s for s in calls if s.support.is_difference]
        assert not decide(f, point, norm, half - F(1, 10**9))
        assert [s for s in calls if s.support.is_difference]
