import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulercert.certify import _streamed
from eulercert.constructible import euler_integral, indicator
from eulercert.distance import _decide_forced, _vanishing, decide
from eulercert.flags import build_flag
from eulercert.geometry import SLACK, Norm, Polytope, from_vertices, homothet, translate, vadd, vertex_centroid
from eulercert.sheafsum import (
    GlobalSections,
    SheafSum,
    Support,
    difference,
    global_sections,
    local_euler,
    plain,
    sheaf_sum,
)

from helpers import interior_point, rand_polytope, rand_sheaf

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
I1 = from_vertices([(0,), (1,)])
I2 = from_vertices([(0,), (2,)])


def test_support_validation():
    with pytest.raises(ValueError):
        Support(I1, I1)  # inner must differ
    with pytest.raises(ValueError):
        Support(I1, I2)  # inner must be contained
    Support(I2, I1)


def test_canonical_merge():
    s = sheaf_sum(1, [plain(I1), plain(I1), plain(I1, 0, 2)])
    assert len(s.summands) == 1 and s.summands[0].multiplicity == 4
    mixed = sheaf_sum(1, [plain(I1, 1), plain(I1, 0)])
    assert len(mixed.summands) == 2


def test_local_euler_examples():
    shifted = sheaf_sum(2, [plain(UNIT_SQUARE, shift=1, multiplicity=2)])
    assert local_euler(shifted) == -2 * indicator(UNIT_SQUARE)
    diff = sheaf_sum(1, [difference(I2, I1)])
    assert local_euler(diff) == indicator(I2) - indicator(I1)


def test_local_euler_additive_over_concatenation():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.choice([1, 2])
        s1, s2 = rand_sheaf(rng, dim, 4), rand_sheaf(rng, dim, 4)
        joined = sheaf_sum(dim, s1.summands + s2.summands)
        assert local_euler(joined) == local_euler(s1) + local_euler(s2)


def test_local_euler_of_difference_matches_plain_difference():
    rng = random.Random(42)
    for _ in range(30):
        dim = rng.choice([1, 2])
        outer = rand_polytope(rng, dim, max_vertices=5)
        while len(outer.vertices) < 2:
            outer = rand_polytope(rng, dim, max_vertices=5)
        inner = homothet(outer, interior_point(rng, outer), F(1, 2))
        if inner == outer:
            continue
        d = rng.choice([-2, -1, 0, 1, 2])
        lhs = local_euler(sheaf_sum(dim, [difference(outer, inner, d)]))
        sign = 1 if d % 2 == 0 else -1
        rhs = sign * (indicator(outer) - indicator(inner))
        assert lhs == rhs


def test_global_sections_examples():
    assert global_sections(sheaf_sum(2, [plain(UNIT_SQUARE)])).dims == ((0, 1),)
    assert global_sections(sheaf_sum(1, [difference(I2, I1, 0, 5)])).dims == ()
    mixed = sheaf_sum(2, [plain(UNIT_SQUARE, 0, 2), plain(UNIT_SQUARE, 1, 3)])
    assert global_sections(mixed) == GlobalSections(((-1, 3), (0, 2)))


def test_integral_identity():
    rng = random.Random(43)
    for _ in range(100):
        dim = rng.choice([1, 2])
        s = rand_sheaf(rng, dim)
        assert euler_integral(local_euler(s)) == global_sections(s).euler()


# --- streamed reads of flag blocks ------------------------------------------


@st.composite
def _block_sums(draw):
    """Two sums of flag blocks in dims 1-3, point bases among them: each
    left block faces its center's point summand, a translate of its flag or
    the flag itself, with shifts and multiplicities drawn on both sides."""
    dim = draw(st.sampled_from([1, 2, 3]))
    coord = st.fractions(0, 2, max_denominator=2)
    left, right = [], []
    for _ in range(draw(st.integers(1, 3))):
        base = from_vertices(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4)))
        center = vertex_centroid(base) if draw(st.booleans()) else base.vertices[0]
        flag = build_flag(base, center, draw(st.integers(1, 4)))
        shift = draw(st.integers(0, 1))
        left.append((flag, shift, draw(st.integers(1, 3))))
        kind = draw(st.sampled_from(["point", "translate", "same"]))
        if kind == "point":
            right.append(plain(Polytope((center,)), shift, draw(st.integers(1, 3))))
        else:
            t = draw(st.tuples(*[coord] * dim)) if kind == "translate" else (F(0),) * dim
            moved = build_flag(translate(base, t), vadd(center, t), flag.steps)
            right.append((moved, draw(st.integers(0, 1)), draw(st.integers(1, 3))))
    return SheafSum(dim, None, tuple(left)), SheafSum(dim, None, tuple(right))


@settings(deadline=None, max_examples=60)
@given(_block_sums(), st.sampled_from(list(Norm)))
def test_a_streamed_pass_agrees_with_the_materialised_sums(sums, norm):
    f, g = sums
    mf, mg = (SheafSum(h.dimension, None, h.blocks) for h in sums)  # twins, expanded on first read
    vanishing = {_vanishing(s, norm).value for s in mf.summands + mg.summands if s.support.is_difference}
    for d in {F(0)} | {v + e for v in vanishing for e in (-SLACK, 0, SLACK)}:
        (chi_f, left), (chi_g, right) = (_streamed(h, norm, d) for h in sums)
        assert (chi_f, chi_g) == (local_euler(mf), local_euler(mg))
        assert _decide_forced(left, right, norm, d) == decide(mf, mg, norm, d)
    assert local_euler(f) == local_euler(mf)
    assert f._summands is None and g._summands is None  # never materialised
