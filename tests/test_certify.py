import dataclasses
import json
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import eulercert.distance
from eulercert import constructible
from eulercert.certify import (
    MetricKind,
    Report,
    concentrate_basepoints,
    concentrate_to_point,
    link,
    metric_eval,
    probe_metric,
    verify,
)
from eulercert.constructible import (
    Verdict,
    equals,
    euler_integral,
    from_terms,
    indicator,
    zero_function,
)
from eulercert.distance import bottleneck_bound
from eulercert.geometry import Norm, RoundedReal, from_vertices, homothet
from eulercert.flags import _graded_summands
from eulercert.jsonio import cert_from_json, cert_to_json
from eulercert.sheafsum import sheaf_sum

from helpers import brute_metric, prism, rand_cf, rand_equality_pair

DATA = os.path.join(os.path.dirname(__file__), "data")
UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
SEG = from_vertices([(0,), (4,)])


def _cf_equal(a, b):
    return equals(a, b).verdict is Verdict.EQUAL


# --- concentrate_basepoints ----------------------------------------------------


def test_concentrate_segment_to_endpoint():
    step = concentrate_basepoints(indicator(SEG), [(0,)], F(1, 2))
    assert step.declared_bound.value == F(1, 2)
    # reach 4 with eps 1/2 forces n = 4, so 1 point summand + 4 differences
    assert len(step.left.summands) == 5
    assert step.chi_right == from_terms(1, [(1, from_vertices([(0,)]))])


def test_concentrate_negative_coefficient_uses_shift_one():
    step = concentrate_basepoints(-indicator(UNIT_SQUARE), [(0, 0)], 1)
    assert {s.shift for s in step.left.summands} == {1}
    assert step.chi_right == from_terms(2, [(-1, from_vertices([(0, 0)]))])
    assert euler_integral(step.chi_left) == euler_integral(step.chi_right) == -1


def test_concentrate_point_mass_is_degenerate():
    p = from_vertices([(2,)])
    step = concentrate_basepoints(indicator(p), [(2,)], F(1, 4))
    assert step.declared_bound.value == 0


def test_concentrate_rejects_bad_inputs():
    # the flag checks each basepoint against its support, once, and before
    # the step count its reach asks for (10**6 steps for the far point)
    for f, outside in (
        (indicator(SEG), (5,)),
        (indicator(SEG), (2 * 10**3,)),
        (indicator(UNIT_SQUARE), (F(1, 2), F(-1, 8))),
    ):
        with pytest.raises(ValueError, match="flag center must lie in the base polytope"):
            concentrate_basepoints(f, [outside], F(1, 1000))
    with pytest.raises(ValueError):
        concentrate_basepoints(indicator(SEG), [(0,)], 0)


# --- concentrate_to_point -------------------------------------------------------


def test_concentrate_two_intervals():
    f = indicator(from_vertices([(0,), (1,)])) + indicator(from_vertices([(2,), (3,)]))
    cert = concentrate_to_point(f, (0,), F(1, 4))
    assert len(cert.steps) == 3
    assert cert.target == from_terms(1, [(2, from_vertices([(0,)]))])
    assert all(s.declared_bound.value <= F(1, 4) for s in cert.steps)
    assert verify(cert).passed


def test_concentrate_trivial_point_mass():
    f = from_terms(1, [(1, from_vertices([(0,)]))])
    cert = concentrate_to_point(f, (0,), F(1, 2))
    assert cert.target == f
    assert verify(cert).passed


def test_concentrate_zero_integral_targets_zero_function():
    f = indicator(UNIT_SQUARE) - indicator(homothet(UNIT_SQUARE, (0, 0), F(1, 2)))
    cert = concentrate_to_point(f, (0, 0), F(1, 8))
    assert cert.target == zero_function(2)
    assert verify(cert).passed


# --- link -----------------------------------------------------------------------


def test_link_squares():
    g = indicator(from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)]))
    cert = link(indicator(UNIT_SQUARE), g, F(1, 10))
    assert len(cert.steps) == 6
    point_mass = from_terms(2, [(1, from_vertices([(0, 0)]))])
    assert cert.steps[2].chi_right == point_mass
    assert cert.steps[3].chi_left == point_mass
    assert verify(cert).passed


def test_link_reflexive():
    f = indicator(UNIT_SQUARE)
    cert = link(f, f, 1)
    assert verify(cert).passed
    assert _cf_equal(cert.source, cert.target)


def test_link_integral_mismatch():
    with pytest.raises(ValueError, match=r"integral mismatch: 1 != 2"):
        link(indicator(UNIT_SQUARE), 2 * indicator(UNIT_SQUARE), 1)


def test_link_in_dimension_3_verifies_sampled():
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    shifted = from_vertices([(x + 2, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    cert = link(indicator(cube), indicator(shifted), F(1, 2))
    # equality in dimension 3 is exact: the report passes with no note
    assert verify(cert) == Report(True, ())


# --- verify: tamper detection ----------------------------------------------------


def test_verify_detects_understated_bound():
    cert = concentrate_to_point(indicator(SEG), (0,), F(1, 2))
    k, step = next(
        (i, s) for i, s in enumerate(cert.steps) if s.declared_bound.value > 0
    )
    lowered = dataclasses.replace(step, declared_bound=RoundedReal(F(1, 10**6)))
    tampered = dataclasses.replace(
        cert, steps=cert.steps[:k] + (lowered,) + cert.steps[k + 1 :]
    )
    report = verify(tampered)
    assert not report.passed
    assert any(f"bound understated at step {k}" == item for item in report.failures)


@pytest.mark.parametrize(
    "below, passed", [(F(1, 10**13), True), (F(3, 10**12), False)], ids=["within-slack", "beyond-slack"]
)
def test_verify_allows_a_rounded_bound_its_slack_and_no_more(below, passed):
    # under L2 a recomputed bound may be rounded up by at most SLACK = 2/10**12,
    # so a declared bound within that of it may be true and one below it is not
    rect = from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)])
    cert = link(indicator(UNIT_SQUARE), indicator(rect), F(1, 4))
    k, recomputed = next(
        (k, b)
        for k, b in enumerate(bottleneck_bound(s.left, s.right, Norm.L2) for s in cert.steps)
        if not b.exact
    )
    lowered = dataclasses.replace(cert.steps[k], declared_bound=RoundedReal(recomputed.value - below))
    report = verify(dataclasses.replace(cert, steps=cert.steps[:k] + (lowered,) + cert.steps[k + 1 :]))
    assert report == (Report(True, ()) if passed else Report(False, (f"bound understated at step {k}",)))


@pytest.mark.parametrize("name", ["link2d", "link3d", "link3dflat", "link3dline"])
def test_verify_of_a_golden_computes_no_vanishing_bound_of_a_level_difference(name, monkeypatch):
    # each flag level difference passes the vertex filter at the declared
    # bound, so verify never computes its directed Hausdorff distance
    with open(os.path.join(DATA, f"{name}.v2.cert.json"), encoding="utf-8") as fh:
        cert = cert_from_json(json.load(fh))
    calls = []
    real = eulercert.distance._vanishing

    def spy(s, norm):
        calls.append(s)
        return real(s, norm)

    monkeypatch.setattr(eulercert.distance, "_vanishing", spy)
    assert verify(cert) == Report(True, ())
    assert not [s for s in calls if s.support.is_difference]


@pytest.mark.parametrize("norm", [Norm.LINF, Norm.L1])
def test_verify_decides_under_the_norm_the_certificate_records(norm):
    rect = from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)])
    cert = link(indicator(UNIT_SQUARE), indicator(rect), F(1, 4), norm)
    assert verify(cert) == Report(True, ())
    with pytest.raises(ValueError, match="records no norm"):
        verify(dataclasses.replace(cert, norm=None))


@pytest.mark.parametrize("norm", list(Norm))
def test_a_parsed_flag_block_equals_the_built_one(norm):
    rect = from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)])
    cert = link(indicator(UNIT_SQUARE), indicator(rect), F(1, 4), norm)
    parsed = cert_from_json(cert_to_json(cert))
    for built, read in zip(cert.steps, parsed.steps):
        assert (read.left.blocks, read.right.blocks) == (built.left.blocks, built.right.blocks)
    assert any(s.left.blocks or s.right.blocks for s in parsed.steps)


def test_verify_detects_broken_chain():
    cert = link(indicator(UNIT_SQUARE), indicator(UNIT_SQUARE), F(1, 2))
    bogus = from_terms(2, [(5, UNIT_SQUARE)])
    step0 = dataclasses.replace(cert.steps[0], chi_right=bogus)
    tampered = dataclasses.replace(cert, steps=(step0,) + cert.steps[1:])
    report = verify(tampered)
    assert not report.passed
    assert any("chain broken at step 1" == item for item in report.failures)


def test_verify_detects_wrong_local_euler():
    cert = concentrate_to_point(indicator(SEG), (0,), F(1, 2))
    bogus = from_terms(1, [(3, SEG)])
    step0 = dataclasses.replace(cert.steps[0], chi_left=bogus)
    tampered = dataclasses.replace(cert, steps=(step0,) + cert.steps[1:])
    report = verify(tampered)
    assert not report.passed
    assert any("local euler" in item for item in report.failures)
    assert any("source mismatch" == item for item in report.failures)


# --- metrics ---------------------------------------------------------------------


def test_metric_examples():
    assert metric_eval(MetricKind.L1, indicator(UNIT_SQUARE), zero_function(2)).value == 1
    f = rand_cf(random.Random(71), 2)
    assert metric_eval(MetricKind.SUP, f, f).value == 0
    point_mass = from_terms(2, [(1, from_vertices([(0, 0)]))])
    assert metric_eval(MetricKind.INTEGRAL_GAP, indicator(UNIT_SQUARE), point_mass).value == 0


def test_verify_of_valid_certificate_builds_no_arrangement(monkeypatch):
    # every equality a sound certificate asks for cancels term by term
    built = []
    real = constructible._stack
    monkeypatch.setattr(constructible, "_stack", lambda *a: built.append(a) or real(*a))
    with open(os.path.join(os.path.dirname(__file__), "data", "link2d.cert.json"), encoding="utf-8") as fh:
        cert = dataclasses.replace(cert_from_json(json.load(fh)), norm=Norm.L2)  # version 1, built under L2
    assert verify(cert).passed
    assert built == []


def test_metric_agrees_with_arrangement_of_all_supports():
    rng = random.Random(75)
    for _ in range(40):
        f, g = rand_equality_pair(rng, rng.choice([1, 2]))
        for kind in (MetricKind.SUP, MetricKind.L1):
            assert metric_eval(kind, f, g) == brute_metric(kind, f, g)
            assert metric_eval(kind, f, zero_function(f.dimension)) == brute_metric(kind, f, zero_function(f.dimension))


def test_metric_dimension_guard():
    # 3-D pieces carry no volume, so only L1 stops at dimension 2
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    with pytest.raises(ValueError, match="the L1 metric requires dimension <= 2"):
        metric_eval(MetricKind.L1, indicator(cube), zero_function(3))
    assert metric_eval(MetricKind.INTEGRAL_GAP, indicator(cube), zero_function(3)).value == 1
    assert metric_eval(MetricKind.SUP, indicator(cube), zero_function(3)).value == 1


def test_sup_of_prisms_is_the_2d_sup():
    rng = random.Random(76)
    for _ in range(12):
        f, g = rand_equality_pair(rng, 2)
        for h in (g, zero_function(2)):
            assert metric_eval(MetricKind.SUP, prism(f), prism(h)) == metric_eval(MetricKind.SUP, f, h)


# --- probe -----------------------------------------------------------------------


def test_probe_l1_square():
    schedule = [F(1, 2**k) for k in range(1, 11)]
    rows = probe_metric(MetricKind.L1, indicator(UNIT_SQUARE), (0, 0), schedule)
    assert [r.epsilon for r in rows] == schedule
    for r in rows:
        assert r.dc_bound.value == r.epsilon
        assert r.delta.value == 1


def test_probe_integral_gap_vanishes():
    rows = probe_metric(
        MetricKind.INTEGRAL_GAP, indicator(UNIT_SQUARE), (0, 0), [F(1, 2), F(1, 4)]
    )
    assert all(r.delta.value == 0 for r in rows)


def test_probe_sup_triple_interval():
    f = 3 * indicator(from_vertices([(0,), (1,)]))
    rows = probe_metric(MetricKind.SUP, f, (0,), [F(1, 2), F(1, 4), F(1, 8)])
    assert all(r.delta.value == 3 for r in rows)


def test_probe_schedule_validation():
    with pytest.raises(ValueError):
        probe_metric(MetricKind.L1, indicator(UNIT_SQUARE), (0, 0), [F(1, 4), F(1, 2)])
    with pytest.raises(ValueError):
        probe_metric(MetricKind.L1, indicator(UNIT_SQUARE), (0, 0), [])


# --- certificate invariants on random inputs --------------------------------------


def test_two_pushforwards_of_same_function_always_link():
    # images of one function along two affine maps share the Euler integral,
    # so the certificate chain between them always exists
    rng = random.Random(73)
    from eulercert.constructible import pushforward
    from eulercert.geometry import affine_map

    f = rand_cf(rng, 2, max_terms=2, max_vertices=4, lo=0, hi=2, dens=(1, 2))
    m1 = affine_map([[1, 0], [0, 1]], [F(1, 2), 0])
    m2 = affine_map([[0, 1], [1, 0]], [0, -1])
    a, b = pushforward(f, m1), pushforward(f, m2)
    assert euler_integral(a) == euler_integral(b)
    cert = link(a, b, F(1, 4))
    assert verify(cert).passed


def test_random_links_verify_with_constant_step_count():
    rng = random.Random(72)
    for _ in range(4):
        dim = rng.choice([1, 2])
        f = rand_cf(rng, dim, max_terms=2, max_vertices=4, lo=0, hi=2, dens=(1, 2))
        g = rand_cf(rng, dim, max_terms=2, max_vertices=4, lo=0, hi=2, dens=(1, 2))
        gap = euler_integral(f) - euler_integral(g)
        if gap:
            g = g + from_terms(dim, [(gap, from_vertices([tuple([1] * dim)]))])
        counts = set()
        for eps in (F(1, 2), F(1, 8)):
            cert = link(f, g, eps)
            counts.add(len(cert.steps))
            assert verify(cert).passed
            assert all(s.declared_bound.value <= eps for s in cert.steps)
            ints = {euler_integral(s.chi_left) for s in cert.steps}
            ints |= {euler_integral(s.chi_right) for s in cert.steps}
            assert ints == {euler_integral(f)}
        assert len(counts) == 1


# --- sums of flag blocks, expanded on first read ----------------------------------


@st.composite
def _cf(draw, dim):
    """1 to 3 terms of coefficient -3 to 3, some on a point, in [0, 2]^dim."""
    point = st.tuples(*[st.fractions(0, 2, max_denominator=2)] * dim)
    pairs = [
        (draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), from_vertices(draw(st.lists(point, min_size=1, max_size=4))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return from_terms(dim, pairs)


@st.composite
def _link_input(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    f, g = draw(_cf(dim)), draw(_cf(dim))
    gap = euler_integral(f) - euler_integral(g)
    if gap:
        g = g + from_terms(dim, [(gap, from_vertices([draw(st.tuples(*[st.integers(0, 2)] * dim))]))])
    return f, g, draw(st.sampled_from([F(1, 2), F(1, 4)]))


@settings(deadline=None, max_examples=30)  # a 3-D verify takes up to a second
@given(_link_input())
def test_built_sums_expand_to_the_merged_summands_and_round_trip(link_input):
    f, g, eps = link_input
    cert = link(f, g, eps)
    for step in cert.steps:
        for side in (step.left, step.right):
            if side.blocks is not None:
                eager = sheaf_sum(side.dimension, [sm for block in side.blocks for sm in _graded_summands(*block)])
                assert side.summands == eager.summands
    parsed = cert_from_json(json.loads(json.dumps(cert_to_json(cert))))
    assert parsed == cert and hash(parsed) == hash(cert)
    assert verify(cert).passed
