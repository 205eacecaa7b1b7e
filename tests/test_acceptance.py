"""Acceptance sweep: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction as F

from eulercert.certify import MetricKind, link, probe_metric, verify
from eulercert.cellcomplex import arrangement
from eulercert.constructible import (
    Verdict,
    equals,
    euler_integral,
    evaluate,
    from_terms,
    indicator,
    oracle_integral,
    oracle_pushforward_at,
    pushforward,
)
from eulercert.distance import pair_bound, sum_bound
from eulercert.flags import build_flag, graded_sheaf
from eulercert.geometry import (
    SLACK,
    Polytope,
    affine_map,
    directed_hausdorff,
    from_vertices,
    homothet,
    reach,
)
from eulercert.sheafsum import difference, global_sections, local_euler, plain, sheaf_sum

from helpers import (
    brute_bottleneck,
    expand_units,
    interior_point,
    rand_cf,
    rand_point,
    rand_polytope,
    rand_sheaf,
)

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def _report(num: int, name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criteria_1_and_2_telescoping_and_flag_bound():
    started = time.perf_counter()
    rng = random.Random(1001)
    step_counts = [1, 2, 4, 16, 64]
    for i in range(500):
        dim = rng.choice([1, 2])
        poly = rand_polytope(rng, dim, max_vertices=10, dens=(1, 2))
        center = interior_point(rng, poly)
        n = step_counts[i % len(step_counts)]
        fl = build_flag(poly, center, n)
        sheaf = graded_sheaf(fl)
        # criterion 1: exact rational equality with the base indicator
        assert local_euler(sheaf) == indicator(poly)
        # criterion 2: certified bound against the basepoint sheaf
        singleton = sheaf_sum(dim, [plain(Polytope((center,)))])
        bound, _ = sum_bound(sheaf, singleton)
        limit = reach(poly, center).value / (2 * n) + SLACK  # L2 values, rounded up
        assert bound.value <= limit
    _report(1, "telescoping identity", started)
    _report(2, "flag distance bound", started, budget=60.0)


def test_criterion_3_vanishing_rule():
    started = time.perf_counter()
    rng = random.Random(1003)
    checked = 0
    while checked < 200:
        dim = rng.choice([1, 2])
        outer = rand_polytope(rng, dim, max_vertices=8, dens=(1, 2))
        if len(outer.vertices) < 2:
            continue
        center = interior_point(rng, outer)
        inner = homothet(outer, center, F(rng.randint(1, 7), 8))
        if inner == outer:
            continue
        bound = pair_bound(difference(outer, inner), None)
        dh = directed_hausdorff(outer, inner)
        assert bound.value == dh.value / 2

        n = rng.randint(1, 8)
        i = rng.randint(1, n)
        hi = homothet(outer, center, F(i, n))
        lo = homothet(outer, center, F(i - 1, n))
        chain_gap = directed_hausdorff(hi, lo)
        expected = reach(outer, center).value / n
        assert abs(chain_gap.value - expected) <= SLACK  # L2 values, rounded up
        checked += 1
    _report(3, "vanishing rule", started)


def test_criterion_4_integral_identity():
    started = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(500):
        dim = rng.choice([1, 2])
        sheaf = rand_sheaf(rng, dim, max_summands=8, shift_range=2)
        assert euler_integral(local_euler(sheaf)) == global_sections(sheaf).euler()
    _report(4, "integral identity", started, budget=30.0)


def test_criterion_5_euler_integral_oracle():
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(500):
        dim = rng.choice([1, 2])
        f = rand_cf(rng, dim, max_terms=3, max_vertices=5)
        assert euler_integral(f) == oracle_integral(f)
    _report(5, "euler integral oracle", started)


def test_criterion_6_functoriality():
    started = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(200):
        f = rand_cf(rng, 2, max_terms=2, max_vertices=4, dens=(1, 2))
        inner_map = affine_map(
            [[rand_point(rng, 1, dens=(1, 2))[0] for _ in range(2)] for _ in range(2)],
            rand_point(rng, 2, dens=(1, 2)),
        )
        outer_map = affine_map(
            [[rand_point(rng, 1, dens=(1, 2))[0] for _ in range(2)]],
            rand_point(rng, 1, dens=(1, 2)),
        )
        composed = outer_map.compose(inner_map)
        via_composite = pushforward(f, composed)
        via_stages = pushforward(pushforward(f, inner_map), outer_map)
        assert equals(via_composite, via_stages).verdict is Verdict.EQUAL
        assert euler_integral(via_composite) == euler_integral(f)
        # pointwise agreement with the defining fiber formula
        for cell in arrangement(via_composite.supports(), 1).cells:
            y = cell.representative
            assert evaluate(via_composite, y) == oracle_pushforward_at(f, composed, y)
        mid = pushforward(f, inner_map)
        for cell in arrangement(mid.supports(), 2).cells:
            y = cell.representative
            assert evaluate(mid, y) == oracle_pushforward_at(f, inner_map, y)
    _report(6, "pushforward functoriality", started)


def _equal_integral_pair(rng: random.Random, dim: int):
    if dim == 1:
        kw = dict(max_terms=2, max_vertices=4, coeff_range=2, lo=0, hi=3, dens=(1, 2))
    else:
        kw = dict(max_terms=2, max_vertices=4, coeff_range=2, lo=0, hi=2, dens=(1, 2))
    f = rand_cf(rng, dim, **kw)
    g = rand_cf(rng, dim, **kw)
    gap = euler_integral(f) - euler_integral(g)
    if gap:
        g = g + from_terms(dim, [(gap, Polytope((rand_point(rng, dim, lo=0, hi=2, dens=(1,)),)))])
    return f, g


def test_criterion_7_end_to_end_witness():
    started = time.perf_counter()
    rng = random.Random(1007)
    schedule = [F(1, 2**k) for k in range(1, 9)]
    for case in range(50):
        dim = 1 if case < 30 else 2
        f, g = _equal_integral_pair(rng, dim)
        step_counts = set()
        for eps in schedule:
            cert = link(f, g, eps)
            step_counts.add(len(cert.steps))
            report = verify(cert)
            assert report.passed, report.failures
            worst = max((s.declared_bound.value for s in cert.steps), default=F(0))
            assert worst <= eps
        assert len(step_counts) == 1
    _report(7, "end-to-end non-stability witness", started, budget=300.0)


def test_criterion_8_probe_table():
    started = time.perf_counter()
    schedule = [F(1, 2**k) for k in range(1, 11)]
    rows = probe_metric(MetricKind.L1, indicator(UNIT_SQUARE), (0, 0), schedule)
    for eps, row in zip(schedule, rows):
        assert row.dc_bound.value == eps
        assert row.delta.value == 1  # the square's volume
    gap_rows = probe_metric(MetricKind.INTEGRAL_GAP, indicator(UNIT_SQUARE), (0, 0), schedule)
    assert all(row.delta.value == 0 for row in gap_rows)
    _report(8, "probe table", started, budget=60.0)


def test_criterion_9_matcher_optimality():
    started = time.perf_counter()
    rng = random.Random(1009)
    checked = 0
    while checked < 200:
        dim = rng.choice([1, 2])
        f = rand_sheaf(rng, dim, max_summands=3, max_vertices=4, max_mult=2)
        g = rand_sheaf(rng, dim, max_summands=3, max_vertices=4, max_mult=2)
        lf, lg = expand_units(f), expand_units(g)
        if len(lf) > 6 or len(lg) > 6:
            continue
        expected = brute_bottleneck(lf, lg)
        got, _ = sum_bound(f, g)
        assert got.value == expected
        checked += 1
    _report(9, "matcher optimality", started)
