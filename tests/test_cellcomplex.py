import json
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given

from eulercert import cellcomplex
from eulercert.cellcomplex import _event_heights, _slice, arrangement
from eulercert.constructible import from_terms, oracle_integral
from eulercert.geometry import _planes, contains, from_vertices, volume
from eulercert.jsonio import cf_from_json

from helpers import fraction_slice, rand_polytope
from test_geometry import _hull_input

DATA = os.path.join(os.path.dirname(__file__), "data")

UNIT_SQUARE = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_line_arrangement_of_two_intervals():
    cc = arrangement([from_vertices([(0,), (2,)]), from_vertices([(1,), (3,)])])
    points = [c.representative[0] for c in cc.cells if c.dimension == 0]
    assert points == [F(0), F(1), F(2), F(3)]
    bounded = [c for c in cc.cells if c.dimension == 1 and c.bounded]
    assert [c.representative[0] for c in bounded] == [F(1, 2), F(3, 2), F(5, 2)]
    assert all(c.volume == 1 for c in bounded)
    unbounded = [c for c in cc.cells if not c.bounded]
    assert len(unbounded) == 2


def test_square_arrangement_cell_census():
    cc = arrangement([UNIT_SQUARE])
    census = Counter((c.dimension, c.bounded) for c in cc.cells)
    assert census[(0, True)] == 4
    assert census[(1, True)] == 4
    assert census[(2, True)] == 1
    # the complement: the slabs below and above, and left and right of the
    # square in its own slab; the walls' rays beyond the square
    assert census[(2, False)] == 4
    assert census[(1, False)] == 4
    face = next(c for c in cc.cells if c.dimension == 2 and c.bounded)
    assert face.volume == 1
    assert contains(UNIT_SQUARE, face.representative)


def test_empty_arrangement_single_unbounded_cell():
    cc = arrangement([], dimension=1)
    assert len(cc.cells) == 1 and not cc.cells[0].bounded
    cc2 = arrangement([], dimension=2)
    assert len(cc2.cells) == 1 and not cc2.cells[0].bounded


def test_dimension_3_rejected():
    cube = from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    with pytest.raises(ValueError):
        arrangement([cube])


def test_lines_are_the_lex_positive_chart_rows():
    point = from_vertices([(F(1, 2), F(1, 3))])
    assert _planes([point]) == [(0, 3, 1), (2, 0, 1)]
    seg = from_vertices([(0, 0), (2, 1)])
    assert _planes([seg]) == [(1, -2, 0), (2, 1, 0), (2, 1, 5)]
    assert _planes([UNIT_SQUARE]) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    # a plane shared by two polytopes, from either side, is one row
    above = from_vertices([(0, 1), (1, 1), (0, 2)])
    assert _planes([UNIT_SQUARE, above]) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 2)]
    cube = from_vertices([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert _planes([cube]) == [(0, 0, 1, 0), (0, 0, 1, 2), (0, 1, 0, 0), (0, 1, 0, 2), (1, 0, 0, 0), (1, 0, 0, 2)]
    # the plane 6x + 3y + 2z = 6, and the edge rows of the triangle's
    # projection onto the y, z axes
    slanted = from_vertices([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert _planes([slanted]) == [(0, 0, 1, 0), (0, 1, 0, 0), (0, 3, 2, 6), (6, 3, 2, 6)]


def test_event_heights_are_the_exact_crossing_heights():
    # x + y = 1 meets 3x - y = 0 at (1/4, 3/4); the segments' ends are at
    # heights 0, 1 and 3
    heights = _event_heights([from_vertices([(0, 1), (1, 0)]), from_vertices([(0, 0), (1, 3)])])
    assert F(3, 4) in heights and {0, 1, 3} <= set(heights)
    assert all(type(y) is F for y in heights) and heights == sorted(heights)
    # a segment's line meets its caps at its ends; the caps are parallel
    assert _event_heights([from_vertices([(0, 0), (2, 1)])]) == [0, 1]
    assert _event_heights([]) == []


def test_representatives_classify_membership():
    # each input polytope is a union of cells: membership is constant per cell,
    # so the representative decides it; spot-check with interior/boundary probes
    rng = random.Random(21)
    for _ in range(25):
        polys = [rand_polytope(rng, 2, max_vertices=5) for _ in range(rng.randint(1, 3))]
        cc = arrangement(polys)
        for p in polys:
            got = sum(
                c.volume
                for c in cc.cells
                if c.dimension == 2 and c.bounded and contains(p, c.representative)
            )
            assert got == volume(p)


def test_volume_matches_cell_sum_per_polytope():
    rng = random.Random(22)
    for _ in range(30):
        dim = rng.choice([1, 2])
        p = rand_polytope(rng, dim, max_vertices=7)
        cc = arrangement([p])
        total = sum(
            c.volume
            for c in cc.cells
            if c.dimension == dim and c.bounded and contains(p, c.representative)
        )
        assert total == volume(p)


def test_degenerate_inputs_become_cells():
    point = from_vertices([(F(1, 2), F(1, 2))])
    seg = from_vertices([(0, 0), (2, 2)])
    cc = arrangement([point, seg])
    vertex_reps = {c.representative for c in cc.cells if c.dimension == 0}
    assert (F(1, 2), F(1, 2)) in vertex_reps
    assert (F(0), F(0)) in vertex_reps and (F(2), F(2)) in vertex_reps


def test_arrangement_cuts_at_most_two_slices_per_event_height(monkeypatch):
    calls = []
    real = cellcomplex._stack
    monkeypatch.setattr(cellcomplex, "_stack", lambda terms, n: calls.append(n) or real(terms, n))
    rng = random.Random(23)
    for _ in range(10):
        polys = [rand_polytope(rng, 2, max_vertices=5) for _ in range(rng.randint(1, 4))]
        heights = _event_heights(polys)
        calls.clear()
        arrangement(polys)
        assert 0 < calls.count(1) <= 2 * len(heights) + 1
        assert len(heights) <= math.comb(len(_planes(polys)), 2)


def _assert_slices_match_the_fraction_route(p):
    # at every vertex height, between consecutive ones and beyond each end
    hs = sorted({v[-1] for v in p.vertices})
    zs = hs + [(a + b) / 2 for a, b in zip(hs, hs[1:])] + [hs[0] - 1, hs[-1] + 1]
    for z in zs:
        assert _slice(p, z) == fraction_slice(p, z), (p, z)


@given(_hull_input(dims=(2, 3)))
def test_slice_matches_the_fraction_route(pts):
    _assert_slices_match_the_fraction_route(from_vertices(pts))


@pytest.mark.parametrize("name", ["link3dflat_F.json", "link3dline_F.json", "l11_f.json"])
def test_slice_matches_the_fraction_route_on_flat_and_line_supports(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        supports = [t.support for t in cf_from_json(json.load(fh)).terms]
    assert supports
    for p in supports:
        _assert_slices_match_the_fraction_route(p)


def test_the_slice_recursion_makes_no_hull(monkeypatch):
    # each slice is cut from its polytope's chart edges, so no module hulls a
    # point list while 3-D functions are sliced down to their 1-D pieces
    rng = random.Random(7)
    f = from_terms(3, [(rng.choice([-1, 1]), rand_polytope(rng, 3)) for _ in range(3)])
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("eulercert")]:
        real = getattr(mod, "from_vertices", None)
        if real is not None:
            monkeypatch.setattr(mod, "from_vertices", lambda pts, real=real: calls.append(pts) or real(pts))
    assert oracle_integral(f) == 1
    assert calls == []
