import json
import os
import random
import time
from fractions import Fraction as F

import pytest

from eulercert import jsonio
from eulercert.certify import link
from eulercert.constructible import indicator
from eulercert.geometry import Norm, from_vertices, reach
from eulercert.jsonio import SchemaError
from eulercert.sheafsum import Summand

from helpers import rand_cf, rand_sheaf

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_polytope_round_trip():
    p = from_vertices([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    blob = jsonio.polytope_to_json(p)
    assert blob == {"vertices": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]}
    assert jsonio.polytope_from_json(json.loads(json.dumps(blob))) == p


def test_cf_round_trip_random():
    rng = random.Random(81)
    for _ in range(20):
        f = rand_cf(rng, rng.choice([1, 2, 3]))
        blob = json.dumps(jsonio.cf_to_json(f))
        assert jsonio.cf_from_json(json.loads(blob)) == f


def test_sheaf_round_trip_random():
    rng = random.Random(82)
    for _ in range(20):
        s = rand_sheaf(rng, rng.choice([1, 2]))
        blob = json.dumps(jsonio.sheaf_to_json(s))
        assert jsonio.sheaf_from_json(json.loads(blob)) == s


def test_certificate_round_trip():
    a = indicator(from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]))
    b = indicator(from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)]))
    cert = link(a, b, F(1, 4))
    blob = json.dumps(jsonio.cert_to_json(cert))
    parsed = jsonio.cert_from_json(json.loads(blob))
    assert parsed.source == cert.source and parsed.target == cert.target
    assert parsed.epsilon == cert.epsilon
    assert [s.left for s in parsed.steps] == [s.left for s in cert.steps]
    assert [s.declared_bound.value for s in parsed.steps] == [
        s.declared_bound.value for s in cert.steps
    ]
    # emitting the parsed value reproduces the same bytes
    assert json.dumps(jsonio.cert_to_json(parsed)) == blob


def _vertex_lists(blob) -> list:
    if isinstance(blob, dict):
        own = [blob["vertices"]] if "vertices" in blob else []
        return own + [v for value in blob.values() for v in _vertex_lists(value)]
    if isinstance(blob, list):
        return [v for item in blob for v in _vertex_lists(item)]
    return []


def _polytopes(cert) -> list:
    """Every polytope the certificate's JSON writes: a flag block writes its base."""
    cfs = [cert.source, cert.target] + [f for s in cert.steps for f in (s.chi_left, s.chi_right)]
    sheaves = [sh for s in cert.steps for sh in (s.left, s.right)]
    entries = [e for sh in sheaves for e in (sh.summands if sh.blocks is None else sh.blocks)]
    supports = [e.support for e in entries if isinstance(e, Summand)]
    return (
        [t.support for f in cfs for t in f.terms]
        + [sup.outer for sup in supports]
        + [sup.inner for sup in supports if sup.inner is not None]
        + [e[0].base for e in entries if not isinstance(e, Summand)]
    )


def test_certificate_hulls_each_distinct_vertex_list_once(monkeypatch):
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    hulled = []
    real = jsonio.from_vertices
    monkeypatch.setattr(jsonio, "from_vertices", lambda pts: hulled.append(tuple(pts)) or real(pts))
    cert = jsonio.cert_from_json(blob)
    lists = {tuple(tuple(F(c) for c in v) for v in verts) for verts in _vertex_lists(blob)}
    assert len(_vertex_lists(blob)) > len(lists)  # the fixture repeats vertex lists
    assert sorted(hulled) == sorted(lists)
    # every occurrence of one vertex list is the same object
    objects: dict = {}
    for p in _polytopes(cert):
        objects.setdefault(p.vertices, set()).add(id(p))
    assert all(len(ids) == 1 for ids in objects.values())


def test_cert_to_json_builds_each_distinct_polytope_once():
    a = indicator(from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]))
    b = indicator(from_vertices([(0, 2), (1, 2), (0, 3), (1, 3)]))
    cert = link(a, b, F(1, 8))
    blob = jsonio.cert_to_json(cert)
    objs = []
    pending = [blob]
    while pending:
        item = pending.pop()
        if isinstance(item, dict) and "vertices" in item:
            objs.append(item)
        elif isinstance(item, (dict, list)):
            pending.extend(item.values() if isinstance(item, dict) else item)
    assert len(objs) == len(_polytopes(cert)) > len(set(_polytopes(cert)))
    assert len({id(o) for o in objs}) == len(set(_polytopes(cert)))


def test_vertex_lists_key_on_raw_strings_only():
    polytopes: dict = {}
    strings = jsonio.polytope_from_json({"vertices": [["1", "0"], ["0", "0"]]}, polytopes)
    assert jsonio.polytope_from_json({"vertices": [["1", "0"], ["0", "0"]]}, polytopes) is strings
    numbers = jsonio.polytope_from_json({"vertices": [[1, 0], [0, 0]]}, polytopes)
    assert numbers == strings
    assert list(polytopes) == [(("1", "0"), ("0", "0"))]
    # true == 1 in Python, so a list with a bool must not meet the one with 1
    for verts in ([[True, 0], [0, 0]], [["1", "0"], [False, "0"]]):
        with pytest.raises(SchemaError, match="rational"):
            jsonio.polytope_from_json({"vertices": verts}, polytopes)


def test_cached_parse_refuses_list_and_object_coordinates():
    # such a coordinate cannot key the cache, and is no rational
    for coord in (["1"], {"1": 1}):
        with pytest.raises(SchemaError, match="rational"):
            jsonio.polytope_from_json({"vertices": [[coord]]}, {})


FIXTURES = ["link2d", "link3d", "link3dflat", "link3dline"]


def _cert_file(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return jsonio.cert_from_json(json.load(fh))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_v2_twin_parses_equal_to_its_v1_golden(fixture):
    v1, v2 = _cert_file(f"{fixture}.cert.json"), _cert_file(f"{fixture}.v2.cert.json")
    assert v2 == v1
    assert (v1.norm, v2.norm) == (None, Norm.L2)
    assert all(s.left.blocks is None and s.right.blocks is None for s in v1.steps)
    assert all((s.left.blocks is None) != (s.right.blocks is None) for s in v2.steps)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_v2_certificate_round_trips_to_the_same_bytes(fixture):
    with open(os.path.join(DATA, f"{fixture}.v2.cert.json"), "rb") as fh:
        raw = fh.read()
    cert = jsonio.cert_from_json(json.loads(raw))
    assert (json.dumps(jsonio.cert_to_json(cert)) + "\n").encode() == raw


def test_sheaf_of_blocks_and_summands_expands_and_round_trips():
    block = {"flag": {"polytope": {"vertices": [["0"], ["4"]]}, "center": ["0"], "steps": 4}, "shift": 1, "multiplicity": 2}
    point = {"outer": {"vertices": [["9"]]}, "inner": None, "shift": 0, "multiplicity": 1}
    blob = {"dimension": 1, "summands": [point, block]}
    s = jsonio.sheaf_from_json(blob)
    levels = [{"vertices": [["0"]]}] + [{"vertices": [["0"], [str(i)]]} for i in range(1, 5)]
    expanded = [point] + [
        {"outer": hi, "inner": lo, "shift": 1, "multiplicity": 2} for lo, hi in zip([None] + levels, levels)
    ]
    plain = jsonio.sheaf_from_json({"dimension": 1, "summands": expanded})
    assert s == plain and plain.blocks is None
    assert jsonio.sheaf_to_json(s) == blob


def test_cert_to_json_refuses_a_certificate_with_no_norm():
    cert = _cert_file("link2d.cert.json")
    with pytest.raises(ValueError, match="norm"):
        jsonio.cert_to_json(cert)


def test_affine_map_schema():
    m = jsonio.affine_map_from_json({"matrix": [["1", "0"], ["1/2", "1"]], "offset": ["0", "-1/3"]})
    assert m((2, 0)) == (F(2), F(2, 3))
    with pytest.raises(SchemaError):
        jsonio.affine_map_from_json({"matrix": [["1"]]})


def test_flag_round_trip_revalidates():
    fl_blob = {"polytope": {"vertices": [["0"], ["4"]]}, "center": ["0"], "steps": 4}
    fl = jsonio.flag_from_json(fl_blob)
    assert reach(fl.base, fl.center, Norm.L2).value / fl.steps == 1
    assert jsonio.flag_to_json(fl) == fl_blob
    with pytest.raises(ValueError):
        jsonio.flag_from_json({"polytope": {"vertices": [["0"], ["4"]]}, "center": ["9"], "steps": 4})
    with pytest.raises(SchemaError, match="integer"):
        jsonio.flag_from_json(dict(fl_blob, steps=True))


def test_schema_errors_are_descriptive():
    with pytest.raises(SchemaError, match="vertices"):
        jsonio.polytope_from_json({})
    with pytest.raises(SchemaError, match="rational"):
        jsonio.polytope_from_json({"vertices": [["x"]]})
    with pytest.raises(SchemaError, match="dimension"):
        jsonio.cf_from_json({"dimension": 9, "terms": []})
    with pytest.raises(SchemaError, match="coeff"):
        jsonio.cf_from_json({"dimension": 1, "terms": [{"polytope": {"vertices": [["0"]]}}]})
    with pytest.raises(SchemaError, match="integer"):
        jsonio.cf_from_json(
            {"dimension": 1, "terms": [{"coeff": "1", "polytope": {"vertices": [["0"]]}}]}
        )


@pytest.mark.parametrize(
    "text",
    ["1e-3000000", "1E+10000000", "2.5e1_000", "1e0001", "1" * (jsonio.MAX_DIGITS + 1), "0." + "0" * 2000 + "1"],
    ids=["exponent-bomb", "exponent-bomb-upper", "exponent-underscores", "exponent-leading-zeros", "digit-run", "decimal-run"],
)
def test_parse_rational_rejects_numbers_longer_than_the_limits(text):
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="exponent"):
        jsonio.parse_rational(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text",
    ["1_000", "1/2_0", "1 / 2", "1/ 2", "\u0661", "1/2.5", "1e", "."],
    ids=["underscore", "underscore-denominator", "spaced-slash", "space-after-slash", "arabic-digit", "decimal-denominator", "bare-e", "dot"],
)
def test_parse_rational_reads_one_grammar_on_every_python(text):
    # Fraction reads the first five on some interpreters only
    with pytest.raises(SchemaError, match="^not a rational: "):
        jsonio.parse_rational(text)


def test_parse_rational_accepts_numbers_within_the_limits():
    assert jsonio.parse_rational("1e-999") == F(1, 10**999)
    assert jsonio.parse_rational("-2.5E3") == -2500
    assert jsonio.parse_rational("1" * jsonio.MAX_DIGITS) == int("1" * jsonio.MAX_DIGITS)
    assert jsonio.parse_rational("3/4") == F(3, 4)
    assert jsonio.parse_rational(" -3/4\n") == F(-3, 4)
    assert jsonio.parse_rational("+.5") == F(1, 2)
    assert jsonio.parse_rational("2.") == 2
    assert jsonio.parse_rational(1e-05) == F(1, 10**5)
