import ast
import glob
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import eulercert
from eulercert import _simplex, certify, flags, jsonio, sheafsum
from eulercert.cli import run
from eulercert.distance import bottleneck_bound
from eulercert.flags import MAX_FLAG_STEPS
from eulercert.geometry import Norm

from helpers import v1_cert_bytes

SQUARE = {
    "dimension": 2,
    "terms": [
        {"coeff": 1, "polytope": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}}
    ],
}
RECT = {
    "dimension": 2,
    "terms": [
        {"coeff": 1, "polytope": {"vertices": [["0", "2"], ["1", "2"], ["0", "3"], ["1", "3"]]}}
    ],
}
DOUBLE = {
    "dimension": 2,
    "terms": [
        {"coeff": 2, "polytope": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}}
    ],
}


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_integrate(square, capsys):
    assert run(["integrate", square]) == 0
    assert capsys.readouterr().out == "1\n"


def test_oracle_integrate(square, capsys):
    assert run(["oracle-integrate", square]) == 0
    assert capsys.readouterr().out == "1\n"


def test_pushforward(square, tmp_path, capsys):
    mp = _write(tmp_path, "map.json", {"matrix": [["1", "0"]], "offset": ["0"]})
    assert run(["pushforward", square, "--map", mp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "dimension": 1,
        "terms": [{"coeff": 1, "polytope": {"vertices": [["0"], ["1"]]}}],
    }


def test_pushforward_map_of_another_domain_gives_both_dimensions(square, tmp_path, capsys):
    wide = _write(tmp_path, "wide.json", {"matrix": [["1", "0", "0"]], "offset": ["0"]})
    assert run(["pushforward", square, "--map", wide]) == 2
    assert capsys.readouterr() == ("", "error: map domain dimension 3 != function dimension 2\n")


def test_chi_of_flag_sheaf(tmp_path, capsys):
    poly = _write(tmp_path, "seg.json", {"vertices": [["0"], ["4"]]})
    assert run(["flag", poly, "--center", "0", "--steps", "4"]) == 0
    flag_out = json.loads(capsys.readouterr().out)
    assert flag_out["eta"] == "1.000000000000"
    sheaf = _write(tmp_path, "sheaf.json", flag_out["sheaf"])
    assert run(["chi", sheaf]) == 0
    chi = json.loads(capsys.readouterr().out)
    assert chi == {
        "dimension": 1,
        "terms": [{"coeff": 1, "polytope": {"vertices": [["0"], ["4"]]}}],
    }


def test_bound_output(tmp_path, capsys):
    left = _write(
        tmp_path,
        "left.json",
        {
            "dimension": 1,
            "summands": [
                {"outer": {"vertices": [["0"], ["1"]]}, "inner": None, "shift": 0, "multiplicity": 1},
                {
                    "outer": {"vertices": [["0"], ["2"]]},
                    "inner": {"vertices": [["0"], ["1"]]},
                    "shift": 0,
                    "multiplicity": 1,
                },
            ],
        },
    )
    right = _write(
        tmp_path,
        "right.json",
        {
            "dimension": 1,
            "summands": [
                {"outer": {"vertices": [["0"], ["2"]]}, "inner": None, "shift": 0, "multiplicity": 1}
            ],
        },
    )
    assert run(["bound", left, right]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1.000000000000"
    assert out[1] == "pairs 0-0"
    assert out[2] == "unmatched_f 1"
    assert out[3] == "unmatched_g "


DATA = os.path.join(os.path.dirname(__file__), "data")


# Expected stdout was recorded from the unit-copy matcher that preceded the
# summand-level one: a 2-D flag against its translate (L2 and L1), two 1-D
# flags with different step counts and multiplicities 3 and 5, and plain and
# difference summands across shifts, where the matching pairs differences
# through the triangle rule.  bound3d was recorded from the Gram-solve L2
# distances that preceded the integer kernel: a 3-D octahedron flag against
# its translate, with differences whose nearest points lie at vertices, on
# edges and inside facets of 3-polytopes, on edges and inside polygons in
# slanted planes, and inside segments in space.  The other L1 and L-infinity
# outputs were recorded while those distances were still solved by one simplex
# LP per outside vertex.  infinite, recorded while an infinite bound was still
# a None apart from the finite ones, bounds steps_F against steps_G less its
# plain summand: the global sections differ, so no pair is matched.
@pytest.mark.parametrize(
    "name, fixture, options",
    [
        ("translate", "translate", []),
        ("translate_l1", "translate", ["--norm", "l1"]),
        ("steps", "steps", []),
        ("shifts", "shifts", []),
        ("bound3d", "bound3d", []),
        ("translate_linf", "translate", ["--norm", "linf"]),
        ("steps_l1", "steps", ["--norm", "l1"]),
        ("steps_linf", "steps", ["--norm", "linf"]),
        ("shifts_l1", "shifts", ["--norm", "l1"]),
        ("shifts_linf", "shifts", ["--norm", "linf"]),
        ("bound3d_l1", "bound3d", ["--norm", "l1"]),
        ("bound3d_linf", "bound3d", ["--norm", "linf"]),
        ("infinite", "infinite", []),
        ("infinite_l1", "infinite", ["--norm", "l1"]),
        ("infinite_linf", "infinite", ["--norm", "linf"]),
    ],
)
def test_bound_output_is_byte_identical(name, fixture, options, capsys):
    left, right = (os.path.join(DATA, f"{fixture}_{side}.json") for side in "FG")
    assert run(options + ["bound", left, right]) == 0
    with open(os.path.join(DATA, f"{name}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


# recorded while a flag still carried its spacing, computed by `build_flag`
# under the configured norm; the CLI now computes eta from the flag's reach
@pytest.mark.parametrize("name, center, steps", [("flag2d", "1/2,1/3", "3"), ("flag3d", "1/3,1/2,1/4", "4")])
@pytest.mark.parametrize("norm", list(Norm))
def test_flag_output_is_byte_identical(name, center, steps, norm, capsys):
    options = [] if norm is Norm.L2 else ["--norm", norm.value]
    assert run(options + ["flag", os.path.join(DATA, f"{name}_P.json"), "--center", center, "--steps", steps]) == 0
    suffix = "" if norm is Norm.L2 else f"_{norm.value}"
    with open(os.path.join(DATA, f"{name}{suffix}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


# blocks2d: two triangle blocks of 2000 steps each, of shifts 0 and 1 and
# multiplicities 1 and 2; the golden was recorded while the parser still
# expanded every block.  blocks3d: a cube block and one on an 11-vertex base,
# 300 steps each; the golden was recorded while every level built its chart
# from its own vertices
@pytest.mark.parametrize("name", ["blocks2d", "blocks3d"])
def test_chi_of_a_multi_block_sheaf_is_byte_identical(name, capsys):
    assert run(["chi", os.path.join(DATA, f"{name}.json")]) == 0
    with open(os.path.join(DATA, f"{name}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")


# a point whose first coordinate is negative is joined to its option by "=":
# argparse would read a separate -1/2,1 as an option of its own
@pytest.mark.parametrize(
    "argv",
    [
        ["flag", "P", "--center=-1/2,1", "--steps", "2"],
        ["concentrate", "SQUARE", "--target=-1,0", "--epsilon", "1/4"],
        ["probe", "SQUARE", "--target=-1,0", "--metric", "gap", "--schedule", "1/4"],
    ],
    ids=["flag-center", "concentrate-target", "probe-target"],
)
def test_a_negative_point_is_given_with_equals(argv, square, capsys):
    files = {"P": os.path.join(DATA, "flag2d_P.json"), "SQUARE": square}
    assert run([files.get(a, a) for a in argv]) == 0
    assert capsys.readouterr().err == ""


# `oracle-integrate` and `probe --metric l1|sup` read the slice recursion on
# the input's supports; pieces2d mixes a point, axis-parallel segments and a
# square, and the link3d inputs are a solid, a flat polygon and a segment in
# space, whose pieces carry no volume, so L1 refuses them
@pytest.mark.parametrize("fixture", ["link2d_F", "link2d_G", "pieces2d", "link3d_F", "link3dflat_F", "link3dline_F"])
def test_arrangement_outputs_are_byte_identical(fixture, capsys):
    cf = os.path.join(DATA, f"{fixture}.json")
    out = ""
    for metric in (None, "l1", "sup"):
        argv = ["oracle-integrate", cf] if metric is None else ["probe", "--metric", metric, "--schedule", "1/4,1/8", cf]
        code, captured = run(argv), capsys.readouterr()
        if metric == "l1" and fixture.startswith("link3d"):
            assert (code, captured.out, captured.err) == (2, "", "error: the L1 metric requires dimension <= 2\n")
        else:
            assert code == 0
            out += captured.out
    with open(os.path.join(DATA, f"{fixture}_cells.out"), encoding="utf-8") as fh:
        assert out == fh.read()
    assert run(["integrate", cf]) == 0
    assert capsys.readouterr().out == out.splitlines(keepends=True)[0]


# The seed-3 `link` input of the benchmark whose two 6-vertex solids give 411
# event heights; its Euler integral was recorded while slices were still hulled
def test_oracle_integrate_of_many_event_heights_is_byte_identical(capsys):
    cf = os.path.join(DATA, "l11_f.json")
    assert run(["oracle-integrate", cf]) == 0
    with open(os.path.join(DATA, "l11_f_oracle.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


# Certificates written by `link` at eps = 1/16 while hulls were still solved
# by simplex LPs: link2d and link3d before dimensions 1 and 2 moved to
# Andrew's monotone chain, link3dflat (triangles in slanted planes) and
# link3dline (segments in space) before dimension 3 moved to integer charts.
# The inputs list duplicate, edge-interior and interior vertices, so the hull
# canonicalization shows in the certificate bytes.  These goldens are format
# v1, every level written out; `link` now writes the v2 twin beside each
# (`.v2.cert.json`), and the v1 rendering of what it wrote, expanded by the
# reader, must still be the v1 golden byte for byte.  The sha256 pins below
# hold the same pair: the v1 rendering's and the v2 file's.
@pytest.mark.parametrize("fixture", ["link2d", "link3d", "link3dflat", "link3dline"])
def test_link_certificate_is_byte_identical(fixture, tmp_path, capsys):
    left, right = (os.path.join(DATA, f"{fixture}_{side}.json") for side in "FG")
    out = tmp_path / "cert.json"
    assert run(["link", left, right, "--epsilon", "1/16", "--out", str(out)]) == 0
    golden, twin = (os.path.join(DATA, f"{fixture}{v}.cert.json") for v in ("", ".v2"))
    with open(twin, "rb") as fh:
        assert out.read_bytes() == fh.read()
    with open(golden, "rb") as fh:
        assert v1_cert_bytes(_parsed(out)) == fh.read()
    for cert in (golden, twin):
        assert run(["verify", cert]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def _parsed(path):
    return jsonio.cert_from_json(json.loads(path.read_bytes()))


def _pins(out, v1_pin: str, v2_pin: str) -> None:
    assert hashlib.sha256(v1_cert_bytes(_parsed(out))).hexdigest() == v1_pin
    assert hashlib.sha256(out.read_bytes()).hexdigest() == v2_pin


# sha256 of the certificates `link --epsilon 1/16` wrote under L1 and
# L-infinity while those distances were still solved by simplex LPs
POLYHEDRAL_LINKS = {
    ("link2d", "l1"): "a430be48a98c1e8fb876a4093fe38eb1d3d2e9aa425b525ce8fe5ffb9ae5f6ae",
    ("link3d", "l1"): "a96fbf5feb80cffdc870eb126bc8e90dd769d7901b15049fcc2d3c36d88a693d",
    ("link3dflat", "l1"): "4a05871425eb6426edffbbfed8bab943ca55de46822e5256de55c40f64f8f4a2",
    ("link3dline", "l1"): "f9f60552d213b49228c66cea644c4fe09d55ede9338ed3ee784726476f773943",
    ("link2d", "linf"): "77fbdf33f11f8a2d4a0441832110fc23f0220f51b9d2e482a27fd88b75e45311",
    ("link3d", "linf"): "14bec9ecda5aeeaf789f9cc0d02f2feac10e8f9e2b92405608e4d936e506803d",
    ("link3dflat", "linf"): "09c39c05b19bfc8a7517663322d6e6edb80db3bfc3994e855066bece236ab3fe",
    ("link3dline", "linf"): "d8c6c90c5be41c2220d5a6539c4b1f86068d2a8ffb34ad3eb69736ff5eb1d388",
}
# sha256 of the same certificates as `link` writes them in format v2
POLYHEDRAL_LINKS_V2 = {
    ("link2d", "l1"): "120c3d1deef2b5a289067ce092467d7111f3768b4315c5a1d1d43af7fe7344da",
    ("link3d", "l1"): "76765a83a1b62fde8b1016c02ae7282576dcbb70fcf9c5e41276b3372876bf5a",
    ("link3dflat", "l1"): "63009f62b0ef2716c17c34440b1f874f0a6d3506f38f3efb8f36f2ca8e64662b",
    ("link3dline", "l1"): "c4e718597571460cb3daeb10b1d48a9bdc4c9da4fb1df3ff3dd27d858b261745",
    ("link2d", "linf"): "d7dea7bee42e0e800916af62820bf4bb2c7876ae0faaeacf6a5c18a0425b4e68",
    ("link3d", "linf"): "310ae2da6b51ba0688575b729c816ec2a72909d8d5789a935d9a30544f66747d",
    ("link3dflat", "linf"): "57d7cf659e1afa7ea239ccf3c719578bc0c3cbcd04ded95eb68b59b9cf9b215f",
    ("link3dline", "linf"): "c38de47f974e49abc589b1784ffb7920b0250c48df9e3cb0c09000549bcbce2e",
}


@pytest.mark.parametrize("fixture, norm", sorted(POLYHEDRAL_LINKS))
def test_polyhedral_link_certificate_is_byte_identical(fixture, norm, tmp_path, capsys):
    left, right = (os.path.join(DATA, f"{fixture}_{side}.json") for side in "FG")
    out = tmp_path / "cert.json"
    assert run(["--norm", norm, "link", left, right, "--epsilon", "1/16", "--out", str(out)]) == 0
    _pins(out, POLYHEDRAL_LINKS[fixture, norm], POLYHEDRAL_LINKS_V2[fixture, norm])
    assert run(["--norm", norm, "verify", str(out)]) == 0
    # the L2 golden certificate holds under L-infinity, which is never larger;
    # its v1 file records no norm, so verify takes the configured one
    if norm == "linf":
        assert run(["--norm", norm, "verify", os.path.join(DATA, f"{fixture}.cert.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


# L2 certificates at eps = 1/256: flags of hundreds of levels over large
# denominators, which the 1/16 goldens never reach
FINE_LINKS = {
    "link2d": "503d8f8f23e0cc364ebc3de8d31eefa42aa869722f0ab3d404695e33d573abe1",
    "link3d": "602dd69d11ef752a815170235eb20c78357b490f8e535c6ec13bd6ae6810b3ea",
    "link3dflat": "1fbf79e15c01d364bfba1d1ec0f4a0234ac64fea19e59b90023d7e92d5faa4d5",
    "link3dline": "d754ac6e4d416d6d1df2a0faf3dcb3fce99779e474b4a032038ef077f4f5bcbd",
}
# in format v2 each flag is one block, so the size no longer grows with 1/eps
FINE_LINKS_V2 = {
    "link2d": "c2502c152e6dced3608f37981e598fb1b711cd031df064d075152e81d6eee230",
    "link3d": "286b561be93d7da94f0ae880f8c029a7db7d5c8bce51b1611a82a9c86f5ca6bd",
    "link3dflat": "e363ed11f5b5f12b412c6b32feedc5efda56322f8307fcf1cc86df03c958c994",
    "link3dline": "d0f470586faa57581bfa4783935dc8b90cbf8c264fa3b284f048ec1b32d3e242",
}


@pytest.mark.parametrize("fixture", sorted(FINE_LINKS))
def test_fine_link_certificate_is_byte_identical(fixture, tmp_path):
    left, right = (os.path.join(DATA, f"{fixture}_{side}.json") for side in "FG")
    out = tmp_path / "cert.json"
    assert run(["link", left, right, "--epsilon", "1/256", "--out", str(out)]) == 0
    _pins(out, FINE_LINKS[fixture], FINE_LINKS_V2[fixture])


def test_bound_large_multiplicity_against_itself(tmp_path, capsys):
    summand = {
        "outer": {"vertices": [["0"], ["2"]]},
        "inner": {"vertices": [["0"], ["1"]]},
        "shift": 0,
        "multiplicity": 1200,
    }
    sheaf = _write(tmp_path, "big.json", {"dimension": 1, "summands": [summand]})
    started = time.perf_counter()
    assert run(["bound", sheaf, sheaf]) == 0
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.000000000000"
    assert out[1] == "pairs " + " ".join(f"{i}-{i}" for i in range(1200))
    assert out[2:] == ["unmatched_f ", "unmatched_g "]


def test_link_verify_round_trip(square, tmp_path, capsys):
    rect = _write(tmp_path, "rect.json", RECT)
    cert = str(tmp_path / "cert.json")
    assert run(["link", square, rect, "--epsilon", "0.25", "--out", cert]) == 0
    assert run(["verify", cert]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_verify_in_dimension_3_prints_only_the_verdict(tmp_path, capsys):
    cube = [[str(x), str(y), str(z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    moved = [[str(x + 2), y, z] for x, y, z in ((int(v[0]), v[1], v[2]) for v in cube)]
    a = _write(tmp_path, "a.json", {"dimension": 3, "terms": [{"coeff": 1, "polytope": {"vertices": cube}}]})
    b = _write(tmp_path, "b.json", {"dimension": 3, "terms": [{"coeff": 1, "polytope": {"vertices": moved}}]})
    cert = str(tmp_path / "cert.json")
    assert run(["link", a, b, "--epsilon", "0.5", "--out", cert]) == 0
    capsys.readouterr()
    assert run(["verify", cert]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_link_integral_mismatch_exits_2(square, tmp_path, capsys):
    double = _write(tmp_path, "double.json", DOUBLE)
    assert run(["link", square, double, "--epsilon", "0.25"]) == 2
    err = capsys.readouterr().err
    assert "integral mismatch: 1 != 2" in err


def test_verify_fails_on_tampered_bound(square, tmp_path, capsys):
    rect = _write(tmp_path, "rect.json", RECT)
    cert_path = str(tmp_path / "cert.json")
    assert run(["link", square, rect, "--epsilon", "0.25", "--out", cert_path]) == 0
    blob = json.loads(open(cert_path).read())
    blob["steps"][0]["bound"] = "0.000000000001"
    tampered = _write(tmp_path, "tampered.json", blob)
    assert run(["verify", tampered]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "bound understated at step 0" in out


def test_verify_fails_when_a_step_loses_its_plain_summand(tmp_path, capsys):
    # G of step 3 keeps its differences only, so the recomputed bound is infinite
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    g = cert["steps"][3]["G"]
    g["summands"] = [s for s in g["summands"] if s["inner"] is not None]
    assert run(["verify", _write(tmp_path, "lost.json", cert)]) == 1
    assert capsys.readouterr().out == (
        "FAIL\n- right local euler mismatch at step 3\n- bound understated at step 3\n"
    )


# a difference whose inner polytope pokes out of its outer one
NOT_NESTED = {
    "dimension": 1,
    "summands": [{"outer": {"vertices": [["0"], ["2"]]}, "inner": {"vertices": [["1"], ["3"]]}, "shift": 0, "multiplicity": 1}],
}


@pytest.mark.parametrize("argv", [["chi", "S"], ["bound", "S", "S"]], ids=["chi", "bound"])
def test_sheaf_with_a_difference_not_nested_exits_2(argv, tmp_path, capsys):
    path = _write(tmp_path, "sheaf.json", NOT_NESTED)
    assert run([path if a == "S" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: inner polytope not contained in outer\n")


def test_verify_refuses_a_difference_moved_out_of_its_outer(tmp_path, capsys):
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    summand = next(s for s in cert["steps"][1]["G"]["summands"] if s["inner"] is not None)
    summand["inner"]["vertices"] = [[str(F(x) + 10), y] for x, y in summand["inner"]["vertices"]]
    path = _write(tmp_path, "moved.json", cert)
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: inner polytope not contained in outer\n")


def test_verify_rechecks_the_nesting_that_link_trusts(square, tmp_path, monkeypatch, capsys):
    # a builder whose flags run from the base down to the center stands for
    # differences of a smaller outer level minus a larger inner one; `link`
    # writes its flags as blocks and builds no level, and `verify` must refuse
    # them: where its own expansion of a v2 flag block makes them, and where
    # a v1 file writes one out
    real = flags._levels
    monkeypatch.setattr(flags, "_levels", lambda *args: real(*args)[::-1])
    rect = _write(tmp_path, "rect.json", RECT)
    cert = str(tmp_path / "cert.json")
    assert run(["link", square, rect, "--epsilon", "1/4", "--out", cert]) == 0
    assert run(["verify", cert]) == 2
    assert capsys.readouterr().err == f"error: {cert}: inner polytope not contained in outer\n"
    monkeypatch.undo()
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    summand = next(s for s in blob["steps"][0]["F"]["summands"] if s["inner"] is not None)
    summand["outer"], summand["inner"] = summand["inner"], summand["outer"]
    v1 = _write(tmp_path, "v1.json", blob)
    assert run(["verify", v1]) == 2
    assert capsys.readouterr().err == f"error: {v1}: inner polytope not contained in outer\n"


def test_a_built_sum_checks_each_difference_when_its_summands_are_read(monkeypatch):
    # the builder's own flags take no shortcut: reversed levels are refused
    # when the summands of the sum that holds their blocks are first read
    real = flags._levels
    monkeypatch.setattr(flags, "_levels", lambda *args: real(*args)[::-1])
    cert = certify.link(jsonio.cf_from_json(SQUARE), jsonio.cf_from_json(RECT), F(1, 4))
    with pytest.raises(ValueError, match="inner polytope not contained in outer"):
        cert.steps[0].left.summands


@pytest.mark.parametrize("argv", [["chi", "S"], ["bound", "S", "P"], ["bound", "P", "S"]], ids=["chi", "bound-left", "bound-right"])
def test_chi_and_bound_recheck_the_nesting_of_each_block_they_read(argv, tmp_path, monkeypatch, capsys):
    # as in `verify`, a reversed level order makes every difference of a
    # block not nested, which the reader finds as it expands the block and
    # reports against the file that holds it
    real = flags._levels
    monkeypatch.setattr(flags, "_levels", lambda *args: tuple(real(*args))[::-1])
    block = {"flag": {"polytope": SQUARE["terms"][0]["polytope"], "center": ["1/2", "1/2"], "steps": 3}}
    files = {
        "S": _write(tmp_path, "blocks.json", {"dimension": 2, "summands": [block]}),
        "P": _write(tmp_path, "point.json", {"dimension": 2, "summands": [{"outer": {"vertices": [["0", "0"]]}}]}),
    }
    assert run([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {files['S']}: inner polytope not contained in outer\n")


@pytest.mark.parametrize(
    "base, center",
    [
        ([["0"], ["3"]], ["1"]),
        ([["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]], ["1/2", "1/2"]),
        ([[x, y, z] for x in "02" for y in "02" for z in "02"], ["1/2", "1/3", "1/4"]),
    ],
    ids=["1d", "2d", "3d"],
)
def test_chi_refuses_two_middle_levels_swapped(base, center, tmp_path, monkeypatch, capsys):
    # both ends stay, so the one difference that is not nested, level 1 less
    # level 2, is refused by level 1's rows, moved from the base's
    real = flags._levels

    def swapped(*args):
        levels = list(real(*args))
        levels[1], levels[2] = levels[2], levels[1]
        return levels

    monkeypatch.setattr(flags, "_levels", swapped)
    block = {"flag": {"polytope": {"vertices": base}, "center": center, "steps": 4}}
    path = _write(tmp_path, "blocks.json", {"dimension": len(center), "summands": [block]})
    assert run(["chi", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: inner polytope not contained in outer\n")


# JSON texts that are no rational: float literals the parser reads as inf or
# nan, and strings naming them
@pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400", '"inf"', '"Infinity"'])
@pytest.mark.parametrize("where", ["bound", "epsilon", "vertex"])
def test_certificate_values_that_are_no_rational_exit_2(literal, where, tmp_path, capsys):
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    if where == "bound":
        cert["steps"][0]["bound"] = "@"
    elif where == "epsilon":
        cert["epsilon"] = "@"
    else:
        cert["source"]["terms"][0]["polytope"]["vertices"][0][0] = "@"
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(cert).replace('"@"', literal))
    assert run(["verify", str(path)]) == 2
    assert f"error: {path}: not a rational: " in capsys.readouterr().err


def test_removed_tol_dist_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--tol-dist", "1", "verify", os.path.join(DATA, "link2d.cert.json")])
    assert exc.value.code == 2
    assert "usage: eulercert" in capsys.readouterr().err


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("below", [10**10, 10**13], ids=["by-1e-10", "by-1e-13"])
def test_verify_fails_a_bound_below_its_exact_recomputed_value(norm, below, square, tmp_path, capsys):
    # under a polyhedral norm every recomputed bound is exact, so a declared
    # bound below it by any amount, even far below the 12 printed places, fails
    rect = _write(tmp_path, "rect.json", RECT)
    path = str(tmp_path / "cert.json")
    assert run(["--norm", norm, "link", square, rect, "--epsilon", "1/4", "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    cert = jsonio.cert_from_json(blob)
    bounds = [bottleneck_bound(s.left, s.right, Norm(norm)) for s in cert.steps]
    k = next(k for k, b in enumerate(bounds) if b.value > 0)
    assert bounds[k].exact
    blob["steps"][k]["bound"] = str(bounds[k].value - F(1, below))
    capsys.readouterr()
    assert run(["--norm", norm, "verify", _write(tmp_path, "lowered.json", blob)]) == 1
    assert capsys.readouterr().out == f"FAIL\n- bound understated at step {k}\n"


# the certificate's step 1 F as a 1-D sheaf, and its step 0 chi_F as a 3-D function
POINT_SHEAF_1D = {"dimension": 1, "summands": [{"outer": {"vertices": [["0"]]}}]}
POINT_CF_3D = {"dimension": 3, "terms": [{"coeff": 1, "polytope": {"vertices": [["0", "0", "0"]]}}]}


@pytest.mark.parametrize(
    "step, part, value, message",
    [
        (1, "F", POINT_SHEAF_1D, "step 1 F: dimension 1 != source dimension 2"),
        (0, "chi_F", POINT_CF_3D, "step 0 chi_F: dimension 3 != source dimension 2"),
    ],
    ids=["sheaf-1d", "function-3d"],
)
def test_verify_refuses_a_part_of_another_dimension_naming_the_file(step, part, value, message, tmp_path, capsys):
    with open(os.path.join(DATA, "link2d.cert.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    cert["steps"][step][part] = value
    path = _write(tmp_path, "mixed.json", cert)
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_concentrate_default_origin(square, capsys):
    assert run(["concentrate", square, "--epsilon", "0.5"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["target"]["terms"][0]["polytope"]["vertices"] == [["0", "0"]]
    assert len(cert["steps"]) == 3


def test_probe_csv(square, capsys):
    assert run(["probe", square, "--metric", "l1", "--schedule", "0.5,0.25,0.125"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epsilon,dc_bound,delta"
    assert lines[1] == "0.500000000000,0.500000000000,1.000000000000"
    assert lines[3] == "0.125000000000,0.125000000000,1.000000000000"


def test_probe_gap_metric(square, capsys):
    assert run(["probe", square, "--metric", "gap", "--schedule", "0.5,0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(",0.000000000000") for line in lines[1:])


@pytest.mark.parametrize(
    "argv",
    [["concentrate", "F", "--epsilon", "1/4"], ["probe", "F", "--metric", "sup", "--schedule", "1/2,1/4"]],
    ids=["concentrate", "probe"],
)
@pytest.mark.parametrize("terms", [[], [{"coeff": 1, "polytope": {"vertices": [["0"], ["1"]]}}]], ids=["empty", "one"])
def test_target_of_another_dimension_exits_2(argv, terms, tmp_path, capsys):
    # a 1-D function, with or without terms, refuses a 3-D target
    path = _write(tmp_path, "f.json", {"dimension": 1, "terms": terms})
    argv = [path if a == "F" else a for a in argv]
    assert run(argv + ["--target", "1,2,3"]) == 2
    assert capsys.readouterr() == ("", "error: target dimension 3 != function dimension 1\n")


@pytest.mark.parametrize(
    "argv",
    [["concentrate", "SQUARE", "--epsilon", "1/4"], ["probe", "SQUARE", "--metric", "sup", "--schedule", "1/2,1/4"]],
    ids=["concentrate", "probe"],
)
def test_empty_target_is_not_the_origin(argv, square, capsys):
    # a given target is parsed, so "" is no point at all
    assert run([square if a == "SQUARE" else a for a in argv] + ["--target", ""]) == 2
    assert capsys.readouterr() == ("", "error: not a rational: ''\n")


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["integrate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "malformed JSON" in err


def test_missing_file_exit_2(capsys):
    assert run(["integrate", "/nonexistent/f.json"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_schema_error_names_path(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"dimension": 2})
    assert run(["integrate", bad]) == 2
    assert "bad.json" in capsys.readouterr().err


DIRECTORY = object()
MISSING_DIR = object()
SHEAF_SUMMAND = {"outer": {"vertices": [["0"], ["1"]]}, "inner": None, "shift": 0, "multiplicity": 1}


@pytest.mark.parametrize(
    "argv, blob",
    [
        (["integrate", "BAD"], {"dimension": 2, "terms": 5}),
        (["integrate", "BAD"], {"dimension": 2, "terms": [dict(SQUARE["terms"][0], coeff=True)]}),
        (["integrate", "BAD"], dict(SQUARE, dimension=2.0)),
        (["chi", "BAD"], {"dimension": 1, "summands": 3}),
        (["chi", "BAD"], {"dimension": 1, "summands": [dict(SHEAF_SUMMAND, multiplicity=True)]}),
        (["chi", "BAD"], {"dimension": True, "summands": [SHEAF_SUMMAND]}),
        (["pushforward", "SQUARE", "--map", "BAD"], {"matrix": 5, "offset": ["0"]}),
        (["pushforward", "SQUARE", "--map", "BAD"], {"matrix": [["1", "0"]] * 4, "offset": ["0"] * 4}),
        (["verify", "BAD"], {"epsilon": "1/4", "source": SQUARE, "target": SQUARE, "steps": 5}),
        (["chi", "BAD"], {"dimension": 1, "summands": [dict(SHEAF_SUMMAND, multiplicity=0)]}),
        (["integrate", "BAD"], "{not json"),
        (["integrate", "BAD"], None),
        (["integrate", "BAD"], DIRECTORY),
        (["integrate", "BAD"], b'{"dimension": 1, "terms": []}\xff'),
        (["integrate", "BAD"], "[" * 200_000),
        (["link", "SQUARE", "SQUARE", "--epsilon", "1/4", "--out", "BAD"], MISSING_DIR),
        (["integrate", "BAD"], {"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["1e-3000000"]]}}]}),
        (["integrate", "BAD"], '{"dimension": 1, "terms": [{"coeff": 1' + "0" * 5000 + ', "polytope": {"vertices": [["0"]]}}]}'),
    ],
    ids=[
        "terms-not-list",
        "coeff-bool",
        "dimension-float",
        "summands-not-list",
        "multiplicity-bool",
        "dimension-bool",
        "matrix-not-list",
        "codomain-four",
        "steps-not-list",
        "multiplicity-zero",
        "malformed-json",
        "missing-file",
        "directory",
        "not-utf8",
        "deep-nesting",
        "unwritable-output",
        "exponent-bomb",
        "int-digit-limit",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, blob, square, tmp_path):
    # blob is the file's JSON value, its raw text or bytes, DIRECTORY for a
    # directory in its place, MISSING_DIR for a path in a directory that does
    # not exist, or None for no file at all
    path = str(tmp_path / "bad.json")
    if blob is MISSING_DIR:
        path = str(tmp_path / "nodir" / "bad.json")
    elif blob is DIRECTORY:
        os.mkdir(path)
    elif isinstance(blob, bytes):
        with open(path, "wb") as fh:
            fh.write(blob)
    elif blob is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob if isinstance(blob, str) else json.dumps(blob))
    argv = [{"BAD": path, "SQUARE": square}.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eulercert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eulercert.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: ")
    assert proc.stderr.count(path) == 1
    assert "Traceback" not in proc.stderr


SEGMENT_3D = {"vertices": [["0", "0", "0"], ["1", "0", "0"]]}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (
            ["link", "A", "B", "--epsilon", "1/4"],
            {"A": SQUARE, "B": {"dimension": 3, "terms": [{"coeff": 1, "polytope": SEGMENT_3D}]}},
            "second function dimension 3 != first function dimension 2",
        ),
        (
            ["bound", "A", "B"],
            {
                "A": {"dimension": 1, "summands": [SHEAF_SUMMAND]},
                "B": {"dimension": 3, "summands": [dict(SHEAF_SUMMAND, outer=SEGMENT_3D)]},
            },
            "right sheaf dimension 3 != left sheaf dimension 1",
        ),
        (
            ["flag", "A", "--center", "0,0,0", "--steps", "2"],
            {"A": SQUARE["terms"][0]["polytope"]},
            "center dimension 3 != polytope dimension 2",
        ),
    ],
    ids=["link", "bound", "flag"],
)
def test_dimension_mismatch_names_both_dimensions(argv, files, message, tmp_path, capsys):
    paths = {name: _write(tmp_path, f"{name}.json", blob) for name, blob in files.items()}
    assert run([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["verify", "link2d.v2.cert.json"], ["link", "link2d_F.json", "link2d_G.json", "--epsilon", "1/16"]],
    ids=["verify", "link"],
)
def test_closed_stdout_exits_2_without_traceback(argv):
    # stdout is a pipe whose read end was closed before the start; exit 1
    # would read as a failed verification
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eulercert.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eulercert.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_bool_coordinate_after_the_same_integer_list_exits_2(square, tmp_path, capsys):
    # the parser keys repeated vertex lists on their raw JSON strings; a list
    # of numbers must be parsed every time, since true == 1 in Python
    cert = tmp_path / "cert.json"
    assert run(["link", square, _write(tmp_path, "rect.json", RECT), "--epsilon", "1/4", "--out", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    square_lists = [blob["steps"][0]["chi_F"]["terms"][0]["polytope"], blob["source"]["terms"][0]["polytope"]]
    assert all(p["vertices"] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]] for p in square_lists)
    # steps are parsed before the source: [1, 0] comes first, [true, 0] later
    square_lists[0]["vertices"] = [[0, 0], [0, 1], [1, 0], [1, 1]]
    numbers = _write(tmp_path, "numbers.json", blob)
    square_lists[1]["vertices"] = [[0, 0], [0, True], [True, 0], [True, True]]
    bools = _write(tmp_path, "bools.json", blob)
    capsys.readouterr()
    assert run(["verify", numbers]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert run(["verify", bools]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bools}: ")


def test_norm_flag_changes_bounds(tmp_path, capsys):
    seg = _write(tmp_path, "seg.json", {"vertices": [["0", "0"], ["1", "1"]]})
    assert run(["flag", seg, "--center", "0,0", "--steps", "1"]) == 0
    l2 = json.loads(capsys.readouterr().out)["eta"]
    assert run(["--norm", "l1", "flag", seg, "--center", "0,0", "--steps", "1"]) == 0
    l1 = json.loads(capsys.readouterr().out)["eta"]
    assert l1 == "2.000000000000"
    assert l2.startswith("1.4142135623")


def test_config_file_with_flag_override(square, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"norm": "l1", "dimension": 2})
    assert run(["--config", cfg, "integrate", square]) == 0


@pytest.mark.parametrize(
    "config",
    [
        {"dimension": "1"},
        {"dimension": "x"},
        {"dimension": 2.0},
    ],
    ids=["dimension-digit-string", "dimension-word", "dimension-float"],
)
def test_config_integers_must_be_json_integers(config, square, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", config)
    assert run(["--config", cfg, "integrate", square]) == 2
    (key,) = config
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {key} must be an integer")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"dimension": 5}, "unsupported dimension: 5"),
        ({"norm": "l7"}, "unknown norm: 'l7'"),
        ({"sampel_density": 3, "dimenson": 9}, "unknown key: 'sampel_density'"),
        ({"dimension": 2, "sample_density": 64}, "unknown key: 'sample_density'"),
        ({"norm": "l7", "tol_dist": "1e-9"}, "unknown key: 'tol_dist'"),
    ],
    ids=["dimension-range", "norm-unknown", "unknown-keys", "removed-sample-density", "removed-tol-dist"],
)
def test_config_value_errors_name_the_file(config, message, square, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", config)
    assert run(["--config", cfg, "integrate", square]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize(
    "argv, blob, message",
    [
        (["integrate"], dict(SQUARE, dimension=2.0), "dimension must be an integer: 2.0"),
        (["chi"], {"dimension": True, "summands": [SHEAF_SUMMAND]}, "dimension must be an integer: True"),
        (["integrate"], dict(SQUARE, dimension="2"), "dimension must be an integer: '2'"),
        (["chi"], {"dimension": 4, "summands": [SHEAF_SUMMAND]}, "unsupported dimension: 4"),
    ],
    ids=["float", "bool", "string", "range"],
)
def test_file_dimension_errors_read_as_the_setting_errors(argv, blob, message, tmp_path, capsys):
    # a file's dimension and the dimension setting share one check
    bad = _write(tmp_path, "bad.json", blob)
    assert run([*argv, bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dimension", "5"], "unsupported dimension: 5"),
        (["--dimension", "0"], "unsupported dimension: 0"),
    ],
    ids=["dimension-range", "dimension-zero"],
)
def test_flag_value_errors_are_rejected_as_given(flags, message, square, capsys):
    # a zero is a given value, not a missing one
    assert run([*flags, "integrate", square]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_removed_sample_density_flag_is_a_usage_error(square, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--sample-density=64", "integrate", square])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sample-density=64" in capsys.readouterr().err


def test_dimension_validation(square, capsys):
    assert run(["--dimension", "1", "integrate", square]) == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, path",
    [
        (["chi", "S"], "translate_F.json"),
        (["flag", "P", "--center", "0,0", "--steps", "2"], None),
        (["bound", "S", os.path.join(DATA, "translate_G.json")], "translate_F.json"),
        (["verify", "S"], "link3d.cert.json"),
    ],
    ids=["chi", "flag", "bound", "verify"],
)
def test_dimension_mismatch_names_the_file(argv, path, tmp_path, capsys):
    # a sheaf, a polytope, a sheaf and a certificate (by its source)
    path = os.path.join(DATA, path) if path else _write(tmp_path, "p.json", SQUARE["terms"][0]["polytope"])
    argv = [{"S": path, "P": path}.get(a, a) for a in argv]
    dim = 3 if path.endswith(".cert.json") else 2
    assert run(["--dimension", "1"] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: dimension {dim} != configured 1\n")
    assert run(["--dimension", str(dim)] + argv) == 0


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_no_subcommand_calls_the_simplex(norm, square, tmp_path, monkeypatch):
    # every decision of verify, bound, link, concentrate and probe is made on
    # integer charts; the simplex LP serves only the independent oracles
    def refuse(*args):
        raise AssertionError("_simplex called")

    for name in ("solve", "feasible"):
        monkeypatch.setattr(_simplex, name, refuse)
    data = {name: os.path.join(DATA, f"{name}.json") for name in ("link3d_F", "link3d_G", "bound3d_F", "bound3d_G")}
    cert = str(tmp_path / "cert.json")
    commands = [
        ["link", data["link3d_F"], data["link3d_G"], "--epsilon", "1/4", "--out", cert],
        ["verify", cert],
        ["verify", os.path.join(DATA, "link2d.cert.json")],
        ["bound", data["bound3d_F"], data["bound3d_G"]],
        ["bound", os.path.join(DATA, "translate_F.json"), os.path.join(DATA, "translate_G.json")],
        ["concentrate", square, "--epsilon", "1/4"],
        ["probe", square, "--metric", "gap", "--schedule", "1/2,1/4"],
    ]
    for argv in commands:
        assert run(["--norm", norm] + argv) in (0, 1)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _fresh(argv, timeout=60, interpreter_options=()):
    """Exit code, stdout and stderr of one command in a new interpreter of at
    most 1 GiB, started with `interpreter_options`, killed after `timeout`
    seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eulercert.__file__)))
    proc = subprocess.run(
        [sys.executable, *interpreter_options, "-m", "eulercert.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=_limit_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["link", "link2d_F.json", "link2d_G.json", "--epsilon", "1/4"],
        ["concentrate", "link2d_F.json", "--epsilon", "1/2"],
        ["probe", "link2d_F.json", "--metric", "sup", "--schedule", "1/2,1/4"],
    ],
    ids=["link", "concentrate", "probe"],
)
def test_optimized_interpreter_prints_the_same_bytes(argv):
    # python -O drops assert statements, so no step of a command may be one
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    plain = _fresh(argv)
    assert plain[0] == 0 and plain[1]
    assert _fresh(argv, interpreter_options=["-O"]) == plain


def test_the_package_has_no_assert_statement():
    # a check written as an assert vanishes under python -O
    package = os.path.dirname(eulercert.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_commands_in_one_process_match_fresh_processes(square, tmp_path, capsys):
    # the parser is built once per process: no option may carry over to the
    # next command
    rect = _write(tmp_path, "rect.json", RECT)
    seg = _write(tmp_path, "seg.json", {"vertices": [["0", "0"], ["1", "1"]]})
    out = tmp_path / "cert.json"
    commands = [
        ["--norm", "l1", "flag", seg, "--center", "0,0", "--steps", "2"],
        ["flag", seg, "--center", "0,0", "--steps", "2"],
        ["link", square, rect, "--epsilon", "1/4", "--out", str(out)],
        ["link", square, rect, "--epsilon", "1/4"],
    ]
    for argv in commands:
        code = run(argv)
        got = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        assert (code, got.out, got.err) == _fresh(argv)
        assert written == (out.read_text() if out.exists() else None)
        out.unlink(missing_ok=True)
    assert json.loads(got.out)["steps"]  # the last link printed its certificate


@pytest.mark.parametrize(
    "argv",
    [
        ["flag", "POLY", "--center", "0,0", "--steps", "1000000000000"],
        ["link", "SQUARE", "SQUARE", "--epsilon", "1e-999"],
        ["concentrate", "SQUARE", "--epsilon", "1e-999"],
        ["probe", "SQUARE", "--metric", "gap", "--schedule", "1,1e-999"],
    ],
    ids=["flag-steps", "link-epsilon", "concentrate-epsilon", "probe-schedule"],
)
def test_flag_step_limit_exits_2_at_once(argv, square, tmp_path, capsys):
    poly = _write(tmp_path, "poly.json", SQUARE["terms"][0]["polytope"])
    argv = [{"POLY": poly, "SQUARE": square}.get(a, a) for a in argv]
    # first in a child with a deadline, so that a builder without the limit
    # fails here instead of filling memory
    code, stdout, stderr = _fresh(argv, timeout=5)
    message = f"error: a flag may have at most {MAX_FLAG_STEPS} steps\n"
    assert (code, stdout, stderr) == (2, "", message)
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == message


def test_deterministic_output(square, tmp_path, capsys):
    rect = _write(tmp_path, "rect.json", RECT)
    assert run(["link", square, rect, "--epsilon", "0.125"]) == 0
    first = capsys.readouterr().out
    assert run(["link", square, rect, "--epsilon", "0.125"]) == 0
    assert capsys.readouterr().out == first


# --- certificate format v2: recorded norm and flag blocks ------------------

V2 = os.path.join(DATA, "link2d.v2.cert.json")


def _v2(tmp_path, edit) -> str:
    """The v2 golden, edited in place by `edit`, written to a file."""
    with open(V2, encoding="utf-8") as fh:
        blob = json.load(fh)
    edit(blob)
    return _write(tmp_path, "v2.json", blob)


def _block(blob: dict) -> dict:
    """Step 0's first flag block, the first block the reader meets."""
    return blob["steps"][0]["F"]["summands"][0]


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_verify_refuses_a_certificate_built_under_another_norm(norm, capsys):
    assert run(["--norm", norm, "verify", V2]) == 2
    assert capsys.readouterr() == ("", f"error: {V2}: certificate built under norm l2, but the configured norm is {norm}\n")


def test_v1_certificate_verifies_under_the_configured_norm_with_a_note(capsys):
    golden = os.path.join(DATA, "link2d.cert.json")
    assert run(["verify", golden]) == 0
    assert capsys.readouterr() == ("PASS\n", f"note: {golden}: records no norm (version 1); verifying under l2\n")
    # the L2 bounds are understated under L1, which a v1 file cannot tell
    assert run(["--norm", "l1", "verify", golden]) == 1
    assert capsys.readouterr() == (
        "FAIL\n" + "".join(f"- bound understated at step {k}\n" for k in range(6)),
        f"note: {golden}: records no norm (version 1); verifying under l1\n",
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b.update(version=1), "unsupported certificate version: 1"),
        (lambda b: b.update(version=3), "unsupported certificate version: 3"),
        (lambda b: b.update(version="2"), "unsupported certificate version: '2'"),
        (lambda b: b.update(version=True), "unsupported certificate version: True"),
        (lambda b: b.update(version=2.0), "unsupported certificate version: 2.0"),
        (lambda b: b.pop("norm"), "a version 2 certificate needs a 'norm'"),
        (lambda b: b.update(norm="l7"), "unknown norm: 'l7'"),
        (lambda b: b.update(norm=None), "unknown norm: None"),
    ],
    ids=["version-1", "version-3", "version-string", "version-bool", "version-float", "no-norm", "bad-norm", "null-norm"],
)
def test_verify_refuses_an_unknown_version_or_norm(edit, message, tmp_path, capsys):
    path = _v2(tmp_path, edit)
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("steps", 0, "a flag needs at least one step"),
        ("steps", True, "flag steps must be an integer: True"),
        ("steps", MAX_FLAG_STEPS + 1, f"a flag may have at most {MAX_FLAG_STEPS} steps"),
        ("center", ["9", "9"], "flag center must lie in the base polytope"),
    ],
    ids=["steps-0", "steps-bool", "steps-over-max", "center-outside"],
)
def test_verify_refuses_a_hostile_block_before_building_a_level(key, value, message, tmp_path, monkeypatch, capsys):
    path = _v2(tmp_path, lambda b: _block(b)["flag"].update({key: value}))
    built = []
    real = flags._levels
    monkeypatch.setattr(flags, "_levels", lambda *args: built.append(args) or real(*args))
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert built == []


@pytest.mark.parametrize("flag", [5, None, [], "x", {"polytope": {"vertices": [["0", "0"]]}}])
def test_verify_refuses_a_flag_that_is_not_a_flag_object(flag, tmp_path, capsys):
    path = _v2(tmp_path, lambda b: _block(b).update(flag=flag))
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: flag needs 'polytope', 'center' and 'steps'\n")


def test_a_block_of_another_dimension_exits_2_at_parse(tmp_path, capsys):
    segment = {"polytope": {"vertices": [["0"], ["1"]]}, "center": ["1/2"], "steps": 2}
    sheaf = _write(tmp_path, "sheaf.json", {"dimension": 2, "summands": [{"flag": segment}]})
    cert = _v2(tmp_path, lambda b: _block(b).update(flag=segment))
    for argv in (["chi", sheaf], ["verify", cert]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {argv[1]}: summand dimension mismatch\n")


def test_verify_fails_a_shifted_block_as_the_same_v1_tampering(tmp_path, capsys):
    # the block's base and center move together, so the flag stays valid and
    # its graded sheaf no longer matches the step's chi_F or its bound
    def shift(blob):
        flag = _block(blob)["flag"]
        flag["polytope"]["vertices"] = [[str(F(x) + 10), y] for x, y in flag["polytope"]["vertices"]]
        flag["center"] = [str(F(flag["center"][0]) + 10), flag["center"][1]]

    path = _v2(tmp_path, shift)
    assert run(["verify", path]) == 1
    out = capsys.readouterr().out
    assert out == "FAIL\n- left local euler mismatch at step 0\n- bound understated at step 0\n"
    # the v1 file of the same tampering writes every level of the block moved
    with open(path, encoding="utf-8") as fh:
        v1 = _write(tmp_path, "v1.json", json.loads(v1_cert_bytes(jsonio.cert_from_json(json.load(fh)))))
    assert run(["verify", v1]) == 1
    assert capsys.readouterr().out == out


def test_verify_of_a_v2_certificate_checks_every_difference(monkeypatch, capsys):
    checked = []
    real = sheafsum._outside
    monkeypatch.setattr(sheafsum, "_outside", lambda y, x: checked.append((x, y)) or real(y, x))
    assert run(["verify", V2]) == 0
    monkeypatch.undo()
    with open(V2, encoding="utf-8") as fh:
        cert = jsonio.cert_from_json(json.load(fh))
    differences = {
        (sm.support.outer, sm.support.inner)
        for step in cert.steps
        for side in (step.left, step.right)
        for sm in side.summands
        if sm.support.is_difference
    }
    assert differences and differences <= set(checked)


def test_verify_and_chi_of_the_v2_goldens_stream_their_blocks(tmp_path, monkeypatch, capsys):
    # each block is read one summand at a time and never collected into a
    # merged, sorted sum: `summands` is read of no sum that holds a block
    read = []
    real = sheafsum.SheafSum.summands

    def spy(self):
        if self.blocks is not None:
            read.append(self)
        return real.fget(self)

    monkeypatch.setattr(sheafsum.SheafSum, "summands", property(spy))
    sheaves = []
    for cert in sorted(glob.glob(os.path.join(DATA, "*.v2.cert.json"))):
        assert run(["verify", cert]) == 0
        with open(cert, encoding="utf-8") as fh:
            blob = json.load(fh)
        sheaves += [s[side] for s in blob["steps"] for side in "FG" if any("flag" in e for e in s[side]["summands"])]
    assert len(sheaves) >= 4
    for k, sheaf in enumerate(sheaves):
        assert run(["chi", _write(tmp_path, f"sheaf{k}.json", sheaf)]) == 0
    assert run(["chi", os.path.join(DATA, "blocks2d.json")]) == 0
    assert read == []


def test_chi_of_a_block_at_the_step_limit_keeps_a_few_levels(tmp_path, capsys):
    # the levels of a block cancel in its local Euler sum as they are read,
    # so chi's peak memory is that of a few levels: expanding the block into
    # its merged sum took about 29 MiB
    triangle = {"vertices": [["0", "0"], ["3", "0"], ["0", "2"]]}
    block = {"flag": {"polytope": triangle, "center": ["1/2", "1/3"], "steps": MAX_FLAG_STEPS}}
    path = _write(tmp_path, "block.json", {"dimension": 2, "summands": [block]})
    tracemalloc.start()
    try:
        assert run(["chi", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hull = {"vertices": [["0", "0"], ["0", "2"], ["3", "0"]]}  # the triangle's, sorted
    assert json.loads(capsys.readouterr().out) == {"dimension": 2, "terms": [{"coeff": 1, "polytope": hull}]}
    assert peak < 4 * 2**20


def _spy_on_levels(monkeypatch) -> list:
    """Record every level build: with no level, no difference is made."""
    calls = []
    real = flags._levels
    monkeypatch.setattr(flags, "_levels", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["link", "link2d_F.json", "link2d_G.json", "--epsilon", "1/64"],
        ["link", "link3d_F.json", "link3d_G.json", "--epsilon", "1/16"],
        ["concentrate", "link2d_F.json", "--epsilon", "1/64"],
        ["probe", "link2d_F.json", "--metric", "gap", "--schedule", "1/4,1/64"],
        ["probe", "link2d_F.json", "--metric", "sup", "--schedule", "1/4,1/64"],
    ],
    ids=["link", "link-3d", "concentrate", "probe-gap", "probe-sup"],
)
def test_builders_build_no_level_and_no_difference(argv, monkeypatch, capsys):
    calls = _spy_on_levels(monkeypatch)
    assert run([os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]) == 0
    assert calls == []


def test_link_at_the_step_limit_writes_what_the_reader_accepts(tmp_path, monkeypatch, capsys):
    # the unit segment's flags have reach 1/2, so eps = 1/(4n) needs n steps
    seg = _write(tmp_path, "seg.json", {"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["0"], ["1"]]}}]})
    dot = _write(tmp_path, "dot.json", {"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["0"]]}}]})
    calls = _spy_on_levels(monkeypatch)
    cert = tmp_path / "cert.json"
    assert run(["link", seg, dot, "--epsilon", f"1/{4 * MAX_FLAG_STEPS}", "--out", str(cert)]) == 0
    assert calls == []
    monkeypatch.undo()
    blob = json.loads(cert.read_text())
    steps = [e["flag"]["steps"] for s in blob["steps"] for side in ("F", "G") for e in s[side]["summands"] if "flag" in e]
    assert max(steps) == MAX_FLAG_STEPS
    jsonio.cert_from_json(blob)  # every block's base, center and step count checked; no level built
    over = tmp_path / "over.json"
    assert run(["link", seg, dot, "--epsilon", f"1/{4 * (MAX_FLAG_STEPS + 1)}", "--out", str(over)]) == 2
    assert capsys.readouterr() == ("", f"error: a flag may have at most {MAX_FLAG_STEPS} steps\n")
    assert not over.exists()


def test_verify_streams_a_block_at_the_step_limit(tmp_path, capsys):
    # the parser builds no level, so the reader that accepts the block is
    # `verify`, which builds and checks every level of it
    seg = _write(tmp_path, "seg.json", {"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["0"], ["1"]]}}]})
    dot = _write(tmp_path, "dot.json", {"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["0"]]}}]})
    cert = str(tmp_path / "cert.json")
    assert run(["link", seg, dot, "--epsilon", f"1/{4 * MAX_FLAG_STEPS}", "--out", cert]) == 0
    assert run(["verify", cert]) == 0
    assert capsys.readouterr() == ("PASS\n", "")


def test_bool_coordinate_after_the_same_string_list_exits_2(tmp_path, capsys):
    # a repeated list of strings is a cache hit, tested for types only when
    # stored; [true] must miss it and be parsed
    terms = [{"coeff": 1, "polytope": {"vertices": [c]}} for c in (["1"], ["1"], [True])]
    path = _write(tmp_path, "cf.json", {"dimension": 1, "terms": terms})
    assert run(["integrate", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: not a rational: True\n")
