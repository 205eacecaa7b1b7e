"""JSON schemas for every value the CLI reads or writes.

Rational coordinates travel as exact "p/q" (or integer) strings; distance
bounds travel as decimals rounded up to 12 places, so serialized bounds stay
valid upper bounds.  Parsing re-canonicalizes geometry, so a round trip
reproduces a structurally equal value.

A sheaf's summand list may hold flag blocks, each standing for one flag's
graded sheaf.  The parser rebuilds each block's flag, checking its base,
center, step count and dimension, and keeps the block unexpanded: its readers
stream it (`SheafSum`), every level difference checked as it is made, so a
block stands for exactly the summands it names, and a nesting error surfaces
where a reader meets it, which the CLI reports against the file.
Certificates are written in version 2, which records the norm and
writes each flag of the builder as one block; a file without a version is
version 1, which records no norm.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Optional

from .certify import Certificate, CertificateStep
from .constructible import ConstructibleFunction, from_terms
from .flags import Flag, build_flag
from .geometry import (
    AffineMap,
    Norm,
    Point,
    Polytope,
    RoundedReal,
    _hull,
    decimal_up,
)
from .sheafsum import SheafSum, Summand, Support, sheaf_sum


class SchemaError(ValueError):
    pass


def _list(obj: dict, key: str) -> list:
    items = obj[key]
    if not isinstance(items, list):
        raise SchemaError(f"'{key}' must be a list")
    return items


def parse_dimension(value: Any) -> int:
    """An ambient dimension, of a file or a workspace setting alike."""
    # integer fields are tested with `type(x) is int` throughout: bool is an
    # int subclass, and a JSON true, 2.0 or "1" must not pass for an integer
    if type(value) is not int:
        raise SchemaError(f"dimension must be an integer: {value!r}")
    if value not in (1, 2, 3):
        raise SchemaError(f"unsupported dimension: {value}")
    return value


def parse_norm(value: Any) -> Norm:
    """A norm, of a certificate or a workspace setting alike."""
    try:
        return Norm(str(value).lower())
    except ValueError:
        raise SchemaError(f"unknown norm: {value!r}") from None


# Longest run of digits, and longest exponent, a rational may be written with.
# Fraction computes 10**exponent in full, so "1e-3000000" alone would cost
# seconds and megabits; these keep the cost of a number within its length.
MAX_DIGITS = 1000
MAX_EXPONENT_DIGITS = 3
_DIGIT_RUNS = re.compile(r"[\d_]+")
# One ASCII grammar on every Python: Fraction's own reads "1_000" from 3.11,
# "1 / 2" from 3.12, and non-ASCII digits on all
_RATIONAL = re.compile(r"(?P<num>[-+]?\d+)(?:/(?P<den>\d+))?|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)


def _ratio(s: Any) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0 and s = p / q: the grammar and
    limits of `parse_rational`."""
    text = str(s)
    # a short string without an exponent passes on one substring test
    if "e" in text.lower() or len(text) > MAX_DIGITS:
        exponent = text.lower().partition("e")[2].lstrip("+-")
        if len(exponent) > MAX_EXPONENT_DIGITS or any(
            len(run) > MAX_DIGITS for run in _DIGIT_RUNS.findall(text)
        ):
            raise SchemaError(
                f"rational with over {MAX_DIGITS} digits in a run or over "
                f"{MAX_EXPONENT_DIGITS} in its exponent: {text[:40]!r}"
            )
    match = _RATIONAL.fullmatch(text.strip())
    if match:
        if not match["num"]:  # a decimal
            q = Fraction(text)
            return q.numerator, q.denominator
        num, den = int(match["num"]), int(match["den"] or 1)  # p or p/q, with no second parse
        if den:
            g = math.gcd(num, den)
            return num // g, den // g
    raise SchemaError(f"not a rational: {s!r}")


def parse_rational(s: Any) -> Fraction:
    return Fraction(*_ratio(s))


def point_to_json(p: Point) -> list[str]:
    return [str(c) for c in p]


def _ratios(obj: Any) -> list[tuple[int, int]]:
    """The coordinates of a point, each as `_ratio` reads it."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("point must be a nonempty list of rationals")
    return [_ratio(c) for c in obj]


def point_from_json(obj: Any) -> Point:
    return tuple(Fraction(p, q) for p, q in _ratios(obj))


def polytope_to_json(p: Polytope, written: Optional[dict] = None) -> dict:
    """`written` maps each Polytope written to its JSON; one dict per document
    writes every repeat of a polytope once."""
    obj = None if written is None else written.get(p)
    if obj is None:
        obj = {"vertices": [point_to_json(v) for v in p.vertices]}
        if written is not None:
            written[p] = obj
    return obj


def polytope_from_json(obj: Any, polytopes: Optional[dict] = None) -> Polytope:
    """Parse and hull one polytope.

    `polytopes` maps each vertex list already hulled, as the tuple of its raw
    coordinate strings, to its Polytope; one dict per document lets every
    repeat share one hull and its chart, and a repeat is not parsed again.
    A list with a number or a bool in it is parsed every time: true == 1.
    Only all-string keys are stored, and a JSON string equals no other JSON
    value, so the coordinates' types are tested on a miss alone.
    """
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise SchemaError("polytope must be an object with a 'vertices' list")
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise SchemaError("polytope needs a nonempty vertex list")
    # a string or an object vertex would key like the list of its characters or keys
    if polytopes is None or not all(type(v) is list for v in verts):
        return _hulled(verts)
    key = tuple(map(tuple, verts))
    try:
        hit = polytopes.get(key)
    except TypeError:  # a list or an object coordinate, which is no rational
        hit = None
    if hit is None:
        hit = _hulled(verts)
        if all(type(c) is str for v in verts for c in v):
            polytopes[key] = hit
    return hit


def _hulled(verts: list) -> Polytope:
    """The hull of a vertex list, parsed into integers: each coordinate p / q
    (`_ratio`) times the lcm of every q, hulled on that form (`_hull`).  No
    Fraction is built but for a decimal coordinate."""
    points = [_ratios(v) for v in verts]
    den = math.lcm(*(q for point in points for _, q in point))
    return _hull(den, [tuple(p * (den // q) for p, q in point) for point in points])


def cf_to_json(f: ConstructibleFunction, written: Optional[dict] = None) -> dict:
    return {
        "dimension": f.dimension,
        "terms": [
            {"coeff": t.coeff, "polytope": polytope_to_json(t.support, written)} for t in f.terms
        ],
    }


def cf_from_json(obj: Any, polytopes: Optional[dict] = None) -> ConstructibleFunction:
    """Parse a constructible function; `polytopes` as in `polytope_from_json`."""
    if polytopes is None:
        polytopes = {}
    if not isinstance(obj, dict) or "dimension" not in obj or "terms" not in obj:
        raise SchemaError("constructible function needs 'dimension' and 'terms'")
    dim = parse_dimension(obj["dimension"])
    pairs = []
    for t in _list(obj, "terms"):
        if not isinstance(t, dict) or "coeff" not in t or "polytope" not in t:
            raise SchemaError("term needs 'coeff' and 'polytope'")
        coeff = t["coeff"]
        if type(coeff) is not int:
            raise SchemaError(f"coefficient must be an integer: {coeff!r}")
        pairs.append((coeff, polytope_from_json(t["polytope"], polytopes)))
    return from_terms(dim, pairs)


def _entry_to_json(entry, written: Optional[dict]) -> dict:
    """A summand, or a flag block (flag, shift, multiplicity)."""
    if isinstance(entry, Summand):
        inner = entry.support.inner
        return {
            "outer": polytope_to_json(entry.support.outer, written),
            "inner": None if inner is None else polytope_to_json(inner, written),
            "shift": entry.shift,
            "multiplicity": entry.multiplicity,
        }
    flag, shift, multiplicity = entry
    return {"flag": flag_to_json(flag, written), "shift": shift, "multiplicity": multiplicity}


def sheaf_to_json(s: SheafSum, written: Optional[dict] = None) -> dict:
    """The sum's JSON: its flag blocks where it keeps them, else its summands."""
    entries = s.summands if s.blocks is None else s.blocks
    return {"dimension": s.dimension, "summands": [_entry_to_json(e, written) for e in entries]}


def _shift_and_multiplicity(entry: dict) -> tuple[int, int]:
    shift = entry.get("shift", 0)
    mult = entry.get("multiplicity", 1)
    if type(shift) is not int or type(mult) is not int:
        raise SchemaError("shift and multiplicity must be integers")
    return shift, mult


def sheaf_from_json(obj: Any, polytopes: Optional[dict] = None) -> SheafSum:
    """Parse a sheaf sum; `polytopes` as in `polytope_from_json`.

    Each entry's dimension is checked here, a flag block's from its base.  A
    sum with a flag block keeps its blocks unexpanded: its readers expand
    them, checking each level difference as it is made.
    """
    if polytopes is None:
        polytopes = {}
    if not isinstance(obj, dict) or "dimension" not in obj or "summands" not in obj:
        raise SchemaError("sheaf sum needs 'dimension' and 'summands'")
    dim = parse_dimension(obj["dimension"])
    entries = []
    for sm in _list(obj, "summands"):
        if isinstance(sm, dict) and "flag" in sm:
            shift, mult = _shift_and_multiplicity(sm)
            entries.append((flag_from_json(sm["flag"], polytopes), shift, mult))
            continue
        if not isinstance(sm, dict) or "outer" not in sm:
            raise SchemaError("summand needs at least an 'outer' polytope")
        outer = polytope_from_json(sm["outer"], polytopes)
        inner = sm.get("inner")
        support = Support(outer, None if inner is None else polytope_from_json(inner, polytopes))
        entries.append(Summand(support, *_shift_and_multiplicity(sm)))
    if all(isinstance(e, Summand) for e in entries):
        return sheaf_sum(dim, entries)
    if any((e.support.outer if isinstance(e, Summand) else e[0].base).dimension != dim for e in entries):
        raise SchemaError("summand dimension mismatch")
    return SheafSum(dim, None, tuple(entries))


def affine_map_from_json(obj: Any) -> AffineMap:
    if not isinstance(obj, dict) or "matrix" not in obj or "offset" not in obj:
        raise SchemaError("affine map needs 'matrix' and 'offset'")
    if not all(isinstance(row, list) for row in _list(obj, "matrix")):
        raise SchemaError("affine map matrix must be a list of rows")
    matrix = tuple(tuple(parse_rational(v) for v in row) for row in obj["matrix"])
    if len(matrix) not in (1, 2, 3):
        raise SchemaError("affine map codomain dimension must be 1, 2 or 3")
    return AffineMap(matrix, point_from_json(obj["offset"]))


def flag_to_json(flag: Flag, written: Optional[dict] = None) -> dict:
    return {
        "polytope": polytope_to_json(flag.base, written),
        "center": point_to_json(flag.center),
        "steps": flag.steps,
    }


def flag_from_json(obj: Any, polytopes: Optional[dict] = None) -> Flag:
    """Parse a flag; `polytopes` as in `polytope_from_json`.

    The base is hulled, and the center and the step count checked, before any
    level is built, so a block costs at most `MAX_FLAG_STEPS` levels.
    """
    if not isinstance(obj, dict) or not {"polytope", "center", "steps"} <= obj.keys():
        raise SchemaError("flag needs 'polytope', 'center' and 'steps'")
    steps = obj["steps"]
    if type(steps) is not int:
        raise SchemaError(f"flag steps must be an integer: {steps!r}")
    # levels are recomputed, which revalidates every invariant
    return build_flag(polytope_from_json(obj["polytope"], polytopes), point_from_json(obj["center"]), steps)


CERT_VERSION = 2


def cert_to_json(cert: Certificate) -> dict:
    """The certificate's JSON, in version 2.  Each distinct polytope's JSON is
    built once and shared by its occurrences, so an edit of one occurrence
    edits them all."""
    if cert.norm is None:
        raise ValueError("a certificate is written with the norm it was built under")
    written: dict = {}
    return {
        "version": CERT_VERSION,
        "norm": cert.norm.value,
        "epsilon": decimal_up(cert.epsilon),
        "source": cf_to_json(cert.source, written),
        "target": cf_to_json(cert.target, written),
        "steps": [
            {
                "F": sheaf_to_json(s.left, written),
                "G": sheaf_to_json(s.right, written),
                "bound": s.declared_bound.decimal_up(),
                "chi_F": cf_to_json(s.chi_left, written),
                "chi_G": cf_to_json(s.chi_right, written),
            }
            for s in cert.steps
        ],
    }


def cert_from_json(obj: Any) -> Certificate:
    """Parse a certificate of version 2, or of version 1 (no "version" key),
    which records no norm."""
    if not isinstance(obj, dict) or not {"epsilon", "source", "target", "steps"} <= obj.keys():
        raise SchemaError("certificate needs 'epsilon', 'source', 'target' and 'steps'")
    norm = None
    if "version" in obj:
        if type(obj["version"]) is not int or obj["version"] != CERT_VERSION:
            raise SchemaError(f"unsupported certificate version: {obj['version']!r}")
        if "norm" not in obj:
            raise SchemaError(f"a version {CERT_VERSION} certificate needs a 'norm'")
        norm = parse_norm(obj["norm"])
    polytopes: dict = {}
    steps = []
    for s in _list(obj, "steps"):
        if not isinstance(s, dict) or not {"F", "G", "bound", "chi_F", "chi_G"} <= s.keys():
            raise SchemaError("certificate step needs 'F', 'G', 'bound', 'chi_F', 'chi_G'")
        steps.append(
            CertificateStep(
                sheaf_from_json(s["F"], polytopes),
                sheaf_from_json(s["G"], polytopes),
                RoundedReal(parse_rational(s["bound"])),
                cf_from_json(s["chi_F"], polytopes),
                cf_from_json(s["chi_G"], polytopes),
            )
        )
    if not steps:
        raise SchemaError("certificate needs at least one step")
    return Certificate(
        cf_from_json(obj["source"], polytopes),
        cf_from_json(obj["target"], polytopes),
        parse_rational(obj["epsilon"]),
        tuple(steps),
        norm,
    )
