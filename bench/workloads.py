"""Seeded inputs and independent reference answers for the three workloads.

Every workload is a fixed list of size classes, one per input, and each
class has one fixed template.  The seed applies a signed permutation of the
axes to every template (and on ``verify`` picks which certificates are
tampered).  That keeps every length, every cell decomposition and the size of
every coordinate, so each input costs the same exact arithmetic under every
seed and the spread between runs is the machine's.

On ``verify`` and ``link`` a class fixes the dimension, 1/eps, the terms and
the step count of every flag the program will build: shapes are centrally
symmetric polytopes whose vertices lie on a sphere of rational radius rho
around a center at rational distance R from the origin, so the reach from
the vertex centroid is exactly rho, the segment to the origin has length
exactly R, and every step count ceil(reach / (2 eps)) is known in advance.
On ``bound`` the inputs are flags on axis-parallel boxes.

Expected answers come from construction, never from the program under test:

* ``verify``: a certificate straight from ``link`` must PASS with exit 0; a
  tampered one (one declared bound set to zero, or one ``chi_F`` term
  dropped) must FAIL with exit 1 and name the broken step.
* ``link``: exit 0 and a certificate read back from JSON with 6 steps, every
  declared bound at most eps, and source and target equal to the two inputs.
* ``bound``: the translation norm for a flag against its translate, and
  reach / (2 min steps) for two flags on one polytope with different step
  counts, rounded up at 12 places.

Run as a script, this module is the set-up step: it imports ``eulercert.cli``,
writes one workload's inputs and manifest into a directory and prints the
seconds that took with the machine's speed factor (see ``machine.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

WORKLOADS = ("verify", "link", "bound")

# Rational unit vectors with small denominators (Pythagorean triples and
# quadruples), closed under sign changes and coordinate permutations.
_TRIPLES = [(1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]
_QUADS = [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11), (3, 4, 12, 13)]


def _signed_perms(coords, den):
    return {
        tuple(Fraction(sign * c, den) for sign, c in zip(signs, perm))
        for perm in itertools.permutations(coords)
        for signs in itertools.product((1, -1), repeat=len(coords))
    }


DIRECTIONS = {
    1: [(Fraction(1),), (Fraction(-1),)],
    2: sorted(set().union(*(_signed_perms((a, b), c) for a, b, c in _TRIPLES))),
    3: sorted(set().union(*(_signed_perms((a, b, c), d) for a, b, c, d in _QUADS))),
}


def decimal_up(q: Fraction, places: int = 12) -> str:
    """Fixed-point decimal of q rounded toward +infinity."""
    scale = 10**places
    units = -((-q.numerator * scale) // q.denominator)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // scale}.{units % scale:0{places}d}"


def _poly(vertices) -> dict:
    return {"vertices": [[str(c) for c in v] for v in sorted(set(vertices))]}


def _sized(rng: random.Random, steps: int, inv_eps: int) -> Fraction:
    """A length L with ceil(L / (2 eps)) == steps: 2 eps (steps - theta)."""
    theta = Fraction(rng.randrange(1, 16), 16)
    return 2 * (steps - theta) / inv_eps


def _independent(dirs) -> bool:
    if len(dirs[0]) == 1:
        return True
    if len(dirs[0]) == 2:
        return all(a[0] * b[1] != a[1] * b[0] for i, a in enumerate(dirs) for b in dirs[i + 1 :])
    a, b, c = dirs[:3]
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return det != 0


def _shape(rng: random.Random, dim: int, center, rho: Fraction, pairs: int) -> list:
    """Centrally symmetric polytope center +- rho d over independent directions d.

    `pairs` directions in the plane (a rectangle or a hexagon), one on the
    line, three in space (an octahedron).
    """
    pairs = {1: 1, 2: pairs, 3: 3}[dim]
    while True:
        dirs = rng.sample(DIRECTIONS[dim], pairs)
        if _independent(dirs):
            break
    verts = []
    for d in dirs:
        for sign in (1, -1):
            verts.append(tuple(c + sign * rho * x for c, x in zip(center, d)))
    return verts


def _function(rng: random.Random, dim: int, inv_eps: int, terms, used: set) -> list:
    """(coeff, vertices) per term given as (coeff, flag steps, segment steps, direction pairs)."""
    out = []
    for coeff, steps, seg_steps, pairs in terms:
        while True:
            rho = _sized(rng, steps, inv_eps)
            radius = _sized(rng, seg_steps, inv_eps)
            center = tuple(radius * x for x in rng.choice(DIRECTIONS[dim]))
            if center in used:
                continue  # equal centers would merge the segment terms
            used.add(center)
            poly = _shape(rng, dim, center, rho, pairs)
            break
        out.append((coeff, poly))
    return out


def _symmetry(rng: random.Random, dim: int):
    """A random signed permutation of the axes.

    It maps a template to another input with the same lengths, the same cell
    decompositions and coordinates of the same sizes, so every seed costs the
    same exact arithmetic.
    """
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: tuple(sign * v[p] for sign, p in zip(signs, perm))


def _pair(rng: random.Random, workload: str, k: int, cls) -> tuple:
    """The seed's symmetry of class k's template pair, as JSON."""
    dim, inv_eps, fterms, gterms = cls
    template = random.Random(f"{workload}-template:{k}")
    used: set = set()
    f = _function(template, dim, inv_eps, fterms, used)
    g = _function(template, dim, inv_eps, gterms, used)
    move = _symmetry(rng, dim)

    def moved(terms):
        return {
            "dimension": dim,
            "terms": [{"coeff": c, "polytope": _poly(move(v) for v in verts)} for c, verts in terms],
        }

    return moved(f), moved(g)


def _write(path: str, obj) -> int:
    text = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return len(text) + 1


# --- verify -----------------------------------------------------------------

def _terms(template: int, n: int) -> tuple:
    """f and g terms as (coeff, flag steps, segment steps, direction pairs).

    Template 0 has Euler integral 2 on each side.  Template 1 has integral 1
    and a negative coefficient, whose flags ride in homological degree 1.
    """
    if template == 0:
        return [(1, n, n, 2), (1, n // 2, n, 2)], [(2, n, n // 2, 2)]
    return [(2, n, n, 2), (-1, n // 2, n, 2)], [(1, n, n // 2, 2)]


# (dimension, 1/eps, template).  Flag step counts are those of a size of 1/4
# at each eps, so the geometry keeps its size as eps shrinks.  Passes are
# whole, so with 19 inputs the median of all latencies falls in the middle of
# the five 2-D inputs at 1/16, and p90 in the middle of the five at 1/128.
VERIFY_INPUTS = [
    (1, 16, 0), (1, 32, 0), (1, 64, 0), (1, 128, 0), (1, 32, 1), (1, 64, 1), (1, 128, 1),
    (2, 16, 0), (2, 16, 1), (2, 16, 0), (2, 16, 1), (2, 16, 0),
    (2, 32, 1), (2, 64, 0),
    (2, 128, 0), (2, 128, 1), (2, 128, 0), (2, 128, 1), (2, 128, 0),
]
# One tampered certificate per group, about a quarter of the set.
# Understating a bound leaves verify's work unchanged, so that kind goes to
# the groups whose samples set p50 and p90; dropping a chi_F term shortens an
# equality check.
VERIFY_TAMPER_GROUPS = [
    (range(0, 4), "chi"), (range(4, 7), "bound"), (range(7, 12), "bound"),
    (range(12, 14), "chi"), (range(14, 19), "bound"),
]


def _verify_classes():
    out = []
    for dim, inv_eps, template in VERIFY_INPUTS:
        fterms, gterms = _terms(template, inv_eps // 8)
        out.append((dim, inv_eps, fterms, gterms))
    return out


def _tamper(cert: dict, kind: str) -> str:
    """Break one claim of a certificate; return the failure verify must print."""
    for k, step in enumerate(cert["steps"]):
        if kind == "bound" and Fraction(step["bound"]) > 0:
            step["bound"] = decimal_up(Fraction(0))
            return f"- bound understated at step {k}"
        if kind == "chi" and step["chi_F"]["terms"]:
            step["chi_F"]["terms"].pop()
            return f"- left local euler mismatch at step {k}"
    raise ValueError(f"nothing to tamper ({kind})")


def cert_size(cert: dict) -> dict:
    """Summands and unit copies over both sheaves of every step."""
    summands = [sm for s in cert["steps"] for side in ("F", "G") for sm in s[side]["summands"]]
    return {
        "summands": len(summands),
        "unit_copies": sum(sm["multiplicity"] for sm in summands),
    }


def run_cli(argv: list, cwd: str) -> int:
    """Run one eulercert command in this process with `cwd` as working directory."""
    from eulercert.cli import run

    here = os.getcwd()
    os.chdir(cwd)
    try:
        return run(argv)
    finally:
        os.chdir(here)


def build_verify(rng: random.Random, out_dir: str) -> list:
    classes = _verify_classes()
    tampered = {rng.choice(group): kind for group, kind in VERIFY_TAMPER_GROUPS}
    ops = []
    for k, cls in enumerate(classes):
        dim, inv_eps = cls[:2]
        f, g = _pair(rng, "verify", k, cls)
        _write(os.path.join(out_dir, f"v{k}_f.json"), f)
        _write(os.path.join(out_dir, f"v{k}_g.json"), g)
        cert_path = f"v{k}_cert.json"
        code = run_cli(
            ["link", f"v{k}_f.json", f"v{k}_g.json", "--epsilon", f"1/{inv_eps}", "--out", cert_path],
            out_dir,
        )
        if code != 0:
            raise RuntimeError(f"link failed while building certificate {k} (exit {code})")
        os.remove(os.path.join(out_dir, f"v{k}_f.json"))
        os.remove(os.path.join(out_dir, f"v{k}_g.json"))
        with open(os.path.join(out_dir, cert_path), encoding="utf-8") as fh:
            cert = json.load(fh)
        expect = {"code": 0, "verdict": "PASS", "line": None}
        if k in tampered:
            line = _tamper(cert, tampered[k])
            expect = {"code": 1, "verdict": "FAIL", "line": line}
        nbytes = _write(os.path.join(out_dir, cert_path), cert)
        size = {"dimension": dim, "inv_eps": inv_eps, "doc_bytes": nbytes, **cert_size(cert)}
        ops.append({"argv": ["verify", cert_path], "expect": expect, "size": size})
    return ops


# --- link -------------------------------------------------------------------


def _link_classes():
    out = []
    for inv_eps in (64, 128, 256, 512):
        n = inv_eps // 32  # steps for a size of 1/16
        for dim in (1, 2, 3):
            out.append((dim, inv_eps, [(1, n, n, 2), (1, n // 2, n, 3)], [(2, n, n // 2, 3)]))
            out.append((dim, inv_eps, [(2, n, n, 3), (-1, n // 2, n, 2)], [(1, n, n // 2, 2)]))
    out.append((2, 512, [(1, 16, 16, 3), (1, 8, 16, 3)], [(2, 16, 8, 3)]))  # the 25th input
    return out


def build_link(rng: random.Random, out_dir: str) -> list:
    ops = []
    for k, cls in enumerate(_link_classes()):
        dim, inv_eps = cls[:2]
        f, g = _pair(rng, "link", k, cls)
        nbytes = _write(os.path.join(out_dir, f"l{k}_f.json"), f)
        nbytes += _write(os.path.join(out_dir, f"l{k}_g.json"), g)
        ops.append(
            {
                "argv": ["link", f"l{k}_f.json", f"l{k}_g.json", "--epsilon", f"1/{inv_eps}",
                         "--out", f"l{k}_cert.json"],
                "expect": {"epsilon": f"1/{inv_eps}", "source": f, "target": g, "out": f"l{k}_cert.json"},
                "size": {"dimension": dim, "inv_eps": inv_eps, "doc_bytes": nbytes},
            }
        )
    return ops


# --- bound ------------------------------------------------------------------


def _levels(dim: int, center, half, steps: int):
    """Homothety levels i/steps of the box center +- half toward center."""
    corners = [()]
    for h in half:
        corners = [c + (s * h,) for c in corners for s in (1, -1)]
    return [
        [tuple(c + Fraction(i, steps) * x for c, x in zip(center, corner)) for corner in corners]
        for i in range(steps + 1)
    ]


def _flag_sheaf(dim: int, center, half, steps: int, mult: int, move) -> dict:
    levels = [[move(v) for v in level] for level in _levels(dim, center, half, steps)]
    summands = [{"outer": _poly(levels[0]), "inner": None, "shift": 0, "multiplicity": mult}]
    for lo, hi in zip(levels, levels[1:]):
        summands.append({"outer": _poly(hi), "inner": _poly(lo), "shift": 0, "multiplicity": mult})
    return {"dimension": dim, "summands": summands}


def _box(rng: random.Random, dim: int, scale: Fraction):
    """Half-extents with a rational Euclidean length, and that length."""
    if dim == 1:
        return (scale,), scale
    a, b, c = rng.choice(_TRIPLES[1:])
    half = (scale * a, scale * b) if rng.randrange(2) else (scale * b, scale * a)
    return half, scale * c


# (kind, dimension, steps of F, steps of G, multiplicity).  Passes are whole,
# so with 25 inputs the median of all latencies falls in the samples of the
# 13th cheapest input and p90 in those of the 23rd.
BOUND_CLASSES = [
    ("translate", 1, 8, 8, 1),
    ("translate", 1, 12, 12, 1),
    ("translate", 1, 16, 16, 1),
    ("translate", 1, 24, 24, 1),
    ("translate", 1, 32, 32, 1),
    ("translate", 1, 48, 48, 1),
    ("translate", 1, 64, 64, 1),
    ("translate", 2, 3, 3, 1),
    ("translate", 2, 4, 4, 1),
    ("translate", 2, 6, 6, 1),
    ("translate", 2, 8, 8, 1),
    ("translate", 2, 10, 10, 1),
    ("translate", 2, 12, 12, 1),
    ("steps", 1, 3, 4, 2),
    ("steps", 1, 3, 4, 5),
    ("steps", 1, 3, 4, 10),
    ("steps", 1, 3, 4, 20),
    ("steps", 1, 3, 4, 40),
    ("steps", 1, 4, 6, 3),
    ("steps", 1, 5, 7, 8),
    ("steps", 1, 6, 9, 4),
    ("steps", 2, 2, 3, 2),
    ("steps", 2, 2, 3, 5),
    ("steps", 2, 2, 3, 10),
    ("steps", 2, 3, 4, 3),
]


def build_bound(rng: random.Random, out_dir: str) -> list:
    ops = []
    for k, (kind, dim, n_f, n_g, mult) in enumerate(BOUND_CLASSES):
        template = random.Random(f"bound-template:{k}")
        center = tuple(Fraction(template.randrange(-64, 65), 64) for _ in range(dim))
        half, reach = _box(template, dim, Fraction(template.randrange(8, 17), 16))
        move = _symmetry(rng, dim)
        f = _flag_sheaf(dim, center, half, n_f, mult, move)
        if kind == "translate":
            # the point summands can only pair with each other, at the
            # translation norm, and every level pairs with its translate at
            # that norm or less, so the bound is exactly the norm
            unit, norm = _box(template, dim, Fraction(1))
            expected = reach / (template.randrange(2, 9) * n_f)
            shifted = tuple(c + expected / norm * u * template.choice((1, -1)) for c, u in zip(center, unit))
            g = _flag_sheaf(dim, shifted, half, n_g, mult, move)
        else:
            g = _flag_sheaf(dim, center, half, n_g, mult, move)
            expected = reach / (2 * min(n_f, n_g))
        nbytes = _write(os.path.join(out_dir, f"b{k}_F.json"), f)
        nbytes += _write(os.path.join(out_dir, f"b{k}_G.json"), g)
        summands = len(f["summands"]) + len(g["summands"])
        ops.append(
            {
                "argv": ["bound", f"b{k}_F.json", f"b{k}_G.json"],
                "expect": {"bound": decimal_up(expected)},
                "size": {
                    "dimension": dim,
                    "inv_eps": None,
                    "doc_bytes": nbytes,
                    "summands": summands,
                    "unit_copies": summands * mult,
                },
            }
        )
    return ops


BUILDERS = {"verify": build_verify, "link": build_link, "bound": build_bound}


def build(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload and return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng, out_dir)
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    _write(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


# --- independent output checks ----------------------------------------------


def _canonical(cf: dict):
    """A function as a multiset of (coeff, vertex set), exact rationals."""
    terms = {}
    for t in cf["terms"]:
        key = frozenset(tuple(Fraction(c) for c in v) for v in t["polytope"]["vertices"])
        terms[key] = terms.get(key, 0) + t["coeff"]
    return cf["dimension"], {k: v for k, v in terms.items() if v}


def check_verify(expect: dict, code: int, stdout: str, work_dir: str) -> bool:
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("note: ")]
    if code != expect["code"] or not lines or lines[0] != expect["verdict"]:
        return False
    return expect["line"] is None or expect["line"] in lines[1:]


def check_bound(expect: dict, code: int, stdout: str, work_dir: str) -> bool:
    lines = stdout.splitlines()
    return code == 0 and bool(lines) and lines[0] == expect["bound"]


def check_link(expect: dict, code: int, stdout: str, work_dir: str) -> bool:
    if code != 0:
        return False
    try:
        with open(os.path.join(work_dir, expect["out"]), encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError):
        return False
    eps = Fraction(expect["epsilon"])
    steps = cert.get("steps", [])
    if len(steps) != 6 or Fraction(cert["epsilon"]) != Fraction(decimal_up(eps)):
        return False
    if any(Fraction(s["bound"]) > Fraction(decimal_up(eps)) for s in steps):
        return False
    src, tgt = cert["source"], cert["target"]
    if sum(t["coeff"] for t in src["terms"]) != sum(t["coeff"] for t in tgt["terms"]):
        return False
    return _canonical(src) == _canonical(expect["source"]) and _canonical(tgt) == _canonical(
        expect["target"]
    )


CHECKS = {"verify": check_verify, "link": check_link, "bound": check_bound}


def _main() -> int:
    ap = argparse.ArgumentParser(description="Write one workload's inputs and manifest.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True, help="directory holding the eulercert package")
    args = ap.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import machine

    refs = [machine.reference() for _ in range(3)]
    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import eulercert.cli  # noqa: F401  (set-up time includes the import)

    os.makedirs(args.out, exist_ok=True)
    build(args.workload, args.seed, args.out)
    elapsed = time.perf_counter() - start
    refs += [machine.reference() for _ in range(3)]
    print(json.dumps({"setup_s": elapsed, "speed": statistics.median(refs) / machine.REF_S}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
