"""Per-op digests of the benchmark workloads, for byte-identity checks.

    python3 tools/opdigest.py --src PATH --inputs DIR

Runs every op of the ``verify``, ``link`` and ``bound`` workloads on seeds 1,
3 and 7 through ``eulercert.cli.run`` of the package under PATH (the
directory holding ``eulercert``, such as a tree's ``src``), in this process,
one op after another as the benchmark runs them, once under each norm: the
op's argv prefixed with ``--norm l2``, ``--norm l1`` and ``--norm linf``.  It
prints one line per op and norm with the sha256 of its stdout, stderr, exit
code and every file it wrote, then one line with the sha256 of all op lines.

The same seeds' ``link`` inputs, every function file of them, then feed the
commands that read the slice recursion of ``cellcomplex``, ``oracle-integrate``
and ``probe --metric l1|sup``, under each norm as well (lines named
``cells``); on their 3-D inputs only ``probe --metric l1`` exits 2, as 3-D
pieces carry no volume.  And every left sheaf of the same seeds' ``bound``
inputs is bounded against an empty sheaf of its dimension, written into the
scratch copy, under each norm (lines named ``infinite``): its global sections
differ, so the bound is ``inf`` and every unit is left unmatched.  Last,
``flag`` runs on every term polytope of the same seeds' ``link`` inputs, each
written into the scratch copy, with its vertex centroid as the center and 3
steps, under each norm (lines named ``flag``).  The centroid is the mean of
the written vertices, which the benchmark writes extreme.

The inputs live in DIR/<workload>-<seed>.  When DIR is empty or missing they
are first written there by ``bench/workloads.py``, imported and left as it
is; the ``verify`` certificates are then made by the package under PATH.
Each workload runs in a scratch copy of its inputs, so DIR is never changed
and two trees can be compared on the same inputs:

    python3 tools/opdigest.py --src parent/src --inputs in > parent.txt
    python3 tools/opdigest.py --src src --inputs in > change.txt
    diff parent.txt change.txt

When the change alters the certificate format, build the inputs once per
tree instead (``--inputs in-parent`` and ``--inputs in-change``, both empty
at the start): ``verify`` must read the certificates that the tree's own
``link`` wrote, and one tree may not read the other's format.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify", "link", "bound")
SEEDS = (1, 3, 7)
NORMS = ("l2", "l1", "linf")
CELL_COMMANDS = (
    ["oracle-integrate"],
    ["probe", "--metric", "l1", "--schedule", "1/4,1/8"],
    ["probe", "--metric", "sup", "--schedule", "1/4,1/8"],
)


def _files(path: str) -> dict:
    """File name -> sha256 of its bytes, for every file in a directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _run_op(run, argv: list, work: str) -> str:
    """Run one op in `work` and return the sha256 of everything it produced."""
    out, err = io.StringIO(), io.StringIO()
    before = _files(work)
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escape is part of what the op produced
                code = None
                err.write(repr(exc))
    finally:
        os.chdir(here)
    written = {name: h for name, h in _files(work).items() if before.get(name) != h}
    record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _manifest_ops(inputs: str) -> list:
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _digest_ops(run, label: str, seed: int, inputs: str, ops: list, extra: Optional[dict] = None) -> list:
    """Print and return one line per op and norm, each norm in a fresh copy
    of the inputs with the JSON files `extra` (name -> value) added."""
    lines = []
    for norm in NORMS:
        with tempfile.TemporaryDirectory() as tmp:
            work = shutil.copytree(inputs, os.path.join(tmp, "work"))
            for name, value in (extra or {}).items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                    json.dump(value, fh)
            for i, op in enumerate(ops):
                digest = _run_op(run, ["--norm", norm] + op["argv"], work)
                line = f"{label} seed={seed} norm={norm} op={i} {digest}"
                print(line, flush=True)
                lines.append(line)
    return lines


def _cell_ops(link_ops: list) -> list:
    """The slice-recursion commands on every function file of the link ops."""
    files = [name for op in link_ops for name in op["argv"][1:3]]
    return [{"argv": cmd + [name]} for name in files for cmd in CELL_COMMANDS]


def _infinite_ops(bound_ops: list) -> tuple[list, dict]:
    """`bound LEFT EMPTY` for the left sheaf of every bound op, and the empty
    sheaves those ops read."""
    dims = [op["size"]["dimension"] for op in bound_ops]
    ops = [{"argv": ["bound", op["argv"][1], f"empty{d}.json"]} for op, d in zip(bound_ops, dims)]
    return ops, {f"empty{d}.json": {"dimension": d, "summands": []} for d in sorted(set(dims))}


def _flag_ops(inputs: str, link_ops: list) -> tuple[list, dict]:
    """`flag` of every term polytope of the link ops' function files, at its
    vertex centroid with 3 steps, and the polytope files those ops read."""
    ops, polytopes = [], {}
    for name in (name for op in link_ops for name in op["argv"][1:3]):
        with open(os.path.join(inputs, name), encoding="utf-8") as fh:
            terms = json.load(fh)["terms"]
        for i, term in enumerate(terms):
            verts = [[Fraction(c) for c in v] for v in term["polytope"]["vertices"]]
            center = ",".join(str(sum(c) / len(verts)) for c in zip(*verts))
            path = f"{name[:-5]}_t{i}.json"
            polytopes[path] = term["polytope"]
            # "=" keeps a center such as -1/2,1 from reading as an option
            ops.append({"argv": ["flag", path, f"--center={center}", "--steps", "3"]})
    return ops, polytopes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print one sha256 per benchmark op.")
    ap.add_argument("--src", required=True, help="directory holding the eulercert package")
    ap.add_argument("--inputs", required=True, help="directory of the workload inputs")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "eulercert")):
        print(f"error: no eulercert package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "bench"))
    import workloads
    from eulercert.cli import run

    build = not os.path.isdir(args.inputs) or not os.listdir(args.inputs)
    lines = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            inputs = os.path.join(args.inputs, f"{workload}-{seed}")
            if build:
                os.makedirs(inputs)
                workloads.build(workload, seed, inputs)
            lines += _digest_ops(run, workload, seed, inputs, _manifest_ops(inputs))
    for seed in SEEDS:
        inputs = os.path.join(args.inputs, f"link-{seed}")
        lines += _digest_ops(run, "cells", seed, inputs, _cell_ops(_manifest_ops(inputs)))
    for seed in SEEDS:
        inputs = os.path.join(args.inputs, f"bound-{seed}")
        lines += _digest_ops(run, "infinite", seed, inputs, *_infinite_ops(_manifest_ops(inputs)))
    for seed in SEEDS:
        inputs = os.path.join(args.inputs, f"link-{seed}")
        lines += _digest_ops(run, "flag", seed, inputs, *_flag_ops(inputs, _manifest_ops(inputs)))
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
