"""Alternating parent/change benchmark pairs, and the perf-claim verdict.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --seed N --pairs K [--seconds S]

Each tree is the root of a source checkout.  Every pair runs
``bench/run.py --workload W --seed N --seconds S --trace 0`` once in each
tree, one after the other, and flips which tree runs first from one pair to
the next, so that a drift of the machine's speed falls on both sides alike.
S defaults to ``run_seconds`` of the change tree's ``BENCHMARK.json``.

For every end-to-end metric that file lists, it then prints each side's
median and quartiles, how many pairs the change won (was strictly better in,
in the metric's own direction), the relative change of the medians against
the metric's bound, and the verdict of the perf-claim protocol: a gain holds
when at least 10 pairs ran, the change wins at least 9 pairs in 10 and its
median beats the parent's by more than the parent's interquartile range.
With fewer pairs such a result reads "better, too few pairs to claim".  A
change that failed more ops than the parent, or had a run that was not
correct, claims nothing: such a result reads "not a gain" and says why.  A
metric whose parent interquartile range exceeds its bound reads "unresolved".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Optional

MIN_PAIRS = 10


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list, change: list, better: str) -> tuple:
    """(wins, whether the change beats the parent by the protocol's margins),
    for paired runs; a claim also needs MIN_PAIRS pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = _quartiles(parent)
    gap = sign * (statistics.median(change) - pm)
    return wins, wins >= math.ceil(0.9 * len(parent)) and gap > p3 - p1


def run_fault(parent_runs: list, change_runs: list) -> Optional[str]:
    """Why the change's runs cannot carry a gain, or None: it failed more ops
    than the parent, or one of its runs was not correct."""
    if sum(r["failed"] for r in change_runs) > sum(r["failed"] for r in parent_runs):
        return "the change failed more ops"
    if not all(r["correct"] for r in change_runs):
        return "a change run was not correct"
    return None


def judge(parent: list, change: list, better: str, bound: float, fault: Optional[str] = None) -> tuple:
    """(wins, relative change of the medians, note) for one metric of paired
    runs; `fault` is :func:`run_fault`'s answer for the runs."""
    wins, holds = verdict(parent, change, better)
    p1, pm, p3 = _quartiles(parent)
    rel = (statistics.median(change) - pm) / pm if pm else 0.0
    worse = rel if better == "lower" else -rel
    if holds:
        if fault:
            return wins, rel, f"not a gain: {fault}"
        return wins, rel, "gain" if len(parent) >= MIN_PAIRS else "better, too few pairs to claim"
    if worse > bound:
        return wins, rel, "worse beyond bound"
    # a spread wider than the bound cannot show the metric unchanged
    return wins, rel, "unresolved, spread over bound" if pm and (p3 - p1) / pm > bound else "no claim"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="root of the parent tree")
    ap.add_argument("change", help="root of the change tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(getattr(args, side), args.workload, args.seed, seconds))
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): ops_per_s "
              + " ".join(f"{s} {runs[s][-1]['metrics']['ops_per_s']['value']:.4g}" for s in runs),
              file=sys.stderr, flush=True)
    for side, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{side}: {len(results)} runs, {sum(r['attempted'] for r in results)} ops, "
              f"{sum(r['failed'] for r in results)} failed, {len(bad)} runs not correct")
    fault = run_fault(runs["parent"], runs["change"])
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s} {'change':>8s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins, rel, note = judge(parent, change, metric["better"], metric["bound"], fault)
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        print(f"{name:16s} {pm:12.6g} [{p1:9.6g}, {p3:9.6g}] {cm:12.6g} [{c1:9.6g}, {c3:9.6g}] "
              f"{wins:3d}/{len(parent):<2d} {rel:+8.2%} {metric['bound']:6.0%}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
