"""Benchmark of the eulercert CLI: time to a verdict, certificate cost and matcher scaling.

    python3 bench/run.py --workload verify|link|bound --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program is imported from ``src/``.
Set-up writes the workload's seeded inputs (``workloads.py``) in a fresh
interpreter, three times, checks that the three sets of files are identical
and reports the median time, which includes importing ``eulercert.cli``.
The workload then runs in this process as a closed loop with one client:
whole passes over the inputs through ``eulercert.cli.run`` until ``--seconds``
have passed and at least MIN_OPS operations ran, each output checked against
the answer the inputs were built to have.  Every reported time is scaled to a
reference machine speed measured beside each op (``machine.py``), because the
machine this runs on is shared and its speed drifts.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``layers.json``, from a
traced replay of the ops of an untraced first half, and writes every span and
a per-op size record to ``.benchwork/``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")

SETUP_REPEATS = 3
MIN_OPS = 100  # leaves at least 10 samples beyond p90
MAX_SECONDS = 120  # stop adding passes here, so a run ends well within 180 s

sys.path.insert(0, BENCH)
import machine  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def set_up(workload: str, seed: int, run_dir: str) -> tuple:
    """Build the inputs SETUP_REPEATS times; return (median scaled seconds, manifest, dir, identical)."""
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"inputs{k}")
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", out, "--src", SRC],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"] / report["speed"])
        dirs.append(out)
    identical = all(_same_files(dirs[0], d) for d in dirs[1:])
    for d in dirs[1:]:
        shutil.rmtree(d)
    with open(os.path.join(dirs[0], "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return statistics.median(times), manifest, dirs[0], identical


def _same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if sorted(os.listdir(b)) != names:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


class Client:
    """Runs ops through eulercert.cli.run in this process and checks each output."""

    def __init__(self, workload: str, manifest: dict, work_dir: str):
        from eulercert import cli

        self.cli = cli
        self.workload = workload
        self.ops = manifest["ops"]
        self.work_dir = work_dir
        self.check = workloads.CHECKS[workload]

    def run_op(self, i: int, tracer=None) -> dict:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            scope = tracer.op() if tracer else contextlib.nullcontext()
            with scope:
                start = perf_counter()
                try:
                    code = self.cli.run(op["argv"])
                except (Exception, SystemExit) as exc:  # any escape is a failed op
                    code = None
                    err.write(repr(exc))
                latency = perf_counter() - start
        ok = code is not None and self.check(op["expect"], code, out.getvalue(), self.work_dir)
        if self.workload == "link":
            path = os.path.join(self.work_dir, op["expect"]["out"])
            doc_bytes = os.path.getsize(path) if os.path.exists(path) else 0
        else:
            doc_bytes = op["size"]["doc_bytes"]
        return {"op": i, "latency": latency, "ok": ok, "doc_bytes": doc_bytes, "ref": machine.reference()}

    def passes(self, seconds: float, min_ops: int, tracer=None, count=None) -> list:
        """Whole passes until `seconds` and `min_ops` are reached, or exactly `count` passes.

        Each result gets the machine's speed factor around it and its latency
        divided by that factor ("scaled").
        """
        results = []
        start = perf_counter()
        n = 0
        while True:
            for i in range(len(self.ops)):
                results.append(self.run_op(i, tracer))
            n += 1
            elapsed = perf_counter() - start
            if count is None:
                if (elapsed >= seconds and len(results) >= min_ops) or elapsed >= MAX_SECONDS:
                    break
            elif n == count:
                break
        for r, speed in zip(results, machine.speed_factors([r["ref"] for r in results])):
            r["speed"] = speed
            r["scaled"] = r["latency"] / speed
        return results


def end_to_end(results: list, setup_s: float) -> dict:
    lat = [r["scaled"] for r in results]
    failed = sum(not r["ok"] for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "success_ratio": ((len(lat) - failed) / len(lat), "ratio"),
        "cert_kb_mean": (statistics.fmean(r["doc_bytes"] for r in results) / 1024, "KiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(spans: list, rows: list, untraced: list, traced: list) -> dict:
    n = len(rows)
    metrics = {}
    for spec in spans:
        name = spec["name"]
        metrics[f"{name}.calls"] = (sum(r["calls"][name] for r in rows) / n, "count/op")
        metrics[f"{name}.self_s"] = (sum(r["self_s"][name] / t["speed"] for r, t in zip(rows, traced)) / n, "s/op")
    total = {k: sum(r["counters"][k] for r in rows) for k in rows[0]["counters"]}
    pair_calls = sum(r["calls"]["distance.pair_bound"] for r in rows)
    metrics["distance.pair_bound.distinct_ratio"] = (
        total["distinct_pairs"] / pair_calls if pair_calls else 1.0, "ratio")
    metrics["distance.unit_copies"] = (total["unit_copies"] / n, "count/op")
    metrics["distance.expansion_ratio"] = (
        total["unit_copies"] / total["summands"] if total["summands"] else 1.0, "ratio")
    metrics["cellcomplex.cells"] = (total["cells"] / n, "count/op")
    metrics["flags.levels"] = (total["levels"] / n, "count/op")
    plain = sum(r["scaled"] for r in untraced)
    metrics["trace.overhead_ratio"] = (sum(r["scaled"] for r in traced) / plain - 1, "ratio")
    metrics["machine.speed_factor"] = (statistics.median(r["speed"] for r in untraced + traced), "ratio")
    return metrics


def size_record(client: Client, result: dict) -> dict:
    op = client.ops[result["op"]]
    size = dict(op["size"], doc_bytes=result["doc_bytes"])
    if client.workload == "link" and result["ok"]:
        with open(os.path.join(client.work_dir, op["expect"]["out"]), encoding="utf-8") as fh:
            size.update(workloads.cert_size(json.load(fh)))
    return size


def traced_run(client: Client, seconds: float, seed: int) -> tuple:
    """Untraced passes for half the time, then the same passes traced.

    Returns the per-layer metrics and every op's result, and writes the spans
    with a per-op size record to WORK.
    """
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    untraced = client.passes(seconds / 2, 1)
    tracer = Tracer(spans)
    with tracer:
        traced = client.passes(0, 0, tracer, count=len(untraced) // len(client.ops))
    rows = tracer.per_op()
    records = [
        {**size_record(client, t), "latency_s": u["latency"], "speed": u["speed"],
         "traced_latency_s": t["latency"], "traced_speed": t["speed"], **row}
        for u, t, row in zip(untraced, traced, rows)
    ]
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{client.workload}-{seed}.json")
    tracer.dump(path, {"workload": client.workload, "seed": seed, "ops": records})
    print(f"spans and per-op records: {os.path.relpath(path, ROOT)}")
    return per_layer(spans, rows, untraced, traced), untraced + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "eulercert")):
        print(f"error: no eulercert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    here = os.getcwd()
    try:
        setup_s, manifest, work_dir, identical = set_up(args.workload, args.seed, run_dir)
        client = Client(args.workload, manifest, work_dir)
        os.chdir(work_dir)
        client.run_op(0)  # warm-up, not measured
        if args.trace:
            metrics, results = traced_run(client, args.seconds, args.seed)
        else:
            results = client.passes(args.seconds, MIN_OPS)
            metrics = end_to_end(results, setup_s)
            beyond = sum(r["scaled"] > metrics["latency_p90_s"][0] for r in results)
            print(f"workload {args.workload}: {len(results)} ops, {len(client.ops)} inputs per pass, "
                  f"{beyond} latencies beyond p90; machine speed factor "
                  f"{statistics.median(r['speed'] for r in results):.3f}, "
                  f"raw p50 {statistics.median(r['latency'] for r in results):.6g} s")
    finally:
        os.chdir(here)
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    failed = sum(not r["ok"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
