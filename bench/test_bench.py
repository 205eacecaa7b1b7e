"""Tests of the benchmark itself: seeded inputs, output checks, tracer clean-up."""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import machine  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _build(tmp_path, workload, seed, tag="a"):
    d = tmp_path / f"{workload}-{seed}-{tag}"
    d.mkdir()
    return workloads.build(workload, seed, str(d)), str(d)


def _cli(argv, cwd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = workloads.run_cli(argv, cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_input_bytes(tmp_path, workload):
    _, a = _build(tmp_path, workload, 3, "a")
    _, b = _build(tmp_path, workload, 3, "b")
    _, c = _build(tmp_path, workload, 4, "c")
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_verify_inputs_tamper_a_quarter(tmp_path):
    manifest, _ = _build(tmp_path, "verify", 5)
    verdicts = [op["expect"]["verdict"] for op in manifest["ops"]]
    assert verdicts.count("FAIL") == 5 and len(verdicts) == 19


def test_flipped_verdict_is_an_error(tmp_path):
    manifest, d = _build(tmp_path, "verify", 1)
    for op in manifest["ops"]:
        if op["size"]["dimension"] == 1:
            code, out = _cli(op["argv"], d)
            assert workloads.check_verify(op["expect"], code, out, d)
            flipped = "PASS\n" if op["expect"]["verdict"] == "FAIL" else "FAIL\n"
            assert not workloads.check_verify(op["expect"], 1 - code, flipped, d)
            assert not workloads.check_verify(op["expect"], code, flipped, d)


def test_altered_bound_digit_is_an_error(tmp_path):
    manifest, d = _build(tmp_path, "bound", 1)
    op = manifest["ops"][0]
    code, out = _cli(op["argv"], d)
    assert workloads.check_bound(op["expect"], code, out, d)
    first, rest = out.split("\n", 1)
    altered = first[:-1] + str((int(first[-1]) + 1) % 10)
    assert not workloads.check_bound(op["expect"], code, altered + "\n" + rest, d)
    assert not workloads.check_bound(op["expect"], 2, out, d)


def test_corrupted_certificate_is_an_error(tmp_path):
    manifest, d = _build(tmp_path, "link", 1)
    op = manifest["ops"][0]
    code, out = _cli(op["argv"], d)
    expect = op["expect"]
    assert workloads.check_link(expect, code, out, d)
    path = os.path.join(d, expect["out"])
    with open(path, encoding="utf-8") as fh:
        good = json.load(fh)

    def corrupted(edit):
        cert = json.loads(json.dumps(good))
        edit(cert)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        return not workloads.check_link(expect, 0, "", d)

    assert corrupted(lambda c: c["steps"][1].update(bound="1.000000000000"))
    assert corrupted(lambda c: c["steps"].pop())
    assert corrupted(lambda c: c["target"]["terms"][0].update(coeff=c["target"]["terms"][0]["coeff"] + 1))


def test_client_counts_wrong_answers(tmp_path):
    manifest, d = _build(tmp_path, "verify", 2)
    client = run.Client("verify", manifest, d)

    class AlwaysPass:
        @staticmethod
        def run(argv):
            print("PASS")
            return 0

    client.cli = AlwaysPass
    results = [client.run_op(i) for i in range(len(manifest["ops"]))]
    assert sum(not r["ok"] for r in results) == 5


def _bindings():
    return {
        (name, key): id(value)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "eulercert" or name.startswith("eulercert."))
        for key, value in vars(mod).items()
    }


def _spans():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def test_tracer_restores_every_binding(tmp_path):
    manifest, d = _build(tmp_path, "bound", 1)
    before = _bindings()
    tracer = Tracer(_spans())
    with tracer:
        assert _bindings() != before
        with tracer.op():
            code, _ = _cli(manifest["ops"][0]["argv"], d)
    assert code == 0
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with Tracer(_spans()):
            raise RuntimeError("op failed")
    assert _bindings() == before


def test_self_times_partition_each_op(tmp_path):
    manifest, d = _build(tmp_path, "bound", 1)
    tracer = Tracer(_spans())
    with tracer:
        for op in manifest["ops"][:3]:
            with tracer.op():
                _cli(op["argv"], d)
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)
    roots = sum(tracer.end[i] - tracer.start[i] for i in range(len(own)) if tracer.parent[i] < 0)
    assert sum(own) == pytest.approx(roots)
    rows = tracer.per_op()
    assert len(rows) == 3
    assert all(r["calls"]["distance.sum_bound"] == 1 for r in rows)
    assert all(r["counters"]["unit_copies"] > 0 for r in rows)


def test_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    fake = [
        {"op": 0, "latency": 0.01 * (i + 1), "scaled": 0.01 * (i + 1), "speed": 1.0, "ok": True, "doc_bytes": 1024}
        for i in range(20)
    ]
    e2e = run.end_to_end(fake, 0.5)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    manifest, d = _build(tmp_path, "bound", 1)
    tracer = Tracer(_spans())
    with tracer:
        with tracer.op():
            _cli(manifest["ops"][0]["argv"], d)
    layer = run.per_layer(_spans(), tracer.per_op(), fake[:1], fake[:1])
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_speed_factor_is_the_window_median():
    refs = [machine.REF_S] * 20 + [2 * machine.REF_S] * 20
    factors = machine.speed_factors(refs)
    assert factors[0] == factors[19] == 1
    assert factors[20] == factors[-1] == 2
