"""Tests of the benchmark itself: the output checks, the tracer and a smoke run.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench_run
from tracing import Tracer
from verify import Verifier
from worker import closed_loop, run_command
from workloads import EXTRA_WORKLOADS, WORKLOADS, build_plan

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _outputs(workload, tmp_path, kinds):
    plan = build_plan(workload, 7, str(tmp_path), smoke=True)
    for cmd in plan["round"]:
        if cmd["kind"] in kinds:
            code, stdout, *_ = run_command(cmd["argv"])
            yield cmd, code, json.loads(stdout)


def _check(cmd, code, report):
    return Verifier().check(cmd["expect"], code, json.dumps(report))


def test_verifier_rejects_a_tampered_value(tmp_path):
    seen = 0
    for cmd, code, report in _outputs("maximize", tmp_path, {"greedy_uniform", "local_partition"}):
        assert _check(cmd, code, report) is None
        report["result"]["solve"]["value"] += 1
        assert "sums to" in _check(cmd, code, report)
        seen += 1
    assert seen == 2


def test_verifier_rejects_a_tampered_witness(tmp_path):
    seen = 0
    for cmd, code, report in _outputs("check", tmp_path, {"ws_fail_threshold", "ws_fail_star"}):
        assert code == 1 and _check(cmd, code, report) is None
        witness = report["result"]["witness"]
        moved = json.loads(json.dumps(report))
        moved["result"]["witness"]["T"] = sorted(set(witness["T"]) ^ {0})
        assert _check(cmd, code, moved) is not None
        lowered = json.loads(json.dumps(report))
        lowered["result"]["witness"]["lhs"] = witness["lhs"] - 1
        assert "recompute" in _check(cmd, code, lowered)
        assert "exit code" in _check(cmd, 0, report)
        seen += 1
    assert seen == 2


def test_verifier_rejects_a_short_scan(tmp_path):
    (cmd, code, report), *_ = _outputs("check", tmp_path, {"monotone_n6"})
    assert _check(cmd, code, report) is None
    report["result"]["pairs_checked"] -= 1
    assert "pairs_checked" in _check(cmd, code, report)


def test_verifier_rejects_a_float_bound_off_the_exact_one(tmp_path):
    verifier = Verifier()
    outputs = list(_outputs("sweep", tmp_path, {"greedy_exact", "greedy_float"}))
    for cmd, code, report in outputs:
        assert verifier.check(cmd["expect"], code, json.dumps(report)) is None
    cmd, code, report = outputs[-1]
    report["result"]["rows"][3]["bound"] *= 1 + 1e-6
    assert "expected" in verifier.check(cmd["expect"], code, json.dumps(report))


def test_traced_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for attempt in range(2):
        plan = build_plan("sweep", 3, str(tmp_path / str(attempt)), smoke=True)
        tracer = Tracer()
        tracer.install()
        try:
            result = closed_loop(plan, 0.01, tracer)
        finally:
            tracer.uninstall()
        assert result["errors"] == [] and result["rounds"] == 1
        counts.append(tracer.counters() | {"extras": [s[-1] for s in tracer.spans]})
        del counts[-1]["evaluation_ns"]
    assert counts[0] == counts[1]
    assert counts[0]["oracle_calls"] > counts[0]["evaluator_calls"] > 0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: bench_run.UNITS[k] for k in bench_run.GATED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _bench(cwd, *args, timeout=120):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", WORKLOADS + EXTRA_WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    done = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == set(bench_run.GATED)
    assert "ops_failed_ratio" in done.stdout


def test_smoke_traced_run_prints_every_layer():
    done = _bench(ROOT, "--workload", "check", "--seed", "5", "--seconds", "0.5", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert set(summary["metrics"]) == set(bench_run.LAYER_UNITS)
    assert summary["metrics"]["core.pairs_checked"]["value"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(str(tmp_path), "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
