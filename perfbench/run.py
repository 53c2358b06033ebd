"""The weaksub benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up writes the workload's instance files from ``--seed`` and
times fresh interpreters importing ``weaksub.cli`` (``setup_s``).  The
workload then runs in its own fresh process (``worker.py``) as a closed
loop of one client, for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for half the time and traced for the other half and
reports the per-layer metrics, with ``trace.overhead`` comparing the two.
Every run also writes its full record, with the machine it ran on, under
``perfbench/out/``.  ``--smoke`` shrinks every input to a few elements.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import EXTRA_WORKLOADS, WORKLOADS, build_plan  # noqa: E402

SETUP_REPEATS = 4  # timed interpreter starts before and again after the workload
RUN_BUDGET_S = 170  # a run must end within 180 s, set-up and workers included
STARTED = time.monotonic()
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ops_failed_ratio": "ratio",
}
# ops_failed_ratio is 0 whenever the program is right, so it is reported
# here and through "failed"/"attempted", not as a gated metric.
GATED = [name for name in UNITS if name != "ops_failed_ratio"]

# Per-layer metrics (tracing.layer_metrics), per round of the workload.
LAYER_UNITS = {
    "instances.parse_s": "s",
    "instances.build_s": "s",
    "instances.share": "ratio",
    "zoo.generate_s": "s",
    "core.oracle_calls": "count",
    "core.evaluator_calls": "count",
    "core.memo_hit_ratio": "ratio",
    "core.ns_per_evaluation": "ns",
    "core.check_s": "s",
    "core.pairs_checked": "count",
    "core.ns_per_pair": "ns",
    "core.all_values_s": "s",
    "matroid.indep_calls": "count",
    "solve.greedy_s": "s",
    "solve.local_s": "s",
    "solve.brute_s": "s",
    "solve.greedy_oracle_calls": "count",
    "solve.local_swaps": "count",
    "solve.local_oracle_calls": "count",
    "solve.brute_enumerated": "count",
    "bounds.table_s": "s",
    "bounds.rows_per_s": "1/s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


_SETUP_PROBE = (
    "import weaksub.cli as c; c.build_parser(); import time; "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``weaksub.cli`` is
    imported and ``build_parser()`` has returned, once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"importing weaksub.cli failed:\n{done.stderr.strip()}")
        times.append((int(done.stdout.strip()) - start) / 1e9)
    return times


def run_worker(plan_path: str, seconds: float, out_path: str, trace_path: str | None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
            "--seconds", str(seconds), "--out", out_path]
    if trace_path:
        argv += ["--trace", trace_path]
    timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - STARTED))
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process did not finish within {RUN_BUDGET_S} s of the start") from exc
    if done.returncode != 0:
        raise BenchError(f"workload process failed:\n{done.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it, never below the median."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(result: dict, setup: list[float]) -> dict:
    records = result["records"]
    walls = [r[2] for r in records]
    attempted = len(records)
    tail_value, tail_pct, beyond = tail(walls)
    return {
        "metrics": {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail_value,
            "ops_per_s": attempted / sum(walls),
            "cpu_per_op_s": sum(r[3] for r in records) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ops_failed_ratio": sum(not r[1] for r in records) / attempted,
        },
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": attempted},
    }


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "weaksub")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        **versions,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "weaksub", "cli.py")):
        raise BenchError(f"no weaksub sources under {SRC}; run from a source checkout")
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = build_plan(workload, seed, work, smoke=smoke)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        # One untimed start writes the bytecode caches, as an installed
        # package would have them.  The timed starts are split around the
        # workload, so they sample more than one moment of a shared host.
        measure_setup(1)
        setup = measure_setup(SETUP_REPEATS)
        if not trace:
            result = run_worker(plan_path, seconds, os.path.join(work, "result.json"), None)
            runs = [result]
        else:
            spans = os.path.join(OUT, f"spans-{tag}.json")
            plain = run_worker(plan_path, seconds / 2, os.path.join(work, "plain.json"), None)
            result = run_worker(plan_path, seconds / 2, os.path.join(work, "traced.json"), spans)
            runs = [plain, result]
        setup += measure_setup(SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "machine": machine(), "setup_s_samples": setup, "rounds": result["rounds"],
        "commands_per_round": len(plan["round"]), "per_kind": _per_kind(result["records"]),
        "commands": [{"kind": r[0], "ok": r[1], "wall_s": r[2], "cpu_s": r[3]} for r in result["records"]],
        "errors": [e for r in runs for e in r["errors"]],
    }
    if not trace:
        record.update(end_to_end(result, setup))
        metrics = {k: record["metrics"][k] for k in GATED}
    else:
        metrics = dict(result["layers"], **{"trace.overhead": trace_overhead(plain, result)})
        record.update(layers=metrics, untraced=end_to_end(plain, setup), spans_file=spans)
    failed = sum(not rec[1] for r in runs for rec in r["records"])
    record["summary"] = {
        "correct": failed == 0 and not any(r["warmup_failed"] for r in runs),
        "attempted": sum(len(r["records"]) for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or LAYER_UNITS[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def trace_overhead(plain: dict, traced: dict) -> float:
    """Traced op_p50_s over untraced op_p50_s, minus 1, on the commands of
    the round that both runs made."""
    common = {r[4] for r in plain["records"]} & {r[4] for r in traced["records"]}
    p50 = [statistics.median(r[2] for r in run["records"] if r[4] in common) for run in (traced, plain)]
    return p50[0] / p50[1] - 1


def _per_kind(records) -> dict:
    kinds = {}
    for kind, ok, wall, cpu, index in records:
        kinds.setdefault(kind, []).append(wall)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in kinds.items()}


def report(record: dict) -> None:
    """Human-readable lines; the JSON summary is printed last by ``main``."""
    m = record["machine"]
    print(f"# weaksub benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={int(record['trace'])}")
    print(f"# machine: python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, commit {m['commit']}, src {m['src_sha256']}")
    print(f"# rounds {record['rounds']} x {record['commands_per_round']} commands")
    if not record["trace"]:
        for name, value in record["metrics"].items():
            print(f"{name:<18} {value:>14.6g} {UNITS[name]}")
        t = record["op_tail"]
        print(f"# op_tail_s is p{t['percentile']:.1f} of {t['samples']} commands "
              f"({t['samples_beyond']} beyond)")
    else:
        for name, value in record["layers"].items():
            print(f"{name:<26} {value:>14.6g} {LAYER_UNITS[name]}")
    for kind, s in record["per_kind"].items():
        print(f"# {kind:<22} n={s['n']:<4} p50={s['p50_s']:.4f} s")
    for e in record["errors"]:
        print(f"# FAILED {e['kind']}: {e['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
