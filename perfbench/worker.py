"""One workload in one fresh, single-threaded process: a closed loop of CLI commands.

    python perfbench/worker.py --plan PLAN --seconds S --out RESULT [--trace SPANS]

One client: each command goes through ``weaksub.cli.main(argv)`` in-process
with stdout captured, and the next starts only after the previous one has
returned and its output has been checked.  The plan's round is replayed
in whole units for about ``--seconds``.  Only the ``main`` call is timed; output
checks and a ``gc.collect()`` run between commands, so no command pays for
the garbage of the one before.  The result, and with ``--trace`` the spans,
are written as JSON once the loop ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

from weaksub import cli

from verify import Verifier

def run_command(argv: list[str], tracer=None):
    """(exit code or None if it raised, stdout, wall s, cpu s, error text)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.begin("cli.command") if tracer else None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            failure = traceback.format_exc(limit=3)
        t1, cpu1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end(span)
    return code, out.getvalue(), t1 - t0, cpu1 - cpu0, failure or err.getvalue()


def closed_loop(plan: dict, seconds: float, tracer=None) -> dict:
    """Replay the plan's round in whole units for about ``seconds``.

    A unit is ``plan["unit"]`` commands, or a whole round when traced, so
    counts per round are exact.  Every unit holds each command kind in the
    same proportion, so the median and the tail always fall on the same
    kinds.  A unit starts only if it is expected to end by ``seconds``
    (judged by the units before it), so a slow host shortens a run's
    command count, not stretches its duration.  At least one unit runs.
    """
    verifier = Verifier()
    errors = []

    def attempt(cmd):
        code, stdout, wall, cpu, err = run_command(cmd["argv"], tracer)
        reason = verifier.check(cmd["expect"], code, stdout)
        if reason is not None and len(errors) < 5:
            errors.append({"kind": cmd["kind"], "argv": cmd["argv"], "reason": reason, "stderr": err[-500:]})
        return reason is None, wall, cpu, len(stdout.encode())

    warmup_failed = sum(not attempt(cmd)[0] for cmd in plan["warmup"])
    if tracer:
        tracer.reset()

    commands = plan["round"]
    unit = len(commands) if tracer else plan["unit"]
    records = []  # (kind, ok, wall s, cpu s, index in the round)
    output_bytes = 0
    started = time.perf_counter()
    elapsed = units = 0
    while units == 0 or elapsed + elapsed / units <= seconds:
        for _ in range(unit):
            i = len(records) % len(commands)
            if tracer:
                tracer.command = len(records)
            ok, wall, cpu, nbytes = attempt(commands[i])
            records.append((commands[i]["kind"], ok, wall, cpu, i))
            output_bytes += nbytes
        units += 1
        elapsed = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rounds": len(records) / len(commands),
        "records": records,
        "output_bytes": output_bytes,
        "warmup_failed": warmup_failed,
        "errors": errors,
        "loop_s": time.perf_counter() - started,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = closed_loop(plan, args.seconds, tracer)
    if tracer:
        from tracing import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(
            tracer.spans, tracer.counters(), round(result["rounds"]), result["output_bytes"]
        )
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command",
                                  "oracle_calls", "evaluator_calls", "indep_calls", "extra"],
                       "counters": tracer.counters(), "spans": tracer.spans}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
