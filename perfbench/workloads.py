"""Seeded inputs for the four benchmark workloads.

``build_plan(workload, seed, workdir)`` writes the workload's instance files
into ``workdir`` and returns its plan: a warm-up list and one *round* of CLI
commands.  The timed loops replay the round; a traced run replays whole
rounds only, so its per-round counts repeat exactly.  The program under test only ever
sees the instance files and the argv; the seed stays on this side.

Each command carries an ``expect`` record for ``verify.py``: what the output
must satisfy, derived from how the input was built, never from running the
program.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from random import Random

# The workloads listed in BENCHMARK.json, which the gated runs use.
WORKLOADS = ("check", "sweep")
# Runnable by name but not gated: the whole benchmark must fit a fixed time,
# and runs long enough to be steady on a shared 2-vCPU host leave room for
# two workloads only.
EXTRA_WORKLOADS = ("maximize",)

# Why each workload exists and which input properties it varies.
WHY = {
    "check": (
        "weak-submodularity scans: int dispersion n=10 and Fraction n=8 that pass, "
        "threshold k=3 and max-cut star that fail early, monotone n=14"
    ),
    "sweep": (
        "bench greedy/local vs brute force at n=14-16 and bound tables: generation, "
        "write-once brute force, matroids and the bounds layer; no instance files"
    ),
    "maximize": (
        "greedy and local search on int dispersion n=200, uniform and partition rank 20: "
        "parsing, O(n^3) validation and oracle re-reads, no checker"
    ),
}

# Full and smoke sizes.
SIZES = {
    "full": {
        "ws_int": (10, 10, 10, 10),
        "ws_frac": (8, 8),
        "threshold_n": 10,
        "star_spokes": 8,
        "monotone_n": 14,
        "max_n": 200,
        "max_rank": 20,
        "max_instances": 8,
        # (n, p or rank, count) per suite and algorithm.  The counts give every
        # command about the same run time, so no one suite sets the median,
        # and make each command long enough (about 0.5 s) that a run's tail
        # percentile is not set by a few short stalls of the host.
        "sweep": {
            ("dispersion", "greedy"): (14, 5, 40),
            ("dispersion", "local"): (16, 6, 35),
            ("segmentation", "greedy"): (14, 5, 10),
            ("segmentation", "local"): (16, 6, 25),
            ("combination", "greedy"): (14, 5, 15),
            ("combination", "local"): (16, 6, 30),
        },
        # Range ends chosen so the three long tables take about as long as
        # a bench command; the exact greedy table cannot go past p=57.
        "greedy_exact_end": 56,
        "local_exact_end": 136,
        "greedy_float_end": 1560,
        "local_float_end": 1220,
    },
    "smoke": {
        "ws_int": (5, 5, 6, 6),
        "ws_frac": (4, 4),
        "threshold_n": 6,
        "star_spokes": 3,
        "monotone_n": 6,
        "max_n": 14,
        "max_rank": 3,
        "max_instances": 1,
        "sweep": {
            (suite, algorithm): (7, 3, 2)
            for suite in ("dispersion", "segmentation", "combination")
            for algorithm in ("greedy", "local")
        },
        "greedy_exact_end": 12,
        "local_exact_end": 12,
        "greedy_float_end": 40,
        "local_float_end": 40,
    },
}


def _num(v: Fraction):
    """JSON number for an exact value: ints stay ints, quarters are exact decimals."""
    return int(v) if v.denominator == 1 else float(v)


def metric_matrix(n: int, rng: Random, *, quarters: bool = False) -> list[list]:
    """Random symmetric distances in [lo, 2*lo], so the triangle inequality
    holds for every triple without a shortest-path pass.

    Integer mode draws from 5..10.  ``quarters`` draws multiples of 1/4 in
    3..6, which the CLI parses into exact ``Fraction`` values.
    """
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if quarters:
                v = _num(Fraction(rng.randint(12, 24), 4))
            else:
                v = rng.randint(5, 10)
            d[i][j] = d[j][i] = v
    return d


def partition_blocks(n: int, rank: int, rng: Random) -> list[list[int]]:
    """Shuffle 0..n-1 into ``rank`` nonempty blocks."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rank - 1))
    blocks, start = [], 0
    for cut in cuts + [n]:
        blocks.append(order[start:cut])
        start = cut
    return blocks


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _dispersion(distances, constraint=None) -> dict:
    doc = {"function": {"type": "dispersion", "params": {"distances": distances}}}
    if constraint is not None:
        doc["constraint"] = constraint
    return doc


def _check_plan(rng: Random, w: _Writer, size: dict) -> list[dict]:
    def check(kind, path, prop, passed, n):
        argv = ["check", path, "--jobs", "1"]
        if prop != "weakly_submodular":
            argv += ["--property", prop]
        return {
            "kind": kind,
            "argv": argv,
            "expect": {"type": "check", "instance": path, "property": prop, "passed": passed, "n": n},
        }

    cmds = []
    for i, n in enumerate(size["ws_int"]):
        path = w.write(f"ws_int_{i}", _dispersion(metric_matrix(n, rng)))
        cmds.append(check(f"ws_int_n{n}", path, "weakly_submodular", True, n))
    for i, n in enumerate(size["ws_frac"]):
        path = w.write(f"ws_frac_{i}", _dispersion(metric_matrix(n, rng, quarters=True)))
        cmds.append(check(f"ws_frac_n{n}", path, "weakly_submodular", True, n))
    # Threshold functions are weakly submodular exactly up to k = 2.
    n = size["threshold_n"]
    bonus = rng.randint(1, 9)
    path = w.write(
        "threshold",
        {"ground_set": n, "function": {"type": "threshold", "params": {"k": 3, "B": bonus}}},
    )
    cmds.append(check("ws_fail_threshold", path, "weakly_submodular", False, n))
    spokes = size["star_spokes"]
    path = w.write("star", {"function": {"type": "max_cut", "params": {"star_n": spokes}}})
    cmds.append(check("ws_fail_star", path, "weakly_submodular", False, spokes + 2))
    n = size["monotone_n"]
    path = w.write("monotone", _dispersion(metric_matrix(n, rng)))
    cmds.append(check(f"monotone_n{n}", path, "monotone", True, n))
    return cmds


def _maximize_plan(rng: Random, w: _Writer, size: dict) -> list[dict]:
    n, rank = size["max_n"], size["max_rank"]
    cmds = []
    for i in range(size["max_instances"]):
        d = metric_matrix(n, rng)
        uniform = w.write(f"uniform_{i}", _dispersion(d, {"type": "uniform", "rank": rank}))
        blocks = partition_blocks(n, rank, rng)
        partition = w.write(
            f"partition_{i}",
            _dispersion(d, {"type": "partition", "blocks": blocks, "caps": [1] * rank}),
        )
        for kind, path, algorithm in (
            ("greedy_uniform", uniform, "greedy"),
            ("local_partition", partition, "local"),
            ("local_uniform", uniform, "local"),
        ):
            cmds.append(
                {
                    "kind": kind,
                    "argv": ["maximize", path, "--algorithm", algorithm],
                    "expect": {"type": "maximize", "instance": path},
                }
            )
    return cmds


def _sweep_plan(rng: Random, w: _Writer, size: dict) -> list[dict]:
    """``bench`` on each suite and algorithm, then the bound tables."""
    cmds = []
    for (suite, algorithm), (n, param, count) in size["sweep"].items():
        seed = rng.randrange(1_000_000)
        argv = ["bench", suite, "--algorithm", algorithm, "--n", str(n)]
        argv += ["--p", str(param)] if algorithm == "greedy" else [
            "--rank", str(param), "--matroid", "partition"
        ]
        argv += ["--count", str(count), "--seed", str(seed), "--jobs", "1"]
        cmds.append(
            {
                "kind": f"{suite}_{algorithm}",
                "argv": argv,
                "expect": {"type": "bench", "count": count, "param": param, "seed": seed},
            }
        )
    return cmds + _bounds_tables(rng, size)


def _bounds_tables(rng: Random, size: dict) -> list[dict]:
    def table(kind, bound_kind, lo, hi, exact):
        argv = ["bounds", bound_kind, "--range", f"{lo}..{hi}"] + (["--exact"] if exact else [])
        return {
            "kind": kind,
            "argv": argv,
            "expect": {"type": "bounds", "kind": bound_kind, "lo": lo, "hi": hi, "exact": exact},
        }

    def end(key):  # the seed pulls the far end in by up to 2%
        hi = size[key]
        return hi - rng.randrange(hi // 50 + 1)

    # Every table starts at 2 so it holds the anchors greedy_ratio(2) = 4 and
    # ls_bound(2) = 29/2.  Exact tables come first, so the float tables of the
    # same round are checked against them.
    return [
        table("greedy_exact", "greedy", 2, end("greedy_exact_end"), True),
        table("local_exact", "local", 2, end("local_exact_end"), True),
        table("greedy_float", "greedy", 2, end("greedy_float_end"), False),
        table("local_float", "local", 2, end("local_float_end"), False),
    ]


_PLANS = {
    "check": _check_plan,
    "maximize": _maximize_plan,
    "sweep": _sweep_plan,
}


def build_plan(workload: str, seed: int, workdir: str, *, smoke: bool = False) -> dict:
    """Write the instance files for ``workload`` and return its plan.

    The warm-up runs every command kind once at smoke size, so imports and
    first-call set-up finish before timing starts.
    """
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    make = _PLANS[workload]
    size = SIZES["smoke" if smoke else "full"]
    rounds = make(Random(f"{workload}:{seed}"), _Writer(workdir), size)
    warmup = make(Random(f"{workload}:warmup:{seed}"), _Writer(os.path.join(workdir, "warmup")), SIZES["smoke"])
    # The untraced loop runs whole units: a whole round, or for maximize the
    # three commands on one matrix, so the mix of commands stays balanced.
    unit = 3 if workload == "maximize" else len(rounds)
    return {"workload": workload, "seed": seed, "smoke": smoke, "round": rounds, "unit": unit,
            "warmup": warmup}
