"""Batch command-line front end.

Commands: ``check``, ``maximize``, ``bounds``, ``counterexamples``, ``bench``.
JSON in, JSON (or CSV for tabular results) out; no interactive mode.  Exit
codes: 0 success / property holds, 1 property violation or unreproduced
counterexample, 2 usage, schema, or cap errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__, bounds, zoo
from .core import (
    CHECKERS,
    CapExceeded,
    CheckReport,
    Subset,
    ViolationWitness,
    cardinality_profile,
    check_cardinality_family,
    weak_submodularity_sides,
)
from .instances import Instance, SchemaError, load_instance
from .matroid import Matroid, random_partition_matroid
from .solve import (
    OptResult,
    SolveResult,
    brute_force_cardinality,
    brute_force_matroid,
    greedy_cardinality,
    local_search_matroid,
)


def _plain(v):
    """JSON-safe value: exact rationals render as 'p/q' strings."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def _subset_json(s: Subset | None):
    return None if s is None else list(s.labels())


def _witness_json(w: ViolationWitness | None):
    if w is None:
        return None
    out = {
        "kind": w.kind.value,
        "S": _subset_json(w.S),
        "T": _subset_json(w.T),
        "lhs": _plain(w.lhs),
        "rhs": _plain(w.rhs),
    }
    if w.triple is not None:
        out["triple"] = list(w.triple)
    return out


def _check_json(r: CheckReport):
    return {
        "property": r.property.value,
        "mode": r.mode,
        "pairs_checked": r.pairs_checked,
        "passed": r.passed,
        "witness": _witness_json(r.witness),
        "samples": r.samples,
        "seed": r.seed,
    }


def _solve_json(r: SolveResult):
    return {
        "selected": _subset_json(r.selected),
        "value": _plain(r.value),
        "iterations": r.iterations,
        "trace": [[step, move, _plain(v)] for step, move, v in r.trace],
        "certificate": r.certificate,
    }


def _opt_json(r: OptResult):
    return {
        "optimum": _subset_json(r.optimum),
        "value": _plain(r.value),
        "enumerated": r.enumerated,
    }


def _emit(args, result, started: float) -> None:
    report = {
        "command": list(args.argv),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _cmd_check(args) -> int:
    started = time.perf_counter()
    instance = load_instance(args.instance)
    checker = CHECKERS[args.property]
    opts = instance.options
    mode = args.mode or opts.get("mode", "exhaustive")
    samples = args.samples if args.samples is not None else opts.get("samples")
    seed = args.seed if args.seed is not None else opts.get("seed")
    report = checker(
        instance.function, mode, samples=samples, seed=seed, jobs=args.jobs
    )
    _emit(args, _check_json(report), started)
    return 0 if report.passed else 1


def _cmd_maximize(args) -> int:
    started = time.perf_counter()
    instance = load_instance(args.instance)
    f = instance.function
    p = instance.cardinality_p

    if args.algorithm == "greedy":
        if p is None:
            raise SchemaError("greedy requires a cardinality (or uniform) constraint")
        res = greedy_cardinality(f, p)
        result = {"algorithm": "greedy", "solve": _solve_json(res)}
    elif args.algorithm == "local":
        epsilon = args.epsilon if args.epsilon is not None else instance.options.get("epsilon", 0)
        res = local_search_matroid(f, instance.matroid(), epsilon=epsilon)
        result = {"algorithm": "local", "solve": _solve_json(res)}
    else:
        opt = _exact_optimum(instance)
        _emit(args, {"algorithm": "exact", "optimum": _opt_json(opt)}, started)
        return 0

    if args.compare == "exact":
        opt = _exact_optimum(instance)
        ratio = _ratio(opt.value, res.value)
        result["compare"] = {"optimum": _opt_json(opt), "ratio": _plain(ratio)}
    _emit(args, result, started)
    return 0


def _exact_optimum(instance: Instance) -> OptResult:
    p = instance.cardinality_p
    if p is not None:
        return brute_force_cardinality(instance.function, p)
    return brute_force_matroid(instance.function, instance.matroid())


def _ratio(opt_value, alg_value):
    if alg_value == 0:
        return 1 if opt_value == 0 else None
    if isinstance(opt_value, float) or isinstance(alg_value, float):
        return opt_value / alg_value
    return Fraction(opt_value) / Fraction(alg_value)


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    single = int(text)
    return range(single, single + 1)


def _cmd_bounds(args) -> int:
    started = time.perf_counter()
    params = _parse_range(args.range)
    if len(params) == 0:
        raise SchemaError(f"empty range {args.range!r}")
    maker = bounds.greedy_ratio_table if args.kind == "greedy" else bounds.ls_bound_table
    table = maker(params, exact=args.exact)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    _emit(args, table.to_json_obj(), started)
    return 0


def _counterexample_fixtures():
    """The fixed violation suite with its expected integer sides."""
    cut = zoo.max_cut(zoo.star_counterexample(3))
    g = cut.ground
    spokes = Subset.from_indices(g, (0, 1, 2))
    yield (
        "max_cut_star_n3",
        "two-hub unit gadget, around-the-hubs pair",
        lambda: weak_submodularity_sides(
            cut, spokes | Subset.from_indices(g, (3,)), spokes | Subset.from_indices(g, (4,))
        ),
        (24, 30),
    )

    thr = zoo.threshold(3, 1, 5)
    yield (
        "threshold_k3",
        "two below-threshold sets sharing one element",
        lambda: weak_submodularity_sides(
            thr,
            Subset.from_indices(thr.ground, (0, 2)),
            Subset.from_indices(thr.ground, (1, 2)),
        ),
        (0, 1),
    )

    prof = cardinality_profile(4)
    a, b, c = 4, 4, 1
    yield (
        "cardinality_power_4",
        "|S|^4 profile at the split (4, 4, 1)",
        lambda: (
            (b + c) * prof(a + c) + (a + c) * prof(b + c),
            c * prof(a + b + c) + (a + b + c) * prof(c),
        ),
        (6250, 6570),
    )

    pair = zoo.supermodular_pair(1)
    yield (
        "supermodular_pair",
        "both partners split across the pair",
        lambda: weak_submodularity_sides(
            pair,
            Subset.from_labels(pair.ground, ("a1", "b")),
            Subset.from_labels(pair.ground, ("a2", "b")),
        ),
        (0, 1),
    )


def _cmd_counterexamples(args) -> int:
    started = time.perf_counter()
    rows = []
    all_ok = True
    for name, description, sides, expected in _counterexample_fixtures():
        lhs, rhs = sides()
        ok = (lhs, rhs) == expected and lhs < rhs
        all_ok &= ok
        rows.append(
            {
                "name": name,
                "description": description,
                "lhs": _plain(lhs),
                "rhs": _plain(rhs),
                "expected_lhs": expected[0],
                "expected_rhs": expected[1],
                "violation_reproduced": ok,
            }
        )
    _emit(args, {"counterexamples": rows, "all_reproduced": all_ok}, started)
    return 0 if all_ok else 1


def _bench_function(suite: str, n: int, seed: int):
    if suite == "dispersion":
        return zoo.metric_dispersion(zoo.random_metric(n, seed))
    if suite == "segmentation":
        return zoo.segmentation(zoo.random_segmentation(n, n, seed))
    quality = zoo.random_coverage(n, seed)
    return zoo.msd_objective(quality, zoo.random_metric(n, seed + 1))


def _bench_one(suite: str, algorithm: str, n: int, param: int, matroid_kind: str, seed: int):
    f = _bench_function(suite, n, seed)
    if algorithm == "greedy":
        alg = greedy_cardinality(f, param)
        opt = brute_force_cardinality(f, param)
    else:
        if matroid_kind == "uniform":
            matroid = Matroid.uniform(f.ground, param)
        else:
            matroid = random_partition_matroid(n, param, seed + 7)
        alg = local_search_matroid(f, matroid, epsilon=0)
        opt = brute_force_matroid(f, matroid)
    return {
        "seed": seed,
        "alg_value": _plain(alg.value),
        "opt_value": _plain(opt.value),
        "ratio": _plain(_ratio(opt.value, alg.value)),
    }


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    flag, param = ("--p", args.p) if args.algorithm == "greedy" else ("--rank", args.rank)
    if param is None:
        param = 3
    if args.count < 1:
        raise SchemaError(f"--count must be at least 1, got {args.count}")
    if param < 2:
        raise SchemaError(f"{flag} must be at least 2 for the ratio bound, got {param}")
    if param > args.n:
        raise SchemaError("constraint parameter exceeds instance size")
    seeds = [args.seed * 1_000_003 + i for i in range(args.count)]
    rows = [
        _bench_one(args.suite, args.algorithm, args.n, param, args.matroid, seed)
        for seed in seeds
    ]

    ratios = [float(Fraction(r["ratio"])) if isinstance(r["ratio"], str) else r["ratio"] for r in rows]
    bound = (
        bounds.greedy_ratio(param) if args.algorithm == "greedy" else bounds.ls_bound(param)
    )
    summary = {
        "suite": args.suite,
        "algorithm": args.algorithm,
        "count": args.count,
        "n": args.n,
        "param": param,
        "max_ratio": max(ratios),
        "bound": bound,
        "within_bound": max(ratios) <= bound,
    }
    if args.format == "csv":
        sys.stdout.write("index,seed,opt_value,alg_value,ratio\n")
        for i, r in enumerate(rows):
            sys.stdout.write(
                f"{i},{r['seed']},{r['opt_value']},{r['alg_value']},{r['ratio']}\n"
            )
        return 0
    _emit(args, {"instances": rows, "summary": summary}, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaksub",
        description="Check, maximize, and tabulate bounds for weakly submodular set functions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="run a property checker on an instance")
    p_check.add_argument("instance")
    p_check.add_argument("--property", choices=sorted(CHECKERS), default="weakly_submodular")
    p_check.add_argument("--mode", choices=["exhaustive", "sampled"], default=None)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--jobs", type=int, default=1, help="accepted; has no effect on checkers")
    p_check.add_argument("--format", choices=["json"], default="json")
    p_check.set_defaults(func=_cmd_check)

    p_max = sub.add_parser("maximize", help="run greedy, local search, or exact enumeration")
    p_max.add_argument("instance")
    p_max.add_argument("--algorithm", choices=["greedy", "local", "exact"], required=True)
    p_max.add_argument("--compare", choices=["exact"], default=None)
    p_max.add_argument("--epsilon", type=Fraction, default=None)
    p_max.add_argument("--format", choices=["json"], default="json")
    p_max.set_defaults(func=_cmd_maximize)

    p_bounds = sub.add_parser("bounds", help="tabulate approximation-ratio bounds")
    p_bounds.add_argument("kind", choices=["greedy", "local"])
    p_bounds.add_argument("--range", required=True, help="A..B or a single parameter")
    p_bounds.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p_bounds.add_argument("--format", choices=["json", "csv"], default="json")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cex = sub.add_parser(
        "counterexamples", help="replay the fixed violation suite with expected integers"
    )
    p_cex.add_argument("--format", choices=["json"], default="json")
    p_cex.set_defaults(func=_cmd_counterexamples)

    p_bench = sub.add_parser("bench", help="seeded random instances vs the exact oracle")
    p_bench.add_argument("suite", choices=["dispersion", "segmentation", "combination"])
    p_bench.add_argument("--algorithm", choices=["greedy", "local"], default="greedy")
    p_bench.add_argument("--count", type=int, default=100)
    p_bench.add_argument("--n", type=int, default=8)
    p_bench.add_argument("--p", type=int, default=None, help="cardinality for greedy")
    p_bench.add_argument("--rank", type=int, default=None, help="matroid rank for local")
    p_bench.add_argument("--matroid", choices=["uniform", "partition"], default="uniform")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p_bench.add_argument("--format", choices=["json", "csv"], default="json")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that contract
        return int(exc.code or 0)
    args.argv = argv
    try:
        return args.func(args)
    except (SchemaError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
