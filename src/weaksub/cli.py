"""Batch command-line front end.

Commands: ``check``, ``maximize``, ``bounds``, ``counterexamples``, ``bench``.
JSON in, JSON (or CSV for tabular results) out; no interactive mode.  Exit
codes: 0 success / property holds, 1 property violation or unreproduced
counterexample, 2 usage, schema, or cap errors.

Each ``_cmd_*`` function returns ``(exit_code, result)``: a library result
(``CheckReport``, ``SolveResult``, ``OptResult``), a dict holding such
results, or None when the command wrote CSV itself.  ``main`` renders every
JSON report: it wraps the result in the ``command``/``version``/
``wall_time_s``/``result`` envelope and renders it with one ``json.dumps``
whose ``_json_default`` is the only rendering rule.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__, bounds, zoo
from .core import (
    CHECKERS,
    Subset,
    ViolationWitness,
    require_exhaustive_size,
    weak_submodularity_sides,
)
from .instances import Instance, SchemaError, load_instance, read_document, size_params
from .matroid import Matroid, random_partition_matroid, require_basis_enumeration_size
from .solve import (
    OptResult,
    brute_force_cardinality,
    brute_force_matroid,
    greedy_cardinality,
    local_search_matroid,
    require_brute_force_size,
)


def _json_default(obj):
    """Render a report value that ``json`` cannot encode by itself.

    An exact rational becomes an int when integral and a ``"p/q"`` string
    otherwise; a subset becomes its label list; a dataclass becomes its
    fields in declaration order (a witness without a triple leaves it out).
    """
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, Subset):
        return list(obj.labels())
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, ViolationWitness) and obj.triple is None:
            del fields["triple"]
        return fields
    return str(obj)


def _cmd_check(args):
    doc = read_document(args.instance)
    opts = doc.get("options", {}) if isinstance(doc, dict) else None
    # A document that builds has a dict of options, so this is its mode.
    mode = args.mode or (opts.get("mode", "exhaustive") if isinstance(opts, dict) else None)
    if mode == "exhaustive":
        # A declared count, else a size param, sets n: refuse one above the
        # checker's cap before the ground set or any builder is allocated.
        for n in size_params(doc):
            require_exhaustive_size(args.property, n)
    instance = Instance(doc)
    checker = CHECKERS[args.property]
    opts = instance.options
    samples = args.samples if args.samples is not None else opts.get("samples")
    seed = args.seed if args.seed is not None else opts.get("seed")
    report = checker(
        instance.function, mode, samples=samples, seed=seed, jobs=args.jobs
    )
    return (0 if report.passed else 1), report


def _cmd_maximize(args):
    instance = load_instance(args.instance)
    f = instance.function
    p = instance.cardinality_p

    if args.algorithm == "greedy":
        if p is None:
            raise SchemaError("greedy requires a cardinality (or uniform) constraint")
        res = greedy_cardinality(f, p)
    elif args.algorithm == "local":
        epsilon = args.epsilon if args.epsilon is not None else instance.options.get("epsilon", 0)
        res = local_search_matroid(f, instance.matroid(), epsilon=epsilon)
    else:
        return 0, {"algorithm": "exact", "optimum": _exact_optimum(instance)}

    result = {"algorithm": args.algorithm, "solve": res}
    if args.compare == "exact":
        opt = _exact_optimum(instance)
        result["compare"] = {"optimum": opt, "ratio": _ratio(opt.value, res.value)}
    return 0, result


def _exact_optimum(instance: Instance) -> OptResult:
    p = instance.cardinality_p
    if p is not None:
        return brute_force_cardinality(instance.function, p)
    return brute_force_matroid(instance.function, instance.matroid())


def _ratio(opt_value, alg_value):
    """opt/alg as an exact rational: instance files and ``bench`` give exact values."""
    if alg_value == 0:
        return 1 if opt_value == 0 else None
    return Fraction(opt_value) / Fraction(alg_value)


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    single = int(text)
    return range(single, single + 1)


def _cmd_bounds(args):
    params = _parse_range(args.range)
    if len(params) == 0:
        raise SchemaError(f"empty range {args.range!r}")
    maker = bounds.greedy_ratio_table if args.kind == "greedy" else bounds.ls_bound_table
    table = maker(params, exact=args.exact)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0, None
    return 0, table.to_json_obj()


def _counterexample_fixtures():
    """The fixed violation suite: (name, description, f, S, T, expected integer sides)."""
    cut = zoo.max_cut(zoo.star_counterexample(3))
    thr = zoo.threshold(3, 1, 5)
    quartic = zoo.raw_cardinality_profile(4, 9)
    pair = zoo.supermodular_pair(1)
    subset = Subset.from_labels
    return (
        (
            "max_cut_star_n3",
            "two-hub unit gadget, around-the-hubs pair",
            cut,
            subset(cut.ground, (0, 1, 2, 3)),
            subset(cut.ground, (0, 1, 2, 4)),
            (24, 30),
        ),
        (
            "threshold_k3",
            "two below-threshold sets sharing one element",
            thr,
            subset(thr.ground, (0, 2)),
            subset(thr.ground, (1, 2)),
            (0, 1),
        ),
        (
            "cardinality_power_4",
            "|S|^4 profile at the split (4, 4, 1)",
            quartic,
            subset(quartic.ground, range(5)),
            subset(quartic.ground, range(4, 9)),
            (6250, 6570),
        ),
        (
            "supermodular_pair",
            "both partners split across the pair",
            pair,
            subset(pair.ground, ("a1", "b")),
            subset(pair.ground, ("a2", "b")),
            (0, 1),
        ),
    )


def _cmd_counterexamples(args):
    rows = []
    all_ok = True
    for name, description, f, S, T, expected in _counterexample_fixtures():
        lhs, rhs = weak_submodularity_sides(f, S, T)
        ok = (lhs, rhs) == expected and lhs < rhs
        all_ok &= ok
        rows.append(
            {
                "name": name,
                "description": description,
                "lhs": lhs,
                "rhs": rhs,
                "expected_lhs": expected[0],
                "expected_rhs": expected[1],
                "violation_reproduced": ok,
            }
        )
    return (0 if all_ok else 1), {"counterexamples": rows, "all_reproduced": all_ok}


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
        "alg_value": alg.value,
        "opt_value": opt.value,
        "ratio": _ratio(opt.value, alg.value),
    }


def _cmd_bench(args):
    flag, param = ("--p", args.p) if args.algorithm == "greedy" else ("--rank", args.rank)
    if param is None:
        param = 3
    if args.count < 1:
        raise SchemaError(f"--count must be at least 1, got {args.count}")
    if param < 2:
        raise SchemaError(f"{flag} must be at least 2 for the ratio bound, got {param}")
    if param > args.n:
        raise SchemaError("constraint parameter exceeds instance size")
    # Refuse an n above the exact oracle's cap before any instance is built.
    if args.algorithm == "greedy":
        require_brute_force_size(args.n)
    else:
        require_basis_enumeration_size(args.n)
    seeds = [args.seed * 1_000_003 + i for i in range(args.count)]
    rows = [
        _bench_one(args.suite, args.algorithm, args.n, param, args.matroid, seed)
        for seed in seeds
    ]

    top = max(r["ratio"] for r in rows)
    if isinstance(top, Fraction):  # the summary gives a number, an int when integral
        top = int(top) if top.denominator == 1 else float(top)
    bound = (
        bounds.greedy_ratio(param) if args.algorithm == "greedy" else bounds.ls_bound(param)
    )
    summary = {
        "suite": args.suite,
        "algorithm": args.algorithm,
        "count": args.count,
        "n": args.n,
        "param": param,
        "max_ratio": top,
        "bound": bound,
        "within_bound": top <= bound,
    }
    if args.format == "csv":
        sys.stdout.write("index,seed,opt_value,alg_value,ratio\n")
        for i, r in enumerate(rows):
            sys.stdout.write(
                f"{i},{r['seed']},{r['opt_value']},{r['alg_value']},{r['ratio']}\n"
            )
        return 0, None
    return 0, {"instances": rows, "summary": summary}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call;
    parsing leaves it unchanged, and callers must not change it."""
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that contract
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        code, result = args.func(args)
        if result is not None:
            report = {
                "command": argv,
                "version": __version__,
                "wall_time_s": round(time.perf_counter() - started, 6),
                "result": result,
            }
            # Rendered whole before writing, so a value that cannot be
            # rendered exits 2 with nothing on stdout.
            sys.stdout.write(json.dumps(report, indent=2, default=_json_default) + "\n")
        return code
    except (ValueError, OSError) as exc:  # includes SchemaError, CapExceeded, InconsistentOracle
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
