"""The names the benchmark's tracer (``perfbench/tracing.py``) patches.

The tracer wraps these callables from outside the package, so a renamed
name or a new call shape would otherwise show only in a traced benchmark
run.  Each wrapper below takes exactly the arguments the tracer's does and
reads the same result fields, and the CLI commands the benchmark runs must
reach every one of them.
"""

import json
from collections import Counter

import pytest

from weaksub import bounds, cli, core, instances, matroid, zoo
from weaksub.cli import main

CHECKER_NAMES = ["monotone", "normalized_nonnegative", "submodular", "weakly_submodular"]
SOLVER_NAMES = [
    "brute_force_cardinality",
    "brute_force_matroid",
    "greedy_cardinality",
    "local_search_matroid",
]


@pytest.fixture
def reached(monkeypatch):
    """Patch every traced name as the tracer does; count what is reached."""
    seen = Counter()
    SetFunction = core.SetFunction
    value, init = SetFunction.value, SetFunction.__init__
    is_independent_mask = matroid.Matroid.is_independent_mask

    def counted_value(self, mask):
        seen["SetFunction.value"] += 1
        return value(self, mask)

    def counted_evaluator(evaluator):
        def counted(mask):
            seen["evaluator"] += 1
            return evaluator(mask)

        return counted

    def traced_init(self, ground, evaluator, **kwargs):
        seen["SetFunction.__init__"] += 1
        init(self, ground, counted_evaluator(evaluator), **kwargs)

    def counted_independence(self, mask):
        seen["Matroid.is_independent_mask"] += 1
        return is_independent_mask(self, mask)

    def spanned(key, fn, field=None):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if field is not None:
                getattr(result, field)
            seen[key] += 1
            return result

        return traced

    monkeypatch.setattr(SetFunction, "value", counted_value)
    monkeypatch.setattr(SetFunction, "__init__", traced_init)
    monkeypatch.setattr(matroid.Matroid, "is_independent_mask", counted_independence)
    monkeypatch.setattr(
        SetFunction, "all_values", spanned("SetFunction.all_values", SetFunction.all_values)
    )
    monkeypatch.setattr(instances, "parse_json", spanned("parse_json", instances.parse_json))
    monkeypatch.setattr(
        instances.Instance, "__init__", spanned("Instance.__init__", instances.Instance.__init__)
    )
    assert sorted(core.CHECKERS) == CHECKER_NAMES
    for name in CHECKER_NAMES:
        monkeypatch.setitem(
            core.CHECKERS, name, spanned(f"check.{name}", core.CHECKERS[name], "pairs_checked")
        )
    fields = {"local_search_matroid": "iterations", "greedy_cardinality": None}
    for name in SOLVER_NAMES:
        traced = spanned(f"cli.{name}", getattr(cli, name), fields.get(name, "enumerated"))
        monkeypatch.setattr(cli, name, traced)
    for name in ("random_metric", "random_segmentation", "random_coverage"):
        monkeypatch.setattr(zoo, name, spanned(f"zoo.{name}", getattr(zoo, name)))
    for name in ("greedy_ratio_table", "ls_bound_table"):
        monkeypatch.setattr(bounds, name, spanned(f"bounds.{name}", getattr(bounds, name), "rows"))
    return seen


def _dispersion_file(tmp_path, constraint):
    doc = {
        "function": {
            "type": "dispersion",
            "params": {"distances": [[0, 2, 1, 2], [2, 0, 2, 1], [1, 2, 0, 2], [2, 1, 2, 0]]},
        },
        "constraint": constraint,
    }
    path = tmp_path / f"{constraint['type']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_benchmark_commands_reach_every_patched_name(reached, tmp_path, capsys):
    cardinality = _dispersion_file(tmp_path, {"type": "cardinality", "p": 2})
    uniform = _dispersion_file(tmp_path, {"type": "uniform", "rank": 2})
    commands = [["check", cardinality, "--property", name] for name in CHECKER_NAMES]
    commands += [
        ["maximize", cardinality, "--algorithm", "greedy", "--compare", "exact"],
        ["maximize", uniform, "--algorithm", "local", "--compare", "exact"],
        ["bounds", "greedy", "--range", "2..4"],
        ["bounds", "local", "--range", "2..4", "--exact"],
    ]
    for suite in ("dispersion", "segmentation", "combination"):
        for algorithm, flag in (("greedy", "--p"), ("local", "--rank")):
            commands.append(
                ["bench", suite, "--algorithm", algorithm, "--n", "5", flag, "2", "--count", "1"]
            )
    for argv in commands:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    expected = {
        "SetFunction.value",
        "SetFunction.__init__",
        "SetFunction.all_values",
        "evaluator",
        "Matroid.is_independent_mask",
        "parse_json",
        "Instance.__init__",
        *(f"check.{name}" for name in CHECKER_NAMES),
        *(f"cli.{name}" for name in SOLVER_NAMES),
        "zoo.random_metric",
        "zoo.random_segmentation",
        "zoo.random_coverage",
        "bounds.greedy_ratio_table",
        "bounds.ls_bound_table",
    }
    assert sorted(expected - set(reached)) == []
