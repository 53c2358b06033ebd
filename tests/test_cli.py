import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import weaksub
from weaksub import cli, core, zoo
from weaksub import matroid as matroid_module
from weaksub.bounds import greedy_ratio, ls_bound
from weaksub.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class _Sized:
    """A stand-in function with only a ground set of n elements, enough for
    a checker to refuse it by size."""

    def __init__(self, n):
        self.ground = core.GroundSet.of_size(n)


@pytest.fixture
def dispersion_instance(tmp_path):
    doc = {
        "function": {
            "type": "dispersion",
            "params": {
                "distances": [
                    [0, 2, 2, 1, 2, 1],
                    [2, 0, 3, 2, 1, 2],
                    [2, 3, 0, 1, 2, 2],
                    [1, 2, 1, 0, 2, 1],
                    [2, 1, 2, 2, 0, 2],
                    [1, 2, 2, 1, 2, 0],
                ]
            },
        },
        "constraint": {"type": "cardinality", "p": 3},
    }
    path = tmp_path / "dispersion.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def star_instance(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"function": {"type": "max_cut", "params": {"star_n": 3}}}))
    return str(path)


def nested_complements(depth):
    """Instance text whose function is ``depth`` nested complement specs."""
    spec = '{"type": "linear", "params": {"weights": [1, 2, 3]}}'
    for _ in range(depth):
        spec = '{"type": "complement", "params": {"function": ' + spec + "}}"
    return '{"function": ' + spec + "}"


class TestCheckCommand:
    def test_pass_exits_zero(self, capsys, dispersion_instance):
        code, report = run_json(
            capsys, "check", dispersion_instance, "--property", "weakly_submodular"
        )
        assert code == 0
        assert report["result"]["passed"] is True
        assert report["version"]

    def test_violation_exits_one_with_witness(self, capsys, star_instance):
        code, report = run_json(capsys, "check", star_instance)
        assert code == 1
        witness = report["result"]["witness"]
        assert witness["lhs"] < witness["rhs"]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _ = run_cli(capsys, "check", str(bad))
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _ = run_cli(capsys, "check", "/nonexistent/instance.json")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"function": ' + "[" * 100_000,
            nested_complements(600),
        ],
        ids=["brackets", "complements"],
    )
    def test_deeply_nested_json_exits_two(self, capsys, tmp_path, text):
        # Too deep for the JSON decoder's recursion: a schema error, not a
        # traceback under exit 1 ("property violated").
        path = tmp_path / "deep.json"
        path.write_text(text)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_sampled_mode_flags(self, capsys, dispersion_instance):
        code, report = run_json(
            capsys,
            "check",
            dispersion_instance,
            "--mode",
            "sampled",
            "--samples",
            "100",
            "--seed",
            "5",
        )
        assert code == 0
        assert report["result"]["mode"] == "sampled"
        assert report["result"]["samples"] == 100

    def test_jobs_flag_reproduces_witness(self, capsys, star_instance):
        _, solo = run_json(capsys, "check", star_instance)
        _, multi = run_json(capsys, "check", star_instance, "--jobs", "4")
        assert solo["result"] == multi["result"]

    def test_sampled_monotone_on_empty_ground_exits_zero(self, tmp_path):
        # A subprocess with a timeout, so a sampler that never ends fails the
        # test instead of hanging the run.
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps({"ground_set": 0, "function": {"type": "linear", "params": {"weights": []}}})
        )
        argv = ["check", str(path), "--property", "monotone", "--mode", "sampled"]
        env = {"PYTHONPATH": str(Path(weaksub.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "weaksub", *argv, "--samples", "3", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert (result["mode"], result["pairs_checked"], result["passed"]) == ("sampled", 0, True)

    def test_usage_error_exits_two(self, capsys, dispersion_instance):
        assert main(["check", dispersion_instance, "--property", "bogus"]) == 2

    def test_exhaustive_monotone_past_cap_exits_two(self, capsys, tmp_path):
        path = tmp_path / "linear15.json"
        path.write_text(json.dumps({"function": {"type": "linear", "params": {"weights": [1] * 15}}}))
        code = main(["check", str(path), "--property", "monotone"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "capped at n <= 14" in captured.err

    @pytest.mark.parametrize(
        "spec, size",
        [
            ({"type": "threshold", "params": {"k": 3, "B": 1, "n": 3_000_000}}, 3_000_000),
            ({"type": "cardinality_poly", "params": {"k": 2, "n": 21}}, 21),
            ({"type": "max_cut", "params": {"vertices": 3_000_000, "edges": [[0, 1, 1]]}},
             3_000_000),
            ({"type": "max_cut", "params": {"star_n": 19}}, 21),
            ({"type": "max_cut", "params": {"n": 21, "edges": []}}, 21),
            ({"type": "complement", "params": {"function": {
                "type": "threshold", "params": {"k": 1, "B": 1, "n": 40}}}}, 40),
            ({"type": "combination", "params": {"terms": [
                {"function": {"type": "threshold", "params": {"k": 1, "B": 1, "n": 5}}},
                {"function": {"type": "zero_at_top", "params": {"function": {
                    "type": "cardinality_poly", "params": {"coeffs": [0, 1], "n": 25}}}}},
            ]}}, 25),
        ],
        ids=["threshold", "cardinality_poly", "max_cut_vertices", "max_cut_star_n",
             "max_cut_n", "complement", "combination"],
    )
    @pytest.mark.parametrize(
        "prop", ["monotone", "weakly_submodular", "submodular", "normalized_nonnegative"]
    )
    def test_size_param_past_the_cap_builds_nothing(
        self, capsys, tmp_path, monkeypatch, spec, size, prop
    ):
        # The checker's own refusal, on a function of that size; every
        # size here passes every cap.
        with pytest.raises(core.CapExceeded) as info:
            core.CHECKERS[prop](zoo.linear([1] * size) if size < 100 else _Sized(size))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"function": spec}))

        def never(*args, **kwargs):
            raise AssertionError("built a function past the checker's cap")

        for name in ("threshold", "cardinality_power", "cardinality_polynomial", "Graph",
                     "max_cut", "star_counterexample"):
            monkeypatch.setattr(zoo, name, never)
        monkeypatch.setattr(core.GroundSet, "of_size", never)
        code = main(["check", str(path), "--property", prop])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {info.value}\n"

    @pytest.mark.parametrize(
        "prop", ["monotone", "weakly_submodular", "submodular", "normalized_nonnegative"]
    )
    def test_declared_count_past_the_cap_builds_nothing(self, capsys, tmp_path, monkeypatch, prop):
        # The checker's own refusal, read from a stand-in of that size.
        sized = SimpleNamespace(ground=SimpleNamespace(n=3_000_000))
        with pytest.raises(core.CapExceeded) as info:
            core.CHECKERS[prop](sized)
        path = tmp_path / "big.json"
        threshold = {"type": "threshold", "params": {"k": 3, "B": 1}}
        path.write_text(json.dumps({"ground_set": 3_000_000, "function": threshold}))

        def never(*args, **kwargs):
            raise AssertionError("built a ground set past the checker's cap")

        monkeypatch.setattr(core.GroundSet, "of_size", never)
        monkeypatch.setattr(zoo, "threshold", never)
        code = main(["check", str(path), "--property", prop])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {info.value}\n"

    def test_size_params_within_the_cap_or_sampled_or_declared_still_build(
        self, capsys, tmp_path
    ):
        def check(doc, *argv):
            path = tmp_path / "f.json"
            path.write_text(json.dumps(doc))
            code = main(["check", str(path), *argv])
            captured = capsys.readouterr()
            return code, captured.err

        star = {"type": "max_cut", "params": {"star_n": 10}}  # 12 vertices, at the cap
        assert check({"function": star})[0] == 1
        threshold = {"type": "threshold", "params": {"k": 3, "B": 1, "n": 30}}
        sampled = ["--mode", "sampled", "--samples", "5", "--seed", "1", "--property", "monotone"]
        assert check({"function": threshold}, *sampled) == (0, "")
        options = {"mode": "sampled", "samples": 5, "seed": 1}
        assert check({"function": threshold, "options": options}, "--property", "monotone") == (0, "")
        # A declared ground set is checked against the size param first, as before.
        code, err = check({"ground_set": 5, "function": threshold}, "--property", "monotone")
        assert code == 2 and "implies a ground set of size 30" in err

    def test_fractional_polynomial_coeffs_from_file(self, capsys, tmp_path):
        # The decimal 0.5 is read as Fraction(1, 2).
        path = tmp_path / "poly.json"
        path.write_text(
            '{"ground_set": 5, "function": {"type": "cardinality_poly",'
            ' "params": {"coeffs": [0, 1, 0.5]}}}'
        )
        code, report = run_json(capsys, "check", str(path))
        assert code == 0
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize(
        "params, error",
        [
            (
                {"k": 3, "B": 1, "n": 7},
                "error: 'threshold' instance implies a ground set of size 7, "
                "but the file declares size 5\n",
            ),
            ({"k": 2, "coeffs": [0, 1]}, "error: 'cardinality_poly' takes 'k' or 'coeffs', not both\n"),
        ],
        ids=["n-contradicts-ground", "k-and-coeffs"],
    )
    def test_contradicting_params_exit_two(self, capsys, tmp_path, params, error):
        kind = "threshold" if "B" in params else "cardinality_poly"
        doc = {"ground_set": 5, "function": {"type": kind, "params": params}}
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps({**doc, "constraint": {"type": "cardinality", "p": 3}}))
        for argv in (["check", str(path)], ["maximize", str(path), "--algorithm", "exact"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and captured.err == error

    def test_n_equal_to_the_declared_size_keeps_the_output(self, capsys, tmp_path):
        reports = []
        for params in ({"k": 3, "B": 1}, {"k": 3, "B": 1, "n": 5}):
            doc = {
                "ground_set": 5,
                "function": {"type": "threshold", "params": params},
                "constraint": {"type": "cardinality", "p": 3},
            }
            path = tmp_path / "threshold.json"
            path.write_text(json.dumps(doc))
            code, report = run_json(capsys, "maximize", str(path), "--algorithm", "exact")
            assert code == 0
            reports.append(report["result"])
        assert reports[0] == reports[1]
        assert reports[0]["optimum"]["enumerated"] == 26

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sampled_check_of_nothing_exits_two(self, capsys, tmp_path, samples):
        # The exhaustive scan fails this instance, so a sampled pass over no
        # pairs would report a verdict it never tested.
        path = tmp_path / "threshold.json"
        path.write_text(
            json.dumps({"ground_set": 6, "function": {"type": "threshold", "params": {"k": 3, "B": 1}}})
        )
        assert run_cli(capsys, "check", str(path))[0] == 1
        code = main(["check", str(path), "--mode", "sampled", "--samples", samples, "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "samples" in err


class TestMaximizeCommand:
    def test_greedy_with_compare(self, capsys, dispersion_instance):
        code, report = run_json(
            capsys, "maximize", dispersion_instance, "--algorithm", "greedy", "--compare", "exact"
        )
        assert code == 0
        solve = report["result"]["solve"]
        compare = report["result"]["compare"]
        assert len(solve["selected"]) == 3
        ratio = compare["ratio"]
        ratio = Fraction(ratio) if isinstance(ratio, str) else ratio
        assert 1 <= float(ratio) <= greedy_ratio(3)

    def test_local_with_compare(self, capsys, dispersion_instance):
        code, report = run_json(
            capsys, "maximize", dispersion_instance, "--algorithm", "local", "--compare", "exact"
        )
        assert code == 0
        assert report["result"]["solve"]["certificate"]["algorithm"] == "local_search_matroid"

    def test_greedy_compare_at_p_zero_reports_ratio_one(self, capsys, tmp_path):
        path = tmp_path / "p0.json"
        path.write_text(
            json.dumps(
                {
                    "function": {"type": "linear", "params": {"weights": [1, 2, 3]}},
                    "constraint": {"type": "cardinality", "p": 0},
                }
            )
        )
        code, report = run_json(
            capsys, "maximize", str(path), "--algorithm", "greedy", "--compare", "exact"
        )
        assert code == 0
        assert report["result"]["solve"]["value"] == 0
        assert report["result"]["compare"]["optimum"]["value"] == 0
        assert report["result"]["compare"]["ratio"] == 1

    def test_exact(self, capsys, dispersion_instance):
        code, report = run_json(capsys, "maximize", dispersion_instance, "--algorithm", "exact")
        assert code == 0
        assert report["result"]["optimum"]["enumerated"] > 0

    def test_greedy_requires_cardinality(self, capsys, tmp_path):
        doc = {
            "function": {"type": "linear", "params": {"weights": [1, 2, 3, 4]}},
            "constraint": {"type": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 1]},
        }
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "maximize", str(path), "--algorithm", "greedy")
        assert code == 2

    def test_unrenderable_value_exits_two_with_empty_stdout(self, capsys, tmp_path):
        # The value's denominator has more digits than str(int) allows.
        doc = {
            "function": {"type": "linear", "params": {"weights": [1, 2]}},
            "constraint": {"type": "cardinality", "p": 1},
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc).replace("[1, 2]", "[1e-5000, 2e-5000]"))
        code = main(["maximize", str(path), "--algorithm", "greedy"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_exact_over_cap_exits_two(self, capsys, tmp_path):
        doc = {
            "function": {"type": "linear", "params": {"weights": [1] * 25}},
            "constraint": {"type": "cardinality", "p": 3},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "maximize", str(path), "--algorithm", "exact")
        assert code == 2

    def test_explicit_constraint_validated_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        validate = matroid_module.validate_exchange_axiom

        def counted(matroid, *args, **kwargs):
            calls.append(matroid)
            return validate(matroid, *args, **kwargs)

        monkeypatch.setattr(matroid_module, "validate_exchange_axiom", counted)
        doc = {
            "function": {"type": "linear", "params": {"weights": [1, 2, 3, 4]}},
            "constraint": {
                "type": "explicit",
                "independent_sets": [[], [0], [1], [2], [3], [0, 2], [0, 3], [1, 2], [1, 3]],
            },
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(
            capsys, "maximize", str(path), "--algorithm", "local", "--compare", "exact"
        )
        assert code == 0
        assert report["result"]["compare"]["optimum"]["optimum"] == [1, 3]
        assert len(calls) == 1


_LINEAR = {"type": "linear", "params": {"weights": [1, 2, 3, 4]}}
_THRESHOLD = {"type": "threshold", "params": {"k": 1, "B": 1}}
_GREEDY = ("maximize", "--algorithm", "greedy")
_LOCAL = ("maximize", "--algorithm", "local")
_EXACT = ("maximize", "--algorithm", "exact")
_SAMPLED = {"mode": "sampled", "seed": 1}
_MALFORMED = [
    ("rank-fraction-greedy", {"constraint": {"type": "uniform", "rank": 2.5}}, _GREEDY),
    ("rank-fraction-local", {"constraint": {"type": "uniform", "rank": 2.5}}, _LOCAL),
    ("rank-fraction-exact", {"constraint": {"type": "uniform", "rank": 2.5}}, _EXACT),
    ("rank-fraction-check", {"constraint": {"type": "uniform", "rank": 2.5}}, ("check",)),
    ("rank-true-local", {"constraint": {"type": "uniform", "rank": True}}, _LOCAL),
    (
        "caps-fraction-local",
        {"constraint": {"type": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 1.5]}},
        _LOCAL,
    ),
    ("p-string-greedy", {"constraint": {"type": "cardinality", "p": "2"}}, _GREEDY),
    ("p-string-exact", {"constraint": {"type": "cardinality", "p": "2"}}, _EXACT),
    ("p-missing-greedy", {"constraint": {"type": "cardinality"}}, _GREEDY),
    ("p-missing-exact", {"constraint": {"type": "cardinality"}}, _EXACT),
    ("ground-negative", {"ground_set": -1, "function": _THRESHOLD}, ("check",)),
    ("ground-true", {"ground_set": True, "function": _THRESHOLD}, ("check",)),
    ("ground-unhashable", {"ground_set": [[0], [1]], "function": _THRESHOLD}, ("check",)),
    (
        "threshold-k-fraction",
        {"ground_set": 4, "function": {"type": "threshold", "params": {"k": 2.5, "B": 1}}},
        ("check",),
    ),
    (
        "cardinality-k-fraction",
        {"ground_set": 4, "function": {"type": "cardinality_poly", "params": {"k": 2.5}}},
        ("check",),
    ),
    (
        "cardinality-k-true",
        {"ground_set": 4, "function": {"type": "cardinality_poly", "params": {"k": True}}},
        ("check",),
    ),
    (
        "threshold-bonus-true",
        {
            "ground_set": 4,
            "function": {"type": "threshold", "params": {"k": 1, "B": True}},
            "constraint": {"type": "cardinality", "p": 2},
        },
        _GREEDY,
    ),
    (
        "supermodular-pair-bonus-true",
        {"function": {"type": "supermodular_pair", "params": {"B": True}}},
        ("check",),
    ),
    *(
        (f"{key}-{label}", {"function": {"type": kind, "params": {**params, key: bad}}}, ("check",))
        for key, kind, params in (
            ("n", "threshold", {"k": 1, "B": 1}),
            ("vertices", "max_cut", {"edges": []}),
            ("star_n", "max_cut", {}),
        )
        for label, bad in (("true", True), ("negative", -1), ("fraction", 2.5))
    ),
    *(
        (f"{name}-bool", {"ground_set": 2, "function": {"type": kind, "params": params}}, ("check",))
        for name, kind, params in (
            ("linear-weight", "linear", {"weights": [1, True]}),
            ("coverage-weight", "coverage", {"covers": [["a"], ["a", "b"]], "weights": {"a": True, "b": 1}}),
            ("dispersion-distance", "dispersion", {"distances": [[0, True], [True, 0]]}),
            ("segmentation-entry", "segmentation", {"matrix": [[1, True], [0, 2]]}),
            ("cardinality-coeff", "cardinality_poly", {"coeffs": [0, True]}),
            ("combination-alpha", "combination", {"terms": [{"function": _THRESHOLD, "alpha": True}]}),
            ("max-cut-weight", "max_cut", {"edges": [[0, 1, True]]}),
            ("max-cut-endpoint", "max_cut", {"edges": [[False, True, 1]]}),
        )
    ),
    *(
        (
            f"coverage-item-{name}",
            {"ground_set": 2, "function": {"type": "coverage", "params": {"covers": covers}}},
            ("check",),
        )
        for name, covers in (("true", [[1], [True]]), ("false", [[0, "a"], ["b", False]]))
    ),
    (
        "coverage-weights-list",
        {"function": {"type": "coverage", "params": {"covers": [[1], [2]], "weights": [1, 2]}}},
        ("check",),
    ),
    ("samples-string", {"options": {**_SAMPLED, "samples": "10"}}, ("check",)),
    ("samples-fraction", {"options": {**_SAMPLED, "samples": 2.5}}, ("check",)),
    (
        "epsilon-string",
        {"constraint": {"type": "uniform", "rank": 2}, "options": {"epsilon": "x"}},
        _LOCAL,
    ),
    ("params-list", {"function": {"type": "linear", "params": []}}, ("check",)),
    ("combination-no-terms", {"function": {"type": "combination", "params": {"terms": []}}}, ("check",)),
    ("constraint-list", {"constraint": [1]}, _LOCAL),
    ("options-list", {"options": []}, ("check",)),
    ("rank-above-n", {"constraint": {"type": "uniform", "rank": 5}}, _LOCAL),
    (
        "caps-negative",
        {"constraint": {"type": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, -1]}},
        _LOCAL,
    ),
    (
        "cardinality-degree-4",
        {"ground_set": 4, "function": {"type": "cardinality_poly", "params": {"coeffs": [0, 1, 1, 1, 1]}}},
        ("check",),
    ),
    # Past the axiom-validation cap of 14 elements: no reachable basis, no empty set.
    *(
        (
            f"explicit-n15-{name}",
            {
                "ground_set": 15,
                "function": {"type": "linear", "params": {"weights": [1] * 15}},
                "constraint": {"type": "explicit", "independent_sets": sets},
            },
            _LOCAL,
        )
        for name, sets in (("unreachable-basis", [[], [0], [1, 2]]), ("no-empty-set", [[0], [1, 2]]))
    ),
    # A string or an object where an array of labels belongs is refused, not
    # read as its characters or keys.
    *(
        (
            f"coverage-covers-{name}",
            {"ground_set": 2, "function": {"type": "coverage", "params": {"covers": covers}}},
            ("check",),
        )
        for name, covers in (
            ("string-entry", ["ab", ["b"]]),
            ("string", "ab"),
            ("object", {"a": ["x"], "b": ["y"]}),
        )
    ),
    *(
        (f"{name}-string", {"ground_set": list("abcd"), "constraint": constraint}, _LOCAL)
        for name, constraint in (
            ("partition-block", {"type": "partition", "blocks": ["ab", "cd"], "caps": [1, 1]}),
            ("partition-blocks", {"type": "partition", "blocks": "abcd", "caps": [1, 1, 1, 1]}),
            ("explicit-set", {"type": "explicit", "independent_sets": ["", "a", "b"]}),
            ("explicit-sets", {"type": "explicit", "independent_sets": "ab"}),
        )
    ),
    # On a positional ground, true and false are not the elements 1 and 0.
    *(
        (
            f"{name}-bool-label",
            {"function": {"type": "linear", "params": {"weights": [1, 2, 3]}}, "constraint": constraint},
            _LOCAL,
        )
        for name, constraint in (
            ("partition-block", {"type": "partition", "blocks": [[True, 0], [2]], "caps": [1, 1]}),
            (
                "explicit-set",
                {
                    "type": "explicit",
                    "independent_sets": [[], [False], [True], [2], [False, 2], [True, 2]],
                },
            ),
        )
    ),
]


@pytest.mark.parametrize(
    "fields, argv", [pytest.param(fields, argv, id=name) for name, fields, argv in _MALFORMED]
)
def test_malformed_field_exits_two(capsys, tmp_path, fields, argv):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"function": _LINEAR, **fields}))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_non_object_document_exits_two(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text("[1]")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: instance document must be a JSON object\n"
    # An exhaustive check reads no size from it, and the build refuses it.
    assert main(["check", str(path), "--mode", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance document must be a JSON object\n"


def test_boolean_coverage_item_exits_two(capsys, tmp_path):
    # true would cover the same item as 1; "1" is another item.
    path = tmp_path / "instance.json"
    constraint = '"constraint": {"type": "cardinality", "p": 2}'
    path.write_text('{"function": {"type": "coverage", "params": {"covers": [[1], [true]]}}, %s}' % constraint)
    code = main(["maximize", str(path), "--algorithm", "exact"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a 'coverage' item must not be a boolean, got True\n"
    path.write_text('{"function": {"type": "coverage", "params": {"covers": [[1], ["1"]]}}, %s}' % constraint)
    code, report = run_json(capsys, "maximize", str(path), "--algorithm", "exact")
    assert code == 0 and report["result"]["optimum"]["value"] == 2


@pytest.mark.parametrize(
    "constraint, selected",
    [
        ({"type": "partition", "blocks": [[True, False]], "caps": [1]}, [False]),
        ({"type": "explicit", "independent_sets": [[], [True]]}, [True]),
    ],
)
def test_boolean_ground_labels_name_their_elements(capsys, tmp_path, constraint, selected):
    doc = {
        "ground_set": [True, False],
        "function": {"type": "linear", "params": {"weights": [1, 2]}},
        "constraint": constraint,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "maximize", str(path), "--algorithm", "local")
    assert code == 0
    assert report["result"]["solve"]["selected"] == selected


_NAN = float("nan")
_INF = float("inf")
_REJECTED = [
    (
        "nan-weight",
        {"function": {"type": "linear", "params": {"weights": [1, _NAN, 2]}}},
        ("check",),
    ),
    (
        "infinity-distance",
        {"function": {"type": "dispersion", "params": {"distances": [[0, _INF], [_INF, 0]]}}},
        ("check",),
    ),
    (
        "minus-infinity-matrix-entry",
        {"function": {"type": "segmentation", "params": {"matrix": [[1, 2], [_INF, -_INF]]}}},
        ("check",),
    ),
    (
        "nan-epsilon",
        {"constraint": {"type": "uniform", "rank": 2}, "options": {"epsilon": _NAN}},
        _LOCAL,
    ),
    (
        "coverage-negative-weight",
        {
            "function": {
                "type": "coverage",
                "params": {"covers": [["a"], ["a", "b"]], "weights": {"a": -5, "b": 1}},
            },
            "constraint": {"type": "cardinality", "p": 2},
        },
        (*_GREEDY, "--compare", "exact"),
    ),
]


@pytest.mark.parametrize(
    "fields, argv", [pytest.param(fields, argv, id=name) for name, fields, argv in _REJECTED]
)
def test_rejected_number_exits_two_with_empty_stdout(capsys, tmp_path, fields, argv):
    # ``json.dumps`` writes NaN and infinities as the tokens ``json.loads`` accepts.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"function": _LINEAR, **fields}))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestBoundsCommand:
    def test_greedy_table_json(self, capsys):
        code, report = run_json(capsys, "bounds", "greedy", "--range", "2..4")
        assert code == 0
        rows = report["result"]["rows"]
        assert [r["param"] for r in rows] == [2, 3, 4]
        assert rows[0]["bound"] == pytest.approx(4.0)

    def test_local_reference_windows(self, capsys):
        code, report = run_json(capsys, "bounds", "local", "--range", "6..6")
        assert code == 0
        assert 10.87 <= report["result"]["rows"][0]["bound"] <= 10.89
        _, report = run_json(capsys, "bounds", "local", "--range", "2..2")
        assert 14.49 <= report["result"]["rows"][0]["bound"] <= 14.51

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "bounds", "local", "--range", "2..3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,bound,mode"
        assert len(lines) == 3

    def test_csv_bytes(self, capsys):
        # One line ending (LF) for every CSV the CLI writes, as in ``bench``.
        code, out = run_cli(
            capsys, "bounds", "greedy", "--range", "2..3", "--exact", "--format", "csv"
        )
        assert code == 0
        assert out == "param,bound,mode\n2,4,rational\n3,13/3,rational\n"

    def test_exact_flag(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "greedy", "--range", "3..3", "--exact", "--format", "csv"
        )
        assert code == 0
        assert "13/3" in out

    def test_single_parameter_range(self, capsys):
        _, single = run_json(capsys, "bounds", "local", "--range", "5")
        _, span = run_json(capsys, "bounds", "local", "--range", "5..5")
        assert single["result"] == span["result"]
        assert [r["param"] for r in single["result"]["rows"]] == [5]

    def test_bad_range_exits_two(self, capsys):
        code, _ = run_cli(capsys, "bounds", "greedy", "--range", "5..2")
        assert code == 2
        for kind in ("greedy", "local"):
            code, _ = run_cli(capsys, "bounds", kind, "--range", "1..3")
            assert code == 2, kind

    @staticmethod
    def _reference(p):
        # str() of these bounds passes the int-to-str digit limit, so lift it
        # here only; the command under test runs with the limit in force.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(greedy_ratio(p, exact=True))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_exact_json_past_int_str_limit(self, capsys):
        code, out = run_cli(capsys, "bounds", "greedy", "--range", "58..60", "--exact")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert [r["param"] for r in rows] == [58, 59, 60]
        for r in rows:
            assert r["mode"] == "rational"
            assert r["bound"] == self._reference(r["param"])
            assert len(r["bound"]) > 2 * 4300

    def test_exact_csv_past_int_str_limit(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "greedy", "--range", "58..60", "--exact", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,bound,mode"
        assert lines[1:] == [f"{p},{self._reference(p)},rational" for p in (58, 59, 60)]

    def test_exact_integral_bound_stays_a_string(self, capsys):
        code, report = run_json(capsys, "bounds", "greedy", "--range", "2..2", "--exact")
        assert code == 0
        assert report["result"]["rows"][0]["bound"] == "4"


class TestCounterexamplesCommand:
    def test_all_reproduce_exactly(self, capsys):
        code, report = run_json(capsys, "counterexamples")
        assert code == 0
        rows = {r["name"]: r for r in report["result"]["counterexamples"]}
        assert report["result"]["all_reproduced"] is True
        assert (rows["max_cut_star_n3"]["lhs"], rows["max_cut_star_n3"]["rhs"]) == (24, 30)
        assert (rows["cardinality_power_4"]["lhs"], rows["cardinality_power_4"]["rhs"]) == (
            6250,
            6570,
        )
        assert (rows["threshold_k3"]["lhs"], rows["threshold_k3"]["rhs"]) == (0, 1)
        assert (rows["supermodular_pair"]["lhs"], rows["supermodular_pair"]["rhs"]) == (0, 1)


class TestBenchCommand:
    def test_dispersion_local_within_bound(self, capsys):
        code, report = run_json(
            capsys,
            "bench",
            "dispersion",
            "--algorithm",
            "local",
            "--rank",
            "3",
            "--count",
            "12",
            "--n",
            "7",
            "--seed",
            "3",
        )
        assert code == 0
        summary = report["result"]["summary"]
        assert summary["within_bound"] is True
        assert summary["max_ratio"] <= ls_bound(3)

    def test_segmentation_greedy_within_bound(self, capsys):
        code, report = run_json(
            capsys,
            "bench",
            "segmentation",
            "--algorithm",
            "greedy",
            "--p",
            "3",
            "--count",
            "12",
            "--n",
            "7",
            "--seed",
            "4",
        )
        assert code == 0
        assert report["result"]["summary"]["max_ratio"] <= greedy_ratio(3)

    def test_fixed_seed_reproduces_report(self, capsys):
        args = ("bench", "combination", "--count", "6", "--n", "6", "--seed", "11")
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        assert first["result"] == second["result"]

    def test_jobs_preserve_order(self, capsys):
        args = ("bench", "dispersion", "--count", "8", "--n", "6", "--seed", "2")
        _, solo = run_json(capsys, *args)
        _, multi = run_json(capsys, *args, "--jobs", "4")
        assert solo["result"] == multi["result"]

    def test_csv_rows(self, capsys):
        code, out = run_cli(
            capsys,
            "bench",
            "dispersion",
            "--count",
            "5",
            "--n",
            "6",
            "--seed",
            "1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,seed,opt_value,alg_value,ratio"
        assert len(lines) == 6

    def test_param_exceeding_n_exits_two(self, capsys):
        code, _ = run_cli(capsys, "bench", "dispersion", "--p", "9", "--n", "6")
        assert code == 2

    @pytest.fixture
    def no_instances(self, monkeypatch):
        def fail(*args):
            raise AssertionError("bench generated an instance before checking its arguments")

        monkeypatch.setattr(cli, "_bench_one", fail)

    def test_zero_count_exits_two_before_work(self, capsys, no_instances):
        code = main(["bench", "dispersion", "--count", "0"])
        assert code == 2
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, algorithm", [("--p", "greedy"), ("--rank", "local")])
    def test_bound_parameter_below_two_exits_two_before_work(
        self, capsys, no_instances, flag, algorithm
    ):
        code = main(["bench", "dispersion", "--algorithm", algorithm, flag, "1", "--n", "6"])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, n, message",
        [
            (["--p", "3"], 23, "brute force capped at n <= 22"),
            (["--algorithm", "local"], 19, "basis enumeration capped at n <= 18"),
            (
                ["--algorithm", "local", "--matroid", "partition"],
                400,
                "basis enumeration capped at n <= 18",
            ),
        ],
    )
    def test_n_above_the_oracle_cap_exits_two_before_work(
        self, capsys, no_instances, argv, n, message
    ):
        for suite in ("dispersion", "segmentation", "combination"):
            code = main(["bench", suite, *argv, "--n", str(n), "--count", "1"])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # The --count refusal comes first.
        assert main(["bench", "dispersion", *argv, "--n", str(n), "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err


@pytest.fixture
def labelled_partition_instance(tmp_path):
    doc = {
        "ground_set": list("abcdef"),
        "function": {
            "type": "dispersion",
            "params": {
                "distances": [
                    [0, 7, 7, 1, 4, 6],
                    [7, 0, 8, 7, 5, 8],
                    [7, 8, 0, 6, 4, 7],
                    [1, 7, 6, 0, 3, 5],
                    [4, 5, 4, 3, 0, 3],
                    [6, 8, 7, 5, 3, 0],
                ]
            },
        },
        "constraint": {"type": "partition", "blocks": [list("abc"), list("def")], "caps": [1, 2]},
    }
    path = tmp_path / "labelled_partition.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _local_certificate(epsilon):
    return {
        "algorithm": "local_search_matroid",
        "epsilon": epsilon,
        "max_iters": None,
        "init": "greedy-basis",
        "scan": "first-improvement, u then v ascending",
        "deterministic": True,
    }


def _counterexample_row(name, description, lhs, rhs):
    return {
        "name": name,
        "description": description,
        "lhs": lhs,
        "rhs": rhs,
        "expected_lhs": lhs,
        "expected_rhs": rhs,
        "violation_reproduced": True,
    }


_OPT_DISPERSION = {"optimum": [0, 1, 2], "value": 7, "enumerated": 42}


def _local_dispersion(epsilon):
    solve = {"selected": [0, 1, 2], "value": 7, "iterations": 0, "trace": [[0, None, 7]]}
    return {"algorithm": "local", "solve": {**solve, "certificate": _local_certificate(epsilon)}}


# One command per report shape, with the `result` it prints (recorded before
# every report went through one JSON encoder) and its exit code.  DISPERSION,
# STAR and PARTITION name the fixture files.
_PINNED = [
    (
        "check-pass",
        ("check", "DISPERSION", "--property", "weakly_submodular"),
        0,
        {
            "property": "weakly_submodular", "mode": "exhaustive", "pairs_checked": 2080,
            "passed": True, "witness": None, "samples": None, "seed": None,
        },
    ),
    (
        "check-witness",
        ("check", "STAR"),
        1,
        {
            "property": "weakly_submodular", "mode": "exhaustive", "pairs_checked": 306,
            "passed": False,
            "witness": {
                "kind": "weakly_submodular", "S": [0, 1, 3], "T": [0, 1, 4], "lhs": 18, "rhs": 20,
            },
            "samples": None, "seed": None,
        },
    ),
    (
        "check-sampled",
        ("check", "PARTITION", "--property", "monotone", "--mode", "sampled", "--samples", "5",
         "--seed", "2"),
        0,
        {
            "property": "monotone", "mode": "sampled", "pairs_checked": 5, "passed": True,
            "witness": None, "samples": 5, "seed": 2,
        },
    ),
    (
        "greedy-compare",
        ("maximize", "DISPERSION", "--algorithm", "greedy", "--compare", "exact"),
        0,
        {
            "algorithm": "greedy",
            "solve": {
                "selected": [0, 1, 2], "value": 7, "iterations": 3,
                "trace": [[1, 0, 0], [2, 1, 2], [3, 2, 7]],
                "certificate": {
                    "algorithm": "greedy_cardinality", "p": 3, "tie_break": "smallest-index",
                    "deterministic": True,
                },
            },
            "compare": {"optimum": _OPT_DISPERSION, "ratio": 1},
        },
    ),
    (
        "local-partition-compare",
        ("maximize", "PARTITION", "--algorithm", "local", "--compare", "exact"),
        0,
        {
            "algorithm": "local",
            "solve": {
                "selected": ["b", "d", "f"], "value": 20, "iterations": 2,
                "trace": [[0, None, 13], [1, ["b", "a"], 16], [2, ["d", "e"], 20]],
                "certificate": _local_certificate(0),
            },
            "compare": {
                "optimum": {"optimum": ["b", "d", "f"], "value": 20, "enumerated": 9}, "ratio": 1,
            },
        },
    ),
    (
        "exact",
        ("maximize", "DISPERSION", "--algorithm", "exact"),
        0,
        {"algorithm": "exact", "optimum": _OPT_DISPERSION},
    ),
    (
        "local-epsilon-half",
        ("maximize", "DISPERSION", "--algorithm", "local", "--epsilon", "1/2"),
        0,
        _local_dispersion("1/2"),
    ),
    (
        # An integral --epsilon is a number, like every other integral rational
        # (it used to be the string "0").
        "local-epsilon-zero",
        ("maximize", "DISPERSION", "--algorithm", "local", "--epsilon", "0"),
        0,
        _local_dispersion(0),
    ),
    (
        "counterexamples",
        ("counterexamples",),
        0,
        {
            "counterexamples": [
                _counterexample_row(
                    "max_cut_star_n3", "two-hub unit gadget, around-the-hubs pair", 24, 30
                ),
                _counterexample_row(
                    "threshold_k3", "two below-threshold sets sharing one element", 0, 1
                ),
                _counterexample_row(
                    "cardinality_power_4", "|S|^4 profile at the split (4, 4, 1)", 6250, 6570
                ),
                _counterexample_row(
                    "supermodular_pair", "both partners split across the pair", 0, 1
                ),
            ],
            "all_reproduced": True,
        },
    ),
    (
        "bench-fraction-ratio",
        ("bench", "dispersion", "--count", "2", "--n", "5"),
        0,
        {
            "instances": [
                {"seed": 0, "alg_value": 22, "opt_value": 24, "ratio": "12/11"},
                {"seed": 1, "alg_value": 14, "opt_value": 18, "ratio": "9/7"},
            ],
            "summary": {
                "suite": "dispersion", "algorithm": "greedy", "count": 2, "n": 5, "param": 3,
                "max_ratio": 1.2857142857142858, "bound": 4.333333333333333, "within_bound": True,
            },
        },
    ),
    (
        "bench-integral-ratio",
        ("bench", "dispersion", "--count", "3", "--n", "4", "--algorithm", "local", "--rank", "2",
         "--matroid", "partition"),
        0,
        {
            "instances": [
                {"seed": 0, "alg_value": 8, "opt_value": 8, "ratio": 1},
                {"seed": 1, "alg_value": 5, "opt_value": 5, "ratio": 1},
                {"seed": 2, "alg_value": 3, "opt_value": 3, "ratio": 1},
            ],
            "summary": {
                "suite": "dispersion", "algorithm": "local", "count": 3, "n": 4, "param": 2,
                "max_ratio": 1, "bound": 14.5, "within_bound": True,
            },
        },
    ),
    (
        "bounds-exact",
        ("bounds", "greedy", "--range", "2..3", "--exact"),
        0,
        {
            "kind": "greedy", "precision": "rational", "formula_version": "1",
            "rows": [
                {"param": 2, "bound": "4", "mode": "rational"},
                {"param": 3, "bound": "13/3", "mode": "rational"},
            ],
        },
    ),
]


class TestPinnedReports:
    @pytest.fixture
    def files(self, dispersion_instance, star_instance, labelled_partition_instance):
        return {
            "DISPERSION": dispersion_instance,
            "STAR": star_instance,
            "PARTITION": labelled_partition_instance,
        }

    @pytest.mark.parametrize(
        "argv, code, result",
        [pytest.param(argv, code, result, id=name) for name, argv, code, result in _PINNED],
    )
    def test_report(self, capsys, files, argv, code, result):
        argv = [files.get(a, a) for a in argv]
        got, report = run_json(capsys, *argv)
        assert got == code
        assert list(report) == ["command", "version", "wall_time_s", "result"]
        assert report["command"] == argv
        assert report["version"] == weaksub.__version__
        # Compare the JSON text, so 1 and 1.0 or "0" and 0 differ.
        assert json.dumps(report["result"]) == json.dumps(result)

    def test_bench_csv(self, capsys):
        argv = ("bench", "dispersion", "--count", "2", "--n", "5", "--format", "csv")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == "index,seed,opt_value,alg_value,ratio\n0,0,24,22,12/11\n1,1,18,14,9/7\n"


class TestReportStability:
    def test_result_fields_reproduce_across_runs(self, capsys, dispersion_instance):
        _, a = run_json(capsys, "check", dispersion_instance)
        _, b = run_json(capsys, "check", dispersion_instance)
        assert a["result"] == b["result"]
        assert a["command"] == b["command"]


def test_cli_import_stays_light(dispersion_instance):
    # Importing numpy or scipy would add ~0.15 s and ~11 MB to every command,
    # and a thread pool behind `bench --jobs` gains nothing under the GIL.
    # `check` on an int table runs the lane kernel, which is plain ints too,
    # and so do the zoo's lanes: the metric closure and triangle check that
    # `bench dispersion` and `maximize` on a dispersion file run, and the
    # int segmentation table of `bench segmentation`.
    code = (
        "import contextlib, io, sys, weaksub.cli\n"
        "def heavy():\n"
        "    return sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "seen = [heavy()]\n"
        "for argv in (['bench', 'dispersion', '--count', '3', '--n', '6', '--jobs', '2'],\n"
        "             ['bench', 'segmentation', '--count', '2', '--n', '7'],\n"
        "             ['maximize', sys.argv[1], '--algorithm', 'greedy'],\n"
        "             ['check', sys.argv[1], '--property', 'weakly_submodular']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((weaksub.cli.main(argv), heavy()))\n"
        "print(seen, 'concurrent.futures' in sys.modules)"
    )
    env = {"PYTHONPATH": str(Path(weaksub.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, dispersion_instance],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[[], (0, []), (0, []), (0, []), (0, [])] False"


def test_interleaved_commands_match_solo_runs(capsys, dispersion_instance, star_instance):
    # ``main`` reuses one parser; a usage error or ``--version`` before a
    # command must not change that command's report.
    commands = [
        ["check", dispersion_instance, "--property", "monotone"],
        ["check", star_instance],
        ["bounds", "local", "--range", "2..6", "--exact"],
        ["bench", "dispersion", "--count", "2", "--n", "6", "--seed", "3"],
    ]
    env = {"PYTHONPATH": str(Path(weaksub.__file__).parents[1])}

    def report(out):
        doc = json.loads(out)
        del doc["wall_time_s"]
        return doc

    solo = []
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "weaksub", *argv], env=env, capture_output=True, text=True
        )
        solo.append((done.returncode, report(done.stdout)))

    assert main(["check", dispersion_instance, "--property", "nonsense"]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == weaksub.__version__
    interleaved = []
    for argv in commands:
        code, out = run_cli(capsys, *argv)
        interleaved.append((code, report(out)))
    assert interleaved == solo
    assert [code for code, _ in solo] == [0, 1, 0, 0]
    assert cli.build_parser() is cli.build_parser()
