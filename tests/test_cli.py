import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weaksub
from weaksub import cli
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

    def test_usage_error_exits_two(self, capsys, dispersion_instance):
        assert main(["check", dispersion_instance, "--property", "bogus"]) == 2

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
    ("samples-string", {"options": {**_SAMPLED, "samples": "10"}}, ("check",)),
    ("samples-fraction", {"options": {**_SAMPLED, "samples": 2.5}}, ("check",)),
    (
        "epsilon-string",
        {"constraint": {"type": "uniform", "rank": 2}, "options": {"epsilon": "x"}},
        _LOCAL,
    ),
]


@pytest.mark.parametrize(
    "fields, argv", [pytest.param(fields, argv, id=name) for name, fields, argv in _MALFORMED]
)
def test_malformed_field_exits_two(capsys, tmp_path, fields, argv):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"function": _LINEAR, **fields}))
    code = main([argv[0], str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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

    def test_exact_flag(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "greedy", "--range", "3..3", "--exact", "--format", "csv"
        )
        assert code == 0
        assert "13/3" in out

    def test_bad_range_exits_two(self, capsys):
        code, _ = run_cli(capsys, "bounds", "greedy", "--range", "5..2")
        assert code == 2

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


class TestReportStability:
    def test_result_fields_reproduce_across_runs(self, capsys, dispersion_instance):
        _, a = run_json(capsys, "check", dispersion_instance)
        _, b = run_json(capsys, "check", dispersion_instance)
        assert a["result"] == b["result"]
        assert a["command"] == b["command"]


def test_cli_import_stays_light():
    # Importing numpy or scipy would add ~0.15 s and ~11 MB to every command,
    # and a thread pool behind `bench --jobs` gains nothing under the GIL.
    code = (
        "import contextlib, io, sys, weaksub.cli\n"
        "heavy = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "argv = ['bench', 'dispersion', '--count', '3', '--n', '6', '--jobs', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = weaksub.cli.main(argv)\n"
        "print(heavy, exit_code, 'concurrent.futures' in sys.modules)"
    )
    env = {"PYTHONPATH": str(Path(weaksub.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[] 0 False"
