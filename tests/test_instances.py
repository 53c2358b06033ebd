import json
from fractions import Fraction

import pytest

from weaksub import instances, zoo
from weaksub.core import GroundSet, SetFunction
from weaksub.solve import brute_force_cardinality, greedy_cardinality
from weaksub.instances import (
    Instance,
    SchemaError,
    function_from_spec,
    ground_from_spec,
    load_instance,
    matroid_from_spec,
    parse_json,
)


def build(doc):
    return Instance(parse_json(json.dumps(doc)))


class TestFunctionSpecs:
    def test_linear(self):
        f = function_from_spec({"type": "linear", "params": {"weights": [1, 2, 3]}})
        assert f({0, 2}) == 4

    def test_coverage(self):
        spec = {
            "type": "coverage",
            "params": {"covers": [["a"], ["a", "b"]], "weights": {"a": 2, "b": 1}},
        }
        f = function_from_spec(spec)
        assert f({0, 1}) == 3

    def test_dispersion(self):
        spec = {
            "type": "dispersion",
            "params": {"distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        }
        f = function_from_spec(spec)
        assert f({0, 1, 2}) == 3

    def test_segmentation(self):
        f = function_from_spec(
            {"type": "segmentation", "params": {"matrix": [[4, -2], [1, 3], [0, 0]]}}
        )
        assert f({0, 1}) == 7

    def test_cardinality_poly_needs_ground(self):
        with pytest.raises(SchemaError):
            function_from_spec({"type": "cardinality_poly", "params": {"k": 2}})
        f = function_from_spec(
            {"type": "cardinality_poly", "params": {"k": 2}}, ground_from_spec(5)
        )
        assert f({0, 1, 2}) == 9

    def test_threshold(self):
        f = function_from_spec(
            {"type": "threshold", "params": {"k": 2, "B": 3}}, ground_from_spec(4)
        )
        assert f({0}) == 0 and f({0, 1}) == 3

    def test_combination_nested(self):
        spec = {
            "type": "combination",
            "params": {
                "terms": [
                    {"alpha": 2, "function": {"type": "linear", "params": {"weights": [1, 1]}}},
                    {"function": {"type": "threshold", "params": {"k": 1, "B": 1, "n": 2}}},
                ]
            },
        }
        f = function_from_spec(spec)
        assert f({0, 1}) == 2 * 2 + 1

    def test_complement_and_zero_at_top(self):
        inner = {"type": "linear", "params": {"weights": [1, 2]}}
        f = function_from_spec({"type": "complement", "params": {"function": inner}})
        assert f(()) == 3
        g = function_from_spec({"type": "zero_at_top", "params": {"function": inner}})
        assert g({0, 1}) == 0 and g({1}) == 2

    def test_max_cut_variants(self):
        star = function_from_spec({"type": "max_cut", "params": {"star_n": 3}})
        assert star.ground.n == 5
        tri = function_from_spec(
            {"type": "max_cut", "params": {"vertices": 3, "edges": [[0, 1, 2], [1, 2, 1]]}}
        )
        assert tri({1}) == 3

    def test_supermodular_pair(self):
        f = function_from_spec({"type": "supermodular_pair", "params": {"B": 4}})
        assert f({"a1", "a2"}) == 4

    def test_unknown_type_and_missing_params(self):
        with pytest.raises(SchemaError):
            function_from_spec({"type": "mystery", "params": {}})
        with pytest.raises(SchemaError):
            function_from_spec({"type": "linear", "params": {}})
        with pytest.raises(SchemaError):
            function_from_spec({"params": {}})

    def test_ground_size_consistency(self):
        with pytest.raises(SchemaError):
            function_from_spec(
                {"type": "linear", "params": {"weights": [1, 2]}}, ground_from_spec(3)
            )

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "threshold", "params": {"k": 3, "B": 1}},
            {"type": "cardinality_poly", "params": {"k": 2}},
            {"type": "cardinality_poly", "params": {"coeffs": [0, 1, 1]}},
        ],
        ids=["threshold", "cardinality_power", "cardinality_polynomial"],
    )
    def test_n_contradicting_the_declared_ground_is_refused(self, spec):
        def with_n(n):
            return {**spec, "params": {**spec["params"], "n": n}}

        with pytest.raises(SchemaError, match="size 7, but the file declares size 5"):
            function_from_spec(with_n(7), ground_from_spec(5))
        combination = {"type": "combination", "params": {"terms": [{"function": with_n(7)}]}}
        with pytest.raises(SchemaError, match="size 7, but the file declares size 5"):
            function_from_spec(combination, ground_from_spec(list("abcde")))
        plain = function_from_spec(spec, ground_from_spec(5))
        same = function_from_spec(with_n(5), ground_from_spec(5))
        assert same.ground == plain.ground and same.all_values() == plain.all_values()

    @pytest.mark.parametrize(
        "spec, size, builders",
        [
            ({"type": "threshold", "params": {"k": 3, "B": 1, "n": 3_000_000}},
             3_000_000, ["threshold"]),
            ({"type": "cardinality_poly", "params": {"k": 2, "n": 3_000_000}},
             3_000_000, ["cardinality_power", "cardinality_polynomial"]),
            ({"type": "max_cut", "params": {"vertices": 3_000_000, "edges": [[0, 1, 1]]}},
             3_000_000, ["Graph", "max_cut"]),
            ({"type": "max_cut", "params": {"star_n": 3_000_000}},
             3_000_002, ["star_counterexample", "max_cut"]),
        ],
        ids=["threshold_n", "cardinality_poly_n", "max_cut_vertices", "max_cut_star_n"],
    )
    def test_size_param_contradicting_the_declared_ground_builds_nothing(
        self, monkeypatch, spec, size, builders
    ):
        def never(*args, **kwargs):
            raise AssertionError("built a function the declared ground refuses")

        ground = ground_from_spec(5)
        for name in builders:
            monkeypatch.setattr(zoo, name, never)
        monkeypatch.setattr(GroundSet, "of_size", never)
        with pytest.raises(SchemaError) as info:
            function_from_spec(spec, ground)
        assert str(info.value) == (
            f"{spec['type']!r} instance implies a ground set of size {size}, "
            "but the file declares size 5"
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, True]],
            [[0, "1"], [1, 0]],
            [[0, 1.5, None], [1.5, 0, 2], [None, 2, 0]],
            [[0, [1]], [[1], 0]],
            [[0, 1], "ab"],
            [[0, 1], 5],
            [[0, 1], {"1": 0}],
        ],
    )
    @pytest.mark.parametrize("kind, key", [("dispersion", "distances"), ("segmentation", "matrix")])
    def test_matrix_entries_are_refused_entry_by_entry(self, rows, kind, key):
        # The message is the one the entry-by-entry read gives: the first
        # entry in row order that is not a number, or the row that is not
        # iterable.
        what = f"a {kind!r} " + ("distance" if kind == "dispersion" else "matrix entry")
        try:
            [[instances._number(x, what) for x in row] for row in rows]
        except SchemaError as exc:
            expected = str(exc)
        except TypeError as exc:
            expected = f"bad params for {kind!r}: {exc}"
        with pytest.raises(SchemaError) as info:
            function_from_spec({"type": kind, "params": {key: rows}})
        assert str(info.value) == expected

    def test_cardinality_poly_takes_k_or_coeffs_not_both(self):
        spec = {"type": "cardinality_poly", "params": {"k": 2, "coeffs": [0, 1]}}
        with pytest.raises(SchemaError, match="'k' or 'coeffs', not both"):
            function_from_spec(spec, ground_from_spec(3))

    def test_exact_decimal_parsing(self):
        doc = parse_json('{"type": "linear", "params": {"weights": [0.5, 0.25]}}')
        f = function_from_spec(doc)
        assert f({0, 1}) == Fraction(3, 4)


class TestMatroidSpecs:
    def test_uniform_partition_explicit_cardinality(self):
        g = ground_from_spec(4)
        assert matroid_from_spec({"type": "uniform", "rank": 2}, g).rank == 2
        part = matroid_from_spec(
            {"type": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 1]}, g
        )
        assert part.rank == 2
        expl = matroid_from_spec(
            {"type": "explicit", "independent_sets": [[], [0], [1], [0, 1]]},
            ground_from_spec(2),
        )
        assert expl.rank == 2
        card = matroid_from_spec({"type": "cardinality", "p": 3}, g)
        assert card.kind == "uniform" and card.rank == 3

    def test_schema_errors(self):
        g = ground_from_spec(3)
        with pytest.raises(SchemaError):
            matroid_from_spec({"type": "uniform"}, g)
        with pytest.raises(SchemaError):
            matroid_from_spec({"type": "nope"}, g)
        with pytest.raises(SchemaError):
            matroid_from_spec({"type": "partition", "blocks": [[0]], "caps": [1]}, g)


class TestInstanceDocuments:
    def test_full_document(self):
        inst = build(
            {
                "ground_set": 4,
                "function": {
                    "type": "dispersion",
                    "params": {
                        "distances": [
                            [0, 1, 1, 1],
                            [1, 0, 1, 1],
                            [1, 1, 0, 1],
                            [1, 1, 1, 0],
                        ]
                    },
                },
                "constraint": {"type": "cardinality", "p": 2},
                "options": {"seed": 7},
            }
        )
        assert inst.cardinality_p == 2
        assert inst.matroid().rank == 2
        assert inst.options["seed"] == 7

    def test_uniform_counts_as_cardinality(self):
        inst = build(
            {
                "function": {"type": "linear", "params": {"weights": [1, 2, 3]}},
                "constraint": {"type": "uniform", "rank": 2},
            }
        )
        assert inst.cardinality_p == 2

    def test_integral_decimals_are_ints_in_every_field(self):
        inst = Instance(
            parse_json(
                """{"ground_set": 3.0,
                    "function": {"type": "threshold", "params": {"k": 2.0, "B": 1.50}},
                    "constraint": {"type": "partition", "blocks": [[0], [1, 2]], "caps": [1.0, 1]},
                    "options": {"samples": 10.0, "seed": 1e1}}"""
            )
        )
        assert type(inst.matroid().rank) is int and inst.matroid().rank == 2
        assert inst.options == {"samples": 10, "seed": 10}
        assert [type(v) for v in inst.options.values()] == [int, int]
        assert inst.function({0, 1}) == Fraction(3, 2)
        assert inst.cardinality_p is None

    @pytest.mark.parametrize(
        "function",
        [
            {"type": "linear", "params": {"weights": [3, 1, 4, 1, 5]}},
            {
                "type": "dispersion",
                "params": {
                    "distances": [
                        [0, 2, 3, 1, 2],
                        [2, 0, 1, 2, 3],
                        [3, 1, 0, 2, 2],
                        [1, 2, 2, 0, 1],
                        [2, 3, 2, 1, 0],
                    ]
                },
            },
        ],
        ids=["linear", "dispersion"],
    )
    def test_declared_labels_keep_the_table(self, function):
        # Linear and dispersion pass their own table.
        plain = build({"function": function}).function
        labelled = build({"ground_set": list("abcde"), "function": function}).function
        assert labelled.ground.elements == tuple("abcde")
        assert plain._table is not None and labelled._table is not None
        ours, reference = brute_force_cardinality(labelled, 2), brute_force_cardinality(plain, 2)
        assert labelled._cache == {}
        assert (ours.optimum.mask, ours.value, ours.enumerated) == (
            reference.optimum.mask,
            reference.value,
            reference.enumerated,
        )
        assert ours.optimum.labels() == tuple("abcde"[i] for i in reference.optimum.indices())
        assert labelled.all_values() == plain.all_values()

    def test_constraint_built_once(self):
        inst = build(
            {
                "function": {"type": "linear", "params": {"weights": [1, 2, 3]}},
                "constraint": {"type": "cardinality", "p": 2},
            }
        )
        assert inst.matroid() is inst.matroid()
        with pytest.raises(SchemaError, match="no constraint"):
            build({"function": {"type": "linear", "params": {"weights": [1]}}}).matroid()

    def test_missing_function_rejected(self):
        with pytest.raises(SchemaError):
            build({"ground_set": 3})

    def test_load_instance_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_instance(str(path))

    def test_labeled_ground_set_relabels_function(self):
        inst = build(
            {
                "ground_set": ["x", "y", "z", "w"],
                "function": {
                    "type": "dispersion",
                    "params": {
                        "distances": [
                            [0, 1, 1, 1],
                            [1, 0, 1, 1],
                            [1, 1, 0, 1],
                            [1, 1, 1, 0],
                        ]
                    },
                },
                "constraint": {"type": "partition", "blocks": [["x", "y"], ["z", "w"]], "caps": [1, 1]},
            }
        )
        assert inst.function({"x", "z"}) == 1
        assert inst.function.ground.elements == ("x", "y", "z", "w")
        assert inst.matroid().rank == 2

    def test_labelled_instance_counts_each_evaluation_once(self, monkeypatch, tmp_path):
        # A tracer wraps the evaluator in ``SetFunction.__init__``; declared
        # labels must not build a second function around the wrapped one.
        calls = []
        init = SetFunction.__init__

        def traced_init(self, ground, evaluator, **kwargs):
            def counted(mask):
                calls.append(mask)
                return evaluator(mask)

            init(self, ground, counted, **kwargs)

        monkeypatch.setattr(SetFunction, "__init__", traced_init)
        # Fraction distances: int ones would give greedy a marginal state,
        # which calls no evaluator.
        distances = [[0, 2, 1.5, 2], [2, 0, 2, 1.5], [1.5, 2, 0, 2], [2, 1.5, 2, 0]]
        counts = []
        for labels in ({}, {"ground_set": list("wxyz")}):
            doc = {
                **labels,
                "function": {"type": "dispersion", "params": {"distances": distances}},
                "constraint": {"type": "cardinality", "p": 2},
            }
            path = tmp_path / "dispersion.json"
            path.write_text(json.dumps(doc))
            inst = load_instance(str(path))
            calls.clear()
            greedy_cardinality(inst.function, inst.cardinality_p)
            assert len(calls) == len(set(calls))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_labeled_ground_set_size_mismatch(self):
        with pytest.raises(SchemaError):
            build(
                {
                    "ground_set": ["x", "y"],
                    "function": {"type": "linear", "params": {"weights": [1, 2, 3]}},
                }
            )

    def test_intrinsic_labels_conflict(self):
        with pytest.raises(SchemaError):
            build(
                {
                    "ground_set": ["x", "y", "z"],
                    "function": {"type": "supermodular_pair", "params": {"B": 1}},
                }
            )
        inst = build(
            {
                "ground_set": ["a1", "a2", "b"],
                "function": {"type": "supermodular_pair", "params": {"B": 1}},
            }
        )
        assert inst.function({"a1", "a2"}) == 1
