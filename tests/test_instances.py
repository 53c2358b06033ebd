import json
from fractions import Fraction

import pytest

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
