"""JSON instance schema shared by the CLI and batch users.

An instance file holds a function spec, an optional constraint spec, and
optional solver/checker options:

    {
      "ground_set": 6 | ["a", "b", ...],
      "function": {"type": "dispersion", "params": {"distances": [[...], ...]}},
      "constraint": {"type": "cardinality", "p": 3},
      "options": {"mode": "exhaustive", "seed": 1}
    }

Decimal literals are parsed as exact rationals, and integral ones as ints,
so integer-valued fixtures stay integer-valued end to end.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from . import zoo
from .core import GroundSet, SetFunction
from .matroid import Matroid


class SchemaError(ValueError):
    """The instance document does not match the schema."""


def _exact(v: Fraction) -> int | Fraction:
    """Integral rationals become ints; others stay exact."""
    return int(v) if v.denominator == 1 else v


def parse_json(text: str) -> Any:
    return json.loads(text, parse_float=lambda s: _exact(Fraction(s)))


def _params(spec: dict) -> dict:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("function spec must be an object with a 'type'")
    if spec["type"] not in _BUILDERS:
        raise SchemaError(f"unknown function type {spec['type']!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    return params


def ground_from_spec(ground_spec) -> GroundSet | None:
    if ground_spec is None:
        return None
    if type(ground_spec) is int and ground_spec >= 0:
        return GroundSet.of_size(ground_spec)
    if isinstance(ground_spec, list):
        try:
            return GroundSet(tuple(ground_spec))
        except TypeError as exc:
            raise SchemaError(f"'ground_set' labels must be hashable: {exc}") from exc
    raise SchemaError("'ground_set' must be a size or a list of labels")


def function_from_spec(spec: dict, ground: GroundSet | None = None) -> SetFunction:
    """Build a zoo function from its JSON spec, validating dimensions.

    When the file declares ``ground_set`` labels, functions built over the
    default positional ground are relabeled onto them (bitmask semantics make
    this free); intrinsic labels such as supermodular_pair's must match the
    declaration exactly.
    """
    params = _params(spec)
    kind = spec["type"]
    try:
        f = _BUILDERS[kind](params, ground)
    except SchemaError:
        raise
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"bad params for {kind!r}: {exc}") from exc
    return _on_declared_ground(f, ground, kind)


def _on_declared_ground(f: SetFunction, ground: GroundSet | None, kind: str) -> SetFunction:
    if ground is None or f.ground == ground:
        return f
    if f.ground.n != ground.n:
        raise SchemaError(
            f"{kind!r} instance implies a ground set of size {f.ground.n}, "
            f"but the file declares size {ground.n}"
        )
    if f.ground.elements != tuple(range(ground.n)):
        raise SchemaError(
            f"{kind!r} carries intrinsic labels {list(f.ground.elements)}, "
            f"which conflict with the declared ground_set"
        )
    return SetFunction(ground, f.value, name=f.name, claims=f.claims)


def _need_n(params: dict, ground: GroundSet | None, kind: str) -> int:
    if ground is not None:
        return ground.n
    if "n" in params:
        return params["n"]
    raise SchemaError(f"{kind!r} needs an explicit ground_set (or an 'n' param)")


def _build_linear(params, ground):
    return zoo.linear(params["weights"])


def _build_coverage(params, ground):
    return zoo.coverage(params["covers"], params.get("weights"))


def _build_dispersion(params, ground):
    return zoo.metric_dispersion(zoo.DistanceMatrix(params["distances"]))


def _build_segmentation(params, ground):
    return zoo.segmentation(zoo.SegmentationMatrix(params["matrix"]))


def _build_cardinality_poly(params, ground):
    n = _need_n(params, ground, "cardinality_poly")
    if "coeffs" in params:
        return zoo.cardinality_polynomial(params["coeffs"], n)
    return zoo.cardinality_power(params["k"], n)


def _build_threshold(params, ground):
    n = _need_n(params, ground, "threshold")
    return zoo.threshold(params["k"], params["B"], n)


def _build_combination(params, ground):
    terms = params["terms"]
    if not terms:
        raise SchemaError("combination needs at least one term")
    fs = [function_from_spec(t["function"], ground) for t in terms]
    alphas = [t.get("alpha", 1) for t in terms]
    return zoo.linear_combination(fs, alphas)


def _build_complement(params, ground):
    return zoo.complement(function_from_spec(params["function"], ground))


def _build_zero_at_top(params, ground):
    return zoo.zero_at_top(function_from_spec(params["function"], ground))


def _build_max_cut(params, ground):
    if "star_n" in params:
        return zoo.max_cut(zoo.star_counterexample(params["star_n"]))
    n = params.get("vertices")
    if n is None:
        n = _need_n(params, ground, "max_cut")
    return zoo.max_cut(zoo.Graph(n, params["edges"]))


def _build_supermodular_pair(params, ground):
    return zoo.supermodular_pair(params["B"])


_BUILDERS = {
    "linear": _build_linear,
    "coverage": _build_coverage,
    "dispersion": _build_dispersion,
    "segmentation": _build_segmentation,
    "cardinality_poly": _build_cardinality_poly,
    "threshold": _build_threshold,
    "combination": _build_combination,
    "complement": _build_complement,
    "zero_at_top": _build_zero_at_top,
    "max_cut": _build_max_cut,
    "supermodular_pair": _build_supermodular_pair,
}


def matroid_from_spec(spec: dict, ground: GroundSet) -> Matroid:
    """Build a matroid from its JSON spec over the given ground set."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("constraint spec must be an object with a 'type'")
    kind = spec["type"]
    try:
        if kind == "uniform":
            return Matroid.uniform(ground, spec["rank"])
        if kind == "partition":
            return Matroid.partition(ground, spec["blocks"], spec["caps"])
        if kind == "explicit":
            return Matroid.explicit(ground, [tuple(s) for s in spec["independent_sets"]])
        if kind == "cardinality":
            return Matroid.uniform(ground, spec["p"])
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"bad params for constraint {kind!r}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown constraint type {kind!r}")


class Instance:
    """A parsed instance file: function, optional constraint, options."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise SchemaError("instance document must be a JSON object")
        if "function" not in doc:
            raise SchemaError("instance needs a 'function' spec")
        self.ground = ground_from_spec(doc.get("ground_set"))
        self.function = function_from_spec(doc["function"], self.ground)
        constraint = doc.get("constraint")
        self._matroid = (
            None if constraint is None else matroid_from_spec(constraint, self.function.ground)
        )
        self.options = doc.get("options", {})
        if not isinstance(self.options, dict):
            raise SchemaError("'options' must be an object")
        for key in ("samples", "seed"):
            if key in self.options and type(self.options[key]) is not int:
                raise SchemaError(f"option {key!r} must be an integer")
        if "epsilon" in self.options and type(self.options["epsilon"]) not in (int, Fraction, float):
            raise SchemaError("option 'epsilon' must be a number")

    @property
    def cardinality_p(self) -> int | None:
        """The bound of a cardinality or uniform constraint, else None."""
        m = self._matroid
        return m.rank if m is not None and m.kind == "uniform" else None

    def matroid(self) -> Matroid:
        if self._matroid is None:
            raise SchemaError("instance has no constraint")
        return self._matroid


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = parse_json(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    return Instance(doc)
