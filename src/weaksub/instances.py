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
so integer-valued fixtures stay integer-valued end to end.  ``NaN``,
``Infinity`` and ``-Infinity``, which ``json`` accepts, are schema errors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterator

from . import zoo
from .core import GroundSet, SetFunction
from .matroid import Matroid


class SchemaError(ValueError):
    """The instance document does not match the schema."""


def _exact(v: Fraction) -> int | Fraction:
    """Integral rationals become ints; others stay exact."""
    return int(v) if v.denominator == 1 else v


def _non_finite(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed")


def parse_json(text: str) -> Any:
    return json.loads(
        text, parse_float=lambda s: _exact(Fraction(s)), parse_constant=_non_finite
    )


def _params(spec: dict) -> dict:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("function spec must be an object with a 'type'")
    if spec["type"] not in _BUILDERS:
        raise SchemaError(f"unknown function type {spec['type']!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    return params


def _count(value, what: str) -> int:
    """``value`` if it is a count, an int >= 0 that is not a bool."""
    if type(value) is not int or value < 0:
        raise SchemaError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


_NUMBER_TYPES = {int, Fraction, float}


def _number(value, what: str):
    """``value`` if it is a number, an int, ``Fraction`` or float that is not a bool."""
    if type(value) not in _NUMBER_TYPES:
        raise SchemaError(f"{what} must be a number, got {value!r}")
    return value


def _arrays(value, what: str) -> list[list]:
    """``value`` if it is an array of arrays, so no string or object is
    read as its characters or keys."""
    if type(value) is not list or any(type(x) is not list for x in value):
        raise SchemaError(f"{what} must be an array of arrays, got {value!r}")
    return value


def _matrix(rows, what: str) -> list[list]:
    """``rows`` as lists of numbers (see ``_number``).  A row whose every
    entry has a number type is copied whole; any other row is read entry
    by entry, so the first entry that is not a number is refused."""
    return [
        list(row) if set(map(type, row)) <= _NUMBER_TYPES else [_number(x, what) for x in row]
        for row in rows
    ]


def ground_from_spec(ground_spec) -> GroundSet | None:
    if ground_spec is None:
        return None
    if isinstance(ground_spec, list):
        try:
            return GroundSet(tuple(ground_spec))
        except TypeError as exc:
            raise SchemaError(f"'ground_set' labels must be hashable: {exc}") from exc
    return GroundSet.of_size(_count(ground_spec, "a 'ground_set' that is not a list of labels"))


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


def _declared_size(n: int, ground: GroundSet | None, kind: str) -> int:
    """``n`` if it agrees with the declared ground's size (or none is declared)."""
    if ground is not None and n != ground.n:
        raise SchemaError(
            f"{kind!r} instance implies a ground set of size {n}, "
            f"but the file declares size {ground.n}"
        )
    return n


def _on_declared_ground(f: SetFunction, ground: GroundSet | None, kind: str) -> SetFunction:
    if ground is None or f.ground == ground:
        return f
    _declared_size(f.ground.n, ground, kind)
    if f.ground.elements != tuple(range(ground.n)):
        raise SchemaError(
            f"{kind!r} carries intrinsic labels {list(f.ground.elements)}, "
            f"which conflict with the declared ground_set"
        )
    # Values are read by bitmask, so a function on the positional ground takes
    # the declared labels as they are.  ``f`` is the builder's fresh object:
    # relabelling it in place keeps its one evaluator, table and memo.
    f.ground = ground
    return f


def _size_param(kind: str, params: dict) -> tuple | None:
    """The param that names a ``kind`` spec's ground-set size, as (its
    value, its name in a refusal, what it adds to the size): a
    ``max_cut``'s ``star_n`` + 2, else its ``vertices``, else its ``n``;
    the ``n`` of a ``threshold`` or ``cardinality_poly``.  None when the
    spec names none."""
    if kind == "max_cut" and "star_n" in params:
        return params["star_n"], "'star_n'", 2  # the two hubs join the spokes
    if kind == "max_cut" and params.get("vertices") is not None:
        return params["vertices"], "'vertices'", 0
    if kind in ("threshold", "cardinality_poly", "max_cut") and "n" in params:
        return params["n"], f"{kind!r} param 'n'", 0
    return None


def _need_n(params: dict, ground: GroundSet | None, kind: str) -> int:
    """The size that ``_size_param`` names, else the declared size.  A size
    that differs from the declared one is refused here, before a builder
    allocates for it."""
    named = _size_param(kind, params)
    if named is not None:
        value, what, extra = named
        return _declared_size(_count(value, what) + extra, ground, kind)
    if ground is not None:
        return ground.n
    raise SchemaError(f"{kind!r} needs an explicit ground_set (or an 'n' param)")


def _build_linear(params, ground):
    return zoo.linear([_number(w, "a 'linear' weight") for w in params["weights"]])


def _build_coverage(params, ground):
    weights = params.get("weights")
    if weights is not None:
        if not isinstance(weights, dict):
            raise SchemaError(f"'coverage' weights must be an object, got {weights!r}")
        weights = {x: _number(w, "a 'coverage' weight") for x, w in weights.items()}
    covers = _arrays(params["covers"], "'coverage' covers")
    # A JSON true would be the same item as 1 in a set, and false as 0.
    flag = next((x for c in covers for x in c if type(x) is bool), None)
    if flag is not None:
        raise SchemaError(f"a 'coverage' item must not be a boolean, got {flag!r}")
    return zoo.coverage(covers, weights)


def _build_dispersion(params, ground):
    distances = _matrix(params["distances"], "a 'dispersion' distance")
    return zoo.metric_dispersion(zoo.DistanceMatrix(distances))


def _build_segmentation(params, ground):
    matrix = _matrix(params["matrix"], "a 'segmentation' matrix entry")
    return zoo.segmentation(zoo.SegmentationMatrix(matrix))


def _build_cardinality_poly(params, ground):
    n = _need_n(params, ground, "cardinality_poly")
    if "coeffs" in params and "k" in params:
        raise SchemaError("'cardinality_poly' takes 'k' or 'coeffs', not both")
    if "coeffs" in params:
        coeffs = [_number(c, "a 'cardinality_poly' coeff") for c in params["coeffs"]]
        return zoo.cardinality_polynomial(coeffs, n)
    return zoo.cardinality_power(params["k"], n)


def _build_threshold(params, ground):
    n = _need_n(params, ground, "threshold")
    return zoo.threshold(params["k"], params["B"], n)


def _build_combination(params, ground):
    terms = params["terms"]
    if not terms:
        raise SchemaError("combination needs at least one term")
    fs = [function_from_spec(t["function"], ground) for t in terms]
    alphas = [_number(t.get("alpha", 1), "a combination 'alpha'") for t in terms]
    return zoo.linear_combination(fs, alphas)


def _build_complement(params, ground):
    return zoo.complement(function_from_spec(params["function"], ground))


def _build_zero_at_top(params, ground):
    return zoo.zero_at_top(function_from_spec(params["function"], ground))


def _build_max_cut(params, ground):
    n = _need_n(params, ground, "max_cut")
    if "star_n" in params:
        return zoo.max_cut(zoo.star_counterexample(n - 2))
    edges = [
        (_count(u, "a max-cut endpoint"), _count(v, "a max-cut endpoint"),
         _number(w, "a max-cut edge weight"))
        for u, v, w in params["edges"]
    ]
    return zoo.max_cut(zoo.Graph(n, edges))


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
            blocks = _arrays(spec["blocks"], "partition 'blocks'")
            return Matroid.partition(ground, blocks, spec["caps"])
        if kind == "explicit":
            sets = _arrays(spec["independent_sets"], "explicit 'independent_sets'")
            return Matroid.explicit(ground, [tuple(s) for s in sets])
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
        if "epsilon" in self.options:
            _number(self.options["epsilon"], "option 'epsilon'")

    @property
    def cardinality_p(self) -> int | None:
        """The bound of a cardinality or uniform constraint, else None."""
        m = self._matroid
        return m.rank if m is not None and m.kind == "uniform" else None

    def matroid(self) -> Matroid:
        if self._matroid is None:
            raise SchemaError("instance has no constraint")
        return self._matroid


def size_params(doc) -> Iterator[int]:
    """The ground-set sizes that an instance document names, read without
    building anything: a declared ``ground_set`` count, else the sizes that
    the params of its function spec name (``_size_param``), and of the
    specs that a ``combination``, ``complement`` or ``zero_at_top`` holds.
    Declared labels name nothing here; with them or a count, the params
    are compared with the declared ground when the function is built.  A
    value that is not a count, and a malformed spec, name nothing here:
    building refuses them."""
    if not isinstance(doc, dict):
        return
    ground = doc.get("ground_set")
    if ground is not None:
        if type(ground) is int and ground >= 0:
            yield ground
        return
    specs = [doc.get("function")]
    for spec in specs:  # the held specs are appended as they are found
        if not isinstance(spec, dict) or not isinstance(spec.get("params"), dict):
            continue
        kind, params = spec.get("type"), spec["params"]
        if kind == "combination" and isinstance(params.get("terms"), list):
            specs += [term.get("function") for term in params["terms"] if isinstance(term, dict)]
        elif kind in ("complement", "zero_at_top"):
            specs.append(params.get("function"))
        elif (named := _size_param(kind, params)) is not None:
            value, _, extra = named
            if type(value) is int and value >= 0:
                yield value + extra


def read_document(path: str) -> Any:
    """The parsed JSON of an instance file (see ``parse_json``)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_json(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("instance JSON is nested too deeply") from exc


def load_instance(path: str) -> Instance:
    return Instance(read_document(path))
