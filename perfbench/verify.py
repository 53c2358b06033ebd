"""Output checks that do not trust the code under test.

Every CLI report is checked against what the benchmark knows about its
input: function values are recomputed from the instance file with naive
evaluators written here, pair counts come from closed forms, and the bounds
tables are checked against anchors and against each other.  ``Verifier.check``
returns ``None`` for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

# The tolerance the program's contract gives float results (weaksub.core.RELATIVE_TOL).
RELATIVE_TOL = 1e-9

# Anchors of the closed forms: greedy_ratio(2) and ls_bound(2).
BOUND_ANCHORS = {"greedy": Fraction(4), "local": Fraction(29, 2)}


def exact(v):
    """Parse a reported number: ints, floats and "p/q" strings."""
    if isinstance(v, str):
        return Fraction(v)
    return v


def _labels_mask(labels) -> int:
    mask = 0
    for i in labels:
        if not isinstance(i, int) or i < 0:
            raise ValueError(f"bad label {i!r}")
        mask |= 1 << i
    return mask


def evaluator(doc: dict):
    """A naive mask evaluator for the function types the workloads write."""
    spec = doc["function"]
    params = spec["params"]
    kind = spec["type"]
    if kind == "dispersion":
        d = params["distances"]
        n = len(d)

        def dispersion(mask):
            idx = [i for i in range(n) if mask >> i & 1]
            return sum(d[u][v] for u, v in combinations(idx, 2))

        return dispersion
    if kind == "threshold":
        k, bonus = params["k"], params["B"]
        return lambda mask: bonus if bin(mask).count("1") >= k else 0
    if kind == "max_cut" and "star_n" in params:
        spokes = params["star_n"]
        hubs = (spokes, spokes + 1)
        edges = [(h, u) for h in hubs for u in range(spokes)]
        return lambda mask: sum(1 for u, v in edges if (mask >> u & 1) != (mask >> v & 1))
    raise ValueError(f"no reference evaluator for {kind!r}")


def ws_sides(f, S: int, T: int):
    """Both sides of |T| f(S) + |S| f(T) >= |S&T| f(S|T) + |S|T| f(S&T)."""

    def size(m):
        return bin(m).count("1")

    union, inter = S | T, S & T
    lhs = size(T) * f(S) + size(S) * f(T)
    rhs = size(inter) * f(union) + size(union) * f(inter)
    return lhs, rhs


def pairs_before(S: int, T: int, n: int) -> int:
    """Pairs the exhaustive scan visits up to and including (S, T).

    The scan runs S = 0, 1, ... and for each S every T in S..2^n - 1.
    """
    total = 1 << n
    return S * total - S * (S - 1) // 2 + (T - S + 1)


class Verifier:
    def __init__(self):
        self._doc: tuple[str, dict] | None = None
        self._exact_bounds: dict[str, dict[int, Fraction]] = {"greedy": {}, "local": {}}

    def doc(self, path: str) -> dict:
        # Only the last instance is kept, so the checks add little to the
        # workload process's peak memory.
        if self._doc is None or self._doc[0] != path:
            with open(path, encoding="utf-8") as fh:
                self._doc = (path, json.loads(fh.read(), parse_float=Fraction))
        return self._doc[1]

    def check(self, expect: dict, code, stdout: str) -> str | None:
        """Reason why the command's output is wrong, or None when it is right."""
        if code is None:
            return "command raised"
        try:
            report = json.loads(stdout)
            result = report["result"]
            return getattr(self, "_" + expect["type"])(expect, code, result)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, expect, code, r) -> str | None:
        n = expect["n"]
        if r["mode"] != "exhaustive" or r["property"] != expect["property"]:
            return "wrong property or mode"
        if r["passed"] is not expect["passed"]:
            return f"verdict {r['passed']}, expected {expect['passed']}"
        if code != (0 if expect["passed"] else 1):
            return f"exit code {code}"
        if expect["passed"]:
            if r["witness"] is not None:
                return "pass with a witness"
            if expect["property"] == "monotone":
                want = n * 2 ** (n - 1)
            else:
                want = (4**n + 2**n) // 2
            if r["pairs_checked"] != want:
                return f"pairs_checked {r['pairs_checked']}, expected {want}"
            return None
        w = r["witness"]
        if w is None or w["kind"] != expect["property"]:
            return "failure without a witness of the checked property"
        S, T = _labels_mask(w["S"]), _labels_mask(w["T"])
        if S > T or T >> n:
            return "witness pair outside the scan"
        lhs, rhs = ws_sides(evaluator(self.doc(expect["instance"])), S, T)
        if (exact(w["lhs"]), exact(w["rhs"])) != (lhs, rhs):
            return f"witness sides {w['lhs']}, {w['rhs']} recompute to {lhs}, {rhs}"
        if not lhs < rhs:
            return "witness does not violate the inequality"
        if r["pairs_checked"] != pairs_before(S, T, n):
            return f"pairs_checked {r['pairs_checked']} disagrees with the witness position"
        return None

    def _maximize(self, expect, code, r) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = self.doc(expect["instance"])
        solve = r["solve"]
        selected = solve["selected"]
        mask = _labels_mask(selected)
        d = doc["function"]["params"]["distances"]
        if len(selected) != len(set(selected)) or mask >> len(d):
            return "selection has repeated or unknown elements"
        want = sum(d[u][v] for u, v in combinations(sorted(selected), 2))
        if exact(solve["value"]) != want:
            return f"value {solve['value']} but the selection sums to {want}"
        constraint = doc["constraint"]
        if constraint["type"] == "uniform":
            if len(selected) != constraint["rank"]:
                return f"{len(selected)} elements selected, rank {constraint['rank']}"
            return None
        blocks, caps = constraint["blocks"], constraint["caps"]
        used = [sum(1 for e in block if mask >> e & 1) for block in blocks]
        if any(u > c for u, c in zip(used, caps)):
            return "selection breaks a partition cap"
        if sum(used) != sum(min(c, len(b)) for b, c in zip(blocks, caps)):
            return "selection is not a basis"
        return None

    def _bench(self, expect, code, r) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows, summary = r["instances"], r["summary"]
        if len(rows) != expect["count"] or summary["param"] != expect["param"]:
            return "wrong row count or parameter"
        ratios = []
        for i, row in enumerate(rows):
            if row["seed"] != expect["seed"] * 1_000_003 + i:
                return f"row {i} has seed {row['seed']}"
            opt, alg = exact(row["opt_value"]), exact(row["alg_value"])
            if opt < alg:
                return f"row {i}: optimum {opt} below the algorithm's {alg}"
            ratio = exact(row["ratio"])
            if alg != 0 and ratio != Fraction(opt) / Fraction(alg):
                return f"row {i}: ratio {row['ratio']} is not {opt}/{alg}"
            ratios.append(float(ratio))
        if summary["within_bound"] is not True:
            return "summary says a ratio exceeds the bound"
        if summary["max_ratio"] != max(ratios) or max(ratios) > summary["bound"]:
            return "max_ratio disagrees with the rows or exceeds the bound"
        return None

    def _bounds(self, expect, code, r) -> str | None:
        if code != 0:
            return f"exit code {code}"
        kind = expect["kind"]
        params = [row["param"] for row in r["rows"]]
        if r["kind"] != kind or params != list(range(expect["lo"], expect["hi"] + 1)):
            return "wrong table kind or parameters"
        reference = self._exact_bounds[kind]
        for row in r["rows"]:
            value = exact(row["bound"])
            if not value > 1:
                return f"bound {value} at {row['param']} is not above 1"
            if expect["exact"]:
                if not isinstance(value, Fraction):
                    return "exact table holds a non-rational value"
                reference[row["param"]] = value
            want = BOUND_ANCHORS[kind] if row["param"] == 2 else reference.get(row["param"])
            if want is not None and abs(value - want) > RELATIVE_TOL * max(1, abs(want)):
                return f"bound at {row['param']} is {value}, expected {want}"
        return None
