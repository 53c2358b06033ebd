"""Per-layer tracing from outside the package.

``Tracer.install()`` wraps, in this process only, the public callables that
``weaksub.cli`` reaches: instance parsing and building, the checkers, the
solvers, the zoo generators, the bounds tables, and the hot counters
``SetFunction.value``, the evaluators handed to ``SetFunction`` and
``Matroid.is_independent_mask``.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, command id, counter deltas, extras) are
kept in memory and written out once by the caller.  ``layer_metrics`` turns
them into the per-layer numbers, per round of the workload.
"""

from __future__ import annotations

import time

from weaksub import bounds, cli, core, instances, matroid, zoo

# Span record fields.
NAME, START, END, PARENT, COMMAND, ORACLE, EVALS, INDEP, EXTRA = range(9)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.command = None
        self.oracle_calls = 0
        self.evaluator_calls = 0
        self.outer_evaluations = 0
        self.evaluation_ns = 0
        self.indep_calls = 0
        self._eval_depth = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(
            [name, time.perf_counter_ns(), None, parent, self.command,
             self.oracle_calls, self.evaluator_calls, self.indep_calls, None]
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[ORACLE] = self.oracle_calls - span[ORACLE]
        span[EVALS] = self.evaluator_calls - span[EVALS]
        span[INDEP] = self.indep_calls - span[INDEP]
        span[EXTRA] = extra
        self._stack.pop()

    def _spanned(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, extra(result) if extra and result is not None else None)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self) -> None:
        tracer = self
        SetFunction = core.SetFunction

        value = SetFunction.value

        def counted_value(self, mask):
            tracer.oracle_calls += 1
            return value(self, mask)

        init = SetFunction.__init__

        def traced_init(self, ground, evaluator, **kwargs):
            init(self, ground, tracer._counted_evaluator(evaluator), **kwargs)

        is_independent_mask = matroid.Matroid.is_independent_mask

        def counted_independence(self, mask):
            tracer.indep_calls += 1
            return is_independent_mask(self, mask)

        self._patch(SetFunction, "value", counted_value)
        self._patch(SetFunction, "__init__", traced_init)
        self._patch(matroid.Matroid, "is_independent_mask", counted_independence)
        self._patch(SetFunction, "all_values", self._spanned("core.all_values", SetFunction.all_values))
        self._patch(instances, "parse_json", self._spanned("instances.parse", instances.parse_json))
        self._patch(
            instances.Instance, "__init__", self._spanned("instances.build", instances.Instance.__init__)
        )
        for name in list(core.CHECKERS):
            self._patch(
                core.CHECKERS,
                name,
                self._spanned("core.check", core.CHECKERS[name], lambda r: {"pairs": r.pairs_checked}),
            )
        self._patch(cli, "greedy_cardinality", self._spanned("solve.greedy", cli.greedy_cardinality))
        self._patch(
            cli,
            "local_search_matroid",
            self._spanned("solve.local", cli.local_search_matroid, lambda r: {"swaps": r.iterations}),
        )
        for name in ("brute_force_cardinality", "brute_force_matroid"):
            self._patch(
                cli, name, self._spanned("solve.brute", getattr(cli, name), lambda r: {"enumerated": r.enumerated})
            )
        for name in ("random_metric", "random_segmentation", "random_coverage"):
            self._patch(zoo, name, self._spanned("zoo.generate", getattr(zoo, name)))
        for name in ("greedy_ratio_table", "ls_bound_table"):
            self._patch(
                bounds, name, self._spanned("bounds.table", getattr(bounds, name), lambda t: {"rows": len(t.rows)})
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _counted_evaluator(self, evaluator):
        # Evaluators nest (a combination evaluates its terms through their
        # oracles), so only the outermost call is timed.
        tracer = self

        def counted(mask):
            tracer.evaluator_calls += 1
            if tracer._eval_depth:
                return evaluator(mask)
            tracer._eval_depth = 1
            start = time.perf_counter_ns()
            try:
                return evaluator(mask)
            finally:
                tracer.evaluation_ns += time.perf_counter_ns() - start
                tracer.outer_evaluations += 1
                tracer._eval_depth = 0

        return counted

    def counters(self) -> dict:
        return {
            "oracle_calls": self.oracle_calls,
            "evaluator_calls": self.evaluator_calls,
            "outer_evaluations": self.outer_evaluations,
            "evaluation_ns": self.evaluation_ns,
            "indep_calls": self.indep_calls,
        }


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], counters: dict, rounds: int, output_bytes: int) -> dict:
    """Per-layer metrics per round of the workload.

    Times are seconds per round; counts are calls per round, identical in
    every round because every round replays the same commands.
    """
    own = self_times(spans)
    total = {}
    self_total = {}
    extra = {}
    oracle_in = {}
    for s, own_ns in zip(spans, own):
        name = s[NAME]
        total[name] = total.get(name, 0) + s[END] - s[START]
        self_total[name] = self_total.get(name, 0) + own_ns
        oracle_in[name] = oracle_in.get(name, 0) + s[ORACLE]
        for key, value in (s[EXTRA] or {}).items():
            extra[key] = extra.get(key, 0) + value

    def secs(name):
        return total.get(name, 0) / 1e9 / rounds

    def per_round(count):
        return count // rounds if count % rounds == 0 else count / rounds

    command_ns = total.get("cli.command", 0)
    oracle, evals = counters["oracle_calls"], counters["evaluator_calls"]
    pairs = extra.get("pairs", 0)
    table_ns = total.get("bounds.table", 0)
    return {
        "instances.parse_s": secs("instances.parse"),
        "instances.build_s": secs("instances.build"),
        "instances.share": (
            (total.get("instances.parse", 0) + total.get("instances.build", 0)) / command_ns
            if command_ns else 0.0
        ),
        "zoo.generate_s": secs("zoo.generate"),
        "core.oracle_calls": per_round(oracle),
        "core.evaluator_calls": per_round(evals),
        "core.memo_hit_ratio": 1 - evals / oracle if oracle else 0.0,
        "core.ns_per_evaluation": (
            counters["evaluation_ns"] / counters["outer_evaluations"] if counters["outer_evaluations"] else 0.0
        ),
        "core.check_s": secs("core.check"),
        "core.pairs_checked": per_round(pairs),
        "core.ns_per_pair": self_total.get("core.check", 0) / pairs if pairs else 0.0,
        "core.all_values_s": secs("core.all_values"),
        "matroid.indep_calls": per_round(counters["indep_calls"]),
        "solve.greedy_s": secs("solve.greedy"),
        "solve.local_s": secs("solve.local"),
        "solve.brute_s": secs("solve.brute"),
        "solve.greedy_oracle_calls": per_round(oracle_in.get("solve.greedy", 0)),
        "solve.local_swaps": per_round(extra.get("swaps", 0)),
        "solve.local_oracle_calls": per_round(oracle_in.get("solve.local", 0)),
        "solve.brute_enumerated": per_round(extra.get("enumerated", 0)),
        "bounds.table_s": secs("bounds.table"),
        "bounds.rows_per_s": extra.get("rows", 0) / (table_ns / 1e9) if table_ns else 0.0,
        "cli.self_s": self_total.get("cli.command", 0) / 1e9 / rounds,
        "cli.output_bytes": per_round(output_bytes),
    }
