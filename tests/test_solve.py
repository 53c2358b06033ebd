import heapq
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import add
from random import Random

import pytest

from weaksub import (
    CapExceeded,
    check_normalized_nonnegative,
    GroundSet,
    GroundSetMismatch,
    SetFunction,
    Subset,
    brute_force_cardinality,
    brute_force_matroid,
    greedy_cardinality,
    local_search_matroid,
)
from weaksub import core
from weaksub.bounds import greedy_ratio, ls_bound
from weaksub.core import violates
from weaksub.instances import _on_declared_ground
from weaksub.matroid import Matroid, random_partition_matroid
from weaksub.zoo import (
    DistanceMatrix,
    Graph,
    SegmentationMatrix,
    _SparseRow,
    cardinality_polynomial,
    cardinality_power,
    complement,
    coverage,
    linear,
    linear_combination,
    max_cut,
    metric_dispersion,
    msd_objective,
    random_coverage,
    random_metric,
    random_segmentation,
    raw_cardinality_profile,
    segmentation,
    star_counterexample,
    threshold,
    zero_at_top,
)


def _recording_reads(f):
    """``f`` with ``f.value`` wrapped to record every mask it is read at."""
    reads = []
    value = f.value
    f.value = lambda mask: reads.append(mask) or value(mask)
    return f, reads


class TestGreedy:
    def test_p_zero_returns_empty(self):
        f = metric_dispersion(random_metric(5, 1))
        res = greedy_cardinality(f, 0)
        assert res.selected.cardinality == 0
        assert res.value == 0
        assert res.trace == ()

    def test_modular_picks_top_weights(self):
        f = linear((5, 1, 9, 7, 3))
        res = greedy_cardinality(f, 3)
        assert set(res.selected.indices()) == {0, 2, 3}
        assert res.value == 21
        opt = brute_force_cardinality(f, 3)
        assert opt.value == res.value

    def test_tie_break_smallest_index(self):
        f = linear((2, 2, 2, 2))
        res = greedy_cardinality(f, 2)
        assert res.selected.indices() == (0, 1)
        assert [step[1] for step in res.trace] == [0, 1]

    def test_trace_values_non_decreasing(self):
        f = segmentation(random_segmentation(7, 4, 5))
        res = greedy_cardinality(f, 5)
        values = [v for _, _, v in res.trace]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert res.value == f.evaluate(res.selected)

    def test_p_out_of_range(self):
        f = linear((1, 2))
        with pytest.raises(ValueError):
            greedy_cardinality(f, 3)
        with pytest.raises(ValueError):
            greedy_cardinality(f, -1)

    @pytest.mark.parametrize("p", [1.5, 2.0, True, False, "2", None])
    def test_p_must_be_an_int(self, p):
        with pytest.raises(ValueError, match="p must be an integer"):
            greedy_cardinality(linear((1, 2, 3, 4)), p)

    def test_claims_are_enforced_when_present(self):
        cut = max_cut(star_counterexample(2))  # not monotone, claims say so
        with pytest.raises(ValueError):
            greedy_cardinality(cut, 2)
        # Claim-free functions are the caller's responsibility and run fine.
        bar = complement(linear((1, 2, 3)))
        assert greedy_cardinality(bar, 1).selected.cardinality == 1

    def test_ratio_respects_analytic_bound(self):
        f = metric_dispersion(random_metric(8, 12))
        res = greedy_cardinality(f, 3)
        opt = brute_force_cardinality(f, 3)
        assert opt.value >= res.value
        assert float(opt.value) <= greedy_ratio(3) * float(res.value)

    def test_determinism(self):
        f = metric_dispersion(random_metric(7, 33))
        a = greedy_cardinality(f, 4)
        b = greedy_cardinality(metric_dispersion(random_metric(7, 33)), 4)
        assert a == b

    # Traces and certificates recorded from the standalone cardinality loop
    # that the shared greedy-basis loop replaced.
    @pytest.mark.parametrize(
        "build, trace, selected, value",
        [
            (
                lambda: metric_dispersion(random_metric(8, 5)),
                ((1, 0, 0), (2, 3, 6), (3, 5, 15), (4, 1, 29)),
                (0, 1, 3, 5),
                29,
            ),
            (
                lambda: segmentation(random_segmentation(8, 6, 5)),
                ((1, 1, 31), (2, 0, 44), (3, 3, 49), (4, 2, 50)),
                (0, 1, 2, 3),
                50,
            ),
            (
                lambda: msd_objective(random_coverage(8, 5), random_metric(8, 6)),
                ((1, 2, 18), (2, 5, 31), (3, 3, 40), (4, 7, 56)),
                (2, 3, 5, 7),
                56,
            ),
        ],
    )
    def test_pinned_trace_and_certificate(self, build, trace, selected, value):
        res = greedy_cardinality(build(), 4)
        assert res.trace == trace
        assert res.selected.indices() == selected
        assert res.value == value
        assert res.iterations == 4
        assert res.certificate == {
            "algorithm": "greedy_cardinality",
            "p": 4,
            "tie_break": "smallest-index",
            "deterministic": True,
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_start_of_local_search(self, seed):
        for f in (
            metric_dispersion(random_metric(8, seed)),
            segmentation(random_segmentation(8, 5, seed)),
        ):
            res = greedy_cardinality(f, 3)
            start = local_search_matroid(f, Matroid.uniform(f.ground, 3), max_iters=0)
            assert start.selected == res.selected
            assert start.trace == ((0, None, res.value),)

    @pytest.mark.parametrize("n, p", [(0, 0), (5, 0), (5, 1), (7, 3), (8, 8)])
    def test_reads_each_set_once(self, n, p):
        # One read of the empty set, then n - i candidates at step i, through
        # the generic state: Fraction distances offer no state of their own.
        f, reads = _recording_reads(
            metric_dispersion(_quarters(random_metric(n, 3))) if n else linear(())
        )
        res = greedy_cardinality(f, p)
        assert len(reads) == 1 + p * n - p * (p - 1) // 2
        assert len(set(reads)) == len(reads)
        assert res.value == SetFunction.value(f, res.selected.mask)

    def test_lazy_greedy_is_unsound_for_dispersion(self):
        # Points on a line at 0, 1, 3, 2: d(0, 1) = 1 < d(0, 2) = 3.
        pos = (0, 1, 3, 2)
        f = metric_dispersion(DistanceMatrix(tuple(tuple(abs(a - b) for b in pos) for a in pos)))

        def lazy_greedy(p):
            # Minoux: a stale gain is kept as an upper bound on the current one.
            heap = [(-f.value(1 << e), e) for e in range(f.ground.n)]
            heapq.heapify(heap)
            mask = 0
            while mask.bit_count() < p:
                _, e = heapq.heappop(heap)
                gain = f.value(mask | 1 << e) - f.value(mask)
                if not heap or gain >= -heap[0][0]:
                    mask |= 1 << e
                else:
                    heapq.heappush(heap, (-gain, e))
            return mask

        # Unsound here: dispersion's marginals grow with the set, so stale gains are no bounds.
        res = greedy_cardinality(f, 2)
        assert res.selected.indices() == (0, 2) and res.value == 3
        assert lazy_greedy(2) == 0b0011 and f.value(0b0011) == 1 < res.value


class TestLocalSearch:
    def test_modular_uniform_converges_to_top_elements(self):
        f = linear((5, 1, 9, 7, 3))
        m = Matroid.uniform(f.ground, 2)
        res = local_search_matroid(f, m)
        assert set(res.selected.indices()) == {2, 3}
        assert res.value == 16

    def test_result_is_a_basis_and_locally_optimal(self):
        f = metric_dispersion(random_metric(8, 21))
        m = Matroid.uniform(f.ground, 3)
        res = local_search_matroid(f, m, epsilon=0)
        mask = res.selected.mask
        assert res.selected.cardinality == m.rank
        for u in range(8):
            if mask >> u & 1:
                continue
            for v in range(8):
                if not mask >> v & 1:
                    continue
                swapped = (mask | 1 << u) & ~(1 << v)
                if m.is_independent_mask(swapped):
                    assert f.value(swapped) <= f.value(mask)

    def test_trace_strictly_increasing(self):
        f = metric_dispersion(random_metric(9, 2))
        m = random_partition_matroid(9, 3, 8)
        res = local_search_matroid(f, m, init=Subset.empty(f.ground))
        values = [v for _, _, v in res.trace]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert res.iterations == len(res.trace) - 1

    def test_keeps_the_values_it_evaluates(self):
        # Fraction distances, so the reads go through the generic state.
        f, reads = _recording_reads(metric_dispersion(_quarters(random_metric(9, 2))))
        res = local_search_matroid(f, random_partition_matroid(9, 3, 8))
        assert res.iterations > 0 and reads
        assert all(a != b for a, b in zip(reads, reads[1:]))
        assert res.value == SetFunction.value(f, res.selected.mask)
        assert res.trace[-1][2] == res.value

    def test_ratio_respects_analytic_bound(self):
        f = metric_dispersion(random_metric(8, 3))
        m = Matroid.uniform(f.ground, 3)
        res = local_search_matroid(f, m, epsilon=0)
        opt = brute_force_matroid(f, m)
        assert opt.value >= res.value
        assert float(opt.value) <= ls_bound(3) * float(res.value)

    def test_partition_constraint_respected(self):
        f = metric_dispersion(random_metric(8, 44))
        m = random_partition_matroid(8, 3, 45)
        res = local_search_matroid(f, m)
        assert m.is_independent(res.selected)
        assert res.selected.cardinality == m.rank

    def test_max_iters_truncates(self):
        f = metric_dispersion(random_metric(8, 6))
        m = Matroid.uniform(f.ground, 3)
        res = local_search_matroid(f, m, init=Subset.empty(f.ground), max_iters=1)
        assert res.iterations <= 1

    def test_zero_max_iters_keeps_the_greedy_basis(self):
        f = metric_dispersion(random_metric(8, 1))  # greedy's basis is not a local optimum
        m = Matroid.uniform(f.ground, 3)
        res = local_search_matroid(f, m, max_iters=0)
        assert res.iterations == 0 and local_search_matroid(f, m).iterations > 0
        assert res.selected == greedy_cardinality(f, 3).selected

    @pytest.mark.parametrize("max_iters", [-1, 0.5, 1.0, Fraction(1), True, False, "1"])
    def test_max_iters_must_be_none_or_a_count(self, max_iters):
        f = metric_dispersion(random_metric(8, 6))
        with pytest.raises(ValueError, match="max_iters"):
            local_search_matroid(f, Matroid.uniform(f.ground, 3), max_iters=max_iters)

    def test_dependent_init_rejected(self):
        f = metric_dispersion(random_metric(6, 7))
        m = Matroid.uniform(f.ground, 2)
        with pytest.raises(ValueError):
            local_search_matroid(f, m, init=Subset.from_indices(f.ground, (0, 1, 2)))

    def test_partial_init_extended_to_basis(self):
        f = metric_dispersion(random_metric(6, 8))
        m = Matroid.uniform(f.ground, 3)
        res = local_search_matroid(f, m, init=Subset.from_indices(f.ground, (5,)))
        assert res.selected.cardinality == 3

    def test_epsilon_threshold_semantics(self):
        f = metric_dispersion(random_metric(8, 51))
        m = Matroid.uniform(f.ground, 3)
        exact = local_search_matroid(f, m, epsilon=0)
        loose = local_search_matroid(f, m, epsilon=Fraction(1, 2))
        # A looser threshold can stop earlier but never later.
        assert loose.iterations <= exact.iterations
        assert loose.value <= exact.value

    def test_negative_epsilon_rejected(self):
        f = linear((1, 2, 3))
        with pytest.raises(ValueError):
            local_search_matroid(f, Matroid.uniform(f.ground, 1), epsilon=-1)

    @pytest.mark.parametrize(
        "rank, epsilon, max_iters",
        [
            (4, Fraction(1, 2), None),
            (4, 0.25, 1000),
            (5, Fraction(1, 2), 1000),
            (5, 0.25, 1000),
            (6, Fraction(1, 2), 1000),
            (6, 0.25, 1000),
        ],
    )
    def test_epsilon_on_negative_values_stops(self, rank, epsilon, max_iters):
        # Every basis has the same negative value, and (1 + epsilon) times a
        # negative value lies below it: an equal-valued swap must not count
        # as an improvement, or the search cycles until max_iters.
        f = raw_cardinality_profile([0, 3, -1], 7)
        res = local_search_matroid(
            f, Matroid.uniform(f.ground, rank), epsilon=epsilon, max_iters=max_iters
        )
        assert res.iterations == 0
        assert res.value == 3 * rank - rank * rank

    def test_determinism(self):
        f = segmentation(random_segmentation(8, 5, 61))
        m = random_partition_matroid(8, 3, 62)
        a = local_search_matroid(f, m)
        b = local_search_matroid(f, m)
        assert a == b


def _two_tied_pairs():
    """Claim-free: 1 on {0, 3} and {1, 2}, 0 elsewhere."""
    return SetFunction(GroundSet.of_size(4), lambda mask: int(mask in (0b1001, 0b0110)))


class TestBruteForceCardinality:
    def test_full_size_returns_universe_value(self):
        f = segmentation(random_segmentation(6, 3, 71))
        opt = brute_force_cardinality(f, 6)
        assert opt.value == f.value(f.ground.full_mask)

    def test_best_singleton(self):
        f = linear((2, 9, 4))
        opt = brute_force_cardinality(f, 1)
        assert opt.optimum.indices() == (1,)
        assert opt.value == 9

    def test_cap(self):
        f = linear((1,) * 25)
        with pytest.raises(CapExceeded):
            brute_force_cardinality(f, 3)

    @pytest.mark.parametrize("p", [-1, 4])
    def test_p_outside_the_sizes_refused(self, p):
        with pytest.raises(ValueError, match=r"p must be in 0\.\.3"):
            brute_force_cardinality(linear((1, 2, 3)), p)

    def test_enumeration_counts(self):
        f = linear((1, 2, 3, 4))
        assert brute_force_cardinality(f, 2).enumerated == 1 + 4 + 6

    def test_first_maximizer_in_size_then_lexicographic_order(self):
        f = _two_tied_pairs()
        assert brute_force_cardinality(f, 2).optimum.indices() == (0, 3)

    @pytest.mark.parametrize("p", [2.5, 2.0, True, False, "2", None])
    def test_p_must_be_an_int(self, p):
        # Builder tables (dispersion, linear) and the generic table.
        for f in (
            metric_dispersion(DistanceMatrix.unit(6)),
            linear((1, 2, 3, 4, 5, 6)),
            complement(linear((1, 2, 3, 4, 5, 6))),
        ):
            with pytest.raises(ValueError, match="integer"):
                brute_force_cardinality(f, p)


class TestBruteForceMatroid:
    def test_unit_metric_all_k_sets_equal(self):
        f = metric_dispersion(DistanceMatrix.unit(6))
        for k in (2, 3, 4):
            opt = brute_force_matroid(f, Matroid.uniform(f.ground, k))
            assert (opt.optimum.mask, opt.value) == ((1 << k) - 1, k * (k - 1) // 2)

    def test_uniform_matches_the_naive_scan_of_its_bases(self):
        f = metric_dispersion(random_metric(7, 81))
        opt = brute_force_matroid(f, Matroid.uniform(f.ground, 3))
        assert _outcome(opt) == _naive_uniform_bases(f, 3)

    def test_single_basis_matroid(self):
        g = GroundSet.of_size(4)
        m = Matroid.partition(g, [[0], [1], [2, 3]], [1, 1, 0])
        f = linear((1, 2, 3, 4))
        opt = brute_force_matroid(f, m)
        assert opt.optimum.indices() == (0, 1)

    def test_dominates_local_search_on_random_instances(self):
        rng = Random(13)
        for _ in range(10):
            f = metric_dispersion(random_metric(8, rng.randrange(10**6)))
            m = random_partition_matroid(8, 3, rng.randrange(10**6))
            opt = brute_force_matroid(f, m)
            res = local_search_matroid(f, m)
            assert opt.value >= res.value

    def test_ground_mismatch(self):
        f = linear((1, 2, 3))
        m = Matroid.uniform(GroundSet.of_size(4), 2)
        with pytest.raises(ValueError):
            brute_force_matroid(f, m)

    @pytest.mark.parametrize("solver", [brute_force_matroid, local_search_matroid])
    def test_ground_mismatch_is_a_ground_set_mismatch(self, solver):
        f = linear((1, 2, 3))
        m = Matroid.uniform(GroundSet(("a", "b", "c")), 2)
        with pytest.raises(GroundSetMismatch, match="must share a ground set"):
            solver(f, m)

    def test_first_maximizer_in_ascending_mask_order(self):
        f = _two_tied_pairs()
        assert brute_force_matroid(f, Matroid.uniform(f.ground, 2)).optimum.indices() == (1, 2)

    def test_tie_rules_of_the_two_brute_forces(self):
        # {0, 3} and {1, 2} both have value 3.  Over the bases of a uniform
        # matroid the least mask, 6 = {1, 2}, is kept; over the sets of size
        # <= 2 the first index tuple, (0, 3) = mask 9.
        d = [[0, 2, 1, 3], [2, 0, 3, 1], [1, 3, 0, 2], [3, 1, 2, 0]]
        f = metric_dispersion(DistanceMatrix(d))
        by_bases = brute_force_matroid(f, Matroid.uniform(f.ground, 2))
        by_size = brute_force_cardinality(f, 2)
        assert (by_bases.optimum.mask, by_bases.value, by_bases.enumerated) == (6, 3, 6)
        assert (by_size.optimum.mask, by_size.value, by_size.enumerated) == (9, 3, 11)

    def test_partition_enumeration_count(self):
        g = GroundSet.of_size(6)
        m = Matroid.partition(g, [[0, 1], [2, 3, 4], [5]], [1, 2, 1])
        opt = brute_force_matroid(linear((1, 2, 3, 4, 5, 6)), m)
        assert opt.enumerated == 2 * 3 * 1
        assert opt.optimum.indices() == (1, 3, 4, 5)


class TestCombinedObjectives:
    def test_msd_style_combination_under_both_solvers(self):
        quality = random_coverage(8, 90)
        f = linear_combination(
            [quality, metric_dispersion(random_metric(8, 91))], [1, 1]
        )
        res_g = greedy_cardinality(f, 3)
        opt_g = brute_force_cardinality(f, 3)
        assert opt_g.value >= res_g.value
        assert float(opt_g.value) <= greedy_ratio(3) * float(res_g.value)

        m = Matroid.uniform(f.ground, 3)
        res_l = local_search_matroid(f, m)
        opt_l = brute_force_matroid(f, m)
        assert opt_l.value >= res_l.value
        assert float(opt_l.value) <= ls_bound(3) * float(res_l.value)


def _first_maximizer(f, masks):
    """The first of ``masks`` whose ``f.value`` nothing later exceeds:
    (mask, value, value type, number of masks)."""
    best = None
    for mask in masks:
        v = f.value(mask)
        if best is None or v > best[1]:
            best = (mask, v)
    return best[0], best[1], type(best[1]), len(masks)


def _naive_brute_force(f, p):
    """Size-major first maximizer of the sets of size <= p, in index-tuple order."""
    elements = range(f.ground.n)
    return _first_maximizer(
        f, [sum(1 << i for i in c) for k in range(p + 1) for c in combinations(elements, k)]
    )


def _naive_uniform_bases(f, p):
    """First maximizer of the sets of size p in ascending mask order: the
    least mask of greatest value (n <= 18, ``brute_force_matroid``'s cap)."""
    return _first_maximizer(f, [m for m in range(1 << f.ground.n) if m.bit_count() == p])


def _quarters(dist):
    return DistanceMatrix(tuple(tuple(Fraction(x, 4) for x in row) for row in dist.d))


def _upper_fractions(dist):
    """Equal values, mixed types: Fraction above the diagonal, int below."""
    d = dist.d
    n = len(d)
    return DistanceMatrix(
        tuple(tuple(Fraction(d[i][j]) if i < j else d[i][j] for j in range(n)) for i in range(n))
    )


def _odd_rows_fractions(matrix):
    """Equal values, mixed types: every odd row holds Fractions, so column ties mix types."""
    return SegmentationMatrix(
        tuple(
            tuple(Fraction(x) for x in row) if i % 2 else row for i, row in enumerate(matrix.m)
        )
    )


def _tied_segmentation():
    return SegmentationMatrix(
        ((2, 1, 0), (Fraction(2), 1, 0), (0, Fraction(1), 2), (0, 1, 2), (1, 1, 1))
    )


def _exact_quarters(dist):
    """Distances divided by 4: the integral ones stay ints, the rest are Fractions,
    as an instance file's decimal quarters parse."""
    return DistanceMatrix(
        tuple(tuple(x // 4 if x % 4 == 0 else Fraction(x, 4) for x in row) for row in dist.d)
    )


def _cut_graph(weights):
    """A graph on 6 vertices: a 6-cycle, then chords, one edge per weight."""
    pairs = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4))
    return Graph(6, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))


# Builders that pass their own table, which makes no evaluator call.  Int,
# Fraction, float and mixed inputs, several with ties.
_DIRECT_BUILDERS = {
    "linear-int": lambda: linear((3, 1, 4, 1, 5, 9, 2)),
    "linear-int-zeros": lambda: linear((3, 0, 3, 0, 0, 2)),
    "linear-fraction": lambda: linear(tuple(Fraction(k, 3) for k in (2, 5, 1, 5, 4, 0))),
    "linear-mixed-tie": lambda: linear((Fraction(2), 2, 0, Fraction(1, 2), 2)),
    "coverage-int": lambda: random_coverage(7, 3),
    "coverage-fraction": lambda: coverage(
        [[0, 1], [1, 2], [3], [0, 3], [2], []], {j: Fraction(j + 1, 2) for j in range(4)}
    ),
    "coverage-mixed": lambda: coverage(
        [[0, 1], [1, 2], [3], [0, 3], [2]], {0: 1, 1: Fraction(1), 2: Fraction(3, 2), 3: 2}
    ),
    "coverage-float": lambda: coverage(
        [[0, 1], [1, 2], [3], [0, 3], [2], [1]], {0: 0.5, 1: 1.25, 2: 0.1, 3: 2.0}
    ),
    "dispersion-int": lambda: metric_dispersion(random_metric(7, 4)),
    "dispersion-unit": lambda: metric_dispersion(DistanceMatrix.unit(7)),
    "dispersion-quarters": lambda: metric_dispersion(_quarters(random_metric(7, 5))),
    "dispersion-mixed": lambda: metric_dispersion(_upper_fractions(random_metric(7, 6, high=2))),
    "segmentation-int": lambda: segmentation(random_segmentation(7, 4, 7)),
    "segmentation-mixed": lambda: segmentation(
        _odd_rows_fractions(random_segmentation(7, 4, 8, -2, 3))
    ),
    "segmentation-fraction": lambda: segmentation(
        SegmentationMatrix(
            tuple(tuple(Fraction(x, 3) for x in row) for row in random_segmentation(6, 3, 15).m)
        )
    ),
    "segmentation-tied": lambda: segmentation(_tied_segmentation()),
    "combination-int": lambda: msd_objective(random_coverage(7, 9), random_metric(7, 10)),
    "combination-fraction": lambda: linear_combination(
        [metric_dispersion(_quarters(random_metric(6, 11))), linear((1, 2, 0, 2, 1, 1))],
        [Fraction(1, 3), 2],
    ),
    "combination-mixed": lambda: linear_combination(
        [
            segmentation(_odd_rows_fractions(random_segmentation(6, 3, 12))),
            metric_dispersion(_upper_fractions(random_metric(6, 13, high=2))),
        ],
        [1, Fraction(1)],
    ),
    "linear-float": lambda: linear((0.5, 1.5, 0.25, 1.5, 1.0)),
    "segmentation-float": lambda: segmentation(
        SegmentationMatrix(((1.5, 0.0), (0.5, 2.0), (1.5, 2.0)))
    ),
    # Column ties of 1 against 1.0 and 0.0 against -0.0 (and 0 against -0.0).
    "segmentation-float-ties": lambda: segmentation(
        SegmentationMatrix(
            ((1, 0.0, 2, 0), (1.0, -0.0, 0.5, -0.0), (0.5, -0.0, 3, 0), (1, 0.0, 1, 0.0))
        )
    ),
    "combination-float-alpha": lambda: linear_combination([linear((1, 2, 3, 4, 5))], [0.5]),
    "threshold": lambda: threshold(2, 3, 7),
    "threshold-fraction": lambda: threshold(3, Fraction(5, 2), 6),
    "threshold-fraction-whole": lambda: threshold(1, Fraction(2), 6),
    "threshold-above-n": lambda: threshold(9, 4, 6),
    "threshold-float": lambda: threshold(1, 0.5, 5),
    "cardinality-power": lambda: cardinality_power(2, 7),
    "cardinality-power-zero": lambda: cardinality_power(0, 5),
    "cardinality-poly-int": lambda: cardinality_polynomial((0, 2, 1, 1), 7),
    "cardinality-poly-fraction": lambda: cardinality_polynomial(
        (0, Fraction(3, 2), Fraction(1, 4)), 6
    ),
    "cardinality-poly-float": lambda: cardinality_polynomial((0, 0.5, 0.25), 6),
    "cardinality-poly-empty": lambda: cardinality_polynomial((), 5),
    "cardinality-profile": lambda: raw_cardinality_profile([0, 3, -1], 7),
    "dispersion-quarters-mixed": lambda: metric_dispersion(
        _exact_quarters(random_metric(8, 21, high=12))
    ),
    "max-cut-int": lambda: max_cut(_cut_graph((2, 0, 5, 1, 3, 3, 1, 4))),
    "max-cut-star": lambda: max_cut(star_counterexample(4)),
    # Parallel edges in both orientations, a zero weight; 3, 5 and 6 are isolated.
    "max-cut-parallel": lambda: max_cut(
        Graph(7, ((0, 1, 2), (1, 0, 3), (0, 1, 1), (2, 4, 5), (4, 2, 1), (1, 4, 0)))
    ),
}

# Builders whose table is the generic one through ``value``: float
# dispersion, max-cut with a Fraction or float weight,
# complement, zero-at-top and hand-built functions.
_GENERIC_BUILDERS = {
    "dispersion-float": lambda: metric_dispersion(
        DistanceMatrix(tuple(tuple(x / 2 for x in row) for row in random_metric(6, 14).d))
    ),
    "max-cut-mixed": lambda: max_cut(_cut_graph((2, Fraction(1, 2), 0, Fraction(3), 1, 2, 1, 1))),
    "max-cut-fraction": lambda: max_cut(_cut_graph(tuple(Fraction(w, 3) for w in (1, 3, 2, 0)))),
    "max-cut-float": lambda: max_cut(_cut_graph((1.5, 2, 0.5, 1))),
    "complement": lambda: complement(linear((1, 2, 3, 1, 2))),
    "zero-at-top": lambda: zero_at_top(metric_dispersion(random_metric(6, 16))),
    "two-tied-pairs": _two_tied_pairs,
}
_ALL_BUILDERS = {**_DIRECT_BUILDERS, **_GENERIC_BUILDERS}


class TestBruteForceCardinalityDifferential:
    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_matches_naive_first_maximizer(self, name):
        build = _ALL_BUILDERS[name]
        n = build().ground.n
        for p in sorted({0, 1, 3, n}):
            f, calls = _counting(build())
            assert _outcome(brute_force_cardinality(f, p)) == _naive_brute_force(build(), p), p
            assert (calls == []) == (name in _DIRECT_BUILDERS)
            f = build()
            by_bases = brute_force_matroid(f, Matroid.uniform(f.ground, p))
            assert _outcome(by_bases) == _naive_uniform_bases(build(), p), p

    @pytest.mark.parametrize("name", sorted(_DIRECT_BUILDERS))
    def test_extend_leaves_the_memo_empty(self, name):
        # A builder table leaves the memo empty.
        f = _DIRECT_BUILDERS[name]()
        brute_force_cardinality(f, f.ground.n)
        assert f._cache == {}

    def test_generic_path_reads_through_the_memo(self):
        f = complement(linear((1, 2, 3, 1, 2)))
        assert brute_force_cardinality(f, 2).enumerated == 16
        assert len(f._cache) == 16

    def test_ties_across_sizes_keep_the_smaller_set(self):
        # {0, 2} and {0, 1, 2} are both 6; (0, 1, 2) comes first in index order.
        opt = brute_force_cardinality(linear((3, 0, 3, 0)), 4)
        assert opt.optimum.indices() == (0, 2) and opt.value == 6


def _counting(f):
    """``f`` with its evaluator wrapped to record every mask it is called on."""
    calls = []
    evaluator = f._evaluator

    def counted(mask):
        calls.append(mask)
        return evaluator(mask)

    f._evaluator = counted
    return f, calls


class TestAllValuesWalk:
    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_table_equals_value_per_mask(self, name):
        build = _ALL_BUILDERS[name]
        f = build()
        n = f.ground.n
        assert n <= 8
        table = f.all_values()
        reference = [build().value(m) for m in range(1 << n)]
        assert table == reference
        assert [type(v) for v in table] == [type(v) for v in reference]

    @pytest.mark.parametrize("name", sorted(_DIRECT_BUILDERS))
    def test_builder_table_never_calls_the_evaluator(self, name):
        # A builder table makes no evaluator call.
        f, calls = _counting(_DIRECT_BUILDERS[name]())
        f.all_values()
        assert calls == [] and f._cache == {}

    @pytest.mark.parametrize("name", sorted(_GENERIC_BUILDERS))
    def test_generic_walk_evaluates_each_mask_once(self, name):
        f, calls = _counting(_GENERIC_BUILDERS[name]())
        table = f.all_values()
        assert sorted(calls) == list(range(1 << f.ground.n))
        assert f._cache == dict(enumerate(table))
        f.all_values()  # a second table reads the memo
        assert len(calls) == 1 << f.ground.n

    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_labelled_ground_gives_the_same_table(self, name):
        build = _ALL_BUILDERS[name]
        plain = build()
        labels = GroundSet(tuple(f"e{i}" for i in range(plain.ground.n)))
        labelled = _on_declared_ground(build(), labels, plain.name)
        assert labelled.ground == labels
        assert (labelled._table is None) == (plain._table is None)
        ours, reference = labelled.all_values(), plain.all_values()
        assert ours == reference
        assert [type(v) for v in ours] == [type(v) for v in reference]

    def test_empty_ground_set(self):
        for f in (linear(()), threshold(1, 2, 0)):
            assert f.all_values() == [0]
            assert f.table(0) == [0] and f.table(3) == [0]


# More builders that pass their own ``table``, beside ``_DIRECT_BUILDERS``.
_TABLE_BUILDERS = {
    "linear-n0": lambda: linear(()),
    "linear-n1": lambda: linear((Fraction(1, 2),)),
    "linear-n1-negative-zero": lambda: linear((-0.0,)),
    "segmentation-n1": lambda: segmentation(SegmentationMatrix(((3, -1, Fraction(1, 2)),))),
    # No column: every value is the int 0, the sum of no maxima.
    "segmentation-zero-columns": lambda: segmentation(SegmentationMatrix(((), (), ()))),
    "dispersion-n0": lambda: metric_dispersion(DistanceMatrix(())),
    "dispersion-n1": lambda: metric_dispersion(DistanceMatrix(((0,),))),
    "max-cut-star": lambda: max_cut(star_counterexample(5)),
    "max-cut-n0": lambda: max_cut(Graph(0, ())),
    "max-cut-n1": lambda: max_cut(Graph(1, ())),
    "threshold-k3": lambda: threshold(3, 2, 8),
    "threshold-n0": lambda: threshold(1, Fraction(1, 2), 0),
    "card-cube": lambda: cardinality_power(3, 8),
    "card-cube-n1": lambda: cardinality_power(3, 1),
    "card-poly-fraction": lambda: cardinality_polynomial(
        (0, Fraction(1, 2), Fraction(3, 4), Fraction(1, 6)), 7
    ),
    "card-profile-raw": lambda: raw_cardinality_profile([0, 3, -1], 7),
    "coverage-n0": lambda: coverage([]),
    "coverage-n1": lambda: coverage([["a", "b"]], {"a": Fraction(1, 2), "b": 1}),
    "coverage-zero-weights": lambda: coverage(
        [[0], [1], [0, 1], [2], [], [1, 2]], dict.fromkeys(range(3), 0)
    ),
    "coverage-some-zero": lambda: coverage(
        [[0], [1], [0, 1], [2], [], [1, 2], [0, 2]], {0: 0, 1: 2, 2: Fraction(0)}
    ),
    # Float weights summed in the evaluator's item order: -0.0 alone sums
    # to 0.0, and 1e300 swallows 0.1 and 1e-300.
    "coverage-float-extremes": lambda: coverage(
        [[0], [0, 1], [2, 3], [1, 2], [], [3, 0], [1]], {0: -0.0, 1: 0.1, 2: 1e-300, 3: 1e300}
    ),
    "combination-n0": lambda: linear_combination([metric_dispersion(DistanceMatrix(()))], [2]),
    "combination-n1": lambda: linear_combination(
        [threshold(1, 2, 1), cardinality_power(2, 1)], [Fraction(1, 2), 3]
    ),
    "combination-three-terms": lambda: linear_combination(
        [
            coverage(
                [[0, 1], [1], [2], [0, 2], [1, 2], [3], []],
                {0: 1, 1: Fraction(1, 2), 2: 2, 3: 0},
            ),
            metric_dispersion(DistanceMatrix.unit(7)),
            threshold(2, 1, 7),
        ],
        [2, Fraction(1, 3), 1],
    ),
    # Every term is -0.0; ``sum`` starts at the int 0, so every value is 0.0,
    # as the evaluator's, where -0.0 + -0.0 would be -0.0.
    "combination-negative-zero-alpha": lambda: linear_combination(
        [cardinality_power(1, 5), threshold(2, 0.5, 5)], [-0.0, -0.0]
    ),
    # d(0, 3) = d(1, 2) = 2: tied pairs whose mask order and index order disagree.
    "dispersion-tied-pairs": lambda: metric_dispersion(
        DistanceMatrix(((0, 1, 1, 2), (1, 0, 2, 1), (1, 2, 0, 1), (2, 1, 1, 0)))
    ),
    # Terms with the generic table through ``value``: the combination's own
    # evaluator is not called, its terms' are.
    "combination-walked-terms": lambda: linear_combination(
        [complement(linear((1, 2, 3, 1, 2, 2))), _GENERIC_BUILDERS["dispersion-float"]()],
        [1, 0.5],
    ),
}
_ALL_TABLE_BUILDERS = {**_DIRECT_BUILDERS, **_TABLE_BUILDERS}
# The builders that pass their own table, by the name their functions carry.
_TABLE_NAMES = (
    "linear",
    "segmentation",
    "dispersion",
    "max_cut",
    "threshold",
    "card",
    "coverage",
    "combination",
)


class TestValueTables:
    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for mask, (a, b) in enumerate(zip(got, want)):
            assert type(a) is type(b) and repr(a) == repr(b), (mask, a, b)

    @pytest.mark.parametrize("name", sorted(_ALL_TABLE_BUILDERS))
    def test_table_matches_the_walk_and_the_evaluator(self, name):
        f = _ALL_TABLE_BUILDERS[name]()
        assert f._table is not None
        table = f.all_values()
        walked = SetFunction(f.ground, f._evaluator).all_values()
        evaluated = [f._evaluator(mask) for mask in range(1 << f.ground.n)]
        self._same(table, walked)
        self._same(table, evaluated)

    @pytest.mark.parametrize("name", sorted(_ALL_TABLE_BUILDERS))
    def test_table_makes_no_evaluator_call_and_is_not_kept(self, name):
        f, calls = _counting(_ALL_TABLE_BUILDERS[name]())
        first = f.all_values()
        assert calls == [] and f._cache == {}
        assert f.all_values() == first and f.all_values() is not first

    @pytest.mark.parametrize("name", sorted({**_ALL_BUILDERS, **_TABLE_BUILDERS}))
    def test_declared_ground_keeps_the_table(self, name):
        build = {**_ALL_BUILDERS, **_TABLE_BUILDERS}[name]
        f = build()
        n = f.ground.n
        labels = GroundSet(tuple(f"e{i}" for i in range(n)))
        labelled, calls = _counting(_on_declared_ground(f, labels, f.name))
        assert labelled.ground == labels
        assert labelled._table is f._table
        self._same(labelled.all_values(), [build().value(mask) for mask in range(1 << n)])
        assert (calls == [] and labelled._cache == {}) == (name not in _GENERIC_BUILDERS)

    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_which_builders_offer_a_table(self, name):
        f = _ALL_BUILDERS[name]()
        offers = f.name.startswith(_TABLE_NAMES) and name in _DIRECT_BUILDERS
        assert (f._table is not None) == offers
        assert not hasattr(f, "extend")

    def test_inexact_dispersion_and_fraction_max_cut_offer_no_table(self):
        for build in (
            _GENERIC_BUILDERS["dispersion-float"],
            _GENERIC_BUILDERS["max-cut-fraction"],
            _GENERIC_BUILDERS["max-cut-mixed"],
            _GENERIC_BUILDERS["max-cut-float"],
        ):
            assert build()._table is None

    @pytest.mark.parametrize("name", sorted({**_ALL_BUILDERS, **_TABLE_BUILDERS}))
    def test_negative_p_is_refused(self, name):
        with pytest.raises(ValueError, match=">= 0"):
            {**_ALL_BUILDERS, **_TABLE_BUILDERS}[name]().table(-1)

    def test_zero_column_segmentation_is_the_int_zero(self):
        f = _TABLE_BUILDERS["segmentation-zero-columns"]()
        for p in range(4):
            size = sum(comb(3, k) for k in range(p + 1))
            assert [(type(v), v) for v in f.table(p)] == [(int, 0)] * size
        assert [(type(f.value(m)), f.value(m)) for m in range(8)] == [(int, 0)] * 8

    def test_by_size_lists_each_mask_at_its_popcount(self):
        for n in range(8):
            for p in range(n + 3):
                masks = [m for m in range(1 << n) if m.bit_count() <= p]
                at = [f"size {k}" for k in range(p + 1)]
                assert core._by_size(n, p, at) == [at[m.bit_count()] for m in masks], (n, p)

    @pytest.mark.parametrize("name", sorted({**_ALL_BUILDERS, **_TABLE_BUILDERS}))
    def test_bounded_table_is_the_full_table_up_to_size_p(self, name):
        build = {**_ALL_BUILDERS, **_TABLE_BUILDERS}[name]
        f = build()
        n = f.ground.n
        full = [build().value(mask) for mask in range(1 << n)]
        labels = GroundSet(tuple(f"e{i}" for i in range(n)))
        labelled = _on_declared_ground(build(), labels, f.name)
        for p in range(n + 1):
            want = [v for mask, v in enumerate(full) if mask.bit_count() <= p]
            self._same(f.table(p), want)
            self._same(labelled.table(p), want)


def _outcome(opt):
    return opt.optimum.mask, opt.value, type(opt.value), opt.enumerated


class TestTableBruteForce:
    """Brute force over ``f.table(p)`` against the generic table of the same
    function rebuilt without its builder table, and against the naive scan."""

    @pytest.mark.parametrize("name", sorted(_ALL_TABLE_BUILDERS))
    def test_matches_the_walk_and_the_naive_scan(self, name):
        build = _ALL_TABLE_BUILDERS[name]
        n = build().ground.n
        for p in range(n + 1):
            f, calls = _counting(build())
            g = build()
            walked = SetFunction(g.ground, g._evaluator)
            got = _outcome(brute_force_cardinality(f, p))
            assert calls == [] and f._cache == {}
            assert got == _outcome(brute_force_cardinality(walked, p))
            assert got == _naive_brute_force(build(), p), p
            assert got[3] == sum(comb(n, k) for k in range(p + 1))
            by_bases = brute_force_matroid(g, Matroid.uniform(g.ground, p))
            assert _outcome(by_bases) == _naive_uniform_bases(build(), p), p

    @pytest.mark.parametrize(
        "name, p, indices",
        [
            ("dispersion-unit", 7, (0, 1, 2, 3, 4, 5, 6)),
            ("dispersion-tied-pairs", 2, (0, 3)),
            ("threshold", 5, (0, 1)),
            ("threshold-above-n", 6, ()),
            ("cardinality-power-zero", 3, ()),
            ("card-profile-raw", 7, (0,)),
            ("coverage-zero-weights", 4, ()),
            ("coverage-some-zero", 3, (1,)),
            ("max-cut-star", 3, (5, 6)),
        ],
    )
    def test_ties_keep_the_least_size_then_the_first_index_tuple(self, name, p, indices):
        f = _ALL_TABLE_BUILDERS[name]()
        assert f._table is not None
        assert brute_force_cardinality(f, p).optimum.indices() == indices

    def test_a_nan_first_value_is_kept_as_the_walk_keeps_it(self):
        nan = float("nan")
        for prof in ([nan, 1, 2, 3, 4], [0, 1, nan, nan, 4], [nan, 1, nan, 3, 0]):
            for p in range(5):
                f = raw_cardinality_profile(prof, 4)
                walked = SetFunction(f.ground, f._evaluator)
                got = brute_force_cardinality(f, p)
                want = brute_force_cardinality(walked, p)
                assert got.optimum == want.optimum and repr(got.value) == repr(want.value)
                naive = _naive_brute_force(f, p)
                assert (got.optimum.mask, repr(got.value)) == (naive[0], repr(naive[1]))
                by_bases = brute_force_matroid(f, Matroid.uniform(f.ground, p))
                naive = _naive_uniform_bases(f, p)
                assert (by_bases.optimum.mask, repr(by_bases.value)) == (naive[0], repr(naive[1]))


def test_max_cut_rows_stay_sparse():
    # Dense pair rows take about 100 MB at 5,000 vertices.
    graph = Graph(5_000, tuple((i, i + 1, 1) for i in range(4_999)))
    tracemalloc.start()
    try:
        f = max_cut(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f._table is not None and peak < 20_000_000
    # Reading a missing pair term stores nothing.
    row = _SparseRow({1: -2})
    assert (row[1], row[5]) == (-2, 0) and dict(row) == {1: -2}
    # Of the path, {0, ..., 199} cuts only the edge 199-200.
    assert f.value((1 << 200) - 1) == 1
    # The table reads its pair terms from the same sparse rows.
    short = max_cut(Graph(12, tuple((i, i + 1, 1) for i in range(11))))
    assert short.all_values() == [short._evaluator(mask) for mask in range(1 << 12)]


def test_small_p_tables_cost_no_power_of_two():
    # At n = 22 and p = 1 a table holds 23 values; a list over all 2**22
    # masks would take more than 30 MB.
    weights = tuple(range(1, 23))
    rows = tuple(tuple((i * 7 + j * 3) % 11 - 3 for j in range(8)) for i in range(22))
    for build in (
        lambda: linear(weights),
        lambda: segmentation(SegmentationMatrix(rows)),
        lambda: complement(linear(weights)),
    ):
        f, calls = _counting(build())
        tracemalloc.start()
        try:
            table = f.table(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, (f.name, peak)
        assert table == [build().value(mask) for mask in [0] + [1 << e for e in range(22)]]
        assert len(calls) == (23 if f.name.startswith("complement") else 0)


def _naive_sign_check(f):
    """The sign check as an ascending scan of ``f.value``, one mask at a time:
    (pairs checked, witness as (mask, repr(lhs), repr(rhs)) or None)."""
    for mask in range(1 << f.ground.n):
        v = f.value(mask)
        zero = 0 if type(v) in (int, Fraction) else 0.0
        if mask == 0 and (violates(v, zero) or violates(zero, v)):
            lo, hi = (v, zero) if v < zero else (zero, v)
            return 1, (0, repr(lo), repr(hi))
        if mask and violates(v, zero):
            return mask + 1, (mask, repr(v), repr(0))
    return 1 << f.ground.n, None


def _by_size(*values):
    """The count-only function with value ``values[|S|]`` (it has a table)."""
    return raw_cardinality_profile(values.__getitem__, len(values) - 1)


def _planted(n, mask, value):
    """|S| everywhere except ``value`` at ``mask``; no table of its own."""
    return SetFunction(
        GroundSet.of_size(n), lambda m: value if m == mask else m.bit_count(), name="planted"
    )


# Sign-check failures at the empty set, the first nonempty mask and the last
# mask, with and without a builder table; floats inside and outside the tolerance.
_SIGN_CASES = {
    "offset-int": lambda: _by_size(2, 3, 4, 5),
    "offset-negative-fraction": lambda: _by_size(Fraction(-1, 3), 1, 2, 3),
    "offset-float": lambda: _by_size(0.5, 1.0, 2.0, 3.0),
    "offset-tiny-float": lambda: _by_size(1e-12, 1.0, 2.0, 3.0),
    "first-mask": lambda: _by_size(0, -1, 5, 5, 5, 5),
    "last-mask": lambda: _by_size(0, 4, 6, 6, 4, -2),
    "last-mask-float": lambda: _by_size(0.0, 4.0, 6.0, 6.0, 4.0, -0.5),
    "last-mask-inside-tolerance": lambda: _by_size(0, 1, 2, 3, -1e-12),
    "planted-empty": lambda: _planted(5, 0, -1),
    "planted-first-mask": lambda: _planted(5, 1, Fraction(-1, 2)),
    "planted-last-mask": lambda: _planted(5, 31, -1.5),
    "planted-nan": lambda: _planted(4, 6, float("nan")),
}


class TestSignCheckTable:
    @pytest.mark.parametrize(
        "build",
        [pytest.param(b, id=k) for k, b in {**_DIRECT_BUILDERS, **_GENERIC_BUILDERS}.items()]
        + [pytest.param(b, id=f"sign-{k}") for k, b in _SIGN_CASES.items()],
    )
    def test_matches_naive_per_mask_scan(self, build):
        report = check_normalized_nonnegative(build())
        w = report.witness
        got = (report.pairs_checked, w and (w.S.mask, repr(w.lhs), repr(w.rhs)))
        assert got == _naive_sign_check(build())
        assert report.passed == (w is None)

    def test_planted_cases_fail_where_planted(self):
        pairs = {k: check_normalized_nonnegative(b()).pairs_checked for k, b in _SIGN_CASES.items()}
        assert pairs["offset-int"] == pairs["planted-empty"] == 1
        assert pairs["first-mask"] == pairs["planted-first-mask"] == 2
        assert pairs["last-mask"] == pairs["planted-last-mask"] == 32
        assert pairs["last-mask-inside-tolerance"] == 16  # passes

    @pytest.mark.parametrize("name", sorted(_DIRECT_BUILDERS))
    def test_builder_table_sign_check_reads_only_the_empty_set(self, name):
        # With a builder table the check reads only the empty set's value.
        f, calls = _counting(_DIRECT_BUILDERS[name]())
        check_normalized_nonnegative(f)
        assert calls == [0] and list(f._cache) == [0]


def _mixed_number(rng, low=0):
    """An int, a float (not always dyadic), a Fraction or -0.0, at least ``low``."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(low, 5)
    if kind == 1:
        return rng.uniform(low, 5)
    if kind == 2:
        return Fraction(rng.randint(3 * low, 15), 3)
    return -0.0


class TestFoldedBuildersDifferential:
    """Linear and segmentation evaluate by folding their step and build their
    table by doubling; an independent reference fixes each value and its type
    on mixed int/float/Fraction inputs, for the evaluator and every ``table(p)``."""

    @staticmethod
    def _assert_matches(f, reference):
        n = f.ground.n
        for p in range(n + 2):
            masks = [mask for mask in range(1 << n) if mask.bit_count() <= p]
            table = f.table(p)
            assert len(table) == len(masks)
            for mask, got in zip(masks, table):
                want = reference(mask)
                assert type(got) is type(want) and repr(got) == repr(want), (p, mask, got, want)
        for mask in range(1 << n):
            got, want = f.value(mask), reference(mask)
            assert type(got) is type(want) and repr(got) == repr(want), (mask, got, want)

    @pytest.mark.parametrize("seed", range(25))
    def test_linear_is_a_left_to_right_sum(self, seed):
        rng = Random(seed)
        weights = [_mixed_number(rng) for _ in range(rng.randint(0, 7))]

        def reference(mask):
            return reduce(add, [w for i, w in enumerate(weights) if mask >> i & 1], 0)

        self._assert_matches(linear(weights), reference)

    @pytest.mark.parametrize("seed", range(25))
    def test_segmentation_sums_column_maxima(self, seed):
        rng = Random(seed)
        size, cols = rng.randint(1, 7), rng.randint(1, 4)
        rows = []
        while len(rows) < size:
            row = tuple(_mixed_number(rng, low=-3) for _ in range(cols))
            if sum(row) >= 0:
                rows.append(row)

        def reference(mask):
            chosen = [row for i, row in enumerate(rows) if mask >> i & 1]
            if not chosen:
                return 0
            return reduce(add, [max(row[j] for row in chosen) for j in range(cols)], 0)

        self._assert_matches(segmentation(SegmentationMatrix(tuple(rows))), reference)


# -- marginal states -------------------------------------------------------
#
# Reference copies of the solvers as they were before marginal states: every
# candidate, swap and basis read through ``f.value``, one independence query
# per swap.  The solvers must give the same mask, value, value type, trace,
# ``iterations`` and ``enumerated``.


def _reference_greedy_basis(f, matroid, start_mask):
    mask = start_mask
    n = f.ground.n
    trace = []
    base = f.value(mask)
    while mask.bit_count() < matroid.rank:
        best_gain = best_value = best_e = None
        for e in range(n):
            if mask >> e & 1 or not matroid.is_independent_mask(mask | (1 << e)):
                continue
            value = f.value(mask | (1 << e))
            gain = value - base
            if best_gain is None or gain > best_gain:
                best_gain, best_value, best_e = gain, value, e
        mask |= 1 << best_e
        base = best_value
        trace.append((len(trace) + 1, f.ground.label(best_e), base))
    return mask, base, tuple(trace)


def _reference_local_search(f, matroid, init=None, epsilon=0, max_iters=None):
    mask, current, _ = _reference_greedy_basis(f, matroid, 0 if init is None else init.mask)
    n = f.ground.n
    trace = [(0, None, current)]
    swaps = 0
    while max_iters is None or swaps < max_iters:
        bar = max(current, current + epsilon * current)
        found = False
        for u in range(n):
            if mask >> u & 1:
                continue
            with_u = mask | (1 << u)
            for v in range(n):
                if not mask >> v & 1:
                    continue
                candidate = with_u & ~(1 << v)
                if not matroid.is_independent_mask(candidate):
                    continue
                value = f.value(candidate)
                if value > bar:
                    mask, current = candidate, value
                    swaps += 1
                    trace.append((swaps, (f.ground.label(u), f.ground.label(v)), current))
                    found = True
                    break
            if found:
                break
        if not found:
            break
    return mask, current, swaps, tuple(trace)


def _reference_brute_force_matroid(f, matroid):
    return _first_maximizer(f, list(matroid.bases()))


def _types(trace):
    return [type(row[2]) for row in trace]


def _greedy_outcome(f, p):
    res = greedy_cardinality(f, p)
    return res.selected.mask, res.value, type(res.value), res.trace, _types(res.trace), res.iterations


def _reference_greedy_outcome(f, p):
    mask, value, trace = _reference_greedy_basis(f, Matroid.uniform(f.ground, p), 0)
    return mask, value, type(value), trace, _types(trace), p


def _local_outcome(f, matroid, **options):
    res = local_search_matroid(f, matroid, **options)
    return res.selected.mask, res.value, type(res.value), res.trace, _types(res.trace), res.iterations


def _reference_local_outcome(f, matroid, **options):
    mask, value, swaps, trace = _reference_local_search(f, matroid, **options)
    return mask, value, type(value), trace, _types(trace), swaps


def _brute_outcome(f, matroid):
    opt = brute_force_matroid(f, matroid)
    return opt.optimum.mask, opt.value, type(opt.value), opt.enumerated


def _differential_matroids(ground):
    """Uniform ranks, partitions with caps 0, 1 and above 1 (interleaved
    blocks, a cap above its block's size) and explicit families."""
    n = ground.n
    out = [Matroid.uniform(ground, r) for r in sorted({0, 1, n // 2, n})]
    if n >= 3:
        halves = [range(n // 2), range(n // 2, n)]
        thirds = [range(k, n, 3) for k in range(3)]
        out += [
            Matroid.partition(ground, halves, [1, 1]),
            Matroid.partition(ground, halves, [0, 2]),
            Matroid.partition(ground, thirds, [1, 2, 0]),
            Matroid.partition(ground, thirds, [2, 9, 1]),
            Matroid.partition(ground, [range(0, n, 2), range(1, n, 2)], [2, 1]).to_explicit(),
            Matroid.uniform(ground, 2).to_explicit(),
            Matroid.uniform(ground, 0).to_explicit(),
        ]
    return out


def _local_options(f, matroid):
    last = Subset.from_indices(f.ground, [f.ground.n - 1]) if f.ground.n else None
    options = [
        {},
        {"epsilon": Fraction(1, 4)},
        {"epsilon": 0.1},
        {"max_iters": 0},
        {"max_iters": 1},
    ]
    if last is not None and matroid.is_independent(last):
        options.append({"init": last, "max_iters": 3})
    return options


def _assert_solvers_match(build, matroids=None, greedy_ps=None, brute=True):
    """Every solver on a fresh ``build()`` against the reference on another."""

    def fresh():
        f = build()
        f.claims = frozenset()  # the solvers' claim check is not under test
        return f

    ground = fresh().ground
    for p in range(ground.n + 1) if greedy_ps is None else greedy_ps:
        assert _greedy_outcome(fresh(), p) == _reference_greedy_outcome(fresh(), p), p
    for m in _differential_matroids(ground) if matroids is None else matroids:
        for options in _local_options(fresh(), m):
            got = _local_outcome(fresh(), m, **options)
            assert got == _reference_local_outcome(fresh(), m, **options), (m, options)
        if brute:
            assert _brute_outcome(fresh(), m) == _reference_brute_force_matroid(fresh(), m), m


# Builders whose own marginal state the solvers read: every input an int.
_STATE_BUILDERS = {
    "dispersion-int",
    "dispersion-unit",
    "segmentation-int",
}


def _nan_at(masks, other):
    nan = float("nan")
    return lambda: SetFunction(
        GroundSet.of_size(6), lambda mask: nan if mask in masks else other(mask)
    )


class TestMarginalStates:
    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_solvers_match_the_reference(self, name):
        _assert_solvers_match(_ALL_BUILDERS[name])

    @pytest.mark.parametrize("name", sorted(_ALL_BUILDERS))
    def test_only_int_inputs_offer_a_state(self, name):
        f = _ALL_BUILDERS[name]()
        assert (f._state is not None) == (name in _STATE_BUILDERS)
        assert (type(f.state(0)) is core._ValueState) == (name not in _STATE_BUILDERS)

    @pytest.mark.parametrize("name", sorted(_STATE_BUILDERS))
    def test_state_reads_equal_the_oracle(self, name):
        build = _ALL_BUILDERS[name]
        f, calls = _counting(build())
        oracle = build()
        n = f.ground.n
        rng = Random(name)
        for _ in range(40):
            mask = rng.randrange(1 << n)
            state = f.state(mask)
            reads = [(state.value, mask)]
            for e in range(n):
                if mask >> e & 1:
                    continue
                reads.append((state.plus(e), mask | 1 << e))
                reads.append((state.add(e).value, mask | 1 << e))
                for v in range(n):
                    if mask >> v & 1:
                        reads.append((state.swap(e, v), mask & ~(1 << v) | 1 << e))
            for got, at in reads:
                want = oracle.value(at)
                assert (got, type(got)) == (want, type(want)), (mask, at)
        assert calls == [] and f._cache == {}

    def test_quarter_distances_take_the_generic_state(self):
        for build in (
            lambda: metric_dispersion(_quarters(random_metric(8, 31))),
            lambda: metric_dispersion(_exact_quarters(random_metric(8, 32, high=12))),
        ):
            f = build()
            assert f._state is None and type(f.state(0)) is core._ValueState
            _assert_solvers_match(build, greedy_ps=[0, 3, 8])

    def test_int_dispersion_state_reads_the_distance_rows(self):
        # The rows are the matrix's own immutable tuples: a state copies no
        # distances and builds nothing that two callers could share.
        dist = random_metric(9, 5)
        f = metric_dispersion(dist)
        assert all(f.state(mask).rows is dist.d for mask in (0, 0b101, 0b111111111))

    @pytest.mark.parametrize(
        "n, rank, seed", [(20, 4, 1), (40, 6, 2), (90, 10, 3), (140, 14, 4), (200, 20, 5)]
    )
    def test_seeded_int_dispersion(self, n, rank, seed):
        d = random_metric(n, seed)
        build = lambda: metric_dispersion(d)  # noqa: E731
        ground = GroundSet.of_size(n)
        matroids = [Matroid.uniform(ground, rank), random_partition_matroid(n, rank, seed)]
        for m in matroids:
            got = _local_outcome(build(), m)
            assert got == _reference_local_outcome(build(), m), m
        assert _greedy_outcome(build(), rank) == _reference_greedy_outcome(build(), rank)

    @pytest.mark.parametrize("n, cols, seed", [(6, 3, 1), (11, 5, 2), (16, 16, 3)])
    def test_seeded_segmentation(self, n, cols, seed):
        matrix = random_segmentation(n, cols, seed)
        build = lambda: segmentation(matrix)  # noqa: E731
        ground = GroundSet.of_size(n)
        matroids = [
            Matroid.uniform(ground, 3),
            random_partition_matroid(n, min(n, 6), seed),
            Matroid.partition(ground, [range(0, n, 2), range(1, n, 2)], [2, 3]),
        ]
        _assert_solvers_match(build, matroids, greedy_ps=[1, 5, n])

    def test_brute_force_over_int_dispersion_at_the_sweep_shape(self):
        for seed in range(3):
            d = random_metric(16, seed)
            m = random_partition_matroid(16, 6, seed + 7)
            got = _brute_outcome(metric_dispersion(d), m)
            assert got == _reference_brute_force_matroid(metric_dispersion(d), m)

    @pytest.mark.parametrize(
        "build",
        [
            _nan_at({0b000111}, lambda mask: mask % 7),  # the least uniform basis
            _nan_at({0b010101}, lambda mask: float(mask % 5)),  # the least of the thirds
            _nan_at({0b101010, 0b110100}, lambda mask: mask % 4),  # later bases
            _nan_at(range(64), int),  # every set
            _nan_at({0b111000}, lambda mask: 9 if mask & 1 else 0),
        ],
    )
    def test_nan_values_keep_the_first_maximizer_rule(self, build):
        g = GroundSet.of_size(6)
        matroids = [
            Matroid.uniform(g, 3),
            Matroid.partition(g, [range(0, 6, 2), range(1, 6, 2)], [2, 1]),
            Matroid.partition(g, [range(k, 6, 3) for k in range(3)], [1, 1, 1]),
            Matroid.uniform(g, 3).to_explicit(),
        ]
        for m in matroids:
            assert _brute_outcome(build(), m) == _reference_brute_force_matroid(build(), m), m

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_across_value_types_keep_the_least_mask(self, seed):
        levels = [0, 1, 1.0, Fraction(1), True, 0.0]
        rng = Random(seed)
        values = [rng.choice(levels) for _ in range(1 << 7)]

        def build():
            return SetFunction(GroundSet.of_size(7), values.__getitem__)

        _assert_solvers_match(build, greedy_ps=[2, 4])


def _count_independence(matroid):
    calls = []
    query = matroid.is_independent_mask
    matroid.is_independent_mask = lambda mask: calls.append(mask) or query(mask)
    return matroid, calls


class TestPinnedCounts:
    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_generic_greedy_makes_one_call_per_candidate(self, p):
        n = 9
        for build in (
            lambda: complement(linear((3, 1, 4, 1, 5, 9, 2, 6, 5))),
            lambda: metric_dispersion(_quarters(random_metric(n, 7))),
        ):
            f, calls = _counting(build())
            greedy_cardinality(f, p)
            assert len(calls) == 1 + p * n - p * (p - 1) // 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: metric_dispersion(random_metric(12, 8)),
            lambda: segmentation(random_segmentation(12, 5, 9)),
        ],
    )
    def test_int_dispersion_and_segmentation_call_no_evaluator(self, build):
        g = GroundSet.of_size(12)
        halves = Matroid.partition(g, [range(0, 12, 2), range(1, 12, 2)], [2, 1])
        walked = [Matroid.uniform(g, 4), random_partition_matroid(12, 4, 10), halves]
        explicit = [halves.to_explicit(), Matroid.uniform(g, 3).to_explicit()]
        f, calls = _counting(build())
        greedy_cardinality(f, 5)
        for m in walked + explicit:
            local_search_matroid(f, m)
        for m in walked:
            brute_force_matroid(f, m)
        assert calls == [] and f._cache == {}
        # An explicit matroid's brute force reads each basis once through
        # ``f.value``.
        for m in explicit:
            bases = list(m.bases())
            f._cache.clear()
            calls.clear()
            assert brute_force_matroid(f, m).enumerated == len(bases)
            assert calls == bases

    @pytest.mark.parametrize(
        "matroid",
        [
            Matroid.uniform(GroundSet.of_size(9), 4),
            random_partition_matroid(9, 4, 11),
            Matroid.partition(GroundSet.of_size(9), [range(0, 9, 2), range(1, 9, 2)], [2, 3]),
        ],
    )
    def test_swap_scan_asks_no_independence_query(self, matroid):
        # Started at a basis, greedy adds nothing, so the one query left is
        # the check that ``init`` is independent.
        for f in (
            metric_dispersion(random_metric(9, 12)),
            complement(linear((3, 1, 4, 1, 5, 9, 2, 6, 5))),
        ):
            start = local_search_matroid(f, matroid, max_iters=0).selected
            m, calls = _count_independence(matroid)
            res = local_search_matroid(f, m, init=start)
            del m.is_independent_mask
            assert calls == [start.mask]
            full = local_search_matroid(f, matroid)
            assert (res.selected, res.value, res.trace) == (full.selected, full.value, full.trace)

    @pytest.mark.parametrize("n, rank, seed", [(7, 3, 1), (7, 3, 2), (16, 6, 3)])
    def test_bench_combination_local_reads_a_set_twice(self, n, rank, seed, monkeypatch, capsys):
        # Combinations take the generic state, so a traced benchmark round
        # still sees more oracle reads than evaluator calls.
        from weaksub.cli import main

        reads, evaluations = Counter(), []
        value, init = SetFunction.value, SetFunction.__init__

        def counted_value(self, mask):
            reads[id(self), mask] += 1
            return value(self, mask)

        def traced_init(self, ground, evaluator, **kwargs):
            init(self, ground, lambda mask: evaluations.append(mask) or evaluator(mask), **kwargs)

        monkeypatch.setattr(SetFunction, "value", counted_value)
        monkeypatch.setattr(SetFunction, "__init__", traced_init)
        argv = ["bench", "combination", "--algorithm", "local", "--n", str(n)]
        argv += ["--rank", str(rank), "--matroid", "partition", "--count", "2", "--seed", str(seed)]
        assert main(argv) == 0
        capsys.readouterr()
        assert max(reads.values()) >= 2
        assert sum(reads.values()) > len(evaluations) > 0
