import math
from fractions import Fraction
from itertools import combinations, permutations
from operator import add
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksub import (
    GroundSet,
    GroundSetMismatch,
    Subset,
    check_monotone,
    check_normalized_nonnegative,
    check_submodular,
    check_weakly_submodular,
    weak_submodularity_sides,
)
from weaksub import core, zoo
from weaksub.core import MONOTONE, NORMALIZED, SUBMODULAR, WEAKLY_SUBMODULAR
from weaksub.zoo import (
    DistanceMatrix,
    Graph,
    SegmentationMatrix,
    WelfareInstance,
    cardinality_polynomial,
    cardinality_power,
    complement,
    coverage,
    cross_dispersion,
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
    supermodular_pair,
    threshold,
    welfare_reduction,
    zero_at_top,
)

from conftest import naive_triangle_error, powerset, scalar_closure


def _random_metric_rows(rng, n, high=9):
    """A random int metric as lists: the closure of random lengths, by the
    scalar triple loop up to n = 12 and past it, where that loop is slow,
    by ``zoo._closure``, which ``test_random_metric_is_the_scalar_closure``
    checks against the loop."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, high)
    if n <= 12:
        return [list(row) for row in scalar_closure(d)]
    flat = zoo._closure([x for row in d for x in row], n)
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def _scalar_error(d):
    """The message ``DistanceMatrix`` raised before the lanes, from its
    scalar loop, or None: square, then per row the diagonal and, for
    j > i, symmetry and sign, then the first (i, j) with i < j whose entry
    passes the least d[i][k] + d[k][j], at its first such k."""
    n = len(d)
    if any(len(row) != n for row in d):
        return "distance matrix must be square"
    for i in range(n):
        if d[i][i] != 0:
            return "distance matrix must have zero diagonal"
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return "distance matrix must be symmetric"
            if d[i][j] < 0:
                return "distances must be nonnegative"
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] > min(map(add, d[i], d[j])):  # d is symmetric here
                k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j])
                return (
                    f"triangle inequality fails on ({i},{j},{k}): "
                    f"{d[i][j]} > {d[i][k]} + {d[k][j]}"
                )
    return None


def _recorded(fn, calls):
    """``fn``, appending each call's arguments to ``calls``."""

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceMatrix(((0, 1), (2, 0)))  # asymmetric
        with pytest.raises(ValueError):
            DistanceMatrix(((1, 1), (1, 0)))  # nonzero diagonal
        with pytest.raises(ValueError):
            DistanceMatrix(((0, -1), (-1, 0)))  # negative
        with pytest.raises(ValueError):
            DistanceMatrix(((0, 1, 5), (1, 0, 1), (5, 1, 0)))  # triangle fails
        with pytest.raises(ValueError, match="must be square"):
            DistanceMatrix(((0, 1), (1, 0), (1, 1)))

    def test_triangle_error_names_the_first_failing_triple(self):
        # The reference scans every ordered (i, j, k); the validator scans
        # i < j only and must report the same first triple and message.
        naive_error = naive_triangle_error
        rng = Random(5)
        failures = 0
        for _ in range(600):
            n = rng.randint(2, 7)
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    x = rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 30), 4)))
                    d[i][j] = d[j][i] = x
            expected = naive_error(d)
            if expected is None:
                assert DistanceMatrix(d).n == n
                continue
            failures += 1
            with pytest.raises(ValueError) as info:
                DistanceMatrix(d)
            assert str(info.value) == expected
        assert 100 < failures < 600

    def test_triangle_scan_sums_each_unordered_pair_once(self):
        # A valid metric costs n additions per pair i < j, not n^3.
        added = []

        class Counted(int):
            def __add__(self, other):
                added.append(1)
                return int.__add__(self, other)

        n = 8
        DistanceMatrix([[Counted(0 if i == j else 1) for j in range(n)] for i in range(n)])
        assert len(added) == n * n * (n - 1) // 2

    def test_lane_check_matches_the_scalar_loop_on_broken_matrices(self):
        # Int and, one in four, Fraction matrices at n = 0..40: metrics with
        # one to three planted changes.  A change either lifts d[i][j] past
        # d[i][k] + d[k][j] for some k, which breaks the matrix there, or
        # lowers d[i][j], which may break a triangle through (i, j); so the
        # first failing triple falls anywhere in the scan.
        rng = Random(26)
        broken = whole = 0
        while broken < 3000:
            d = _random_metric_rows(rng, rng.randint(0, 40))
            n = len(d)
            for _ in range(rng.randint(1, 3) if n > 2 else 0):
                i, j, k = rng.sample(range(n), 3)
                x = d[i][k] + d[k][j] + rng.randint(1, 3) if rng.random() < 0.7 else rng.randint(0, d[i][j])
                d[i][j] = d[j][i] = x
            if broken % 4 == 1:
                q = rng.choice((2, 3, 4, 7))
                d = [[Fraction(x, q) if (i + j) % 3 else x for j, x in enumerate(row)]
                     for i, row in enumerate(d)]
            expected = _scalar_error(d)
            if n <= 12:
                assert naive_triangle_error(d) == expected
            if expected is None:
                whole += 1
                assert DistanceMatrix(d).d == tuple(map(tuple, d))
                continue
            broken += 1
            with pytest.raises(ValueError) as info:
                DistanceMatrix(d)
            assert str(info.value) == expected
        assert whole > 50

    @pytest.mark.parametrize("error", ["diagonal", "symmetry", "negative"])
    def test_earlier_errors_keep_their_precedence(self, error):
        rng = Random(7)
        for _ in range(200):
            d = _random_metric_rows(rng, rng.randint(3, 12))
            n = len(d)
            i, j = rng.sample(range(n), 2)
            d[i][j] = d[j][i] = 10 * d[i][j] + 50  # a triangle failure
            r, c = sorted(rng.sample(range(n), 2))
            if error == "diagonal":
                d[r][r] = 1
            elif error == "symmetry":
                d[r][c] += 1
            else:
                d[r][c] = d[c][r] = -1
            with pytest.raises(ValueError) as info:
                DistanceMatrix(d)
            assert str(info.value) == _scalar_error(d)
            assert "triangle" not in str(info.value)

    def test_entries_past_eight_byte_lanes(self):
        rng = Random(62)
        widths = set()
        for trial in range(200):
            # A constant added off the diagonal keeps a metric.
            d = [[x and x + 2**64 for x in row] for row in _random_metric_rows(rng, rng.randint(2, 14))]
            widths.add(core._lane_layout([x for row in d for x in row], 2)[1])
            if trial % 2 and len(d) > 1:
                i, j = rng.sample(range(len(d)), 2)
                d[i][j] = d[j][i] = 3 * d[i][j] + 2**63
            expected = _scalar_error(d)
            if expected is None:
                assert DistanceMatrix(d).n == len(d)
            else:
                with pytest.raises(ValueError) as info:
                    DistanceMatrix(d)
                assert str(info.value) == expected
        assert min(widths) > 8

    def test_floats_and_int_subclasses_take_the_scalar_loop(self, monkeypatch):
        def never(*args):
            raise AssertionError("the lane check ran on an inexact matrix")

        monkeypatch.setattr(zoo, "_is_metric", never)
        rng = Random(3)
        for trial in range(100):
            d = [[float(x) for x in row] for row in _random_metric_rows(rng, rng.randint(1, 9))]
            if trial % 2 and len(d) > 1:
                i, j = rng.sample(range(len(d)), 2)
                d[i][j] = d[j][i] = 3 * d[i][j] + 0.5
            if trial % 5 == 0:
                d[0][0] = 0  # an int among the floats
            expected = _scalar_error(d)
            if expected is None:
                assert DistanceMatrix(d).n == len(d)
            else:
                with pytest.raises(ValueError) as info:
                    DistanceMatrix(d)
                assert str(info.value) == expected
        assert DistanceMatrix([[True - True, True], [True, False]]).n == 2

    def test_random_metric_is_the_scalar_closure(self):
        for n in range(25):
            for high in (1, 9, 2**40):
                for seed in (0, 1, 17):
                    rng = Random(seed)
                    d = [[0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i + 1, n):
                            d[i][j] = d[j][i] = rng.randint(1, high)
                    expected = scalar_closure(d)
                    assert random_metric(n, seed, high).d == expected
                    assert random_metric(n, Random(seed), high).d == expected
                    assert all(type(x) is int for row in expected for x in row)

    def test_random_metrics_are_valid_and_deterministic(self):
        for seed in range(10):
            m = random_metric(6, seed)
            assert m == random_metric(6, seed)
            assert all(m.d[i][i] == 0 for i in range(6))


class TestLinear:
    def test_weighted_values(self):
        f = linear((1, 2, 3))
        assert f({0, 2}) == 4
        assert f(()) == 0
        assert linear((0, 0, 0))({0, 1, 2}) == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            linear((1, -1))


class TestCoverage:
    def test_union_saturates(self):
        f = coverage([["a"], ["a"]], {"a": 1})
        assert f({0}) == 1
        assert f({0, 1}) == 1

    def test_disjoint_is_additive(self):
        f = coverage([["a"], ["b"]], {"a": 2, "b": 3})
        assert f({0, 1}) == f({0}) + f({1})

    def test_random_instance_is_submodular(self):
        assert check_submodular(random_coverage(6, 13)).passed

    def test_dangling_item_rejected(self):
        with pytest.raises(ValueError):
            coverage([["a", "b"]], {"a": 1})

    def test_float_weights_sum_in_sorted_item_order(self):
        # Float sums depend on the order of addition; the items' set order
        # depends on the hash seed, their order sorted by repr does not.
        items = [f"x{j}" for j in range(10)]
        w = {x: round(0.13 * j + 0.1, 2) for j, x in enumerate(items)}
        assert repr(sum(w[x] for x in items)) != repr(sum(w[x] for x in reversed(items)))
        covers = [items[:7], items[5:], items[2:4] + items[8:]]
        f = coverage(covers, w)
        for mask in range(1 << len(covers)):
            hit = {x for i, c in enumerate(covers) if mask >> i & 1 for x in c}
            want = sum([w[x] for x in sorted(hit, key=repr)])
            assert repr(f.value(mask)) == repr(want), mask

    def test_negative_weight_rejected(self):
        # Accepted, it would give the values [0, -5, -4, -4] under nonnegative claims.
        with pytest.raises(ValueError, match="nonnegative"):
            coverage([["a"], ["a", "b"]], {"a": -5, "b": 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: linear((1.0, math.nan, 2.0)),
        lambda: coverage([["a"], ["b"]], {"a": 1, "b": math.nan}),
        lambda: Graph(2, ((0, 1, math.nan),)),
        lambda: SegmentationMatrix(((1.0, math.nan),)),
        lambda: linear_combination([linear((1, 2))], [math.nan]),
        lambda: cardinality_polynomial((0, math.nan), 3),
    ],
    ids=["linear", "coverage", "graph", "segmentation", "combination", "card_poly"],
)
def test_nan_fails_nonnegativity_checks(build):
    with pytest.raises(ValueError):
        build()


class TestDispersion:
    def test_small_sets_are_zero(self):
        f = metric_dispersion(random_metric(5, 2))
        assert f(()) == 0
        assert f({3}) == 0

    def test_unit_metric_counts_pairs(self):
        f = metric_dispersion(DistanceMatrix.unit(6))
        for k in range(7):
            assert f(set(range(k))) == k * (k - 1) // 2

    def test_random_metric_weakly_submodular_exhaustive(self):
        assert check_weakly_submodular(metric_dispersion(random_metric(7, 11))).passed

    def test_disjoint_union_decomposition(self):
        d = random_metric(8, 3)
        f = metric_dispersion(d)
        rng = Random(5)
        for _ in range(40):
            a = {i for i in range(8) if rng.random() < 0.3}
            b = {i for i in range(8) if rng.random() < 0.3} - a
            assert f(a | b) == f(a) + f(b) + cross_dispersion(d, a, b)


def _pairwise_function(lin, w):
    """f(X) = sum of lin over X + sum of w over the pairs in X, through ``_pairwise``."""
    n = len(lin)

    def ev(mask):
        idx = [i for i in range(n) if mask >> i & 1]
        return sum(lin[i] for i in idx) + sum(w[i][j] for i, j in combinations(idx, 2))

    above = [tuple(w[i][e] for i in range(e)) for e in range(n)]
    return zoo._pairwise(ev, list(lin), above, True, "pairwise", ())


def _symmetric(rng, n, draw):
    w = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        w[i][j] = w[j][i] = draw()
    return w


class TestPairwiseSlack:
    """The slack identity of the ``_pairwise`` docstring and its consequence."""

    def test_identity_matches_the_weak_sides(self):
        rng = Random(10)

        def number():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        for n in range(8):
            for _ in range(3):
                lin = [number() for _ in range(n)]
                w = _symmetric(rng, n, number)
                f = _pairwise_function(lin, w)
                table = f.all_values()
                assert table == [f.value(m) for m in range(1 << n)]
                full = (1 << n) - 1
                pairs = [(rng.randint(0, full), rng.randint(0, full)) for _ in range(40)]
                if n >= 2:
                    pairs += [(full ^ 1, full ^ 2), (1, 2), (0, full)]
                for S, T in pairs:
                    A, B, C = S & ~T, T & ~S, S & T
                    triples = sum(
                        w[x][z] + w[z][y] - w[x][y]
                        for x in range(n) if A >> x & 1
                        for y in range(n) if B >> y & 1
                        for z in range(n) if C >> z & 1
                    )
                    slack = B.bit_count() * f.value(A) + A.bit_count() * f.value(B) + triples
                    lhs, rhs = core._weak_sides(table.__getitem__, S, T)
                    assert lhs - rhs == slack, (S, T)

    def test_dispersion_is_weakly_submodular_exactly_on_metrics(self):
        rng = Random(11)
        seen = set()
        for n in (3, 4, 5):
            for _ in range(12):
                w = _symmetric(rng, n, lambda: rng.randint(0, 4))
                metric = all(w[x][y] <= w[x][z] + w[z][y] for x, y, z in permutations(range(n), 3))
                f = _pairwise_function([0] * n, w)
                assert check_weakly_submodular(f).passed == metric
                seen.add(metric)
        assert seen == {True, False}


class TestCrossDispersion:
    def test_empty_side_is_zero(self):
        d = random_metric(5, 1)
        assert cross_dispersion(d, (), (1, 2)) == 0

    def test_unit_metric_bipartite_count(self):
        d = DistanceMatrix.unit(5)
        assert cross_dispersion(d, (0, 1), (2, 3, 4)) == 6

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            cross_dispersion(DistanceMatrix.unit(4), (0, 1), (1, 2))

    def test_triangle_sum_inequality(self):
        # |B| d(A,C) + |A| d(B,C) >= |C| d(A,B) on random disjoint triples.
        rng = Random(17)
        for trial in range(50):
            d = random_metric(7, rng.randrange(10**6))
            pool = list(range(7))
            rng.shuffle(pool)
            a, b, c = pool[0:2], pool[2:4], pool[4:6]
            lhs = len(b) * cross_dispersion(d, a, c) + len(a) * cross_dispersion(d, b, c)
            assert lhs >= len(c) * cross_dispersion(d, a, b)


class TestSegmentation:
    def test_single_row_is_row_sum(self):
        m = SegmentationMatrix(((2, -1, 3),))
        assert segmentation(m)({0}) == 4

    def test_single_column_is_max(self):
        m = SegmentationMatrix(((2,), (5,), (1,)))
        f = segmentation(m)
        assert f({0, 1, 2}) == 5

    def test_empty_set_is_zero(self):
        assert segmentation(SegmentationMatrix(((1, 2),)))(()) == 0

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            SegmentationMatrix(((1, -3),))

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="at least one row"):
            SegmentationMatrix(())

    def test_unequal_rows_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            SegmentationMatrix(((1, 2), (3,)))

    def test_monotone_on_random_matrices(self):
        for seed in range(5):
            f = segmentation(random_segmentation(6, 4, seed))
            assert check_monotone(f).passed

    def test_meta_submodular_on_overlapping_pairs(self):
        # sigma(S) + sigma(T) >= sigma(S|T) + sigma(S&T) whenever S & T != {}.
        mat = random_segmentation(6, 5, 23)
        f = segmentation(mat)
        universe = range(6)
        subsets = [frozenset(s) for s in powerset(universe)]
        for S in subsets:
            for T in subsets:
                if S & T:
                    assert f(S) + f(T) >= f(S | T) + f(S & T)

    def test_weakly_submodular_exhaustive(self):
        assert check_weakly_submodular(segmentation(random_segmentation(7, 4, 40))).passed

    @pytest.mark.parametrize(
        "rows",
        [
            ((-3, 5, -1), (4, -4, 0), (-2, -2, 9), (0, 0, 0), (7, -7, 1), (-1, 2, -1)),
            ((3, 3, 3),) * 6,
            ((5,), (0,), (9,), (9,), (2,), (7,), (1,)),
            ((2**64, 3, -2**65 + 7, 2**64), (2**70, 0, 0, 1), (1, 2**66, -5, 2**64),
             (2**64 + 1, 2**64 + 1, -2**65, 0), (0, 0, 0, 2**80)),
            ((0, -1, 1),),
        ],
        ids=["negative", "all-equal", "one-column", "past-2**64", "one-row"],
    )
    def test_int_table_is_the_evaluator(self, rows, monkeypatch):
        lanes = []
        monkeypatch.setattr(zoo, "_segmentation_lanes", _recorded(zoo._segmentation_lanes, lanes))
        f = segmentation(SegmentationMatrix(rows))
        n = len(rows)
        for p in sorted({0, 1, 5, n}):
            want = [f._evaluator(mask) for mask in range(1 << n) if mask.bit_count() <= p]
            assert [(type(v), v) for v in f.table(p)] == [(type(v), v) for v in want], p
        assert len(lanes) == len({0, 1, 5, n})

    def test_random_int_tables_are_the_evaluator(self):
        rng = Random(64)
        for _ in range(60):
            n, c = rng.randint(1, 9), rng.randint(1, 6)
            low, high = rng.choice(((-9, 9), (0, 9), (5, 5), (-9, 2**70), (-2**70, 2**70)))
            rows = []
            while len(rows) < n:
                row = tuple(rng.randint(low, high) for _ in range(c))
                if sum(row) >= 0:
                    rows.append(row)
            f = segmentation(SegmentationMatrix(tuple(rows)))
            p = rng.randint(0, n + 1)
            want = [f._evaluator(mask) for mask in range(1 << n) if mask.bit_count() <= p]
            assert [(type(v), v) for v in f.table(p)] == [(type(v), v) for v in want]

    def test_other_tables_double_their_columns(self, monkeypatch):
        def never(*args):
            raise AssertionError("the lane table ran on a matrix that is not all ints")

        monkeypatch.setattr(zoo, "_segmentation_lanes", never)
        for rows in (((1, 2.5), (1, -0.5)), ((Fraction(1, 3), 1), (2, -1)), ((True, 0), (0, 1)), ((), ())):
            f = segmentation(SegmentationMatrix(rows))
            assert f.table(2) == [f._evaluator(mask) for mask in range(4)]


class TestCardinalityFunctions:
    def test_power_values(self):
        assert cardinality_power(2, 6)({0, 1, 2, 3, 4}) == 25

    def test_polynomial_values(self):
        f = cardinality_polynomial((0, 1, 1, 1), 5)
        assert f({0, 1}) == 2 + 4 + 8

    def test_degree_and_sign_guards(self):
        with pytest.raises(ValueError):
            cardinality_polynomial((0, 1, 1, 1, 1), 5)
        with pytest.raises(ValueError):
            cardinality_polynomial((0, -1), 5)
        with pytest.raises(ValueError):
            cardinality_polynomial((1, 1), 5)
        with pytest.raises(ValueError):
            cardinality_power(4, 5)

    def test_raw_profile_is_unchecked_and_fails_weakly(self):
        f = raw_cardinality_profile(4, 7)
        assert f.claims == frozenset()
        assert not check_weakly_submodular(f).passed

    def test_powers_up_to_cube_pass_weakly(self):
        for k in (0, 1, 2, 3):
            assert check_weakly_submodular(cardinality_power(k, 7)).passed

    @pytest.mark.parametrize("k", [2.5, Fraction(5, 2), 2.0, True, False, "2"])
    def test_power_must_be_an_int(self, k):
        with pytest.raises(ValueError, match="integer"):
            cardinality_power(k, 4)

    def test_huge_ground_set(self):
        f = cardinality_power(2, 10**5)
        assert f.value((1 << 10**5) - 1) == 10**10
        assert f.table(1) == [0] + [1] * 10**5


class TestThreshold:
    def test_values_and_claims(self):
        f = threshold(3, 5, 6)
        assert f({0}) == 0 and f({0, 1, 2}) == 5 and f({0, 1, 2, 3}) == 5
        assert WEAKLY_SUBMODULAR not in f.claims
        assert WEAKLY_SUBMODULAR in threshold(2, 5, 6).claims

    def test_class_membership_boundary(self):
        assert check_weakly_submodular(threshold(1, 2, 6)).passed
        assert check_weakly_submodular(threshold(2, 2, 6)).passed
        assert not check_weakly_submodular(threshold(3, 2, 6)).passed

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            threshold(0, 1, 4)
        with pytest.raises(ValueError):
            threshold(2, 0, 4)

    @pytest.mark.parametrize("k", [2.5, Fraction(5, 2), 2.0, True, "2"])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match="integer"):
            threshold(k, 1, 4)

    @pytest.mark.parametrize("bonus", [True, False])
    def test_bool_bonus_refused(self, bonus):
        with pytest.raises(ValueError, match="number"):
            threshold(2, bonus, 4)


class TestLinearCombination:
    def test_pointwise_sum_bit_exact(self):
        d = random_metric(6, 31)
        f1, f2 = metric_dispersion(d), random_coverage(6, 32)
        g = linear_combination([f1, f2], [2, 3])
        for mask in range(1 << 6):
            assert g.value(mask) == 2 * f1.value(mask) + 3 * f2.value(mask)

    def test_zero_and_scaling(self):
        f = metric_dispersion(random_metric(4, 8))
        zero = linear_combination([f], [0])
        assert all(zero.value(m) == 0 for m in range(16))
        double = linear_combination([f], [2])
        assert all(double.value(m) == 2 * f.value(m) for m in range(16))

    def test_guards(self):
        f = linear((1, 2))
        with pytest.raises(ValueError):
            linear_combination([f], [-1])
        with pytest.raises(ValueError):
            linear_combination([f, linear((1, 2, 3))], [1, 1])
        with pytest.raises(ValueError):
            linear_combination([f], [1, 2])
        with pytest.raises(ValueError):
            linear_combination([], [])

    def test_ground_mismatch_is_a_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch, match="must share a ground set"):
            linear_combination([linear((1, 2)), linear((1, 2, 3))], [1, 1])

    def test_combination_stays_weakly_submodular(self):
        g = linear_combination(
            [metric_dispersion(random_metric(6, 1)), random_coverage(6, 2)], [1, 1]
        )
        assert WEAKLY_SUBMODULAR in g.claims
        assert check_weakly_submodular(g).passed

    def test_msd_objective_matches_sum(self):
        d = random_metric(5, 77)
        quality = random_coverage(5, 78)
        g = msd_objective(quality, d)
        disp = metric_dispersion(d)
        for mask in range(1 << 5):
            assert g.value(mask) == quality.value(mask) + disp.value(mask)


class TestComplement:
    def test_linear_complement_is_total_minus_weight(self):
        w = (1, 4, 2)
        f = linear(w)
        fbar = complement(f)
        for mask in range(8):
            assert fbar.value(mask) == sum(w) - f.value(mask)

    def test_double_complement_is_identity(self):
        f = metric_dispersion(random_metric(5, 6))
        back = complement(complement(f))
        assert [back.value(m) for m in range(32)] == [f.value(m) for m in range(32)]

    def test_degenerate_coverage_complement_passes(self):
        # Every element covers the same item, so the complement is constant on
        # proper subsets; the inequality survives complementation here.
        f = coverage([["a"]] * 6, {"a": 1})
        assert check_weakly_submodular(complement(f)).passed

    def test_dispersion_complement_fails(self):
        f = metric_dispersion(DistanceMatrix.unit(4))
        report = check_weakly_submodular(complement(f))
        assert not report.passed
        assert report.witness.lhs < report.witness.rhs

    def test_generic_coverage_complement_fails(self):
        # Complementation does not preserve the inequality even for modular
        # functions: disjoint pairs inflate the right side by f(U).
        f = linear((1, 1))
        fbar = complement(f)
        S = Subset.from_indices(f.ground, (0,))
        T = Subset.from_indices(f.ground, (1,))
        assert weak_submodularity_sides(fbar, S, T) == (2, 4)
        assert not check_weakly_submodular(fbar).passed


class TestZeroAtTop:
    def test_values(self):
        f = metric_dispersion(random_metric(5, 9))
        g = zero_at_top(f)
        assert g(set(range(5))) == 0
        for mask in range((1 << 5) - 1):
            assert g.value(mask) == f.value(mask)

    def test_claims_drop_monotone(self):
        g = zero_at_top(metric_dispersion(random_metric(4, 2)))
        assert MONOTONE not in g.claims
        assert WEAKLY_SUBMODULAR in g.claims

    def test_non_monotone_but_weakly_submodular(self):
        for n, seed in ((5, 4), (6, 5), (7, 6)):
            g = zero_at_top(metric_dispersion(random_metric(n, seed)))
            assert not check_monotone(g).passed
            assert check_weakly_submodular(g).passed


class TestMaxCut:
    def test_gadget_values(self):
        f = max_cut(star_counterexample(3))
        g = f.ground
        assert f(()) == 0
        assert f(Subset.full(g)) == 0
        spokes = {0, 1, 2}
        assert f(spokes | {3}) == 3
        assert f(spokes) == 6

    def test_violation_scales_with_gadget(self):
        for n in (1, 2, 3, 5):
            f = max_cut(star_counterexample(n))
            g = f.ground
            S = Subset.from_indices(g, tuple(range(n)) + (n,))
            T = Subset.from_indices(g, tuple(range(n)) + (n + 1,))
            assert weak_submodularity_sides(f, S, T) == (2 * n * n + 2 * n, 2 * n * n + 4 * n)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 3, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1, -2),))
        with pytest.raises(ValueError):
            star_counterexample(0)

    def test_claims_are_minimal(self):
        f = max_cut(star_counterexample(2))
        assert f.claims == {NORMALIZED, "nonnegative"}


class TestSupermodularPair:
    def test_values(self):
        f = supermodular_pair(7)
        assert f({"a1", "a2"}) == 7
        assert f({"b"}) == 0
        assert f({"a1", "b"}) == 0

    def test_reference_violation(self):
        f = supermodular_pair(5)
        S = Subset.from_labels(f.ground, ("a1", "b"))
        T = Subset.from_labels(f.ground, ("a2", "b"))
        assert weak_submodularity_sides(f, S, T) == (0, 5)
        assert not check_weakly_submodular(f).passed

    @pytest.mark.parametrize("bonus", [True, False])
    def test_bool_bonus_refused(self, bonus):
        with pytest.raises(ValueError, match="number"):
            supermodular_pair(bonus)

    @pytest.mark.parametrize("bonus", [0, -1, Fraction(-1, 2)])
    def test_nonpositive_bonus_refused(self, bonus):
        with pytest.raises(ValueError, match="positive"):
            supermodular_pair(bonus)


class TestWelfareReduction:
    def test_no_agents_refused(self):
        with pytest.raises(ValueError, match="at least one agent"):
            WelfareInstance(())

    def test_single_agent_matches_valuation_with_free_matroid(self):
        v = metric_dispersion(random_metric(3, 14))
        f, matroid = welfare_reduction(WelfareInstance((v,)))
        assert f.ground.n == 3
        assert matroid.rank == 3  # one agent: every item block is free
        for mask in range(8):
            assert f.value(mask) == v.value(mask)

    def test_two_agent_modular_matches_assignment_optimum(self):
        w1, w2 = (3, 1, 2), (2, 5, 1)
        inst = WelfareInstance((linear(w1), linear(w2)))
        f, matroid = welfare_reduction(inst)
        from weaksub import brute_force_matroid

        opt = brute_force_matroid(f, matroid)
        # Independent oracle: enumerate all item-to-agent assignments.
        best = 0
        for assign in powerset(range(3)):
            to_first = set(assign)
            best = max(
                best,
                sum(w1[u] for u in to_first) + sum(w2[u] for u in range(3) if u not in to_first),
            )
        assert opt.value == best == 3 + 5 + 2

    def test_basis_value_equals_allocation_welfare(self):
        v1 = random_coverage(3, 50)
        v2 = linear((1, 2, 0))
        f, matroid = welfare_reduction(WelfareInstance((v1, v2)))
        for basis_mask in matroid.bases():
            first = [u for u in range(3) if basis_mask >> (0 * 3 + u) & 1]
            second = [u for u in range(3) if basis_mask >> (1 * 3 + u) & 1]
            assert f.value(basis_mask) == v1(first) + v2(second)

    def test_submodular_valuations_lift_weakly_submodular(self):
        # Monotone submodular valuations (a fortiori weakly submodular ones)
        # keep the lifted welfare function inside the class.
        v1 = random_coverage(4, 60)
        v2 = linear((2, 0, 1, 3))
        f, _ = welfare_reduction(WelfareInstance((v1, v2)))
        assert f.ground.n == 8
        assert WEAKLY_SUBMODULAR in f.claims
        assert check_weakly_submodular(f).passed

    def test_dispersion_valuations_do_not_survive_the_lift(self):
        # Closure under the lift genuinely needs submodularity: valuations
        # with zero singletons break the inequality on the product universe.
        v = metric_dispersion(random_metric(3, 70))
        f, _ = welfare_reduction(WelfareInstance((v, v)))
        assert WEAKLY_SUBMODULAR not in f.claims
        assert not check_weakly_submodular(f).passed

    def test_unnormalized_valuation_rejected(self):
        bad = cardinality_power(0, 3)  # constant 1, not normalized
        with pytest.raises(ValueError):
            WelfareInstance((bad,))

    def test_item_universe_mismatch_is_a_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch, match="must share the item universe"):
            WelfareInstance((linear((1, 2)), linear((1, 2, 3))))


class TestClaimsHonesty:
    """Whatever a builder claims must survive the matching checker."""

    def fixtures(self):
        yield linear((2, 0, 3, 1, 4))
        yield random_coverage(6, 91)
        yield metric_dispersion(random_metric(6, 92))
        yield segmentation(random_segmentation(6, 4, 93))
        yield cardinality_power(3, 6)
        yield cardinality_polynomial((0, 2, 1, 1), 6)
        yield threshold(2, 3, 6)
        yield threshold(4, 3, 6)
        yield linear_combination(
            [metric_dispersion(random_metric(6, 94)), random_coverage(6, 95)], [1, 2]
        )
        yield zero_at_top(metric_dispersion(random_metric(6, 96)))
        yield max_cut(star_counterexample(3))
        yield supermodular_pair(2)

    def test_claims_hold_exhaustively(self):
        checkers = {
            MONOTONE: check_monotone,
            SUBMODULAR: check_submodular,
            WEAKLY_SUBMODULAR: check_weakly_submodular,
        }
        for f in self.fixtures():
            if NORMALIZED in f.claims and "nonnegative" in f.claims:
                assert check_normalized_nonnegative(f).passed, f.name
            for claim, checker in checkers.items():
                if claim in f.claims:
                    assert checker(f).passed, (f.name, claim)

    def test_monotone_claims_hold_at_n10(self):
        for f in (
            metric_dispersion(random_metric(10, 97)),
            segmentation(random_segmentation(10, 4, 98)),
        ):
            assert MONOTONE in f.claims
            assert check_monotone(f).passed


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6),
    st.data(),
)
def test_dispersion_decomposition_property(weights, data):
    n = len(weights)
    d = random_metric(n, sum(weights) + n)
    f = metric_dispersion(d)
    members = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    a = frozenset(members)
    b = frozenset(range(n)) - a
    assert f(a | b) == f(a) + f(b) + cross_dispersion(d, a, b)
