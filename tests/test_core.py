from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from weaksub import (
    CapExceeded,
    CheckerLimits,
    GroundSet,
    GroundSetMismatch,
    SetFunction,
    Subset,
    check_cardinality_family,
    check_monotone,
    check_normalized_nonnegative,
    check_submodular,
    check_weakly_submodular,
    evaluate,
    weak_submodularity_sides,
)
from weaksub.zoo import (
    DistanceMatrix,
    SegmentationMatrix,
    cardinality_power,
    coverage,
    linear,
    max_cut,
    metric_dispersion,
    random_metric,
    segmentation,
    star_counterexample,
    threshold,
    zero_at_top,
)

from conftest import (
    naive_monotone_violations,
    naive_submodular_violations,
    naive_weak_submodular_violations,
)


class TestGroundSetAndSubset:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_index_and_label_roundtrip(self):
        g = GroundSet(("x", "y", "z"))
        assert g.index("y") == 1
        assert g.label(2) == "z"
        with pytest.raises(KeyError):
            g.index("w")

    def test_subset_operations(self):
        g = GroundSet.of_size(5)
        s = Subset.from_indices(g, (0, 2))
        t = Subset.from_labels(g, (2, 4))
        assert (s | t).indices() == (0, 2, 4)
        assert (s & t).indices() == (2,)
        assert (s - t).indices() == (0,)
        assert len(s) == 2 and 2 in s and 1 not in s
        assert s.complement().indices() == (1, 3, 4)
        assert Subset.full(g).cardinality == 5

    def test_subset_out_of_range(self):
        g = GroundSet.of_size(3)
        with pytest.raises(ValueError):
            Subset(g, 0b1000)
        with pytest.raises(ValueError):
            Subset.from_indices(g, (3,))

    def test_mixed_ground_operations_fail(self):
        a, b = GroundSet.of_size(3), GroundSet.of_size(4)
        with pytest.raises(GroundSetMismatch):
            Subset.empty(a) | Subset.empty(b)


class TestEvaluate:
    def test_dispersion_empty_and_full(self):
        f = metric_dispersion(DistanceMatrix.unit(3))
        g = f.ground
        assert evaluate(f, Subset.empty(g)) == 0
        assert evaluate(f, Subset.full(g)) == 3  # three unit pairs

    def test_segmentation_column_max_sums(self):
        # Independent hand evaluation of the column-wise max definition.
        m = ((4, -2), (1, 3), (0, 0))
        expected = sum(max(m[i][j] for i in (0, 1)) for j in range(2))
        assert expected == 7
        f = segmentation(SegmentationMatrix(m))
        assert f({0, 1}) == 7

    def test_ground_mismatch(self):
        f = metric_dispersion(DistanceMatrix.unit(3))
        other = Subset.empty(GroundSet.of_size(4))
        with pytest.raises(GroundSetMismatch):
            evaluate(f, other)

    def test_memoization_is_bit_identical(self):
        calls = []

        def ev(mask):
            calls.append(mask)
            return mask * 0.1

        f = SetFunction(GroundSet.of_size(4), ev)
        first = [f.value(m) for m in range(16)]
        again = [f.value(m) for m in range(16)]
        assert first == again
        assert len(calls) == 16  # each mask evaluated exactly once

    def test_concurrent_evaluation_matches_sequential(self):
        f = metric_dispersion(random_metric(8, 99))
        sequential = f.all_values()
        f2 = metric_dispersion(random_metric(8, 99))
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(f2.value, range(1 << 8)))
        assert concurrent == sequential


class TestNormalizedNonnegative:
    def test_cardinality_square_passes(self):
        report = check_normalized_nonnegative(cardinality_power(2, 4))
        assert report.passed and report.pairs_checked == 16

    def test_linear_passes(self):
        assert check_normalized_nonnegative(linear((1, 2, 3))).passed

    def test_offset_function_fails_at_empty_set(self):
        f = SetFunction(GroundSet.of_size(3), lambda mask: mask.bit_count() + 1)
        report = check_normalized_nonnegative(f)
        assert not report.passed
        assert report.witness.S.mask == 0
        assert report.witness.lhs < report.witness.rhs

    def test_negative_value_fails_with_witness(self):
        f = SetFunction(GroundSet.of_size(3), lambda mask: -1 if mask == 0b101 else 0)
        report = check_normalized_nonnegative(f)
        assert not report.passed
        assert report.witness.S.mask == 0b101
        assert report.witness.lhs == -1

    def test_cap(self):
        f = SetFunction(GroundSet.of_size(21), lambda mask: 0)
        with pytest.raises(CapExceeded):
            check_normalized_nonnegative(f)
        small_cap = CheckerLimits(sign=5)
        with pytest.raises(CapExceeded):
            check_normalized_nonnegative(linear((1,) * 6), limits=small_cap)


class TestMonotone:
    def test_segmentation_average_nonnegative_is_monotone(self):
        m = SegmentationMatrix(((3, -2), (-1, 4), (2, 2)))
        assert check_monotone(segmentation(m)).passed

    def test_zero_at_top_fails_with_top_witness(self):
        f = zero_at_top(metric_dispersion(DistanceMatrix.unit(3)))
        report = check_monotone(f)
        assert not report.passed
        w = report.witness
        assert w.T.mask == f.ground.full_mask  # T = U covers S = U - {e}
        assert w.S.cardinality == 2
        assert w.lhs < w.rhs

    def test_linear_passes(self):
        assert check_monotone(linear((0, 1, 5, 2))).passed

    def test_agrees_with_naive_oracle(self):
        f = segmentation(SegmentationMatrix(((2, -1), (-3, 5), (1, 1))))
        naive = naive_monotone_violations(f.ground.elements, lambda S: f(S))
        assert check_monotone(f).passed == (not naive)


class TestSubmodular:
    def test_coverage_passes(self):
        f = coverage([["a"], ["a", "b"], ["c"]], {"a": 2, "b": 1, "c": 3})
        assert check_submodular(f).passed

    def test_dispersion_fails_with_first_scan_witness(self):
        f = metric_dispersion(DistanceMatrix.unit(4))
        report = check_submodular(f)
        assert not report.passed
        # Lexicographic scan meets {0} vs {1} first: 0 + 0 < f({0,1}) + 0.
        assert report.witness.S.mask == 0b01
        assert report.witness.T.mask == 0b10
        assert (report.witness.lhs, report.witness.rhs) == (0, 1)

    def test_linear_is_modular(self):
        assert check_submodular(linear((3, 1, 4))).passed

    def test_agrees_with_naive_oracle(self):
        for f in (
            metric_dispersion(random_metric(5, 7)),
            coverage([[0], [0, 1], [2], [1]]),
        ):
            naive = naive_submodular_violations(f.ground.elements, lambda S: f(S))
            assert check_submodular(f).passed == (not naive)


class TestWeaklySubmodular:
    def test_max_cut_star_fails_and_reference_pair_violates(self):
        f = max_cut(star_counterexample(3))
        report = check_weakly_submodular(f)
        assert not report.passed
        # Any witness is accepted, but it must be a genuine violation...
        w = report.witness
        lhs, rhs = weak_submodularity_sides(f, w.S, w.T)
        assert (lhs, rhs) == (w.lhs, w.rhs) and lhs < rhs
        # ...and the classic around-the-hubs pair violates with 24 < 30.
        g = f.ground
        S = Subset.from_indices(g, (0, 1, 2, 3))
        T = Subset.from_indices(g, (0, 1, 2, 4))
        assert weak_submodularity_sides(f, S, T) == (24, 30)

    def test_threshold3_fails_and_reference_pair_violates(self):
        f = threshold(3, 1, 5)
        report = check_weakly_submodular(f)
        assert not report.passed
        S = Subset.from_indices(f.ground, (0, 2))
        T = Subset.from_indices(f.ground, (1, 2))
        assert weak_submodularity_sides(f, S, T) == (0, 1)

    def test_random_metric_dispersion_passes(self):
        for seed in (0, 1, 2):
            f = metric_dispersion(random_metric(6, seed))
            assert check_weakly_submodular(f).passed

    def test_submodular_plus_monotone_implies_weakly(self):
        # Exhaustively verified consequence, not just the claim.
        for f in (
            linear((2, 0, 1, 3)),
            coverage([[0], [0, 1], [2], [1, 2]]),
            cardinality_power(1, 5),
        ):
            assert check_submodular(f).passed
            assert check_monotone(f).passed
            assert check_weakly_submodular(f).passed

    def test_agrees_with_naive_oracle(self):
        for f in (
            metric_dispersion(random_metric(5, 3)),
            max_cut(star_counterexample(2)),
            threshold(2, 3, 5),
        ):
            naive = naive_weak_submodular_violations(f.ground.elements, lambda S: f(S))
            assert check_weakly_submodular(f).passed == (not naive)

    def test_pairwise_cap(self):
        f = linear((1,) * 13)
        with pytest.raises(CapExceeded):
            check_weakly_submodular(f)


class TestSampledMode:
    def test_requires_samples_and_seed(self):
        f = linear((1, 2))
        with pytest.raises(ValueError):
            check_weakly_submodular(f, "sampled")
        with pytest.raises(ValueError):
            check_weakly_submodular(f, "nonsense")

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize(
        "checker",
        [check_normalized_nonnegative, check_monotone, check_submodular, check_weakly_submodular],
    )
    def test_rejects_fewer_than_one_sample(self, checker, samples):
        # threshold k=3 fails exhaustively; a sampled scan of no pairs must not pass it
        f = threshold(3, 1, 6)
        with pytest.raises(ValueError, match="samples >= 1"):
            checker(f, "sampled", samples=samples, seed=1)

    def test_same_seed_same_report(self):
        f = max_cut(star_counterexample(3))
        a = check_weakly_submodular(f, "sampled", samples=500, seed=11)
        b = check_weakly_submodular(f, "sampled", samples=500, seed=11)
        assert a == b

    def test_sampled_witness_reproduces_bit_exactly(self):
        f = max_cut(star_counterexample(3))
        report = check_weakly_submodular(f, "sampled", samples=2000, seed=5)
        assert not report.passed
        w = report.witness
        assert weak_submodularity_sides(f, w.S, w.T) == (w.lhs, w.rhs)
        assert w.lhs < w.rhs

    def test_sampled_pass_on_large_ground(self):
        f = metric_dispersion(random_metric(16, 4))
        report = check_weakly_submodular(f, "sampled", samples=300, seed=9)
        assert report.passed and report.pairs_checked == 300
        assert report.samples == 300 and report.seed == 9

    def test_sampled_monotone_and_sign_checks(self):
        f = metric_dispersion(random_metric(15, 8))
        assert check_monotone(f, "sampled", samples=200, seed=1).passed
        assert check_normalized_nonnegative(f, "sampled", samples=200, seed=1).passed


class TestParallelScan:
    def test_jobs_do_not_change_pass_reports(self):
        f = metric_dispersion(random_metric(6, 21))
        assert check_weakly_submodular(f, jobs=4) == check_weakly_submodular(f)

    def test_jobs_preserve_first_witness(self):
        f = max_cut(star_counterexample(3))
        solo = check_weakly_submodular(f)
        multi = check_weakly_submodular(f, jobs=5)
        assert solo.witness == multi.witness
        mono_solo = check_monotone(zero_at_top(metric_dispersion(DistanceMatrix.unit(4))))
        mono_multi = check_monotone(
            zero_at_top(metric_dispersion(DistanceMatrix.unit(4))), jobs=3
        )
        assert mono_solo.witness == mono_multi.witness


class TestCardinalityFamily:
    def test_small_powers_pass(self):
        for k in (0, 1, 2, 3):
            assert check_cardinality_family(k, 8, 8, 8).passed

    def test_square_and_cube_pass_wide_bounds(self):
        assert check_cardinality_family(2, 16, 16, 16).passed
        assert check_cardinality_family(3, 16, 16, 16).passed

    def test_higher_powers_fail(self):
        for k in range(4, 9):
            report = check_cardinality_family(k, 8, 8, 8)
            assert not report.passed
            a, b, c = report.witness.triple
            prof = lambda m: m**k
            lhs = (b + c) * prof(a + c) + (a + c) * prof(b + c)
            rhs = c * prof(a + b + c) + (a + b + c) * prof(c)
            assert (lhs, rhs) == (report.witness.lhs, report.witness.rhs)
            assert lhs < rhs

    def test_fourth_power_reference_triple(self):
        prof = lambda m: m**4
        a, b, c = 4, 4, 1
        lhs = (b + c) * prof(a + c) + (a + c) * prof(b + c)
        rhs = c * prof(a + b + c) + (a + b + c) * prof(c)
        assert (lhs, rhs) == (6250, 6570)

    def test_coefficient_profiles(self):
        assert check_cardinality_family([0, 2, 1, 1], 8, 8, 8).passed
        assert not check_cardinality_family(lambda m: m**5, 6, 6, 6).passed

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            check_cardinality_family(2, 0, 8, 8)


class TestToleranceModel:
    def test_integer_arithmetic_uses_zero_tolerance(self):
        # An integer violation by exactly 1 must be caught.
        f = SetFunction(GroundSet.of_size(2), lambda mask: [0, 0, 0, -1][mask])
        assert not check_normalized_nonnegative(f).passed

    def test_float_roundoff_is_absorbed(self):
        eps = 1e-13

        def ev(mask):
            return mask.bit_count() * 1.0 - (eps if mask == 0b11 else 0.0)

        f = SetFunction(GroundSet.of_size(2), ev)
        assert check_monotone(f).passed
        assert check_submodular(f).passed

    def test_fraction_values_stay_exact(self):
        w = (Fraction(1, 3), Fraction(2, 3))
        f = linear(w)
        assert f({0, 1}) == Fraction(1)
        assert check_weakly_submodular(f).passed
