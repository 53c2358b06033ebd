import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub
from weaksub import (
    CapExceeded,
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
from weaksub.core import (
    CheckReport,
    PropertyKind,
    ViolationWitness,
    _weak_sides,
    cardinality_profile,
    violates,
)
from weaksub.zoo import (
    DistanceMatrix,
    SegmentationMatrix,
    cardinality_power,
    coverage,
    linear,
    max_cut,
    metric_dispersion,
    random_coverage,
    random_metric,
    raw_cardinality_profile,
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

    def test_of_size_builds_no_set_of_its_labels(self):
        # range(n) labels are unique by construction; a uniqueness set of a
        # million ints would double the peak over what the ground set keeps.
        tracemalloc.start()
        try:
            g = GroundSet.of_size(10**6)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.elements == tuple(range(10**6)) and g == GroundSet(tuple(range(10**6)))
        assert peak <= 1.25 * retained
        for labels in ((0, 1, 0), ("a", "b", "a"), (1, True)):
            with pytest.raises(ValueError, match="unique"):
                GroundSet(labels)

    def test_index_and_label_roundtrip(self):
        g = GroundSet(("x", "y", "z"))
        assert g.index("y") == 1
        assert g.label(2) == "z"
        with pytest.raises(KeyError):
            g.index("w")

    def test_bool_and_int_labels_never_name_each_other(self):
        # True == 1 and False == 0, so a dict lookup alone would mix them.
        ints, bools = GroundSet.of_size(3), GroundSet((True, False))
        for g, label in ((ints, True), (ints, False), (bools, 1), (bools, 0)):
            with pytest.raises(KeyError, match="is not a ground-set element"):
                g.index(label)
        assert (bools.index(True), bools.index(False), ints.index(1)) == (0, 1, 1)
        assert Subset.from_labels(bools, [False]).mask == 0b10

    def test_membership_of_a_non_element_is_false(self):
        s = Subset.from_indices(GroundSet.of_size(3), [0])
        assert "z" not in s and True not in s and False not in s and 3 not in s
        assert 0 in s and 1 not in s
        bools = Subset.from_labels(GroundSet((True, False)), [True])
        assert True in bools and 1 not in bools and 0 not in bools

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
        assert (s & t) <= s and not s <= t and list(t) == [2, 4] and len(g) == 5

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
        for S, T in ((other, other), (Subset.empty(f.ground), other)):
            with pytest.raises(GroundSetMismatch):
                weak_submodularity_sides(f, S, T)

    def test_unknown_claims_refused(self):
        with pytest.raises(ValueError, match=r"unknown claims: \['bogus'\]"):
            SetFunction(GroundSet.of_size(2), lambda mask: 0, claims={"bogus"})

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

    def test_sampled_on_empty_ground_passes_like_exhaustive(self):
        # At n = 0 every draw is the full set, so redrawing until a draw
        # misses it never ends: run the call where a hang fails the test.
        code = (
            "from weaksub import check_monotone\n"
            "from weaksub.zoo import linear\n"
            "for mode in ('exhaustive', 'sampled'):\n"
            "    r = check_monotone(linear(()), mode, samples=3, seed=1)\n"
            "    print(r.mode, r.pairs_checked, r.passed, r.witness)"
        )
        env = {"PYTHONPATH": str(Path(weaksub.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=20, check=True,
        ).stdout
        assert out.splitlines() == ["exhaustive 0 True None", "sampled 0 True None"]


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
    def test_report_refuses_a_verdict_that_disagrees_with_its_witness(self):
        report = check_weakly_submodular(max_cut(star_counterexample(3)))
        with pytest.raises(ValueError, match="passed must hold exactly when no witness"):
            dataclasses.replace(report, passed=True)
        with pytest.raises(ValueError, match="passed must hold exactly when no witness"):
            CheckReport(report.property, "exhaustive", 0, False, None)

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


def _quarters(dist):
    return DistanceMatrix(tuple(tuple(Fraction(x, 4) for x in row) for row in dist.d))


_LINEAR_FLOATS = (0.5, 1.5, 0.25, 1.5, 1.0, 2.0, 0.75, 3.0)

# Sampled checks on fixed seeds: (checker, builder, samples, seed).
_SAMPLED_CASES = {
    "sign-linear-float-1": (check_normalized_nonnegative, lambda: linear(_LINEAR_FLOATS), 40, 1),
    "sign-linear-float-2": (check_normalized_nonnegative, lambda: linear(_LINEAR_FLOATS), 40, 2),
    "sign-profile-negative": (
        check_normalized_nonnegative, lambda: raw_cardinality_profile([0, 3, -1], 9), 40, 3
    ),
    "sign-profile-float": (
        check_normalized_nonnegative, lambda: raw_cardinality_profile([0.0, 1.5, -0.5], 9), 40, 5
    ),
    "sign-offset-at-empty": (check_normalized_nonnegative, lambda: cardinality_power(0, 6), 40, 1),
    "sign-float-offset-at-empty": (
        check_normalized_nonnegative,
        lambda: SetFunction(GroundSet.of_size(4), lambda m: m.bit_count() - 0.5),
        40,
        1,
    ),
    "sign-huge-ground": (check_normalized_nonnegative, lambda: cardinality_power(3, 1000), 30, 4),
    "monotone-empty-ground": (check_monotone, lambda: linear(()), 10, 0),
    "monotone-star": (check_monotone, lambda: max_cut(star_counterexample(4)), 50, 1),
    "monotone-dispersion": (check_monotone, lambda: metric_dispersion(random_metric(9, 2)), 50, 2),
    "monotone-zero-at-top": (check_monotone, lambda: zero_at_top(linear((1, 2, 3))), 60, 3),
    "monotone-float-profile": (
        check_monotone, lambda: raw_cardinality_profile([0.0, 1.5, -0.5], 8), 60, 6
    ),
    "submodular-dispersion": (
        check_submodular, lambda: metric_dispersion(random_metric(8, 7)), 50, 1
    ),
    "submodular-coverage": (check_submodular, lambda: random_coverage(9, 2), 60, 2),
    "submodular-linear-float": (
        check_submodular, lambda: linear((0.5, 1.5, 0.25, 1.5, 1.0)), 60, 3
    ),
    "weak-star": (check_weakly_submodular, lambda: max_cut(star_counterexample(5)), 200, 1),
    "weak-threshold-fraction": (
        check_weakly_submodular, lambda: threshold(3, Fraction(5, 2), 8), 100, 2
    ),
    "weak-dispersion-quarters": (
        check_weakly_submodular, lambda: metric_dispersion(_quarters(random_metric(8, 5))), 80, 3
    ),
    "weak-quartic-float": (
        check_weakly_submodular,
        lambda: raw_cardinality_profile([0.0, 0.0, 0.0, 0.0, 1.5], 7),
        200,
        4,
    ),
    "weak-empty-ground": (check_weakly_submodular, lambda: linear(()), 5, 0),
}

# Reports recorded from the earlier per-checker sampled loops:
# (pairs_checked, witness as (S mask, T mask, repr(lhs), repr(rhs)) or None).
_SAMPLED_PINS = {
    "sign-linear-float-1": (41, None),
    "sign-linear-float-2": (41, None),
    "sign-profile-negative": (2, (121, None, "-10", "0")),
    "sign-profile-float": (2, (318, None, "-9.0", "0")),
    "sign-offset-at-empty": (1, (0, None, "0", "1")),
    "sign-float-offset-at-empty": (1, (0, None, "-0.5", "0.0")),
    "sign-huge-ground": (31, None),
    "monotone-empty-ground": (0, None),
    "monotone-star": (2, (54, 55, "2", "4")),
    "monotone-dispersion": (50, None),
    "monotone-zero-at-top": (3, (5, 7, "0", "4")),
    "monotone-float-profile": (1, (203, 235, "-9.0", "-5.0")),
    "submodular-dispersion": (1, (34, 145, "7", "20")),
    "submodular-coverage": (60, None),
    "submodular-linear-float": (60, None),
    "weak-star": (2, (108, 102, "48", "52")),
    "weak-threshold-fraction": (32, (34, 130, "Fraction(0, 1)", "Fraction(5, 2)")),
    "weak-dispersion-quarters": (80, None),
    "weak-quartic-float": (1, (30, 38, "1638.0", "1995.0")),
    "weak-empty-ground": (5, None),
}


class TestSampledReportsPinned:
    @pytest.mark.parametrize("name", sorted(_SAMPLED_CASES))
    def test_report_matches_the_recorded_one(self, name):
        checker, build, samples, seed = _SAMPLED_CASES[name]
        report = checker(build(), "sampled", samples=samples, seed=seed)
        w = report.witness
        got = (
            report.pairs_checked,
            w and (w.S.mask, w.T and w.T.mask, repr(w.lhs), repr(w.rhs)),
        )
        assert got == _SAMPLED_PINS[name]
        assert (report.mode, report.samples, report.seed) == ("sampled", samples, seed)
        assert report.passed == (w is None)


def reference_sampled_monotone(f, samples, seed):
    """The sampled ``check_monotone`` loop as it read each probe's missing
    elements, one shift of the mask per element."""
    n, kind = f.ground.n, PropertyKind.MONOTONE
    rng = Random(seed)
    full = f.ground.full_mask
    checked, w = 0, None
    for _ in range(samples if n else 0):
        mask = rng.getrandbits(n)
        while mask == full:
            mask = rng.getrandbits(n)
        e = rng.choice([i for i in range(n) if not mask >> i & 1])
        bigger = mask | (1 << e)
        lo, hi = f.value(bigger), f.value(mask)
        checked += 1
        if violates(lo, hi):
            w = ViolationWitness(kind, Subset(f.ground, mask), Subset(f.ground, bigger), lo, hi)
            break
    return CheckReport(kind, "sampled", checked, w is None, w, samples=samples, seed=seed)


class TestSampledMonotoneProbe:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 33, 70])
    def test_reports_equal_the_reference_loop(self, n):
        def weighted(weights):
            return SetFunction(
                GroundSet.of_size(n),
                lambda mask: sum(w for i, w in enumerate(weights) if mask >> i & 1),
            )

        functions = [
            linear(range(1, n + 1)),  # passes
            weighted([(-1) ** i * (i + 1) for i in range(n)]),  # fails on an odd element
            weighted([1.5] * (n - 1) + [-0.25] if n else []),  # fails on the last element
        ]
        failed = 0
        for f in functions:
            for seed in range(6):
                report = check_monotone(f, "sampled", samples=40, seed=seed)
                assert report == reference_sampled_monotone(f, 40, seed)
                failed += not report.passed
        assert failed > 0 or n < 2


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
        # The canonical pair of (4, 4, 1): S - T = {0..3}, S & T = {4}, T - S = {5..8}.
        f = raw_cardinality_profile(4, 9)
        S, T = Subset.from_indices(f.ground, range(5)), Subset.from_indices(f.ground, range(4, 9))
        assert weak_submodularity_sides(f, S, T) == (6250, 6570)

    @pytest.mark.parametrize(
        "k_or_coeffs, bounds",
        [
            *(pytest.param(k, (8, 8, 8), id=f"k{k}") for k in range(9)),
            pytest.param(2, (16, 16, 16), id="k2-wide"),
            pytest.param(3, (16, 16, 16), id="k3-wide"),
            pytest.param([0, 2, 1, 1], (8, 8, 8), id="int-pass"),
            pytest.param([0, 1, 0, 0, 1], (6, 6, 6), id="int-fail"),
            pytest.param([0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 7)], (8, 8, 8), id="fraction-pass"),
            pytest.param([0, Fraction(1, 3), 0, 0, Fraction(1, 5)], (6, 6, 6), id="fraction-fail"),
            pytest.param([0.0, 1.5, 0.25, 0.1], (8, 8, 8), id="float-pass"),
            pytest.param([0.0, 0.5, 0.0, 0.0, 0.3], (6, 6, 6), id="float-fail"),
            pytest.param(math.sqrt, (8, 8, 8), id="callable-sqrt"),
            pytest.param(lambda m: 0.1 * m**4.5, (6, 6, 6), id="callable-power-4.5"),
            pytest.param(lambda m: m / 3 + m * m / 7, (8, 8, 8), id="callable-quadratic"),
        ],
    )
    def test_matches_the_reduced_formula(self, k_or_coeffs, bounds):
        # The reduced integer-triple scan, written out: the checker evaluates
        # each triple at a real pair and must agree with it in value, type and repr.
        prof = cardinality_profile(k_or_coeffs)
        checked, expected = 0, None
        for a, b, c in itertools.product(*(range(m + 1) for m in bounds)):
            checked += 1
            lhs = (b + c) * prof(a + c) + (a + c) * prof(b + c)
            rhs = c * prof(a + b + c) + (a + b + c) * prof(c)
            if violates(lhs, rhs):
                expected = (a, b, c), lhs, rhs
                break
        report = check_cardinality_family(k_or_coeffs, *bounds)
        assert (report.pairs_checked, report.passed) == (checked, expected is None)
        if expected is not None:
            w = report.witness
            assert w.triple == expected[0]
            for got, want in zip((w.lhs, w.rhs), expected[1:]):
                assert (got, type(got), repr(got)) == (want, type(want), repr(want))

    def test_coefficient_profiles(self):
        assert check_cardinality_family([0, 2, 1, 1], 8, 8, 8).passed
        assert not check_cardinality_family(lambda m: m**5, 6, 6, 6).passed

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            check_cardinality_family(2, 0, 8, 8)


def _tables(values):
    return st.integers(0, 6).flatmap(lambda n: st.lists(values, min_size=1 << n, max_size=1 << n))


@settings(max_examples=40, deadline=None)
@given(
    _tables(st.integers(-20, 20))
    | _tables(st.fractions(min_value=-5, max_value=5, max_denominator=9))
)
def test_weak_slack_identity(values):
    """lhs - rhs = b f_C(A) + a f_C(B) - c I on every pair (see ``_weak_sides``)."""
    f = values.__getitem__
    for S in range(len(values)):
        for T in range(len(values)):
            A, B, C = S & ~T, T & ~S, S & T
            a, b, c = A.bit_count(), B.bit_count(), C.bit_count()
            interaction = f(A | B | C) - f(A | C) - f(B | C) + f(C)
            lhs, rhs = _weak_sides(f, S, T)
            slack = lhs - rhs
            assert slack == b * (f(A | C) - f(C)) + a * (f(B | C) - f(C)) - c * interaction
            if a == 0 or b == 0:
                assert slack == 0
            if c == 0:
                assert slack == b * (f(A) - f(0)) + a * (f(B) - f(0))


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

    @staticmethod
    def _nan_at(bad: int) -> SetFunction:
        """|S| as a float, except NaN at the mask ``bad``."""
        return SetFunction(
            GroundSet.of_size(3), lambda mask: math.nan if mask == bad else mask.bit_count() * 1.0
        )

    @pytest.mark.parametrize(
        "checker",
        [check_normalized_nonnegative, check_monotone, check_submodular, check_weakly_submodular],
    )
    def test_nan_value_fails_exhaustive_checks(self, checker):
        report = checker(self._nan_at(0b101))
        assert not report.passed
        assert math.isnan(report.witness.lhs) or math.isnan(report.witness.rhs)

    def test_nan_value_fails_sampled_check(self):
        # Seed 4 draws the masks 1, 2, 0 and then the NaN mask 5.
        f = self._nan_at(0b101)
        report = check_normalized_nonnegative(f, "sampled", samples=10, seed=4)
        assert not report.passed and report.pairs_checked == 5
        assert report.witness.S.mask == 0b101 and math.isnan(report.witness.lhs)

    def test_fraction_values_stay_exact(self):
        w = (Fraction(1, 3), Fraction(2, 3))
        f = linear(w)
        assert f({0, 1}) == Fraction(1)
        assert check_weakly_submodular(f).passed
