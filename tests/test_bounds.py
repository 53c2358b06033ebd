import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksub.bounds import (
    RatioTable,
    a_star,
    a_star_from_sum,
    b_star,
    b_star_from_sum,
    g_continuous,
    g_stationary,
    geometric_identity,
    greedy_limit,
    greedy_ratio,
    greedy_ratio_table,
    ls_bound,
    ls_bound_table,
    ls_discrete_bound,
    rearrangement_check,
    weighted_geometric_identity,
)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestGeometricIdentities:
    def test_hand_values(self):
        assert geometric_identity(1, 3) == (7, 7)
        lhs, rhs = geometric_identity(2, 1)
        assert lhs == 1 and rel_close(rhs, 1)
        assert weighted_geometric_identity(1, 2) == (5, 5)
        lhs, rhs = weighted_geometric_identity(2, 1)
        assert lhs == 1 and rel_close(rhs, 1)

    def test_grid_agreement_float(self):
        for i in range(1, 11):
            for n in range(1, 51):
                lhs, rhs = geometric_identity(i, n)
                assert rel_close(lhs, rhs), (i, n)
                lhs, rhs = weighted_geometric_identity(i, n)
                assert rel_close(lhs, rhs), (i, n)

    def test_grid_agreement_exact(self):
        for i in (1, 2, 3, 5):
            for n in (1, 2, 7, 20):
                lhs, rhs = geometric_identity(i, n, exact=True)
                assert lhs == rhs
                lhs, rhs = weighted_geometric_identity(i, n, exact=True)
                assert lhs == rhs

    def test_domain(self):
        with pytest.raises(ValueError):
            geometric_identity(0, 3)
        with pytest.raises(ValueError):
            weighted_geometric_identity(2, 0)


class TestChainCoefficients:
    def test_small_values_from_defining_sums(self):
        # i=1, p=2: sum is 2*1 + 1*2 = 4; i=2, p=3 closed form gives 13.
        assert a_star_from_sum(1, 2, exact=True) == 4
        assert a_star(1, 2, exact=True) == 4
        assert a_star(2, 3, exact=True) == 13
        assert a_star_from_sum(2, 3, exact=True) == 13

    def test_difference_is_exactly_i(self):
        for p in (2, 3, 5, 9, 17):
            for i in range(1, p):
                assert a_star(i, p, exact=True) - b_star(i, p, exact=True) == i

    def test_closed_form_matches_sum(self):
        for p in range(2, 65):
            for i in range(1, p):
                a_c, a_s = a_star(i, p), a_star_from_sum(i, p)
                b_c, b_s = b_star(i, p), b_star_from_sum(i, p)
                assert rel_close(a_c, a_s, 1e-9), (i, p)
                assert rel_close(b_c, b_s, 1e-9), (i, p)

    def test_closed_form_matches_sum_exactly(self):
        for p in (2, 3, 7, 16, 24):
            for i in range(1, p):
                assert a_star(i, p, exact=True) == a_star_from_sum(i, p, exact=True)
                assert b_star(i, p, exact=True) == b_star_from_sum(i, p, exact=True)

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            a_star(0, 5)
        with pytest.raises(ValueError):
            a_star(5, 5)
        with pytest.raises(ValueError):
            b_star(1, 1)


class TestGreedyRatio:
    def test_p2_is_exactly_four(self):
        # Single chain term 1 / a*_1 with a*_1 = 4.
        assert greedy_ratio(2, exact=True) == 4
        assert greedy_ratio(2) == pytest.approx(4.0, abs=1e-12)

    def test_p3_exact_value(self):
        assert greedy_ratio(3, exact=True) == Fraction(13, 3)

    def test_float_matches_exact_up_to_32(self):
        for p in (2, 5, 10, 17, 32):
            exact = float(greedy_ratio(p, exact=True))
            assert rel_close(greedy_ratio(p), exact, 1e-9), p

    def test_product_form_matches_the_chain_sum(self):
        for p in range(2, 101):
            assert greedy_ratio(p, exact=True) == reference_chain_sum(p), p

    def test_float_rows_within_eight_ulps_of_exact(self):
        # The running-sum loop reads at most 6 ulps (p = 92); a float loop
        # over the product form alone, 1 / (1 - prod), reads 34 and fails this.
        for p, bound, _ in greedy_ratio_table(range(2, 101)).rows:
            exact = float(greedy_ratio(p, exact=True))
            assert abs(bound - exact) <= 8 * math.ulp(exact), p

    def test_sum_route_matches_closed_forms(self):
        for p in range(2, 41):
            assert greedy_ratio(p, exact=True) == reference_from_sums(p, exact=True)
            assert rel_close(greedy_ratio(p), reference_from_sums(p, exact=False), 1e-9)

    def test_regression_values_from_the_chain_formula(self):
        # Frozen from the exact rational evaluation of the telescoped chain
        # bound (cross-checked against the defining sums above).  These differ
        # from the 3.74 / 5.62 targets the acceptance suite asserts, which
        # would require an extra best-singleton assumption that fails for
        # dispersion-like functions; see the acceptance suite for the story.
        assert greedy_ratio(10) == pytest.approx(5.385877670261684, rel=1e-9)
        assert greedy_ratio(100) == pytest.approx(5.895392831106645, rel=1e-9)
        # The float path to the bit; from p = 1011 the i = 1 term passes
        # _LOG_OVERFLOW and degenerates to (0, 1).
        pinned = {
            2: "0x1.0000000000000p+2",
            3: "0x1.1555555555555p+2",
            10: "0x1.58b2384181f58p+2",
            57: "0x1.766e7fc6d792ap+2",
            100: "0x1.794e1dbbab420p+2",
            1011: "0x1.7cc604acea921p+2",
            1560: "0x1.7ce885cdd5da9p+2",
            2000: "0x1.7cf6818b49b39p+2",
            5000: "0x1.7d1442c5197e0p+2",
        }
        assert {p: greedy_ratio(p).hex() for p in pinned} == pinned

    def test_monotone_and_bounded_on_sampled_scan(self):
        values = [greedy_ratio(p) for p in range(10, 401, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] < 5.96

    def test_large_p_does_not_overflow(self):
        assert 5.9 < greedy_ratio(2000) < 5.96
        assert 5.9 < greedy_ratio(5000) < 5.96

    def test_domain(self):
        with pytest.raises(ValueError):
            greedy_ratio(1)
        for exact in (False, True):
            with pytest.raises(ValueError, match="need p >= 2"):
                greedy_ratio_table([3, 1, 2], exact=exact)


class TestGreedyLimit:
    # K and L at 30 digits (mpmath, from both integrals of the docstring).
    K = "0.183814626989928311445261990643"
    L = "5.95557273402108069737490555137"

    def test_matches_the_30_digit_constant(self):
        assert abs(greedy_limit() - float(self.L)) < 1e-12
        assert abs(-math.log1p(-1 / greedy_limit()) - float(self.K)) < 1e-12

    def test_every_row_lies_below_the_limit(self):
        limit = greedy_limit()
        floats = greedy_ratio_table(range(2, 2001))
        assert all(bound < limit for _, bound, _ in floats.rows)
        assert all(greedy_ratio(p, exact=True) < limit for p in range(2, 101))

    def test_the_gap_closes_like_one_over_p(self):
        p = 10**4
        assert abs(p * (greedy_limit() - greedy_ratio(p)) - 6.056) < 1e-3


def reference_chain_sum(p):
    """The exact chain bound as its running sum over the common denominator
    prod N_i: sum_i (i / a*_i) prod_{j>i} (b*_j / a*_j), inverted, with
    a*_i = N_i / i^p.  The reference for the product form of ``greedy_ratio``."""
    total, prod, den = 0, 1, 1
    upper = p**p
    for i in range(p - 1, 0, -1):
        lower = i**p
        n_i = 2 * i * i * upper - (2 * i * i + i * p) * lower
        term = i * lower
        total = total * n_i + term * prod
        prod *= n_i - term
        den *= n_i
        upper = lower
    return Fraction(den, total)


def reference_from_sums(p, exact):
    """The chain bound 1 / (1 - prod b*_i / a*_i) with the defining sums in
    place of the closed forms: an independent route to ``greedy_ratio``."""
    prod = Fraction(1) if exact else 1.0
    for i in range(1, p):
        prod *= b_star_from_sum(i, p, exact) / a_star_from_sum(i, p, exact)
    return 1 / (1 - prod)


def reference_greedy_float(p):
    """The float chain bound as one loop over i that forms 2.0 * i in every
    step and reads log1p(1/i) from a list of its own: the loop the shared
    step pairs of ``greedy_ratio_table`` must reproduce bit for bit."""
    log_steps = [math.log1p(1.0 / i) for i in range(p - 1, 0, -1)]
    total = 0.0
    prod = 1.0
    p_float = float(p)
    for i, log_step in zip(range(p - 1, 0, -1), log_steps):
        log_power = p_float * log_step
        if log_power > 700.0:
            continue
        inv = 1.0 / (2.0 * i * math.expm1(log_power) - p_float)
        total += inv * prod
        prod *= 1.0 - inv
    return 1.0 / total


@pytest.fixture(scope="module")
def float_rows():
    # 2..1600 covers the benchmark's table (to 1560) and the first rows that
    # skip overflowing steps (from p = 1011).
    return {p: bound for p, bound, _ in greedy_ratio_table(range(2, 1601)).rows}


class TestGreedyFloatSteps:
    def test_table_rows_equal_the_reference_loop(self, float_rows):
        assert all(float_rows[p] == reference_greedy_float(p) for p in range(2, 1601))

    def test_scalar_calls_equal_table_rows(self, float_rows):
        for p in (2, 3, 1010, 1011, 1012, 1600):
            assert greedy_ratio(p) == float_rows[p], p

    def test_scalar_path_streams_its_steps(self):
        # A list of the 10**5 step pairs would take about 11 MB.
        tracemalloc.start()
        try:
            greedy_ratio(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLocalSearchBound:
    def test_reference_windows(self):
        assert 10.87 <= ls_discrete_bound(6, 6) <= 10.89
        assert ls_discrete_bound(2, 2, exact=True) == Fraction(29, 2)
        assert abs(ls_discrete_bound(1000, 1000) - 10.22) < 0.01

    def test_matches_continuous_relaxation(self):
        # y = ((s+1)/s)^t makes the discrete bound equal g(x, t/s) at
        # x = ((s+1)/s)^s; spot-check the algebra.
        for s, t in ((2, 2), (5, 3), (9, 9), (40, 17)):
            x = (1 + 1 / s) ** s
            assert rel_close(ls_discrete_bound(s, t), g_continuous(x, t / s), 1e-9)

    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            ls_discrete_bound(5, 1)
        with pytest.raises(ValueError):
            ls_discrete_bound(5, 6)

    def test_bound_is_max_over_t_at_t_equals_s(self):
        # ls_bound evaluates only t = s; the maximum over every t is the
        # reference, and the exact values must rise strictly in t as the
        # proof in ls_bound's docstring claims.
        for s in range(2, 301):
            best = max(ls_discrete_bound(s, t) for t in range(2, s + 1))
            assert ls_bound(s) == best == ls_discrete_bound(s, s), s
        for s in range(2, 81):
            values = [ls_discrete_bound(s, t, exact=True) for t in range(2, s + 1)]
            assert all(a < b for a, b in zip(values, values[1:])), s
            assert ls_bound(s, exact=True) == values[-1], s

    def test_float_values_pinned_to_the_bit(self):
        pinned = {
            2: "0x1.d000000000000p+3",
            3: "0x1.8480f2b9d6487p+3",
            17: "0x1.4cbd1ae5fe173p+3",
            136: "0x1.47af554c2419fp+3",
            1000: "0x1.472745f8a5107p+3",
            1220: "0x1.47237c34f470fp+3",
        }
        assert {s: ls_bound(s).hex() for s in pinned} == pinned

    def test_global_cap_and_monotone_decrease(self):
        values = [ls_bound(s) for s in range(2, 101)]
        assert values[0] == pytest.approx(14.5, abs=1e-9)
        assert all(v <= 14.5 + 1e-6 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ls_bound(1)
        for exact in (False, True):
            with pytest.raises(ValueError, match="need s >= 2"):
                ls_bound_table([3, 1, 2], exact=exact)


class TestContinuousRelaxation:
    def test_boundary_values(self):
        assert 10.21 <= g_continuous(math.e, 1) <= 10.23
        assert g_continuous(Fraction(9, 4), 1) == Fraction(29, 2)
        assert g_continuous(2.25, 1) == pytest.approx(14.5, abs=1e-9)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            g_continuous(2.0, 1)
        with pytest.raises(ValueError):
            g_continuous(3.0, 1)
        with pytest.raises(ValueError):
            g_continuous(2.5, 0)
        with pytest.raises(ValueError):
            g_continuous(2.5, 1.5)
        # At so small an r, x**r rounds to 1 and the denominator to 0.
        with pytest.raises(ValueError, match="denominator"):
            g_continuous(2.5, 1e-300)

    def test_stationary_point_rational_case(self):
        assert g_stationary(1) == (3, 10)

    @pytest.mark.parametrize("r", [0, -0.5, 1.5, 2])
    def test_stationary_point_domain_enforced(self, r):
        with pytest.raises(ValueError, match="0 < r <= 1"):
            g_stationary(r)

    def test_stationary_point_grid(self):
        # g at the closed-form stationary x* equals (2r^2+8)/(r-2)^2; the
        # function itself asserts 1e-9 agreement, so just drive the grid.
        for k in range(1, 21):
            r = k / 20
            x_star, value = g_stationary(r)
            assert rel_close(((2 + r) / (2 - r)) ** (1 / r), x_star, 1e-12)
            assert value <= 10 + 1e-12

    def test_stationary_value_increasing_to_ten(self):
        values = [g_stationary(k / 20)[1] for k in range(1, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(10.0, abs=1e-12)

    def test_discrete_bound_approaches_continuous_boundary(self):
        assert abs(ls_discrete_bound(1000, 1000) - g_continuous(math.e, 1)) < 0.01


class TestRearrangement:
    def test_constant_sequences_are_tight(self):
        assert rearrangement_check((2, 2, 2), (3, 3, 3), (5, 5, 5))

    def test_hand_example(self):
        # (2*3 + 1*0) * 2 = 12 >= (1*0 + 1*3) * 3 = 9.
        assert rearrangement_check((2, 1), (1, 1), (3, 0))

    def test_random_sorted_triples(self):
        rng = Random(99)
        for _ in range(300):
            n = rng.randint(1, 12)
            mk = lambda: tuple(sorted((rng.randint(0, 30) for _ in range(n)), reverse=True))
            assert rearrangement_check(mk(), mk(), mk())

    def test_nan_fails(self):
        assert not rearrangement_check((1.0, 1.0), (1.0, 1.0), (math.nan, 0.0))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            rearrangement_check((1, 2), (2, 1), (2, 1))
        with pytest.raises(ValueError):
            rearrangement_check((2, -1), (2, 1), (2, 1))
        with pytest.raises(ValueError):
            rearrangement_check((1, 1), (1, 1), (1,))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)), min_size=1, max_size=10))
    def test_property_over_generated_triples(self, rows):
        alphas = tuple(sorted((r[0] for r in rows), reverse=True))
        betas = tuple(sorted((r[1] for r in rows), reverse=True))
        xs = tuple(sorted((r[2] for r in rows), reverse=True))
        assert rearrangement_check(alphas, betas, xs)


class TestRatioTable:
    def test_rows_and_serialization(self):
        table = greedy_ratio_table(range(2, 6))
        assert [row[0] for row in table.rows] == [2, 3, 4, 5]
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "param,bound,mode"
        assert len(csv_text.splitlines()) == 5
        obj = table.to_json_obj()
        assert obj["kind"] == "greedy" and len(obj["rows"]) == 4

    def test_exact_mode_serializes_fractions(self):
        table = greedy_ratio_table([3], exact=True)
        assert table.rows[0][1] == Fraction(13, 3)
        assert "13/3" in table.to_csv()

    def test_rows_equal_scalar_calls(self):
        # The float ranges are those of the benchmark's sweep tables; the
        # greedy one reaches the _LOG_OVERFLOW branch from p = 1011.  Empty,
        # unordered and repeated parameters must not upset the shared logs.
        cases = [
            (greedy_ratio_table, greedy_ratio, range(2, 1561), False),
            (ls_bound_table, ls_bound, range(2, 1221), False),
            (greedy_ratio_table, greedy_ratio, range(2, 57), True),
            (ls_bound_table, ls_bound, range(2, 137), True),
        ]
        for table, scalar in ((greedy_ratio_table, greedy_ratio), (ls_bound_table, ls_bound)):
            for exact in (False, True):
                cases += [(table, scalar, [], exact), (table, scalar, [5, 3, 5], exact)]
        for table, scalar, params, exact in cases:
            mode = "rational" if exact else "float64"
            expected = tuple((p, scalar(p, exact=exact), mode) for p in params)
            assert table(params, exact=exact).rows == expected, (table, params, exact)

    def test_bounds_exceed_one(self):
        local = ls_bound_table(range(2, 9))
        assert all(b > 1 for _, b, _ in local.rows)
        with pytest.raises(ValueError):
            RatioTable(((2, 0.5, "float64"),), kind="greedy")
