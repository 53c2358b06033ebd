"""Differential tests: exact integer-table kernels vs the scalar reference scan
vs the naive frozenset oracles in ``conftest``.

For every function below, the three must agree on the verdict, the first
witness in scan order (S, T, lhs, rhs, including the value types) and the
number of pairs checked up to it.
"""

import json
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksub import core
from weaksub.core import (
    RELATIVE_TOL,
    GroundSet,
    SetFunction,
    Subset,
    check_monotone,
    check_normalized_nonnegative,
    check_submodular,
    check_weakly_submodular,
)
from weaksub.instances import Instance, parse_json
from weaksub.zoo import (
    DistanceMatrix,
    Graph,
    WelfareInstance,
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
    supermodular_pair,
    threshold,
    welfare_reduction,
    zero_at_top,
)

from conftest import (
    naive_monotone_violations,
    naive_submodular_violations,
    naive_weak_submodular_violations,
    powerset,
)


# -- outcomes: (passed, pairs_checked, witness as masks, values and types) ----


def _witness(S, T, lhs, rhs):
    return (S, T, lhs, type(lhs), rhs, type(rhs))


def report_outcome(report):
    w = report.witness
    if w is None:
        return (True, report.pairs_checked, None)
    T = None if w.T is None else w.T.mask
    return (False, report.pairs_checked, _witness(w.S.mask, T, w.lhs, w.rhs))


def pair_position(S, T, total):
    """Position of (S, T) in the scan over S ascending, then T from S up."""
    return sum(total - r for r in range(S)) + (T - S + 1)


def mask_of(f, labels):
    return Subset.from_labels(f.ground, labels).mask


def scalar_pair_outcome(f, sides):
    values = f.all_values()
    total = len(values)
    hit = core._first_pair_violation_scalar(values, sides)
    if hit is None:
        return (True, total * (total + 1) // 2, None)
    S, T = hit
    return (False, pair_position(S, T, total), _witness(S, T, *sides(values.__getitem__, S, T)))


def naive_pair_outcome(f, violations):
    """First violation in mask scan order among the naive oracle's findings."""
    total = 1 << f.ground.n
    found = []
    for S, T, lhs, rhs in violations:
        s, t = sorted((mask_of(f, S), mask_of(f, T)))
        found.append((s, t, lhs, rhs))
    if not found:
        return (True, total * (total + 1) // 2, None)
    s, t, lhs, rhs = min(found, key=lambda x: x[:2])
    return (False, pair_position(s, t, total), _witness(s, t, lhs, rhs))


def value_table(f):
    """f by frozenset of labels, read once per subset through ``f(labels)``."""
    return {frozenset(s): f(s) for s in powerset(f.ground.elements)}.__getitem__


def naive_weak_outcome(f):
    violations = naive_weak_submodular_violations(f.ground.elements, value_table(f))
    return naive_pair_outcome(f, violations)


def naive_submodular_outcome(f):
    v = value_table(f)
    pairs = naive_submodular_violations(f.ground.elements, v)
    return naive_pair_outcome(f, [(S, T, v(S) + v(T), v(S | T) + v(S & T)) for S, T in pairs])


def scalar_monotone_outcome(f):
    n = f.ground.n
    values = f.all_values()
    hit = core._first_monotone_violation(values, n)
    if hit is None:
        return (True, n * len(values) // 2, None)
    S, bit = hit
    return (False, monotone_position(S, bit, n), _witness(S, S | bit, values[S | bit], values[S]))


def monotone_position(S, bit, n):
    before = sum(n - m.bit_count() for m in range(S))
    return before + sum(1 for e in range(n) if 1 << e <= bit and not S >> e & 1)


def naive_monotone_outcome(f):
    n = f.ground.n
    index = f.ground.index
    found = sorted(
        (mask_of(f, S), 1 << index(e)) for S, e in naive_monotone_violations(f.ground.elements, f)
    )
    if not found:
        return (True, n * (1 << n) // 2, None)
    S, bit = found[0]
    return (False, monotone_position(S, bit, n), _witness(S, S | bit, f.value(S | bit), f.value(S)))


def naive_sign_outcome(f):
    labels = [frozenset(s) for s in powerset(f.ground.elements)]
    bad = [mask_of(f, S) for S in labels if f(S) < 0]
    if f(frozenset()) != 0:
        bad.append(0)
    total = 1 << f.ground.n
    return (True, total) if not bad else (False, min(bad) + 1)


def assert_agree(f, pairwise=True):
    """The exact kernel (through the checker), the scalar path and the naive oracle agree."""
    if pairwise:
        kernel = report_outcome(check_weakly_submodular(f))
        assert kernel == scalar_pair_outcome(f, core._weak_sides) == naive_weak_outcome(f)
        kernel = report_outcome(check_submodular(f))
        scalar = scalar_pair_outcome(f, core._submodular_sides)
        assert kernel == scalar == naive_submodular_outcome(f)
    kernel = report_outcome(check_monotone(f))
    assert kernel == scalar_monotone_outcome(f) == naive_monotone_outcome(f)
    sign = check_normalized_nonnegative(f)
    assert (sign.passed, sign.pairs_checked) == naive_sign_outcome(f)


def table_function(values):
    n = (len(values) - 1).bit_length()
    assert len(values) == 1 << n
    return SetFunction(GroundSet.of_size(n), list(values).__getitem__)


# -- zoo builders ----------------------------------------------------------


ZOO = {
    "linear": lambda: linear((3, 0, 1, 4, 1, 5)),
    "coverage": lambda: coverage([[0], [0, 1], [2], [1, 2], [3]]),
    "random_coverage": lambda: random_coverage(6, 4),
    "dispersion": lambda: metric_dispersion(random_metric(7, 11)),
    "dispersion_n8": lambda: metric_dispersion(random_metric(8, 5)),
    "segmentation": lambda: segmentation(random_segmentation(6, 5, 2)),
    "cardinality_power": lambda: cardinality_power(3, 6),
    "cardinality_polynomial": lambda: cardinality_polynomial([0, 2, 1, 1], 5),
    "raw_profile_k4": lambda: raw_cardinality_profile(4, 7),
    "threshold_k2": lambda: threshold(2, 3, 6),
    "combination": lambda: linear_combination(
        [metric_dispersion(random_metric(6, 1)), linear((1, 2, 3, 4, 5, 6))], [2, Fraction(1, 3)]
    ),
    "msd": lambda: msd_objective(random_coverage(6, 3), random_metric(6, 4)),
    "complement": lambda: complement(coverage([[0], [0, 1], [2], [1, 2]])),
    "zero_at_top_dispersion": lambda: zero_at_top(metric_dispersion(random_metric(6, 8))),
    "max_cut_path": lambda: max_cut(Graph(5, ((0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1)))),
    "welfare": lambda: welfare_reduction(
        WelfareInstance((coverage([[0], [0, 1], [1]]), linear((1, 2, 3))))
    )[0],
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_builders(name):
    f = ZOO[name]()
    assert f.ground.n <= 8
    assert_agree(f)


# -- the counterexample fixtures -------------------------------------------


COUNTEREXAMPLES = {
    "max_cut_star": lambda: max_cut(star_counterexample(3)),
    "threshold_k3": lambda: threshold(3, 1, 5),
    "supermodular_pair": lambda: supermodular_pair(1),
    "zero_at_top": lambda: zero_at_top(metric_dispersion(DistanceMatrix.unit(4))),
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_counterexample_fixtures(name):
    f = COUNTEREXAMPLES[name]()
    assert_agree(f)
    if name != "zero_at_top":
        assert not check_weakly_submodular(f).passed
    else:
        assert not check_monotone(f).passed


def test_fixture_witnesses_are_pinned():
    # First witnesses and pair counts, pinned as regressions.
    for f, expected in (
        (threshold(3, 1, 5), (96, 0b00011, 0b00101, 0, 1)),
        (max_cut(star_counterexample(3)), (306, 0b01011, 0b10011, 18, 20)),
    ):
        r = check_weakly_submodular(f)
        w = r.witness
        assert (r.pairs_checked, w.S.mask, w.T.mask, w.lhs, w.rhs) == expected


# -- exact rationals read through instance files ---------------------------


def _quarter_matrix(n, seed, integral_every=0):
    rng = Random(seed)
    d = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            k += 1
            v = rng.randint(12, 24) / 4
            if integral_every and k % integral_every == 0:
                v = float(rng.randint(3, 6))
            d[i][j] = d[j][i] = v
    return d


def _dispersion_from_json(matrix):
    text = json.dumps({"function": {"type": "dispersion", "params": {"distances": matrix}}})
    return Instance(parse_json(text)).function


def test_fraction_dispersion_from_instance():
    f = _dispersion_from_json(_quarter_matrix(6, 3))
    values = f.all_values()
    assert any(isinstance(v, Fraction) and v.denominator > 1 for v in values)
    assert_agree(f)
    assert check_weakly_submodular(f).passed


def test_mixed_int_fraction_dispersion_from_instance():
    f = _dispersion_from_json(_quarter_matrix(6, 9, integral_every=3))
    types = {type(v) for v in f.all_values()}
    assert types == {int, Fraction}
    assert_agree(f)


def test_mixed_fraction_table_keeps_witness_types():
    # A failing mixed table: the witness sides come from the original values.
    f = table_function([0, 0, 1, Fraction(1, 3), 1, Fraction(1, 3), 2, Fraction(9, 2)])
    report = check_weakly_submodular(f)
    assert not report.passed
    assert report_outcome(report) == scalar_pair_outcome(f, core._weak_sides)
    assert_agree(f)


# -- ints above 2**63 ------------------------------------------------------


def test_big_int_tables():
    big = 2**64
    for f in (
        linear((big + 1, big * 3, 7, big**2)),
        metric_dispersion(
            DistanceMatrix(
                tuple(tuple(0 if i == j else big + i + j for j in range(5)) for i in range(5))
            )
        ),
        threshold(3, 2**70, 5),
        table_function([0, big, big, 2 * big + 1, big, 2 * big, 2 * big, 3 * big - 1]),
    ):
        assert_agree(f)


def test_exact_table_scaling():
    ints = [0, 1, 2**70, -3]
    assert core._exact_table(ints) is ints
    assert core._exact_table([0, Fraction(1, 2), 3, Fraction(-2, 3)]) == [0, 3, 18, -4]
    assert core._exact_table([0, 1, 2.5, 3]) is None


# -- hypothesis-generated tables -------------------------------------------


def tables(values):
    return st.integers(0, 4).flatmap(lambda n: st.lists(values, min_size=1 << n, max_size=1 << n))


@settings(max_examples=80, deadline=None)
@given(tables(st.integers(-4, 6) | st.integers(-(2**80), 2**80)))
def test_generated_int_tables(values):
    assert_agree(table_function(values))


@settings(max_examples=80, deadline=None)
@given(tables(st.fractions(min_value=-3, max_value=5, max_denominator=9) | st.integers(0, 5)))
def test_generated_fraction_tables(values):
    assert_agree(table_function(values))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(st.integers(12, 24), min_size=comb(n, 2), max_size=comb(n, 2))
    )
)
def test_generated_quarter_metrics_pass(quarters):
    # Distances in [3, 6] satisfy the triangle inequality, so dispersion passes.
    n = next(k for k in range(2, 8) if comb(k, 2) == len(quarters))
    d = [[Fraction(0)] * n for _ in range(n)]
    it = iter(quarters)
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(next(it), 4)
    f = metric_dispersion(DistanceMatrix(tuple(map(tuple, d))))
    assert_agree(f)
    assert check_weakly_submodular(f).passed


# -- the lane kernel -------------------------------------------------------


# Lane widths in bytes of the pair kernel's packing: ``_packed`` fills 1, 2,
# 4 and 8-byte lanes by ``array`` and 3, 9, 13 and 27-byte ones by ``to_bytes``.
LANE_SIZES = (1, 2, 3, 4, 8, 9, 13, 27)


def widened(values, weighted, size):
    """``values`` times a power of two that makes the pair kernel's lanes
    ``size`` bytes wide, or None when they are already wider."""
    table = core._exact_table(values)
    n = len(table).bit_length() - 1
    span = 2 * n if weighted else 2
    bits = ((max(table) - min(table)) * span).bit_length()
    if bits > 8 * size - 1:
        return None
    wide = [v << max(0, 8 * (size - 1) - bits) for v in table]
    assert core._lane_layout(wide, span)[1] == size
    return wide


def lane_hits(values):
    """The lane kernel's first pairs (weak, submodular), each equal to the scalar scan's."""
    table = core._exact_table(values)
    hits = []
    for weighted, sides in ((True, core._weak_sides), (False, core._submodular_sides)):
        hit = core._first_pair_violation_lanes(table, weighted)
        assert hit == core._first_pair_violation_scalar(values, sides), weighted
        hits.append(hit)
    return hits


def assert_lanes_agree(values):
    lane_hits(values)
    assert_agree(table_function(values))


SMALL = (0, 1, -1, 3, Fraction(1, 3), Fraction(-5, 2), 2**200, -(2**200))


def test_lanes_on_empty_and_singleton_ground_sets():
    for v in SMALL:
        assert lane_hits([v]) == [None, None]
        assert_lanes_agree([v])
    for a in SMALL:
        for b in SMALL:
            assert lane_hits([a, b]) == [None, None]  # every pair of n = 1 is nested
            assert_lanes_agree([a, b])


def test_lanes_on_constant_tables():
    # A constant meets both inequalities with equality on every pair.
    for n in range(7):
        for c in (0, 7, -5, 2**90, Fraction(-7, 3)):
            values = [c] * (1 << n)
            assert lane_hits(values) == [None, None]
            if n <= 4:
                assert_lanes_agree(values)


def test_lanes_on_negative_tables():
    rng = Random(12)
    for n in range(1, 6):
        for _ in range(6):
            values = [rng.randint(-40, -1) for _ in range(1 << n)]
            assert_lanes_agree(values)
        assert_lanes_agree([-(m.bit_count() ** 2) - 1 for m in range(1 << n)])
        assert_lanes_agree([-(2**100) + m for m in range(1 << n)])


def test_one_huge_value_among_small_ones():
    # 2**200 sets the lane width; the small values still decide the witness.
    rng = Random(200)
    for n in range(1, 6):
        for spot in sorted({0, 1, (1 << n) - 1, rng.randrange(1 << n)}):
            for huge in (2**200, -(2**200), 2**200 + 1):
                small = [rng.randint(0, 9) for _ in range(1 << n)]
                small[spot] = huge
                assert_lanes_agree(small)
                cardinal = [m.bit_count() for m in range(1 << n)]
                cardinal[spot] = huge
                assert_lanes_agree(cardinal)


def test_lanes_on_mixed_int_fraction_tables():
    rng = Random(34)
    found = set()
    for n in range(1, 6):
        for _ in range(8):
            values = [
                rng.randint(-6, 6) if rng.random() < 0.5 else Fraction(rng.randint(-20, 20), 7)
                for _ in range(1 << n)
            ]
            assert_lanes_agree(values)
            found.add(tuple(hit is None for hit in lane_hits(values)))
    assert (False, False) in found


def planted(n, i, j, weighted, offset=0, scale=1):
    """A table whose only violating pair is (full - {j}, full - {i}), i < j.

    Weak: (n - 1) |S| with both sets lowered by 2; their pair has slack
    2(n - 1) and loses 4(n - 1), any other pair loses at most its slack.
    Submodular: 2 m (2n - m) at m = |S| with both lowered by 3; the slack
    of an incomparable pair is 4 |S - T| |T - S|, so only theirs (4) is
    less than the 6 it loses.  Any offset and positive scale keep that.
    """
    full = (1 << n) - 1
    S0, T0 = full ^ 1 << j, full ^ 1 << i
    if weighted:
        values = [(n - 1) * m.bit_count() for m in range(1 << n)]
        drop = 2
    else:
        values = [2 * m.bit_count() * (2 * n - m.bit_count()) for m in range(1 << n)]
        drop = 3
    values[S0] -= drop
    values[T0] -= drop
    return [scale * v + offset for v in values], (S0, T0)


@pytest.mark.parametrize("seed", range(12))
def test_violations_planted_in_the_last_rows(seed):
    rng = Random(seed)
    n = rng.randint(2, 6)
    i, j = sorted(rng.sample(range(n), 2)) if seed % 3 else (0, 1)
    offset = rng.choice([0, rng.randint(-(2**70), 2**70), Fraction(rng.randint(-9, 9), 4)])
    scale = rng.choice([1, rng.randint(2, 10**6), Fraction(rng.randint(1, 9), 5)])
    for weighted, check in ((True, check_weakly_submodular), (False, check_submodular)):
        values, pair = planted(n, i, j, weighted, offset, scale)
        assert lane_hits(values)[0 if weighted else 1] == pair
        report = check(table_function(values))
        assert (report.witness.S.mask, report.witness.T.mask) == pair
        assert report.pairs_checked == pair_position(*pair, 1 << n)
        assert_lanes_agree(values)
        for size in LANE_SIZES:  # the same pair in lanes of each width
            wide = widened(values, weighted, size)
            if wide is not None:
                assert lane_hits(wide)[0 if weighted else 1] == pair
    if (i, j) == (0, 1):  # the pair in rows 2**n - 3 and 2**n - 2
        assert pair == ((1 << n) - 3, (1 << n) - 2)


def test_planted_violation_at_the_cap():
    # n = 12: the pair is in the last three of 4096 rows.
    for weighted in (True, False):
        values, pair = planted(12, 0, 1, weighted, offset=-(2**40), scale=3)
        assert core._first_pair_violation_lanes(values, weighted) == pair == (4093, 4094)


def test_star_check_is_pinned():
    f = max_cut(star_counterexample(8))
    report = check_weakly_submodular(f)
    w = report.witness
    assert report.pairs_checked == 230910
    assert (w.S.mask, w.T.mask, w.lhs, w.rhs) == (257, 894, 72, 74)
    assert type(w.lhs) is int and type(w.rhs) is int
    sub = check_submodular(f)
    assert sub.passed and sub.pairs_checked == 1024 * 1025 // 2


# -- the lane kernel's walk order ------------------------------------------
# Each block's rows are the leaves of a bit tree walked bit-clear child
# first; a row reuses the copies of the node above its lowest set bit.


def swap_partner(S, n):
    """S with its lowest set bit traded for the lowest clear bit above it.

    That T is above S and misses one element of S.  None when there is no
    such bit: then every T >= S holds S, and S is the first row of a block.
    """
    low = S & -S
    clear = ~S & (1 << n) - 1 & -(low << 1)
    return None if not low or not clear else S ^ low ^ (clear & -clear)


def swap_planted(n, pairs, weighted):
    """A table where only a pair of two lowered sets can violate, and each
    swap pair (S, T) in ``pairs``, with |S - T| = |T - S| = 1, does.

    Weak: 2n |U|**2 leaves 2n (|S| + |T|) |S - T| |T - S| of slack on a
    pair.  Lowering both sets of a swap pair by 2n + 1 costs it
    (|S| + |T|) (2n + 1), more than that; a pair (S, T') with one lowered
    set loses |T'| (2n + 1) on the left, no more than its slack since
    |S| >= 1.  Submodular: 2m (2n - m) leaves 4 |S - T| |T - S|; lowering
    by 3 costs a pair of lowered sets 6 and any other pair at most 3.  A
    nested pair keeps its equality.
    """
    if weighted:
        values, drop = [2 * n * m.bit_count() ** 2 for m in range(1 << n)], 2 * n + 1
    else:
        values, drop = [2 * m.bit_count() * (2 * n - m.bit_count()) for m in range(1 << n)], 3
    for S in {S for pair in pairs for S in pair}:
        values[S] -= drop
    return values


def assert_first_pair(values, weighted):
    """Both paths and the naive oracle agree on ``values``; return the lane kernel's pair."""
    sides = core._weak_sides if weighted else core._submodular_sides
    hit = core._first_pair_violation_lanes(values, weighted)
    assert hit == core._first_pair_violation_scalar(values, sides)
    f = table_function(values)
    if weighted:
        assert report_outcome(check_weakly_submodular(f)) == naive_weak_outcome(f)
    else:
        assert report_outcome(check_submodular(f)) == naive_submodular_outcome(f)
    return hit


@pytest.mark.parametrize("n", range(7))
def test_walk_finds_a_violation_planted_in_any_row(n):
    total = 1 << n
    for weighted in (True, False):
        assert assert_first_pair(swap_planted(n, [], weighted), weighted) is None
        planted_rows = set()
        for S in range(total):
            T = swap_partner(S, n)
            if T is None:
                assert all(S & U == S for U in range(S, total))
                continue
            assert assert_first_pair(swap_planted(n, [(S, T)], weighted), weighted) == (S, T)
            planted_rows.add(S)
        # Every row but the first of each block; the first holds only
        # supersets above it, so no pair in it can violate.
        firsts = {total - (1 << k) for k in range(n + 1)}
        assert planted_rows == set(range(total)) - firsts
        for k in range(2, n + 1):
            start = total - (1 << k)
            # The second row of each block, and its row of all low bits, the
            # deepest set-bit path.
            assert {start + 1, start + (1 << k - 1) - 1} <= planted_rows
        # Rows in the first block, the next one and the last row that can
        # fail, each in lanes of every width the table reaches.
        sizes = set()
        for S in {1, total // 2 + 1, total - 3} & planted_rows:
            T = swap_partner(S, n)
            for size in LANE_SIZES:
                wide = widened(swap_planted(n, [(S, T)], weighted), weighted, size)
                if wide is not None:
                    assert assert_first_pair(wide, weighted) == (S, T)
                    sizes.add(size)
        if n == 2:
            assert sizes == set(LANE_SIZES)


@pytest.mark.parametrize("n", range(3, 7))
def test_walk_takes_a_set_subtree_before_the_next_clear_one(n):
    # S1 has bit b set under bit b + 1 clear; S2 = S1 + 2**b has bit b + 1
    # set and bit b clear, the next subtree the walk enters.
    cases = 0
    for b in range(n - 1):
        for S1 in range(1 << n):
            if S1 >> b & 3 != 1:
                continue
            S2 = S1 + (1 << b)
            T1, T2 = swap_partner(S1, n), swap_partner(S2, n)
            if T1 is None or T2 is None:
                continue
            cases += 1
            for weighted in (True, False):
                assert assert_first_pair(swap_planted(n, [(S2, T2)], weighted), weighted) == (
                    S2,
                    T2,
                )
                hit = assert_first_pair(swap_planted(n, [(S1, T1), (S2, T2)], weighted), weighted)
                assert hit[0] == S1
    assert cases >= n - 1


# -- the walk's weighted sums ----------------------------------------------


def recomputed_sides(f, weighted, S, T):
    """The sides of (S, T), read one value at a time through ``f.value``."""
    v = f.value
    if weighted:
        lhs = T.bit_count() * v(S) + S.bit_count() * v(T)
        return lhs, (S & T).bit_count() * v(S | T) + (S | T).bit_count() * v(S & T)
    return v(S) + v(T), v(S | T) + v(S & T)


def split_tables(rng, n, wide, count):
    """``count`` tables of c |U|**2 plus a modular part plus a little noise.

    A convex c > 0 fails submodularity, with nonnegative weights it passes
    weak submodularity; c < 0 the other way round.  Fractions with mixed
    prime denominators (``wide``) scale to ints of many bytes per lane.
    """
    for _ in range(count):
        c = rng.choice([-1, 1]) * rng.randint(1, 5)
        weights = [rng.randint(-2, 12) for _ in range(n)]
        values = [
            c * m.bit_count() ** 2 + sum(w for i, w in enumerate(weights) if m >> i & 1)
            for m in range(1 << n)
        ]
        for _ in range(rng.randint(0, 2)):
            # Some noise lands in the last block, which only later rows read.
            values[rng.randrange(1 << n) | rng.choice([0, 3 << n - 2])] += rng.randint(-2, 2)
        if wide:
            big = 2**70
            values = [
                big * v + Fraction(rng.randint(0, 6), rng.choice([7, 11, 13, 17, 19]))
                for v in values
            ]
        yield values


@pytest.mark.parametrize("wide", [False, True])
def test_weighted_sums_split_the_two_verdicts(wide):
    rng = Random(14 + wide)
    verdicts = set()
    for n in range(2, 9):
        tables = list(split_tables(rng, n, wide, 6 if n <= 6 else 1))
        tables.append(dispersion_values(rng, n, wide))
        if n >= 5:
            tables.append(raised_in_last_block(rng, n, wide))
            weak = check_weakly_submodular(table_function(tables[-1]))
            assert weak.witness.S.mask >= 3 << n - 2  # a block with n - k >= 2
        for values in tables:
            f = table_function(values)
            verdict = []
            for weighted, check, sides in (
                (True, check_weakly_submodular, core._weak_sides),
                (False, check_submodular, core._submodular_sides),
            ):
                report = check(f)
                assert report_outcome(report) == scalar_pair_outcome(f, sides)
                if report.witness is not None:
                    w = report.witness
                    lhs, rhs = recomputed_sides(f, weighted, w.S.mask, w.T.mask)
                    assert (w.lhs, w.rhs) == (lhs, rhs) and lhs < rhs
                verdict.append(report.passed)
            verdicts.add(tuple(verdict))
    # Passing one inequality and failing the other, both ways round.
    assert {(True, False), (False, True)} <= verdicts


def raised_in_last_block(rng, n, wide):
    """2 |U|**2 with one set U of the last block raised by 4.

    2 |U|**2 leaves 2 (|S| + |T|) |S - T| |T - S| of slack.  Raising U
    gains |S | T| 4 on the right of pairs that meet in U, which breaks
    those with |S - T| = |T - S| = 1 (4 |U| + 8 against 4 |U| + 4), and
    |S & T| 4 on pairs that join to U, which breaks none.  So every
    violation lies in a row that holds U, after the rows that lack its
    top bits: only a walk that weighs those bits right finds it.
    """
    U = rng.randrange(1 << n) | 3 << n - 2
    while U.bit_count() > n - 2:
        U &= ~(1 << rng.randrange(n - 2))
    scale = Fraction(2**70 + 1, 7) if wide else 1
    return [scale * (2 * m.bit_count() ** 2 + 4 * (m == U)) for m in range(1 << n)]


def dispersion_values(rng, n, wide):
    """A metric dispersion table: weakly submodular and supermodular, so not
    submodular.  Distances lie in [lo, 2 lo], so every triangle holds."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if wide:
                d[i][j] = 2**64 + Fraction(rng.randint(0, 2**64 * 9), rng.choice([9, 10, 11]))
            else:
                d[i][j] = rng.randint(5, 10)
            d[j][i] = d[i][j]
    return metric_dispersion(DistanceMatrix(tuple(map(tuple, d)))).all_values()


def _pair_outcomes(f):
    """(passed, pairs_checked, S, T) of the weak and the submodular check."""
    out = []
    for check in (check_weakly_submodular, check_submodular):
        r = check(f)
        w = r.witness
        out.append((r.passed, r.pairs_checked) + ((None,) if w is None else (w.S.mask, w.T.mask)))
    return out


EXACT = st.integers(-6, 9) | st.integers(-(2**80), 2**80) | st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(
    tables(EXACT),
    st.integers(-(2**90), 2**90) | st.fractions(max_denominator=12),
    st.integers(1, 10**6) | st.integers(1, 2**100),
)
def test_verdicts_survive_shift_and_scale(values, shift, scale):
    # The lane kernel shifts every table by its minimum; the scaled int table
    # multiplies it by the lcm of the denominators.
    outcome = _pair_outcomes(table_function(values))
    assert _pair_outcomes(table_function([v + shift for v in values])) == outcome
    assert _pair_outcomes(table_function([scale * v for v in values])) == outcome


# -- floats stay on the tolerance path -------------------------------------


def test_float_violation_below_tolerance_passes():
    eps = RELATIVE_TOL / 100
    # Unit-metric dispersion holds with equality on disjoint singletons, so
    # lowering one singleton by eps breaks weak submodularity by eps...
    f = table_function([comb(m.bit_count(), 2) - (eps if m == 0b010 else 0.0) for m in range(8)])
    # ...and raising the top of a modular function breaks submodularity by eps.
    g = table_function([m.bit_count() + (eps if m == 0b11 else 0.0) for m in range(4)])
    assert naive_weak_submodular_violations(f.ground.elements, f)
    assert naive_submodular_violations(g.ground.elements, g)
    for h, check, sides in (
        (f, check_weakly_submodular, core._weak_sides),
        (g, check_submodular, core._submodular_sides),
    ):
        report = check(h)
        assert report.passed
        assert report_outcome(report) == scalar_pair_outcome(h, sides)
    assert check_monotone(f).passed and check_normalized_nonnegative(f).passed


def test_float_violation_above_tolerance_fails_on_scalar_path():
    thr = table_function([float(v) for v in threshold(3, 1, 5).all_values()])
    pairs = table_function([float(comb(m.bit_count(), 2)) for m in range(16)])
    down = table_function([0.0, 1.0, 1.0, 0.5])
    for h, check, sides in (
        (thr, check_weakly_submodular, core._weak_sides),
        (pairs, check_submodular, core._submodular_sides),
    ):
        report = check(h)
        assert not report.passed
        assert report_outcome(report) == scalar_pair_outcome(h, sides)
        assert type(report.witness.lhs) is float
    report = check_monotone(down)
    assert not report.passed
    assert report_outcome(report) == scalar_monotone_outcome(down) == naive_monotone_outcome(down)


def test_mixed_float_table_uses_tolerance():
    eps = RELATIVE_TOL / 100
    # Float sides get the relative slack even when the other side is exact...
    assert check_submodular(table_function([0, 1, 1, 2 + eps])).passed
    assert check_monotone(table_function([0, 1, 1, 1 - eps])).passed
    # ...while a pair of exact values in a mixed table keeps zero tolerance.
    f = table_function([0, 1, 1, Fraction(1, 2), 1, 2, 2, 3.0])
    outcome = report_outcome(check_monotone(f))
    assert outcome == scalar_monotone_outcome(f) == naive_monotone_outcome(f)
    assert not check_monotone(f).passed


# -- the sliced monotone scan ----------------------------------------------


def loop_monotone_violation(values, n, less):
    """The mask-major double loop that the sliced scan must reproduce."""
    for S, fS in enumerate(values):
        for e in range(n):
            bit = 1 << e
            if not S & bit and less(values[S | bit], fS):
                return S, bit
    return None


# Integer quarters -> a table of one number kind; witnesses must keep it.
KINDS = {
    "int": lambda q: q,
    "fraction": lambda q: Fraction(q, 4),
    "mixed": lambda q: q // 4 if q % 4 == 0 else Fraction(q, 4),
    "float": lambda q: q / 4,
}


def monotone_outcome(quarters, kind):
    """Check the table against the loop and the naive oracle; return its outcome."""
    values = [KINDS[kind](q) for q in quarters]
    f = table_function(values)
    n = f.ground.n
    outcome = report_outcome(check_monotone(f))
    assert outcome == scalar_monotone_outcome(f) == naive_monotone_outcome(f)
    hit = core._first_monotone_violation(values, n)
    assert hit == loop_monotone_violation(values, n, core.violates)
    if kind != "float":
        scaled = core._exact_table(values)
        assert core._first_monotone_violation(scaled, n) == hit
    return outcome


def cardinality_quarters(n):
    return [8 * m.bit_count() for m in range(1 << n)]


def expected(S, bit, n, quarters, kind):
    to = KINDS[kind]
    lhs, rhs = to(quarters[S | bit]), to(quarters[S])
    return (False, monotone_position(S, bit, n), _witness(S, S | bit, lhs, rhs))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_monotone_only_drop_at_top_bit(kind):
    # In the first block; the next test puts one in the last block, (full - top, top).
    for n in range(1, 10):
        q = cardinality_quarters(n)
        top = 1 << n - 1
        q[top] = -1  # below the empty set, its one predecessor
        assert monotone_outcome(q, kind) == expected(0, top, n, q, kind)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_monotone_only_drop_in_last_block_or_run(kind):
    # full - bit lies in the last block of a high bit and ends the last run of a low one.
    for n in range(1, 10):
        for e in range(n):
            q = cardinality_quarters(n)
            full, bit = (1 << n) - 1, 1 << e
            q[full ^ bit] = q[full] + 3  # one successor, so one drop
            assert monotone_outcome(q, kind) == expected(full ^ bit, bit, n, q, kind)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_monotone_smallest_bit_of_one_set_wins(kind):
    for n in range(2, 10):
        full = (1 << n) - 1
        for missing in ({1, 3} & set(range(n)), {n - 2, n - 1}, {1, n - 1}, set(range(1, n))):
            S = full ^ sum(1 << e for e in missing)
            q = cardinality_quarters(n)
            q[S] = q[full] + 1  # above every successor: a drop at each missing bit
            bit = 1 << min(missing)
            assert monotone_outcome(q, kind) == expected(S, bit, n, q, kind)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_monotone_smaller_set_beats_lower_bit(kind):
    # (full - top, top) precedes (full - 1, 1) in mask-major order.
    for n in range(2, 10):
        q = cardinality_quarters(n)
        full, top = (1 << n) - 1, 1 << n - 1
        q[full ^ top] = q[full ^ 1] = q[full] + 1
        assert monotone_outcome(q, kind) == expected(full ^ top, top, n, q, kind)


def test_monotone_float_drops_below_tolerance_pass():
    for n in range(1, 10):
        values = [float(8 * m.bit_count()) for m in range(1 << n)]
        full = (1 << n) - 1
        for e in range(n):
            values[full ^ 1 << e] = values[full] * (1 + RELATIVE_TOL / 10)
        f = table_function(values)
        assert naive_monotone_violations(f.ground.elements, f)
        report = check_monotone(f)
        assert report.passed and report.pairs_checked == n << n - 1
        values[full ^ 1] = values[full] * (1 + RELATIVE_TOL * 10)
        report = check_monotone(table_function(values))
        assert report_outcome(report) == (
            False,
            monotone_position(full ^ 1, 1, n),
            _witness(full ^ 1, full, values[full], values[full ^ 1]),
        )


@st.composite
def planted_drops(draw):
    """A modular table in quarters with a few sets raised or lowered."""
    n = draw(st.integers(0, 9))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    q = [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)]
    for mask, shift in draw(
        st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(-8, 8)), max_size=4)
    ):
        q[mask] += shift
    return q


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(quarters=planted_drops())
def test_generated_monotone_tables(kind, quarters):
    monotone_outcome(quarters, kind)


def test_adjacent_position_closed_form():
    n = 12
    ones_below = 0  # set bits over the masks 0..S-1
    for S in range(1 << n):
        for e in range(n):
            bit = 1 << e
            naive = n * S - ones_below + (~S & (2 * bit - 1)).bit_count()
            assert core._adjacent_position(S, bit, n) == naive, (S, bit)
        ones_below += S.bit_count()


# -- the guard-bit lane passes ---------------------------------------------


def test_packed_lanes_hold_the_shifted_table():
    # Bytes per lane: the span times the range, plus the guard bit.  Lanes
    # of 1, 2, 4 and 8 bytes go through ``array``, others through ``to_bytes``.
    for span, reach, size in (
        (1, 127, 1), (1, 128, 2), (1, 2**15 - 1, 2), (1, 2**15, 3), (1, 2**31 - 1, 4),
        (1, 2**31, 5), (1, 2**63 - 1, 8), (1, 2**63, 9), (1, 2 * 10**30, 13),
        (2, 63, 1), (2, 64, 2), (2, 2**62 - 1, 8), (2, 2**62, 9), (2, 10**30, 13),
    ):
        for low in (3, -(10**30)):
            table = [low + reach, low, low + reach // 2, low + 1]
            assert core._lane_layout(table, span) == (low, size)
            packed, guards = core._packed(table, low, size)
            width = 8 * size
            lane = (1 << width) - 1
            assert [packed >> width * S & lane for S in range(4)] == [v - low for v in table]
            assert guards == sum(1 << width * S + width - 1 for S in range(4))


def test_lacking_marks_the_lanes_without_each_bit():
    # The start mask is the guards (the monotone lanes) or whole lanes (the
    # pair kernel's blocks).
    for n in range(5):
        total = 1 << n
        for width in (8, 16, 24):
            for lane in (1 << width - 1, (1 << width) - 1):
                mask = sum(lane << width * S for S in range(total))
                found = dict(core._lacking(mask, width, total))
                assert sorted(found) == list(range(n))
                for e, lacks in found.items():
                    want = [S for S in range(total) if not S >> e & 1]
                    assert lacks == sum(lane << width * S for S in want)


def modular_table(rng, n, top=4):
    weights = [rng.randint(1, top) for _ in range(n)]
    return [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)]


# The number kinds of the monotone lane tests, each run against the slice
# scan: ints shifted below zero, Fractions, 3-byte lanes, and ints either
# side of zero in lanes past 8 bytes (13 or 14) and past 26 (27 or 28).
# Every exact table takes the lanes, whatever their width; lanes of 3
# bytes and past 8 are packed by ``to_bytes``.
LANE_KINDS = {
    "int": lambda q: q,
    "negative": lambda q: q - 50,
    "fraction": lambda q: Fraction(q, 7),
    "three_bytes": lambda q: q << 14,
    "huge": lambda q: q * 10**30,
    "huge_negative": lambda q: q * 10**30 - 10**30,
    "wide": lambda q: q * 10**64,
    "wide_negative": lambda q: q * 10**64 - 10**64,
}


def monotone_lanes_outcome(values):
    """The lane pass's hit, equal to the scalar scan's on the scaled table,
    and the checker's report, equal to the naive oracle's."""
    f = table_function(values)
    n = f.ground.n
    table = core._exact_table(values)
    hit = core._first_monotone_violation_lanes(table)
    assert hit == core._first_monotone_violation(table, n)
    assert report_outcome(check_monotone(f)) == naive_monotone_outcome(f)
    return hit


@pytest.mark.parametrize("kind", sorted(LANE_KINDS))
def test_monotone_lanes_on_planted_drops(kind):
    to = LANE_KINDS[kind]
    rng = Random(kind)
    for n in range(11):
        full = (1 << n) - 1
        q = modular_table(rng, n)
        assert monotone_lanes_outcome([to(v) for v in q]) is None
        if n == 0:
            continue
        first = q.copy()
        first[0] = q[1] + 1  # above {0}: the drop at the first S, bit 0
        assert monotone_lanes_outcome([to(v) for v in first]) == (0, 1)
        last = q.copy()
        last[full ^ 1] = q[full] + 1  # the last S that lacks a bit
        assert monotone_lanes_outcome([to(v) for v in last]) == (full ^ 1, 1)
        if n >= 2:
            a, b = sorted(rng.sample(range(n), 2))
            S = full ^ 1 << a ^ 1 << b
            two = q.copy()
            two[S] = q[full] + 1  # above both of S's successors: the lower bit wins
            assert monotone_lanes_outcome([to(v) for v in two]) == (S, 1 << a)
            both = two.copy()
            both[full ^ 1] = q[full] + 1  # a second S that lacks a bit: the lower S wins
            assert monotone_lanes_outcome([to(v) for v in both]) == (min(S, full ^ 1), 1 << a)


@pytest.mark.parametrize("kind", sorted(LANE_KINDS))
def test_monotone_lanes_on_random_tables(kind):
    to = LANE_KINDS[kind]
    rng = Random(kind + "random")
    for n in range(11):
        for spread in (0, 1, 3, 40):
            q = modular_table(rng, n, 8)
            for _ in range(rng.randint(0, 3)):
                q[rng.randrange(1 << n)] += rng.randint(-spread, spread)
            monotone_lanes_outcome([to(v) for v in q])


def test_monotone_lanes_with_one_huge_value():
    # 10**30 sets the lane width; the small values still decide the hit.
    rng = Random(30)
    for n in range(1, 9):
        for spot in (0, 1, (1 << n) - 1, rng.randrange(1 << n)):
            for huge in (10**30, -(10**30)):
                q = modular_table(rng, n)
                q[spot] = huge
                monotone_lanes_outcome(q)


def submodular_tables(rng, n):
    """Int and coverage tables at n, submodular or not, some shifted below zero."""
    covers = [[j for j in range(6) if rng.random() < 0.4] for _ in range(n)]
    cover = coverage(covers, {j: rng.randint(1, 5) for j in range(6)}).all_values()
    yield cover
    yield [v - 9 for v in cover]
    for _ in range(2):  # a coverage table with one set moved by a little
        moved = cover.copy()
        moved[rng.randrange(1 << n)] += rng.choice([-2, -1, 1, 2])
        yield moved
    yield [rng.randint(-5, 5) for _ in range(1 << n)]
    budget = rng.randint(1, 3 * n + 1)  # concave of modular: submodular
    yield [min(budget, v) for v in modular_table(rng, n)]
    yield [Fraction(v, 3) for v in cover]
    yield [v * 10**30 for v in cover]
    # A range in 64..127: one byte holds a lane but not a sum of two.
    yield [v * (127 // max(cover)) for v in cover] if max(cover) else cover
    yield [rng.randint(-60, 60) for _ in range(1 << n)]


def assert_submodular_lanes_agree(values):
    """The checker's submodular report is the scalar scan's, and so is the
    lane kernel's first pair (``lane_hits``); return whether it passes."""
    f = table_function(values)
    scalar = scalar_pair_outcome(f, core._submodular_sides)
    assert report_outcome(check_submodular(f)) == scalar
    return lane_hits(values)[1] is None


def test_submodular_tables_in_lanes_match_the_scalar_scan():
    rng = Random(44)
    verdicts = set()
    for n in range(9):
        for _ in range(4 if n < 7 else 1):
            for values in submodular_tables(rng, n):
                verdicts.add(assert_submodular_lanes_agree(values))
    assert verdicts == {True, False}


def test_coverage_builders_in_lanes_match_the_scalar_scan():
    for seed in range(12):
        f = random_coverage(seed % 7 + 2, seed)
        assert f.ground.n <= 8
        values = f.all_values()
        assert check_submodular(f).passed and assert_submodular_lanes_agree(values)
        values[-1] = 2 * max(values) + 1  # a violation at the full set's squares
        assert not assert_submodular_lanes_agree(values)
