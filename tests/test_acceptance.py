"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-clause
lines.  Each test times itself against its stated runtime budget.

Criterion 1 contains two clauses that are knowingly red: the greedy-ratio
windows [3.73, 3.75] at p=10 and [5.61, 5.63] at p=100 are not attainable
from the telescoped chain formula that defines ``greedy_ratio`` (the formula
also forces the required value 4 at p=2, and no increasing-in-p bound can
satisfy both).  The windows would need an extra best-singleton assumption
that is unsound for dispersion-style functions; criterion 5's own seeds
realize OPT/greedy = 1.75 at p=2 where that assumption predicts at most 1.6.
The formula's actual values are pinned in test_bounds.py; the clauses here
state the criterion faithfully and fail.
"""

import math
import time
from fractions import Fraction
from itertools import combinations
from random import Random

from weaksub import (
    Subset,
    brualdi_bijection,
    brute_force_cardinality,
    brute_force_matroid,
    check_cardinality_family,
    check_weakly_submodular,
    greedy_cardinality,
    local_search_matroid,
    weak_submodularity_sides,
)
from weaksub.bounds import (
    a_star,
    a_star_from_sum,
    b_star,
    b_star_from_sum,
    g_continuous,
    g_stationary,
    geometric_identity,
    greedy_ratio,
    ls_bound,
    ls_discrete_bound,
    rearrangement_check,
    weighted_geometric_identity,
)
from weaksub.cli import _counterexample_fixtures
from weaksub.matroid import Matroid, random_matroid, random_partition_matroid
from weaksub.zoo import (
    cardinality_power,
    linear_combination,
    metric_dispersion,
    msd_objective,
    random_coverage,
    random_metric,
    random_segmentation,
    raw_cardinality_profile,
    segmentation,
    threshold,
)


def _clause(clauses, name, ok, detail=""):
    clauses.append((name, bool(ok), detail))
    print(f"  [{'pass' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def _finish(number, clauses):
    failed = [(n, d) for n, ok, d in clauses if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"[criterion {number}] {verdict} ({len(clauses) - len(failed)}/{len(clauses)} clauses)")
    assert not failed, f"criterion {number} failing clauses: {failed}"


def test_criterion_1_ratio_constants():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 1: ratio constants")

    a10 = greedy_ratio(10)
    _clause(clauses, "greedy_ratio(10) in [3.73, 3.75]", 3.73 <= a10 <= 3.75, f"got {a10:.6f}")
    a100 = greedy_ratio(100)
    _clause(clauses, "greedy_ratio(100) in [5.61, 5.63]", 5.61 <= a100 <= 5.63, f"got {a100:.6f}")

    d66 = ls_discrete_bound(6, 6)
    _clause(clauses, "ls_discrete_bound(6, 6) in [10.87, 10.89]", 10.87 <= d66 <= 10.89, f"{d66:.5f}")

    ge = g_continuous(math.e, 1)
    _clause(clauses, "g(e, 1) in [10.21, 10.23]", 10.21 <= ge <= 10.23, f"{ge:.5f}")

    g225 = g_continuous(2.25, 1)
    _clause(clauses, "g(2.25, 1) = 14.5 within 1e-9", abs(g225 - 14.5) <= 1e-9, f"{g225!r}")
    _clause(
        clauses,
        "g(2.25, 1) exact rational equals 29/2",
        g_continuous(Fraction(9, 4), 1) == Fraction(29, 2),
    )

    _clause(clauses, "g_stationary(1) = (3, 10) exactly", g_stationary(1) == (3, 10))

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    _finish(1, clauses)


def test_criterion_2_convergence_scans():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 2: convergence scans")

    greedy_values = [greedy_ratio(p) for p in range(10, 2001, 10)]
    _clause(
        clauses,
        "greedy_ratio non-decreasing on p = 10, 20, ..., 2000",
        all(a <= b for a, b in zip(greedy_values, greedy_values[1:])),
    )
    _clause(
        clauses,
        "greedy_ratio < 5.96 on the scan",
        max(greedy_values) < 5.96,
        f"max {max(greedy_values):.6f}",
    )

    local_values = [ls_bound(s) for s in range(2, 501)]
    _clause(
        clauses,
        "ls_bound non-increasing on s = 2..500",
        all(a >= b for a, b in zip(local_values, local_values[1:])),
    )
    _clause(
        clauses,
        "ls_bound(500) within 0.01 of 10.22",
        abs(local_values[-1] - 10.22) < 0.01,
        f"{local_values[-1]:.5f}",
    )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s")
    _finish(2, clauses)


def test_criterion_3_counterexample_integers():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 3: counterexample fixtures")

    for name, _, f, S, T, expected in _counterexample_fixtures():
        lhs, rhs = weak_submodularity_sides(f, S, T)
        _clause(
            clauses,
            f"{name} reproduces {expected[0]} < {expected[1]}",
            (lhs, rhs) == expected and lhs < rhs,
            f"got ({lhs}, {rhs})",
        )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    _finish(3, clauses)


def test_criterion_4_class_membership_suite():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 4: class-membership property suite (exhaustive, n <= 8)")

    metric_ok = 0
    for i in range(50):
        n = 4 + i % 5
        f = metric_dispersion(random_metric(n, 1000 + i))
        metric_ok += check_weakly_submodular(f, jobs=2 if n >= 7 else 1).passed
    _clause(clauses, "50 seeded random metrics pass (dispersion)", metric_ok == 50, f"{metric_ok}/50")

    seg_ok = 0
    for i in range(50):
        rows = 4 + i % 5
        f = segmentation(random_segmentation(rows, 4 + i % 3, 2000 + i))
        seg_ok += check_weakly_submodular(f, jobs=2 if rows >= 7 else 1).passed
    _clause(clauses, "50 seeded segmentation matrices pass", seg_ok == 50, f"{seg_ok}/50")

    powers_ok = all(check_weakly_submodular(cardinality_power(k, 8)).passed for k in range(4))
    _clause(clauses, "cardinality powers k <= 3 pass on n = 8", powers_ok)

    thr_ok = all(check_weakly_submodular(threshold(k, 3, 8)).passed for k in (1, 2))
    _clause(clauses, "thresholds k <= 2 pass on n = 8", thr_ok)

    combos = []
    for i in range(12):
        seed = 3000 + i
        if i % 3 == 0:
            combos.append(msd_objective(random_coverage(7, seed), random_metric(7, seed + 1)))
        elif i % 3 == 1:
            combos.append(
                linear_combination(
                    [segmentation(random_segmentation(7, 4, seed)), threshold(2, 2, 7)],
                    [1, 3],
                )
            )
        else:
            combos.append(
                linear_combination(
                    [metric_dispersion(random_metric(7, seed)), cardinality_power(2, 7)],
                    [2, 1],
                )
            )
    combos_ok = sum(check_weakly_submodular(f).passed for f in combos)
    _clause(clauses, "nonnegative combinations pass", combos_ok == len(combos), f"{combos_ok}/{len(combos)}")

    thr_fail = all(not check_weakly_submodular(threshold(k, 3, 8)).passed for k in (3, 4, 5))
    _clause(clauses, "thresholds k >= 3 fail on n = 8", thr_fail)

    quartic = raw_cardinality_profile(4, 8)
    _clause(clauses, "|S|^4 profile fails on n = 8", not check_weakly_submodular(quartic).passed)
    _clause(
        clauses,
        "cardinality-family check: pass k <= 3, fail k in 4..8 (bounds 8)",
        all(check_cardinality_family(k, 8, 8, 8).passed for k in range(4))
        and all(not check_cardinality_family(k, 8, 8, 8).passed for k in range(4, 9)),
    )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f}s")
    _finish(4, clauses)


def _family_instance(family: str, n: int, seed: int):
    if family == "dispersion":
        return metric_dispersion(random_metric(n, seed))
    if family == "segmentation":
        return segmentation(random_segmentation(n, 5, seed))
    return msd_objective(random_coverage(n, seed), random_metric(n, seed + 1))


def test_criterion_5_algorithm_vs_oracle():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 5: algorithm-vs-oracle suite")

    families = ("dispersion", "segmentation", "combination")
    greedy_bounds = {p: greedy_ratio(p) for p in range(2, 6)}
    local_bounds = {s: ls_bound(s) for s in range(2, 6)}

    for family in families:
        dominated = True
        greedy_within = True
        local_within = True
        worst_greedy = 0.0
        worst_local = 0.0
        for i in range(100):
            n = 8 + i % 3  # 8..10
            f = _family_instance(family, n, 50_000 + 97 * i)
            for p in range(2, 6):
                res = greedy_cardinality(f, p)
                opt = brute_force_cardinality(f, p)
                dominated &= opt.value >= res.value
                ratio = 1.0 if opt.value == 0 else float(opt.value) / float(res.value)
                worst_greedy = max(worst_greedy, ratio)
                greedy_within &= ratio <= greedy_bounds[p]
            for s in range(2, 6):
                for kind in ("uniform", "partition"):
                    if kind == "uniform":
                        matroid = Matroid.uniform(f.ground, s)
                    else:
                        matroid = random_partition_matroid(n, s, 77_000 + 13 * i + s)
                    res = local_search_matroid(f, matroid, epsilon=0)
                    opt = brute_force_matroid(f, matroid)
                    dominated &= opt.value >= res.value
                    ratio = 1.0 if opt.value == 0 else float(opt.value) / float(res.value)
                    worst_local = max(worst_local, ratio)
                    local_within &= ratio <= local_bounds[s]
        _clause(clauses, f"{family}: oracle dominates both algorithms", dominated)
        _clause(
            clauses,
            f"{family}: OPT/greedy within greedy_ratio(p), p in 2..5",
            greedy_within,
            f"worst {worst_greedy:.3f}",
        )
        _clause(
            clauses,
            f"{family}: OPT/local within ls_bound(s), uniform+partition, s in 2..5",
            local_within,
            f"worst {worst_local:.3f}",
        )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 10 min", elapsed < 600.0, f"{elapsed:.1f}s")
    _finish(5, clauses)


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 6: identity suite")

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    ids_ok = all(
        close(*geometric_identity(i, n)) and close(*weighted_geometric_identity(i, n))
        for i in range(1, 11)
        for n in range(1, 51)
    )
    _clause(clauses, "geometric identities agree on the grid", ids_ok)

    diff_ok = all(
        a_star(i, p, exact=True) - b_star(i, p, exact=True) == i
        for p in (2, 3, 5, 8, 13, 21)
        for i in range(1, p)
    )
    _clause(clauses, "a* - b* = i exactly", diff_ok)

    sums_ok = all(
        a_star(i, p, exact=True) == a_star_from_sum(i, p, exact=True)
        and b_star(i, p, exact=True) == b_star_from_sum(i, p, exact=True)
        for p in (2, 3, 7, 12, 20)
        for i in range(1, p)
    )
    _clause(clauses, "closed forms equal defining sums exactly", sums_ok)

    rng = Random(6161)
    rearr_ok = True
    for _ in range(1000):
        n = rng.randint(1, 12)
        mk = lambda: tuple(sorted((rng.randint(0, 40) for _ in range(n)), reverse=True))
        rearr_ok &= rearrangement_check(mk(), mk(), mk())
    _clause(clauses, "rearrangement inequality on 1000 random sorted triples", rearr_ok)

    rng = Random(777)
    matroids = [random_matroid(6 + t % 2, 2 + t % 2, rng) for t in range(20)]
    exchange_ok = True
    pair_count = 0
    for m in matroids:
        bases = [Subset(m.ground, b) for b in m.bases()]
        for X, Y in combinations(bases, 2):
            pair_count += 1
            exchange_ok &= brualdi_bijection(m, X, Y).is_valid(m)
    _clause(
        clauses,
        "exchange bijection exists and validates for all base pairs of 20 matroids",
        exchange_ok,
        f"{pair_count} pairs",
    )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f}s")
    _finish(6, clauses)


def test_criterion_7_bounded_scan_substitution():
    # Asymptotic behavior is out of reach; the accepted substitute is the
    # bounded scans of criterion 2 plus the invariant suites above.
    t0 = time.perf_counter()
    clauses = []
    print("\ncriterion 7: bounded-scan substitution for asymptotic claims")

    _clause(clauses, "greedy scan endpoint stays below 5.96", greedy_ratio(2000) < 5.96)
    _clause(
        clauses,
        "local-search scan endpoint within 0.01 of 10.22",
        abs(ls_bound(500) - 10.22) < 0.01,
    )

    elapsed = time.perf_counter() - t0
    _clause(clauses, "runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s")
    _finish(7, clauses)
