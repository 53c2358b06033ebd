"""Shared naive oracles, deliberately independent of the library's bitmask path.

These re-derive the defining inequalities with frozensets and itertools so
checker outcomes can be cross-validated against a second implementation.
"""

from itertools import chain, combinations

import pytest


def powerset(universe):
    items = list(universe)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def naive_weak_submodular_violations(universe, value_of):
    """All (S, T, lhs, rhs) with |T|f(S)+|S|f(T) < |S&T|f(S|T)+|S|T|f(S&T).

    ``value_of`` maps a frozenset to a value.  Scans ordered pairs once
    (unordered, S before T in powerset order).
    """
    subsets = [frozenset(s) for s in powerset(universe)]
    out = []
    for i, S in enumerate(subsets):
        for T in subsets[i:]:
            lhs = len(T) * value_of(S) + len(S) * value_of(T)
            rhs = len(S & T) * value_of(S | T) + len(S | T) * value_of(S & T)
            if lhs < rhs:
                out.append((S, T, lhs, rhs))
    return out


def naive_submodular_violations(universe, value_of):
    subsets = [frozenset(s) for s in powerset(universe)]
    out = []
    for i, S in enumerate(subsets):
        for T in subsets[i:]:
            if value_of(S) + value_of(T) < value_of(S | T) + value_of(S & T):
                out.append((S, T))
    return out


def naive_monotone_violations(universe, value_of):
    universe = list(universe)
    out = []
    for s in powerset(universe):
        S = frozenset(s)
        for e in universe:
            if e not in S and value_of(S | {e}) < value_of(S):
                out.append((S, e))
    return out


def scalar_closure(d):
    """All-pairs shortest paths of the square matrix ``d`` (lists of
    numbers) by the textbook Floyd-Warshall triple loop, as tuples."""
    d = [list(row) for row in d]
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(map(tuple, d))


def naive_triangle_error(d):
    """The triangle message for the first ordered (i, j, k) of the square
    matrix ``d`` with d[i][j] > d[i][k] + d[k][j], else None."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    return (
                        f"triangle inequality fails on ({i},{j},{k}): "
                        f"{d[i][j]} > {d[i][k]} + {d[k][j]}"
                    )
    return None


def as_value_of(f):
    """Adapt a SetFunction to a frozenset-of-labels oracle."""
    return lambda labels: f(labels)


@pytest.fixture
def unit_metric4():
    from weaksub.zoo import DistanceMatrix

    return DistanceMatrix.unit(4)
