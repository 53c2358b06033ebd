"""Greedy and local-search maximizers plus brute-force oracles.

One greedy loop, ``_greedy_basis``, serves both algorithms: over
``Matroid.uniform(ground, p)`` it is the cardinality greedy, and over a
general matroid it builds the starting basis of local search.  Both are fully
deterministic: argmax ties break toward the smallest element index, and local
search applies the first improving swap in a fixed scan order.  Brute-force
enumeration provides exact optima for ground-truth comparison on small
instances; both oracles keep the first maximizer in their enumeration order.

The cardinality oracle takes one ``max`` over the function's value table
of the sets of size <= p (``SetFunction.table``), which every function
has; no table reads or writes the memo.  The sets of size exactly p are
the bases of ``Matroid.uniform(ground, p)``, which the matroid oracle
maximizes over.

Greedy, local search and the matroid oracle read their values from the
function's marginal state (``SetFunction.state``): greedy reads f(S + e)
for each feasible e, local search f(S + u - v) for each exchange the
matroid allows, and the matroid oracle f(B) at each basis B of a uniform
or partition matroid from the state of B less one element.  Int
dispersion and segmentation offer a state of their own, which makes no
evaluator call; every other function takes the generic state, which
reads ``f.value`` at each of those sets, so those solvers read exactly
the sets they read before the states.  The matroid oracle reads each
basis of an explicit matroid through ``f.value``.  Greedy and local
search keep the values they read, so neither reads the oracle again for
a set it has just evaluated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import (
    MONOTONE,
    NONNEGATIVE,
    NORMALIZED,
    CapExceeded,
    GroundSetMismatch,
    SetFunction,
    Subset,
    Value,
)
from .matroid import InconsistentOracle, Matroid

BRUTE_FORCE_CARDINALITY_CAP = 22

_SOLVER_PRECONDITIONS = {NORMALIZED, NONNEGATIVE, MONOTONE}


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run; ``value`` equals the oracle at ``selected`` bit-exactly."""

    selected: Subset
    value: Value
    iterations: int
    trace: tuple
    certificate: dict


@dataclass(frozen=True)
class OptResult:
    """Exact optimum from enumeration; dominates every feasible set by construction."""

    optimum: Subset
    value: Value
    enumerated: int


def _check_solver_claims(f: SetFunction, algorithm: str) -> None:
    # Builders that assert claims must assert the solver preconditions; an
    # empty claim set means "unknown" and is the caller's responsibility.
    if f.claims and not _SOLVER_PRECONDITIONS <= f.claims:
        missing = sorted(_SOLVER_PRECONDITIONS - f.claims)
        raise ValueError(f"{algorithm} requires claims {missing}, which {f.name} does not assert")


def greedy_cardinality(f: SetFunction, p: int) -> SolveResult:
    """Pick p elements, each round adding the largest marginal gain.

    Ties break toward the smallest index.  ``p`` must be an int; beyond the
    ground size it is an error rather than a clamp.
    """
    n = f.ground.n
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p > n:
        raise ValueError(f"p = {p} exceeds ground size {n}")
    _check_solver_claims(f, "greedy")

    mask, value, trace, _ = _greedy_basis(f, Matroid.uniform(f.ground, p), 0)
    return SolveResult(
        selected=Subset(f.ground, mask),
        value=value,
        iterations=p,
        trace=trace,
        certificate={
            "algorithm": "greedy_cardinality",
            "p": p,
            "tie_break": "smallest-index",
            "deterministic": True,
        },
    )


def _greedy_basis(f: SetFunction, matroid: Matroid, start_mask: int) -> tuple:
    """Complete a mask to a basis by best-marginal-gain feasible additions.

    Returns the basis mask, its value, one ``(step, label, value)`` row
    per addition and the state at the basis.  Ties break toward the
    smallest index.  Each candidate asks the independence oracle once.
    """
    mask = start_mask
    n = f.ground.n
    trace = []
    state = f.state(mask)
    base = state.value
    while mask.bit_count() < matroid.rank:
        best_gain = best_value = best_e = None
        for e in range(n):
            if mask >> e & 1 or not matroid.is_independent_mask(mask | (1 << e)):
                continue
            value = state.plus(e)
            gain = value - base
            if best_gain is None or gain > best_gain:
                best_gain, best_value, best_e = gain, value, e
        if best_e is None:
            raise InconsistentOracle("independence oracle inconsistent: basis unreachable")
        mask |= 1 << best_e
        state = state.add(best_e)
        base = best_value
        trace.append((len(trace) + 1, f.ground.label(best_e), base))
    return mask, base, tuple(trace), state


def local_search_matroid(
    f: SetFunction,
    matroid: Matroid,
    init: Optional[Subset] = None,
    epsilon: Value = 0,
    max_iters: Optional[int] = None,
) -> SolveResult:
    """Oblivious single-swap local search over matroid bases.

    Starting from ``init`` (extended to a basis; default: a greedy basis),
    repeatedly apply the first swap (u in, v out) in ascending (u, v) order
    that keeps a basis and raises the value above the current one and above
    (1 + epsilon) times it (which lies below a negative current value).  Every
    accepted swap strictly improves, so the search ends.  With epsilon = 0 the
    result is a true local optimum; epsilon > 0 trades the guarantee's
    tightness for a polynomial pass count on large instances.
    """
    if f.ground != matroid.ground:
        raise GroundSetMismatch("function and matroid must share a ground set")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if max_iters is not None and (type(max_iters) is not int or max_iters < 0):
        raise ValueError(f"max_iters must be None or an integer >= 0, got {max_iters!r}")
    _check_solver_claims(f, "local search")

    if init is not None and not matroid.is_independent(init):
        raise ValueError("init must be independent")
    mask, current, _, state = _greedy_basis(f, matroid, 0 if init is None else init.mask)

    n = f.ground.n
    trace = [(0, None, current)]
    swaps = 0
    while max_iters is None or swaps < max_iters:
        bar = max(current, current + epsilon * current)
        members = [v for v in range(n) if mask >> v & 1]
        found = False
        for u in range(n):
            if mask >> u & 1:
                continue
            for v in matroid._exchanges(members, mask, u):
                value = state.swap(u, v)
                if value > bar:
                    mask, current = mask & ~(1 << v) | 1 << u, value
                    state = f.state(mask)
                    swaps += 1
                    trace.append((swaps, (f.ground.label(u), f.ground.label(v)), current))
                    found = True
                    break
            if found:
                break
        if not found:
            break

    selected = Subset(f.ground, mask)
    return SolveResult(
        selected=selected,
        value=current,
        iterations=swaps,
        trace=tuple(trace),
        certificate={
            "algorithm": "local_search_matroid",
            "epsilon": epsilon,
            "max_iters": max_iters,
            "init": "greedy-basis" if init is None else "caller-extended",
            "scan": "first-improvement, u then v ascending",
            "deterministic": True,
        },
    )


def brute_force_cardinality(f: SetFunction, p: int) -> OptResult:
    """Exact maximum over all sets of size <= p.

    The first maximizer in size-then-lexicographic order of index tuples is
    kept.  Sets of size exactly p are the bases of ``Matroid.uniform(ground,
    p)``, whose maximum ``brute_force_matroid`` takes.

    One ``max`` runs over ``f.table(p)``, and only the positions that tie
    with it are turned back into masks: of those, the one of least size,
    then of the lexicographically first index tuple.  The table holds
    C(n, 0) + ... + C(n, p) values.  At the cap, n = 22 and p = 11 (2.4M
    sets; 2 shared vCPUs, Python 3.11.7, peak RSS of the whole process): by
    their builders' tables int dispersion took 0.5 s and 73 MB, linear
    0.3 s and 60 MB, and int segmentation with 8 columns, whose table runs
    in lanes, 0.5-0.6 s and 103-109 MB (1.4-1.5 s and 98 MB by the column
    doubling).  The complement of a linear function, whose generic table
    passes every set to the evaluator, took 5.8-7.0 s and 303 MB.
    """
    n = f.ground.n
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    if not 0 <= p <= n:
        raise ValueError(f"p must be in 0..{n}")
    require_brute_force_size(n)
    table = f.table(p)
    best = max(table)
    # ``count`` and ``index`` match by identity or ==, so a NaN first value
    # ties itself, and the first set, least in size and order, is kept.
    tied, k = [], -1
    for _ in range(table.count(best)):
        k = table.index(best, k + 1)
        tied.append(k)
    at = dict(zip(_unrank(tied, n, p), tied))
    mask = min(at, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
    return OptResult(Subset(f.ground, mask), table[at[mask]], len(table))


def require_brute_force_size(n: int) -> None:
    """Raise the ``CapExceeded`` that ``brute_force_cardinality`` raises on
    n elements, if it raises one."""
    if n > BRUTE_FORCE_CARDINALITY_CAP:
        raise CapExceeded(f"brute force capped at n <= {BRUTE_FORCE_CARDINALITY_CAP}")


def _unrank(positions, n: int, p: int):
    """The mask at each position of the masks of popcount <= p on n bits,
    in ascending order."""
    # below[q][e] counts the masks below bit e of popcount <= q.  Those
    # with largest element e come after them, each one of those of
    # popcount <= q - 1 below bit e, plus e.
    below = [[1] * (n + 1)]
    for q in range(p):
        below.append(list(accumulate(below[q][:n], initial=1)))
    for r in positions:
        mask, q = 0, p
        while r:
            e = bisect_right(below[q], r) - 1
            mask |= 1 << e
            r -= below[q][e]
            q -= 1
        yield mask


def brute_force_matroid(f: SetFunction, matroid: Matroid) -> OptResult:
    """Exact maximum of f over the bases of a matroid.

    The answer is the first maximizer in ascending mask order: of the bases
    of greatest value, the least mask, unless the least basis of all is
    worth NaN, which nothing exceeds, so it is kept.  That differs from
    ``brute_force_cardinality``'s first index tuple: on a uniform matroid
    of rank 2, {1, 2} (mask 6) comes before {0, 3} (mask 9) here and after
    it there.  Past ``matroid.BRUTE_FORCE_MATROID_CAP`` a uniform or
    partition matroid raises ``CapExceeded``.

    A uniform or partition matroid is walked depth first over its blocks,
    smallest first, each block taking its ``top`` elements in ascending
    order, so each state serves every basis that extends it: each basis is
    read as f(S + y) from the state at S, the basis less its last element
    y.  An explicit matroid's bases are read one by one through ``f.value``
    in ascending mask order.
    """
    if f.ground != matroid.ground:
        raise GroundSetMismatch("function and matroid must share a ground set")
    best = best_mask = None
    enumerated = 0

    # Both loops read the least basis first, so a NaN there is kept, as the
    # scan in mask order keeps it, and a NaN read later never wins.
    def leaf(v: Value, mask: int) -> None:
        nonlocal best, best_mask, enumerated
        enumerated += 1
        if best is None or v > best or v == best and mask < best_mask:
            best, best_mask = v, mask

    if matroid.kind == "explicit":
        for mask in matroid.bases():
            leaf(f.value(mask), mask)
    else:
        blocks = sorted(matroid._basis_blocks(), key=lambda b: len(b[0]))
        root = f.state(0)
        # One slot per element a basis takes: (the block's elements, how
        # many the block takes after this one).
        slots = [(elements, top - 1 - k) for elements, top in blocks for k in range(top)]
        last = len(slots) - 1

        def walk(k: int, at, mask: int, start: int) -> None:
            elements, after = slots[k]
            chosen = elements[start : len(elements) - after]
            if k == last:
                for e in chosen:
                    leaf(at.plus(e), mask | 1 << e)
                return
            for i, e in enumerate(chosen, start + 1):
                walk(k + 1, at.add(e), mask | 1 << e, i if after else 0)

        if slots:
            walk(0, root, 0, 0)
        else:
            leaf(root.value, 0)
    return OptResult(Subset(f.ground, best_mask), best, enumerated)
