"""Greedy and local-search maximizers plus brute-force oracles.

One greedy loop, ``_greedy_basis``, serves both algorithms: over
``Matroid.uniform(ground, p)`` it is the cardinality greedy, and over a
general matroid it builds the starting basis of local search.  Both are fully
deterministic: argmax ties break toward the smallest element index, and local
search applies the first improving swap in a fixed scan order.  Brute-force
enumeration provides exact optima for ground-truth comparison on small
instances; both oracles keep the first maximizer in their enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

from .core import (
    MONOTONE,
    NONNEGATIVE,
    NORMALIZED,
    CapExceeded,
    SetFunction,
    Subset,
    Value,
)
from .matroid import Matroid

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

    Ties break toward the smallest index.  ``p`` beyond the ground size is an
    error rather than a clamp.
    """
    n = f.ground.n
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p > n:
        raise ValueError(f"p = {p} exceeds ground size {n}")
    _check_solver_claims(f, "greedy")

    mask, trace = _greedy_basis(f, Matroid.uniform(f.ground, p), 0)
    return SolveResult(
        selected=Subset(f.ground, mask),
        value=f.value(mask),
        iterations=p,
        trace=trace,
        certificate={
            "algorithm": "greedy_cardinality",
            "p": p,
            "tie_break": "smallest-index",
            "deterministic": True,
        },
    )


def _greedy_basis(f: SetFunction, matroid: Matroid, start_mask: int) -> tuple[int, tuple]:
    """Complete a mask to a basis by best-marginal-gain feasible additions.

    Returns the basis mask and one ``(step, label, value)`` row per addition.
    Ties break toward the smallest index.
    """
    mask = start_mask
    n = f.ground.n
    trace = []
    while mask.bit_count() < matroid.rank:
        base = f.value(mask)
        best_gain = None
        best_e = None
        for e in range(n):
            if mask >> e & 1 or not matroid.is_independent_mask(mask | (1 << e)):
                continue
            gain = f.value(mask | (1 << e)) - base
            if best_gain is None or gain > best_gain:
                best_gain, best_e = gain, e
        if best_e is None:
            raise RuntimeError("independence oracle inconsistent: basis unreachable")
        mask |= 1 << best_e
        trace.append((len(trace) + 1, f.ground.label(best_e), f.value(mask)))
    return mask, tuple(trace)


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
    that keeps a basis and improves the value beyond (1 + epsilon) times the
    current one.  With epsilon = 0 the result is a true local optimum;
    epsilon > 0 trades the guarantee's tightness for a polynomial pass count
    on large instances.
    """
    if f.ground != matroid.ground:
        raise ValueError("function and matroid must share a ground set")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    _check_solver_claims(f, "local search")

    if init is not None and not matroid.is_independent(init):
        raise ValueError("init must be independent")
    mask, _ = _greedy_basis(f, matroid, 0 if init is None else init.mask)

    n = f.ground.n
    trace = [(0, None, f.value(mask))]
    swaps = 0
    while max_iters is None or swaps < max_iters:
        current = f.value(mask)
        bar = current + epsilon * current
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
                if f.value(candidate) > bar:
                    mask = candidate
                    swaps += 1
                    trace.append(
                        (swaps, (f.ground.label(u), f.ground.label(v)), f.value(mask))
                    )
                    found = True
                    break
            if found:
                break
        if not found:
            break

    selected = Subset(f.ground, mask)
    return SolveResult(
        selected=selected,
        value=f.value(mask),
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


def brute_force_cardinality(
    f: SetFunction,
    p: int,
    *,
    exact_size: bool = False,
) -> OptResult:
    """Exact maximum over all sets of size <= p (or exactly p).

    For monotone functions the two modes agree at the optimum.  Enumeration
    order is by size then lexicographic index tuples; the first maximizer
    encountered is kept.
    """
    n = f.ground.n
    if not 0 <= p <= n:
        raise ValueError(f"p must be in 0..{n}")
    if n > BRUTE_FORCE_CARDINALITY_CAP:
        raise CapExceeded(f"brute force capped at n <= {BRUTE_FORCE_CARDINALITY_CAP}")
    sizes = [p] if exact_size else range(p + 1)
    bits = [1 << i for i in range(n)]
    # map(sum, ...) builds each mask in C: brute force is most of a bench
    # run, and a per-mask Python loop there costs measurable time.
    masks = chain.from_iterable(map(sum, combinations(bits, size)) for size in sizes)
    return _first_maximizer(f, masks)


def brute_force_matroid(f: SetFunction, matroid: Matroid) -> OptResult:
    """Exact maximum of f over the bases of a matroid (ascending mask order).

    ``Matroid.bases`` raises ``CapExceeded`` past its enumeration cap.
    """
    if f.ground != matroid.ground:
        raise ValueError("function and matroid must share a ground set")
    opt = _first_maximizer(f, matroid.bases())
    if opt is None:
        raise ValueError("matroid has no basis")
    return opt


def _first_maximizer(f: SetFunction, masks) -> Optional[OptResult]:
    """The first mask of greatest value in iteration order; None when ``masks`` is empty."""
    best_mask = None
    best = None
    enumerated = 0
    for mask in masks:
        enumerated += 1
        v = f.value(mask)
        if best is None or v > best:
            best, best_mask = v, mask
    if best_mask is None:
        return None
    return OptResult(Subset(f.ground, best_mask), best, enumerated)
