"""Builders for the function families with known class membership.

Each builder returns a ``SetFunction`` whose ``claims`` record what the
construction guarantees.  Integer inputs stay in integer arithmetic, so the
classic counterexample values reproduce exactly.

Every function has a value table (``SetFunction.table``), bounded by a
popcount p and built by doubling with the selection of ``core._extenders``.
Most builders pass their own.  Linear and segmentation evaluate by folding
one step over the set in ascending order (``_folded``), and their tables
double in that order, so they make the same additions for every input:
linear adds each weight, and segmentation doubles each column's maxima
(its int table doubles all of a set's maxima at once, in lanes; see
below).
``_count_only`` takes a profile of |S| (cardinality power, polynomial and
profile, and threshold) and places one value per size, for every input.
``_pairwise`` takes a pairwise-additive f(S + e) = f(S) + lin[e] + the sum
of pair terms above[e][i] over i in S (metric dispersion and max-cut) and
doubles those terms (``_pairwise_table``).  Its evaluator sums in another
order, so ``_pairwise`` offers a table only when the order cannot change a
value: exact distances for dispersion, int weights for max-cut.  Coverage
doubles its covered-item masks and sums each distinct one with the
evaluator's own ``weight``, so it has a table for every weight type.  A
combination sums its terms' tables, so it always has one.  The functions
without a table of their own (complements, zero-at-top, welfare and the
inexact builders above) get the generic one, which evaluates each mask of
the table once through the memoized oracle.

Two builders also offer a marginal state (``SetFunction.state``) for the
solvers, each only when every input number is an int: metric dispersion
(``_PairwiseState``: a gain per element, moved by a distance row per
addition) and segmentation (``_SegmentationState``: running column
maxima).  Every other function takes the generic state, which reads
through ``value``.

Three int kernels run in guard-bit lanes of plain Python ints, the layout
of ``core._lane_layout``, ``core._packed`` and ``core._unpacked``, where
one big-int operation acts on every lane and ``core._at_least`` marks the
lanes where one side is at least the other (Lamport, "Multiple byte
processing with full-word instructions", CACM 1975):
``random_metric``'s shortest-path closure (``_closure``) and
``DistanceMatrix``'s triangle check (``_is_metric``), one pass per pivot
over blocks of whole rows, and the int segmentation table
(``_segmentation_lanes``), whose sets' column maxima double in lanes.
Each gives the scalar loop's result: the same matrix, the same first
failing triple and message, the same int values.  Float matrices keep the
scalar triangle loop, and a segmentation matrix that is not all ints keeps
the column doubling.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, repeat
from math import inf
from operator import add, mul, or_
from random import Random
from typing import Hashable, Iterable, Sequence

from .core import (
    MONOTONE,
    NONNEGATIVE,
    NORMALIZED,
    SUBMODULAR,
    WEAKLY_SUBMODULAR,
    GroundSet,
    GroundSetMismatch,
    SetFunction,
    Value,
    _at_least,
    _by_size,
    _doubled,
    _exact_table,
    _extenders,
    _lane_layout,
    _packed,
    _unpacked,
    cardinality_profile,
)
from .matroid import Matroid


def _folded(start, step):
    """The function that applies ``step`` from ``start`` over a mask's elements
    in ascending index order and returns the final state."""

    def ev(mask: int) -> Value:
        state = start
        while mask:
            low = mask & -mask
            state = step(state, low.bit_length() - 1)
            mask ^= low
        return state

    return ev


def _pairwise_table(lin: Sequence[Value], above, p: int) -> list:
    """Values of f(S) = sum over e in S of (lin[e] + sum over i < e in S of
    above[e][i]) for every mask of popcount <= p, built by doubling.
    ``above[e]`` is indexed by i in range(e): a tuple, or a sparse
    ``_SparseRow``.

    The masks below bit e are the table so far; the ones with bit e are
    those of popcount < p plus the column c_e(S) = lin[e] + above[e][i0] +
    above[e][i1] + ... (S ascending), itself built by doubling over i < e
    under the bound p - 1.  So each value is f(S) + c_e(S) with e the set's
    largest element.  Each new list is built whole before it extends the
    list it was read from.
    """
    n = len(lin)
    extending, col_extending = _extenders(n, p), _extenders(n - 1, p - 1)
    table = [0]
    for e, q in enumerate(lin):
        col = _doubled(add, q, map(above[e].__getitem__, range(e)), col_extending)
        table += list(map(add, extending(table, e), col))
    return table


# Bound on a block's lanes times a row's lanes in the metric lanes: the
# size of the multiplication that broadcasts column k over a block.  One
# block holds the whole matrix up to n = 16, and from n = 64 on a block is
# one row.  On 2 shared vCPUs (Python 3.11.7) the triangle check took
# 35 us at n = 14 and 22-25 ms at n = 200 with this bound, against 61 us
# and 40 ms with a bound of 256 on a block's lanes alone.
_METRIC_BLOCK_BOUND = 4096


def _row_blocks(flat: list[int], n: int, size: int) -> list[list]:
    """The n x n matrix ``flat`` (row-major ints >= 0) in blocks of whole
    rows, each ``[first row, rows, packed, guards]`` with the rows packed
    by ``core._packed`` in lanes of ``size`` bytes: lane (i, j) of a block
    is entry (first + i, j)."""
    per = max(1, _METRIC_BLOCK_BOUND // (n * n))
    return [
        [r, min(per, n - r), *_packed(flat[r * n : (r + per) * n], 0, size)]
        for r in range(0, n, per)
    ]


def _through_pivots(blocks: list[list], n: int, size: int):
    """Yield (block, through) for each pivot k = 0 .. n - 1 and each block,
    where lane (i, j) of ``through`` is d[i][k] + d[k][j] over the block's
    lanes, read from ``blocks`` as they stand when pivot k starts.

    Lane (i, k) of a block, shifted down to lane (i, 0) and kept alone in
    its row, times n ones spaced a lane apart, puts d[i][k] in every lane
    of row i.  Row k times one one per row of the block puts d[k][j] in
    every lane (i, j).  Their sum is ``through``.
    """
    width = 8 * size
    span = n * width
    whole = (1 << span) - 1
    along = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    across = {rows: sum(1 << r * span for r in range(rows)) for rows in {b[1] for b in blocks}}
    down = {rows: ((1 << width) - 1) * across[rows] for rows in across}
    per = blocks[0][1]
    for k in range(n):
        first, _, packed = blocks[k // per][:3]
        row = packed >> (k - first) * span & whole
        shift = k * width
        for block in blocks:
            rows = block[1]
            yield block, (block[2] >> shift & down[rows]) * along + row * across[rows]


def _is_metric(table: list[int], n: int) -> bool:
    """Whether the n x n int matrix ``table`` (row-major, symmetric, >= 0,
    zero diagonal) meets d[i][j] <= d[i][k] + d[k][j] for every triple.

    The rows are packed in blocks by ``_row_blocks``, with lanes laid out
    by ``core._lane_layout`` for sums of two entries.  For each pivot k, one
    guarded subtraction of a block from ``through`` (``_through_pivots``)
    tests every (i, j) of the block at once: a cleared guard is a failing
    triple.  The matrix does not change, so each block keeps guards minus
    its lanes, and the subtraction is one addition.
    """
    if not n:
        return True
    _, size = _lane_layout(table, 2)
    blocks = _row_blocks(table, n, size)
    for block in blocks:
        block.append(block[3] - block[2])
    for (_, _, _, guards, lifted), through in _through_pivots(blocks, n, size):
        if (through + lifted) & guards != guards:
            return False
    return True


def _closure(table: list[int], n: int) -> list[int]:
    """The shortest-path closure of the n x n int matrix ``table``
    (row-major, symmetric, >= 0, zero diagonal), by Floyd-Warshall in
    lanes: for each pivot k, every block takes the lane-wise min with its
    ``through`` (``_through_pivots``, ``core._at_least``).

    Row k and column k do not change at pivot k, since d[k][k] = 0, so
    taking them as the pivot starts gives the scalar loop's mins, and the
    result is the same matrix.  No entry grows, so lanes for sums of two
    of the input's entries hold every value.
    """
    if not n:
        return []
    _, size = _lane_layout(table, 2)
    width = 8 * size
    blocks = _row_blocks(table, n, size)
    for block, through in _through_pivots(blocks, n, size):
        packed = block[2]
        block[2] = packed ^ (packed ^ through) & _at_least(packed, through, block[3], width)
    return [x for first, rows, packed, _ in blocks for x in _unpacked(packed, size, rows * n)]


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric nonnegative matrix with zero diagonal satisfying the triangle inequality.

    The checks run in the order square, then per row i the diagonal entry
    and, for j > i, symmetry and sign, then the triangle inequality.  An
    int or ``Fraction`` matrix, scaled to ints by the lcm of its
    denominators (``core._exact_table``), takes the triangle check in
    guard-bit lanes (``_is_metric``).  Validating a ``random_metric`` matrix
    took 26 ms at n = 200 and 67 us at n = 16, against 131 ms and 118 us
    with the scalar loop alone (medians; 2 shared vCPUs, Python 3.11.7).
    The scalar loop below checks any other matrix (floats, int
    subclasses), and names the first failing (i, j, k) when the lanes find
    one, so every message is the same.
    """

    d: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        d = tuple(tuple(row) for row in self.d)
        object.__setattr__(self, "d", d)
        n = len(d)
        if any(len(row) != n for row in d):
            raise ValueError("distance matrix must be square")
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError("distance matrix must have zero diagonal")
            for j in range(i + 1, n):
                if d[i][j] != d[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if d[i][j] < 0:
                    raise ValueError("distances must be nonnegative")
        flat = list(chain.from_iterable(d))
        kinds = set(map(type, flat))
        if kinds <= {int, Fraction} and _is_metric(flat if kinds <= {int} else _exact_table(flat), n):
            return
        # With d symmetric, d[i][k] + d[k][j] is add(d[i][k], d[j][k]), and the
        # first failing (i, j, k) in lexicographic order always has i < j.
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] > min(map(add, d[i], d[j])):
                    k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j])
                    raise ValueError(
                        f"triangle inequality fails on ({i},{j},{k}): "
                        f"{d[i][j]} > {d[i][k]} + {d[k][j]}"
                    )

    @property
    def n(self) -> int:
        return len(self.d)

    @classmethod
    def unit(cls, n: int) -> "DistanceMatrix":
        return cls(tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))


def random_metric(n: int, seed_or_rng, high: int = 9) -> DistanceMatrix:
    """A random integer metric via shortest-path completion of a random symmetric matrix.

    Running all-pairs shortest paths on arbitrary nonnegative edge lengths
    guarantees the triangle inequality without rejection sampling.  The
    lengths are drawn for i < j in row order, and the closure runs in
    guard-bit lanes (``_closure``), one lane-wise min per pivot and block,
    with the scalar triple loop's result: 55-94 us at n = 16 and 36-57 ms
    at n = 200, against 210-292 us and 331-365 ms for that loop (2 shared
    vCPUs, Python 3.11.7).
    """
    rng = seed_or_rng if isinstance(seed_or_rng, Random) else Random(seed_or_rng)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, high)
    closed = _closure([x for row in d for x in row], n)
    return DistanceMatrix(tuple(tuple(closed[i * n : (i + 1) * n]) for i in range(n)))


@dataclass(frozen=True)
class SegmentationMatrix:
    """An items-by-individuals score matrix where every row sums to >= 0."""

    m: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        m = tuple(tuple(row) for row in self.m)
        object.__setattr__(self, "m", m)
        if not m:
            raise ValueError("segmentation matrix needs at least one row")
        width = len(m[0])
        if any(len(row) != width for row in m):
            raise ValueError("segmentation matrix rows must have equal length")
        for i, row in enumerate(m):
            if not sum(row) >= 0:
                raise ValueError(f"row {i} sums to {sum(row)} < 0 (average non-negativity)")

    @property
    def rows(self) -> int:
        return len(self.m)


def random_segmentation(
    rows: int, cols: int, seed_or_rng, low: int = -4, high: int = 9
) -> SegmentationMatrix:
    """Random integer matrix with each row redrawn until its sum is nonnegative."""
    rng = seed_or_rng if isinstance(seed_or_rng, Random) else Random(seed_or_rng)
    out = []
    for _ in range(rows):
        while True:
            row = [rng.randint(low, high) for _ in range(cols)]
            if sum(row) >= 0:
                out.append(tuple(row))
                break
    return SegmentationMatrix(tuple(out))


@dataclass(frozen=True)
class Graph:
    """Undirected graph with nonnegative edge weights and no self-loops."""

    n_vertices: int
    edges: tuple[tuple[int, int, Value], ...]

    def __post_init__(self):
        edges = tuple((u, v, w) for (u, v, w) in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v, w in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if not w >= 0:
                raise ValueError("edge weights must be nonnegative")


def linear(weights: Sequence[Value]) -> SetFunction:
    """f(S) = sum of per-element weights; modular, hence in every class here.

    The evaluator adds the weights from the int 0 in ascending element
    order (``_folded``).  The table adds w[e] to the value of each set
    below bit e that takes e, so every value is the same chain of
    additions, and equals the evaluator's for every input, floats and
    -0.0 included.
    """
    weights = tuple(weights)
    if any(not w >= 0 for w in weights):
        raise ValueError("linear weights must be nonnegative")
    ground = GroundSet.of_size(len(weights))
    return SetFunction(
        ground,
        _folded(0, lambda total, e: total + weights[e]),
        name="linear",
        claims={NORMALIZED, NONNEGATIVE, MONOTONE, SUBMODULAR, WEAKLY_SUBMODULAR},
        table=lambda p: _doubled(add, 0, weights, _extenders(ground.n, p)),
    )


def coverage(covers: Sequence[Iterable[Hashable]], weights: dict | None = None) -> SetFunction:
    """Weighted coverage: f(S) = weight of the union of the items covered by S.

    ``covers[i]`` lists the items ground element i covers; ``weights`` maps
    item -> weight (default 1 each).  Referencing an item missing from an
    explicit weights table, or giving a covered item a weight that is not
    nonnegative, is an error.
    """
    item_sets = [frozenset(c) for c in covers]
    items = sorted({x for c in item_sets for x in c}, key=repr)
    if weights is None:
        weights = {x: 1 for x in items}
    else:
        dangling = [x for x in items if x not in weights]
        if dangling:
            raise ValueError(f"covered items missing from weight table: {dangling}")
        if any(not weights[x] >= 0 for x in items):
            raise ValueError("coverage item weights must be nonnegative")
    ground = GroundSet.of_size(len(item_sets))

    # Item j is bit j of ``items``.
    item_bit = {x: 1 << j for j, x in enumerate(items)}
    cover_masks = [sum(map(item_bit.__getitem__, c)) for c in item_sets]
    item_weights = [(1 << j, weights[x]) for j, x in enumerate(items)]

    def weight(covered: int) -> Value:
        return sum([w for b, w in item_weights if covered & b])

    def ev(mask: int) -> Value:
        covered = 0
        for i, c in enumerate(cover_masks):
            if mask >> i & 1:
                covered |= c
        return weight(covered)

    def table(p: int) -> list:
        # The covered-item masks by doubling with ``or_``, then one
        # evaluator sum per distinct covered mask: the same masks and sums
        # as ``ev``, so the table equals it for every weight type.
        covered = _doubled(or_, 0, cover_masks, _extenders(ground.n, p))
        sums = {c: weight(c) for c in set(covered)}
        return list(map(sums.__getitem__, covered))

    return SetFunction(
        ground,
        ev,
        name="coverage",
        claims={NORMALIZED, NONNEGATIVE, MONOTONE, SUBMODULAR, WEAKLY_SUBMODULAR},
        table=table,
    )


def random_coverage(n: int, seed_or_rng, n_items: int = 8, max_weight: int = 5) -> SetFunction:
    rng = seed_or_rng if isinstance(seed_or_rng, Random) else Random(seed_or_rng)
    covers = [
        [j for j in range(n_items) if rng.random() < 0.4] or [rng.randrange(n_items)]
        for _ in range(n)
    ]
    weights = {j: rng.randint(1, max_weight) for j in range(n_items)}
    return coverage(covers, weights)


def metric_dispersion(dist: DistanceMatrix) -> SetFunction:
    """Sum of pairwise distances within S; monotone and weakly submodular but
    supermodular, so no submodularity claim.  ``_pairwise`` gives it a
    table for exact distances and, for int ones, a marginal state whose
    rows are ``dist.d`` itself: symmetric, 0 on the diagonal, and the
    distances the evaluator adds."""
    d = dist.d

    def ev(mask: int) -> Value:
        idx = [i for i in range(dist.n) if mask >> i & 1]
        return sum(d[u][v] for u, v in combinations(idx, 2))

    # above[e][i] is d[i][e] for i < e, the same upper-triangle entry the
    # evaluator reads for the pair.
    above = [tuple(d[i][e] for i in range(e)) for e in range(dist.n)]
    kinds = set(map(type, chain.from_iterable(d)))
    exact, ints = kinds <= {int, Fraction}, kinds <= {int}
    claims = {NORMALIZED, NONNEGATIVE, MONOTONE, WEAKLY_SUBMODULAR}
    return _pairwise(ev, [0] * dist.n, above, exact, "dispersion", claims, rows=d if ints else None)


def cross_dispersion(dist: DistanceMatrix, s_indices, t_indices) -> Value:
    """Bipartite distance sum between two disjoint index sets."""
    s, t = set(s_indices), set(t_indices)
    if s & t:
        raise ValueError("cross dispersion requires disjoint sets")
    d = dist.d
    return sum(d[u][v] for u in s for v in t)


class _SegmentationState:
    """The marginal state of a segmentation at a set S: the column maxima
    ``top`` of S's rows (None for the empty set) and f(S), their sum.
    f(S + e) sums ``step(top, e)``, the maxima with row e; f(S + u - v)
    sums the maxima of S - v with row u, folding those maxima once per v
    and keeping them."""

    __slots__ = ("step", "maxima", "mask", "top", "value", "_without")

    def __init__(self, step, maxima, mask: int, top):
        self.step = step
        self.maxima = maxima
        self.mask = mask
        self.top = top
        self.value = 0 if top is None else sum(top)
        self._without = {}

    def plus(self, e: int) -> Value:
        return sum(self.step(self.top, e))

    def swap(self, u: int, v: int) -> Value:
        if v not in self._without:
            self._without[v] = self.maxima(self.mask & ~(1 << v))
        return sum(self.step(self._without[v], u))

    def add(self, e: int) -> "_SegmentationState":
        return _SegmentationState(self.step, self.maxima, self.mask | 1 << e, self.step(self.top, e))


def _segmentation_lanes(m, p: int) -> list[int]:
    """``segmentation``'s table on an int matrix with a column, in guard-bit
    lanes.

    A set's state is its column maxima, less the least entry of ``m``, one
    lane per column, laid out by ``core._lane_layout`` for sums of all c
    columns.  The states are doubled as ``core._by_size`` doubles its
    cells: cell q holds, in one int, the states of the masks of popcount
    <= q below bit e in ascending order, and adding bit e appends to cell q
    the lane-wise max (``core._at_least``) of cell q - 1 with row e
    repeated once per set, from q = p down.  The empty set's lanes hold 0,
    which every shifted entry replaces, and a cell that is not read again
    is dropped.  Cell p is never read, so it stays a list of the pieces
    appended to it, each summed and dropped in turn: at n = 22 and p = 11
    one int of it took 1.0 s and 149 MB, the pieces 0.5-0.6 s and
    103-109 MB.  A
    set's value is the sum of its lanes plus c times the least entry: a
    piece times c ones spaced a lane apart holds each set's sum in the
    set's top lane, which no carry crosses, and ``core._unpacked`` reads
    every c-th lane.  The empty set is the int 0.  So every value is the
    int the evaluator returns.
    """
    n, c = len(m), len(m[0])
    p = min(p, n)
    low, size = _lane_layout([x for row in m for x in row], c)
    width, record = 8 * size, 8 * size * c
    rows = [_packed(row, low, size)[0].to_bytes(size * c, "little") for row in m]
    guard = (bytes(size - 1) + b"\x80") * c
    cells, counts = [0] * (p + 1), [1] * (p + 1)
    pieces = [(0, 1)]  # cell p, which no bit reads: the empty set, then each append
    for e in range(n):
        for q in range(p, max(0, p - n + e), -1):
            below, sets = cells[q - 1], counts[q - 1]
            row = int.from_bytes(rows[e] * sets, "little")
            guards = int.from_bytes(guard * sets, "little")
            top = row ^ (below ^ row) & _at_least(below, row, guards, width)
            if q == p:
                pieces.append((top, sets))
            else:
                cells[q] |= top << counts[q] * record
            counts[q] += sets
        if p - n + e >= 0:
            cells[p - n + e] = None
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * c, "little")
    values = []
    pieces.reverse()
    while pieces:  # each piece is dropped once read
        packed, sets = pieces.pop()
        values += map(add, _unpacked(packed * ones >> (c - 1) * width, size, sets, c), repeat(c * low))
    values[0] = 0
    return values


def segmentation(matrix: SegmentationMatrix) -> SetFunction:
    """Column-wise best-row sum over the chosen rows, with value 0 on the empty set.

    The evaluator folds the column maxima over the rows in ascending index
    order (``_folded``).  On a matrix of ints with a column the table runs
    in guard-bit lanes (``_segmentation_lanes``): int maxima and int sums
    have one value whatever the order.  table(5) of a 14 x 14 matrix took
    about 1.0 ms there against 3.2 ms for the column doubling (medians;
    2 shared vCPUs, Python 3.11.7).  Any other table doubles each column's maxima in
    the evaluator's order, so both make the same comparisons.  A tie keeps
    the earlier row's entry, as ``max`` over the rows in index order does.
    In that table a column's slot for the empty set holds -inf, which every
    entry replaces (a row holding -inf sums to -inf or NaN and is refused).
    Both add the maxima in column order from the int 0, so the table
    equals the evaluator for every input.  ``sum`` would not do: from
    Python 3.12 it compensates float rounding, which the table's additions
    column by column cannot.  The marginal state (``_SegmentationState``)
    does sum with ``sum``, so it is offered only when every entry is an
    int.
    """
    m = matrix.m
    ground = GroundSet.of_size(matrix.rows)

    # Column maxima, None for the empty set.
    def step(top, e: int):
        row = m[e]
        return row if top is None else [a if a >= b else b for a, b in zip(top, row)]

    maxima = _folded(None, step)

    def ev(mask: int) -> Value:
        return reduce(add, maxima(mask), 0) if mask else 0

    def table(p: int) -> list:
        if ints and m[0]:
            return _segmentation_lanes(m, p)
        extending = _extenders(ground.n, p)
        values = _by_size(ground.n, p, [0] * (p + 1))
        for column in zip(*m):
            top = [-inf]
            for e, b in enumerate(column):
                top += [a if a >= b else b for a in extending(top, e)]
            values = list(map(add, values, top))
        values[0] = 0  # the empty set, whose slots held -inf
        return values

    ints = all(type(x) is int for row in m for x in row)
    return SetFunction(
        ground,
        ev,
        name="segmentation",
        claims={NORMALIZED, NONNEGATIVE, MONOTONE, WEAKLY_SUBMODULAR},
        table=table,
        state=(lambda mask: _SegmentationState(step, maxima, mask, maxima(mask))) if ints else None,
    )


class _PairwiseState:
    """The marginal state of a ``_pairwise`` function at a set S.

    ``gain[x]`` is lin[x] plus the pair terms of x with S: f(S + x) - f(S)
    for x not in S, and f(S) - f(S - x) for x in S, since a row holds 0 at
    its own index.  So f(S + u - v) = f(S) - gain[v] + gain[u] - w_uv, and
    adding e adds e's full row to every gain.
    """

    __slots__ = ("rows", "value", "gain")

    def __init__(self, rows, value, gain):
        self.rows = rows
        self.value = value
        self.gain = gain

    def plus(self, e: int) -> Value:
        return self.value + self.gain[e]

    def swap(self, u: int, v: int) -> Value:
        return self.value - self.gain[v] + self.gain[u] - self.rows[u][v]

    def add(self, e: int) -> "_PairwiseState":
        return _PairwiseState(
            self.rows, self.value + self.gain[e], list(map(add, self.gain, self.rows[e]))
        )


def _pairwise(
    ev, lin: Sequence[Value], above, exact: bool, name: str, claims, *, rows=None
) -> SetFunction:
    """f(S) = sum over e in S of (lin[e] + sum over i < e in S of above[e][i])
    on len(lin) elements, evaluated by the builder's ``ev``.  Its table is
    ``_pairwise_table``, offered only when ``exact``, since ``ev`` sums in
    another order.  Its marginal state (``_PairwiseState``) is offered only
    when the builder passes ``rows``, the full symmetric pair terms with a
    0 diagonal, which the state reads and never changes.

    The weak inequality's slack at (S, T), lhs - rhs of ``_weak_sides``,
    has a closed form for such f.  Write w_xy = w_yx = above[max][min],
    A = S - T, B = T - S and C = S & T, of sizes a, b and c.  Then

        slack(S, T) = b f(A) + a f(B) + sum over x in A, y in B, z in C
                      of (w_xz + w_zy - w_xy).

    Proof: with W(X) the pair sum inside X and W(X, Y) the one across, the
    linear terms leave b lin(A) + a lin(B), the W(C) terms cancel, and the
    rest is b W(A) + a W(B) + b W(A, C) + a W(B, C) - c W(A, B); the triple
    sum is b W(A, C) + a W(C, B) - c W(A, B).  So with lin = 0 and w >= 0
    (dispersion), f is weakly submodular exactly when w is a metric: the
    triangle inequality makes every term >= 0, and a = b = c = 1, where
    f(A) = f(B) = 0, leaves slack = w_xz + w_zy - w_xy.  That proves
    ``metric_dispersion``'s ``WEAKLY_SUBMODULAR`` claim.
    """
    n = len(lin)

    def state(mask: int) -> _PairwiseState:
        at = _PairwiseState(rows, 0, list(lin))
        for e in range(n):
            if mask >> e & 1:
                at = at.add(e)
        return at

    return SetFunction(
        GroundSet.of_size(n),
        ev,
        name=name,
        claims=claims,
        table=(lambda p: _pairwise_table(lin, above, p)) if exact else None,
        state=None if rows is None else state,
    )


class _SparseRow(dict):
    """Pair terms by index; a missing index reads 0 and stores nothing."""

    def __missing__(self, i: int) -> int:
        return 0


def _count_only(n: int, prof, name: str, claims) -> SetFunction:
    """f(S) = prof(|S|) over n interchangeable elements.  ``table(p)`` calls
    ``prof`` once per size 0..p, only when the table is asked for, and
    ``_by_size`` places each size's value at the masks of that size.  The
    ground set itself is built up front, a tuple of n labels: about 0.1 s
    and a 131 MB peak RSS for the whole process at n = 3,000,000 (2 shared
    vCPUs, Python 3.11.7)."""

    def table(p: int) -> list:
        p = min(p, n)
        return _by_size(n, p, [prof(c) for c in range(p + 1)])

    return SetFunction(
        GroundSet.of_size(n),
        lambda mask: prof(mask.bit_count()),
        name=name,
        claims=claims,
        table=table,
    )


def cardinality_power(k: int, n: int) -> SetFunction:
    """f(S) = |S| ** k for k in 0..3; higher powers are refused by construction.

    Use ``raw_cardinality_profile`` to study what goes wrong for k >= 4.
    """
    if type(k) is not int:
        raise ValueError(f"cardinality_power k must be an integer, got {k!r}")
    if not 0 <= k <= 3:
        raise ValueError("cardinality_power allows only k in 0..3")
    claims = {NONNEGATIVE, MONOTONE, WEAKLY_SUBMODULAR}
    if k >= 1:
        claims.add(NORMALIZED)
    if k <= 1:
        claims.add(SUBMODULAR)
    return _count_only(n, cardinality_profile(k), f"card^{k}", claims)


def cardinality_polynomial(coeffs: Sequence[Value], n: int) -> SetFunction:
    """f(S) = p(|S|) for a polynomial with nonnegative coefficients, zero
    constant term, and degree at most 3."""
    coeffs = tuple(coeffs)
    if len(coeffs) > 4:
        raise ValueError("cardinality polynomials of degree >= 4 are refused")
    if coeffs and coeffs[0] != 0:
        raise ValueError("constant term must be zero (normalization)")
    if any(not c >= 0 for c in coeffs):
        raise ValueError("coefficients must be nonnegative")
    claims = {NORMALIZED, NONNEGATIVE, MONOTONE, WEAKLY_SUBMODULAR}
    if all(c == 0 for c in coeffs[2:]):
        claims.add(SUBMODULAR)
    return _count_only(n, cardinality_profile(coeffs), "card_poly", claims)


def raw_cardinality_profile(k_or_coeffs, n: int) -> SetFunction:
    """Unchecked cardinality-only function for counterexample studies; claims nothing."""
    return _count_only(n, cardinality_profile(k_or_coeffs), "card_profile", ())


def threshold(k: int, bonus: Value, n: int) -> SetFunction:
    """f(S) = bonus when |S| >= k, else 0.  Weak submodularity holds exactly
    for k <= 2; k >= 3 breaks on any universe of size >= k."""
    if type(k) is not int:
        raise ValueError(f"threshold k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("threshold requires k >= 1")
    if type(bonus) is bool:
        raise ValueError(f"threshold bonus must be a number, got {bonus!r}")
    if not bonus > 0:
        raise ValueError("threshold bonus must be positive")
    claims = {NORMALIZED, NONNEGATIVE, MONOTONE}
    if k <= 2:
        claims.add(WEAKLY_SUBMODULAR)
    if k == 1:
        claims.add(SUBMODULAR)
    zero = 0 * bonus  # matches the arithmetic type of bonus
    return _count_only(n, lambda m: bonus if m >= k else zero, f"threshold(k={k})", claims)


def linear_combination(fs: Sequence[SetFunction], alphas: Sequence[Value]) -> SetFunction:
    """g(S) = sum alpha_i * f_i(S).  Nonnegative combinations preserve every
    claim shared by all inputs.

    Its table sums ``alpha * value`` over the terms' tables in order with
    ``sum``, as the evaluator does, so any alpha keeps it equal to the
    evaluator.
    """
    fs = list(fs)
    alphas = list(alphas)
    if len(fs) != len(alphas):
        raise ValueError("one coefficient per function required")
    if not fs:
        raise ValueError("need at least one function")
    if any(not a >= 0 for a in alphas):
        raise ValueError("combination coefficients must be nonnegative")
    ground = fs[0].ground
    if any(f.ground != ground for f in fs):
        raise GroundSetMismatch("all combined functions must share a ground set")
    claims = frozenset.intersection(*(f.claims for f in fs))

    def ev(mask: int) -> Value:
        return sum(a * f.value(mask) for a, f in zip(alphas, fs))

    def table(p: int) -> list:
        terms = [map(mul, repeat(a), f.table(p)) for a, f in zip(alphas, fs)]
        return list(map(sum, zip(*terms)))

    return SetFunction(ground, ev, name="combination", claims=claims, table=table)


def msd_objective(quality: SetFunction, dist: DistanceMatrix) -> SetFunction:
    """Quality-plus-diversity objective: g(S) + sum of pairwise distances in S."""
    return linear_combination([quality, metric_dispersion(dist)], [1, 1])


def complement(f: SetFunction) -> SetFunction:
    """f_bar(S) = f(U - S).  Claims nothing; class membership is for the caller
    to check (it generally does not survive complementation)."""
    full = f.ground.full_mask
    return SetFunction(f.ground, lambda mask: f.value(full ^ mask), name=f"complement({f.name})")


def zero_at_top(f: SetFunction) -> SetFunction:
    """Identical to f except the full set maps to 0.

    Kills monotonicity whenever f is positive somewhere, yet the weak
    submodularity inequality survives: pairs that involve the full set either
    reduce to identities or only lose rhs mass.
    """
    full = f.ground.full_mask
    claims = f.claims & {NORMALIZED, NONNEGATIVE, WEAKLY_SUBMODULAR}

    def ev(mask: int) -> Value:
        return 0 if mask == full else f.value(mask)

    return SetFunction(f.ground, ev, name=f"zero_at_top({f.name})", claims=claims)


def max_cut(graph: Graph) -> SetFunction:
    """Total weight of edges crossing (S, V - S); an intentionally non-monotone
    fixture, so it claims only normalization and nonnegativity.

    Max-cut is pairwise-additive: adding e gains its edges to the outside
    and loses those to the set, so lin[e] is e's weighted degree and the
    pair term above[e][i] is -2 w(i, e), summed over parallel edges.  The
    rows are sparse, so building costs O(n + m).  ``_pairwise``'s table is
    offered when every weight is an int.  With a ``Fraction`` weight a
    table sum can end at ``Fraction(0)`` where the evaluator's sum is the
    int 0, so it then takes the generic table through ``value``.
    """
    edges = graph.edges

    def ev(mask: int) -> Value:
        return sum(w for (u, v, w) in edges if (mask >> u & 1) != (mask >> v & 1))

    degree = [0] * graph.n_vertices
    above = [_SparseRow() for _ in range(graph.n_vertices)]
    for u, v, w in edges:
        degree[u] += w
        degree[v] += w
        above[max(u, v)][min(u, v)] -= 2 * w
    exact = all(type(w) is int for _, _, w in edges)
    return _pairwise(ev, degree, above, exact, "max_cut", {NORMALIZED, NONNEGATIVE})


def star_counterexample(n: int) -> Graph:
    """The two-hub gadget: hub vertices s=n and t=n+1 each joined to all of
    0..n-1 by unit edges.  Cutting around the hubs breaks weak submodularity."""
    if n < 1:
        raise ValueError("gadget needs at least one spoke")
    s, t = n, n + 1
    edges = tuple((s, u, 1) for u in range(n)) + tuple((u, t, 1) for u in range(n))
    return Graph(n + 2, edges)


def supermodular_pair(bonus: Value) -> SetFunction:
    """On ground {a1, a2, b}: f(S) = bonus exactly when both a1 and a2 are in S.

    The smallest function with one supermodular dependency; it already fails
    weak submodularity.
    """
    if type(bonus) is bool:
        raise ValueError(f"bonus must be a number, got {bonus!r}")
    if not bonus > 0:
        raise ValueError("bonus must be positive")
    ground = GroundSet(("a1", "a2", "b"))
    zero = 0 * bonus
    return SetFunction(
        ground,
        lambda mask: bonus if mask & 0b011 == 0b011 else zero,
        name="supermodular_pair",
        claims={NORMALIZED, NONNEGATIVE, MONOTONE},
    )


@dataclass(frozen=True)
class WelfareInstance:
    """Agents with normalized valuation oracles over one shared item universe."""

    valuations: tuple[SetFunction, ...]

    def __post_init__(self):
        vals = tuple(self.valuations)
        object.__setattr__(self, "valuations", vals)
        if not vals:
            raise ValueError("need at least one agent")
        ground = vals[0].ground
        if any(v.ground != ground for v in vals):
            raise GroundSetMismatch("valuations must share the item universe")
        for i, v in enumerate(vals):
            if v.value(0) != 0:
                raise ValueError(f"valuation {i} is not normalized: v(empty) = {v.value(0)}")

    @property
    def items(self) -> GroundSet:
        return self.valuations[0].ground

    @property
    def n_agents(self) -> int:
        return len(self.valuations)


def welfare_reduction(instance: WelfareInstance):
    """Lift welfare maximization to one set function under a partition matroid.

    The lifted universe is (agent, item) pairs, agent-major; f'(S') sums each
    agent's valuation of its own slice, and each item contributes one block
    with capacity 1 (an item goes to at most one agent).

    The lifted function claims weak submodularity only when every valuation is
    monotone submodular: the per-agent slice of a submodular monotone
    valuation stays submodular and monotone on the lifted universe, and those
    two properties imply weak submodularity there.  Merely weakly submodular
    valuations do not survive the lift (valuations with zero singletons such
    as dispersion give immediate counterexamples).
    """
    items = instance.items
    n_agents = instance.n_agents
    m = items.n
    labels = tuple((a, u) for a in range(n_agents) for u in items.elements)
    lifted = GroundSet(labels)
    slice_mask = (1 << m) - 1

    def ev(mask: int) -> Value:
        return sum(
            v.value((mask >> (a * m)) & slice_mask) for a, v in enumerate(instance.valuations)
        )

    claims = {NORMALIZED, NONNEGATIVE}
    shared = frozenset.intersection(*(v.claims for v in instance.valuations))
    if MONOTONE in shared:
        claims.add(MONOTONE)
    if {MONOTONE, SUBMODULAR} <= shared:
        claims |= {SUBMODULAR, WEAKLY_SUBMODULAR}

    welfare = SetFunction(lifted, ev, name="welfare", claims=claims)
    blocks = [
        tuple((a, u) for a in range(n_agents)) for u in items.elements
    ]
    matroid = Matroid.partition(lifted, blocks, [1] * m)
    return welfare, matroid
