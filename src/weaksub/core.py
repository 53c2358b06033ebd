"""Ground sets, set-function oracles, and property checkers.

Subsets are bitmasks over a fixed element ordering, so exhaustive scans are
plain integer loops and witnesses are cheap to reconstruct.  All checkers
report a ``CheckReport``; a failed check carries a ``ViolationWitness`` whose
values can be recomputed bit-exactly from the oracle.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, product, repeat
from numbers import Rational
from operator import or_
from random import Random
from typing import Any, Callable, Hashable, Iterable

Value = Any  # int | Fraction | float; exact types propagate through arithmetic

# Property flags a builder may assert about its function.
NORMALIZED = "normalized"
NONNEGATIVE = "nonnegative"
MONOTONE = "monotone"
SUBMODULAR = "submodular"
WEAKLY_SUBMODULAR = "weakly_submodular"

ALL_CLAIMS = frozenset(
    {NORMALIZED, NONNEGATIVE, MONOTONE, SUBMODULAR, WEAKLY_SUBMODULAR}
)

RELATIVE_TOL = 1e-9


class PropertyKind(str, Enum):
    NORMALIZED_NONNEGATIVE = "normalized_nonnegative"
    MONOTONE = "monotone"
    SUBMODULAR = "submodular"
    WEAKLY_SUBMODULAR = "weakly_submodular"
    CARDINALITY_FAMILY = "cardinality_family"
    EXCHANGE_AXIOM = "exchange_axiom"


class GroundSetMismatch(ValueError):
    """A Subset was used with a function or matroid over a different ground set."""


class CapExceeded(ValueError):
    """An exhaustive enumeration would exceed its size cap."""


@dataclass(frozen=True)
class GroundSet:
    """An ordered universe of distinct, hashable element labels.

    The index order is fixed at construction; tie-breaking in solvers and the
    scan order of checkers depend on it.
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground set elements must be unique")

    @classmethod
    def of_size(cls, n: int) -> "GroundSet":
        """The labels 0..n-1, unique by construction, so no set of them is
        built to check it: at n = 10**6 that set doubled the peak memory.
        A negative n is refused."""
        if n < 0:
            raise ValueError(f"ground set size must be >= 0, got {n}")
        ground = object.__new__(cls)
        object.__setattr__(ground, "elements", tuple(range(n)))
        return ground

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: Hashable) -> int:
        i = self._index.get(label)  # True == 1 and False == 0 in the dict, but not here
        if i is None or isinstance(label, bool) != isinstance(self.elements[i], bool):
            raise KeyError(f"{label!r} is not a ground-set element")
        return i

    def label(self, i: int) -> Hashable:
        return self.elements[i]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.elements)!r})"


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set with bitmask membership."""

    ground: GroundSet
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.ground.full_mask:
            raise ValueError("membership mask refers to indices outside the ground set")

    @classmethod
    def empty(cls, ground: GroundSet) -> "Subset":
        return cls(ground, 0)

    @classmethod
    def full(cls, ground: GroundSet) -> "Subset":
        return cls(ground, ground.full_mask)

    @classmethod
    def from_indices(cls, ground: GroundSet, indices: Iterable[int]) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < ground.n:
                raise ValueError(f"index {i} outside ground set of size {ground.n}")
            mask |= 1 << i
        return cls(ground, mask)

    @classmethod
    def from_labels(cls, ground: GroundSet, labels: Iterable[Hashable]) -> "Subset":
        return cls.from_indices(ground, (ground.index(x) for x in labels))

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ground.n) if self.mask >> i & 1)

    def labels(self) -> tuple:
        return tuple(self.ground.elements[i] for i in self.indices())

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, label: Hashable) -> bool:
        """False for a label that is not a ground-set element (``GroundSet.index``)."""
        try:
            return self.mask >> self.ground.index(label) & 1 == 1
        except KeyError:
            return False

    def __iter__(self):
        return iter(self.labels())

    def _require_same_ground(self, other: "Subset") -> None:
        if self.ground != other.ground:
            raise GroundSetMismatch("subsets belong to different ground sets")

    def __or__(self, other: "Subset") -> "Subset":
        self._require_same_ground(other)
        return Subset(self.ground, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._require_same_ground(other)
        return Subset(self.ground, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._require_same_ground(other)
        return Subset(self.ground, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.ground, self.ground.full_mask & ~self.mask)

    def __le__(self, other: "Subset") -> bool:
        self._require_same_ground(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(x) for x in self.labels()) + "}"


class SetFunction:
    """A deterministic value oracle over subsets of a ground set.

    The evaluator receives a bitmask and must be pure; ``value`` memoizes
    its results in an unsynchronized dict.  ``claims`` records which
    properties the builder asserts.  Every function has a value table:
    ``table(p)`` returns the values of every mask of popcount <= p, in
    ascending mask order, each equal to ``value(mask)`` in value and type.
    The exhaustive checks read ``all_values()``, which is ``table(n)``, and
    brute force reads ``table(p)``.  Each call builds a new list, so no
    table is stored, and no table reads or writes the memo.

    ``table=``, when given, is the builder's own callable with that
    contract, stored as ``_table``.  Every table, the builder's and the
    generic one of ``table(p)``, is built by doubling in the order of
    ``_extenders``: the masks with largest element e are those below bit e
    of popcount < p, each plus e, and follow every mask below bit e.  A
    builder offers a table only when it equals the evaluator for every
    input: its sums run in the evaluator's order (linear, segmentation,
    coverage, combinations), or every input number is an int or a
    ``Fraction``, so the order cannot change a value.

    ``state=``, when given, is the builder's marginal state, and
    ``state(mask)`` returns it at S = mask.  A state has ``value``, f(S);
    ``plus(e)``, f(S + e) for e not in S; ``swap(u, v)``, f(S + u - v) for
    u not in S and v in S; and ``add(e)``, the state at S + e.  None of
    them calls the evaluator or reads the memo, and each value equals
    ``value`` at the set it names, in value and type.  A state adds and
    subtracts in another order than the evaluator, so a builder offers
    one only when every input number is an int: a float sum could change
    in its last bits, and a ``Fraction`` sum could end at ``Fraction(0)``
    where the evaluator's is the int 0.  Without one, ``state(mask)`` is
    the generic state, whose every read is ``value`` at the set it names
    and whose ``add`` reads nothing.
    """

    def __init__(
        self,
        ground: GroundSet,
        evaluator: Callable[[int], Value],
        *,
        name: str = "f",
        claims: Iterable[str] = (),
        table: Callable[[int], list[Value]] | None = None,
        state: Callable[[int], Any] | None = None,
    ):
        self.ground = ground
        self.name = name
        self.claims = frozenset(claims)
        if not self.claims <= ALL_CLAIMS:
            raise ValueError(f"unknown claims: {sorted(self.claims - ALL_CLAIMS)}")
        self._evaluator = evaluator
        self._table = table
        self._state = state
        self._cache: dict[int, Value] = {}

    def value(self, mask: int) -> Value:
        """Value at a bitmask subset (fast path used by checkers and solvers)."""
        v = self._cache.get(mask)
        if v is None:
            v = self._cache[mask] = self._evaluator(mask)
        return v

    def _require_ground(self, subset: Subset) -> None:
        if subset.ground != self.ground:
            raise GroundSetMismatch(
                f"subset over {subset.ground!r} passed to function over {self.ground!r}"
            )

    def evaluate(self, subset: Subset) -> Value:
        self._require_ground(subset)
        return self.value(subset.mask)

    def __call__(self, subset) -> Value:
        if not isinstance(subset, Subset):
            subset = Subset.from_labels(self.ground, subset)
        return self.evaluate(subset)

    def table(self, p: int) -> list[Value]:
        """Values of every mask of popcount <= p, in ascending mask order.

        The builder's ``table`` when it passed one: no evaluator call.
        Otherwise the masks of popcount <= p, built by doubling, each
        passed once to the evaluator.  Neither reads or writes the memo, so
        a second table evaluates every mask again.  Either way the list
        holds C(n, 0) + ... + C(n, p) values (2,449,868 at n = 22 and
        p = 11, and n + 1 at p = 1), and nothing of size 2**n is built
        when p < n.  A negative p is refused.
        """
        if p < 0:
            raise ValueError(f"table size bound must be >= 0, got {p}")
        if self._table is not None:
            return self._table(p)
        n = self.ground.n
        masks = _doubled(or_, 0, [1 << e for e in range(n)], _extenders(n, p))
        return list(map(self._evaluator, masks))

    def all_values(self) -> list[Value]:
        """Values for every subset, indexed by mask: ``table(n)``."""
        return self.table(self.ground.n)

    def state(self, mask: int):
        """The marginal state at ``mask``: the builder's, else the generic one."""
        if self._state is not None:
            return self._state(mask)
        return _ValueState(self, mask)

    def __repr__(self) -> str:
        return f"SetFunction({self.name!r}, n={self.ground.n})"


class _ValueState:
    """The generic marginal state at ``mask``: each read is ``f.value`` at
    the set it names, and ``add`` reads nothing."""

    __slots__ = ("f", "mask")

    def __init__(self, f: SetFunction, mask: int):
        self.f = f
        self.mask = mask

    @property
    def value(self) -> Value:
        return self.f.value(self.mask)

    def plus(self, e: int) -> Value:
        return self.f.value(self.mask | 1 << e)

    def swap(self, u: int, v: int) -> Value:
        return self.f.value(self.mask & ~(1 << v) | 1 << u)

    def add(self, e: int) -> "_ValueState":
        return _ValueState(self.f, self.mask | 1 << e)


def _by_size(n: int, p: int, at) -> list:
    """``at[|S|]`` for every mask S of popcount <= p on n bits, in ascending
    mask order (``at`` has p + 1 entries), by doubling with list copies.

    Cell q holds at[p - q + |S|] over the masks S of popcount <= q below
    bit m.  The masks below bit m + 1 are those below bit m, then those
    with bit m: each one of popcount <= q - 1 below bit m, plus m.  So
    adding bit m appends cell q - 1 to cell q, from q = p down, so that
    cell q - 1 still holds the masks below bit m.  Cell p is the result;
    a cell below p - (n - m) is not read again and stops growing.
    """
    cells = [[at[p - q]] for q in range(p + 1)]
    for m in range(n):
        for q in range(p, max(0, p - n + m), -1):
            cells[q] += cells[q - 1]
    return cells[p]


def _extenders(n: int, p: int):
    """The doubling selection of a table bounded by popcount p on n bits.

    Returns ``extending(table, e)``: of ``table``, the values of the masks
    below bit e of popcount <= p in ascending order, those whose masks take
    bit e under the bound (popcount < p).  While e < p that is the whole
    table and no selection runs.  From e = p on it is ``compress`` with one
    selector over the masks below bit n - 1; the masks below bit e are its
    first ones, and ``compress`` stops at the shorter input.  With p < 0
    nothing extends.
    """
    if p >= n:
        return lambda table, e: table
    keep = _by_size(n - 1, p, [True] * p + [False]) if p >= 0 else []
    return lambda table, e: table if e < p else compress(table, keep)


def _doubled(op, start, items, extending) -> list:
    """The table of ``start`` folded with ``op`` over each set's items in
    ascending order, by doubling under the selection ``extending`` (of
    ``_extenders``): the sets with largest element e take ``op(v, items[e])``
    for each value v that ``extending(table, e)`` selects.  Each new part
    is built whole before it is appended to the table it was read from."""
    table = [start]
    for e, x in enumerate(items):
        table += list(map(op, extending(table, e), repeat(x)))
    return table


def evaluate(f: SetFunction, subset: Subset) -> Value:
    """Evaluate ``f`` on ``subset``; errors if ground sets differ."""
    return f.evaluate(subset)


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete counterexample to a property check.

    For inequality-type violations, ``lhs < rhs`` and both sides are
    recomputable from the oracle.  Monotonicity witnesses carry the adjacent
    pair (S, T=S+{e}) with lhs=f(T), rhs=f(S).  Cardinality-family witnesses
    carry the integer ``triple`` (a, b, c) instead of subsets.  Exchange-axiom
    witnesses carry the offending pair with no values.
    """

    kind: PropertyKind
    S: Subset | None
    T: Subset | None
    lhs: Value | None
    rhs: Value | None
    triple: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class CheckReport:
    property: PropertyKind
    mode: str  # "exhaustive" | "sampled"
    pairs_checked: int
    passed: bool
    witness: ViolationWitness | None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.passed != (self.witness is None):
            raise ValueError("passed must hold exactly when no witness is present")


# Exhaustive-mode size caps; exceeding one raises, never silently samples.
PAIRWISE_CAP = 12  # all unordered {S, T} pairs: <= (4^n + 2^n)/2 checks
MONOTONE_CAP = 14  # adjacent pairs only: n * 2^(n-1) checks
SIGN_CAP = 20  # 2^n evaluations

# Each checker's exhaustive cap, by property name, and the scan its
# refusal names.
EXHAUSTIVE_CAPS = {
    "normalized_nonnegative": (SIGN_CAP, "sign"),
    "monotone": (MONOTONE_CAP, "monotone"),
    "submodular": (PAIRWISE_CAP, "pairwise"),
    "weakly_submodular": (PAIRWISE_CAP, "pairwise"),
}


def require_exhaustive_size(prop: str, n: int) -> None:
    """Raise the ``CapExceeded`` that the exhaustive check of ``prop`` (a
    ``CHECKERS`` name) raises on n elements, if it raises one."""
    cap, scan = EXHAUSTIVE_CAPS[prop]
    if n > cap:
        raise CapExceeded(f"exhaustive {scan} check capped at n <= {cap}")


def _is_exact(v: Value) -> bool:
    return isinstance(v, Rational)  # int and Fraction; floats fail


def violates(lhs: Value, rhs: Value) -> bool:
    """True when lhs < rhs by more than the arithmetic-aware tolerance.

    Exact values (int/Fraction) are compared with zero tolerance; floats get
    RELATIVE_TOL * max(1, |lhs|, |rhs|) of slack to absorb roundoff.  A NaN
    side always violates.
    """
    if lhs >= rhs:
        return False
    if _is_exact(lhs) and _is_exact(rhs):
        return True
    return not rhs - lhs <= RELATIVE_TOL * max(1, abs(lhs), abs(rhs))


def _require_mode(mode: str, samples, seed) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (samples is None or seed is None):
        raise ValueError("sampled mode needs explicit samples and seed")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs samples >= 1, got {samples}")


def _sampled(kind: PropertyKind, samples: int, seed: int, probes) -> CheckReport:
    """The ``"sampled"`` report of ``probes``, which yield a witness or None
    per probe: every probe up to the first witness is counted."""
    checked, w = 0, None
    for w in probes:
        checked += 1
        if w is not None:
            break
    return CheckReport(kind, "sampled", checked, w is None, w, samples=samples, seed=seed)


def _exact_table(values: list[Value]) -> list[int] | None:
    """``values`` scaled to ints by the lcm of their denominators.

    An all-int table is returned as is; a table holding any inexact value
    (a float) gives None.  The pairwise inequalities are homogeneous of
    degree 1 in f, so scaling by a positive constant keeps every exact
    comparison.
    """
    if set(map(type, values)) == {int}:
        return values
    if not all(_is_exact(v) for v in values):
        return None
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _pair_position(S: int, T: int, total: int) -> int:
    """1-based position of the pair (S, T), S <= T, in the row-major scan."""
    return S * total - S * (S - 1) // 2 + T - S + 1


def _adjacent_position(S: int, bit: int, n: int) -> int:
    """1-based position of the adjacent pair (S, S + bit) in the mask-major scan."""
    # Bit i is set in (S >> i + 1) << i of the masks below the last multiple
    # of 2**(i+1) under S, and in the part of the rest past 2**i.
    ones = sum(
        (S >> i + 1 << i) + max(0, (S & (2 << i) - 1) - (1 << i)) for i in range(S.bit_length())
    )
    return n * S - ones + (~S & (2 * bit - 1)).bit_count()


def check_normalized_nonnegative(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Check f(empty) = 0 and f(S) >= 0 on every tested subset.

    ``jobs`` is accepted for compatibility and ignored.
    """
    _require_mode(mode, samples, seed)
    n = f.ground.n
    kind = PropertyKind.NORMALIZED_NONNEGATIVE

    def witness(mask: int, v: Value) -> ViolationWitness | None:
        if mask == 0:
            # Normalization: f(empty) must equal 0; orient the witness so lhs < rhs.
            zero = 0 if _is_exact(v) else 0.0
            if violates(v, zero) or violates(zero, v):
                lo, hi = (v, zero) if v < zero else (zero, v)
                return ViolationWitness(kind, Subset(f.ground, 0), None, lo, hi)
            return None
        if violates(v, 0):
            return ViolationWitness(kind, Subset(f.ground, mask), None, v, 0)
        return None

    if mode == "exhaustive":
        require_exhaustive_size(kind, n)
        w = witness(0, f.value(0))  # a function that is not normalized fails on one read
        if w is not None:
            return CheckReport(kind, "exhaustive", 1, False, w)
        values = f.all_values()
        mask = next(compress(count(), map(violates, values, repeat(0))), None)
        if mask is None:
            return CheckReport(kind, "exhaustive", len(values), True, None)
        return CheckReport(kind, "exhaustive", mask + 1, False, witness(mask, values[mask]))

    def probes():
        yield witness(0, f.value(0))  # normalization is always part of the sampled check
        rng = Random(seed)
        for _ in range(samples):
            mask = rng.getrandbits(n)
            yield witness(mask, f.value(mask))

    return _sampled(kind, samples, seed, probes())


# Unsigned array codes by item size in bytes; the last code of a size wins.
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _lane_layout(table: list[int], span: int) -> tuple[int, int]:
    """(low, size): the minimum of ``table``, and the bytes of a guard-bit
    lane that holds ``span`` times the shifted range below its top bit."""
    low = min(table)
    return low, ((max(table) - low) * span).bit_length() // 8 + 1


def _packed(table: list[int], low: int, size: int) -> tuple[int, int]:
    """``table`` shifted by ``low``, packed into guard-bit lanes of ``size``
    bytes, as laid out by ``_lane_layout``.

    Returns (packed, guards).  Lane S is the 8 * size bits of ``packed``
    from bit 8 * size * S up and holds table[S] - low.  A sum of ``span``
    lanes stays below a lane's top bit, the guard, which ``guards`` sets in
    every lane.  So in (x + guards) - y, with x and y sums of ``span``
    lanes each, no lane borrows from the next, and lane S's guard is
    cleared exactly when x < y at S.  Lanes of 1, 2, 4 or 8 bytes are
    packed by ``array``, others by one ``to_bytes`` join.
    """
    shifted = [v - low for v in table] if low else table
    code = _ARRAY_CODES.get(size)
    if code is None:
        data = b"".join([v.to_bytes(size, "little") for v in shifted])
    else:
        items = array(code, shifted)
        if sys.byteorder == "big":
            items.byteswap()
        data = items.tobytes()
    guards = int.from_bytes((bytes(size - 1) + b"\x80") * len(table), "little")
    return int.from_bytes(data, "little"), guards


def _unpacked(packed: int, size: int, count: int, step: int = 1) -> list[int]:
    """Lanes 0, step, 2 step, ... of ``packed`` in ``size``-byte lanes,
    ``count`` of them: the inverse of ``_packed`` at low 0 when step is 1.
    Bits above the last lane read are ignored.  Lanes of 1, 2, 4 or 8
    bytes are read by ``array``, others one ``from_bytes`` each."""
    length = size * step * count
    data = packed.to_bytes(max(length, -(-packed.bit_length() // 8)), "little")[:length]
    code = _ARRAY_CODES.get(size)
    if code is None:
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, length, size * step)]
    items = array(code, data)[::step]
    if sys.byteorder == "big":
        items.byteswap()
    return items.tolist()


def _at_least(a: int, b: int, guards: int, width: int) -> int:
    """Every bit below the guard in the lanes where a >= b, of ``width``
    bits each, and no other bit.  Both sides' lanes stay below the guard
    bit that ``guards`` sets in every lane, so (a + guards) - b borrows
    from no lane and keeps a lane's guard exactly when a >= b there.  So
    a ^ (a ^ b) & mask is the lane-wise min, b ^ (a ^ b) & mask the max."""
    kept = ((a | guards) - b) & guards
    return kept - (kept >> width - 1)


def _lacking(mask: int, width: int, total: int):
    """(e, ``mask`` in the lanes whose set lacks bit e), e from high to low.

    ``mask`` is the same in each of the ``total`` lanes: the guards, or
    every bit of the lane.  The lanes below total / 2 lack the top bit.
    Those that lack bit e are the lanes lacking bit e + 1, xor the same
    moved up by 2**e lanes: in each run of 2**(e + 2) lanes that keeps the
    first and the third quarter, and the last lane moved, total - 1 - 2**e,
    is still a lane of the table.
    """
    n = total.bit_length() - 1
    lacks = mask & (1 << (width << n - 1)) - 1 if n else 0
    for e in range(n - 1, -1, -1):
        yield e, lacks
        if e:
            lacks ^= lacks << (width << e - 1)


def _first_monotone_violation(values: list[Value], n: int) -> tuple[int, int] | None:
    """First (S, bit) in mask-major order with violates(f(S + bit), f(S)).

    The scalar reference scan, and the path of tables that hold a float;
    exact tables take ``_first_monotone_violation_lanes``.  Each bit's
    pairs (S, S + bit) are compared as table slices: strided runs
    ``values[r::span]`` while bits are low, contiguous blocks once they
    are high.  The least (S, bit) found across the bits is the first in
    order.
    """
    total = len(values)
    best = None
    for e in range(n):
        bit = 1 << e
        span = 2 * bit
        first = None
        if bit * span <= total:  # at most as many runs as blocks
            for r in range(bit):
                hi = values[r + bit :: span]
                k = next(compress(count(), map(violates, hi, values[r::span])), None)
                if k is not None and (first is None or r + k * span < first):
                    first = r + k * span
        else:
            for base in range(0, total, span):
                hi = values[base + bit : base + span]
                k = next(compress(count(), map(violates, hi, values[base : base + bit])), None)
                if k is not None:
                    first = base + k
                    break
        if first is not None and (best is None or first < best[0]):
            best = first, bit
    return best


def _first_monotone_violation_lanes(table: list[int]) -> tuple[int, int] | None:
    """First (S, bit) in mask-major order with table[S + bit] < table[S],
    for an int table.

    The table is packed once by ``_packed`` (span 1).  Shifting the packed
    int down by ``bit`` lanes puts table[S + bit] in lane S, so one guarded
    subtraction of the packed table from it tests every S at once; only
    the guards of the lanes whose S lacks ``bit`` are read, and the lowest
    cleared one is the bit's first S.  Over the bits, the least S wins and
    a lower bit wins a tie on S, which is the mask-major order.  Every
    exact table takes this pass, in lanes of any width, as in the pair
    kernel; tables that hold a float take ``_first_monotone_violation``.
    """
    total = len(table)
    low, size = _lane_layout(table, 1)
    packed, guards = _packed(table, low, size)
    width = 8 * size
    lifted = guards - packed
    best = None
    for e, lacks in _lacking(guards, width, total):
        diff = (packed >> (width << e)) + lifted
        bad = lacks ^ diff & lacks  # the cleared guards
        if bad:
            S = ((bad & -bad).bit_length() - 1) // width
            if best is None or S <= best[0]:  # bits come high to low
                best = S, 1 << e
    return best


def check_monotone(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Check f(S) <= f(S + {e}) on adjacent pairs.

    Adjacent pairs suffice for full monotonicity by transitivity, turning a
    4^n scan into n * 2^(n-1) checks.  The exhaustive scan reads the full
    value table.  Exact tables (ints, and Fractions scaled to ints) are
    packed into guard-bit lanes, one guarded subtraction per bit
    (``_first_monotone_violation_lanes``); tables that hold a float take
    the scalar slice scan with ``violates`` (``_first_monotone_violation``).
    Both report the first (S, S + {e}) in mask-major order, e ascending.
    ``jobs`` is accepted for compatibility and ignored.
    """
    _require_mode(mode, samples, seed)
    n = f.ground.n
    kind = PropertyKind.MONOTONE

    def witness(S: int, bigger: int, lo: Value, hi: Value) -> ViolationWitness:
        return ViolationWitness(kind, Subset(f.ground, S), Subset(f.ground, bigger), lo, hi)

    if mode == "exhaustive":
        require_exhaustive_size(kind, n)
        values = f.all_values()
        table = _exact_table(values)
        if table is None:
            hit = _first_monotone_violation(values, n)
        else:
            hit = _first_monotone_violation_lanes(table)
        if hit is None:
            return CheckReport(kind, "exhaustive", n * len(values) // 2, True, None)
        S, bit = hit
        w = witness(S, S | bit, values[S | bit], values[S])
        return CheckReport(kind, "exhaustive", _adjacent_position(S, bit, n), False, w)

    def probes():
        rng = Random(seed)
        full = f.ground.full_mask
        for _ in range(samples if n else 0):  # n = 0 has no adjacent pair to probe
            mask = rng.getrandbits(n)
            while mask == full:
                mask = rng.getrandbits(n)
            # The elements outside mask, ascending, read off one string of
            # its complement's bits, lowest first: O(n), where a shift of
            # the n-bit mask per element would be O(n) each.
            e = rng.choice([i for i, bit in enumerate(bin(full ^ mask)[:1:-1]) if bit == "1"])
            bigger = mask | (1 << e)
            lo, hi = f.value(bigger), f.value(mask)
            yield witness(mask, bigger, lo, hi) if violates(lo, hi) else None

    return _sampled(kind, samples, seed, probes())


def _first_pair_violation_scalar(values: list[Value], sides) -> tuple[int, int] | None:
    """Reference scan: the first (S, T), T >= S, with ``violates(*sides(...))``.

    Unordered pairs {S, T} in lexicographic bitmask order (T >= S); the
    definitions are symmetric so half the square suffices.  Float tables use
    this path; the exact lane kernel must agree with it pair for pair.
    """
    value = values.__getitem__
    total = len(values)
    for S in range(total):
        for T in range(S, total):
            if violates(*sides(value, S, T)):
                return S, T
    return None


def _first_pair_violation_lanes(table: list[int], weighted: bool) -> tuple[int, int] | None:
    """The first (S, T), T >= S, in the scalar scan's order where an int table
    breaks weak submodularity (``weighted``) or submodularity.

    Row S holds every T at once: one int of W-bit lanes, one lane per set.
    The table is packed once by ``_packed``, shifted by its minimum, in
    lanes laid out by ``_lane_layout`` for the largest side: two lanes
    (submodular), or lanes weighted by at most 2n in all (weak).  The shift
    adds the same amount to both sides, c (|S| + |T|) for the weak
    inequality because |S & T| + |S | T| = |S| + |T|, and 2c for the
    submodular one.  So, as ``_packed`` describes, lane T's guard in
    (lhs + guards) - rhs is cleared exactly when lhs < rhs at (S, T).  Both
    inequalities are symmetric in S and T, so a cleared guard in a lane
    below S would have ended the scan at that row: the lowest cleared guard
    of the first row with one is the scalar scan's first pair.

    A row needs no lane below the sets that share S's leading run of top
    bits: every T >= S has them, and so do S | T and S & T.  Rows are taken
    in blocks by that run, so half of them use half-length ints, a quarter
    quarter-length ones, and so on (about 2/3 of the full-length work).  A
    block's table, guards and weights are the packed ints shifted down to
    its first lane, and ``_lacking`` gives its lanes with and without each
    low bit.

    X[T] = f(S | T) and Y[T] = f(S & T) come from the block's table by one
    lane copy per low bit b: X takes lane T | b into lane T when b is in S,
    Y takes lane T - b into lane T when it is not.  The block's rows are
    the leaves of a bit tree over its low bits, walked depth first from the
    high bit down, bit-clear child first, so rows come in ascending S.  A
    node holds the copies of the bits decided above it and an edge applies
    one more: to X when the bit enters S, to Y when it does not (bit k - 1,
    which no row of the block has, is the first Y copy).  Row S starts from
    the node above its lowest set bit, which row S - 1 shares, so the walk
    takes about two edges per row.

    The weak inequality also weighs each lane: |S & T| is n - k plus the
    low bits of S in T, and |S | T| is |S| plus the low bits outside S in T.
    The walk carries WX = (n - k) X + sum over b in S of X & holds[b] and
    WY = |S| Y + sum over b not in S of Y & holds[b], with |S| counting the
    bits decided so far.  A copy is linear (an OR of disjoint lanes) and
    keeps every other bit of the lane index, so copy(Z) & holds[b] =
    copy(Z & holds[b]) for every other bit b: on an edge, WX or WY takes
    the same copy as X or Y plus the new bit's term, and an X edge adds Y
    to WY.  A row's rhs is WX + WY (X + Y unweighted).  That is about 21
    big-int operations per row weighted and 12 unweighted, against about
    5k and 3k when each row is copied from the table bit by bit.
    """
    total = len(table)
    n = total.bit_length() - 1
    low, size = _lane_layout(table, 2 * n if weighted else 2)
    width = 8 * size
    packed, all_guards = _packed(table, low, size)
    if weighted:
        counts, _ = _packed(list(map(int.bit_count, range(total))), 0, size)
    for k in range(n, -1, -1):
        # Rows S from ``start`` to ``stop`` hold the n - k top bits and not
        # bit k - 1.  They read only the last 2**k sets, set start + i in
        # lane i, which differ in the k low bits alone.
        start, stop = total - (1 << k), total - (1 << k) // 2
        tab, guards = packed >> width * start, all_guards >> width * start
        ones = (1 << (width << k)) - 1
        lacks = dict(_lacking(ones, width, 1 << k))
        holds = {b: ones ^ m for b, m in lacks.items()}
        shifts = [width << b for b in range(k)]
        if weighted:
            coef = counts >> width * start
            lifted = [c * tab + guards for c in range(n + 1)]
        else:
            coef = guards >> width - 1
            lifted = [tab + guards] * (n + 1)
        # Level b of the walk: X, Y, WX, WY once bits k - 1 .. b of the row
        # are decided.  Level k is the root, level 0 the row.
        X, Y = [tab] * (k + 1), [tab] * (k + 1)
        WX = [(n - k) * tab] * (k + 1)
        WY = WX.copy()
        for S in range(start, stop):
            if S == start:
                top = k
            else:  # S sets bit ``top`` and clears the bits below it
                top = ((S - start) & (start - S)).bit_length() - 1
                part = X[top + 1] & holds[top]
                X[top], Y[top] = part | part >> shifts[top], Y[top + 1]
                if weighted:
                    part2 = WX[top + 1] & holds[top]
                    WX[top] = (part2 + part) | part2 >> shifts[top]
                    WY[top] = WY[top + 1] + Y[top + 1]
            for b in range(top - 1, -1, -1):
                part = Y[b + 1] & lacks[b]
                X[b], Y[b] = X[b + 1], part | part << shifts[b]
                if weighted:
                    part2 = WY[b + 1] & lacks[b]
                    WX[b], WY[b] = WX[b + 1], part2 | (part2 + part) << shifts[b]
            rhs = WX[0] + WY[0] if weighted else X[0] + Y[0]
            diff = coef * (table[S] - low) + lifted[S.bit_count()] - rhs
            if diff & guards != guards:
                bad = guards ^ diff & guards
                return S, start + ((bad & -bad).bit_length() - 1) // width
    return None


def _check_pairwise(
    f: SetFunction,
    kind: PropertyKind,
    sides,  # (value, S, T) -> (lhs, rhs)
    weighted: bool,  # weak submodularity's weights in the lane kernel
    mode: str,
    samples: int | None,
    seed: int | None,
) -> CheckReport:
    """Exhaustive or sampled scan of one symmetric pairwise inequality.

    The exhaustive scan reads the full value table.  Exact tables (ints and
    Fractions, scaled to ints) go through the lane kernel
    (``_first_pair_violation_lanes``), which walks each block's rows as a
    bit tree and takes every row's lanes from its parent's in one copy;
    float tables go through the scalar scan with ``violates``.  Both report
    the first violating pair of the row-major scan over T >= S.
    """
    _require_mode(mode, samples, seed)
    n = f.ground.n

    def witness(S: int, T: int, lhs: Value, rhs: Value) -> ViolationWitness:
        return ViolationWitness(kind, Subset(f.ground, S), Subset(f.ground, T), lhs, rhs)

    if mode == "exhaustive":
        require_exhaustive_size(kind, n)
        values = f.all_values()
        total = len(values)
        table = _exact_table(values)
        if table is None:
            hit = _first_pair_violation_scalar(values, sides)
        else:
            hit = _first_pair_violation_lanes(table, weighted)
        if hit is None:
            return CheckReport(kind, "exhaustive", total * (total + 1) // 2, True, None)
        S, T = hit
        # Witness sides come from the original values, keeping their types.
        w = witness(S, T, *sides(values.__getitem__, S, T))
        return CheckReport(kind, "exhaustive", _pair_position(S, T, total), False, w)

    def probes():
        rng = Random(seed)
        for _ in range(samples):
            S, T = rng.getrandbits(n), rng.getrandbits(n)
            lhs, rhs = sides(f.value, S, T)
            yield witness(S, T, lhs, rhs) if violates(lhs, rhs) else None

    return _sampled(kind, samples, seed, probes())


def _submodular_sides(value, S: int, T: int) -> tuple[Value, Value]:
    return value(S) + value(T), value(S | T) + value(S & T)


def check_submodular(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Check f(S) + f(T) >= f(S | T) + f(S & T) on all tested pairs.

    In an exhaustive check, exact tables (ints, and Fractions scaled to
    ints) take the pair lane kernel and tables that hold a float the
    scalar pair scan (see ``_check_pairwise``); both report the scan's
    first violating pair.  So a passing float table pays the whole scan in
    Python: a passing float-weight coverage function took 0.08, 0.30 and
    0.88 s at n = 9, 10 and 11.  ``jobs`` is accepted for compatibility
    and ignored.
    """
    return _check_pairwise(
        f, PropertyKind.SUBMODULAR, _submodular_sides, False, mode, samples, seed
    )


def _weak_sides(value, S: int, T: int) -> tuple[Value, Value]:
    """The sides (lhs, rhs) of the weak-submodularity inequality at (S, T).

    With A = S-T, B = T-S and C = S&T of sizes a, b and c, the marginal
    f_C(X) = f(X | C) - f(C) and I = f(A | B | C) - f(A | C) - f(B | C) + f(C),
    every set function has lhs - rhs = b f_C(A) + a f_C(B) - c I.  So nested
    pairs (a = 0 or b = 0) have slack 0, disjoint pairs have slack
    b (f(A) - f(0)) + a (f(B) - f(0)), and with f = g(|.|) the identity is the
    count-only form that ``check_cardinality_family`` scans.
    """
    union, inter = S | T, S & T
    lhs = T.bit_count() * value(S) + S.bit_count() * value(T)
    rhs = inter.bit_count() * value(union) + union.bit_count() * value(inter)
    return lhs, rhs


def check_weakly_submodular(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Check the cardinality-normalized relaxation of submodularity.

    On every tested pair:

        |T| f(S) + |S| f(T) >= |S & T| f(S | T) + |S | T| f(S & T)

    Equal and nested pairs are scanned too (they hold trivially).  ``jobs``
    is accepted for compatibility and ignored.
    """
    return _check_pairwise(
        f, PropertyKind.WEAKLY_SUBMODULAR, _weak_sides, True, mode, samples, seed
    )


def weak_submodularity_sides(f: SetFunction, S: Subset, T: Subset) -> tuple[Value, Value]:
    """The two sides (lhs, rhs) of the defining inequality at a specific pair."""
    S._require_same_ground(T)
    f._require_ground(S)
    return _weak_sides(f.value, S.mask, T.mask)


def cardinality_profile(k_or_coeffs) -> Callable[[int], Value]:
    """Scalar profile m -> value from a power k, coefficient list, or callable."""
    if callable(k_or_coeffs):
        return k_or_coeffs
    if isinstance(k_or_coeffs, int):
        k = k_or_coeffs
        return lambda m: m**k
    coeffs = list(k_or_coeffs)
    return lambda m: sum(c * m**j for j, c in enumerate(coeffs))


def check_cardinality_family(
    k_or_coeffs,
    a_max: int,
    b_max: int,
    c_max: int,
) -> CheckReport:
    """Check the weak-submodularity inequality for f(S) = g(|S|), with g
    from ``cardinality_profile(k_or_coeffs)``.

    Both sides depend on (S, T) only through a = |S-T|, b = |T-S| and
    c = |S&T|, so one pair per triple decides every pair.  The triples with
    a <= a_max, b <= b_max and c <= c_max are scanned in lexicographic order,
    each by ``_weak_sides`` at its canonical pair of lowest indices:
    S-T = {0..a-1}, S&T = {a..a+c-1} and T-S = {a+c..a+b+c-1}.  A witness
    carries its ``triple`` instead of subsets.
    """
    if min(a_max, b_max, c_max) < 1:
        raise ValueError("triple bounds must be >= 1")
    prof = cardinality_profile(k_or_coeffs)

    def value(mask: int) -> Value:
        return prof(mask.bit_count())

    kind = PropertyKind.CARDINALITY_FAMILY
    triples = product(range(a_max + 1), range(b_max + 1), range(c_max + 1))
    for checked, (a, b, c) in enumerate(triples, 1):
        lhs, rhs = _weak_sides(value, (1 << a + c) - 1, (1 << b + c) - 1 << a)
        if violates(lhs, rhs):
            w = ViolationWitness(kind, None, None, lhs, rhs, triple=(a, b, c))
            return CheckReport(kind, "exhaustive", checked, False, w)
    return CheckReport(kind, "exhaustive", checked, True, None)


CHECKERS = {
    "normalized_nonnegative": check_normalized_nonnegative,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "weakly_submodular": check_weakly_submodular,
}
