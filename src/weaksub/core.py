"""Ground sets, set-function oracles, and property checkers.

Subsets are bitmasks over a fixed element ordering, so exhaustive scans are
plain integer loops and witnesses are cheap to reconstruct.  All checkers
report a ``CheckReport``; a failed check carries a ``ViolationWitness`` whose
values can be recomputed bit-exactly from the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from operator import lt
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
    """An exhaustive enumeration would exceed its configured size cap."""


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
        return cls(tuple(range(n)))

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{label!r} is not a ground-set element") from None

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
        return self.mask >> self.ground.index(label) & 1 == 1

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

    The evaluator receives a bitmask and must be pure; results are memoized
    in an unsynchronized dict.  ``claims`` records which properties the
    builder asserts.
    """

    def __init__(
        self,
        ground: GroundSet,
        evaluator: Callable[[int], Value],
        *,
        name: str = "f",
        claims: Iterable[str] = (),
    ):
        self.ground = ground
        self.name = name
        self.claims = frozenset(claims)
        if not self.claims <= ALL_CLAIMS:
            raise ValueError(f"unknown claims: {sorted(self.claims - ALL_CLAIMS)}")
        self._evaluator = evaluator
        self._cache: dict[int, Value] = {}

    def value(self, mask: int) -> Value:
        """Value at a bitmask subset (fast path used by checkers and solvers)."""
        v = self._cache.get(mask)
        if v is None:
            v = self._cache[mask] = self._evaluator(mask)
        return v

    def evaluate(self, subset: Subset) -> Value:
        if subset.ground != self.ground:
            raise GroundSetMismatch(
                f"subset over {subset.ground!r} passed to function over {self.ground!r}"
            )
        return self.value(subset.mask)

    def __call__(self, subset) -> Value:
        if not isinstance(subset, Subset):
            subset = Subset.from_labels(self.ground, subset)
        return self.evaluate(subset)

    def all_values(self) -> list[Value]:
        """Values for every subset, indexed by mask (2**n evaluations)."""
        return [self.value(m) for m in range(self.ground.full_mask + 1)]

    def __repr__(self) -> str:
        return f"SetFunction({self.name!r}, n={self.ground.n})"


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


@dataclass(frozen=True)
class CheckerLimits:
    """Exhaustive-mode size caps; exceeding one raises, never silently samples."""

    pairwise: int = 12  # all unordered {S, T} pairs: <= (4^n + 2^n)/2 checks
    monotone: int = 14  # adjacent pairs only: n * 2^(n-1) checks
    sign: int = 20  # 2^n evaluations


DEFAULT_LIMITS = CheckerLimits()


def _is_exact(v: Value) -> bool:
    return isinstance(v, Rational)  # int and Fraction; floats fail


def violates(lhs: Value, rhs: Value) -> bool:
    """True when lhs < rhs by more than the arithmetic-aware tolerance.

    Exact values (int/Fraction) are compared with zero tolerance; floats get
    RELATIVE_TOL * max(1, |lhs|, |rhs|) of slack to absorb roundoff.
    """
    if lhs >= rhs:
        return False
    if _is_exact(lhs) and _is_exact(rhs):
        return True
    return rhs - lhs > RELATIVE_TOL * max(1, abs(lhs), abs(rhs))


def _require_mode(mode: str, samples, seed) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (samples is None or seed is None):
        raise ValueError("sampled mode needs explicit samples and seed")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs samples >= 1, got {samples}")


def _exact_table(values: list[Value]) -> list[int] | None:
    """``values`` scaled to ints by the lcm of their denominators.

    An all-int table is returned as is; a table holding any inexact value
    (a float) gives None.  The pairwise inequalities are homogeneous of
    degree 1 in f, so scaling by a positive constant keeps every exact
    comparison.
    """
    if all(type(v) is int for v in values):
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
    before = n * S - sum(m.bit_count() for m in range(S))
    return before + (~S & (2 * bit - 1)).bit_count()


def check_normalized_nonnegative(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    limits: CheckerLimits = DEFAULT_LIMITS,
    jobs: int = 1,
) -> CheckReport:
    """Check f(empty) = 0 and f(S) >= 0 on every tested subset.

    ``jobs`` is accepted for compatibility and ignored.
    """
    _require_mode(mode, samples, seed)
    n = f.ground.n
    kind = PropertyKind.NORMALIZED_NONNEGATIVE

    def witness_for(mask: int) -> ViolationWitness | None:
        v = f.value(mask)
        if mask == 0:
            # Normalization: f(empty) must equal 0; orient the witness so lhs < rhs.
            zero = 0 if _is_exact(v) else 0.0
            if violates(v, zero) or violates(zero, v):
                lo, hi = (v, zero) if v < zero else (zero, v)
                return ViolationWitness(kind, Subset(f.ground, 0), None, lo, hi)
            return None
        if violates(v, 0 if _is_exact(v) else 0.0):
            return ViolationWitness(kind, Subset(f.ground, mask), None, v, 0)
        return None

    if mode == "exhaustive":
        if n > limits.sign:
            raise CapExceeded(f"exhaustive sign check capped at n <= {limits.sign}")
        # Each mask is read once, so a failing scan stops without filling 2^n values.
        for mask in range(1 << n):
            w = witness_for(mask)
            if w is not None:
                return CheckReport(kind, "exhaustive", mask + 1, False, w)
        return CheckReport(kind, "exhaustive", 1 << n, True, None)

    rng = Random(seed)
    w = witness_for(0)  # normalization is always part of the sampled check
    checked = 1
    if w is None:
        for _ in range(samples):
            checked += 1
            w = witness_for(rng.getrandbits(n))
            if w is not None:
                break
    return CheckReport(kind, "sampled", checked, w is None, w, samples=samples, seed=seed)


def _first_monotone_violation(values: list[Value], n: int, less) -> tuple[int, int] | None:
    """First (S, bit) in mask-major order with less(f(S + bit), f(S))."""
    bits = [1 << e for e in range(n)]
    for S, fS in enumerate(values):
        for bit in bits:
            if not S & bit and less(values[S | bit], fS):
                return S, bit
    return None


def check_monotone(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    limits: CheckerLimits = DEFAULT_LIMITS,
    jobs: int = 1,
) -> CheckReport:
    """Check f(S) <= f(S + {e}) on adjacent pairs.

    Adjacent pairs suffice for full monotonicity by transitivity, turning a
    4^n scan into n * 2^(n-1) checks.  The exhaustive scan reads the full
    value table; exact tables compare with ``<``, others with ``violates``.
    ``jobs`` is accepted for compatibility and ignored.
    """
    _require_mode(mode, samples, seed)
    n = f.ground.n
    kind = PropertyKind.MONOTONE

    def witness(S: int, bigger: int, lo: Value, hi: Value) -> ViolationWitness:
        return ViolationWitness(kind, Subset(f.ground, S), Subset(f.ground, bigger), lo, hi)

    if mode == "exhaustive":
        if n > limits.monotone:
            raise CapExceeded(f"exhaustive monotone check capped at n <= {limits.monotone}")
        values = f.all_values()
        less = lt if all(_is_exact(v) for v in values) else violates
        hit = _first_monotone_violation(values, n, less)
        if hit is None:
            return CheckReport(kind, "exhaustive", n * len(values) // 2, True, None)
        S, bit = hit
        w = witness(S, S | bit, values[S | bit], values[S])
        return CheckReport(kind, "exhaustive", _adjacent_position(S, bit, n), False, w)

    rng = Random(seed)
    full = f.ground.full_mask
    w = None
    checked = 0
    for _ in range(samples):
        mask = rng.getrandbits(n)
        while mask == full:
            mask = rng.getrandbits(n)
        e = rng.choice([i for i in range(n) if not mask >> i & 1])
        checked += 1
        bigger = mask | (1 << e)
        lo, hi = f.value(bigger), f.value(mask)
        if violates(lo, hi):
            w = witness(mask, bigger, lo, hi)
            break
    return CheckReport(kind, "sampled", checked, w is None, w, samples=samples, seed=seed)


def _first_pair_violation_scalar(values: list[Value], sides) -> tuple[int, int] | None:
    """Reference scan: the first (S, T), T >= S, with ``violates(*sides(...))``.

    Unordered pairs {S, T} in lexicographic bitmask order (T >= S); the
    definitions are symmetric so half the square suffices.  Float tables use
    this path; the exact kernels must agree with it pair for pair.
    """
    value = values.__getitem__
    total = len(values)
    for S in range(total):
        for T in range(S, total):
            if violates(*sides(value, S, T)):
                return S, T
    return None


def _check_pairwise(
    f: SetFunction,
    kind: PropertyKind,
    sides,  # (value, S, T) -> (lhs, rhs)
    kernel,  # int table -> first violating (S, T) | None
    mode: str,
    samples: int | None,
    seed: int | None,
    limits: CheckerLimits,
) -> CheckReport:
    _require_mode(mode, samples, seed)
    n = f.ground.n

    def witness(S: int, T: int, lhs: Value, rhs: Value) -> ViolationWitness:
        return ViolationWitness(kind, Subset(f.ground, S), Subset(f.ground, T), lhs, rhs)

    if mode == "exhaustive":
        if n > limits.pairwise:
            raise CapExceeded(f"exhaustive pairwise check capped at n <= {limits.pairwise}")
        values = f.all_values()
        total = len(values)
        table = _exact_table(values)
        if table is None:
            hit = _first_pair_violation_scalar(values, sides)
        else:
            hit = kernel(table)
        if hit is None:
            return CheckReport(kind, "exhaustive", total * (total + 1) // 2, True, None)
        S, T = hit
        # Witness sides come from the original values, keeping their types.
        w = witness(S, T, *sides(values.__getitem__, S, T))
        return CheckReport(kind, "exhaustive", _pair_position(S, T, total), False, w)

    rng = Random(seed)
    value = f.value
    w = None
    checked = 0
    for _ in range(samples):
        S = rng.getrandbits(n)
        T = rng.getrandbits(n)
        checked += 1
        lhs, rhs = sides(value, S, T)
        if violates(lhs, rhs):
            w = witness(S, T, lhs, rhs)
            break
    return CheckReport(kind, "sampled", checked, w is None, w, samples=samples, seed=seed)


def _submodular_sides(value, S: int, T: int) -> tuple[Value, Value]:
    return value(S) + value(T), value(S | T) + value(S & T)


def _submodular_kernel(table: list[int]) -> tuple[int, int] | None:
    total = len(table)
    for S in range(total):
        fS = table[S]
        for T in range(S, total):
            if fS + table[T] < table[S | T] + table[S & T]:
                return S, T
    return None


def check_submodular(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    limits: CheckerLimits = DEFAULT_LIMITS,
    jobs: int = 1,
) -> CheckReport:
    """Check f(S) + f(T) >= f(S | T) + f(S & T) on all tested pairs.

    ``jobs`` is accepted for compatibility and ignored.
    """
    return _check_pairwise(
        f, PropertyKind.SUBMODULAR, _submodular_sides, _submodular_kernel,
        mode, samples, seed, limits,
    )


def _weak_sides(value, S: int, T: int) -> tuple[Value, Value]:
    union, inter = S | T, S & T
    lhs = T.bit_count() * value(S) + S.bit_count() * value(T)
    rhs = inter.bit_count() * value(union) + union.bit_count() * value(inter)
    return lhs, rhs


def _weak_kernel(table: list[int]) -> tuple[int, int] | None:
    total = len(table)
    pc = [m.bit_count() for m in range(total)]
    for S in range(total):
        fS, cS = table[S], pc[S]
        for T in range(S, total):
            U, I = S | T, S & T
            if pc[T] * fS + cS * table[T] < pc[I] * table[U] + pc[U] * table[I]:
                return S, T
    return None


def check_weakly_submodular(
    f: SetFunction,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    limits: CheckerLimits = DEFAULT_LIMITS,
    jobs: int = 1,
) -> CheckReport:
    """Check the cardinality-normalized relaxation of submodularity.

    On every tested pair:

        |T| f(S) + |S| f(T) >= |S & T| f(S | T) + |S | T| f(S & T)

    Equal and nested pairs are scanned too (they hold trivially).  ``jobs``
    is accepted for compatibility and ignored.
    """
    return _check_pairwise(
        f, PropertyKind.WEAKLY_SUBMODULAR, _weak_sides, _weak_kernel,
        mode, samples, seed, limits,
    )


def weak_submodularity_sides(f: SetFunction, S: Subset, T: Subset) -> tuple[Value, Value]:
    """The two sides (lhs, rhs) of the defining inequality at a specific pair."""
    union, inter = S | T, S & T
    lhs = len(T) * f.evaluate(S) + len(S) * f.evaluate(T)
    rhs = len(inter) * f.evaluate(union) + len(union) * f.evaluate(inter)
    return lhs, rhs


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
    """Check the weak-submodularity inequality for cardinality-only functions.

    For f depending only on |S|, writing a = |S-T|, b = |T-S|, c = |S&T|,
    the pair inequality reduces to

        (b+c) f(a+c) + (a+c) f(b+c) >= c f(a+b+c) + (a+b+c) f(c)

    scanned over 0 <= a <= a_max, 0 <= b <= b_max, 0 <= c <= c_max in
    lexicographic order.
    """
    if min(a_max, b_max, c_max) < 1:
        raise ValueError("triple bounds must be >= 1")
    prof = cardinality_profile(k_or_coeffs)
    checked = 0
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            for c in range(c_max + 1):
                checked += 1
                lhs = (b + c) * prof(a + c) + (a + c) * prof(b + c)
                rhs = c * prof(a + b + c) + (a + b + c) * prof(c)
                if violates(lhs, rhs):
                    witness = ViolationWitness(
                        PropertyKind.CARDINALITY_FAMILY, None, None, lhs, rhs, triple=(a, b, c)
                    )
                    return CheckReport(
                        PropertyKind.CARDINALITY_FAMILY, "exhaustive", checked, False, witness
                    )
    return CheckReport(PropertyKind.CARDINALITY_FAMILY, "exhaustive", checked, True, None)


CHECKERS = {
    "normalized_nonnegative": check_normalized_nonnegative,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "weakly_submodular": check_weakly_submodular,
}
