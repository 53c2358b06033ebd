"""Independence oracles and basis-exchange machinery.

Three flavors share one interface: uniform (a cardinality cap), partition
(per-block caps), and explicit (a stored family of independent bitmasks).
Explicit families of up to 14 elements are validated against the matroid
axioms at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Hashable, Iterable, Sequence

from .core import (
    CapExceeded,
    CheckReport,
    GroundSet,
    GroundSetMismatch,
    PropertyKind,
    Subset,
    ViolationWitness,
)

EXPLICIT_STORAGE_CAP = 20
AXIOM_VALIDATION_CAP = 14
BRUTE_FORCE_MATROID_CAP = 18


class Matroid:
    """An independence oracle over a ground set, with rank and basis helpers."""

    def __init__(self, ground: GroundSet, kind: str, data, rank: int):
        self.ground = ground
        self.kind = kind
        self._data = data
        self.rank = rank

    @classmethod
    def uniform(cls, ground: GroundSet, s: int) -> "Matroid":
        if type(s) is not int:
            raise ValueError(f"uniform rank must be an integer, got {s!r}")
        if not 0 <= s <= ground.n:
            raise ValueError(f"uniform rank must be in 0..{ground.n}")
        return cls(ground, "uniform", s, s)

    @classmethod
    def partition(
        cls,
        ground: GroundSet,
        blocks: Sequence[Iterable[Hashable]],
        caps: Sequence[int],
    ) -> "Matroid":
        if len(blocks) != len(caps):
            raise ValueError("one cap per block required")
        if any(type(c) is not int for c in caps):
            raise ValueError(f"caps must be integers, got {list(caps)!r}")
        block_masks = []
        seen = 0
        for block in blocks:
            mask = Subset.from_labels(ground, block).mask
            if mask & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= mask
            block_masks.append(mask)
        if seen != ground.full_mask:
            raise ValueError("partition blocks must cover the ground set")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        rank = sum(min(c, m.bit_count()) for c, m in zip(caps, block_masks))
        return cls(ground, "partition", (tuple(block_masks), tuple(caps)), rank)

    @classmethod
    def explicit(
        cls,
        ground: GroundSet,
        independent_sets: Iterable,
        *,
        validate: bool = True,
    ) -> "Matroid":
        """Store an explicit independent-set family.

        ``independent_sets`` holds bitmasks or label iterables.  Validation
        runs the matroid axioms exhaustively and is skipped above
        ``AXIOM_VALIDATION_CAP`` elements.
        """
        if ground.n > EXPLICIT_STORAGE_CAP:
            raise CapExceeded(f"explicit matroids capped at n <= {EXPLICIT_STORAGE_CAP}")
        family = frozenset(
            s if isinstance(s, int) else Subset.from_labels(ground, s).mask
            for s in independent_sets
        )
        if any(not 0 <= m <= ground.full_mask for m in family):
            raise ValueError("independent set outside the ground set")
        if not family:
            raise ValueError("family must contain the empty set")
        rank = max(m.bit_count() for m in family)
        matroid = cls(ground, "explicit", family, rank)
        if validate and ground.n <= AXIOM_VALIDATION_CAP:
            report = validate_exchange_axiom(matroid)
            if not report.passed:
                w = report.witness
                raise ValueError(f"family violates the matroid axioms: {w.S!r} / {w.T!r}")
        return matroid

    def is_independent_mask(self, mask: int) -> bool:
        if self.kind == "uniform":
            return mask.bit_count() <= self._data
        if self.kind == "partition":
            block_masks, caps = self._data
            return all((mask & b).bit_count() <= c for b, c in zip(block_masks, caps))
        return mask in self._data

    def is_independent(self, subset: Subset) -> bool:
        if subset.ground != self.ground:
            raise GroundSetMismatch("subset over a different ground set")
        return self.is_independent_mask(subset.mask)

    def independent_family(self) -> frozenset:
        """All independent bitmasks (explicit storage or an oracle sweep)."""
        if self.kind == "explicit":
            return self._data
        if self.ground.n > EXPLICIT_STORAGE_CAP:
            raise CapExceeded("family enumeration capped by explicit storage limit")
        return frozenset(
            m for m in range(self.ground.full_mask + 1) if self.is_independent_mask(m)
        )

    def to_explicit(self) -> "Matroid":
        return Matroid.explicit(self.ground, self.independent_family(), validate=False)

    def bases(self):
        """Yield basis masks in ascending bitmask order."""
        n = self.ground.n
        if n > BRUTE_FORCE_MATROID_CAP and self.kind != "explicit":
            raise CapExceeded(f"basis enumeration capped at n <= {BRUTE_FORCE_MATROID_CAP}")
        if self.kind == "explicit":
            for m in sorted(self._data):
                if m.bit_count() == self.rank:
                    yield m
            return
        for m in range(self.ground.full_mask + 1):
            if m.bit_count() == self.rank and self.is_independent_mask(m):
                yield m

    def __repr__(self) -> str:
        return f"Matroid({self.kind}, n={self.ground.n}, rank={self.rank})"


def is_independent(matroid: Matroid, subset: Subset) -> bool:
    return matroid.is_independent(subset)


def extend_to_basis(matroid: Matroid, subset: Subset) -> Subset:
    """Extend an independent set to a basis, adding the smallest feasible index first."""
    if not matroid.is_independent(subset):
        raise ValueError("cannot extend a dependent set")
    mask = subset.mask
    n = matroid.ground.n
    while mask.bit_count() < matroid.rank:
        for e in range(n):
            if mask >> e & 1:
                continue
            if matroid.is_independent_mask(mask | (1 << e)):
                mask |= 1 << e
                break
        else:
            raise RuntimeError("independence oracle inconsistent: no feasible extension")
    return Subset(matroid.ground, mask)


@dataclass(frozen=True)
class ExchangeMap:
    """A bijection g from X - Y to Y - X with X + {g(x)} - {x} independent for each x."""

    X: Subset
    Y: Subset
    mapping: dict

    def is_valid(self, matroid: Matroid) -> bool:
        xm = self.X.mask
        g = self.X.ground
        only_x = [i for i in range(g.n) if (xm & ~self.Y.mask) >> i & 1]
        if sorted(self.mapping) != sorted(g.label(i) for i in only_x):
            return False
        targets = list(self.mapping.values())
        if len(set(targets)) != len(targets):
            return False
        for x_label, y_label in self.mapping.items():
            swapped = (xm & ~(1 << g.index(x_label))) | (1 << g.index(y_label))
            if not (self.Y.mask >> g.index(y_label)) & 1:
                return False
            if (xm >> g.index(y_label)) & 1:
                return False
            if not matroid.is_independent_mask(swapped):
                return False
        return True


def brualdi_bijection(matroid: Matroid, X: Subset, Y: Subset) -> ExchangeMap:
    """The basis-exchange bijection between two bases.

    Built as a maximum matching on the bipartite graph whose edges are the
    feasible single swaps (x out, y in); a perfect matching exists for any two
    bases, so an imperfect one signals an inconsistent oracle.  Augmenting
    paths are explored in ascending index order for determinism.
    """
    for B in (X, Y):
        if not (matroid.is_independent(B) and B.cardinality == matroid.rank):
            raise ValueError("exchange map requires two bases")
    xm, ym = X.mask, Y.mask
    left = [i for i in range(matroid.ground.n) if (xm & ~ym) >> i & 1]
    right = [i for i in range(matroid.ground.n) if (ym & ~xm) >> i & 1]
    adj = {
        x: [y for y in right if matroid.is_independent_mask((xm & ~(1 << x)) | (1 << y))]
        for x in left
    }

    match_of_right: dict[int, int] = {}

    def augment(x: int, seen: set) -> bool:
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y not in match_of_right or augment(match_of_right[y], seen):
                match_of_right[y] = x
                return True
        return False

    for x in left:
        augment(x, set())
    if len(match_of_right) != len(left):
        raise RuntimeError("no perfect swap matching: independence oracle inconsistent")

    g = matroid.ground
    mapping = {g.label(x): g.label(y) for y, x in sorted(match_of_right.items())}
    exchange = ExchangeMap(X, Y, mapping)
    if not exchange.is_valid(matroid):  # re-check the matching output
        raise RuntimeError("exchange map failed post-validation")
    return exchange


def validate_exchange_axiom(matroid: Matroid, cap: int = AXIOM_VALIDATION_CAP) -> CheckReport:
    """Exhaustively test the matroid axioms on the oracle's family.

    Checks that the empty set is independent, that independence is
    downward-closed, and that any independent A, B with |B| = |A| + 1 admit
    b in B - A with A + {b} independent; under downward closure the adjacent
    sizes imply the axiom for all |A| < |B|.
    """
    n = matroid.ground.n
    if n > cap:
        raise CapExceeded(f"axiom validation capped at n <= {cap}")
    kind = PropertyKind.EXCHANGE_AXIOM
    ground = matroid.ground
    family = sorted(matroid.independent_family())
    checked = 0

    def report(witness):
        return CheckReport(kind, "exhaustive", checked, witness is None, witness)

    if 0 not in family:
        checked += 1
        return report(ViolationWitness(kind, Subset(ground, 0), None, None, None))

    in_family = set(family)
    for m in family:
        for e in range(n):
            if m >> e & 1:
                checked += 1
                if m & ~(1 << e) not in in_family:
                    return report(
                        ViolationWitness(
                            kind, Subset(ground, m & ~(1 << e)), Subset(ground, m), None, None
                        )
                    )

    by_size: dict[int, list[int]] = {}
    for m in family:
        by_size.setdefault(m.bit_count(), []).append(m)
    for size, smaller in sorted(by_size.items()):
        larger = by_size.get(size + 1, [])
        for A in smaller:
            for B in larger:
                checked += 1
                diff = B & ~A
                if not any(
                    A | (1 << e) in in_family for e in range(n) if diff >> e & 1
                ):
                    return report(
                        ViolationWitness(kind, Subset(ground, A), Subset(ground, B), None, None)
                    )
    return report(None)


def random_partition_matroid(n: int, rank: int, seed_or_rng) -> Matroid:
    """A random partition matroid on 0..n-1 with the requested rank.

    Elements are shuffled into ``rank`` nonempty blocks with capacity 1 each,
    so bases pick one element per block.
    """
    if not 1 <= rank <= n:
        raise ValueError("need 1 <= rank <= n")
    rng = seed_or_rng if isinstance(seed_or_rng, Random) else Random(seed_or_rng)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rank - 1)) if rank > 1 else []
    blocks, start = [], 0
    for cut in cuts + [n]:
        blocks.append(order[start:cut])
        start = cut
    ground = GroundSet.of_size(n)
    return Matroid.partition(ground, blocks, [1] * rank)


def random_matroid(n: int, rank: int, seed_or_rng) -> Matroid:
    """A random small matroid: uniform, partition, or an explicit truncation."""
    rng = seed_or_rng if isinstance(seed_or_rng, Random) else Random(seed_or_rng)
    ground = GroundSet.of_size(n)
    flavor = rng.choice(["uniform", "partition", "truncated_partition"])
    if flavor == "uniform":
        return Matroid.uniform(ground, rank)
    base = random_partition_matroid(n, min(n, rank + rng.randint(0, 1)), rng)
    if flavor == "partition" and base.rank == rank:
        return base
    family = [m for m in base.independent_family() if m.bit_count() <= rank]
    return Matroid.explicit(ground, family)
