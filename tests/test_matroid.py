import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from weaksub import (
    CapExceeded,
    ExchangeMap,
    GroundSet,
    InconsistentOracle,
    Subset,
    brualdi_bijection,
    extend_to_basis,
    is_independent,
    validate_exchange_axiom,
)
from weaksub import zoo
from weaksub.core import _ValueState
from weaksub.matroid import Matroid, random_matroid, random_partition_matroid
from weaksub.solve import (
    _greedy_basis,
    brute_force_matroid,
    greedy_cardinality,
    local_search_matroid,
)
from weaksub.zoo import linear


def masks_of(ground, *index_tuples):
    return [Subset.from_indices(ground, t) for t in index_tuples]


class TestIndependence:
    def test_uniform(self):
        g = GroundSet.of_size(6)
        m = Matroid.uniform(g, 3)
        s3, s4 = masks_of(g, (0, 1, 2), (0, 1, 2, 3))
        assert is_independent(m, s3)
        assert not is_independent(m, s4)
        assert m.rank == 3

    def test_partition(self):
        g = GroundSet.of_size(4)
        m = Matroid.partition(g, [[0, 1], [2, 3]], [1, 1])
        ok, bad = masks_of(g, (0, 2), (0, 1))
        assert is_independent(m, ok)
        assert not is_independent(m, bad)
        assert m.rank == 2

    def test_explicit_agrees_with_stored_family(self):
        g = GroundSet.of_size(3)
        family = [0b000, 0b001, 0b010, 0b100, 0b101, 0b110]
        m = Matroid.explicit(g, family)
        for mask in range(8):
            assert m.is_independent_mask(mask) == (mask in set(family))

    def test_explicit_refuses_a_ground_past_the_storage_cap(self):
        with pytest.raises(CapExceeded, match="explicit matroids capped at n <= 20"):
            Matroid.explicit(GroundSet.of_size(21), [0])

    def test_explicit_refuses_a_mask_outside_the_ground(self):
        with pytest.raises(ValueError, match="outside the ground set"):
            Matroid.explicit(GroundSet.of_size(3), [0, 0b1000])

    def test_ground_mismatch(self):
        m = Matroid.uniform(GroundSet.of_size(3), 2)
        with pytest.raises(ValueError):
            is_independent(m, Subset.empty(GroundSet.of_size(4)))

    def test_kinds_agree_with_explicit_encoding(self):
        rng = Random(3)
        for n in (4, 6, 8, 10, 12):
            for m in (
                Matroid.uniform(GroundSet.of_size(n), n // 2),
                random_partition_matroid(n, n // 2, rng),
            ):
                explicit = m.to_explicit()
                for mask in range(1 << n):
                    assert m.is_independent_mask(mask) == explicit.is_independent_mask(mask)
                assert m.rank == explicit.rank

    def test_partition_validation(self):
        g = GroundSet.of_size(4)
        with pytest.raises(ValueError):
            Matroid.partition(g, [[0, 1], [1, 2, 3]], [1, 1])  # overlap
        with pytest.raises(ValueError):
            Matroid.partition(g, [[0, 1]], [1])  # does not cover
        with pytest.raises(ValueError):
            Matroid.partition(g, [[0, 1], [2, 3]], [1])  # cap count

    @pytest.mark.parametrize("rank", [Fraction(5, 2), 2.0, True, "2"])
    def test_rank_and_caps_must_be_ints(self, rank):
        g = GroundSet.of_size(4)
        with pytest.raises(ValueError, match="integer"):
            Matroid.uniform(g, rank)
        with pytest.raises(ValueError, match="integer"):
            Matroid.partition(g, [[0, 1], [2, 3]], [1, rank])


class TestExtendToBasis:
    def test_empty_uniform_extends_by_index(self):
        g = GroundSet.of_size(4)
        m = Matroid.uniform(g, 2)
        assert extend_to_basis(m, Subset.empty(g)).indices() == (0, 1)

    def test_basis_is_fixed_point(self):
        g = GroundSet.of_size(4)
        m = Matroid.uniform(g, 2)
        basis = Subset.from_indices(g, (1, 3))
        assert extend_to_basis(m, basis) == basis

    def test_partition_smallest_index_rule(self):
        g = GroundSet.of_size(4)
        m = Matroid.partition(g, [[0, 1], [2, 3]], [1, 1])
        assert extend_to_basis(m, Subset.from_indices(g, (1,))).indices() == (1, 2)

    def test_dependent_input_rejected(self):
        g = GroundSet.of_size(4)
        m = Matroid.uniform(g, 1)
        with pytest.raises(ValueError):
            extend_to_basis(m, Subset.from_indices(g, (0, 1)))


class TestBases:
    def test_all_bases_have_rank_cardinality(self):
        rng = Random(9)
        for trial in range(12):
            m = random_matroid(6, rng.randint(1, 3), rng)
            bases = list(m.bases())
            assert bases, m
            assert all(b.bit_count() == m.rank for b in bases)

    def test_uniform_bases_count(self):
        m = Matroid.uniform(GroundSet.of_size(5), 2)
        assert len(list(m.bases())) == 10

    def test_partition_family_refused_past_the_storage_cap(self):
        m = Matroid.partition(GroundSet.of_size(21), [range(10), range(10, 21)], [1, 1])
        with pytest.raises(CapExceeded, match="explicit storage limit"):
            m.independent_family()

    @staticmethod
    def _random_uniform_and_partition(rng):
        """Uniform and partition matroids with caps of 0 and caps above the block size."""
        for _ in range(40):
            n = rng.randint(0, 9)
            g = GroundSet.of_size(n)
            yield Matroid.uniform(g, rng.randint(0, n))
            order = list(range(n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
            blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])] if n else []
            caps = [rng.choice([0, 1, len(b) - 1, len(b), len(b) + 2]) for b in blocks]
            yield Matroid.partition(g, blocks, caps)

    def test_bases_and_family_equal_an_oracle_sweep(self):
        seen_caps = set()
        for m in self._random_uniform_and_partition(Random(21)):
            sweep = [x for x in range(m.ground.full_mask + 1) if m.is_independent_mask(x)]
            assert m.independent_family() == frozenset(sweep), m
            assert list(m.bases()) == [x for x in sweep if x.bit_count() == m.rank], m
            if m.kind == "partition":
                seen_caps |= {
                    "zero" if c == 0 else "above" if c > b.bit_count() else "within"
                    for b, c in m._data
                }
        assert seen_caps == {"zero", "above", "within"}

    def test_bases_keep_the_enumeration_cap(self):
        g = GroundSet.of_size(19)
        for m in (Matroid.uniform(g, 2), Matroid.partition(g, [range(19)], [1])):
            with pytest.raises(CapExceeded, match="basis enumeration capped at n <= 18"):
                next(m.bases())

    def test_bases_ask_no_independence_query(self, monkeypatch):
        m = random_partition_matroid(16, 6, 3)
        blocks = [b for b, _ in m._data]
        monkeypatch.setattr(Matroid, "is_independent_mask", lambda self, mask: 1 / 0)
        bases = list(m.bases())
        assert len(bases) == math.prod(b.bit_count() for b in blocks)
        assert bases == sorted(bases) and all(b.bit_count() == 6 for b in bases)
        assert len(m.independent_family()) == math.prod(b.bit_count() + 1 for b in blocks)


class TestUniformIsTheOneBlockPartition:
    """``Matroid.uniform(g, s)`` and the partition of ``g`` into one block
    with cap s answer every query, and every solver over them, alike."""

    @staticmethod
    def _pairs(top=8):
        for n in range(top + 1):
            g = GroundSet.of_size(n)
            for s in range(n + 1):
                yield Matroid.uniform(g, s), Matroid.partition(g, [g.elements], [s])

    @staticmethod
    def _functions(n, rng):
        d = zoo.random_metric(n, rng)
        yield zoo.metric_dispersion(d)
        yield zoo.segmentation(zoo.random_segmentation(n, 3, rng))
        quarters = zoo.metric_dispersion(
            zoo.DistanceMatrix([[Fraction(x, 4) for x in row] for row in d.d])
        )
        assert isinstance(quarters.state(0), _ValueState)
        yield quarters

    def test_queries_agree(self):
        for uni, part in self._pairs():
            assert (uni.kind, part.kind) == ("uniform", "partition")
            assert uni.rank == part.rank
            full = uni.ground.full_mask
            for mask in range(full + 1):
                assert uni.is_independent_mask(mask) == part.is_independent_mask(mask)
            bases = list(uni.bases())
            assert bases == list(part.bases())
            assert uni.independent_family() == part.independent_family()
            for B in bases:
                members = [v for v in range(uni.ground.n) if B >> v & 1]
                for u in range(uni.ground.n):
                    if not B >> u & 1:
                        assert list(uni._exchanges(members, B, u)) == list(
                            part._exchanges(members, B, u)
                        )

    def test_solvers_agree(self):
        rng = Random(27)
        for uni, part in self._pairs():
            n, s = uni.ground.n, uni.rank
            if n == 0:
                continue
            init = Subset.from_indices(uni.ground, range(0, n, 3)[:s])
            for f in self._functions(n, rng):
                greedy = greedy_cardinality(f, s)
                mask, value, trace, _ = _greedy_basis(f, part, 0)
                assert (greedy.selected.mask, greedy.value, greedy.trace) == (mask, value, trace)
                for kwargs in ({}, {"init": init}, {"epsilon": Fraction(1, 4)}, {"max_iters": 1}):
                    a = local_search_matroid(f, uni, **kwargs)
                    b = local_search_matroid(f, part, **kwargs)
                    assert (a.selected, a.value, a.iterations, a.trace, a.certificate) == (
                        b.selected, b.value, b.iterations, b.trace, b.certificate
                    ), (uni, kwargs)
                assert brute_force_matroid(f, uni) == brute_force_matroid(f, part)

    def test_bits_outside_the_ground_set_are_ignored(self):
        # Both read a mask through the ground set's one block, so a bit
        # past it counts toward no cap.  Before the two were stored alike,
        # a uniform matroid counted every bit: 0b1001 on three elements at
        # rank 1 read as dependent, and 0b1000 at rank 0 as well.
        g = GroundSet.of_size(3)
        for m in (Matroid.uniform(g, 1), Matroid.partition(g, [g.elements], [1])):
            assert m.is_independent_mask(0b1001)
            assert not m.is_independent_mask(0b1011)
        for m in (Matroid.uniform(g, 0), Matroid.partition(g, [g.elements], [0])):
            assert m.is_independent_mask(0b1000)
            assert not m.is_independent_mask(0b1001)


class TestBrualdiBijection:
    def test_identical_bases_give_empty_map(self):
        g = GroundSet.of_size(5)
        m = Matroid.uniform(g, 3)
        b = Subset.from_indices(g, (0, 2, 4))
        ex = brualdi_bijection(m, b, b)
        assert ex.mapping == {}
        assert ex.is_valid(m)

    def test_uniform_any_bijection_is_valid(self):
        g = GroundSet.of_size(6)
        m = Matroid.uniform(g, 3)
        X = Subset.from_indices(g, (0, 1, 2))
        Y = Subset.from_indices(g, (3, 4, 5))
        ex = brualdi_bijection(m, X, Y)
        assert sorted(ex.mapping) == [0, 1, 2]
        assert ex.is_valid(m)

    def test_partition_maps_within_blocks(self):
        g = GroundSet.of_size(6)
        m = Matroid.partition(g, [[0, 1], [2, 3], [4, 5]], [1, 1, 1])
        X = Subset.from_indices(g, (0, 2, 4))
        Y = Subset.from_indices(g, (1, 3, 5))
        ex = brualdi_bijection(m, X, Y)
        assert ex.mapping == {0: 1, 2: 3, 4: 5}
        assert ex.is_valid(m)

    def test_non_basis_rejected(self):
        g = GroundSet.of_size(4)
        m = Matroid.uniform(g, 2)
        with pytest.raises(ValueError):
            brualdi_bijection(m, Subset.from_indices(g, (0,)), Subset.from_indices(g, (1, 2)))

    @pytest.mark.parametrize(
        "X, Y, mapping",
        [
            pytest.param((0, 2), (1, 3), {0: 1}, id="keys-not-X-minus-Y"),
            pytest.param((0, 2), (1, 6), {0: 6, 2: 6}, id="not-injective"),
            pytest.param((0, 2), (1, 3), {0: 4, 2: 3}, id="target-outside-Y"),
            pytest.param((0, 2), (1, 2), {0: 2}, id="target-inside-X"),
            pytest.param((0, 2), (1, 3), {0: 3, 2: 1}, id="dependent-swap"),
        ],
    )
    def test_is_valid_rejections(self, X, Y, mapping):
        # Every other check passes, so only the one named in the id rejects.
        g = GroundSet.of_size(7)
        m = Matroid.partition(g, [[0, 1, 4], [2, 3, 5], [6]], [1, 1, 1])
        X, Y = Subset.from_indices(g, X), Subset.from_indices(g, Y)
        assert not ExchangeMap(X, Y, mapping).is_valid(m)

    def test_no_perfect_matching_raises_inconsistent_oracle(self):
        # Two bases with no feasible single swap between them.
        g = GroundSet.of_size(4)
        m = Matroid.explicit(g, [0, 1, 2, 4, 8, 0b0011, 0b1100], validate=False)
        with pytest.raises(InconsistentOracle):
            brualdi_bijection(m, Subset(g, 0b0011), Subset(g, 0b1100))

    def test_exists_for_all_base_pairs_of_random_matroids(self):
        rng = Random(4)
        for trial in range(8):
            m = random_matroid(6, rng.randint(2, 3), rng)
            bases = [Subset(m.ground, b) for b in m.bases()]
            for X, Y in combinations(bases, 2):
                assert brualdi_bijection(m, X, Y).is_valid(m)


class TestExchangeAxiom:
    def test_uniform_encoded_explicitly_passes(self):
        m = Matroid.uniform(GroundSet.of_size(5), 2).to_explicit()
        assert validate_exchange_axiom(m).passed

    def test_partition_encoded_explicitly_passes(self):
        m = random_partition_matroid(6, 3, 2).to_explicit()
        assert validate_exchange_axiom(m).passed

    def test_downward_closed_non_matroid_fails(self):
        g = GroundSet.of_size(3)
        family = [0b000, 0b001, 0b010, 0b011, 0b100]
        m = Matroid.explicit(g, family, validate=False)
        report = validate_exchange_axiom(m)
        assert not report.passed
        assert report.witness.S.indices() == (2,)
        assert report.witness.T.indices() == (0, 1)

    def test_non_downward_closed_family_fails(self):
        g = GroundSet.of_size(3)
        m = Matroid.explicit(g, [0b000, 0b011], validate=False)
        report = validate_exchange_axiom(m)
        assert not report.passed

    def test_constructor_validates_by_default(self):
        g = GroundSet.of_size(3)
        with pytest.raises(ValueError):
            Matroid.explicit(g, [0b000, 0b001, 0b010, 0b011, 0b100])

    def test_missing_empty_set_fails(self):
        g = GroundSet.of_size(2)
        m = Matroid.explicit(g, [0b01], validate=False)
        assert not validate_exchange_axiom(m).passed

    @pytest.mark.parametrize("n", [3, 15])
    def test_constructor_refuses_a_family_without_the_empty_set(self, n):
        # Past the exchange-check cap of 14 elements too.
        with pytest.raises(ValueError, match="must contain the empty set"):
            Matroid.explicit(GroundSet.of_size(n), [0b001, 0b110])

    @pytest.mark.parametrize("validate", [True, False])
    def test_constructor_refuses_a_bool_set(self, validate):
        # True would otherwise be stored as the mask of element 0.
        for family in ([0, True], [0, 1, False]):
            with pytest.raises(ValueError, match="is a bool"):
                Matroid.explicit(GroundSet.of_size(2), family, validate=validate)

    def test_unchecked_family_past_cap_raises_inconsistent_oracle(self):
        # n = 15 skips the exchange check; {0} is a maximal set below rank 2.
        g = GroundSet.of_size(15)
        m = Matroid.explicit(g, [0, 0b001, 0b110])
        with pytest.raises(InconsistentOracle, match="basis unreachable"):
            local_search_matroid(linear([1] * 15), m)
        with pytest.raises(InconsistentOracle, match="no feasible extension"):
            extend_to_basis(m, Subset(g, 0b001))

    def test_oracle_and_stored_family_give_the_same_report(self):
        rng = Random(5)
        for n in (3, 5, 7):
            for m in (Matroid.uniform(GroundSet.of_size(n), 2), random_partition_matroid(n, 2, rng)):
                assert validate_exchange_axiom(m) == validate_exchange_axiom(m.to_explicit())

    def test_explicit_validation_reads_the_stored_family(self, monkeypatch):
        family = Matroid.uniform(GroundSet.of_size(6), 3).independent_family()
        calls = []
        oracle = Matroid.is_independent_mask
        monkeypatch.setattr(
            Matroid, "is_independent_mask", lambda self, mask: calls.append(mask) or oracle(self, mask)
        )
        assert Matroid.explicit(GroundSet.of_size(6), family).rank == 3
        assert calls == []

    def test_cap(self):
        m = Matroid.uniform(GroundSet.of_size(15), 3)
        with pytest.raises(CapExceeded):
            validate_exchange_axiom(m)


class TestRandomMatroids:
    def test_partition_generator_rank(self):
        for seed in range(8):
            m = random_partition_matroid(7, 3, seed)
            assert m.rank == 3
            assert m.kind == "partition"

    @pytest.mark.parametrize("rank", [0, 8])
    def test_partition_generator_refuses_a_rank_outside_1_to_n(self, rank):
        with pytest.raises(ValueError, match="1 <= rank <= n"):
            random_partition_matroid(7, rank, 0)

    def test_random_matroid_rank_and_validity(self):
        rng = Random(11)
        for _ in range(15):
            rank = rng.randint(1, 3)
            m = random_matroid(6, rank, rng)
            assert m.rank == rank
            assert validate_exchange_axiom(m).passed
