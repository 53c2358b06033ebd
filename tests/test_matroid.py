from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from weaksub import (
    CapExceeded,
    GroundSet,
    Subset,
    brualdi_bijection,
    extend_to_basis,
    is_independent,
    validate_exchange_axiom,
)
from weaksub.matroid import Matroid, random_matroid, random_partition_matroid


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

    def test_random_matroid_rank_and_validity(self):
        rng = Random(11)
        for _ in range(15):
            rank = rng.randint(1, 3)
            m = random_matroid(6, rank, rng)
            assert m.rank == rank
            assert validate_exchange_axiom(m).passed
