"""Validation, hyperproducts, powers and element/ring predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrings.bitsets import elements_of, mask_of
from hyperrings.core import (
    AxiomViolation,
    DimensionMismatch,
    EmptyHyperproduct,
    NoIdentity,
    classify_ring,
    hprod,
    is_invertible,
    is_nilpotent,
    power_orbit,
    validate_hyperring,
)
from hyperrings.corpus import ordinary_ring, zn_with_products
from hyperrings.theorems import Reading, RingContext, _idempotents


def ordinary_tables(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    hmul = [[[(a * b) % n] for b in range(n)] for a in range(n)]
    return add, hmul


class TestValidation:
    def test_ordinary_zn_validates_with_scalar_identity(self):
        for n in range(2, 8):
            ring = ordinary_ring(n)
            assert ring.identity == 1 % n
            assert ring.scalar_identity
            assert ring.commutative

    def test_z6_with_a_set_is_valid_and_has_identity(self):
        # A = {5, 7} mod 6 = {1, 5}; 1 is an identity since a in a o 1
        ring = zn_with_products(6, (5, 7))
        assert ring.identity == 1
        assert not ring.scalar_identity
        assert elements_of(ring.hmul[1][1]) == [1, 5]

    def test_empty_cell_rejected(self):
        add, hmul = ordinary_tables(4)
        hmul[1][1] = []
        with pytest.raises(EmptyHyperproduct) as exc:
            validate_hyperring("broken", add, hmul)
        assert exc.value.cell == (1, 1)

    def test_dimension_mismatch(self):
        add, hmul = ordinary_tables(3)
        with pytest.raises(DimensionMismatch):
            validate_hyperring("bad", add[:2], hmul)
        add2, hmul2 = ordinary_tables(3)
        add2[0][1] = 7
        with pytest.raises(DimensionMismatch):
            validate_hyperring("bad", add2, hmul2)

    def test_broken_group_identity(self):
        add, hmul = ordinary_tables(3)
        add[0][1] = 2
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("bad", add, hmul)
        assert (exc.value.axiom, exc.value.witness) == ("add-identity", (1,))

    def test_noncommutative_rejected_by_default(self):
        add, hmul = ordinary_tables(3)
        hmul[1][2] = [2]
        hmul[2][1] = [1]
        with pytest.raises(AxiomViolation):
            validate_hyperring("bad", add, hmul)

    def test_distributivity_violation_detected(self):
        add, hmul = ordinary_tables(2)
        hmul[0][0] = [1]
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("bad", add, hmul)
        # 0 o (0 + 0) = {1} is not in 0 o 0 + 0 o 0 = {0}
        assert (exc.value.axiom, exc.value.witness) == ("distributive", (0, 0, 0))

    def test_zero_ring(self):
        ring = validate_hyperring("zero", [[0]], [[[0]]])
        assert ring.size == 1
        assert ring.identity == 0
        assert ring.scalar_identity


class TestHprod:
    def test_scalar_identity_acts_trivially(self, z4):
        for b in range(4):
            assert hprod(z4, mask_of([1]), mask_of([b])) == mask_of([b])

    def test_z13_a_set_pair(self, z13a):
        # {2} o {3} with A = {5, 7}: 2*5*3 = 30 = 4 and 2*7*3 = 42 = 3 mod 13
        assert elements_of(hprod(z13a, mask_of([2]), mask_of([3]))) == [3, 4]

    def test_empty_operand_gives_empty(self, z4):
        assert hprod(z4, 0, mask_of([1, 2])) == 0


class TestPowers:
    """``power_orbit`` lists ``x^1, x^2, ...`` up to the first repeat."""

    def test_zero_powers(self, z4):
        assert power_orbit(z4, 0) == [mask_of([0])]

    def test_square_of_two_mod_four(self, z4):
        assert power_orbit(z4, 2) == [mask_of([2]), mask_of([0])]

    def test_first_power_is_singleton(self, z13a):
        for x in range(z13a.size):
            assert power_orbit(z13a, x)[0] == mask_of([x])

    def test_orbit_is_exact(self, z6a):
        for x in range(z6a.size):
            orbit = power_orbit(z6a, x)
            assert orbit[0] == mask_of([x])
            assert len(set(orbit)) == len(orbit)


class TestElementPredicates:
    def test_two_mod_four(self, z4):
        assert is_nilpotent(z4, 2)
        assert z4.zero_divisors & mask_of([2])
        assert not z4.nzd & mask_of([2])
        assert not is_invertible(z4, 2)

    def test_zero_is_a_zero_divisor_in_ordinary_rings(self, z4):
        # 0 o y = {0} for nonzero y, which the definition counts
        assert z4.zero_divisors & mask_of([0])

    def test_scalar_identity_flags(self, z4):
        assert is_invertible(z4, 1)
        assert z4.nzd & mask_of([1])
        assert z4.hmul[1][1] == mask_of([1])

    def test_invertibility_needs_identity(self):
        ring = zn_with_products(6, (2, 3))
        assert ring.identity is None
        assert classify_ring(ring).invertible_ring is None
        with pytest.raises(NoIdentity):
            is_invertible(ring, 1)

    def test_weak_vs_strict_idempotent(self, z6a):
        # 1 o 1 = {1, 5}: weakly idempotent but not strictly; the registry's
        # ``idempotent`` reading decides which one counts
        ctx = RingContext(z6a)
        assert 1 in _idempotents(ctx, Reading(idempotent="weak"))
        assert 1 not in _idempotents(ctx, Reading(idempotent="strict"))


class TestRingClassification:
    def test_z13_a_set_is_integral_hyperdomain(self, z13a):
        flags = classify_ring(z13a)
        assert flags.integral_hyperdomain
        assert flags.reduced

    def test_z4_not_reduced(self, z4):
        flags = classify_ring(z4)
        assert not flags.reduced
        assert not flags.integral_hyperdomain
        assert not flags.regular_ring

    def test_z2_is_a_field(self, z2):
        flags = classify_ring(z2)
        assert flags.integral_hyperdomain
        assert flags.reduced
        assert flags.regular_ring
        assert flags.invertible_ring

    def test_integral_implies_reduced_on_corpus(self, default_corpus):
        for ring in default_corpus.rings:
            flags = classify_ring(ring)
            if flags.integral_hyperdomain:
                assert flags.reduced, ring.name


@st.composite
def ring_and_masks(draw, count=2):
    n = draw(st.sampled_from([2, 3, 4, 5, 6]))
    use_a = draw(st.booleans())
    ring = zn_with_products(n, (5, 7)) if use_a else ordinary_ring(n)
    masks = [draw(st.integers(0, ring.carrier_mask)) for _ in range(count)]
    return ring, masks


class TestHprodProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_and_masks(count=3))
    def test_subset_level_associativity(self, data):
        ring, (a, b, c) = data
        assert hprod(ring, hprod(ring, a, b), c) == hprod(ring, a, hprod(ring, b, c))

    @settings(max_examples=60, deadline=None)
    @given(ring_and_masks(count=2), st.integers(0, 63), st.integers(0, 63))
    def test_monotone(self, data, extra1, extra2):
        ring, (a, b) = data
        bigger_a = (a | extra1) & ring.carrier_mask
        bigger_b = (b | extra2) & ring.carrier_mask
        small = hprod(ring, a, b)
        assert small & ~hprod(ring, bigger_a, bigger_b) == 0

    @settings(max_examples=30, deadline=None)
    @given(ring_and_masks(count=2))
    def test_commutative_on_commutative_rings(self, data):
        ring, (a, b) = data
        assert hprod(ring, a, b) == hprod(ring, b, a)
