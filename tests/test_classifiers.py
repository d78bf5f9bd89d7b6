"""Ideal-class predicates: prime, primary, r, n, maximal/minimal/essential,
and the closed-subset duals."""

import pytest

from hyperrings.bitsets import elements_of, is_subset, mask_of
from hyperrings.classifiers import (
    CLASS_N,
    CLASS_PRIME,
    CLASS_R,
    MODE_RELAXED,
    MODE_STRICT,
    NotDisjoint,
    class_members,
    classify_ideal,
    is_essential,
    is_maximal_in_class,
    is_minimal_nonzero,
    is_n_hyperideal,
    is_n_mult_closed,
    is_primary,
    is_r_mult_closed,
    maximal_disjoint_masks,
    maximal_members,
    n_witness,
    prime_witness,
    primary_witness,
    r_closure_holds,
    r_witness,
)
from hyperrings.core import NoIdentity
from hyperrings.corpus import zn_with_products
from hyperrings.ideals import (
    hyperideal_masks,
    prime_condition_holds,
    radical,
    zero_radical,
)


class TestPrime:
    def test_z6_three_ideal_is_prime(self, z6):
        primes = class_members(z6, CLASS_PRIME)
        assert mask_of([0, 3]) in primes
        assert mask_of([0, 2, 4]) in primes
        assert mask_of([0]) not in primes
        assert classify_ideal(z6, mask_of([0, 3])).prime

    def test_relaxed_vs_strict_on_zero(self, z2):
        assert mask_of([0]) in class_members(z2, CLASS_PRIME, MODE_RELAXED)
        assert mask_of([0]) not in class_members(z2, CLASS_PRIME, MODE_STRICT)
        assert classify_ideal(z2, mask_of([0]), MODE_RELAXED).prime
        assert not classify_ideal(z2, mask_of([0]), MODE_STRICT).prime

    def test_full_ring_never_prime(self, z4):
        # the pair law holds vacuously on the carrier; properness excludes it
        assert prime_condition_holds(z4, z4.carrier_mask)
        assert z4.carrier_mask not in class_members(z4, CLASS_PRIME)
        assert not classify_ideal(z4, z4.carrier_mask).prime

    def test_witness_is_least(self, z4):
        assert prime_witness(z4, mask_of([0])) == (2, 2)


class TestPrimary:
    def test_every_prime_is_primary(self, z6):
        for m in class_members(z6, CLASS_PRIME):
            assert is_primary(z6, m)

    def test_zero_ideal(self, z4, z6):
        assert is_primary(z4, mask_of([0]))
        assert not is_primary(z6, mask_of([0]))


class TestRIdeal:
    def test_z4(self, z4):
        assert r_closure_holds(z4, mask_of([0]))
        assert r_closure_holds(z4, mask_of([0, 2]))

    def test_improper_only_in_relaxed_mode(self, z4):
        assert r_closure_holds(z4, z4.carrier_mask)
        assert classify_ideal(z4, z4.carrier_mask, MODE_RELAXED).r_ideal
        assert not classify_ideal(z4, z4.carrier_mask, MODE_STRICT).r_ideal

    def test_prime_of_zero_divisors_is_r(self, z6):
        assert r_closure_holds(z6, mask_of([0, 3]))
        assert r_witness(z6, mask_of([0, 3])) is None

    def test_witness(self, z4):
        # {1} is not even an ideal but the scan law still reports the least
        # regular pair whose product lands inside: 3 o 3 = {1}
        assert r_witness(z4, mask_of([0])) is None
        assert r_witness(z4, mask_of([1])) == (3, 3)


class TestNIdeal:
    def test_z4_exactly_two(self, z4):
        found = [elements_of(m) for m in hyperideal_masks(z4)
                 if m != z4.carrier_mask and is_n_hyperideal(z4, m)]
        assert found == [[0], [0, 2]]

    def test_z13_a_set_only_zero(self, z13a):
        found = [m for m in hyperideal_masks(z13a)
                 if m != z13a.carrier_mask and is_n_hyperideal(z13a, m)]
        assert found == [mask_of([0])]

    def test_z6_has_none(self, z6):
        assert class_members(z6, CLASS_N) == ()
        assert n_witness(z6, mask_of([0])) == (2, 3)

    def test_improper_never_n(self, z4):
        assert not is_n_hyperideal(z4, z4.carrier_mask)

    def test_zero_radical_against_its_scan(self, default_corpus, small_corpus):
        """At I = r(0) the n-law scan is the prime scan, which the ring
        keeps once for both; a literal pair scan is the oracle."""
        checked = 0
        for ring in [*default_corpus.rings, *small_corpus]:
            r0 = zero_radical(ring)
            if r0 == ring.carrier_mask:
                continue
            outside = [x for x in range(ring.size) if not r0 >> x & 1]
            holds = not any(is_subset(ring.hmul[x][y], r0)
                            for x in outside for y in outside)
            assert (n_witness(ring, r0) is None) == holds
            assert is_n_hyperideal(ring, r0) == holds
            assert (r0 in class_members(ring, CLASS_N)) == holds
            checked += 1
        assert checked == 95


class TestLatticeClasses:
    def test_maximal_r(self, z4):
        assert is_maximal_in_class(z4, mask_of([0, 2]), CLASS_R)
        assert not is_maximal_in_class(z4, mask_of([0]), CLASS_R)

    def test_minimal_nonzero(self, z6):
        assert is_minimal_nonzero(z6, mask_of([0, 3]))
        assert is_minimal_nonzero(z6, mask_of([0, 2, 4]))
        assert not is_minimal_nonzero(z6, mask_of([0]))
        assert not is_minimal_nonzero(z6, z6.carrier_mask)

    def test_essential(self, z4, z6):
        assert is_essential(z4, mask_of([0, 2]))
        assert not is_essential(z6, mask_of([0, 2, 4]))
        assert is_essential(z6, z6.carrier_mask)
        assert not is_essential(z6, mask_of([0]))


class TestClosedSubsets:
    def test_units_mod_six(self, z6):
        assert is_r_mult_closed(z6, mask_of([1, 5]))

    def test_zero_excluded(self, z6):
        assert not is_r_mult_closed(z6, mask_of([0, 1, 5]))

    def test_lenient_vs_literal_on_z2(self, z2):
        assert not is_r_mult_closed(z2, mask_of([1]))
        assert is_r_mult_closed(z2, mask_of([1]), lenient=True)

    def test_needs_identity(self):
        ring = zn_with_products(6, (2, 3))
        with pytest.raises(NoIdentity):
            is_r_mult_closed(ring, mask_of([1]))

    def test_n_mult_closed_complements(self, z4):
        assert is_n_mult_closed(z4, mask_of([1, 2, 3]))
        assert is_n_mult_closed(z4, mask_of([1, 3]))
        assert not is_n_mult_closed(z4, mask_of([1, 2]))

    def test_complement_duality_on_corpus(self, default_corpus):
        # r-ideals and n-ideals correspond to closed complements (with the
        # lenient extra-regular clause for the r side)
        for ring in default_corpus.rings:
            if ring.identity is None or not ring.commutative:
                continue
            proper = [m for m in hyperideal_masks(ring)
                      if m != ring.carrier_mask]
            if any(not classify_ideal(ring, m).is_C for m in proper):
                continue
            for m in proper:
                comp = ring.carrier_mask & ~m
                assert r_closure_holds(ring, m) == \
                    is_r_mult_closed(ring, comp, lenient=True), ring.name
                assert is_n_hyperideal(ring, m) == \
                    is_n_mult_closed(ring, comp), ring.name


class TestMaximalDisjoint:
    def test_z4_units(self, z4):
        masks = maximal_disjoint_masks(z4, mask_of([1]), mask_of([0]))
        assert masks == [mask_of([0, 2])]

    def test_fixpoint(self, z4):
        masks = maximal_disjoint_masks(z4, mask_of([1, 3]), mask_of([0, 2]))
        assert masks == [mask_of([0, 2])]

    def test_not_disjoint_raises(self, z4):
        with pytest.raises(NotDisjoint):
            maximal_disjoint_masks(z4, mask_of([0, 1]), mask_of([0]))

    def test_all_maximal_members_returned(self, z6):
        masks = maximal_disjoint_masks(z6, mask_of([1]), mask_of([0]))
        assert masks == [mask_of([0, 3]), mask_of([0, 2, 4])]


class TestClassifyIdeal:
    def test_z4_zero_ideal_flags(self, z4):
        flags = classify_ideal(z4, mask_of([0]))
        assert flags.n_ideal and flags.r_ideal
        assert flags.primary and not flags.prime
        assert flags.is_C
        assert dict(flags.witnesses)["prime"] == (2, 2)

    def test_witnesses_are_stable(self, z6):
        a = classify_ideal(z6, mask_of([0]))
        b = classify_ideal(z6, mask_of([0]))
        assert a == b


def literal_witness(ring, members, xs, ys):
    """The least (x, y) over the whole square with x in xs, y in ys and
    ``x o y`` inside the ideal, read off the definition."""
    for x in range(ring.size):
        for y in range(ring.size):
            if xs >> x & 1 and ys >> y & 1 \
                    and not ring.hmul[x][y] & ~members:
                return (x, y)
    return None


class TestLawWitnesses:
    """The prime, primary, r and n witnesses are one scan each; the literal
    least pair over the whole square is their oracle."""

    def test_against_the_literal_laws(self, default_corpus, small_corpus):
        cases = 0
        for ring in [*default_corpus.rings, *small_corpus]:
            full = ring.carrier_mask
            out_rad0 = full & ~zero_radical(ring)
            for m in hyperideal_masks(ring):
                out = full & ~m
                assert prime_witness(ring, m) == literal_witness(
                    ring, m, out, out)
                assert primary_witness(ring, m) == literal_witness(
                    ring, m, out, full & ~radical(ring, m))
                assert r_witness(ring, m) == literal_witness(
                    ring, m, ring.nzd, out)
                assert n_witness(ring, m) == literal_witness(
                    ring, m, out_rad0, out)
                cases += 4
        assert cases > 1600


class TestMaximalMembers:
    def test_maximal_and_minimal(self):
        family = (mask_of([0]), mask_of([0, 1]), mask_of([0, 2]),
                  mask_of([0, 1, 2]), mask_of([3]))
        assert maximal_members(family) == (mask_of([0, 1, 2]), mask_of([3]))
        assert maximal_members(family, minimal=True) == (mask_of([0]),
                                                         mask_of([3]))
        assert maximal_members(()) == ()
