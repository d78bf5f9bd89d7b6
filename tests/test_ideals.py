"""Ideal recognition, enumeration (against a brute-force oracle), ideal
arithmetic, annihilators and radicals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrings.bitsets import elements_of, is_subset, mask_of, singleton
from hyperrings.construct import quotient, subhyperring_masks, subhyperring_restrict
from hyperrings.core import ZERO_MASK
from hyperrings.corpus import ordinary_ring, zn_with_products
from hyperrings.ideals import (
    EmptySet,
    additive_closure,
    ann,
    ann_of_set,
    colon,
    enumerate_hyperideals,
    generated_ideal_mask,
    hyperideal_masks,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_C_hyperideal,
    is_hyperideal,
    principal_masks,
    product_family,
    radical,
    radical_via_powers,
    set_product,
    zero_radical,
)


def brute_force_ideals(ring):
    """Independent oracle: scan every subset containing 0 with plain loops
    over element lists, absorbing products from both sides."""
    n = ring.size
    add = [list(row) for row in ring.add]
    neg = [next(b for b in range(n) if add[a][b] == 0) for a in range(n)]
    prod = [[set(elements_of(ring.hmul[a][b])) for b in range(n)]
            for a in range(n)]
    found = []
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        members = {i for i in range(n) if mask >> i & 1}
        ok = True
        for a in members:
            for b in members:
                if add[a][neg[b]] not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for x in members:
                for r in range(n):
                    if not (prod[r][x] <= members and prod[x][r] <= members):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            found.append(mask)
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


class TestRecognition:
    def test_zero_and_full(self, z4):
        assert is_hyperideal(z4, mask_of([0]))
        assert is_hyperideal(z4, z4.carrier_mask)
        assert is_hyperideal(z4, mask_of([0, 2]))
        assert not is_hyperideal(z4, mask_of([0, 1]))

    def test_empty_set_raises(self, z4):
        with pytest.raises(EmptySet):
            is_hyperideal(z4, 0)

    def test_generated_ideal(self, z4):
        assert generated_ideal_mask(z4, mask_of([2])) == mask_of([0, 2])
        assert generated_ideal_mask(z4, mask_of([0])) == mask_of([0])
        assert generated_ideal_mask(z4, z4.carrier_mask) == z4.carrier_mask


class TestEnumeration:
    def test_small_fields(self, z2):
        assert [elements_of(m) for m in hyperideal_masks(z2)] == [[0], [0, 1]]

    def test_z4_and_z6(self, z4, z6):
        assert [elements_of(m) for m in hyperideal_masks(z4)] == \
            [[0], [0, 2], [0, 1, 2, 3]]
        assert [elements_of(m) for m in hyperideal_masks(z6)] == \
            [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]

    def test_matches_brute_force_oracle(self, default_corpus, small_corpus):
        # sizes above 8 reach the two-byte path of ``bits``; M2(Z2) is the
        # non-commutative carrier, where absorption is two-sided.  The small
        # corpus holds rings without an absorbing zero, and quotients and
        # subrings are built from their proved tables unvalidated: the
        # enumeration rests on weak distributivity on both sides, which all
        # of these inherit
        rings = [r for r in default_corpus.rings
                 if r.size <= 12 or r.name == "M2(Z2)"]
        assert sum(r.absorb[0] != ZERO_MASK for r in small_corpus) == 19
        rings += small_corpus
        for base in [*default_corpus.rings, *small_corpus]:
            rings += [q for q in (quotient(base, m).ring
                                  for m in hyperideal_masks(base)) if q.size <= 8]
            rings += [subhyperring_restrict(base, t).ring
                      for t in subhyperring_masks(base) if t.bit_count() <= 8]
        assert sum(not r.commutative for r in rings) == 10
        for ring in rings:
            assert list(hyperideal_masks(ring)) == brute_force_ideals(ring), \
                ring.name

    def test_principal_masks_are_the_generated_ideals(self, default_corpus,
                                                      small_corpus):
        for ring in [*default_corpus.rings, *small_corpus]:
            assert principal_masks(ring) == tuple(
                generated_ideal_mask(ring, singleton(x)) for x in range(ring.size)
            ), ring.name

    def test_enumerates_any_carrier_size(self):
        ring = ordinary_ring(17)
        assert hyperideal_masks(ring) == (mask_of([0]), ring.carrier_mask)

    def test_profiles_sorted_and_flagged(self, z6):
        profiles = enumerate_hyperideals(z6)
        assert [p.elements for p in profiles] == \
            [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
        assert all(p.is_hyperideal for p in profiles)
        assert all(p.is_C for p in profiles)  # ordinary products are singletons
        assert [p.is_proper for p in profiles] == [True, True, True, False]


class TestCProperty:
    def test_ordinary_rings_every_ideal_is_C(self, z12):
        for m in hyperideal_masks(z12):
            assert is_C_hyperideal(z12, m)

    def test_zero_ideal_in_z13_a_set(self, z13a):
        assert is_C_hyperideal(z13a, mask_of([0]))
        assert is_C_hyperideal(z13a, z13a.carrier_mask)

    def test_non_C_ideal_exists(self):
        # 1 o 2 = {0, 2} mod 4 with A = {2, 3} meets {0} without lying in it
        ring = zn_with_products(4, (2, 3))
        assert is_hyperideal(ring, mask_of([0]))
        assert not is_C_hyperideal(ring, mask_of([0]))

    def test_product_family_contains_singletons(self, z6a):
        fam = product_family(z6a)
        for x in range(z6a.size):
            assert mask_of([x]) in fam
        assert mask_of([1, 5]) in fam  # 1 o 1


class TestArithmetic:
    def test_sum_with_zero_is_identity(self, z6):
        for m in hyperideal_masks(z6):
            assert ideal_sum(z6, m, mask_of([0])).members == m

    def test_product_z6(self, z6):
        evens = mask_of([0, 2, 4])
        threes = mask_of([0, 3])
        assert set_product(z6, evens, threes) == mask_of([0])
        assert ideal_product(z6, evens, threes).members == mask_of([0])

    def test_intersection_exact(self, z6):
        masks = hyperideal_masks(z6)
        for a in masks:
            for b in masks:
                prof = ideal_intersection(z6, a, b)
                assert prof.members == a & b
                assert prof.is_hyperideal
                assert not prof.repaired

    def test_intersection_with_full_ring(self, z4):
        for m in hyperideal_masks(z4):
            assert ideal_intersection(z4, m, z4.carrier_mask).members == m

    def test_additive_closure(self, z6):
        assert additive_closure(z6, mask_of([0, 2])) == mask_of([0, 2, 4])


class TestColonAndAnn:
    def test_colon_by_full_ring(self, z6):
        for m in hyperideal_masks(z6):
            assert colon(z6, m, z6.carrier_mask) == m

    def test_ann_examples(self, z6):
        assert ann(z6, 2) == mask_of([0, 3])
        assert ann(z6, 1) == mask_of([0])
        assert ann(z6, 0) == z6.carrier_mask

    def test_colon_contains_ideal(self, z12):
        masks = hyperideal_masks(z12)
        for i_mask in masks:
            for j_mask in masks:
                if j_mask == 0:
                    continue
                assert is_subset(i_mask, colon(z12, i_mask, j_mask))

    def test_empty_divisor_raises(self, z4):
        with pytest.raises(EmptySet):
            colon(z4, mask_of([0]), 0)

    def test_ann_of_set_against_products(self, default_corpus, small_corpus):
        """``ann_of_set`` reads the cached annihilators; its definition is
        ``{z : A o z = {0}}``.  ``A o z`` is built the way ``hprod`` defines
        it, as the union of the cells ``a o z``, one element of A at a time,
        so every mask of every corpus ring is covered, the empty one too."""
        for ring in [*default_corpus.rings, *small_corpus]:
            products = [(0,) * ring.size]  # products[A][z] is A o z
            assert ann_of_set(ring, 0) == 0
            for mask in range(1, 1 << ring.size):
                low = (mask & -mask).bit_length() - 1
                row = tuple(map(int.__or__, products[mask & (mask - 1)],
                                ring.hmul[low]))
                products.append(row)
                expected = mask_of(z for z, cell in enumerate(row)
                                   if cell == ZERO_MASK)
                assert ann_of_set(ring, mask) == expected, (ring.name, mask)


class TestRadical:
    def test_radical_of_full_ring_is_full(self, z6):
        assert radical(z6, z6.carrier_mask) == z6.carrier_mask

    def test_examples(self, z4, z6):
        assert radical(z4, mask_of([0])) == mask_of([0, 2])
        assert radical(z6, mask_of([0])) == mask_of([0])

    def test_powers_route_matches(self, z4):
        assert radical_via_powers(z4, mask_of([0])) == mask_of([0, 2])
        assert radical_via_powers(z4, z4.carrier_mask) == z4.carrier_mask

    def test_primes_contain_their_radical_seed(self, z12):
        for m in hyperideal_masks(z12):
            assert is_subset(m, radical(z12, m)) or \
                radical(z12, m) == z12.carrier_mask

    def test_zero_radical_of_domain(self, z13a):
        assert zero_radical(z13a) == mask_of([0])

    def test_monotone_on_ideals(self, z12):
        masks = hyperideal_masks(z12)
        for a in masks:
            for b in masks:
                if is_subset(a, b):
                    assert is_subset(radical(z12, a), radical(z12, b))

    def test_idempotent_where_radical_is_ideal(self, default_corpus):
        for ring in default_corpus.rings:
            if ring.size > 8 or not ring.commutative:
                continue
            for m in hyperideal_masks(ring):
                rad = radical(ring, m)
                if rad != ring.carrier_mask and is_hyperideal(ring, rad):
                    assert radical(ring, rad) == rad, ring.name


@st.composite
def ring_and_subset(draw):
    n = draw(st.sampled_from([2, 3, 4, 6]))
    ring = zn_with_products(n, (5, 7)) if draw(st.booleans()) else ordinary_ring(n)
    gens = draw(st.integers(1, ring.carrier_mask))
    return ring, gens


class TestGenerationProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_and_subset())
    def test_extensive_and_idempotent(self, data):
        ring, gens = data
        closed = generated_ideal_mask(ring, gens)
        assert is_subset(gens, closed)
        assert generated_ideal_mask(ring, closed) == closed
        assert is_hyperideal(ring, closed)

    @settings(max_examples=40, deadline=None)
    @given(ring_and_subset(), st.integers(1, 63), st.integers(1, 63))
    def test_colon_splits_unions(self, data, j1, j2):
        ring, gens = data
        ideal = generated_ideal_mask(ring, gens)
        j1 &= ring.carrier_mask
        j2 &= ring.carrier_mask
        if not j1 or not j2:
            return
        both = colon(ring, ideal, j1 | j2)
        assert both == colon(ring, ideal, j1) & colon(ring, ideal, j2)
