"""Quotients, products, matrix structures, homomorphisms, subrings and the
fundamental ordinary-ring quotient."""

import itertools
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrings.bitsets import bits, elements_of, is_subset, mask_of, singleton
from hyperrings.core import (
    ZERO_MASK,
    AxiomViolation,
    CapExceeded,
    HyperRing,
    HyperRingError,
    set_sum,
    validate_hyperring,
)
from hyperrings.corpus import ordinary_ring
from hyperrings.construct import (
    HOM_CANDIDATE_CAP,
    NotAdditive,
    NotClosed,
    NotMultiplicative,
    OrdinaryRing,
    QuotientImage,
    _additive_generators,
    check_good_homomorphism,
    classical_n_ideal,
    direct_product,
    enumerate_good_homomorphisms,
    fundamental_ring,
    matrix_hyperring,
    matrix_ideal_mask,
    product_factor_sizes,
    product_subset_mask,
    quotient,
    subhyperring_masks,
    subhyperring_restrict,
)
from hyperrings.ideals import hyperideal_masks, is_hyperideal, product_family


class TestQuotient:
    def test_z4_by_even_ideal_is_z2(self, z4):
        q = quotient(z4, mask_of([0, 2]))
        assert q.ring.size == 2
        assert q.ring.add == ((0, 1), (1, 0))
        assert q.ring.hmul == ((1, 1), (1, 2))
        assert q.projection == (0, 1, 0, 1)

    def test_quotient_by_zero_is_isomorphic_copy(self, z6):
        q = quotient(z6, mask_of([0]))
        assert q.ring.add == z6.add
        assert q.ring.hmul == z6.hmul

    def test_quotient_by_full_ring_is_zero_ring(self, z4):
        q = quotient(z4, z4.carrier_mask)
        assert q.ring.size == 1

    def test_hyper_quotient(self, z6a):
        q = quotient(z6a, mask_of([0, 3]))
        assert q.ring.size == 3
        # class products stay multi-valued: [1] o [1] covers both odd cosets
        assert q.ring.hmul[1][1] == mask_of([1, 2])

    def test_preimages_of_ideals_contain_the_ideal(self, z6a):
        j = mask_of([0, 2, 4])
        q = quotient(z6a, j)
        for m in hyperideal_masks(q.ring):
            pre = q.preimage_mask(m)
            assert is_subset(j, pre)
            assert is_hyperideal(z6a, pre)

    def test_requires_hyperideal(self, z4):
        with pytest.raises(ValueError):
            quotient(z4, mask_of([0, 1]))


def frozenset_quotient(ring: HyperRing, ideal: int,
                       name: Optional[str] = None) -> QuotientImage:
    """:func:`quotient` as first written, lifting every representative cell
    to a frozenset of classes; the oracle for the mask lift.  It asserts that
    every pair of representatives lifts to the same classes, which
    :func:`quotient` proves instead of checking."""
    if not is_hyperideal(ring, ideal):
        raise ValueError("quotient requires a hyperideal")
    n = ring.size
    coset_of: list[Optional[int]] = [None] * n
    coset_masks: list[int] = []
    for x in range(n):
        if coset_of[x] is not None:
            continue
        cmask = set_sum(ring, singleton(x), ideal)
        idx = len(coset_masks)
        coset_masks.append(cmask)
        for y in bits(cmask):
            coset_of[y] = idx
    # canonical order: sort classes by least member (the zero coset is first)
    order = sorted(range(len(coset_masks)), key=lambda i: coset_masks[i] & -coset_masks[i])
    relabel = {old: new for new, old in enumerate(order)}
    coset_masks = [coset_masks[i] for i in order]
    proj = tuple(relabel[coset_of[x]] for x in range(n))
    k = len(coset_masks)

    add_q = [[0] * k for _ in range(k)]
    for i in range(k):
        ri = bits(coset_masks[i])[0]
        for j in range(k):
            rj = bits(coset_masks[j])[0]
            add_q[i][j] = proj[ring.add[ri][rj]]

    hmul_q = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            value: Optional[frozenset[int]] = None
            first_pair = None
            for x in bits(coset_masks[i]):
                for y in bits(coset_masks[j]):
                    classes = frozenset(proj[t] for t in bits(ring.hmul[x][y]))
                    if value is None:
                        value = classes
                        first_pair = (x, y)
                    else:
                        assert classes == value, (
                            f"cosets ({i},{j}): representatives {first_pair} "
                            f"and {(x, y)} lift to different class sets")
            hmul_q[i][j] = sorted(value)

    qname = name or f"{ring.name}/{{{','.join(map(str, elements_of(ideal)))}}}"
    out = validate_hyperring(
        qname, add_q, hmul_q,
        require_commutative=ring.commutative,
        provenance={"construction": "quotient", "source": ring.name,
                    "params": ",".join(map(str, elements_of(ideal)))},
    )
    return QuotientImage(ring=out, projection=proj, source_name=ring.name, ideal=ideal)


def quotient_outcome(build, ring: HyperRing, ideal: int):
    try:
        return build(ring, ideal)
    except HyperRingError as exc:
        return type(exc), str(exc)


class TestQuotientOracle:
    def test_matches_frozenset_lift(self, default_corpus, small_corpus):
        cases = [(ring, m) for ring in [*default_corpus.rings, *small_corpus]
                 for m in hyperideal_masks(ring)]
        for ring, m in cases:
            got = quotient_outcome(quotient, ring, m)
            assert got == quotient_outcome(frozenset_quotient, ring, m), (ring.name, m)
            assert isinstance(got, QuotientImage)  # validated input never raises


def assert_validates_to_itself(ring: HyperRing) -> None:
    """A derived ring is the ring :func:`validate_hyperring` makes of its
    own tables: every field, the detected identity and commutativity
    included, and the additive inverses."""
    again = validate_hyperring(
        ring.name, ring.add, [[elements_of(c) for c in row] for row in ring.hmul],
        require_commutative=False, provenance=dict(ring.provenance))
    assert again == ring, ring.name
    assert again.neg == ring.neg, ring.name


class TestDerivedRingsOracle:
    """Quotients, subrings and products are built from tables that their
    construction proves to be a hyperring, without validation."""

    def test_quotients_and_subrings(self, default_corpus, small_corpus):
        rings = [*default_corpus.rings, *small_corpus]
        quotients = [quotient(r, m).ring for r in rings for m in hyperideal_masks(r)]
        subrings = [subhyperring_restrict(r, t).ring for r in rings
                    for t in subhyperring_masks(r)]
        assert (len(quotients), len(subrings)) == (402, 445)
        m2 = next(r for r in default_corpus.rings if not r.commutative)
        assert m2.name == "M2(Z2)"
        m2_subrings = [subhyperring_restrict(m2, t).ring
                       for t in subhyperring_masks(m2)]
        # commutativity is read off the subring, not inherited from M2(Z2)
        assert (len(m2_subrings), sum(s.commutative for s in m2_subrings)) == (28, 18)
        for ring in quotients + subrings:
            assert_validates_to_itself(ring)

    def test_products(self, default_corpus, small_corpus):
        base = default_corpus.rings
        pairs = [(a, b) for i, a in enumerate(base) for b in base[i:]
                 if a.size * b.size <= 12]
        pairs += [(a, b) for a in small_corpus for b in small_corpus]
        assert len(pairs) == 912
        for r1, r2 in pairs:
            assert_validates_to_itself(direct_product(r1, r2))


class TestDirectProduct:
    def test_component_zeroes_multiply_to_zero(self, z2):
        p = direct_product(z2, z2)
        i10 = 1 * 2 + 0
        i01 = 0 * 2 + 1
        assert p.hmul[i10][i01] == singleton(0)

    def test_product_with_zero_ring_keeps_tables(self, z4):
        one = ordinary_ring(1)
        p = direct_product(z4, one)
        assert p.add == z4.add
        assert p.hmul == z4.hmul

    def test_factor_sizes_recoverable(self, z2, z6):
        p = direct_product(z2, z6)
        assert product_factor_sizes(p) == (2, 6)
        assert product_factor_sizes(z6) is None

    def test_subset_embedding(self):
        assert product_subset_mask(3, mask_of([0, 1]), mask_of([2])) == \
            mask_of([2, 5])


class TestMatrix:
    def test_dimension_one_is_the_ring_itself(self, z4):
        m1 = matrix_hyperring(z4, 1)
        assert m1.add == z4.add
        assert m1.hmul == z4.hmul

    def test_m2_z2_is_the_classical_matrix_ring(self, z2):
        m2 = matrix_hyperring(z2, 2)
        assert m2.size == 16
        assert not m2.commutative
        assert m2.scalar_identity
        # identity matrix is (1,0,0,1) encoded row-major base 2
        assert m2.identity == 0b1001
        # E12 * E12 = 0 and E12 * E21 = E11 (indices 2, 4, 1 row-major)
        e12, e21, e11 = 0b0010, 0b0100, 0b0001
        assert m2.hmul[e12][e12] == singleton(0)
        assert m2.hmul[e12][e21] == singleton(e11)
        assert m2.hmul[e21][e12] != m2.hmul[e12][e21]

    def test_matrix_ideal_embedding(self, z2):
        full = matrix_ideal_mask(z2, 2, z2.carrier_mask)
        assert full == (1 << 16) - 1
        zero_only = matrix_ideal_mask(z2, 2, mask_of([0]))
        assert zero_only == singleton(0)

    def test_cap_enforced(self, z6):
        with pytest.raises(CapExceeded):
            matrix_hyperring(z6, 2)

    def test_requires_scalar_identity(self, z13a):
        with pytest.raises(ValueError):
            matrix_hyperring(z13a, 2)


class TestGoodHomomorphisms:
    def test_identity_map(self, z4):
        hom = check_good_homomorphism([0, 1, 2, 3], z4, z4)
        assert hom.kernel == mask_of([0])
        assert hom.injective and hom.surjective

    def test_mod_two_reduction(self, z4, z2):
        hom = check_good_homomorphism([0, 1, 0, 1], z4, z2)
        assert hom.kernel == mask_of([0, 2])
        assert hom.surjective and not hom.injective

    def test_constant_zero_map_is_checked_not_assumed(self, z4):
        hom = check_good_homomorphism([0, 0, 0, 0], z4, z4)
        assert hom.kernel == z4.carrier_mask

    @pytest.mark.parametrize("value", [True, 1.0, None])
    def test_map_values_must_be_indices(self, z2, value):
        # the index rule of validate_hyperring: an int, and not a bool
        with pytest.raises(ValueError, match=r"f\(1\) = .* is not an index in 0\.\.1"):
            check_good_homomorphism([0, value], z2, z2)

    def test_not_additive(self, z4):
        with pytest.raises(NotAdditive):
            check_good_homomorphism([0, 1, 1, 1], z4, z4)

    def test_not_multiplicative(self, z4):
        # x -> 2x is additive on Z4, but f(1 o 1) = {2} while
        # f(1) o f(1) = 2 o 2 = {0}
        with pytest.raises(NotMultiplicative) as exc:
            check_good_homomorphism([0, 2, 0, 2], z4, z4)
        assert exc.value.witness == (1, 1)

    def test_enumeration_finds_all(self, z4, z2):
        homs = enumerate_good_homomorphisms(z4, z2)
        assert [h.mapping for h in homs] == [(0, 0, 0, 0), (0, 1, 0, 1)]

    def test_candidate_cap_raises(self, z2):
        # Z2^4 has 4 greedy generators: 17^4 = 83,521 raw assignments
        z2_2 = direct_product(z2, z2)
        z2_3 = direct_product(z2_2, z2)
        z2_4 = direct_product(z2_2, z2_2)
        z17 = ordinary_ring(17)
        with pytest.raises(CapExceeded) as exc:
            enumerate_good_homomorphisms(z2_4, z17)
        assert (exc.value.value, exc.value.cap) == (17 ** 4, HOM_CANDIDATE_CAP)
        [zero] = enumerate_good_homomorphisms(z2_3, z17)  # 17^3 is under the cap
        assert zero.mapping == (0,) * 8

    def test_image_and_preimage(self, z4, z2):
        hom = check_good_homomorphism([0, 1, 0, 1], z4, z2)
        assert hom.image_mask(mask_of([0, 2])) == mask_of([0])
        assert hom.preimage_mask(mask_of([0])) == mask_of([0, 2])
        assert hom.preimage_mask(z2.carrier_mask) == z4.carrier_mask


def relabel(ring: HyperRing, to) -> HyperRing:
    """The same structure with element x renamed ``to[x]`` (``to[0] = 0``)."""
    n = ring.size
    back = [0] * n
    for old, new in enumerate(to):
        back[new] = old
    add = [[to[ring.add[back[a]][back[b]]] for b in range(n)] for a in range(n)]
    hmul = [[[to[t] for t in elements_of(ring.hmul[back[a]][back[b]])]
             for b in range(n)] for a in range(n)]
    return validate_hyperring(f"{ring.name}{list(to)}", add, hmul,
                              require_commutative=ring.commutative)


def brute_force_homs(source: HyperRing, target: HyperRing) -> list[tuple[int, ...]]:
    """Every total map that :func:`check_good_homomorphism` accepts, sorted."""
    found = []
    for mapping in itertools.product(range(target.size), repeat=source.size):
        try:
            found.append(check_good_homomorphism(mapping, source, target).mapping)
        except (NotAdditive, NotMultiplicative):
            pass
    return found


def klein_ring(name: str, big) -> HyperRing:
    """The Klein four-group ``x + y = x xor y`` with ``x o y`` the whole
    carrier where ``big(x, y)``, else ``{0}``."""
    add = [[a ^ b for b in range(4)] for a in range(4)]
    hmul = [[[0, 1, 2, 3] if big(x, y) else [0] for y in range(4)]
            for x in range(4)]
    return validate_hyperring(name, add, hmul, require_commutative=False)


@pytest.fixture(scope="module")
def z4_swapped(z4):
    # labels 1 and 2 swapped: the greedy generators 1 and 2 have additive
    # orders 2 and 4 and are dependent (2 + 2 = 1), so a generator
    # assignment can fail the additivity edge check
    ring = relabel(z4, [0, 2, 1, 3])
    assert _additive_generators(ring.add) == [1, 2]
    assert ring.add[2][2] == 1
    return ring


class TestHomEnumerationOracle:
    def test_matches_brute_force(self, default_corpus, z4_swapped):
        rings = [*default_corpus.rings, z4_swapped]
        pairs = [(s, t) for s in rings for t in rings
                 if t.size ** s.size <= 1024]
        assert len(pairs) == 607 + 31  # corpus pairs, then those with z4_swapped
        for source, target in pairs:
            got = [h.mapping for h in enumerate_good_homomorphisms(source, target)]
            assert got == brute_force_homs(source, target), (source.name, target.name)

    def test_matches_brute_force_on_small_rings(self, small_corpus):
        # the cases where every hyperproduct cell must be compared: 19 of the
        # 29 small rings have a zero that does not absorb, and the rest are
        # not commutative or map into a ring that is not; on the two Klein
        # rings a scan of x <= y alone accepts non-homomorphisms both ways
        assert sum(r.absorb[0] != ZERO_MASK for r in small_corpus) == 19
        left, both = klein_ring("left", lambda x, y: x >= 2), \
            klein_ring("both", lambda x, y: x >= 2 and y >= 2)
        assert not left.commutative and both.commutative
        triangular = [_triangular_z2_with_products(a_set) for a_set in
                      (((1, 0, 1),), ((1, 0, 0), (1, 0, 1)), ((1, 0, 1), (1, 1, 1)))]
        rings = [*small_corpus, *triangular, left, both]
        pairs = [(s, t) for s in rings for t in rings if t.size ** s.size <= 1024]
        assert len(pairs) == 29 * 29 + 3 * (29 + 5) + 2 * (29 + 29 + 2)
        for source, target in pairs:
            got = [h.mapping for h in enumerate_good_homomorphisms(source, target)]
            assert got == brute_force_homs(source, target), (source.name, target.name)

    def test_zero_map_exactly_when_zero_squares_to_zero(self, small_corpus):
        # f = 0 maps every cell to {0} and sends f(x) o f(y) to 0 o 0; pairs
        # into the 10 rings with 0 o 0 != {0} pin the outcome where it fails
        pairs = [(s, t) for s in small_corpus for t in small_corpus]
        without = [(s, t) for s, t in pairs if t.hmul[0][0] != ZERO_MASK]
        assert len(pairs) == 29 * 29 and len(without) == 290
        for source, target in pairs:
            maps = [h.mapping for h in enumerate_good_homomorphisms(source, target)]
            assert ((0,) * source.size in maps) == (target.hmul[0][0] == ZERO_MASK), \
                (source.name, target.name)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relabelling_conjugates_the_homs(self, default_corpus, data):
        rings = default_corpus.rings
        source = data.draw(st.sampled_from(rings))
        target = data.draw(st.sampled_from(
            [r for r in rings if source.size * r.size <= 36]))
        sto = [0, *data.draw(st.permutations(range(1, source.size)))]
        tto = [0, *data.draw(st.permutations(range(1, target.size)))]
        homs = enumerate_good_homomorphisms(source, target)
        moved = enumerate_good_homomorphisms(relabel(source, sto),
                                             relabel(target, tto))
        assert len(moved) == len(homs)
        conjugated = []
        for h in homs:
            mapping = [0] * source.size
            for x, v in enumerate(h.mapping):
                mapping[sto[x]] = tto[v]
            conjugated.append(tuple(mapping))
        assert [h.mapping for h in moved] == sorted(conjugated)


class TestSubrings:
    def test_full_restriction(self, z4):
        sub = subhyperring_restrict(z4, z4.carrier_mask)
        assert sub.ring.add == z4.add

    def test_z6_even_part_is_a_unital_ring(self, z6):
        sub = subhyperring_restrict(z6, mask_of([0, 2, 4]))
        assert sub.ring.size == 3
        # 4 acts as a scalar identity on {0, 2, 4}
        assert sub.ring.identity == 2
        assert sub.ring.scalar_identity
        assert sub.embedding == (0, 2, 4)

    def test_not_closed(self, z6):
        with pytest.raises(NotClosed):
            subhyperring_restrict(z6, mask_of([0, 2]))

    def test_enumeration(self, z4):
        assert subhyperring_masks(z4) == [mask_of([0]), mask_of([0, 2]),
                                          z4.carrier_mask]

    def test_enumeration_matches_brute_force(self, default_corpus, small_corpus):
        left, both = klein_ring("left", lambda x, y: x >= 2), \
            klein_ring("both", lambda x, y: x >= 2 and y >= 2)
        rings = [*small_corpus, left, both,
                 *(r for r in default_corpus.rings if r.size <= 10)]
        assert len(rings) == 29 + 2 + 60
        for ring in rings:
            assert subhyperring_masks(ring) == brute_force_subrings(ring), ring.name


def brute_force_subrings(ring: HyperRing) -> list[int]:
    """Every nonempty subset closed under ``a - b`` and ``a o b``, in the
    order of :func:`subhyperring_masks`."""
    found = []
    for m in range(1, 1 << ring.size):
        members = elements_of(m)
        if all(m >> ring.sub[a][b] & 1 and is_subset(ring.hmul[a][b], m)
               for a in members for b in members):
            found.append(m)
    return sorted(found, key=lambda m: (m.bit_count(), m))


class TestFundamentalRing:
    def test_ordinary_rings_are_unchanged(self, z4):
        fund = fundamental_ring(z4)
        assert fund.ring.size == 4
        assert all(c.bit_count() == 1 for c in fund.classes)

    def test_zero_ring_collapses_to_a_point(self):
        fund = fundamental_ring(ordinary_ring(1))
        assert fund.ring.size == 1

    def test_z6_a_set_collapses_to_parity(self, z6a):
        fund = fundamental_ring(z6a)
        assert [elements_of(c) for c in fund.classes] == [[0, 2, 4], [1, 3, 5]]
        assert fund.ring.size == 2
        assert fund.ring.mul[1][1] == 1

    def test_builds_past_the_registry_limit(self, z12):
        # T40 stops at 10 elements; the construction itself has no cap
        assert fundamental_ring(z12).projection == _oracle_projection(z12)

    def test_image_mask(self, z6a):
        fund = fundamental_ring(z6a)
        assert fund.image_mask(mask_of([0, 2, 4])) == mask_of([0])
        assert fund.image_mask(mask_of([1])) == mask_of([1])

    def test_matches_sum_of_products_oracle(self, default_corpus, small_corpus):
        # 19 of the small rings lack an absorbing zero: some ``0 o c`` or
        # ``c o 0`` is not {0}
        rings = [r for r in default_corpus.rings if r.size <= 10]
        assert len(rings) >= 60
        assert sum(r.absorb[0] != ZERO_MASK for r in small_corpus) == 19
        for ring in rings + small_corpus:
            assert fundamental_ring(ring).projection == _oracle_projection(ring), \
                ring.name

    def test_non_commutative_quotient_is_rejected(self, z2):
        # M2(Z2) has singleton products, so γ* is trivial and the quotient is
        # the non-commutative matrix ring itself
        with pytest.raises(AxiomViolation) as exc:
            fundamental_ring(matrix_hyperring(z2, 2))
        assert exc.value.axiom == "ring-mul-commutative"
        assert exc.value.witness == (1, 2)
        assert str(exc.value) == \
            "axiom 'ring-mul-commutative' violated at witness (1, 2)"

    def test_tables_pass_every_ring_axiom(self, default_corpus):
        # fundamental_ring checks only commutativity; the other laws pass
        # from R by the argument in its docstring, and the oracle checks
        # them all, commutativity included
        checked = 0
        for ring in default_corpus.rings:
            try:
                fund = fundamental_ring(ring)
            except AxiomViolation as exc:
                with pytest.raises(AxiomViolation) as oracle:
                    verify_ordinary_ring(_gamma_tables(ring))
                assert (oracle.value.axiom, oracle.value.witness) == \
                    (exc.axiom, exc.witness), ring.name
                continue
            verify_ordinary_ring(fund.ring)
            checked += 1
        assert checked == len(default_corpus.rings) - 1

    @pytest.mark.parametrize("a_set, classes", [
        (((1, 0, 0), (1, 0, 1)), 2),
        (((1, 0, 1), (1, 1, 1)), 4),
    ])
    def test_non_commutative_carrier_matches_oracle(self, a_set, classes):
        ring = _triangular_z2_with_products(a_set)
        assert not ring.commutative
        fund = fundamental_ring(ring)
        assert fund.ring.size == classes
        assert fund.projection == _oracle_projection(ring)
        verify_ordinary_ring(fund.ring)


def verify_ordinary_ring(ring: OrdinaryRing) -> None:
    """Oracle: every commutative-ring axiom, scanned in full; the first
    failure raises with its least witness."""
    n = ring.size
    for a in range(n):
        if ring.add[a][0] != a:
            raise AxiomViolation("ring-add-identity", (a,))
        if not any(ring.add[a][b] == 0 for b in range(n)):
            raise AxiomViolation("ring-add-inverse", (a,))
    for a in range(n):
        for b in range(n):
            if ring.add[a][b] != ring.add[b][a]:
                raise AxiomViolation("ring-add-commutative", (a, b))
            if ring.mul[a][b] != ring.mul[b][a]:
                raise AxiomViolation("ring-mul-commutative", (a, b))
            for c in range(n):
                if ring.add[ring.add[a][b]][c] != ring.add[a][ring.add[b][c]]:
                    raise AxiomViolation("ring-add-associative", (a, b, c))
                if ring.mul[ring.mul[a][b]][c] != ring.mul[a][ring.mul[b][c]]:
                    raise AxiomViolation("ring-mul-associative", (a, b, c))
                if ring.mul[a][ring.add[b][c]] != \
                        ring.add[ring.mul[a][b]][ring.mul[a][c]]:
                    raise AxiomViolation("ring-distributive", (a, b, c))


def _gamma_tables(ring: HyperRing) -> OrdinaryRing:
    """The class tables of R/γ*, read off each class's least member."""
    proj = _oracle_projection(ring)
    reps = sorted({proj.index(c) for c in proj})
    return OrdinaryRing(
        name=ring.name, size=len(reps),
        add=tuple(tuple(proj[ring.add[x][y]] for y in reps) for x in reps),
        mul=tuple(tuple(proj[(ring.hmul[x][y] & -ring.hmul[x][y]).bit_length() - 1]
                        for y in reps) for x in reps))


def _triangular_z2_with_products(a_set) -> HyperRing:
    """Upper-triangular 2x2 matrices (a, b, c) = [[a, b], [0, c]] over Z2
    with ``x o y = {x e y : e in a_set}``, a non-commutative hyperring."""
    mats = list(itertools.product(range(2), repeat=3))
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        return (x[0] * y[0] % 2, (x[0] * y[1] + x[1] * y[2]) % 2, x[2] * y[2] % 2)

    add = [[index[tuple((p + q) % 2 for p, q in zip(x, y))] for y in mats]
           for x in mats]
    hmul = [[sorted({index[mul(mul(x, e), y)] for e in a_set}) for y in mats]
            for x in mats]
    return validate_hyperring("T2(Z2)", add, hmul, require_commutative=False)


def _sum_closure(ring: HyperRing) -> list[int]:
    """All finite sums of finite products of elements, as subset masks."""
    prods = product_family(ring)
    seen: set[int] = set(prods)
    work = list(prods)
    while work:
        u = work.pop()
        for p in prods:
            s = set_sum(ring, u, p)
            if s not in seen:
                seen.add(s)
                work.append(s)
    return sorted(seen)


def _oracle_projection(ring: HyperRing) -> tuple[int, ...]:
    """γ* straight from its definition: co-members of any finite sum of
    finite products are related, classes numbered by least member."""
    classes: list[int] = []  # disjoint: each is the union of the masks met
    for u in _sum_closure(ring):
        rest = [c for c in classes if not c & u]
        for c in classes:
            if c & u:
                u |= c
        classes = rest + [u]
    classes.sort(key=lambda c: c & -c)
    return tuple(next(i for i, c in enumerate(classes) if c >> x & 1)
                 for x in range(ring.size))


def _two_sided_products(ring: HyperRing) -> set[int]:
    """Every ``r1 o ... o rk``, grown from the singletons by multiplying by
    one more element on either side, cell by cell."""
    seen = {singleton(a) for a in range(ring.size)}
    work = list(seen)
    while work:
        m = work.pop()
        for b in range(ring.size):
            right = left = 0
            for x in bits(m):
                right |= ring.hmul[x][b]
                left |= ring.hmul[b][x]
            for grown in (right, left):
                if grown not in seen:
                    seen.add(grown)
                    work.append(grown)
    return seen


def test_product_family_needs_no_left_products(default_corpus, small_corpus):
    """``product_family`` multiplies on the right only; by associativity
    that reaches every product on a non-commutative carrier too."""
    triangular = [_triangular_z2_with_products(a_set) for a_set in
                  (((1, 0, 1),), ((1, 0, 0), (1, 0, 1)), ((1, 0, 1), (1, 1, 1)))]
    rings = [*default_corpus.rings, *small_corpus, *triangular]
    assert sum(not ring.commutative for ring in rings) == 4
    for ring in rings:
        assert set(product_family(ring)) == _two_sided_products(ring), ring.name


class TestClassicalNIdeal:
    def ordinary(self, n):
        r = ordinary_ring(n)
        return OrdinaryRing(name=f"Z{n}", size=n,
                            add=tuple(tuple((a + b) % n for b in range(n))
                                      for a in range(n)),
                            mul=tuple(tuple((a * b) % n for b in range(n))
                                      for a in range(n)))

    def test_verify_accepts_ordinary(self):
        verify_ordinary_ring(self.ordinary(6))

    def test_z4_n_ideals(self):
        ring = self.ordinary(4)
        assert classical_n_ideal(ring, mask_of([0]))
        assert classical_n_ideal(ring, mask_of([0, 2]))
        assert not classical_n_ideal(ring, (1 << 4) - 1)

    def test_non_ideal_rejected(self):
        ring = self.ordinary(6)
        assert not classical_n_ideal(ring, mask_of([0, 2]))

    def test_nilradical(self):
        assert self.ordinary(12).nilradical_mask() == mask_of([0, 6])
