"""``validate_hyperring`` against a reference validator that scans every law
over the whole ``(a, b, c)`` cube and recomputes every subset product and
sum cell by cell.

Both must agree on every table: the same ring, or the same exception type,
axiom id and witness."""

import dataclasses
import enum
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrings.bitsets import bits, elements_of, is_subset, mask_of
from hyperrings.core import (
    AxiomViolation,
    DimensionMismatch,
    EmptyHyperproduct,
    HyperRing,
    HyperRingError,
    _additive_generators,
    _light_associative,
    validate_hyperring,
)


def reference_validate(name, add, hmul, *, require_commutative=True):
    """Every law over the full ``(a, b, c)`` cube, in the validator's order."""
    n = len(add)
    if n < 1:
        raise DimensionMismatch("carrier must have at least one element")
    if len(hmul) != n:
        raise DimensionMismatch(f"add is {n}x{n} but hmul has {len(hmul)} rows")
    add_rows: list[tuple[int, ...]] = []
    for a, row in enumerate(add):
        if len(row) != n:
            raise DimensionMismatch(f"add row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise DimensionMismatch(
                    f"add[{a}][{b}] = {v!r} is not an index in 0..{n - 1}")
        add_rows.append(tuple(row))
    hmul_rows: list[tuple[int, ...]] = []
    for a, row in enumerate(hmul):
        if len(row) != n:
            raise DimensionMismatch(f"hmul row {a} has length {len(row)}, expected {n}")
        masks = []
        for b, cell in enumerate(row):
            elems = list(cell)
            if not elems:
                raise EmptyHyperproduct(a, b)
            for v in elems:
                if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                    raise DimensionMismatch(
                        f"hmul[{a}][{b}] contains {v!r}, not an index in 0..{n - 1}")
            masks.append(mask_of(elems))
        hmul_rows.append(tuple(masks))

    addt = tuple(add_rows)
    hmt = tuple(hmul_rows)

    # (carrier, +) is an abelian group with identity 0.
    for a in range(n):
        if addt[a][0] != a or addt[0][a] != a:
            raise AxiomViolation("add-identity", (a,), f"0 + {a} or {a} + 0 != {a}")
    for a in range(n):
        for b in range(a + 1, n):
            if addt[a][b] != addt[b][a]:
                raise AxiomViolation("add-commutative", (a, b))
    for a in range(n):
        for b in range(n):
            ab = addt[a][b]
            for c in range(n):
                if addt[ab][c] != addt[a][addt[b][c]]:
                    raise AxiomViolation("add-associative", (a, b, c))
    neg = [None] * n
    for a in range(n):
        for b in range(n):
            if addt[a][b] == 0:
                neg[a] = b
                break
        if neg[a] is None:
            raise AxiomViolation("add-inverse", (a,), "no additive inverse")

    commutative = all(
        hmt[a][b] == hmt[b][a] for a in range(n) for b in range(a + 1, n)
    )
    if require_commutative and not commutative:
        for a in range(n):
            for b in range(a + 1, n):
                if hmt[a][b] != hmt[b][a]:
                    raise AxiomViolation("hmul-commutative", (a, b))

    # Associativity at subset level: (a o b) o c == a o (b o c).
    for a in range(n):
        for b in range(n):
            ab = hmt[a][b]
            for c in range(n):
                left = 0
                for t in bits(ab):
                    left |= hmt[t][c]
                right = 0
                for u in bits(hmt[b][c]):
                    right |= hmt[a][u]
                if left != right:
                    raise AxiomViolation("hmul-associative", (a, b, c))

    # Weak distributivity: a o (b+c) is contained in a o b + a o c.
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = hmt[a][addt[b][c]]
                rhs = 0
                for x in bits(hmt[a][b]):
                    arow = addt[x]
                    for y in bits(hmt[a][c]):
                        rhs |= 1 << arow[y]
                if not is_subset(lhs, rhs):
                    raise AxiomViolation("distributive", (a, b, c))
                if not commutative:
                    lhs2 = hmt[addt[b][c]][a]
                    rhs2 = 0
                    for x in bits(hmt[b][a]):
                        arow = addt[x]
                        for y in bits(hmt[c][a]):
                            rhs2 |= 1 << arow[y]
                    if not is_subset(lhs2, rhs2):
                        raise AxiomViolation("distributive", (b, c, a))

    # Sign compatibility: a o (-b) = (-a) o b = -(a o b).
    for a in range(n):
        for b in range(n):
            prod = hmt[a][b]
            negprod = 0
            for x in bits(prod):
                negprod |= 1 << neg[x]
            if hmt[a][neg[b]] != negprod or hmt[neg[a]][b] != negprod:
                raise AxiomViolation("sign-compatible", (a, b))

    # an identity: a scalar one if there is one, else the least plain one
    def identity_of(law):
        return next((e for e in range(n)
                     if all(law(hmt[a][e], a) and law(hmt[e][a], a) for a in range(n))),
                    None)

    identity = identity_of(lambda cell, a: cell == 1 << a)
    scalar = identity is not None
    if not scalar:
        identity = identity_of(lambda cell, a: cell >> a & 1)
    return HyperRing(name=name, size=n, add=addt, hmul=hmt, identity=identity,
                     scalar_identity=scalar, commutative=commutative)


def outcome(validate, add, hmul, require_commutative):
    """The accepted ring's fields, or the exception's type, axiom, witness,
    cell and message."""
    try:
        ring = validate("t", add, hmul, require_commutative=require_commutative)
    except HyperRingError as exc:
        return (type(exc).__name__, getattr(exc, "axiom", None),
                getattr(exc, "witness", None), getattr(exc, "cell", None), str(exc))
    return ("accept", ring.size, ring.add, ring.hmul, ring.identity,
            ring.scalar_identity, ring.commutative)


def assert_same_outcome(add, hmul, require_commutative):
    want = outcome(reference_validate, add, hmul, require_commutative)
    got = outcome(validate_hyperring, add, hmul, require_commutative)
    assert got == want, (add, hmul, require_commutative)


# -- base tables, all of size <= 5 --------------------------------------------

def cyclic_add(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def row_matrix_tables(a_set, q=2):
    """Matrices [[x, y], [0, 0]] over Z_q, a non-commutative ring of order
    q² ((x, y)(u, v) = (xu, xv)), with ``p o q = {p e q : e in a_set}``."""
    elems = list(itertools.product(range(q), repeat=2))
    index = {e: i for i, e in enumerate(elems)}

    def mul(p, r):
        return (p[0] * r[0] % q, p[0] * r[1] % q)

    add = [[index[((p[0] + r[0]) % q, (p[1] + r[1]) % q)] for r in elems]
           for p in elems]
    hmul = [[sorted({index[mul(mul(p, e), q)] for e in a_set}) for q in elems]
            for p in elems]
    return add, hmul


def relabelled(hmul, perm):
    """The products with element x renamed ``perm[x]``."""
    n = len(hmul)
    out = [[None] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        out[perm[a]][perm[b]] = sorted(perm[x] for x in hmul[a][b])
    return out


# Z3 with its identity at label 2, and the same with 0 o 0 = Z3, where 2 is
# still the scalar identity but 0 does not absorb
Z3_IDENTITY_AT_2 = relabelled([[[(a * b) % 3] for b in range(3)] for a in range(3)],
                              [0, 2, 1])
Z3_ZERO_NOT_ABSORBING = [row[:] for row in Z3_IDENTITY_AT_2]
Z3_ZERO_NOT_ABSORBING[0][0] = [0, 1, 2]
# Z2 with x o y = {x + y}: 0 is the scalar identity and does not absorb
Z2_SUM = [[[0], [1]], [[1], [0]]]
# Z4 with x o y = {0, 2} for odd x and y, else {0}: 2 shares 0's row and
# column, and 3 shares 1's
Z4_PARITY = [[[0, 2] if x % 2 and y % 2 else [0] for y in range(4)]
             for x in range(4)]


def base_tables():
    out = [(cyclic_add(3), Z3_IDENTITY_AT_2), (cyclic_add(3), Z3_ZERO_NOT_ABSORBING),
           (cyclic_add(2), Z2_SUM), (cyclic_add(4), Z4_PARITY)]
    for n in range(1, 6):
        add = cyclic_add(n)
        out.append((add, [[[(a * b) % n] for b in range(n)] for a in range(n)]))
        for a_set in ((1, n - 1), (2, 3)):
            out.append((add, [[sorted({(x * e * y) % n for e in a_set})
                               for y in range(n)] for x in range(n)]))
        if n > 1:
            out.append((add, [[list(range(n))] * n for _ in range(n)]))
            out.append((add, [[[0] if x == 0 or y == 0 else list(range(1, n))
                               for y in range(n)] for x in range(n)]))
    for a_set in (((1, 0),), ((1, 0), (0, 0)), ((1, 1), (0, 1))):
        out.append(row_matrix_tables(a_set))
    return out


BASES = base_tables()


def test_bases_reach_noncommutative_accepts():
    accepted = [validate_hyperring("t", add, hmul, require_commutative=False)
                for add, hmul in BASES[-3:]]
    assert not any(ring.commutative for ring in accepted)


@st.composite
def mutated_tables(draw):
    add, hmul = draw(st.sampled_from(BASES))
    n = len(add)
    add = [row[:] for row in add]
    hmul = [[cell[:] for cell in row] for row in hmul]
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mirror = draw(st.booleans())
        if draw(st.booleans()):
            add[a][b] = draw(st.integers(0, n - 1))
            if mirror:
                add[b][a] = add[a][b]
        else:
            cell = elements_of(draw(st.integers(1, (1 << n) - 1)))
            hmul[a][b] = cell
            if mirror:
                hmul[b][a] = list(cell)
    return add, hmul, draw(st.booleans())


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(mutated_tables())
    def test_mutated_small_tables(self, case):
        assert_same_outcome(*case)

    @pytest.mark.parametrize("require_commutative", [True, False])
    def test_every_single_cell_mutation(self, require_commutative):
        """Each add cell set to each other value and each hmul cell set to
        each other nonempty subset, with and without its mirror cell, on
        every base table of size <= 4."""
        for add, hmul in BASES:
            n = len(add)
            if n > 4:
                continue
            for a, b in itertools.product(range(n), repeat=2):
                for mirror in (False, True):
                    for value in range(n):
                        new = [row[:] for row in add]
                        new[a][b] = value
                        if mirror:
                            new[b][a] = value
                        assert_same_outcome(new, hmul, require_commutative)
                    for m in range(1, 1 << n):
                        new = [row[:] for row in hmul]
                        new[a][b] = elements_of(m)
                        if mirror:
                            new[b][a] = elements_of(m)
                        assert_same_outcome(add, new, require_commutative)

    def test_corpus_rings_and_mutations(self, default_corpus):
        names = [ring.name for ring in default_corpus.rings]
        assert "M2(Z2)" in names
        for ring in default_corpus.rings:
            n = ring.size
            add = [list(row) for row in ring.add]
            hmul = [[elements_of(cell) for cell in row] for row in ring.hmul]
            for require_commutative in (True, False):
                assert_same_outcome(add, hmul, require_commutative)
            rng = random.Random(ring.name)
            for _ in range(3):
                a, b = rng.randrange(n), rng.randrange(n)
                new = [[cell[:] for cell in row] for row in hmul]
                new[a][b] = elements_of(rng.randrange(1, 1 << n))
                if ring.commutative:
                    new[b][a] = new[a][b]
                assert_same_outcome(add, new, ring.commutative)


class TestInverses:
    def test_neg_matches_scan_and_a_directly_built_ring(self, default_corpus):
        for ring in default_corpus.rings:
            n = ring.size
            scan = tuple(next(b for b in range(n) if ring.add[a][b] == 0)
                         for a in range(n))
            direct = dataclasses.replace(ring)  # HyperRing(...), neg not cached
            assert ring.neg == scan, ring.name
            assert "neg" in vars(ring) and "neg" not in vars(direct)
            assert direct.neg == scan, ring.name
            # the cached inverses are not a field: equality and hashing
            # ignore them
            assert direct == ring and hash(direct) == hash(ring)


class TestWitnesses:
    def test_add_associative_witness(self):
        add = cyclic_add(3)
        add[1][1] = 1
        hmul = [[[(a * b) % 3] for b in range(3)] for a in range(3)]
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("bad", add, hmul)
        assert (exc.value.axiom, exc.value.witness) == ("add-associative", (1, 1, 2))

    def test_least_noncommuting_pair(self):
        add = cyclic_add(4)
        hmul = [[[(a * b) % 4] for b in range(4)] for a in range(4)]
        hmul[2][3] = [1]
        hmul[1][3] = [0]
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("bad", add, hmul)
        assert (exc.value.axiom, exc.value.witness) == ("hmul-commutative", (1, 3))

    def test_hmul_cell_parsing(self):
        add = cyclic_add(2)
        with pytest.raises(EmptyHyperproduct) as exc:
            validate_hyperring("bad", add, [[[0], [0]], [[0], iter(())]])
        assert exc.value.cell == (1, 1)
        with pytest.raises(DimensionMismatch, match=r"hmul\[0\]\[1\] contains 2"):
            validate_hyperring("bad", add, [[[0], [0, 2]], [[0], [1]]])
        ring = validate_hyperring("z2", add, [[[0], (0, 0)], [[0], iter([1])]])
        assert ring.hmul == ((1, 1), (1, 2))


def zero_products(n):
    return [[[0] for _ in range(n)] for _ in range(n)]


def z2_z4_tables():
    """Z2 x Z4 with (x, y) at 4x + y, and the componentwise product."""
    def split(a):
        return divmod(a, 4)

    add = [[(split(a)[0] + split(b)[0]) % 2 * 4 + (split(a)[1] + split(b)[1]) % 4
            for b in range(8)] for a in range(8)]
    hmul = [[[split(a)[0] * split(b)[0] * 4 + split(a)[1] * split(b)[1] % 4]
             for b in range(8)] for a in range(8)]
    return add, hmul


def z2_cubed_tables():
    """Z2 x Z2 x Z2 as bit vectors: xor, and the componentwise product."""
    return ([[a ^ b for b in range(8)] for a in range(8)],
            [[[a & b] for b in range(8)] for a in range(8)])


class TestLightsTest:
    """Additive associativity is first decided on a generating set; the
    ordered scan that names the witness runs only when that test fails."""

    def test_commutative_loop_that_is_not_a_group(self):
        # a commutative loop of order 6 (none of order 5 is non-associative)
        add = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
               [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
        assert not _light_associative(add)
        assert_same_outcome(add, zero_products(6), True)
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("loop", add, zero_products(6))
        assert (exc.value.axiom, exc.value.witness) == ("add-associative", (2, 2, 4))

    @pytest.mark.parametrize("tables, gens", [(z2_z4_tables, [1, 4]),
                                              (z2_cubed_tables, [1, 2, 4])])
    def test_groups_with_several_generators(self, tables, gens):
        add, hmul = tables()
        assert _additive_generators(add) == gens
        assert _light_associative(add)
        for products in (hmul, zero_products(8)):
            assert_same_outcome(add, products, True)
        for a, b in itertools.combinations(range(1, 8), 2):
            for value in range(8):
                new = [row[:] for row in add]
                new[a][b] = new[b][a] = value
                assert_same_outcome(new, hmul, True)


class Label(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


class TestParse:
    def test_int_enum_values_are_indices(self):
        add = cyclic_add(3)
        hmul = [[sorted({(x * e * y) % 3 for e in (1, 2)}) for y in range(3)]
                for x in range(3)]
        labelled_add = [[Label(v) for v in row] for row in add]
        labelled_hmul = [[[Label(v) for v in cell] for cell in row] for row in hmul]
        assert_same_outcome(labelled_add, labelled_hmul, True)
        ring = validate_hyperring("z3", labelled_add, labelled_hmul)
        assert ring.hmul == validate_hyperring("z3", add, hmul).hmul

    @pytest.mark.parametrize("bad", [1.0, True, None, -1])
    def test_values_that_are_not_indices(self, bad):
        add = cyclic_add(3)
        hmul = [[[(a * b) % 3] for b in range(3)] for a in range(3)]
        for a, b in itertools.product(range(3), repeat=2):
            new = [row[:] for row in add]
            new[a][b] = bad
            assert_same_outcome(new, hmul, True)
            for cell in ([bad], [0, bad], [bad, 0]):
                new = [row[:] for row in hmul]
                new[a][b] = cell
                assert_same_outcome(add, new, True)


# -- the prunes of the ordered scans ------------------------------------------

def masks(hmul):
    return [[mask_of(cell) for cell in row] for row in hmul]


def associativity_fails(hmt, a, b, c):
    left = 0
    for t in bits(hmt[a][b]):
        left |= hmt[t][c]
    right = 0
    for u in bits(hmt[b][c]):
        right |= hmt[a][u]
    return left != right


def sign_law_tables(add, hmul, commutative, count):
    """Tables that satisfy the sign law but not always the other laws: the
    given tables, with the cells of one or two pairs of sign
    representatives redrawn (with their mirror cells when
    ``commutative``) and their sign orbits following
    ``a o (-b) = (-a) o b = -(a o b)``; a cell of a self-negative element
    is closed under negation."""
    n = len(add)
    neg = [row.index(0) for row in add]
    reps = [x for x in range(n) if x <= neg[x]]
    rng = random.Random(f"sign:{n}:{hmul}")
    for _ in range(count):
        new = [row[:] for row in hmul]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(reps), rng.choice(reps)
            cell = set(elements_of(rng.randrange(1, 1 << n)))
            if a == neg[a] or b == neg[b]:
                cell |= {neg[x] for x in cell}
            for x, y, flip in ((a, b, False), (neg[a], b, True),
                               (a, neg[b], True), (neg[a], neg[b], False)):
                new[x][y] = sorted({neg[t] for t in cell} if flip else cell)
                if commutative:
                    new[y][x] = new[x][y]
        yield new


class TestPrunes:
    """The scans visit only the tuples that can be the least witness; each
    case is compared with ``reference_validate``, which scans every tuple."""

    @pytest.mark.parametrize("hmul, witness, later", [
        # Z3: 1 o 1 = {2}, 1 o 2 = 2 o 2 = {1}
        ([[[0], [0], [0]], [[0], [2], [1]], [[0], [1], [1]]],
         (1, 1, 2), [(2, 1, 1)]),
        ([[[0], [0], [0], [0]], [[0], [1], [2], [1, 2, 3]],
          [[0], [2], [0], [0, 1, 3]], [[0], [1, 2, 3], [0, 1, 3], [0, 1, 3]]],
         (1, 2, 3), [(2, 1, 3), (3, 1, 2), (3, 2, 1)]),
    ])
    def test_failing_multiset_in_arrangements_with_b_below_a(self, hmul, witness,
                                                             later):
        """A commutative scan takes ``b >= a``; the multiset of the least
        witness also fails in arrangements with ``b < a``, which it skips."""
        hmt = masks(hmul)
        for t in later:
            assert t[1] < t[0] and sorted(t) == sorted(witness)
            assert associativity_fails(hmt, *t)
        add = cyclic_add(len(hmul))
        assert_same_outcome(add, hmul, True)
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("t", add, hmul)
        assert (exc.value.axiom, exc.value.witness) == ("hmul-associative", witness)

    def test_bases_hold_absorbing_zero_and_scalar_identity(self):
        """An absorbing 0 and a scalar identity, at a label other than 0
        and 1, each present and absent among the base tables, whose every
        cell mutation ``test_every_single_cell_mutation`` compares."""
        combos = set()
        late_identity = set()  # whether 0 absorbs, where the identity is > 1
        for add, hmul in BASES:
            n = len(add)
            if n > 4:
                continue
            hmt = masks(hmul)
            singles = [1 << a for a in range(n)]
            scalar = next((e for e in range(n) if hmt[e] == singles
                           and [row[e] for row in hmt] == singles), None)
            absorbing = all(cell == 1 for cell in hmt[0]) and all(
                row[0] == 1 for row in hmt)
            combos.add((absorbing, scalar is not None))
            if scalar is not None and scalar > 1:
                late_identity.add(absorbing)
        assert combos == set(itertools.product((True, False), repeat=2))
        assert late_identity == {True, False}

    def test_zero_skipped_as_b_only_when_it_absorbs(self):
        """On Z2 with ``x o y = {x + y}``, 0 is the scalar identity but does
        not absorb, and ``1 o (0 + 0) = {1}`` is not in ``1 o 0 + 1 o 0 =
        {0}``; skipping ``b = 0`` would name ``(1, 1, 1)`` instead."""
        add, hmul = cyclic_add(2), Z2_SUM
        assert_same_outcome(add, hmul, True)
        with pytest.raises(AxiomViolation) as exc:
            validate_hyperring("t", add, hmul)
        assert (exc.value.axiom, exc.value.witness) == ("distributive", (1, 0, 0))

    def test_bases_hold_duplicate_rows(self):
        """Only the least of the elements with equal row and column is
        scanned.  On ``Z4_PARITY`` 2 shares 0's row and 3 shares 1's; on
        the row matrices over Z2 rows repeat with different columns, so a
        class needs both.  ``test_every_single_cell_mutation`` compares
        each cell mutation of both."""
        hmt = masks(Z4_PARITY)
        assert hmt[0] == hmt[2] and hmt[1] == hmt[3]
        add, hmul = row_matrix_tables(((1, 0),))
        hmt = masks(hmul)
        cols = list(zip(*hmt))
        assert hmt[2] == hmt[3] and cols[2] != cols[3]
        assert (cyclic_add(4), Z4_PARITY) in BASES and (add, hmul) in BASES

    def test_sign_law_tables_fail_off_the_representatives(self):
        """Where the sign law holds, the scans take only the sign-orbit
        representatives; these tables fail at associativity or
        distributivity with failing triples off the representatives, and
        the least witness is still named.  The row matrices over Z3 are
        not commutative, so both halves of the sign law are read."""
        bases = [(cyclic_add(n), [[sorted({(x * e * y) % n for e in a_set})
                                   for y in range(n)] for x in range(n)], True)
                 for n in (4, 5, 6) for a_set in ((1,), (1, n - 1))]
        bases += [row_matrix_tables(((1, 0),), 3) + (False,),
                  row_matrix_tables(((1, 0), (2, 0)), 3) + (False,)]
        seen = set()
        off = 0  # tables with a failing triple off the representatives
        for add, hmul, commutative in bases:
            n = len(add)
            neg = [row.index(0) for row in add]
            for new in sign_law_tables(add, hmul, commutative, 40):
                want = outcome(reference_validate, add, new, commutative)
                assert want[1] != "sign-compatible"
                assert outcome(validate_hyperring, add, new, commutative) == want
                seen.add((commutative, "accept" if want[0] == "accept" else want[1]))
                if want[1] == "hmul-associative":
                    hmt = masks(new)
                    assert all(x <= neg[x] for x in want[2])
                    off += any(associativity_fails(hmt, a, b, c)
                               for a, b, c in itertools.product(range(n), repeat=3)
                               if any(x > neg[x] for x in (a, b, c)))
        assert {(True, "hmul-associative"), (True, "distributive"),
                (True, "accept"), (False, "hmul-associative")} <= seen, seen
        assert off >= 200, off

    def test_cell_mutations_of_a_noncommutative_ring_with_signs(self):
        """The row matrices over Z3 have elements that are not their own
        negatives; each cell with one element added or removed breaks or
        keeps either half of the sign law."""
        add, hmul = row_matrix_tables(((1, 0),), 3)
        assert_same_outcome(add, hmul, False)
        for a, b in itertools.product(range(9), repeat=2):
            for x in range(9):
                cell = sorted(set(hmul[a][b]) ^ {x})
                if cell:
                    new = [row[:] for row in hmul]
                    new[a][b] = cell
                    assert_same_outcome(add, new, False)

    def test_every_cell_mutation_of_m2_z2(self, default_corpus):
        """M2(Z2) is not commutative: each of its 256 hyperproduct cells
        with one element added or removed.  (A changed add cell of its
        carrier Z2^4 fails a group law before any product is read; Light's
        test covers those on Z2^3.)"""
        ring = next(r for r in default_corpus.rings if r.name == "M2(Z2)")
        n = ring.size
        add = [list(row) for row in ring.add]
        hmul = [[elements_of(cell) for cell in row] for row in ring.hmul]
        assert_same_outcome(add, hmul, False)
        for a, b in itertools.product(range(n), repeat=2):
            for x in range(n):
                cell = sorted(set(hmul[a][b]) ^ {x})
                if cell:
                    new = [row[:] for row in hmul]
                    new[a][b] = cell
                    assert_same_outcome(add, new, False)
