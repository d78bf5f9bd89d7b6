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
    _detect_identity,
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

    identity, scalar = _detect_identity(n, hmt)
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


def row_matrix_tables(a_set):
    """Matrices [[x, y], [0, 0]] over Z2, a non-commutative ring of order 4
    ((x, y)(u, v) = (xu, xv)), with ``p o q = {p e q : e in a_set}``."""
    elems = list(itertools.product(range(2), repeat=2))
    index = {e: i for i, e in enumerate(elems)}

    def mul(p, q):
        return (p[0] * q[0] % 2, p[0] * q[1] % 2)

    add = [[index[((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)] for q in elems]
           for p in elems]
    hmul = [[sorted({index[mul(mul(p, e), q)] for e in a_set}) for q in elems]
            for p in elems]
    return add, hmul


def base_tables():
    out = []
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
