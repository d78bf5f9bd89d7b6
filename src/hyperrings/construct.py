"""Derived hyperrings: quotients, direct products, matrix structures,
subring restrictions, good homomorphisms, and the fundamental ordinary-ring
quotient R/γ*.

γ* is the smallest equivalence whose quotient is an ordinary ring
(Vougiouklis, "The fundamental relation in hyperrings", 1991; Davvaz &
Leoreanu-Fotea, *Hyperring Theory and Applications*, 2007).  It is built
here as the quotient by the hyperideal generated by cell differences, not
by listing the finite sums of finite products that define it: since
(R, +) is a group, γ* is the coset partition of one hyperideal, and
:func:`fundamental_ring` proves which.  Each cell of that quotient is a
singleton, so every ring law except commutativity passes to it from R;
only commutativity is checked on its tables.

Quotients, products and subring restrictions prove their output tables a
hyperring (the proofs are in their docstrings) and hand them to
:func:`~hyperrings.core.build_hyperring`.  The matrix construction is
validated in full: weak distributivity does not make its product
associative.  It is the single place allowed to produce a non-commutative
carrier (flagged on the result), and the only construction with a carrier
cap, since its carrier has ``|R|^(n*n)`` elements; γ* and the others run
at any carrier size.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple, Optional, Sequence

from .bitsets import bits, elements_of, is_subset, mask_of, singleton
from .core import (
    ZERO_MASK,
    AxiomViolation,
    CapExceeded,
    HyperRing,
    HyperRingError,
    _additive_generators,
    _noncommuting_pair,
    build_hyperring,
    cached_on_ring,
    set_sum,
    validate_hyperring,
)
from .ideals import generated_ideal_mask, is_hyperideal

MATRIX_CARRIER_CAP = 16  # the bound on the |R|^(n*n) matrix carrier
HOM_CANDIDATE_CAP = 65536  # raw generator assignments one hom search may try


class NotAdditive(HyperRingError):
    """A candidate map fails to preserve addition; carries a witness pair."""

    def __init__(self, x: int, y: int):
        super().__init__(f"map does not preserve addition at ({x}, {y})")
        self.witness = (x, y)


class NotMultiplicative(HyperRingError):
    """A candidate map fails to preserve hyperproducts; carries a witness pair."""

    def __init__(self, x: int, y: int):
        super().__init__(f"map does not preserve hyperproducts at ({x}, {y})")
        self.witness = (x, y)


class NotClosed(HyperRingError):
    """A subset is not closed under the ring operations; carries a witness."""

    def __init__(self, detail: str, witness: tuple):
        super().__init__(f"subset not closed: {detail} at {witness}")
        self.witness = witness


# ---------------------------------------------------------------------------
# quotient by a hyperideal


class QuotientImage(NamedTuple):
    ring: HyperRing
    projection: tuple[int, ...]  # element of the source -> class index
    source_name: str
    ideal: int

    def image_mask(self, members: int) -> int:
        out = 0
        for x in bits(members):
            out |= singleton(self.projection[x])
        return out

    def preimage_mask(self, members: int) -> int:
        out = 0
        for x, cls in enumerate(self.projection):
            if members & singleton(cls):
                out |= singleton(x)
        return out


def quotient(ring: HyperRing, ideal: int) -> QuotientImage:
    """Quotient by the additive cosets of a hyperideal.

    Each coset cell is the set of classes its least representatives' cell
    meets.  That does not depend on the representatives: for ``i`` in the
    ideal I, weak distributivity and absorption (``i o b`` and ``b o i`` lie
    in I) give ``(a+i) o b <= a o b + i o b <= a o b + I``, and, as
    ``a = (a+i) + (-i)``, also ``a o b <= (a+i) o b + I``; the same holds on
    the right.  So the projection ``p`` satisfies ``p(x o y) = p(x) o p(y)``
    and ``p(x + y) = p(x) + p(y)``, and it maps subset products and sums
    onto subset products and sums.  Every law of R then passes to R/I as
    its image under p, and the tables go to :func:`build_hyperring`
    unchecked.

    The image of a cell under p depends on the cell alone, so each distinct
    cell at a pair of representatives is projected once and its image
    reused.  Only those cells are projected: on a coarse quotient most of
    the n² cells of R are never read.
    """
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

    reps = [(m & -m).bit_length() - 1 for m in coset_masks]
    add_q = [[proj[ring.add[x][y]] for y in reps] for x in reps]
    images: dict[int, int] = {}  # source cell -> its image under p
    hmul_q = []
    for x in reps:
        row = ring.hmul[x]
        qrow = []
        for y in reps:
            cell = row[y]
            image = images.get(cell)
            if image is None:
                image = 0
                for t in bits(cell):
                    image |= 1 << proj[t]
                images[cell] = image
            qrow.append(image)
        hmul_q.append(qrow)
    params = ",".join(map(str, elements_of(ideal)))
    out = build_hyperring(
        f"{ring.name}/{{{params}}}", add_q, hmul_q,
        provenance={"construction": "quotient", "source": ring.name,
                    "params": params},
    )
    return QuotientImage(ring=out, projection=proj, source_name=ring.name, ideal=ideal)


# ---------------------------------------------------------------------------
# direct product


def product_pair_index(n2: int, a1: int, a2: int) -> int:
    return a1 * n2 + a2


def product_subset_mask(n2: int, mask1: int, mask2: int) -> int:
    out = 0
    for a1 in bits(mask1):
        base = a1 * n2
        for a2 in bits(mask2):
            out |= 1 << (base + a2)
    return out


def direct_product(r1: HyperRing, r2: HyperRing) -> HyperRing:
    """Componentwise sum and hyperproduct on the pair carrier.

    Subset products and sums of rectangles are rectangles, as in
    ``(A1 x A2) + (C1 x C2) = (A1 + C1) x (A2 + C2)``, so every law holds
    componentwise, and the tables go to :func:`build_hyperring` unchecked.
    """
    n1, n2 = r1.size, r2.size
    pairs = [(a1, a2) for a1 in range(n1) for a2 in range(n2)]
    add = [[product_pair_index(n2, r1.add[a1][b1], r2.add[a2][b2])
            for b1, b2 in pairs] for a1, a2 in pairs]
    hmul = [[product_subset_mask(n2, r1.hmul[a1][b1], r2.hmul[a2][b2])
             for b1, b2 in pairs] for a1, a2 in pairs]
    return build_hyperring(
        f"{r1.name}x{r2.name}", add, hmul,
        provenance={"construction": "product", "source": f"{r1.name},{r2.name}",
                    "params": f"{n1}x{n2}"},
    )


def product_factor_sizes(ring: HyperRing) -> Optional[tuple[int, int]]:
    """The factor sizes ``(n1, n2)`` of product provenance, or None.  A ring
    read from a file can carry any provenance, so ``params`` counts only
    when it is ``<n1>x<n2>`` with ``n1 * n2`` the carrier size."""
    prov = dict(ring.provenance or ())
    if prov.get("construction") != "product":
        return None
    sizes = re.fullmatch(r"([0-9]+)x([0-9]+)", prov.get("params", ""))
    if sizes is None:
        return None
    n1, n2 = int(sizes[1]), int(sizes[2])
    return (n1, n2) if n1 * n2 == ring.size else None


# ---------------------------------------------------------------------------
# matrix structures


def matrix_cap_exceeded(ring: HyperRing, n: int) -> Optional[CapExceeded]:
    """What :func:`matrix_hyperring` raises when the ``|R|^(n*n)`` carrier
    exceeds ``MATRIX_CARRIER_CAP``, or None."""
    size = ring.size ** (n * n)
    if size > MATRIX_CARRIER_CAP:
        return CapExceeded("matrix carrier size", size, MATRIX_CARRIER_CAP)
    return None


def matrix_hyperring(ring: HyperRing, n: int) -> HyperRing:
    """The n-by-n matrix structure over the ring (n at most 2).

    Entry (i, k) of a product is the elementwise sum over j of the entry
    hyperproducts; a product of two matrices is the set of matrices whose
    entries are picked independently from those sums.  For n = 2 the result
    is generally non-commutative and is flagged as such.
    """
    if n < 1 or n > 2:
        raise ValueError("matrix dimension must be 1 or 2")
    if ring.identity is None or not ring.scalar_identity:
        raise ValueError("matrix construction requires a scalar identity")
    if (exceeded := matrix_cap_exceeded(ring, n)) is not None:
        raise exceeded
    cells = n * n
    size = ring.size ** cells

    def decode(idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(cells):
            out.append(idx % ring.size)
            idx //= ring.size
        return tuple(out)  # row-major: (e00, e01, e10, e11)

    def encode(entries: Sequence[int]) -> int:
        idx = 0
        for e in reversed(entries):
            idx = idx * ring.size + e
        return idx

    mats = [decode(i) for i in range(size)]
    add = [[0] * size for _ in range(size)]
    hmul = [[None] * size for _ in range(size)]
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            add[i][j] = encode([ring.add[A[c]][B[c]] for c in range(cells)])
            entry_sets = []
            for r in range(n):
                for c in range(n):
                    acc = None
                    for t in range(n):
                        term = ring.hmul[A[r * n + t]][B[t * n + c]]
                        acc = term if acc is None else set_sum(ring, acc, term)
                    entry_sets.append(elements_of(acc))
            prod = set()
            for combo in itertools.product(*entry_sets):
                prod.add(encode(combo))
            hmul[i][j] = sorted(prod)
    return validate_hyperring(
        f"M{n}({ring.name})", add, hmul,
        require_commutative=False,
        provenance={"construction": "matrix", "source": ring.name,
                    "params": f"n={n}"},
    )


def matrix_ideal_mask(ring: HyperRing, n: int, members: int) -> int:
    """Mask of all matrices whose entries all lie in the given subset."""
    cells = n * n
    out = 0
    for combo in itertools.product(elements_of(members), repeat=cells):
        idx = 0
        for e in reversed(combo):
            idx = idx * ring.size + e
        out |= 1 << idx
    return out


# ---------------------------------------------------------------------------
# good homomorphisms


class GoodHomomorphism(NamedTuple):
    source: HyperRing
    target: HyperRing
    mapping: tuple[int, ...]

    @property
    def kernel(self) -> int:
        return mask_of(x for x, v in enumerate(self.mapping) if v == 0)

    @property
    def injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @property
    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    def image_mask(self, members: int) -> int:
        return mask_of(self.mapping[x] for x in bits(members))

    def preimage_mask(self, members: int) -> int:
        return mask_of(x for x, v in enumerate(self.mapping)
                       if members & singleton(v))


def check_good_homomorphism(mapping: Sequence[int], source: HyperRing,
                            target: HyperRing) -> GoodHomomorphism:
    """Validate that a total map preserves addition exactly and
    hyperproducts as set images.

    A map value is an index by the rule of
    :func:`~hyperrings.core.validate_hyperring`: an ``int`` (``bool``
    excluded) in ``0..target.size-1``; any other value raises
    ``ValueError``."""
    if len(mapping) != source.size:
        raise ValueError("map must be total on the source carrier")
    n = target.size
    for x, v in enumerate(mapping):
        if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))
                or not 0 <= v < n):
            raise ValueError(f"map value f({x}) = {v!r} is not an index in 0..{n - 1}")
    for x in range(source.size):
        for y in range(source.size):
            if mapping[source.add[x][y]] != target.add[mapping[x]][mapping[y]]:
                raise NotAdditive(x, y)
    for x in range(source.size):
        for y in range(source.size):
            image = mask_of(mapping[t] for t in bits(source.hmul[x][y]))
            if image != target.hmul[mapping[x]][mapping[y]]:
                raise NotMultiplicative(x, y)
    return GoodHomomorphism(source=source, target=target, mapping=tuple(mapping))


@cached_on_ring
def _hom_plan(source: HyperRing) -> tuple[tuple[int, ...], tuple, tuple]:
    """The source side of the hom search: the greedy generators ``gens``,
    then, by BFS from 0, the tree steps ``(b, a, i)`` that fill
    ``f(b) = f(a) + f(gens[i])`` and the other ``(b, a, i)`` edges, on which
    that equation must be checked."""
    gens = _additive_generators(source.add)
    steps: list[tuple[int, int, int]] = []
    edges: list[tuple[int, int, int]] = []
    seen = ZERO_MASK
    queue = [0]
    for a in queue:
        for i, g in enumerate(gens):
            b = source.add[a][g]
            if seen >> b & 1:
                edges.append((b, a, i))
            else:
                seen |= 1 << b
                queue.append(b)
                steps.append((b, a, i))
    return tuple(gens), tuple(steps), tuple(edges)


@cached_on_ring
def _hom_cells(source: HyperRing, skip: int, half: bool) -> tuple:
    """The hyperproduct cells ``(x, y, members of x o y)`` the hom search
    compares: ``x, y >= skip``, ``x <= y`` when ``half``, and one cell per
    sign orbit, ``x <= -x`` and ``y <= -y``.

    The sign prune holds for any target.  The cells are compared only once
    the edge check has proved f additive, so ``f(-S) = -f(S)`` for every
    subset S.  Both rings are sign-compatible, so
    ``f(x o (-y)) = f(-(x o y)) = -f(x o y)`` and
    ``f(x) o f(-y) = f(x) o (-f(y)) = -(f(x) o f(y))``.  Negation is a
    bijection on subsets, so the cell ``(x, -y)`` holds exactly when
    ``(x, y)`` holds, and likewise ``(-x, y)``.  Replacing x by the lesser
    of x and -x keeps ``x >= skip``, since ``-x = 0`` only for ``x = 0``, and
    likewise y; then swapping the pair when ``half`` keeps both
    representatives.  So every cell the two other prunings keep has one
    here that holds exactly when it does."""
    neg = source.neg
    reps = [x for x in range(skip, source.size) if x <= neg[x]]
    return tuple((x, y, bits(source.hmul[x][y])) for i, x in enumerate(reps)
                 for y in (reps[i:] if half else reps))


def enumerate_good_homomorphisms(source: HyperRing,
                                 target: HyperRing) -> list[GoodHomomorphism]:
    """All good homomorphisms, found by assigning generator images.

    An additive map is fixed by the images of an additive generating set
    ``gens``, and a generator of additive order k can only go to an element
    whose order divides k, so only those images are tried (Zn -> Zm: gcd(n, m)
    of the m elements).  Each assignment fills the map in one pass along a
    spanning tree of steps ``b = a + g`` from 0 and then checks
    ``f(a + g) = f(a) + f(g)`` on every other (element, generator) edge.
    That proves additivity: every y is a sum of generators, and induction on
    that sum gives ``f(x + y) = f(x) + f(y)``.  The generators, steps and
    edges depend on the source alone and are kept on it, and so are the
    cells below, once per choice of the two prunings.

    The zero map is settled in closed form.  ``f = 0`` is additive, and
    every cell of the source is nonempty, so ``f(x o y) = {0}`` and
    ``f(x) o f(y) = 0 o 0``: it is a good homomorphism exactly when
    ``0 o 0 = {0}`` in the target.  It is always the first assignment,
    because 0 has additive order 1 and so heads every list of choices; that
    one is taken off and only the rest are scanned.

    Only the hyperproduct cells ``f(x o y) = f(x) o f(y)`` that can fail are
    then compared, stopping at the first one that fails:

    * when both rings are commutative, the cell ``(y, x)`` states the same
      equation as ``(x, y)``, so only ``x <= y`` is scanned;
    * when 0 absorbs on both sides in both rings (``0 o r = r o 0 = {0}``),
      row 0 and column 0 read ``{0} = {0}``, because an additive map sends
      0 to 0, so they are skipped;
    * the cells ``(x, -y)`` and ``(-x, y)`` hold exactly when ``(x, y)``
      does, so one cell per sign orbit is scanned (the proof is in
      :func:`_hom_cells`).

    :func:`check_good_homomorphism` stays the public validator of a single
    map.  The cap counts the raw assignments, ``target.size ** len(gens)``,
    before any pruning.  Deterministic output order (lexicographic in the
    map table).
    """
    gens, steps, edges = _hom_plan(source)
    total = target.size ** len(gens)
    if total > HOM_CANDIDATE_CAP:
        raise CapExceeded("homomorphism candidates", total, HOM_CANDIDATE_CAP)
    tadd, thmul = target.add, target.hmul
    sord, tord = source.add_order, target.add_order
    choices = [[t for t in range(target.size) if sord[g] % tord[t] == 0]
               for g in gens]
    n = source.size
    found: list[GoodHomomorphism] = []
    assignments = itertools.product(*choices)
    next(assignments)  # the zero map
    if thmul[0][0] == ZERO_MASK:
        found.append(GoodHomomorphism(source=source, target=target,
                                      mapping=(0,) * n))
    skip = int(source.absorb[0] == ZERO_MASK and target.absorb[0] == ZERO_MASK)
    cells = _hom_cells(source, skip, source.commutative and target.commutative)
    for images in assignments:
        f = [0] * n
        for b, a, i in steps:
            f[b] = tadd[f[a]][images[i]]
        for b, a, i in edges:
            if f[b] != tadd[f[a]][images[i]]:
                break
        else:
            for x, y, cell in cells:
                image = 0
                for t in cell:
                    image |= 1 << f[t]
                if image != thmul[f[x]][f[y]]:
                    break
            else:
                found.append(GoodHomomorphism(source=source, target=target,
                                              mapping=tuple(f)))
    found.sort(key=lambda h: h.mapping)
    return found


# ---------------------------------------------------------------------------
# subhyperrings


class SubringImage(NamedTuple):
    ring: HyperRing
    embedding: tuple[int, ...]  # subring element index -> source element

    def restrict_mask(self, members: int) -> int:
        out = 0
        for i, x in enumerate(self.embedding):
            if members & singleton(x):
                out |= singleton(i)
        return out


def subhyperring_restrict(ring: HyperRing, subset: int) -> SubringImage:
    """Restrict the tables to a subset closed under subtraction and the
    hyperoperation; the inclusion is then a good homomorphism.

    Every law is a universal statement about elements, subset products and
    subset sums.  Closure, checked here (:class:`NotClosed`), keeps those
    products and sums inside the subset, so each law restricts unchanged,
    and the tables go to :func:`build_hyperring` unchecked.
    """
    if subset == 0:
        raise NotClosed("empty subset", ())
    for a in bits(subset):
        for b in bits(subset):
            d = ring.sub[a][b]
            if not subset & singleton(d):
                raise NotClosed("subtraction leaves the subset", (a, b))
            if not is_subset(ring.hmul[a][b], subset):
                raise NotClosed("hyperproduct leaves the subset", (a, b))
    elems = elements_of(subset)
    index = {x: i for i, x in enumerate(elems)}
    add = [[index[ring.add[x][y]] for y in elems] for x in elems]
    hmul = [[mask_of(index[t] for t in bits(ring.hmul[x][y])) for y in elems]
            for x in elems]
    params = ",".join(map(str, elems))
    out = build_hyperring(
        f"{ring.name}|{{{params}}}", add, hmul,
        provenance={"construction": "subring", "source": ring.name,
                    "params": params},
    )
    return SubringImage(ring=out, embedding=tuple(elems))


def subhyperring_masks(ring: HyperRing) -> list[int]:
    """All subsets closed under subtraction and the hyperoperation.

    Each is reached by closing a closed set grown by one element, and the
    closure runs semi-naively: when a closed m grows by new elements, a pair
    of elements of m already has ``a - b`` and ``a o b`` in m, so only pairs
    that contain a new element can add members.  Each round takes every new
    a and every b of the set, adds ``a - b``, ``b - a``, ``a o b`` and
    ``b o a``, and the members not yet in the set are the next round's new
    elements; the set is closed when a round adds none.
    """
    sub, hmul = ring.sub, ring.hmul

    def close(m: int, new: int) -> int:
        """The least closed superset of ``m | new``, for a closed m."""
        new &= ~m
        m |= new
        while new:
            grown = 0
            for a in bits(new):
                sub_a, hmul_a = sub[a], hmul[a]
                for b in bits(m):
                    grown |= (1 << sub_a[b] | 1 << sub[b][a]
                              | hmul_a[b] | hmul[b][a])
            new = grown & ~m
            m |= new
        return m

    found: set[int] = set()
    work = [close(0, singleton(a)) for a in range(ring.size)]
    while work:
        m = work.pop()
        if m in found:
            continue
        found.add(m)
        if m == ring.carrier_mask:
            continue
        for x in range(ring.size):
            if not m & singleton(x):
                work.append(close(m, singleton(x)))
    return sorted(found, key=lambda m: (m.bit_count(), m))


# ---------------------------------------------------------------------------
# fundamental ordinary-ring quotient


class OrdinaryRing(NamedTuple):
    """A finite commutative ring given by plain operation tables."""

    name: str
    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    def nilradical_mask(self) -> int:
        out = 0
        for x in range(self.size):
            seen = set()
            p = x
            while p not in seen:
                seen.add(p)
                p = self.mul[p][x]
            if 0 in seen:
                out |= singleton(x)
        return out

    def is_ideal(self, members: int) -> bool:
        if members == 0 or not members & 1:
            return False
        neg = [next(b for b in range(self.size) if self.add[a][b] == 0)
               for a in range(self.size)]
        for a in bits(members):
            for b in bits(members):
                if not members & singleton(self.add[a][neg[b]]):
                    return False
        for x in bits(members):
            for r in range(self.size):
                if not members & singleton(self.mul[r][x]):
                    return False
        return True


def classical_n_ideal(ring: OrdinaryRing, members: int) -> bool:
    """Ordinary-ring test: a proper ideal where ``xy`` inside and x not
    nilpotent force y inside; the nilradical is computed by powers."""
    if not ring.is_ideal(members):
        return False
    if members == (1 << ring.size) - 1:
        return False
    nil = ring.nilradical_mask()
    for x in range(ring.size):
        if nil & singleton(x):
            continue
        for y in range(ring.size):
            if members & singleton(y):
                continue
            if members & singleton(ring.mul[x][y]):
                return False
    return True


class FundamentalRingImage(NamedTuple):
    source_name: str
    classes: tuple[int, ...]  # class index -> mask of source elements
    projection: tuple[int, ...]  # source element -> class index
    ring: OrdinaryRing

    def image_mask(self, members: int) -> int:
        out = 0
        for x in bits(members):
            out |= singleton(self.projection[x])
        return out


def fundamental_ring(ring: HyperRing) -> FundamentalRingImage:
    """Quotient by γ*, the smallest equivalence whose quotient is an
    ordinary ring: the quotient by one hyperideal.

    γ* is the transitive closure of "co-members of a finite sum of finite
    products".  It is the least congruence (compatible with + and, on both
    sides, with the hyperoperation) that puts every hyperproduct cell in
    one class (Vougiouklis 1991).  Let D be the set of differences
    ``a - m``, with a in a cell and m that cell's least member, and let I be
    the hyperideal D generates.  Then γ* is the coset partition of I:

    * The cosets of I form a congruence that puts each cell in one class.
      A cell ``r o c`` lies in ``m + D``, so in one coset.  Take
      ``x = r + i`` with i in I.  Then
      ``x o c <= r o c + i o c <= r o c + I``, the coset of ``r o c``;
      likewise ``c o x <= c o r + c o i``, and + respects cosets.
    * Every such congruence contains the cosets of I.  Its class N of 0 is
      an additive subgroup, each class is a coset of N, and N contains D.
      Take t in ``0 o c``, which lies in ``(0+0) o c <= 0 o c + 0 o c``, so
      ``t = u + v`` with u, v in ``0 o c``.  Then ``t ~ u``, so
      ``t ~ t + v`` and ``v ~ 0``; and ``v ~ t``, so ``t ~ 0``.  So
      ``0 o c`` lies in N, and so do ``n o c`` and ``c o n`` for n in N,
      which share a class with ``0 o c`` and ``c o 0``.  N is a hyperideal
      containing D, so it contains I.

    So R/γ* is :func:`quotient` by I, which proves R/I a hyperring and
    numbers its cosets by least member.  Each cell of R/I is a singleton,
    where weak distributivity is distributivity, so R/I is a ring, and
    commutativity alone is checked: the least non-commuting pair raises
    ``AxiomViolation("ring-mul-commutative")`` (``M2(Z2)``).
    """
    sub = ring.sub
    diffs = 0
    for cell in {cell for row in ring.hmul for cell in row}:
        least = (cell & -cell).bit_length() - 1
        for a in bits(cell):
            diffs |= 1 << sub[a][least]
    q = quotient(ring, generated_ideal_mask(ring, diffs))
    classes = [0] * q.ring.size
    for x, c in enumerate(q.projection):
        classes[c] |= singleton(x)
    mul = tuple(tuple(cell.bit_length() - 1 for cell in row) for row in q.ring.hmul)
    pair = _noncommuting_pair(mul)
    if pair is not None:
        raise AxiomViolation("ring-mul-commutative", pair)
    return FundamentalRingImage(
        source_name=ring.name,
        classes=tuple(classes),
        projection=q.projection,
        ring=OrdinaryRing(name=f"{ring.name}/fundamental", size=q.ring.size,
                          add=q.ring.add, mul=mul),
    )
