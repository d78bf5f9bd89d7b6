"""Derived hyperrings: quotients, direct products, matrix structures,
subring restrictions, good homomorphisms, and the fundamental ordinary-ring
quotient R/γ*.

γ* is the smallest equivalence whose quotient is an ordinary ring
(Vougiouklis, "The fundamental relation in hyperrings", 1991; Davvaz &
Leoreanu-Fotea, *Hyperring Theory and Applications*, 2007).  It is built
here as a congruence closure with union-find, not by listing the finite
sums of finite products that define it.  Given that both lifted
operations are single-valued on the classes, R/γ* is the image of R under
a map that preserves + exactly and sends each hyperproduct cell into one
class, so every ring law except commutativity passes to it from R; only
commutativity is checked on its tables.

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
from dataclasses import dataclass
from typing import Optional, Sequence

from .bitsets import bits, elements_of, is_subset, mask_of, singleton
from .core import (
    ZERO_MASK,
    AxiomViolation,
    CapExceeded,
    HyperRing,
    HyperRingError,
    _noncommuting_pair,
    build_hyperring,
    cached_on_ring,
    hprod,
    set_sum,
    validate_hyperring,
)
from .ideals import is_hyperideal

MATRIX_CARRIER_CAP = 16  # the default bound on the |R|^(n*n) matrix carrier
HOM_CANDIDATE_CAP = 65536  # raw generator assignments one hom search may try


class IllDefinedQuotient(HyperRingError):
    """The fundamental quotient's lifted operation is not single-valued."""


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


@dataclass(frozen=True)
class QuotientImage:
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


def quotient(ring: HyperRing, ideal: int, name: Optional[str] = None) -> QuotientImage:
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
    hmul_q = [[mask_of(proj[t] for t in bits(ring.hmul[x][y])) for y in reps]
              for x in reps]
    params = ",".join(map(str, elements_of(ideal)))
    out = build_hyperring(
        name or f"{ring.name}/{{{params}}}", add_q, hmul_q,
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


def direct_product(r1: HyperRing, r2: HyperRing, name: Optional[str] = None) -> HyperRing:
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
        name or f"{r1.name}x{r2.name}", add, hmul,
        provenance={"construction": "product", "source": f"{r1.name},{r2.name}",
                    "params": f"{n1}x{n2}"},
    )


def product_factor_sizes(ring: HyperRing) -> Optional[tuple[int, int]]:
    """Recover factor sizes from product provenance, if present."""
    if not ring.provenance:
        return None
    prov = dict(ring.provenance)
    if prov.get("construction") != "product":
        return None
    n1, _, n2 = prov["params"].partition("x")
    return int(n1), int(n2)


# ---------------------------------------------------------------------------
# matrix structures


def matrix_hyperring(ring: HyperRing, n: int,
                     cap: int = MATRIX_CARRIER_CAP,
                     name: Optional[str] = None) -> HyperRing:
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
    cells = n * n
    size = ring.size ** cells
    if size > cap:
        raise CapExceeded("matrix carrier size", size, cap)

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
    mname = name or f"M{n}({ring.name})"
    return validate_hyperring(
        mname, add, hmul,
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


@dataclass(frozen=True)
class GoodHomomorphism:
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
    hyperproducts as set images."""
    if len(mapping) != source.size:
        raise ValueError("map must be total on the source carrier")
    for v in mapping:
        if not 0 <= v < target.size:
            raise ValueError(f"map value {v} outside the target carrier")
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


def _additive_generators(ring: HyperRing) -> list[int]:
    """A small generating set of the additive group, found greedily: the
    least element outside the span of the generators so far is the next."""
    add = ring.add
    gens: list[int] = []
    span = [0]
    seen = ZERO_MASK
    for x in range(ring.size):
        if seen >> x & 1:
            continue
        gens.append(x)
        for a in span:  # the list grows while it is read: one closure pass
            for g in gens:
                b = add[a][g]
                if not seen >> b & 1:
                    seen |= 1 << b
                    span.append(b)
    return gens


@cached_on_ring
def _hom_plan(source: HyperRing) -> tuple[tuple[int, ...], tuple, tuple]:
    """The source side of the hom search: the greedy generators ``gens``,
    then, by BFS from 0, the tree steps ``(b, a, i)`` that fill
    ``f(b) = f(a) + f(gens[i])`` and the other ``(b, a, i)`` edges, on which
    that equation must be checked."""
    gens = _additive_generators(source)
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
    compares: ``x, y >= skip``, and ``x <= y`` when ``half``."""
    n = source.size
    return tuple((x, y, bits(source.hmul[x][y])) for x in range(skip, n)
                 for y in range(x if half else skip, n))


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

    Only the hyperproduct cells ``f(x o y) = f(x) o f(y)`` that can fail are
    then compared, stopping at the first one that fails:

    * when both rings are commutative, the cell ``(y, x)`` states the same
      equation as ``(x, y)``, so only ``x <= y`` is scanned;
    * when 0 absorbs on both sides in both rings (``0 o r = r o 0 = {0}``),
      row 0 and column 0 read ``{0} = {0}``, because an additive map sends
      0 to 0, so they are skipped.

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
    skip = int(source.absorb[0] == ZERO_MASK and target.absorb[0] == ZERO_MASK)
    cells = _hom_cells(source, skip, source.commutative and target.commutative)
    found: list[GoodHomomorphism] = []
    for images in itertools.product(*choices):
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


@dataclass(frozen=True)
class SubringImage:
    ring: HyperRing
    embedding: tuple[int, ...]  # subring element index -> source element

    def restrict_mask(self, members: int) -> int:
        out = 0
        for i, x in enumerate(self.embedding):
            if members & singleton(x):
                out |= singleton(i)
        return out


def subhyperring_restrict(ring: HyperRing, subset: int,
                          name: Optional[str] = None) -> SubringImage:
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
        name or f"{ring.name}|{{{params}}}", add, hmul,
        provenance={"construction": "subring", "source": ring.name,
                    "params": params},
    )
    return SubringImage(ring=out, embedding=tuple(elems))


def subhyperring_masks(ring: HyperRing) -> list[int]:
    """All subsets closed under subtraction and the hyperoperation."""
    def close(seed: int) -> int:
        m = seed
        while True:
            grown = m
            for a in bits(m):
                for b in bits(m):
                    grown |= singleton(ring.sub[a][b])
                    grown |= ring.hmul[a][b]
            if grown == m:
                return m
            m = grown

    found: set[int] = set()
    work = [close(singleton(a)) for a in range(ring.size)]
    while work:
        m = work.pop()
        if m in found:
            continue
        found.add(m)
        if m == ring.carrier_mask:
            continue
        for x in range(ring.size):
            if not m & singleton(x):
                work.append(close(m | singleton(x)))
    return sorted(found, key=lambda m: (m.bit_count(), m))


# ---------------------------------------------------------------------------
# fundamental ordinary-ring quotient


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        """Merge the classes of i and j; True iff they were distinct."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        # deterministic: smaller index wins as representative
        if ri > rj:
            ri, rj = rj, ri
        self.parent[rj] = ri
        return True


@dataclass(frozen=True)
class OrdinaryRing:
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


@dataclass(frozen=True)
class FundamentalRingImage:
    source_name: str
    classes: tuple[int, ...]  # class index -> mask of source elements
    projection: tuple[int, ...]  # source element -> class index
    ring: OrdinaryRing

    def image_mask(self, members: int) -> int:
        out = 0
        for x in bits(members):
            out |= singleton(self.projection[x])
        return out


def _gamma_star(ring: HyperRing) -> UnionFind:
    """γ* as a congruence closure.

    Co-members of every hyperproduct cell start in one class.  Then, until a
    pass makes no union, each element x is tied to its class root r through
    every c: ``x+c ~ r+c`` and ``x∘c ~ r∘c`` (and ``c∘x ~ c∘r`` on a
    non-commutative carrier), where a cell stands for any of its members.
    """
    n = ring.size
    uf = UnionFind(n)
    for row in ring.hmul:
        for cell in row:
            members = elements_of(cell)
            for other in members[1:]:
                uf.union(members[0], other)
    # each cell lies in one class, so its least member represents it
    rep = [[(cell & -cell).bit_length() - 1 for cell in row] for row in ring.hmul]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            r = uf.find(x)
            if r == x:
                continue
            for c in range(n):
                changed |= uf.union(ring.add[x][c], ring.add[r][c])
                changed |= uf.union(rep[x][c], rep[r][c])
                if not ring.commutative:
                    changed |= uf.union(rep[c][x], rep[c][r])
    return uf


def fundamental_ring(ring: HyperRing) -> FundamentalRingImage:
    """Quotient by γ*, the smallest equivalence whose quotient is an
    ordinary ring.

    γ* is the transitive closure of "co-members of a finite sum of finite
    products".  It equals the smallest equivalence that puts every
    hyperproduct inside one class and is compatible with addition and, on
    both sides, with the hyperoperation (Vougiouklis 1991); that congruence
    closure is what is computed.  Both lifted operations are verified to be
    single-valued on classes (:class:`IllDefinedQuotient`).

    Given that, the projection p is onto and satisfies
    ``p(x + y) = p(x) + p(y)`` and ``p(x) p(y) = p(t)`` for every t in
    ``x o y``.  So ``(p(x) p(y)) p(z)`` and ``p(x) (p(y) p(z))`` are both the
    one class of ``(x o y) o z = x o (y o z)``.  A member ``u + v`` of
    ``x o (y+z) <= x o y + x o z`` gives
    ``p(x) (p(y) + p(z)) = p(x) p(y) + p(x) p(z)``, and the right-hand law
    follows from commutativity or, on a non-commutative carrier, from the
    right-hand weak distributivity that validation checks.  The zero and
    negatives are images.  So every ring law but commutativity passes from R
    to R/γ*, and commutativity alone is checked: the least non-commuting
    pair raises ``AxiomViolation("ring-mul-commutative")`` (``M2(Z2)``).
    """
    uf = _gamma_star(ring)
    roots = sorted(set(uf.find(x) for x in range(ring.size)))
    index = {r: i for i, r in enumerate(roots)}
    proj = tuple(index[uf.find(x)] for x in range(ring.size))
    k = len(roots)
    class_masks = [0] * k
    for x in range(ring.size):
        class_masks[proj[x]] |= singleton(x)

    add_t = [[0] * k for _ in range(k)]
    mul_t = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sums = set_sum(ring, class_masks[i], class_masks[j])
            targets = {proj[t] for t in bits(sums)}
            if len(targets) != 1:
                raise IllDefinedQuotient(
                    f"classes ({i},{j}): sum lands in classes {sorted(targets)}")
            add_t[i][j] = targets.pop()
            prods = hprod(ring, class_masks[i], class_masks[j])
            targets = {proj[t] for t in bits(prods)}
            if len(targets) != 1:
                raise IllDefinedQuotient(
                    f"classes ({i},{j}): product lands in classes {sorted(targets)}")
            mul_t[i][j] = targets.pop()

    out = OrdinaryRing(
        name=f"{ring.name}/fundamental",
        size=k,
        add=tuple(tuple(row) for row in add_t),
        mul=tuple(tuple(row) for row in mul_t),
    )
    pair = _noncommuting_pair(out.mul)
    if pair is not None:
        raise AxiomViolation("ring-mul-commutative", pair)
    return FundamentalRingImage(
        source_name=ring.name,
        classes=tuple(class_masks),
        projection=proj,
        ring=out,
    )
