"""Finite commutative multiplicative hyperrings over a canonical carrier.

A hyperring here is a finite abelian group ``(R, +)`` with carrier
``0..n-1`` (0 the additive identity) together with a hyperoperation ``o``
mapping each pair of elements to a nonempty subset of the carrier, subject
to associativity, weak distributivity ``a o (b+c) <= a o b + a o c`` and
sign compatibility ``a o (-b) = (-a) o b = -(a o b)``.

Hyperproduct values are stored as bitmasks (see :mod:`hyperrings.bitsets`).
Instances are immutable after validation and safe to share; every operation
in this package is a pure function of its inputs.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import and_, or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .bitsets import bits, full_mask, mask_of, singleton

ZERO_MASK = 1  # the subset {0}


class HyperRingError(Exception):
    """Base class for structural errors raised by this package."""


class DimensionMismatch(HyperRingError):
    """Tables are not square, not aligned, or contain out-of-range indices."""


class EmptyHyperproduct(HyperRingError):
    """A hyperproduct cell is empty, which the definition forbids."""

    def __init__(self, a: int, b: int):
        super().__init__(f"hyperproduct cell ({a}, {b}) is empty")
        self.cell = (a, b)


class AxiomViolation(HyperRingError):
    """A structure law failed; carries the axiom id and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple, detail: str = ""):
        msg = f"axiom {axiom!r} violated at witness {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.axiom = axiom
        self.witness = witness


class NoIdentity(HyperRingError):
    """Invertibility was queried on a hyperring without an identity."""


class CapExceeded(HyperRingError):
    """An exhaustive computation was asked for beyond its configured cap."""

    def __init__(self, what: str, value: int, cap: int):
        super().__init__(f"{what} {value} exceeds cap {cap}")
        self.what = what
        self.value = value
        self.cap = cap


@dataclass(frozen=True)
class HyperRing:
    """A validated finite multiplicative hyperring.

    ``add[a][b]`` is the element ``a + b``; ``hmul[a][b]`` is the bitmask of
    the subset ``a o b``.  ``commutative`` is read off the table.  It is
    False only for structures produced by the matrix construction, which is
    the single sanctioned source of non-commutative carriers, and for
    subrings and products derived from them.

    A dataclass, unlike the package's named-tuple records: derived data
    lives in its instance dict, outside its field-wise equality and hash,
    and ``dataclasses.replace`` copies it without that cache.

    Derived data is computed on first use and cached on the instance, so it
    lives exactly as long as the ring:

    * ``neg`` and ``sub``: additive inverses and the subtraction table;
    * ``add_order``: the additive order of each element;
    * ``annihilators``: ``annihilators[x]`` is the mask of all y with
      ``x o y = {0}``;
    * ``nzd`` and ``zero_divisors``: element masks read off the annihilators;
    * ``vnr``: the von Neumann regular elements;
    * ``nilpotent``: the elements some power of which is ``{0}``;
    * ``absorb``: ``absorb[x]`` is the union over all r of ``r o x`` and
      ``x o r``, which every hyperideal containing x must contain;
    * ``flags``: the :class:`RingFlags` that :func:`classify_ring` returns.

    Functions of the ring kept here by :func:`cached_on_ring`, once per
    argument list; each returns an immutable value:

    * ``principal_masks``, ``hyperideal_masks``, ``product_family``,
      ``law_witness``, ``prime_masks`` and ``zero_radical`` of
      :mod:`hyperrings.ideals`;
    * ``class_members`` and ``minimal_primes`` of
      :mod:`hyperrings.classifiers`;
    * the good-homomorphism search plan and the hyperproduct cells it
      compares, of :mod:`hyperrings.construct`.
    """

    name: str
    size: int
    add: tuple[tuple[int, ...], ...]
    hmul: tuple[tuple[int, ...], ...]
    identity: Optional[int]
    scalar_identity: bool
    commutative: bool = True
    provenance: Optional[tuple[tuple[str, str], ...]] = None

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of each element."""
        out = [0] * self.size
        for a in range(self.size):
            for b in range(self.size):
                if self.add[a][b] == 0:
                    out[a] = b
                    break
        return tuple(out)

    @cached_property
    def add_order(self) -> tuple[int, ...]:
        """Additive order of each element: the least k >= 1 with ``k x = 0``."""
        out = []
        for x in range(self.size):
            row = self.add[x]
            k, a = 1, x
            while a:
                a = row[a]
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def sub(self) -> tuple[tuple[int, ...], ...]:
        """Subtraction table: ``sub[a][b] = a - b``."""
        neg = self.neg
        return tuple(
            tuple(self.add[a][neg[b]] for b in range(self.size))
            for a in range(self.size)
        )

    @cached_property
    def carrier_mask(self) -> int:
        return full_mask(self.size)

    @cached_property
    def annihilators(self) -> tuple[int, ...]:
        """``annihilators[x]``: all y with ``x o y = {0}``."""
        return tuple(mask_of(y for y, cell in enumerate(row) if cell == ZERO_MASK)
                     for row in self.hmul)

    @cached_property
    def nzd(self) -> int:
        """Non-zero-divisors: the annihilator is exactly ``{0}``."""
        return mask_of(x for x, a in enumerate(self.annihilators) if a == ZERO_MASK)

    @cached_property
    def zero_divisors(self) -> int:
        """Elements x with ``x o y = {0}`` for some nonzero y."""
        return mask_of(x for x, a in enumerate(self.annihilators) if a & ~ZERO_MASK)

    @cached_property
    def vnr(self) -> int:
        """Von Neumann regular elements: ``x in x^2 o y`` for some y."""
        hm = self.hmul
        reach = []  # reach[a]: the union over all y of a o y
        for row in hm:
            m = 0
            for cell in row:
                m |= cell
            reach.append(m)
        out = 0
        for x in range(self.size):
            m = 0
            for a in bits(hm[x][x]):
                m |= reach[a]
            if m >> x & 1:
                out |= 1 << x
        return out

    @cached_property
    def nilpotent(self) -> int:
        """Elements x with ``x^n = {0}`` for some n (exact via the power orbit)."""
        return mask_of(x for x in range(self.size)
                       if ZERO_MASK in power_orbit(self, x))

    @cached_property
    def absorb(self) -> tuple[int, ...]:
        """``absorb[x]``: the union over all r of ``r o x`` and ``x o r``."""
        hm = self.hmul
        out = []
        for x in range(self.size):
            row = hm[x]
            m = 0
            for r in range(self.size):
                m |= hm[r][x] | row[r]
            out.append(m)
        return tuple(out)

    @cached_property
    def flags(self) -> RingFlags:
        """Ring-level flags; see :func:`classify_ring`."""
        if self.identity is None:
            invertible = None
        else:
            # Invertibility is only demanded of nonzero elements: requiring it
            # of 0 would make the flag false on every field.
            invertible = all(is_invertible(self, x) for x in range(1, self.size))
        return RingFlags(
            integral_hyperdomain=is_integral_hyperdomain(self),
            reduced=not self.nilpotent & ~ZERO_MASK,
            regular_ring=self.vnr == self.carrier_mask,
            invertible_ring=invertible,
        )

    def table_key(self) -> tuple:
        """Content identity ignoring the name, used for corpus dedup."""
        return (self.size, self.add, self.hmul)

    def __repr__(self) -> str:  # keep reports compact
        return f"HyperRing({self.name!r}, size={self.size})"


CacheInfo = namedtuple("CacheInfo", "hits misses")
_KEYWORDS = object()  # separates positional from keyword arguments in a key


def cached_on_ring(fn: Callable) -> Callable:
    """Decorator keeping ``fn(ring, ...)`` on the ring, once per argument list.

    The values live in the ring's instance dict, like a cached property's,
    so equality and hashing do not see them, under the function's dotted
    name, which no attribute can have; an exception is not kept.  As with
    :func:`functools.lru_cache`, ``f(r, "strict")`` and
    ``f(r, mode="strict")`` are two argument lists, and ``cache_info()``
    counts hits and misses (calls of ``fn``) over all rings."""
    slot = f"{fn.__module__}.{fn.__qualname__}"
    counts = [0, 0]

    @wraps(fn)
    def cached(ring: HyperRing, *args, **kwargs):
        memo = ring.__dict__.get(slot)
        if memo is None:
            memo = ring.__dict__[slot] = {}
        key = args + (_KEYWORDS, *kwargs.items()) if kwargs else args
        if key in memo:
            counts[0] += 1
        else:
            counts[1] += 1
            memo[key] = fn(ring, *args, **kwargs)
        return memo[key]
    cached.cache_info = lambda: CacheInfo(*counts)
    return cached


def hprod(ring: HyperRing, a_mask: int, b_mask: int) -> int:
    """Hyperproduct of two subsets: the union of all pairwise ``a o b``."""
    hm = ring.hmul
    right = bits(b_mask)
    out = 0
    for a in bits(a_mask):
        row = hm[a]
        for b in right:
            out |= row[b]
    return out


def set_sum(ring: HyperRing, a_mask: int, b_mask: int) -> int:
    """Elementwise sum of two subsets: ``{x + y : x in A, y in B}``."""
    add = ring.add
    right = bits(b_mask)
    out = 0
    for a in bits(a_mask):
        row = add[a]
        for b in right:
            out |= 1 << row[b]
    return out


def power_orbit(ring: HyperRing, x: int) -> list[int]:
    """The sequence of subsets ``x^1, x^2, ...`` up to its first repeat.

    The map ``m -> m o {x}`` is deterministic, so the power sequence is
    eventually periodic; returning the orbit up to the first repeated mask
    makes "some power satisfies P" questions exact with no exponent bound.
    """
    seen: set[int] = set()
    orbit: list[int] = []
    m = singleton(x)
    while m not in seen:
        seen.add(m)
        orbit.append(m)
        m = hprod(ring, m, singleton(x))
    return orbit


def is_nilpotent(ring: HyperRing, x: int) -> bool:
    """True iff ``x^n = {0}`` for some n (exact via the power orbit)."""
    return bool(ring.nilpotent & singleton(x))


def zero_divisor_mask(ring: HyperRing) -> int:
    return ring.zero_divisors


def nzd_mask(ring: HyperRing) -> int:
    return ring.nzd


def vnr_mask(ring: HyperRing) -> int:
    return ring.vnr


def is_invertible(ring: HyperRing, x: int) -> bool:
    """True iff ``e in x o y`` for some y, with e the detected identity."""
    if ring.identity is None:
        raise NoIdentity(f"{ring.name} has no identity element")
    ebit = singleton(ring.identity)
    return any(ring.hmul[x][y] & ebit for y in range(ring.size))


class RingFlags(NamedTuple):
    integral_hyperdomain: bool
    reduced: bool
    regular_ring: bool
    invertible_ring: Optional[bool]  # None when the ring has no identity


def is_integral_hyperdomain(ring: HyperRing) -> bool:
    """``0 in x o y`` forces x = 0 or y = 0."""
    for x in range(1, ring.size):
        row = ring.hmul[x]
        for y in range(1, ring.size):
            if row[y] & ZERO_MASK:
                return False
    return True


def classify_ring(ring: HyperRing) -> RingFlags:
    return ring.flags


def _singletons(size: int) -> tuple[int, ...]:
    """The row of a scalar identity: the mask of ``{a}`` at each a."""
    return tuple(1 << a for a in range(size))


def _scalar_identity(hmul: tuple[tuple[int, ...], ...],
                     cols: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """The e whose row and column are both the row of singletons, or None;
    there is at most one, since ``{e} = e o e' = {e'}`` for two."""
    singles = _singletons(len(hmul))
    if singles not in hmul:
        return None
    return next((e for e, row in enumerate(hmul)
                 if row == singles and cols[e] == singles), None)


def _plain_identity(hmul: tuple[tuple[int, ...], ...],
                    cols: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """The least e with ``a in a o e`` and ``a in e o a`` for every a: its
    row and column meet the row of singletons in every place."""
    singles = _singletons(len(hmul))
    return next((e for e, row in enumerate(hmul)
                 if all(map(and_, row, singles)) and all(map(and_, cols[e], singles))),
                None)


def _detect_identity(hmul: Sequence[Sequence[int]]) -> tuple[Optional[int], bool]:
    """Find an identity: prefer a scalar identity, then the least index.

    The scalar identity is read by comparing whole rows and columns with
    the row of singletons; only a ring without one runs the plain-identity
    scan, since the preference means no plain identity could replace it."""
    rows = tuple(map(tuple, hmul))
    cols = tuple(zip(*rows))
    scalar = _scalar_identity(rows, cols)
    if scalar is not None:
        return scalar, True
    return _plain_identity(rows, cols), False


class _Memo(dict):
    """A dict that fills a missing key ``k`` with ``fill(k)`` and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _unions(cells: Sequence[int]) -> _Memo:
    """``_unions(cells)[m]``: the union of ``cells[u]`` over the u in mask m."""
    def fill(m: int) -> int:
        out = 0
        for u in bits(m):
            out |= cells[u]
        return out
    return _Memo(fill)


def _noncommuting_pair(hmul: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """The least pair ``a < b`` with ``a o b != b o a``, or None.

    The table is first compared with its transpose in one comparison; the
    pair is looked for only when they differ."""
    rows = tuple(map(tuple, hmul))
    if rows == tuple(zip(*rows)):
        return None
    n = len(rows)
    return next((a, b) for a in range(n) for b in range(a + 1, n)
                if rows[a][b] != rows[b][a])


def _additive_generators(add: Sequence[Sequence[int]]) -> list[int]:
    """A small generating set of ``(R, +)``, found greedily: the least
    element outside the span of the generators so far is the next.  The span
    is the closure of ``{0}`` under ``x -> x + g``, so with 0 an identity of
    ``add`` it is the whole carrier, associative or not."""
    gens: list[int] = []
    span = [0]
    seen = ZERO_MASK
    for x in range(len(add)):
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


def _light_associative(add: Sequence[Sequence[int]]) -> bool:
    """Light's associativity test on an ``add`` with identity 0: is
    ``(a + g) + c == a + (g + c)`` for every a, c and every g in
    :func:`_additive_generators`?  That is n²·|G| lookups; the argument
    that it decides associativity is in :func:`validate_hyperring`."""
    n = len(add)
    for g in _additive_generators(add):
        grow = add[g]
        for arow in add:
            ag = add[arow[g]]
            for c in range(n):
                if ag[c] != arow[grow[c]]:
                    return False
    return True


def _make_ring(name: str, addt: tuple[tuple[int, ...], ...],
               hmt: tuple[tuple[int, ...], ...], provenance: Optional[dict],
               identity: Optional[int], scalar: bool,
               commutative: bool) -> HyperRing:
    prov = None
    if provenance:
        prov = tuple(sorted((str(k), str(v)) for k, v in provenance.items()))
    return HyperRing(name=name, size=len(hmt), add=addt, hmul=hmt,
                     identity=identity, scalar_identity=scalar,
                     commutative=commutative, provenance=prov)


def build_hyperring(
    name: str,
    add: Sequence[Sequence[int]],
    hmul: Sequence[Sequence[int]],
    provenance: Optional[dict] = None,
) -> HyperRing:
    """The :class:`HyperRing` of tables already known to satisfy every law.

    ``hmul`` holds masks.  Commutativity is read off the tables
    (:func:`_noncommuting_pair`), and the identity is found by
    :func:`_detect_identity`.  A construction that proves its output a
    hyperring (quotient, product, subring, γ*) calls this directly; raw
    tables go through :func:`validate_hyperring`, which builds its ring from
    what it proved instead of scanning the tables again.
    """
    hmt = tuple(map(tuple, hmul))
    identity, scalar = _detect_identity(hmt)
    return _make_ring(name, tuple(map(tuple, add)), hmt, provenance,
                      identity, scalar, _noncommuting_pair(hmt) is None)


def _sign_law_holds(hmt: tuple[tuple[int, ...], ...], neg: Sequence[int],
                    commutative: bool) -> bool:
    """Does ``a o (-b) = (-a) o b = -(a o b)`` hold everywhere?

    Row ``-a`` is compared whole with row a negated, and on a
    non-commutative table also row a read at ``-b`` for each b; the first
    mismatch ends the check.  Only rows ``a <= -a`` are read: negation is
    an involution on masks, so row ``-a`` passes the first comparison
    exactly when row a does, and given that, row ``-a`` read at ``-b`` is
    ``-(a o (-b))``, so it passes the second exactly when row a does.  On a
    commutative table the first comparison is enough: if every row passes
    it, ``a o (-b) = (-b) o a = -(b o a) = -(a o b)``."""
    negate = _unions([1 << y for y in neg])  # negate[m] is -m
    for a, row in enumerate(hmt):
        if a > neg[a]:
            continue
        negrow = tuple(map(negate.__getitem__, row))
        if hmt[neg[a]] != negrow or (not commutative
                                     and tuple(map(row.__getitem__, neg)) != negrow):
            return False
    return True


def validate_hyperring(
    name: str,
    add: Sequence[Sequence[int]],
    hmul: Sequence[Sequence[Iterable[int]]],
    *,
    require_commutative: bool = True,
    provenance: Optional[dict] = None,
) -> HyperRing:
    """Validate raw tables and return an immutable :class:`HyperRing`.

    Checks run in a fixed order and the first failure raises; the axiom ids
    are: add-identity, add-commutative, add-associative, add-inverse,
    hmul-commutative, hmul-associative, distributive, sign-compatible.
    Empty cells raise :class:`EmptyHyperproduct`, shape problems
    :class:`DimensionMismatch`.  A table value is an index when it is an
    ``int`` (``bool`` excluded, subclasses such as ``IntEnum`` included) in
    ``0..n-1``; the parse tests ``type(v) is int`` first, so only values of
    other types pay for the ``isinstance`` checks.

    The witness of a violated law is its least failing tuple in ``(a, b, c)``
    scan order.  The scans visit only tuples that can be that least tuple:

    * Associativity, where the operation is commutative: write ``P_z`` for
      ``(x o y) o z`` with ``{x, y, z}`` the triple's multiset.  Then
      ``(a o b) o c = P_c``, and ``a o (b o c) = (b o c) o a = P_a``, so
      ``(a, b, c)`` fails exactly when ``P_a != P_c``.  On a multiset with
      least member x whose P values are not all equal, ``P_x`` differs from
      one of the other two, so the least failing arrangement starts with x;
      and ``(a, b, a)`` never fails.  So the scans take ``b >= a`` and
      ``c > a``.
    * Associativity holds at every triple containing 0 for ``+`` (0 is its
      identity), or containing an absorbing 0 (``0 o x = x o 0 = {0}``) or
      the scalar identity e (``e o x = x o e = {x}``) for ``o``: both sides
      reduce to the same set.  Two elements with the same ``o``-row and
      ``o``-column give the same sides wherever one replaces the other, so
      the least witness holds only the least of each such class: replacing
      any other member by it gives a smaller failing triple.
    * Distributivity, ``a o (b + c) <= a o b + a o c`` (and on a
      non-commutative ``o`` also ``(b + c) o a <= b o a + c o a``, reported
      as ``(b, c, a)``) is symmetric in b and c, so its scan takes
      ``c >= b``.  Both laws hold for every b and c at an a that is an
      absorbing 0 or the scalar identity, and read a only through its row
      and column, so a is scanned as for associativity.  At ``b = 0`` they
      read ``a o c <= a o 0 + a o c``, which holds for every c when 0
      absorbs, and may fail when it does not: on Z2 with ``0 o 1 = {1}``,
      0 is the scalar identity and ``(1, 0, 0)`` fails.  So ``b = 0`` is
      skipped only when 0 absorbs.

    Additive associativity is first decided by Light's test
    (:func:`_light_associative`): ``(x + g) + y == x + (g + y)`` for all x, y
    and each g in a generating set G of the additive table.  The set
    ``T = {t : (x + t) + y == x + (t + y) for all x, y}`` contains 0, and it
    is closed under ``+``: for s, t in T,
    ``(x + (s + t)) + y = ((x + s) + t) + y = (x + s) + (t + y)`` and
    ``x + ((s + t) + y) = x + (s + (t + y)) = (x + s) + (t + y)``.  So
    ``G <= T`` gives ``T = R``, because the closure of ``{0}`` under adding
    elements of G is the carrier.  Only when the test fails does the ordered
    scan run, to name the witness.

    When some element is not its own negative, a silent pass decides the
    sign law (:func:`_sign_law_holds`), stopping at the first mismatch;
    its witness is looked for only after distributivity, so the order of
    the axioms stands.  Where the law holds, the ``o`` laws are scanned on
    sign-orbit representatives alone, and the scans still name the least
    witness:

    * negating any one of a, b, c negates both sides of associativity, as
      ``(-a) o b = a o (-b) = -(a o b)`` and ``(-m) o c = -(m o c)`` for a
      subset m, so it keeps a triple failing or passing.  A failing triple
      with a member ``x > -x`` becomes a smaller failing triple when x is
      replaced by ``-x``, so each member of the least witness has
      ``x <= -x``, and the scan takes only those, in the same order and
      with the same prunes;
    * negating a, or b and c together, negates every side of both
      distributivity laws, since ``-(p + q) = (-p) + (-q)`` in an abelian
      group.  So the least witness has ``a <= -a``, and its ``(b, c)`` is
      the least of ``(b, c)``, ``(c, b)``, ``(-b, -c)`` and ``(-c, -b)``.

    Subset products and sums are computed once per distinct operand mask.
    The ring is built from what the checks proved: the commutativity, and
    the scalar identity found for the prunes; only a ring without one runs
    the plain-identity scan (:func:`_plain_identity`).
    """
    n = len(add)
    if n < 1:
        raise DimensionMismatch("carrier must have at least one element")
    if len(hmul) != n:
        raise DimensionMismatch(f"add is {n}x{n} but hmul has {len(hmul)} rows")
    add_rows: list[tuple[int, ...]] = []
    for row in add:
        if len(row) != n:
            raise DimensionMismatch(
                f"add row {len(add_rows)} has length {len(row)}, expected {n}")
        row = tuple(row)
        for v in row:
            if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))
                    or not 0 <= v < n):
                b = next(b for b, w in enumerate(row) if w is v)
                raise DimensionMismatch(
                    f"add[{len(add_rows)}][{b}] = {v!r} is not an index in 0..{n - 1}")
        add_rows.append(row)
    hmul_rows: list[tuple[int, ...]] = []
    for row in hmul:
        if len(row) != n:
            raise DimensionMismatch(
                f"hmul row {len(hmul_rows)} has length {len(row)}, expected {n}")
        masks: list[int] = []
        for cell in row:
            m = 0
            for v in cell:
                if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))
                        or not 0 <= v < n):
                    raise DimensionMismatch(
                        f"hmul[{len(hmul_rows)}][{len(masks)}] contains {v!r}, "
                        f"not an index in 0..{n - 1}")
                m |= 1 << v
            if not m:
                raise EmptyHyperproduct(len(hmul_rows), len(masks))
            masks.append(m)
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
    if not _light_associative(addt):  # find the least witness
        for a in range(1, n):
            arow = addt[a]
            for b in range(a, n):
                ab = addt[arow[b]]
                brow = addt[b]
                for c in range(a + 1, n):
                    if ab[c] != arow[brow[c]]:
                        raise AxiomViolation("add-associative", (a, b, c))
    neg = []
    for row in addt:
        if 0 not in row:
            raise AxiomViolation("add-inverse", (len(neg),), "no additive inverse")
        neg.append(row.index(0))

    cols = tuple(zip(*hmt))
    commutative = hmt == cols
    if require_commutative and not commutative:
        raise AxiomViolation("hmul-commutative", _noncommuting_pair(hmt))

    # The elements a least witness can hold, and their sign representatives.
    scalar = _scalar_identity(hmt, cols)
    zeros = (ZERO_MASK,) * n
    absorbing = hmt[0] == zeros and cols[0] == zeros
    keys = hmt if commutative else tuple(zip(hmt, cols))
    scan = list(range(n))
    if len(set(keys)) < n:  # keep the least of each class
        least: dict[tuple, int] = {}
        scan = [x for x, key in enumerate(keys) if least.setdefault(key, x) == x]
    scan = [x for x in scan if x != scalar and not (absorbing and x == 0)]
    # Where negation moves no element, -m = m for every mask and the sign
    # law holds; else it is checked silently here, and its witness is
    # looked for last.  Where it holds and negation moves some element,
    # the o laws are scanned on one representative per sign orbit.
    moves = any(x != y for x, y in enumerate(neg))
    sign_holds = not moves or _sign_law_holds(hmt, neg, commutative)
    orbits = moves and sign_holds
    if orbits:
        scan = [x for x in scan if x <= neg[x]]

    # Associativity at subset level: (a o b) o c == a o (b o c), where
    # right[x][m] is x o m and left[c][m] is m o c.
    right = [_unions(row) for row in hmt]
    left = right if commutative else [_unions(col) for col in cols]

    for i, a in enumerate(scan):
        arow = hmt[a]
        right_a = right[a]
        later = scan[i + 1:] if commutative else scan
        for b in scan[i:] if commutative else scan:
            ab = arow[b]
            brow = hmt[b]
            for c in later:
                if left[c][ab] != right_a[brow[c]]:
                    raise AxiomViolation("hmul-associative", (a, b, c))

    # Weak distributivity: a o (b+c) is contained in a o b + a o c, and on a
    # non-commutative o also (b+c) o a in b o a + c o a.
    singles = _singletons(n)
    shifts = _Memo(lambda x: tuple(map(singles.__getitem__, addt[x])))

    def sums_with(p: int) -> _Memo:
        # p + q is the union over y in q of the translates p + y, and the
        # translates of p are those of its elements, joined place by place
        xs = bits(p)
        translates = shifts[xs[0]]
        for x in xs[1:]:
            translates = tuple(map(or_, translates, shifts[x]))
        return _unions(translates)

    sums = _Memo(sums_with)  # sums[p][q] is the set sum p + q

    bs = range(1 if absorbing else 0, n)
    if orbits:
        # the least {b, c} of each {{b, c}, {-b, -c}}: for b <= c that is
        # b <= -b and -c >= b, with c <= -c too when b = -b
        pairs = [(b, [c for c in range(b, n)
                      if neg[c] >= b and (b < neg[b] or c <= neg[c])])
                 for b in bs if b <= neg[b]]
    else:
        pairs = [(b, range(b, n)) for b in bs]
    for a in scan:
        arow = hmt[a]
        acol = cols[a]
        for b, cs in pairs:
            brow = addt[b]
            sums_ab = sums[arow[b]]
            sums_ba = sums[acol[b]]
            for c in cs:
                if arow[brow[c]] & ~sums_ab[arow[c]]:
                    raise AxiomViolation("distributive", (a, b, c))
                if not commutative and acol[brow[c]] & ~sums_ba[acol[c]]:
                    raise AxiomViolation("distributive", (b, c, a))

    # Sign compatibility, a o (-b) = (-a) o b = -(a o b): the least witness
    # where the silent check found a mismatch.
    if not sign_holds:
        for a in range(n):
            for b in range(n):
                prod = hmt[a][b]
                negprod = 0
                for x in bits(prod):
                    negprod |= 1 << neg[x]
                if hmt[a][neg[b]] != negprod or hmt[neg[a]][b] != negprod:
                    raise AxiomViolation("sign-compatible", (a, b))
    identity = scalar if scalar is not None else _plain_identity(hmt, cols)
    return _make_ring(name, addt, hmt, provenance, identity, scalar is not None,
                      commutative)
