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
from typing import Callable, Iterable, Optional, Sequence

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


def power_of_element(ring: HyperRing, x: int, n: int) -> int:
    """The subset ``x^n`` for ``n >= 1``; ``x^1 = {x}``."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    m = singleton(x)
    for _ in range(n - 1):
        m = hprod(ring, m, singleton(x))
    return m


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


@dataclass(frozen=True)
class ElementFlags:
    zero_divisor: bool
    nilpotent: bool
    regular_vnr: bool
    nzd: bool
    invertible: Optional[bool]  # None when the ring has no identity
    idempotent: bool  # weak reading: x in x o x
    idempotent_strict: bool  # strict reading: x o x = {x}


def element_predicates(ring: HyperRing, x: int) -> ElementFlags:
    sq = ring.hmul[x][x]
    bit = singleton(x)
    return ElementFlags(
        zero_divisor=bool(ring.zero_divisors & bit),
        nilpotent=is_nilpotent(ring, x),
        regular_vnr=bool(ring.vnr & bit),
        nzd=bool(ring.nzd & bit),
        invertible=is_invertible(ring, x) if ring.identity is not None else None,
        idempotent=bool(sq & bit),
        idempotent_strict=sq == bit,
    )


@dataclass(frozen=True)
class RingFlags:
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


def _detect_identity(size: int,
                     hmul: Sequence[Sequence[int]]) -> tuple[Optional[int], bool]:
    """Find an identity: prefer a scalar identity, then the least index.

    A scalar identity is returned as soon as it is found, since the
    preference means no plain identity could replace it; only a ring
    without one runs the plain-identity scan."""
    for e in range(size):
        if all(hmul[a][e] == singleton(a) and hmul[e][a] == singleton(a)
               for a in range(size)):
            return e, True
    for e in range(size):
        if all(hmul[a][e] & singleton(a) and hmul[e][a] & singleton(a)
               for a in range(size)):
            return e, False
    return None, False


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
    """The least pair ``a < b`` with ``a o b != b o a``, or None."""
    n = len(hmul)
    return next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if hmul[a][b] != hmul[b][a]), None)


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


def build_hyperring(
    name: str,
    add: Sequence[Sequence[int]],
    hmul: Sequence[Sequence[int]],
    provenance: Optional[dict] = None,
) -> HyperRing:
    """The :class:`HyperRing` of tables already known to satisfy every law.

    ``hmul`` holds masks.  Commutativity is read off the tables, and the
    identity is found by :func:`_detect_identity`.  Raw tables go through
    :func:`validate_hyperring`, which ends here; a construction that proves
    its output a hyperring calls this directly.
    """
    prov = None
    if provenance:
        prov = tuple(sorted((str(k), str(v)) for k, v in provenance.items()))
    hmt = tuple(map(tuple, hmul))
    identity, scalar = _detect_identity(len(hmt), hmt)
    return HyperRing(
        name=name,
        size=len(hmt),
        add=tuple(map(tuple, add)),
        hmul=hmt,
        identity=identity,
        scalar_identity=scalar,
        commutative=_noncommuting_pair(hmt) is None,
        provenance=prov,
    )


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

    Additive associativity is first decided by Light's test
    (:func:`_light_associative`): ``(x + g) + y == x + (g + y)`` for all x, y
    and each g in a generating set G of the additive table.  The set
    ``T = {t : (x + t) + y == x + (t + y) for all x, y}`` contains 0, and it
    is closed under ``+``: for s, t in T,
    ``(x + (s + t)) + y = ((x + s) + t) + y = (x + s) + (t + y)`` and
    ``x + ((s + t) + y) = x + (s + (t + y)) = (x + s) + (t + y)``.  So
    ``G <= T`` gives ``T = R``, because the closure of ``{0}`` under adding
    elements of G is the carrier.  Only when the test fails does the ordered
    scan run, so the witness is still that scan's least failing tuple.

    The witness of a violated law is its least failing tuple in ``(a, b, c)``
    scan order.  Where the operation is known to be commutative, the
    associativity scans skip ``c <= a`` and the distributivity scan skips
    ``c < b``: ``(a, b, c)`` fails exactly when ``(c, b, a)`` (for
    distributivity ``(a, c, b)``) fails, and ``(a, b, a)`` never fails, so
    the least failing tuple is never skipped.  Subset products and sums are
    computed once per distinct operand mask.  Once every law passes, the
    tables go to :func:`build_hyperring`.
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
        for a in range(n):
            arow = addt[a]
            for b in range(n):
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

    pair = _noncommuting_pair(hmt)
    commutative = pair is None
    if require_commutative and not commutative:
        raise AxiomViolation("hmul-commutative", pair)

    # Associativity at subset level: (a o b) o c == a o (b o c), where
    # right[x][m] is x o m and left[c][m] is m o c.
    right = [_unions(row) for row in hmt]
    cols = hmt if commutative else tuple(zip(*hmt))
    left = right if commutative else [_unions(col) for col in cols]
    for a in range(n):
        arow = hmt[a]
        right_a = right[a]
        for b in range(n):
            ab = arow[b]
            brow = hmt[b]
            for c in range(a + 1 if commutative else 0, n):
                if left[c][ab] != right_a[brow[c]]:
                    raise AxiomViolation("hmul-associative", (a, b, c))

    # Weak distributivity: a o (b+c) is contained in a o b + a o c, and on a
    # non-commutative o also (b+c) o a in b o a + c o a.
    def sums_with(p: int) -> _Memo:
        # p + q is the union over y in q of the translates p + y
        xs = bits(p)
        return _unions([mask_of(addt[x][y] for x in xs) for y in range(n)])

    sums = _Memo(sums_with)  # sums[p][q] is the set sum p + q
    for a in range(n):
        arow = hmt[a]
        acol = cols[a]
        for b in range(n):
            brow = addt[b]
            sums_ab = sums[arow[b]]
            sums_ba = sums[acol[b]]
            for c in range(b, n):
                if arow[brow[c]] & ~sums_ab[arow[c]]:
                    raise AxiomViolation("distributive", (a, b, c))
                if not commutative and acol[brow[c]] & ~sums_ba[acol[c]]:
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

    return build_hyperring(name, addt, hmt, provenance)
