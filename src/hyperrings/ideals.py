"""Hyperideal recognition, generation, enumeration and arithmetic.

All ideal-valued results are bitmasks over the ring carrier.  The
enumeration closes the distinct principal ideals under the set sum ``I + J``
rather than scanning all ``2^n`` subsets, so it runs on a carrier of any
size, and so do the classifications built on it; a brute-force subset scan
is kept in the test suite as the oracle for it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitsets import bits, is_subset, singleton, subset_key
from .core import (
    HyperRing,
    HyperRingError,
    ZERO_MASK,
    cached_on_ring,
    hprod,
    power_orbit,
    set_sum,
)

class EmptySet(HyperRingError):
    """An operation that needs a nonempty subset received the empty one."""


def is_hyperideal(ring: HyperRing, members: int) -> bool:
    """Exhaustive check of both closure laws.

    Membership is closed under subtraction, and absorbs hypermultiplication
    by arbitrary ring elements from both sides (``ring.absorb``).
    """
    if members == 0:
        raise EmptySet("a hyperideal candidate must be nonempty")
    sub = ring.sub
    elems = bits(members)
    for a in elems:
        row = sub[a]
        for b in elems:
            if not members >> row[b] & 1:
                return False
    absorb = ring.absorb
    for x in elems:
        if not is_subset(absorb[x], members):
            return False
    return True


def generated_ideal_mask(ring: HyperRing, gens: int) -> int:
    """Least fixpoint closing ``gens`` under subtraction and absorption."""
    if gens == 0:
        raise EmptySet("generators must be nonempty")
    members = gens
    sub = ring.sub
    absorb = ring.absorb
    while True:
        new = members
        elems = bits(members)
        for a in elems:
            row = sub[a]
            for b in elems:
                new |= 1 << row[b]
            new |= absorb[a]
        if new == members:
            return members
        members = new


class IdealProfile(NamedTuple):
    """A hyperideal with its basic flags."""

    ring: HyperRing
    members: int
    is_hyperideal: bool
    is_C: bool
    is_proper: bool

    @property
    def elements(self) -> list[int]:
        return list(bits(self.members))


def profile(ring: HyperRing, members: int) -> IdealProfile:
    return IdealProfile(
        ring=ring,
        members=members,
        is_hyperideal=is_hyperideal(ring, members),
        is_C=is_C_hyperideal(ring, members),
        is_proper=members != ring.carrier_mask,
    )


@cached_on_ring
def principal_masks(ring: HyperRing) -> tuple[int, ...]:
    """``principal_masks(ring)[x]``: the hyperideal generated by x."""
    return tuple(generated_ideal_mask(ring, singleton(x)) for x in range(ring.size))


@cached_on_ring
def hyperideal_masks(ring: HyperRing) -> tuple[int, ...]:
    """All hyperideals of the ring, sorted by cardinality then mask.

    For hyperideals I and J the set sum ``I + J`` is the least hyperideal
    containing both.  It is closed under subtraction, since + is an abelian
    group, and weak distributivity gives ``r o (i+j) <= r o i + r o j``,
    which lies in ``I + J``; on a non-commutative carrier
    ``(i+j) o r <= i o r + j o r`` as well, which validation checks and
    subrings, quotients and products inherit.  Any hyperideal containing I
    and J contains every ``i + j``.  So the ideal generated by ``m`` and x
    is ``m + <x>``, every hyperideal is the sum of the principal ideals of
    its elements, and closing the distinct principal ideals under sums
    reaches the whole family.
    """
    principal = set(principal_masks(ring))
    found: set[int] = set()
    work = list(principal)
    while work:
        m = work.pop()
        if m in found:
            continue
        found.add(m)
        for p in principal:
            if p & ~m:
                work.append(set_sum(ring, m, p))
    return tuple(sorted(found, key=subset_key))


def enumerate_hyperideals(ring: HyperRing) -> list[IdealProfile]:
    return [profile(ring, m) for m in hyperideal_masks(ring)]


@cached_on_ring
def product_family(ring: HyperRing) -> tuple[int, ...]:
    """All subsets realizable as finite hyperproducts ``r1 o ... o rk``.

    Seeded with singletons (length-1 products) and closed under right
    multiplication by singletons, ``m o b``.  By associativity
    ``r1 o ... o rk = (r1 o ... o r(k-1)) o rk``, so this reaches the whole
    family on any carrier, commutative or not.  Its members are distinct
    nonempty masks, so there are at most ``2^n - 1`` of them; the largest
    family on the default and small corpora has 92.
    """
    seen: set[int] = set(singleton(a) for a in range(ring.size))
    work = list(seen)
    while work:
        m = work.pop()
        for b in range(ring.size):
            nxt = hprod(ring, m, singleton(b))
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return tuple(sorted(seen, key=subset_key))


def is_C_hyperideal(ring: HyperRing, members: int) -> bool:
    """True iff every finite-product subset meeting the ideal lies inside it."""
    for fam in product_family(ring):
        if fam & members and not is_subset(fam, members):
            return False
    return True


def additive_closure(ring: HyperRing, mask: int) -> int:
    while True:
        grown = mask | set_sum(ring, mask, mask)
        if grown == mask:
            return mask
        mask = grown


def ideal_sum(ring: HyperRing, left: int, right: int) -> int:
    """Elementwise sum ``{i + j}``, closed to its generated ideal if needed."""
    raw = set_sum(ring, left, right)
    if is_hyperideal(ring, raw):
        return raw
    return generated_ideal_mask(ring, raw)


def set_product(ring: HyperRing, left: int, right: int) -> int:
    """The literal set product ``I o J`` (union of pairwise hyperproducts)."""
    return hprod(ring, left, right)


def ideal_product(ring: HyperRing, left: int, right: int) -> int:
    """Additive closure of the set product, closed to its generated ideal
    if needed."""
    raw = additive_closure(ring, hprod(ring, left, right))
    if is_hyperideal(ring, raw):
        return raw
    return generated_ideal_mask(ring, raw)


def colon(ring: HyperRing, ideal: int, against: int) -> int:
    """``(I : J) = {r : r o J inside I}`` by exact scan.

    Unchecked: for a hyperideal I on a commutative carrier, a nonempty
    ``(I : J)`` is one.  For r, s in it, j in J and any t, weak distributivity
    and sign compatibility give ``(r - s) o j <= r o j - s o j``, and
    associativity ``(t o r) o j = t o (r o j) <= t o I``, both inside I; on a
    non-commutative carrier this is left absorption only."""
    if against == 0:
        raise EmptySet("colon divisor must be nonempty")
    hm = ring.hmul
    out = 0
    for r in range(ring.size):
        row = hm[r]
        if all(is_subset(row[j], ideal) for j in bits(against)):
            out |= singleton(r)
    return out


def ann(ring: HyperRing, x: int) -> int:
    """Annihilator of an element, as the colon ``({0} : {x})``."""
    return colon(ring, ZERO_MASK, singleton(x))


def ann_of_set(ring: HyperRing, mask: int) -> int:
    """All z with ``A o z = {0}`` for a nonempty subset A: the meet of the
    annihilators of its elements, since every cell is nonempty.  The empty
    set has the empty annihilator, as its product with any z is empty."""
    if not mask:
        return 0
    out = ring.carrier_mask
    annihilators = ring.annihilators
    for a in bits(mask):
        out &= annihilators[a]
    return out


@cached_on_ring
def law_witness(ring: HyperRing, members: int, xs: int,
                ys: int) -> Optional[tuple[int, int]]:
    """Least pair (x, y) with x in ``xs``, y in ``ys`` and ``x o y`` inside
    the ideal: the one scan behind every law of the form "``x o y`` inside I
    and x in X force y into Y".  It is kept on the ring, so two laws that
    reduce to the same scan share it: the n-law at I = r(0) is the prime
    scan of r(0), and the primary scan of a prime P, which is its own
    radical, is the prime scan of P."""
    hm = ring.hmul
    right = bits(ys)
    for x in bits(xs):
        row = hm[x]
        for y in right:
            if is_subset(row[y], members):
                return (x, y)
    return None


def prime_witness(ring: HyperRing, members: int) -> Optional[tuple[int, int]]:
    """Least pair (x, y) outside the ideal whose product lies inside it."""
    outside = ring.carrier_mask & ~members
    return law_witness(ring, members, outside, outside)


def prime_condition_holds(ring: HyperRing, members: int) -> bool:
    """Pair scan of the primality law: ``x o y inside I`` forces x or y in I."""
    return prime_witness(ring, members) is None


@cached_on_ring
def prime_masks(ring: HyperRing) -> tuple[int, ...]:
    """All proper hyperideals satisfying the primality pair law.

    The zero ideal is included when it qualifies; the strict
    nonzero-only reading is applied by callers that want it.
    """
    return tuple(
        m for m in hyperideal_masks(ring)
        if m != ring.carrier_mask and prime_condition_holds(ring, m)
    )


def radical(ring: HyperRing, ideal: int) -> int:
    """Intersection of all primes containing the ideal; the full carrier
    when no prime contains it."""
    out = ring.carrier_mask
    hit = False
    for p in prime_masks(ring):
        if is_subset(ideal, p):
            out &= p
            hit = True
    return out if hit else ring.carrier_mask


def radical_via_powers(ring: HyperRing, ideal: int) -> int:
    """The set of elements some power of which lands inside the ideal."""
    out = 0
    for x in range(ring.size):
        if any(is_subset(m, ideal) for m in power_orbit(ring, x)):
            out |= singleton(x)
    return out


@cached_on_ring
def zero_radical(ring: HyperRing) -> int:
    return radical(ring, ZERO_MASK)
