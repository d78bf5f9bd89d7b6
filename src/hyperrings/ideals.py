"""Hyperideal recognition, generation, enumeration and arithmetic.

All ideal-valued results are bitmasks over the ring carrier.  The
enumeration walks the closure lattice (principal ideals extended one
generator at a time) rather than scanning all ``2^n`` subsets, which keeps
exhaustive classification cheap; a brute-force subset scan is kept in the
test suite as the oracle for it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .bitsets import bits, is_subset, singleton, subset_key
from .core import (
    CapExceeded,
    HyperRing,
    HyperRingError,
    ZERO_MASK,
    cached_on_ring,
    hprod,
    power_orbit,
    set_sum,
)

log = logging.getLogger(__name__)

DEFAULT_ENUMERATION_CAP = 16
PRODUCT_FAMILY_CAP = 4096


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


@dataclass(frozen=True)
class IdealProfile:
    """A hyperideal with its basic flags; ``repaired`` records whether an
    arithmetic operation had to fall back to ideal closure."""

    ring: HyperRing
    members: int
    is_hyperideal: bool
    is_C: bool
    is_proper: bool
    repaired: bool = False

    @property
    def elements(self) -> list[int]:
        return list(bits(self.members))

    def radical(self) -> int:
        return radical(self.ring, self.members)


def profile(ring: HyperRing, members: int, *, repaired: bool = False) -> IdealProfile:
    return IdealProfile(
        ring=ring,
        members=members,
        is_hyperideal=is_hyperideal(ring, members),
        is_C=is_C_hyperideal(ring, members),
        is_proper=members != ring.carrier_mask,
        repaired=repaired,
    )


def generated_ideal(ring: HyperRing, gens: int) -> IdealProfile:
    return profile(ring, generated_ideal_mask(ring, gens))


@cached_on_ring
def hyperideal_masks(ring: HyperRing, cap: Optional[int] = None) -> tuple[int, ...]:
    """All hyperideals of the ring, sorted by cardinality then mask.

    Every hyperideal is the closure of its own elements, so extending
    already-found ideals by one extra generator reaches the whole family.
    """
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if ring.size > cap:
        raise CapExceeded("carrier size", ring.size, cap)
    found: set[int] = set()
    work = [generated_ideal_mask(ring, singleton(a)) for a in range(ring.size)]
    while work:
        m = work.pop()
        if m in found:
            continue
        found.add(m)
        if m == ring.carrier_mask:
            continue
        for x in range(ring.size):
            if not m & singleton(x):
                work.append(generated_ideal_mask(ring, m | singleton(x)))
    return tuple(sorted(found, key=subset_key))


def enumerate_hyperideals(ring: HyperRing, cap: Optional[int] = None) -> list[IdealProfile]:
    return [profile(ring, m) for m in hyperideal_masks(ring, cap)]


@cached_on_ring
def product_family(ring: HyperRing) -> tuple[int, ...]:
    """All subsets realizable as finite hyperproducts ``r1 o ... o rk``.

    Seeded with singletons (length-1 products) and closed under
    right-multiplication by singletons; associativity makes this the whole
    family.  Guarded by a size cap because pathological tables can generate
    large sublattices.
    """
    seen: set[int] = set(singleton(a) for a in range(ring.size))
    work = list(seen)
    while work:
        m = work.pop()
        for b in range(ring.size):
            nxt = hprod(ring, m, singleton(b))
            if nxt not in seen:
                if len(seen) >= PRODUCT_FAMILY_CAP:
                    raise CapExceeded("product family size", len(seen) + 1,
                                      PRODUCT_FAMILY_CAP)
                seen.add(nxt)
                work.append(nxt)
            if not ring.commutative:
                nxt2 = hprod(ring, singleton(b), m)
                if nxt2 not in seen:
                    if len(seen) >= PRODUCT_FAMILY_CAP:
                        raise CapExceeded("product family size", len(seen) + 1,
                                          PRODUCT_FAMILY_CAP)
                    seen.add(nxt2)
                    work.append(nxt2)
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


def ideal_sum(ring: HyperRing, left: int, right: int) -> IdealProfile:
    """Elementwise sum ``{i + j}``, repaired to its ideal closure if needed."""
    raw = set_sum(ring, left, right)
    if is_hyperideal(ring, raw):
        return profile(ring, raw)
    log.warning("%s: sum of ideals was not closed; repaired by generation", ring.name)
    return profile(ring, generated_ideal_mask(ring, raw), repaired=True)


def set_product(ring: HyperRing, left: int, right: int) -> int:
    """The literal set product ``I o J`` (union of pairwise hyperproducts)."""
    return hprod(ring, left, right)


def ideal_product(ring: HyperRing, left: int, right: int) -> IdealProfile:
    """Additive closure of the set product, repaired by generation if needed."""
    raw = additive_closure(ring, hprod(ring, left, right))
    if is_hyperideal(ring, raw):
        return profile(ring, raw)
    log.warning("%s: product of ideals was not closed; repaired by generation",
                ring.name)
    return profile(ring, generated_ideal_mask(ring, raw), repaired=True)


def ideal_intersection(ring: HyperRing, left: int, right: int) -> IdealProfile:
    return profile(ring, left & right)


def colon(ring: HyperRing, ideal: int, against: int) -> int:
    """``(I : J) = {r : r o J inside I}`` by exact scan."""
    if against == 0:
        raise EmptySet("colon divisor must be nonempty")
    hm = ring.hmul
    out = 0
    for r in range(ring.size):
        row = hm[r]
        if all(is_subset(row[j], ideal) for j in bits(against)):
            out |= singleton(r)
    if out and not is_hyperideal(ring, out):
        log.warning("%s: colon result is not a hyperideal", ring.name)
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


def law_witness(ring: HyperRing, members: int, xs: int,
                ys: int) -> Optional[tuple[int, int]]:
    """Least pair (x, y) with x in ``xs``, y in ``ys`` and ``x o y`` inside
    the ideal: the one scan behind every law of the form "``x o y`` inside I
    and x in X force y into Y"."""
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
def prime_masks(ring: HyperRing, cap: Optional[int] = None) -> tuple[int, ...]:
    """All proper hyperideals satisfying the primality pair law.

    The zero ideal is included when it qualifies; the strict
    nonzero-only reading is applied by callers that want it.
    """
    return tuple(
        m for m in hyperideal_masks(ring, cap)
        if m != ring.carrier_mask and prime_condition_holds(ring, m)
    )


def radical(ring: HyperRing, ideal: int, cap: Optional[int] = None) -> int:
    """Intersection of all primes containing the ideal; the full carrier
    when no prime contains it.

    ``cap=None`` means :data:`DEFAULT_ENUMERATION_CAP`, and is passed on as
    that number, so the primes cached for that cap are reused."""
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    out = ring.carrier_mask
    hit = False
    for p in prime_masks(ring, cap):
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
def zero_radical(ring: HyperRing, cap: Optional[int] = None) -> int:
    return radical(ring, ZERO_MASK, cap)
