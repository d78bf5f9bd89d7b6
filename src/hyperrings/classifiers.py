"""Classification of hyperideals and of multiplicatively closed subsets.

Two classification modes exist because the source definitions restrict
prime and primary hyperideals to nonzero proper ones, while the zero ideal
still needs to be classifiable (radicals and the domain criteria depend on
its primality):

* ``relaxed`` (default): properness is required for prime/primary/n, the
  zero ideal is allowed everywhere, and the r-law is evaluated on improper
  ideals too (where it holds vacuously).
* ``strict``: prime/primary additionally exclude the zero ideal, and the
  r-classification requires properness.

Witnesses are always the lexicographically least failing tuple, so
counterexample reports are stable across runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitsets import is_subset, singleton
from .core import (
    HyperRing,
    HyperRingError,
    NoIdentity,
    ZERO_MASK,
    cached_on_ring,
    hprod,
)
from .ideals import (
    hyperideal_masks,
    is_C_hyperideal,
    law_witness,
    prime_masks,
    prime_witness,
    radical,
    zero_radical,
)

MODE_RELAXED = "relaxed"
MODE_STRICT = "strict"

REGULAR_NZD = "nzd"
REGULAR_VNR = "vnr"


class NotDisjoint(HyperRingError):
    """The seed ideal already meets the closed subset."""


def regular_mask(ring: HyperRing, notion: str = REGULAR_NZD) -> int:
    if notion == REGULAR_NZD:
        return ring.nzd
    if notion == REGULAR_VNR:
        return ring.vnr
    raise ValueError(f"unknown regular-element notion {notion!r}")


def primary_witness(ring: HyperRing, members: int) -> Optional[tuple[int, int]]:
    """Least (x, y) with x outside the ideal, y outside its radical and
    ``x o y`` inside the ideal."""
    full = ring.carrier_mask
    return law_witness(ring, members, full & ~members,
                       full & ~radical(ring, members))


def is_primary(ring: HyperRing, members: int, mode: str = MODE_RELAXED) -> bool:
    if members == ring.carrier_mask:
        return False
    if mode == MODE_STRICT and members == ZERO_MASK:
        return False
    return primary_witness(ring, members) is None


def r_witness(ring: HyperRing, members: int) -> Optional[tuple[int, int]]:
    """Least (x, y) with x a non-zero-divisor, ``x o y`` inside the ideal
    and y outside it."""
    return law_witness(ring, members, ring.nzd, ring.carrier_mask & ~members)


def r_closure_holds(ring: HyperRing, members: int) -> bool:
    """r-law: ``x o y`` inside I with x a non-zero-divisor forces y into I.
    The law does not mention properness, so it holds (vacuously) on the
    full carrier."""
    return r_witness(ring, members) is None


def n_witness(ring: HyperRing, members: int) -> Optional[tuple[int, int]]:
    """Least (x, y) with x outside the radical of zero, ``x o y`` inside the
    ideal, y outside."""
    full = ring.carrier_mask
    return law_witness(ring, members, full & ~zero_radical(ring),
                       full & ~members)


def is_n_hyperideal(ring: HyperRing, members: int) -> bool:
    """n-law on a proper hyperideal: ``x o y`` inside I with x outside the
    radical of zero forces y into I.  Properness is part of the definition
    in both modes."""
    if members == ring.carrier_mask:
        return False
    return n_witness(ring, members) is None


CLASS_HYPERIDEAL = "hyperideal"
CLASS_PRIME = "prime"
CLASS_R = "r_ideal"
CLASS_N = "n_ideal"


@cached_on_ring
def class_members(ring: HyperRing, which: str,
                  mode: str = MODE_RELAXED) -> tuple[int, ...]:
    """Proper hyperideals of the requested class, in canonical order."""
    if which == CLASS_PRIME:
        primes = prime_masks(ring)
        if mode == MODE_STRICT:
            return tuple(m for m in primes if m != ZERO_MASK)
        return primes
    proper = tuple(m for m in hyperideal_masks(ring)
                   if m != ring.carrier_mask)
    if which == CLASS_HYPERIDEAL:
        return proper
    if which == CLASS_R:
        return tuple(m for m in proper if r_closure_holds(ring, m))
    if which == CLASS_N:
        return tuple(m for m in proper if is_n_hyperideal(ring, m))
    raise ValueError(f"unknown ideal class {which!r}")


def maximal_members(family: tuple[int, ...],
                    minimal: bool = False) -> tuple[int, ...]:
    """The members of the family inside no other member, in family order;
    with ``minimal``, the members containing no other member."""
    return tuple(m for m in family if not any(
        o != m and (is_subset(o, m) if minimal else is_subset(m, o))
        for o in family))


def is_maximal_in_class(ring: HyperRing, members: int, which: str,
                        *options: str) -> bool:
    """Whether the ideal is maximal in ``class_members(ring, which,
    *options)``.  The options are passed on as written, so the family is
    the one any other call written the same way has cached on the ring."""
    return members in maximal_members(class_members(ring, which, *options))


def is_minimal_nonzero(ring: HyperRing, members: int) -> bool:
    """Minimal among hyperideals that contain a nonzero element."""
    if members == ZERO_MASK:
        return False
    for m in hyperideal_masks(ring):
        if m != ZERO_MASK and m != members and is_subset(m, members):
            return False
    return True


@cached_on_ring
def minimal_primes(ring: HyperRing, mode: str = MODE_RELAXED) -> tuple[int, ...]:
    return maximal_members(class_members(ring, CLASS_PRIME, mode), minimal=True)


def is_essential(ring: HyperRing, members: int) -> bool:
    """Nonzero, and meets every nonzero hyperideal beyond {0}."""
    if members == ZERO_MASK:
        return False
    for m in hyperideal_masks(ring):
        if m == ZERO_MASK:
            continue
        if members & m == ZERO_MASK:
            return False
    return True


def is_r_mult_closed(ring: HyperRing, subset: int, regular: str = REGULAR_NZD,
                     lenient: bool = False) -> bool:
    """Closed subset dual to r-hyperideals.

    Literal reading: contains the identity but not zero, contains some
    regular element other than the identity, and is closed under
    multiplication by its regular members.  The lenient reading waives the
    extra-regular-element clause when the ring has no regular element
    besides the identity (otherwise no subset of such a ring could qualify
    and complement duality would fail on fields of size two).
    """
    if ring.identity is None:
        raise NoIdentity(f"{ring.name} has no identity element")
    if subset == 0:
        return False
    e = ring.identity
    if not subset & singleton(e):
        return False
    if subset & ZERO_MASK:
        return False
    reg = regular_mask(ring, regular)
    extra = reg & ~singleton(e)
    if not subset & extra and not (lenient and extra == 0):
        return False
    return is_subset(hprod(ring, reg & subset, subset), subset)


def is_n_mult_closed(ring: HyperRing, subset: int) -> bool:
    """Contains everything outside the radical of zero and is closed under
    multiplication by such elements."""
    if subset == 0:
        return False
    outside = ring.carrier_mask & ~zero_radical(ring)
    return is_subset(outside, subset) \
        and is_subset(hprod(ring, outside, subset), subset)


def maximal_disjoint_masks(ring: HyperRing, subset: int,
                           seed: int) -> list[int]:
    """All hyperideals containing the seed, disjoint from the subset, and
    maximal under inclusion among such."""
    if seed & subset:
        raise NotDisjoint("seed ideal meets the closed subset")
    return list(maximal_members(tuple(
        m for m in hyperideal_masks(ring)
        if is_subset(seed, m) and not m & subset)))


class ClassificationFlags(NamedTuple):
    prime: bool
    primary: bool
    maximal: bool
    minimal_nonzero: bool
    essential: bool
    r_ideal: bool
    n_ideal: bool
    is_C: bool
    witnesses: tuple[tuple[str, tuple[int, int]], ...]


def classify_ideal(ring: HyperRing, members: int,
                   mode: str = MODE_RELAXED) -> ClassificationFlags:
    """Every flag of one ideal; each law is scanned once, for its witness,
    and its flag is read off that witness."""
    proper = members != ring.carrier_mask
    strict = mode == MODE_STRICT
    prime_w = prime_witness(ring, members) if proper else None
    r_w = r_witness(ring, members)
    n_w = n_witness(ring, members) if proper else None
    witnesses = tuple((name, w) for name, w in (
        ("prime", prime_w), ("r_ideal", r_w), ("n_ideal", n_w)) if w is not None)
    return ClassificationFlags(
        prime=proper and prime_w is None and not (strict and members == ZERO_MASK),
        primary=is_primary(ring, members, mode),
        maximal=is_maximal_in_class(ring, members, CLASS_HYPERIDEAL),
        minimal_nonzero=is_minimal_nonzero(ring, members),
        essential=is_essential(ring, members),
        r_ideal=r_w is None and (proper or not strict),
        n_ideal=proper and n_w is None,
        is_C=is_C_hyperideal(ring, members),
        witnesses=witnesses,
    )
