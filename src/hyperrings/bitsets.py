"""Subsets of a finite carrier encoded as integer bitmasks.

Element i of the carrier corresponds to bit ``1 << i``.  All hyperproduct,
ideal and closed-set computations in this package move these masks around.
Carriers have at most 16 elements in practice, so :func:`bits` answers from
two 256-entry tables of bit positions, one for the low byte and one for the
high byte, and falls back to a bit-by-bit loop only for wider masks.
"""

from __future__ import annotations

from typing import Iterable


_LOW = _HIGH = ((),)
for _i in range(8):  # bytes 2**_i to 2**(_i+1) - 1: those below, with _i added
    _LOW += tuple([t + (_i,) for t in _LOW])
    _HIGH += tuple([t + (_i + 8,) for t in _HIGH])


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order."""
    if mask < 256:
        return _LOW[mask]
    if mask < 65536:
        return _LOW[mask & 255] + _HIGH[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def union_of(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def elements_of(mask: int) -> list[int]:
    return list(bits(mask))


def singleton(element: int) -> int:
    return 1 << element


def is_subset(inner: int, outer: int) -> bool:
    return inner & ~outer == 0


def full_mask(size: int) -> int:
    return (1 << size) - 1


def subset_key(mask: int) -> tuple[int, int]:
    """Canonical sort key: cardinality first, then mask value."""
    return (mask.bit_count(), mask)
