"""The table-driven bit kernel and the per-ring cached data on HyperRing,
each against a recomputation with plain loops over the raw tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperrings.bitsets import bits
from hyperrings.core import (
    HyperRing,
    RingFlags,
    classify_ring,
    is_nilpotent,
    nzd_mask,
    validate_hyperring,
    vnr_mask,
    zero_divisor_mask,
)


def naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestBits:
    @given(st.integers(0, (1 << 8) - 1))
    def test_one_byte(self, mask):
        assert list(bits(mask)) == naive_bits(mask)

    @given(st.integers(1 << 8, (1 << 16) - 1))
    def test_two_bytes(self, mask):
        assert list(bits(mask)) == naive_bits(mask)

    @given(st.integers(1 << 16, 1 << 80))
    def test_wider_than_two_bytes(self, mask):
        assert list(bits(mask)) == naive_bits(mask)

    def test_every_two_byte_mask(self):
        """Covers every entry of both position tables."""
        for mask in range(1 << 16):
            assert list(bits(mask)) == naive_bits(mask), mask

    def test_returns_a_tuple(self):
        assert bits(0) == ()
        assert bits(0b1000_0000_0000_0101) == (0, 2, 15)


def relabelled(ring: HyperRing) -> HyperRing:
    """The same structure with its nonzero labels reversed (0 stays 0)."""
    n = ring.size
    to = [0] + list(range(n - 1, 0, -1))
    back = [0] * n
    for old, new in enumerate(to):
        back[new] = old
    add = [[to[ring.add[back[a]][back[b]]] for b in range(n)] for a in range(n)]
    hmul = [[[to[t] for t in range(n) if ring.hmul[back[a]][back[b]] >> t & 1]
             for b in range(n)] for a in range(n)]
    return validate_hyperring(f"rev({ring.name})", add, hmul,
                              require_commutative=ring.commutative)


def expected_data(ring: HyperRing) -> dict:
    """Every cached mask, ``absorb``, the ring flags, the additive inverses
    and orders, from set loops."""
    n = ring.size
    prod = [[{t for t in range(n) if ring.hmul[a][b] >> t & 1} for b in range(n)]
            for a in range(n)]

    def mask(elements):
        return sum(1 << x for x in set(elements))

    ann = [{y for y in range(n) if prod[x][y] == {0}} for x in range(n)]
    vnr = [x for x in range(n)
           if any(x in prod[a][y] for a in prod[x][x] for y in range(n))]
    nilpotent = []
    for x in range(n):
        power, seen = frozenset({x}), set()
        while power not in seen:
            seen.add(power)
            power = frozenset(t for a in power for t in prod[a][x])
        if frozenset({0}) in seen:
            nilpotent.append(x)
    absorb = tuple(mask(t for r in range(n) for t in prod[r][x] | prod[x][r])
                   for x in range(n))
    if ring.identity is None:
        invertible = None
    else:
        invertible = all(any(ring.identity in prod[x][y] for y in range(n))
                         for x in range(1, n))
    flags = RingFlags(
        integral_hyperdomain=not any(0 in prod[x][y] for x in range(1, n)
                                     for y in range(1, n)),
        reduced=nilpotent == [0],
        regular_ring=len(vnr) == n,
        invertible_ring=invertible,
    )
    orders = []
    for x in range(n):
        multiple, k = x, 1
        while multiple != 0:
            multiple, k = ring.add[multiple][x], k + 1
        orders.append(k)
    return {
        "neg": tuple(next(b for b in range(n) if ring.add[a][b] == 0)
                     for a in range(n)),
        "add_order": tuple(orders),
        "annihilators": tuple(mask(a) for a in ann),
        "nzd": mask(x for x in range(n) if ann[x] == {0}),
        "zero_divisors": mask(x for x in range(n) if ann[x] - {0}),
        "vnr": mask(vnr),
        "nilpotent": mask(nilpotent),
        "absorb": absorb,
        "flags": flags,
    }


@pytest.fixture(scope="module")
def checked_rings(default_corpus):
    rings = list(default_corpus.rings)
    m2 = next(r for r in rings if r.name == "M2(Z2)")
    assert not m2.commutative
    return rings + [relabelled(m2)]


class TestCachedRingData:
    def test_cached_data_matches_tables(self, checked_rings):
        for ring in checked_rings:
            want = expected_data(ring)
            for name, value in want.items():
                assert getattr(ring, name) == value, (ring.name, name)

    def test_module_functions_read_the_cache(self, checked_rings):
        for ring in checked_rings:
            assert nzd_mask(ring) == ring.nzd
            assert vnr_mask(ring) == ring.vnr
            assert zero_divisor_mask(ring) == ring.zero_divisors
            assert classify_ring(ring) is ring.flags
            for x in range(ring.size):
                assert is_nilpotent(ring, x) == bool(ring.nilpotent >> x & 1)
