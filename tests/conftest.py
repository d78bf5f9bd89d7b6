from itertools import product

import pytest

from hyperrings.core import HyperRingError, validate_hyperring
from hyperrings.corpus import CorpusSpec, generate_corpus, ordinary_ring, zn_with_products


@pytest.fixture(scope="session")
def z2():
    return ordinary_ring(2)


@pytest.fixture(scope="session")
def z4():
    return ordinary_ring(4)


@pytest.fixture(scope="session")
def z6():
    return ordinary_ring(6)


@pytest.fixture(scope="session")
def z12():
    return ordinary_ring(12)


@pytest.fixture(scope="session")
def z13a():
    return zn_with_products(13, (5, 7))


@pytest.fixture(scope="session")
def z6a():
    # A = {5, 7} reduces to {1, 5} mod 6
    return zn_with_products(6, (5, 7))


@pytest.fixture(scope="session")
def default_corpus():
    return generate_corpus(CorpusSpec())


def small_hyperrings():
    """Every valid commutative hyperring on Z2 and Z3.

    Each element is 0, 1 or -1, so sign compatibility fixes every cell from
    ``0o0``, ``0o1`` and ``1o1``: ``a o b = s_a s_b (|a| o |b|)``.  Those
    three cells range over all nonempty subsets, and the validator drops
    the tables that are not hyperrings.
    """
    rings = []
    for n in (2, 3):
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        sign = {0: (0, 1), 1: (1, 1)}  # x = s * u with u in {0, 1}
        if n == 3:
            sign[2] = (1, -1)
        subsets = [[x for x in range(n) if m >> x & 1] for m in range(1, 1 << n)]
        for c00, c01, c11 in product(subsets, repeat=3):
            base = {(0, 0): c00, (0, 1): c01, (1, 1): c11}

            def cell(a, b):
                (u, su), (v, sv) = sign[a], sign[b]
                out = base[min(u, v), max(u, v)]
                return sorted({(su * sv * x) % n for x in out})

            hmul = [[cell(a, b) for b in range(n)] for a in range(n)]
            try:
                rings.append(validate_hyperring(f"Z{n}:{c00}{c01}{c11}", add, hmul))
            except HyperRingError:
                pass
    return rings


@pytest.fixture(scope="session")
def small_corpus():
    return small_hyperrings()
