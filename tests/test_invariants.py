"""Cross-cutting invariants scanned over the whole default corpus."""

from hyperrings.bitsets import is_subset, singleton
from hyperrings.classifiers import is_n_hyperideal, r_closure_holds
from hyperrings.core import ZERO_MASK, zero_divisor_mask
from hyperrings.ideals import ann, hyperideal_masks, radical
from hyperrings.theorems import REGISTRY_BY_ID, run_theorem


def commutative_members(corpus):
    return [r for r in corpus.rings if r.commutative]


def test_nzd_excludes_zero_divisors(default_corpus):
    for ring in default_corpus.rings:
        for x in range(ring.size):
            if ring.nzd & singleton(x):
                assert not ring.zero_divisors & singleton(x), (ring.name, x)


def test_zero_divisors_and_nzd_partition_when_zero_absorbs(default_corpus):
    for ring in commutative_members(default_corpus):
        if any(ring.hmul[0][y] != ZERO_MASK for y in range(ring.size)):
            continue
        z = zero_divisor_mask(ring)
        for x in range(1, ring.size):
            assert bool(z & singleton(x)) != bool(ring.nzd & singleton(x)), (ring.name, x)


def test_n_ideals_are_r_ideals_and_inside_rad0(default_corpus):
    for ring in commutative_members(default_corpus):
        rad0 = radical(ring, ZERO_MASK)
        for m in hyperideal_masks(ring):
            if m == ring.carrier_mask:
                continue
            if is_n_hyperideal(ring, m):
                assert r_closure_holds(ring, m), ring.name
                assert is_subset(m, rad0), ring.name


def test_r_ideals_consist_of_zero_divisors(default_corpus):
    for ring in commutative_members(default_corpus):
        z = zero_divisor_mask(ring)
        for m in hyperideal_masks(ring):
            if m != ring.carrier_mask and r_closure_holds(ring, m):
                assert is_subset(m, z), ring.name


def test_annihilators_are_r_closed(default_corpus):
    for ring in commutative_members(default_corpus):
        for x in range(1, ring.size):
            a = ann(ring, x)
            if a:
                assert r_closure_holds(ring, a), (ring.name, x)


def test_reading_sweep_covers_all_combinations(z4):
    # two binary entry axes plus the standing axis: 2*2*2 - 1 alternates
    v = run_theorem(REGISTRY_BY_ID["T01"], z4)
    assert len(v.reading_results) == 7
