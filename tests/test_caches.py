"""Where per-ring derived data lives: on the ring instance, computed once per
ring, invisible to equality and hashing, and never in a module-level cache."""

import dataclasses
import functools
import importlib
import pkgutil

import pytest

import hyperrings
from hyperrings import classifiers, construct, ideals
from hyperrings.bitsets import mask_of
from hyperrings.core import CapExceeded
from hyperrings.corpus import ordinary_ring, zn_with_products


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCachedOnRing:
    def test_second_prime_masks_call_does_no_scan(self, monkeypatch):
        ring = ordinary_ring(12)
        scans = counting(monkeypatch, ideals, "prime_witness")
        first = ideals.prime_masks(ring, 16)
        assert scans[0] > 0
        before = scans[0]
        assert ideals.prime_masks(ring, 16) == first
        ideals.zero_radical(ring, 16)
        assert scans[0] == before

    def test_radical_without_cap_reuses_the_default_cap_primes(self, monkeypatch):
        ring = ordinary_ring(12)
        ideals.prime_masks(ring, ideals.DEFAULT_ENUMERATION_CAP)
        scans = counting(monkeypatch, ideals, "prime_witness")
        six = mask_of([0, 6])
        assert ideals.radical(ring, six) == six  # (2) and (3) contain it
        assert ideals.zero_radical(ring) == six  # the nilradical of Z12
        assert not classifiers.is_primary(ring, six)
        assert scans[0] == 0

    def test_hom_search_plans_each_source_once(self, monkeypatch):
        source, target = ordinary_ring(6), ordinary_ring(3)
        generators = counting(monkeypatch, construct, "_additive_generators")
        first = construct.enumerate_good_homomorphisms(source, target)
        assert construct.enumerate_good_homomorphisms(source, target) == first
        construct.enumerate_good_homomorphisms(source, ordinary_ring(2))
        assert generators[0] == 1

    def test_second_product_family_call_does_no_scan(self, monkeypatch):
        ring = zn_with_products(6, (5, 7))
        products = counting(monkeypatch, ideals, "hprod")
        first = ideals.product_family(ring)
        assert products[0] > 0
        before = products[0]
        assert ideals.product_family(ring) == first
        assert ideals.is_C_hyperideal(ring, ring.carrier_mask)
        assert products[0] == before

    def test_caches_are_per_instance(self, monkeypatch):
        ring = ordinary_ring(8)
        ideals.prime_masks(ring, 16)
        ideals.product_family(ring)
        twin = dataclasses.replace(ring)
        assert twin is not ring
        assert twin == ring and hash(twin) == hash(ring)
        scans = counting(monkeypatch, ideals, "prime_witness")
        products = counting(monkeypatch, ideals, "hprod")
        assert ideals.prime_masks(twin, 16) == ideals.prime_masks(ring, 16)
        assert ideals.product_family(twin) == ideals.product_family(ring)
        assert scans[0] > 0 and products[0] > 0

    def test_equality_and_hash_ignore_the_cache(self):
        ring = ordinary_ring(6)
        twin = dataclasses.replace(ring)
        key = hash(ring)
        ideals.prime_masks(ring, 16)
        ideals.product_family(ring)
        assert hash(ring) == key
        assert ring == twin and hash(twin) == key

    def test_prime_masks_still_raises_past_its_cap(self):
        ring = ordinary_ring(8)
        ideals.prime_masks(ring, 16)
        for _ in range(2):
            with pytest.raises(CapExceeded):
                ideals.prime_masks(ring, 4)


def test_hyperideal_masks_is_the_only_lru_cache():
    """An unbounded module-level cache keeps every ring it has seen alive;
    per-ring values belong on the ring.  ``hyperideal_masks`` keeps its cache
    only while the benchmark's tracer reads its ``cache_info``."""
    found = set()
    for info in pkgutil.iter_modules(hyperrings.__path__):
        module = importlib.import_module(f"hyperrings.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper) \
                    and value.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == {"ideals.hyperideal_masks"}
