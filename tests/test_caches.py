"""Where per-ring derived data lives: on the ring instance, through
``core.cached_on_ring``, computed once per ring and per argument list,
invisible to equality and hashing, and never in a module-level cache.

The counts of ``cached_on_ring``'s ``cache_info()`` are the contract the
benchmark's traced run reads (``hyperideal_masks.cache_info().misses``)."""

import dataclasses
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperrings
from hyperrings import classifiers, construct, ideals
from hyperrings.bitsets import mask_of
from hyperrings.core import CapExceeded, RingFlags, cached_on_ring
from hyperrings.corpus import ordinary_ring, zn_with_products
from hyperrings.theorems import RingContext


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
        first = ideals.prime_masks(ring)
        assert scans[0] > 0
        before = scans[0]
        assert ideals.prime_masks(ring) == first
        ideals.zero_radical(ring)
        assert scans[0] == before

    def test_radical_reuses_the_cached_primes(self, monkeypatch):
        ring = ordinary_ring(12)
        ideals.prime_masks(ring)
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
        ideals.prime_masks(ring)
        ideals.product_family(ring)
        twin = dataclasses.replace(ring)
        assert twin is not ring
        assert twin == ring and hash(twin) == hash(ring)
        scans = counting(monkeypatch, ideals, "prime_witness")
        products = counting(monkeypatch, ideals, "hprod")
        assert ideals.prime_masks(twin) == ideals.prime_masks(ring)
        assert ideals.product_family(twin) == ideals.product_family(ring)
        assert scans[0] > 0 and products[0] > 0

    def test_equality_and_hash_ignore_the_cache(self):
        ring = ordinary_ring(6)
        twin = dataclasses.replace(ring)
        key = hash(ring)
        ideals.prime_masks(ring)
        ideals.product_family(ring)
        assert hash(ring) == key
        assert ring == twin and hash(twin) == key


class TestRingCachedFamilies:
    def test_second_hyperideal_masks_call_does_no_scan(self, monkeypatch):
        ring = ordinary_ring(12)
        closures = counting(monkeypatch, ideals, "generated_ideal_mask")
        first = ideals.hyperideal_masks(ring)
        assert closures[0] > 0
        before = closures[0]
        assert ideals.hyperideal_masks(ring) is first
        assert closures[0] == before

    def test_second_class_members_call_does_no_scan(self, monkeypatch):
        ring = ordinary_ring(12)
        which = (classifiers.CLASS_HYPERIDEAL, classifiers.CLASS_PRIME,
                 classifiers.CLASS_R, classifiers.CLASS_N)
        first = {w: classifiers.class_members(ring, w) for w in which}
        first["minimal"] = classifiers.minimal_primes(ring)
        scans = counting(monkeypatch, classifiers, "law_witness")
        prime_scans = counting(monkeypatch, ideals, "law_witness")
        closures = counting(monkeypatch, ideals, "generated_ideal_mask")
        for w in which:
            assert classifiers.class_members(ring, w) is first[w]
        assert classifiers.minimal_primes(ring) is first["minimal"]
        assert scans[0] == prime_scans[0] == closures[0] == 0

    def test_prime_class_reads_prime_masks(self, monkeypatch):
        ring = ordinary_ring(12)
        primes = ideals.prime_masks(ring)
        scans = counting(monkeypatch, ideals, "prime_witness")
        assert classifiers.class_members(ring, classifiers.CLASS_PRIME) is primes
        strict = classifiers.class_members(
            ring, classifiers.CLASS_PRIME, classifiers.MODE_STRICT)
        assert strict == tuple(m for m in primes if m != mask_of([0]))
        assert scans[0] == 0

    def test_families_are_tuples(self, default_corpus):
        """A cached value is shared by every caller, so it must be
        immutable; tuples also keep ``n_class() == (genzero(),)`` exact."""
        for ring in default_corpus.rings[:20]:
            values = [ideals.hyperideal_masks(ring),
                      ideals.prime_masks(ring),
                      ideals.product_family(ring),
                      classifiers.minimal_primes(ring)]
            values += [classifiers.class_members(ring, w) for w in (
                classifiers.CLASS_HYPERIDEAL, classifiers.CLASS_PRIME,
                classifiers.CLASS_R, classifiers.CLASS_N)]
            assert all(type(v) is tuple for v in values)
            assert type(ideals.zero_radical(ring)) is int

    def test_twin_computes_its_own(self, monkeypatch):
        ring = ordinary_ring(10)
        ideals.hyperideal_masks(ring)
        classifiers.class_members(ring, classifiers.CLASS_N)
        twin = dataclasses.replace(ring)
        assert twin == ring and hash(twin) == hash(ring)
        closures = counting(monkeypatch, ideals, "generated_ideal_mask")
        scans = counting(monkeypatch, classifiers, "law_witness")
        assert ideals.hyperideal_masks(twin) == ideals.hyperideal_masks(ring)
        assert classifiers.class_members(twin, classifiers.CLASS_N) \
            == classifiers.class_members(ring, classifiers.CLASS_N)
        assert closures[0] > 0 and scans[0] > 0


class TestLawScans:
    """``ideals.law_witness`` is the one cached law scan: each distinct
    (ideal, xs, ys) scan runs once per ring, whichever law asks for it."""

    @staticmethod
    def classify_everything(ring):
        primes = ideals.prime_masks(ring)
        for which in (classifiers.CLASS_HYPERIDEAL, classifiers.CLASS_PRIME,
                      classifiers.CLASS_R, classifiers.CLASS_N):
            classifiers.class_members(ring, which)
        for p in primes:
            classifiers.is_primary(ring, p)
        for members in ideals.hyperideal_masks(ring):
            classifiers.classify_ideal(ring, members)

    def test_second_round_scans_nothing(self):
        for n in (4, 12):
            ring = ordinary_ring(n)
            self.classify_everything(ring)
            before = ideals.law_witness.cache_info()
            self.classify_everything(ring)
            after = ideals.law_witness.cache_info()
            assert after.misses == before.misses
            assert after.hits > before.hits
        assert not hasattr(classifiers.r_witness, "cache_info")

    def test_coinciding_laws_share_a_scan(self):
        """The primary scan of a prime is its prime scan, and so is the
        n-law scan at r(0) when r(0) is prime; on Z4 r(0) = {0, 2}."""
        ring = ordinary_ring(4)
        primes = ideals.prime_masks(ring)
        r0 = ideals.zero_radical(ring)
        assert primes == (r0,) == (mask_of([0, 2]),)
        start = ideals.law_witness.cache_info().misses
        assert classifiers.is_primary(ring, r0)
        assert classifiers.n_witness(ring, r0) is None
        assert ideals.law_witness.cache_info().misses == start
        # the n-class adds the one scan no other law asked for, at {0}
        assert classifiers.class_members(ring, classifiers.CLASS_N) \
            == (mask_of([0]), r0)
        assert ideals.law_witness.cache_info().misses == start + 1

    def test_context_reads_laws_off_the_classes(self, monkeypatch):
        """Once a context holds its r- and n-class, the law of any
        hyperideal is a membership test, with no call to the scan."""
        ring = ordinary_ring(12)
        ctx = RingContext(ring)
        ctx.r_class(), ctx.n_class()
        scans = counting(monkeypatch, classifiers, "law_witness")
        for members in ideals.hyperideal_masks(ring):
            ctx.r_ok(members), ctx.is_n(members)
        assert scans[0] == 0


class TestCacheInfo:
    def test_misses_count_computations(self):
        ring, twin = ordinary_ring(9), ordinary_ring(9)
        n_ideals = classifiers.CLASS_N
        start = classifiers.class_members.cache_info()
        start_ideals = ideals.hyperideal_masks.cache_info()
        classifiers.class_members(ring, n_ideals)
        classifiers.class_members(ring, n_ideals)
        # the default mode spelled out is another argument list
        classifiers.class_members(ring, n_ideals, classifiers.MODE_RELAXED)
        classifiers.class_members(twin, n_ideals)  # another ring
        info = classifiers.class_members.cache_info()
        assert info.misses - start.misses == 3
        assert info.hits - start.hits == 1
        # the family is computed once per ring, whatever asks for it
        assert ideals.hyperideal_masks.cache_info().misses \
            - start_ideals.misses == 2

    def test_classify_ideal_shares_the_family(self):
        """``classify_ideal`` asks for the proper hyperideals with the
        argument list the registry uses, so the family is computed once."""
        ring = ordinary_ring(12)
        start = classifiers.class_members.cache_info()
        family = classifiers.class_members(ring, classifiers.CLASS_HYPERIDEAL)
        for members in ideals.hyperideal_masks(ring):
            classifiers.classify_ideal(ring, members)
        assert classifiers.class_members.cache_info().misses \
            - start.misses == 1
        assert RingContext(ring).proper() is family

    def test_a_raising_call_is_a_miss_every_time(self):
        @cached_on_ring
        def refuse(ring):
            raise CapExceeded("carrier size", ring.size, 4)

        ring = ordinary_ring(8)
        for _ in range(2):
            with pytest.raises(CapExceeded):
                refuse(ring)
        assert refuse.cache_info() == (0, 2)

    def test_counts_are_per_function(self):
        ring = ordinary_ring(7)
        start = classifiers.minimal_primes.cache_info()
        ideals.hyperideal_masks(ring)
        assert classifiers.minimal_primes.cache_info() == start


def test_cached_function_cannot_shadow_ring_attributes():
    """The memo slot is the function's dotted name, so a cached function
    named like a cached property or a field leaves that attribute alone."""
    @cached_on_ring
    def flags(ring):
        return "flags"

    @cached_on_ring
    def size(ring):
        return "size"

    ring = ordinary_ring(6)
    assert flags(ring) == "flags" and size(ring) == "size"
    assert isinstance(ring.flags, RingFlags)
    assert ring.size == 6
    assert flags(ring) == "flags" and size(ring) == "size"


def test_no_module_level_lru_cache():
    """An unbounded module-level cache keeps every ring it has seen alive;
    per-ring values belong on the ring.  Functions and the methods of
    classes are both searched."""
    found = set()
    for info in pkgutil.iter_modules(hyperrings.__path__):
        module = importlib.import_module(f"hyperrings.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            candidates = {name: value}
            if isinstance(value, type):
                candidates.update((f"{name}.{attr}", obj)
                                  for attr, obj in vars(value).items())
            found.update(f"{info.name}.{qualname}"
                         for qualname, obj in candidates.items()
                         if isinstance(obj, functools._lru_cache_wrapper))
    assert found == set()


def test_import_loads_no_hashlib_or_logging():
    """``import hyperrings`` maps no OpenSSL and sets up no logging: the
    sha256 of ``ring_sha256`` is imported when it is first called.  The
    child runs without ``site``, so no startup hook loads either module."""
    env = dict(os.environ, PYTHONPATH=str(Path(hyperrings.__file__).parents[1]))
    code = ("import sys, hyperrings; "
            "print(sorted({'hashlib', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
