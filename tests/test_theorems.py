"""Registry integrity and the proposition runner."""

import dataclasses
import json
import tracemalloc
from collections import Counter
from importlib import resources
from itertools import combinations, product

import pytest

from hyperrings import theorems
from hyperrings.bitsets import elements_of, is_subset, mask_of
from hyperrings.classifiers import is_n_hyperideal, is_prime, r_closure_holds
from hyperrings.core import (
    ZERO_MASK,
    CapExceeded,
    HyperRing,
    HyperRingError,
    validate_hyperring,
)
from hyperrings.corpus import (
    CorpusSpec,
    generate_corpus,
    ordinary_ring,
    zn_with_products,
)
from hyperrings.construct import (
    FundamentalRingImage,
    QuotientImage,
    SubringImage,
    direct_product,
    enumerate_good_homomorphisms,
    quotient,
)
from hyperrings.ideals import (
    ann,
    hyperideal_masks,
    ideal_product,
    is_hyperideal,
    prime_masks,
    radical,
    set_product,
)
from hyperrings.io import ring_from_obj, ring_to_obj
from hyperrings.theorems import (
    COUNTEREXAMPLE,
    HOLDS,
    NOT_APPLICABLE,
    READING_AXES,
    REGISTRY,
    REGISTRY_BY_ID,
    Reading,
    RingContext,
    reading_from_flags,
    run_suite,
    run_theorem,
)


class TestRegistryAudit:
    def test_ids_match_checked_in_manifest(self):
        manifest = json.loads(
            resources.files("hyperrings.data")
            .joinpath("registry_manifest.json").read_text())
        assert [e.tid for e in REGISTRY] == manifest["entries"]
        assert len(REGISTRY) == manifest["count"]

    def test_entries_unique_with_statements(self):
        ids = [e.tid for e in REGISTRY]
        assert len(set(ids)) == len(ids)
        for e in REGISTRY:
            assert e.statement.strip()

    def test_axes_are_known(self):
        for e in REGISTRY:
            for axis in e.axes:
                assert axis in READING_AXES

    def test_default_reading_is_first_option(self):
        rd = Reading()
        for axis, options in READING_AXES.items():
            assert getattr(rd, axis) == options[0]

    def test_reading_from_flags_validates(self):
        assert reading_from_flags({"regular": "vnr"}).regular == "vnr"
        with pytest.raises(ValueError):
            reading_from_flags({"regular": "bogus"})
        with pytest.raises(ValueError):
            reading_from_flags({"bogus": "nzd"})


class TestSingleVerdicts:
    def test_t20_on_z4(self, z4):
        v = run_theorem(REGISTRY_BY_ID["T20"], z4)
        assert v.status == HOLDS

    def test_t33_on_z13_a_set(self, z13a):
        v = run_theorem(REGISTRY_BY_ID["T33"], z13a)
        assert v.status == HOLDS

    def test_cap_guard_yields_not_applicable(self):
        # the registry reads the ideals of a carrier of any size; only the
        # matrix and gamma caps still gate cells, each naming itself
        ring = ordinary_ring(17)
        v = run_theorem(REGISTRY_BY_ID["T04"], ring, explore_readings=False)
        assert (v.status, v.witness) == (HOLDS, None)
        for tid, reason in (
                ("T37", "matrix cap: matrix carrier size 83521 exceeds cap 16"),
                ("T40", "gamma cap: carrier size 17 exceeds 10")):
            v = run_theorem(REGISTRY_BY_ID[tid], ring, explore_readings=False)
            assert (v.status, v.witness) == (NOT_APPLICABLE, {"reason": reason})

    def test_waived_gate_does_not_cap_checkers(self):
        # Z17 and Z18 over the whole registry: no cell names a carrier size
        # cap under either standing reading, and each entry that is not
        # applicable keeps its own reason
        for n in (17, 18):
            ring = ordinary_ring(n)
            want = {tid: (NOT_APPLICABLE, reason) for tid, reason in (
                ("T37", f"matrix cap: matrix carrier size {n ** 4} exceeds cap 16"),
                ("T39", "not a product construction"),
                ("T40", f"gamma cap: carrier size {n} exceeds 10"))}
            if n == 18:
                want.update({tid: (NOT_APPLICABLE, "ring is not reduced")
                             for tid in ("T08a", "T08b", "T12", "T32")})
            for standing in READING_AXES["standing"]:
                verdicts = run_suite([ring],
                                     reading=Reading(standing=standing)).verdicts
                assert len(verdicts) == len(REGISTRY)
                for v in verdicts:
                    reason = (v.witness or {}).get("reason")
                    assert (v.status, reason) == want.get(v.theorem, (HOLDS, None)), \
                        (n, standing, v.theorem)

    def test_identityless_ring_not_applicable(self):
        ring = zn_with_products(6, (2, 3))
        assert ring.identity is None
        v = run_theorem(REGISTRY_BY_ID["T18"], ring, explore_readings=False)
        assert v.status == NOT_APPLICABLE
        assert v.witness["reason"] == "no identity"

    def test_standing_gate_and_waiver(self):
        ring = zn_with_products(4, (2, 3))  # has a non-C hyperideal
        v = run_theorem(REGISTRY_BY_ID["T29"], ring, explore_readings=False)
        assert v.status == NOT_APPLICABLE
        waived = run_theorem(REGISTRY_BY_ID["T29"], ring,
                             reading=Reading(standing="waived"),
                             explore_readings=False)
        assert waived.status == COUNTEREXAMPLE
        assert waived.reverified
        assert waived.witness["ideal"] == [0]

    def test_reading_sensitivity_reported(self, z2):
        # the literal extra-regular clause breaks complement duality on Z2
        v = run_theorem(REGISTRY_BY_ID["T16"], z2)
        assert v.status == HOLDS
        assert v.reading_sensitive
        assert any(status == COUNTEREXAMPLE
                   for status in v.reading_results.values())

    def test_t37_matrix_cap(self):
        v = run_theorem(REGISTRY_BY_ID["T37"], ordinary_ring(9),
                        explore_readings=False)
        assert v.status == NOT_APPLICABLE
        assert "matrix cap" in v.witness["reason"]
        v2 = run_theorem(REGISTRY_BY_ID["T37"], ordinary_ring(2),
                         explore_readings=False)
        assert v2.status == HOLDS

    def test_t39_needs_product_provenance(self, z4, z2, z6):
        v = run_theorem(REGISTRY_BY_ID["T39"], z4, explore_readings=False)
        assert v.status == NOT_APPLICABLE
        prod = direct_product(z2, z4)
        v2 = run_theorem(REGISTRY_BY_ID["T39"], prod, explore_readings=False)
        assert v2.status == HOLDS
        # a file can claim any factor sizes; only <n1>x<n2> with n1 * n2
        # the carrier size is read as a product construction
        for params in ("6", "2x2", "x6", "1x6x1", "+1x6", "0x6"):
            claimed = ring_from_obj({**ring_to_obj(z6), "construction": "product",
                                     "params": params})
            v3 = run_suite([claimed], only={"T39"}).verdicts[0]
            assert (v3.status, v3.witness) == (
                NOT_APPLICABLE, {"reason": "not a product construction"}), params

    def test_t40_gamma_cap(self, z12, z4):
        v = run_theorem(REGISTRY_BY_ID["T40"], z12, explore_readings=False)
        assert v.status == NOT_APPLICABLE
        v2 = run_theorem(REGISTRY_BY_ID["T40"], z4, explore_readings=False)
        assert v2.status == HOLDS

    def test_t35_mod2_reduction(self, z4, z2):
        report = run_suite([z4, z2], only={"T35"}, explore_readings=False)
        assert all(v.status == HOLDS for v in report.verdicts)

    def test_t35_hom_cap_is_not_applicable(self, z4, z2, monkeypatch):
        def capped(source, target):
            raise CapExceeded("homomorphism candidates", 81, 16)

        monkeypatch.setattr(theorems, "enumerate_good_homomorphisms", capped)
        report = run_suite([z4, z2], only={"T35"}, explore_readings=False)
        for v in report.verdicts:
            assert v.status == NOT_APPLICABLE
            assert "homomorphism candidates 81 exceeds cap 16" in v.witness["reason"]
            assert "enumeration cap" not in v.witness["reason"]


def klein_zero_ring():
    """Zero multiplication over the Klein four-group: every subgroup is a
    hyperideal and the three two-element subgroups cover the ring
    irredundantly (the smallest structure where ideal covers exist)."""
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    hmul = [[[0]] * 4 for _ in range(4)]
    return validate_hyperring("klein-zero", add, hmul)


def covers_by_definition(ideals, i_mask):
    """Every subfamily of two or more ideals whose union contains I and
    from which no member can be dropped, by size and then in combination
    order."""
    return tuple(
        c for k in range(2, len(ideals) + 1) for c in combinations(ideals, k)
        if is_subset(i_mask, union(c))
        and not any(is_subset(i_mask, union(c[:t] + c[t + 1:]))
                    for t in range(k)))


class TestCoverMachinery:
    def test_irredundant_covers_found_on_klein_zero_ring(self):
        ring = klein_zero_ring()
        assert ring.identity is None
        ctx = RingContext(ring)
        ideals = ctx.ideals()
        assert len(ideals) == 5
        covers = ctx.irredundant_covers(ring.carrier_mask)
        assert [sorted(map(elements_of_sorted, c)) for c in covers] == \
            [[[0, 1], [0, 2], [0, 3]]]
        for i in ideals:
            assert ctx.irredundant_covers(i) == covers_by_definition(ideals, i)

    def test_covers_against_definition_on_corpora(self, default_corpus,
                                                   small_corpus):
        # no default or small corpus ring has an irredundant cover, so the
        # lister is checked on each ideal of theirs, and on two rings that
        # have covers, against every subfamily of the ideals
        rings = [*default_corpus.rings, *small_corpus, klein_zero_ring(),
                 local_ring_with_cover()]
        found = 0
        for ring in rings:
            ctx = RingContext(ring)
            ideals = ctx.ideals()
            assert len(ideals) <= 8, ring.name
            for i in ideals:
                covers = ctx.irredundant_covers(i)
                assert covers == covers_by_definition(ideals, i), ring.name
                found += len(covers)
        assert found == 1 + 1

    def test_order_16_covers(self):
        # F2[x, y, z]/(x, y, z)^2: every subspace of the maximal ideal m is
        # an ideal, so m is covered by the three planes through a line (7
        # covers), by two planes and the two lines they miss (21), by three
        # planes with no common line and the line they miss (28), by a
        # plane and the four lines outside it (7), and by the seven lines;
        # each plane P is covered by its three lines, each traced on P by
        # the line or by one of the two other planes through it (27)
        ring = local_ring_with_cover(3)
        ctx = RingContext(ring)
        ideals = ctx.ideals()
        assert len(ideals) == 17
        covers = ctx.irredundant_covers(mask_of(range(0, 16, 2)))
        assert Counter(map(len, covers)) == {3: 7, 4: 49, 5: 7, 7: 1}
        assert list(map(len, covers)) == sorted(map(len, covers))
        # the scan of all 2^17 subfamilies that confirms these lists runs
        # in CI, being too slow for this suite
        assert Counter(len(c) for i in ideals
                       for c in ctx.irredundant_covers(i)) == \
            {3: 196, 4: 49, 5: 7, 7: 1}


def check_every_reading(ring, tids):
    """``(entry, reading values) -> (status, witness)`` on every reading of
    the entry's axes, with the shared hypotheses skipped: the entry's own
    declared hypotheses, then its checker called directly."""
    ctx = RingContext(ring)
    suite = theorems.Suite([ctx])
    out = {}
    for tid in tids:
        entry = REGISTRY_BY_ID[tid]
        for values in product(*(READING_AXES[a] for a in entry.axes)):
            rd = Reading(standing="waived", **dict(zip(entry.axes, values)))
            reason = theorems._unmet(entry.hypotheses, ctx, rd)
            out[tid, values] = (NOT_APPLICABLE, {"reason": reason}) if reason \
                else entry.checker(ctx, rd, suite)
    return out


class TestSharedCheckerBodies:
    """T08a/T08b and T13/T14 each run through one shared body, and T31
    scans the irredundant covers of any size; their statuses and witnesses
    are pinned under every reading of their axes."""

    TIDS = ("T08a", "T08b", "T13", "T14", "T31")

    def test_small_corpus_under_every_reading(self, small_corpus):
        counts = Counter()
        for ring in small_corpus:
            for (tid, _), (status, witness) in check_every_reading(
                    ring, self.TIDS).items():
                assert witness in (None, {"reason": "ring is not reduced"})
                counts[tid, status] += 1
        assert counts == {
            ("T08a", HOLDS): 54, ("T08a", NOT_APPLICABLE): 4,
            ("T08b", HOLDS): 108, ("T08b", NOT_APPLICABLE): 8,
            ("T13", HOLDS): 58, ("T14", HOLDS): 116, ("T31", HOLDS): 29}

    def test_klein_zero_ring_under_every_reading(self):
        cover = [[0, 1], [0, 2], [0, 3]]
        results = check_every_reading(klein_zero_ring(), self.TIDS)
        assert results.pop(("T13", ("vnr",))) == (COUNTEREXAMPLE, {
            "ideal": [0, 1, 2, 3], "cover": cover, "r_member": [0, 1]})
        reduced = (NOT_APPLICABLE, {"reason": "ring is not reduced"})
        assert all(result == (reduced if tid.startswith("T08") else (HOLDS, None))
                   for (tid, _), result in results.items())
        assert len(results) == 2 + 4 + 1 + 4 + 1

    def test_empty_annihilator_sum_is_a_counterexample(self):
        """On a Z4 ring with 0 o 0 = {0, 2}, no annihilator has a member,
        so a sum with one is empty: a counterexample, not a crash."""
        add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        cells = {(1, 1): [0, 1, 2], (1, 3): [0, 2, 3], (3, 1): [0, 2, 3],
                 (3, 3): [0, 1, 2]}  # 3 = -1; the sign fixes the 3 cells
        hmul = [[cells.get((a, b), [0, 2]) for b in range(4)] for a in range(4)]
        ring = validate_hyperring("Z4:0o0={0,2}", add, hmul)
        assert [ring.annihilators[x] for x in range(4)] == [0] * 4
        blocked = (NOT_APPLICABLE, {"reason": "standing assumption violated: "
                                              "some hyperideal is not a C-hyperideal"})
        for tid, key, alternates in (
                ("T08a", "minimal", {"idempotent=strict": HOLDS}),
                ("T08b", "minimal_prime", {
                    "idempotent=weak,prime_mode=strict": COUNTEREXAMPLE,
                    "idempotent=strict,prime_mode=relaxed": HOLDS,
                    "idempotent=strict,prime_mode=strict": HOLDS})):
            found = (COUNTEREXAMPLE, {key: [0, 2], "idempotent": 0, "sum": []})
            default = ",".join(f"{a}={READING_AXES[a][0]}"
                               for a in REGISTRY_BY_ID[tid].axes)
            waived = {f"{label},standing=waived": status
                      for label, status in alternates.items()}
            required = {f"{label},standing=required": NOT_APPLICABLE
                        for label in alternates}
            v = run_theorem(REGISTRY_BY_ID[tid], ring)
            assert (v.status, v.witness) == blocked
            assert v.reading_results == {
                f"{default},standing=waived": COUNTEREXAMPLE,
                **waived, **required}
            v = run_theorem(REGISTRY_BY_ID[tid], ring,
                            reading=Reading(standing="waived"))
            assert (v.status, v.witness) == found and v.reverified
            assert v.reading_results == {
                f"{default},standing=required": NOT_APPLICABLE,
                **waived, **required}

    def test_witness_keys(self, z6):
        """Contexts that refuse every r-law and name a minimal prime push
        T08a, T08b and T14 into the counterexample branch of the shared
        bodies, so each witness keeps its own key."""
        class NothingIsR(RingContext):
            def r_ok(self, members):
                return False

        class OneMinimalPrime(RingContext):
            def minimal_primes(self, rd):
                return (mask_of([0, 1]),)

        everything = list(range(6))
        for tid, key in (("T08a", "minimal"), ("T08b", "minimal_prime")):
            ctx = NothingIsR(z6)
            assert REGISTRY_BY_ID[tid].checker(
                ctx, Reading(), theorems.Suite([ctx])) == (COUNTEREXAMPLE, {
                    key: [0, 3], "idempotent": 0, "sum": everything})
        ctx = OneMinimalPrime(klein_zero_ring())
        t14 = REGISTRY_BY_ID["T14"].checker
        assert t14(ctx, Reading(), theorems.Suite([ctx])) == (HOLDS, None)
        assert t14(ctx, Reading(regular="vnr"), theorems.Suite([ctx])) == (
            COUNTEREXAMPLE, {"ideal": [0, 1, 2, 3],
                             "cover": [[0, 1], [0, 2], [0, 3]],
                             "prime": [0, 1]})


# The default corpus's not-applicable cells under each standing reading,
# by reason (the text before ":" for the caps); a cold run with the sweep.
NOT_APPLICABLE_SPLIT = {
    "required": {
        "standing assumption violated: some hyperideal is not a C-hyperideal":
            1394,
        "no identity": 164, "ring is not reduced": 68,
        "no scalar identity": 60, "noncommutative carrier": 41,
        "not a product construction": 32, "matrix cap": 18, "gamma cap": 5},
    "waived": {
        "no identity": 164, "no scalar identity": 128,
        "ring is not reduced": 116, "noncommutative carrier": 41,
        "not a product construction": 41, "matrix cap": 18, "gamma cap": 5},
}
# the entries that declare each hypothesis of their own, by its reason;
# the shared hypotheses' reasons reach every entry
OWN_REASON_ENTRIES = {
    "ring is not reduced": {"T08a", "T08b", "T12", "T32"},
    "no scalar identity": {"T37", "T40"},
    "not a product construction": {"T39"},
    "matrix cap": {"T37"},
    "gamma cap": {"T40"},
}


class TestHypotheses:
    """``not-applicable`` is decided by the hypothesis table alone: the
    shared hypotheses, then each entry's own, in the order declared."""

    def test_declared_names_are_in_the_table(self):
        assert set(theorems.SHARED_HYPOTHESES) <= theorems.HYPOTHESES.keys()
        for e in REGISTRY:
            assert set(e.hypotheses) <= theorems.HYPOTHESES.keys(), e.tid
            assert not set(e.hypotheses) & set(theorems.SHARED_HYPOTHESES)

    def test_standing_is_read_only_past_the_gate(self, z4):
        """The gate tests the ring first, so an evaluation on a ring that
        meets it does not read the standing axis, and the sweep reuses it."""
        gated = zn_with_products(4, (2, 3))  # has a non-C hyperideal
        for ring, read in ((z4, {}), (gated, {"standing": "required"})):
            recorded = theorems._RecordingReading(Reading())
            theorems._unmet(theorems.SHARED_HYPOTHESES, RingContext(ring),
                            recorded)
            assert recorded.axes_read() == read, ring.name

    @pytest.mark.parametrize("standing", READING_AXES["standing"])
    @pytest.mark.parametrize("corpus", ["default", "small"])
    def test_no_checker_decides_not_applicable(self, corpus, standing,
                                                default_corpus, small_corpus):
        rings = default_corpus.rings if corpus == "default" else small_corpus
        contexts = [RingContext(r) for r in rings]
        suite = theorems.Suite(contexts)
        rd = Reading(standing=standing)
        checked = Counter()
        for entry in REGISTRY:
            names = theorems.SHARED_HYPOTHESES + entry.hypotheses
            for ctx in contexts:
                if theorems._unmet(names, ctx, rd) is not None:
                    continue
                status, _ = entry.checker(ctx, rd, suite)
                assert status != NOT_APPLICABLE, (entry.tid, ctx.ring.name)
                checked[entry.tid] += 1
        # every entry but T39 (no product ring is small) ran somewhere
        assert set(checked) == {e.tid for e in REGISTRY} - (
            {"T39"} if corpus == "small" else set())

    @pytest.mark.parametrize("standing", READING_AXES["standing"])
    def test_default_corpus_split_by_reason(self, standing):
        rings = generate_corpus(CorpusSpec()).rings
        report = run_suite(rings, reading=Reading(standing=standing))
        counts = Counter()
        entries: dict[str, set[str]] = {}
        for v in report.verdicts:
            if v.status != NOT_APPLICABLE:
                continue
            reason = v.witness["reason"]
            head = reason.split(":")[0]
            key = head if head.endswith(" cap") else reason
            counts[key] += 1
            entries.setdefault(key, set()).add(v.theorem)
        assert counts == NOT_APPLICABLE_SPLIT[standing]
        every = {e.tid for e in REGISTRY}
        assert entries == {key: OWN_REASON_ENTRIES.get(key, every)
                           for key in counts}


def local_ring_with_cover(k=2):
    """F2[x1, ..., xk]/(x1, ..., xk)^2, of order 2^(k + 1), with the element
    ``a + b1 x1 + ... + bk xk`` at index ``a + 2 b1 + ... + 2^k bk``: a
    ring with identity whose maximal ideal is the union of its lines, so it
    has irredundant covers by ideals.  For k = 2, (x, y) is the union of
    (x), (y) and (x + y)."""
    def mul(u, v):
        a, a2 = u & 1, v & 1
        return a & a2 | (a * (v >> 1) ^ a2 * (u >> 1)) << 1

    n = 2 ** (k + 1)
    add = [[u ^ v for v in range(n)] for u in range(n)]
    hmul = [[[mul(u, v)] for v in range(n)] for u in range(n)]
    return validate_hyperring(f"F2[x1..x{k}]/m^2", add, hmul)


def axes_read(ring, read, reading=Reading()):
    """The axes that ``read(ctx, rd)`` reads on a fresh context of the
    ring, with their values."""
    recorded = theorems._RecordingReading(reading)
    read(RingContext(ring), recorded)
    return recorded.axes_read()


def evaluated(tid):
    """A reader that evaluates the entry as the sweep does."""
    def read(ctx, rd):
        theorems._evaluate(REGISTRY_BY_ID[tid], ctx, rd,
                           theorems.Suite([ctx]))
    return read


class TestLazyReads:
    """Each axis is read only on a ring where its options give different
    values, so the sweep reuses the evaluation of the other option;
    ``TestReadingSweep`` checks that the reuse is exact."""

    def test_prime_mode_only_where_zero_is_prime(self, z4):
        def read(ctx, rd):
            ctx.primes(rd)
            ctx.minimal_primes(rd)

        assert ZERO_MASK not in prime_masks(z4)
        assert axes_read(z4, read) == {}
        z3 = ordinary_ring(3)
        assert ZERO_MASK in prime_masks(z3)
        assert axes_read(z3, read) == {"prime_mode": "relaxed"}

    def test_idempotent_only_where_the_readings_split(self, z4, z6a):
        def read(ctx, rd):
            theorems._idempotents(ctx, rd)

        # an ordinary ring's cells are singletons
        assert axes_read(z4, read) == {}
        # Z6 with A = {1, 5}: 1 o 1 = {1, 5}, and only 0 and 3 have
        # singleton squares
        assert z6a.hmul[1][1] == mask_of([1, 5])
        assert axes_read(z6a, read) == {"idempotent": "weak"}
        strict = Reading(idempotent="strict")
        for ring, weak_only in ((z4, []), (z6a, [1, 2, 4, 5])):
            ctx = RingContext(ring)
            got = {rd.idempotent: theorems._idempotents(ctx, rd)
                   for rd in (Reading(), strict)}
            assert sorted(set(got["weak"]) - set(got["strict"])) == weak_only

    def test_product_only_where_the_set_product_is_no_ideal(self, z4):
        two = mask_of([0, 2])
        assert set_product(z4, two, two) == ZERO_MASK
        assert axes_read(z4, lambda ctx, rd: ctx.prod(rd, two, two)) == {}
        # Z6 with A = {2, 3}: R o R = {0, 2, 3, 4}, not closed under +
        ring = zn_with_products(6, (2, 3))
        full = ring.carrier_mask
        assert set_product(ring, full, full) == mask_of([0, 2, 3, 4])
        assert axes_read(ring, lambda ctx, rd: ctx.prod(rd, full, full)) \
            == {"product": "raw"}
        ctx = RingContext(ring)
        assert ctx.prod(Reading(product="closed"), full, full) == full

    @pytest.mark.parametrize("tid", ["T15", "T16", "T17"])
    def test_closed_subset_only_where_the_identity_is_alone(self, tid, z2):
        # Z2 under nzd: the identity is the one regular element
        assert z2.nzd == mask_of([1])
        assert "closed_subset" in axes_read(z2, evaluated(tid))
        assert "closed_subset" not in axes_read(ordinary_ring(5),
                                                evaluated(tid))

    def test_mult_subset_only_for_a_subset_not_all_regular(self, z6):
        # in a field every zero-free subset is regular; in Z6, {1, 3} is
        # multiplicatively closed, meets the regular elements and holds 3
        assert "mult_subset" not in axes_read(ordinary_ring(5),
                                              evaluated("T15"))
        assert mask_of([1, 3]) in RingContext(z6).mult_closed_family()
        assert "mult_subset" in axes_read(z6, evaluated("T15"))

    @pytest.mark.parametrize("tid", ["T13", "T14"])
    def test_regular_only_inside_a_cover(self, tid, z4):
        ctx = RingContext(z4)
        assert not any(ctx.irredundant_covers(i) for i in ctx.ideals())
        assert axes_read(z4, evaluated(tid)) == {}
        ring = local_ring_with_cover()
        assert ring.identity == 1
        # (x, y) = {0, x, y, x + y} and its three lines
        covers = RingContext(ring).irredundant_covers(mask_of([0, 2, 4, 6]))
        assert [sorted(map(elements_of, c)) for c in covers] == \
            [[[0, 2], [0, 4], [0, 6]]]
        assert axes_read(ring, evaluated(tid)) == {"regular": "nzd"}


def t31_by_rescan(ctx):
    """T31 by its statement: every subfamily of two or more ideals that
    covers an ideal, with an n-member that cannot be dropped and other
    members free of nonzero nilpotents, the n-law read through
    ``ctx.is_n``.  The oracle for the first counterexample."""
    all_ideals = ctx.ideals()
    nil_free = [m for m in all_ideals
                if not m & ctx.ring.nilpotent & ~ZERO_MASK]
    for i_mask in all_ideals:
        for k in range(2, len(all_ideals) + 1):
            for combo in combinations(all_ideals, k):
                if not is_subset(i_mask, union(combo)):
                    continue
                for t, target in enumerate(combo):
                    if not ctx.is_n(target):
                        continue
                    rest = combo[:t] + combo[t + 1:]
                    if any(m not in nil_free for m in rest):
                        continue
                    if is_subset(i_mask, union(rest)):
                        continue
                    if not is_subset(i_mask, target):
                        return theorems._ce(
                            ideal_set=i_mask,
                            cover=[elements_of(m) for m in combo],
                            n_member_set=target)
    return HOLDS, None


class TestT31Covers:
    """T31 reads only the irredundant covers; its status and first witness
    equal the rescan's over every subfamily, under both readings of the
    standing axis."""

    @staticmethod
    def check(ctx):
        t31 = REGISTRY_BY_ID["T31"].checker
        expected = t31_by_rescan(ctx)
        for standing in READING_AXES["standing"]:
            assert t31(ctx, Reading(standing=standing),
                       theorems.Suite([ctx])) == expected
        return expected

    def test_corpora_and_klein_zero_ring(self, default_corpus, small_corpus):
        rings = [*default_corpus.rings, *small_corpus, klein_zero_ring()]
        statuses = Counter(self.check(RingContext(r))[0] for r in rings)
        assert statuses == {HOLDS: 88 + 29 + 1}

    def test_first_counterexample(self, z6):
        """A family of subsets with claimed n-members has many
        counterexamples; the first one found is the rescan's."""
        family = tuple(mask_of(s) for s in (
            [0, 1], [0, 2], [0, 3], [0, 4], [0, 1, 2], [0, 3, 4],
            [0, 1, 2, 3, 4]))

        class Claimed(RingContext):
            def ideals(self):
                return family

            def n_class(self):
                return family[1::2]

        status, witness = self.check(Claimed(z6))
        assert status == COUNTEREXAMPLE
        assert witness == {"ideal": [0, 1, 2], "cover": [[0, 1], [0, 2]],
                           "n_member": [0, 2]}


def union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def elements_of_sorted(mask):
    from hyperrings.bitsets import elements_of
    return elements_of(mask)


class TestSuite:
    def test_empty_corpus(self):
        report = run_suite([])
        assert report.verdicts == []
        assert report.exit_status() == 0

    def test_filter_contract(self, z4, z6):
        report = run_suite([z4, z6], only={"T18"}, explore_readings=False)
        assert {v.theorem for v in report.verdicts} == {"T18"}
        assert {v.ring for v in report.verdicts} == {"Z4", "Z6"}

    def test_verdicts_are_reproducible(self, z6a):
        a = run_suite([z6a], explore_readings=False)
        b = run_suite([z6a], explore_readings=False)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_timings_excluded_by_default(self, z2):
        report = run_suite([z2], only={"T18"}, explore_readings=False)
        obj = report.to_obj()
        assert "wall_ms" not in obj["verdicts"][0]
        timed = report.to_obj(include_timings=True)
        assert "wall_ms" in timed["verdicts"][0]

    def test_alternate_readings_built_once_per_run(self, z2, z4, z6,
                                                   monkeypatch):
        calls = []
        original = theorems._reading_combos

        def counted(axes, base):
            calls.append(axes)
            return original(axes, base)

        monkeypatch.setattr(theorems, "_reading_combos", counted)
        # T18 and T33 vary the same axes, T02 adds `regular`
        report = run_suite([z2, z4, z6], only={"T02", "T18", "T33"})
        assert len(report.verdicts) == 9
        assert sorted(calls) == [("regular", "standing"), ("standing",)]
        assert all(v.reading_results for v in report.verdicts)

    def test_fail_fast_stops_early(self):
        ring = zn_with_products(4, (2, 3))
        report = run_suite([ring], reading=Reading(standing="waived"),
                           explore_readings=False, fail_fast=True)
        assert report.counterexamples
        assert report.exit_status() == 1
        assert report.verdicts[-1].status == COUNTEREXAMPLE


class TestSweepWork:
    """The work of a default run is pinned: an axis read where its options
    agree adds sweep evaluations, and a target searched twice adds hom
    searches, without changing a verdict."""

    # 3,608 cells, each evaluated once under the base reading, plus the
    # sweep: under required, 1,394 standing=waived evaluations on the gated
    # rings and 757 others
    EVALUATIONS = {"required": 5_759, "waived": 5_812}

    @pytest.mark.parametrize("standing", READING_AXES["standing"])
    def test_evaluations_and_hom_searches(self, standing, default_corpus,
                                          monkeypatch):
        evaluations = 0
        searches = Counter()
        quotients = 0
        evaluate = theorems._evaluate
        search = theorems.enumerate_good_homomorphisms
        build = theorems.quotient

        def counted_evaluate(*args):
            nonlocal evaluations
            evaluations += 1
            return evaluate(*args)

        def counted_search(source, target):
            searches[source.name, target.name] += 1
            return search(source, target)

        def counted_quotient(*args):
            nonlocal quotients
            quotients += 1
            return build(*args)

        monkeypatch.setattr(theorems, "_evaluate", counted_evaluate)
        monkeypatch.setattr(theorems, "enumerate_good_homomorphisms",
                            counted_search)
        monkeypatch.setattr(theorems, "quotient", counted_quotient)
        rings = default_corpus.rings
        assert len({r.name for r in rings}) == len(rings)
        run_suite(rings, reading=Reading(standing=standing))
        assert evaluations == self.EVALUATIONS[standing]
        # one search per (source, target) pair T35 reaches, under both bases;
        # a pair whose sizes neither divide each other is not searched
        assert len(searches) == 661
        assert set(searches.values()) == {1}
        # T36 builds R/J only for a J other than {0} with some I whose
        # image it reads
        assert quotients == 33


def eager_t36(ctx, rd, suite):
    """T36 with every R/J built, each with a fresh context, and every I
    containing J checked: the oracle for the structures ``_t36`` skips."""
    rad = ctx.rad0()
    for j_mask in ctx.proper():
        q = quotient(ctx.ring, j_mask)
        qctx = RingContext(q.ring)
        for i_mask in ctx.proper():
            if not is_subset(j_mask, i_mask):
                continue
            img = q.image_mask(i_mask)
            img_is_n = img != q.ring.carrier_mask \
                and is_hyperideal(q.ring, img) and qctx.is_n(img)
            if ctx.is_n(i_mask) and not img_is_n:
                return theorems._ce(part=1, ideal_set=i_mask, by_set=j_mask,
                                    image=elements_of(img))
            if img_is_n and is_subset(j_mask, rad) and not ctx.is_n(i_mask):
                return theorems._ce(part=2, ideal_set=i_mask, by_set=j_mask)
            if img_is_n and ctx.is_n(j_mask) and not ctx.is_n(i_mask):
                return theorems._ce(part=3, ideal_set=i_mask, by_set=j_mask)
    return HOLDS, None


def radical_rings():
    """Rings with identity whose radical of zero is not {0}."""
    return [ordinary_ring(4), ordinary_ring(8), ordinary_ring(9),
            local_ring_with_cover(), local_ring_with_cover(3)]


class TestDerivedShortcuts:
    """T35, T36 and T38 skip the derived structures where no instance of
    their quantifiers can fail."""

    @pytest.mark.parametrize("standing", READING_AXES["standing"])
    @pytest.mark.parametrize("corpus", ["default", "small", "radical"])
    def test_t36_matches_the_eager_loop(self, corpus, standing,
                                        default_corpus, small_corpus):
        rings = {"default": default_corpus.rings, "small": small_corpus,
                 "radical": radical_rings()}[corpus]
        if corpus == "radical":
            assert all(RingContext(r).rad0() != ZERO_MASK for r in rings)
        contexts = [RingContext(r) for r in rings]
        suite = theorems.Suite(contexts)
        entry = REGISTRY_BY_ID["T36"]
        eager = dataclasses.replace(entry, checker=eager_t36)
        rd = Reading(standing=standing)
        checked = 0
        for ctx in contexts:
            got = theorems._evaluate(entry, ctx, rd, suite)
            assert got == theorems._evaluate(eager, ctx, rd, suite), \
                ctx.ring.name
            checked += got[0] != NOT_APPLICABLE
        assert checked

    def test_t36_skips_only_what_no_part_reads(self, default_corpus,
                                               small_corpus, monkeypatch):
        """T36 holds on every ring above, so they cannot tell a skipped
        instance that fails.  With an n-law that is a pseudo-random function
        of the tables, T36 fails, and the shortcut's first witness is still
        the eager loop's: the skips rest on the shape of the three parts,
        not on the n-law being true.  Under this law R/{0} is still vacuous
        because ``quotient`` gives it R's tables and the identity
        projection."""
        entry = REGISTRY_BY_ID["T36"]
        eager = dataclasses.replace(entry, checker=eager_t36)
        rd = Reading(standing="waived")
        parts = Counter()
        for salt in range(2):
            def arbitrary_n_law(ctx, members):
                # a tuple of ints hashes alike in every process
                return hash((salt, ctx.ring.table_key(), members)) % 2 == 0

            monkeypatch.setattr(RingContext, "is_n", arbitrary_n_law)
            for ring in [*default_corpus.rings, *small_corpus,
                         *radical_rings()]:
                ctx = RingContext(ring)
                suite = theorems.Suite([ctx])
                got = theorems._evaluate(entry, ctx, rd, suite)
                assert got == theorems._evaluate(eager, ctx, rd, suite), \
                    (salt, ring.name)
                if got[0] == COUNTEREXAMPLE:
                    parts[got[1]["part"]] += 1
        assert set(parts) == {1, 2, 3}

    def test_skipped_targets_have_no_hom_t35_reads(self, default_corpus):
        """Lagrange: an injective hom needs |R| to divide |S| and a
        surjective one |S| to divide |R|."""
        rings = default_corpus.rings
        skipped = 0
        for src in rings:
            for dst in rings:
                if src.size * dst.size > theorems.HOM_SIZE_CAP \
                        or not (dst.size % src.size and src.size % dst.size):
                    continue
                skipped += 1
                for hom in enumerate_good_homomorphisms(src, dst):
                    assert not hom.injective and not hom.surjective, \
                        (src.name, dst.name)
        assert skipped


def canonical_json(report, include_timings):
    """The report as the indented encoder writes it: the byte contract of
    ``to_json_bytes``."""
    return (json.dumps(report.to_obj(include_timings), indent=2,
                       sort_keys=True, ensure_ascii=True) + "\n").encode()


class TestReportBytes:
    """``to_json_bytes`` writes verdicts from memoised fragments; the
    encoder over ``to_obj`` is its oracle, with and without timings."""

    @pytest.mark.parametrize("case", ["default", "waived", "small",
                                      "no-readings", "discarded", "odd-name"])
    def test_equals_the_indented_encoder(self, case, default_corpus,
                                         small_corpus):
        rings = default_corpus.rings
        if case == "default":
            report = run_suite(rings)
        elif case == "waived":
            report = run_suite(rings, reading=Reading(standing="waived"))
        elif case == "small":
            report = run_suite(small_corpus)
            # list-valued witnesses in both verdict lists
            assert len(report.counterexamples) == 71
            assert any(isinstance(x, list) for v in report.counterexamples
                       for x in v.witness.values())
        elif case == "no-readings":
            report = run_suite(rings, explore_readings=False)
            assert all(v.reading_results == {} for v in report.verdicts)
        elif case == "discarded":
            report = run_suite(rings[:3])
            report.discarded = default_corpus.discarded
            assert report.discarded
        else:
            odd = dataclasses.replace(ordinary_ring(4),
                                      name='Z4 "quoted" \\ \u00fc\n\t')
            report = run_suite([odd, ordinary_ring(2)])
        for include_timings in (False, True):
            assert report.to_json_bytes(include_timings) \
                == canonical_json(report, include_timings)

    def test_peak_is_about_one_report(self, default_corpus):
        """The report is written into one buffer: no list of pieces, no
        joined text and no encoded copy live beside it."""
        report = run_suite(default_corpus.rings)
        for include_timings in (False, True):
            tracemalloc.start()
            try:
                data = report.to_json_bytes(include_timings)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert type(data) is bytes
            assert peak <= 1.5 * len(data), (peak, len(data))


class TestVerdictMemory:
    """What a run keeps: one dict per distinct reading, alternate-status
    and reason content, and no derived ring past the evaluation that
    built it."""

    NAMES = ("Z2", "Z4", "Z6", "Z2_A0_1", "Z6_A1_5")

    def rings(self, default_corpus):
        by_name = {r.name: r for r in default_corpus.rings}
        return [by_name[n] for n in self.NAMES]

    def test_equal_dicts_are_one_object(self, default_corpus):
        report = run_suite(self.rings(default_corpus))
        by_entry: dict[str, set[int]] = {}
        reasons: dict[str, set[int]] = {}
        results: dict[tuple, set[int]] = {}
        for v in report.verdicts:
            by_entry.setdefault(v.theorem, set()).add(id(v.readings))
            key = tuple(sorted(v.reading_results.items()))
            results.setdefault(key, set()).add(id(v.reading_results))
            if v.status == NOT_APPLICABLE:
                assert list(v.witness) == ["reason"]
                reasons.setdefault(v.witness["reason"], set()).add(
                    id(v.witness))
        assert len(by_entry) == len(REGISTRY)
        assert all(len(ids) == 1 for ids in by_entry.values())
        assert all(len(ids) == 1 for ids in results.values())
        assert reasons and all(len(ids) == 1 for ids in reasons.values())
        assert sum(v.status == NOT_APPLICABLE for v in report.verdicts) \
            > len(reasons)

    def test_context_keeps_no_derived_ring(self, default_corpus):
        derived = (HyperRing, QuotientImage, SubringImage,
                   FundamentalRingImage, RingContext)

        def held(value):
            if isinstance(value, derived):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from held(item)
            elif isinstance(value, dict):
                for item in value.values():
                    yield from held(item)

        rings = self.rings(default_corpus)
        contexts = [RingContext(r) for r in rings]
        suite = theorems.Suite(contexts)
        built = Counter()
        for ctx in contexts:
            for tid in ("T35", "T36", "T37", "T38", "T39", "T40"):
                verdict = run_theorem(REGISTRY_BY_ID[tid], ctx.ring,
                                      suite=suite, context=ctx)
                built[tid] += verdict.status == HOLDS
            assert list(held(ctx._cache)) == [], ctx.ring.name
        # each construction ran on some ring
        assert all(built[tid] for tid in ("T35", "T36", "T37", "T38", "T40"))


# Status of each entry on the small corpus, in ring order: h holds,
# c counterexample, - not-applicable.  Triage of the counterexamples
# is open (ROADMAP item 1).
SMALL_STATUSES = {
    "required": {
        "T01": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T02": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T03": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T04": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T05": "-h-cc-h-h-h-cccccccc-cccccccc",
        "T06": "-h-hc-h-h-h-hhchhhch-cccccccc",
        "T07": "-h-cc-h-h-h-cccccccc-cccccccc",
        "T08a": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T08b": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T09": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T10": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T11": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T12": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T13": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T14": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T15": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T16": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T17": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T18": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T19": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T20": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T21": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T22": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T23": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T24": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T25": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T26": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T27": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T28": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T29": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T30": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T31": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T32": "-h-hh-h-h-h-hhchhhch-hhhchhch",
        "T33": "-h-hh-h-h-h-hhchhhch-hhhchhch",
        "T34": "-h-cc-h-h-h-cchccccc-ccchcccc",
        "T35": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T36": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T37": "-h---------------------------",
        "T38": "-h-hh-h-h-h-hhhhhhhh-hhhhhhhh",
        "T39": "-----------------------------",
        "T40": "-h----h-h--------------------",
    },
    "waived": {
        "T01": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T02": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T03": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T04": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T05": "-hhcc-hhhhhhcccccccc-cccccccc",
        "T06": "-hchc-hchchchhchhhch-cccccccc",
        "T07": "-hhcc-hhhhhhcccccccc-cccccccc",
        "T08a": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T08b": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T09": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T10": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T11": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T12": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T13": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T14": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T15": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T16": "-hchh-hchchchhhhhhhh-hhhhhhhh",
        "T17": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T18": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T19": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T20": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T21": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T22": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T23": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T24": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T25": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T26": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T27": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T28": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T29": "-hchh-hchchchhhhhhhh-hhhhhhhh",
        "T30": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T31": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T32": "-hchh-hchchchhchhhch-hhhchhch",
        "T33": "-hchh-hchchchhchhhch-hhhchhch",
        "T34": "-hhcc-hhhhhhcchccccc-ccchcccc",
        "T35": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T36": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T37": "-h---------------------------",
        "T38": "-hhhh-hhhhhhhhhhhhhh-hhhhhhhh",
        "T39": "-----------------------------",
        "T40": "-h----h-h--------------------",
    },
}


class TestSmallCorpus:
    def test_counts(self, small_corpus):
        sizes = [r.size for r in small_corpus]
        assert (sizes.count(2), sizes.count(3)) == (5, 24)

    @pytest.mark.parametrize("standing", READING_AXES["standing"])
    def test_registry_runs_on_every_small_ring(self, standing, small_corpus):
        rings = small_corpus
        report = run_suite(rings, reading=Reading(standing=standing))
        assert len(report.verdicts) == len(REGISTRY) * len(rings)
        code = {HOLDS: "h", COUNTEREXAMPLE: "c", NOT_APPLICABLE: "-"}
        table: dict[str, str] = {}
        for v in report.verdicts:
            table[v.theorem] = table.get(v.theorem, "") + code[v.status]
        assert table == SMALL_STATUSES[standing]
        # Z2 with x o y = {0, 1} everywhere: every annihilator is empty, so
        # the sum of two annihilators is empty and T07 cannot hold
        [t07] = [v for v in report.verdicts
                 if v.theorem == "T07" and v.ring == "Z2:[0, 1][0, 1][0, 1]"]
        assert t07.status == COUNTEREXAMPLE
        assert t07.witness["sum"] == []


OTHER_AXES = Reading(**{axis: options[1] for axis, options in READING_AXES.items()
                        if axis != "standing"})


class TestReadingSweep:
    """The sweep reuses a status wherever a reading agrees with an earlier
    one on every axis that evaluation read; the reference evaluates every
    reading of every cell."""

    @staticmethod
    def reference(rings, base):
        contexts = [RingContext(r) for r in rings]
        suite = theorems.Suite(contexts)
        cells = []
        for entry_ in REGISTRY:
            axes = entry_.axes + ("standing",)
            for ctx in contexts:
                results = {}
                for rd in theorems._reading_combos(axes, base):
                    recorded = theorems._RecordingReading(rd)
                    results[rd] = theorems._evaluate(entry_, ctx, recorded,
                                                     suite)
                    assert recorded.axes_read().keys() <= set(axes), \
                        (entry_.tid, ctx.ring.name, recorded.axes_read())
                status, witness = results.pop(base)
                alternates = {rd.label(axes): alt for rd, (alt, _)
                              in results.items()}
                flips_to = HOLDS if status == COUNTEREXAMPLE else COUNTEREXAMPLE
                cells.append((entry_.tid, ctx.ring.name, status, witness,
                              alternates, flips_to in alternates.values()))
        return cells

    @pytest.mark.parametrize("base", [Reading(), Reading(standing="waived"),
                                      OTHER_AXES],
                             ids=["default", "waived", "other-axes"])
    @pytest.mark.parametrize("corpus", ["default", "small"])
    def test_matches_every_reading_evaluated(self, corpus, base,
                                             default_corpus, small_corpus):
        rings = default_corpus.rings if corpus == "default" else small_corpus
        report = run_suite(rings, reading=base)
        got = [(v.theorem, v.ring, v.status, v.witness, v.reading_results,
                v.reading_sensitive) for v in report.verdicts]
        assert got == self.reference(rings, base)

    def test_recording_view(self):
        rd = Reading(regular="vnr")
        recorded = theorems._RecordingReading(rd)
        assert recorded == rd and rd == recorded
        assert hash(recorded) == hash(rd)
        assert recorded != Reading()
        assert recorded.axes_read() == {}
        assert recorded.regular == "vnr" and recorded.regular == "vnr"
        assert recorded.standing == "required"
        assert recorded.axes_read() == {"regular": "vnr",
                                        "standing": "required"}
        for name in ("with_flags", "label", "missing"):
            with pytest.raises(AttributeError):
                getattr(recorded, name)
        assert recorded.axes_read().keys() == {"regular", "standing"}


class TestContextReadsRing:
    """``RingContext``'s ideal families and ``ann`` read values cached on
    the ring; the direct scans over its proper ideals are their oracle."""

    def test_against_direct_scans(self, default_corpus):
        for base in default_corpus.rings:
            rings = [base]
            for m in hyperideal_masks(base):
                if m != base.carrier_mask:
                    try:
                        rings.append(quotient(base, m).ring)
                    except HyperRingError:
                        pass
            for ring in rings:
                ctx = RingContext(ring)
                proper = tuple(m for m in hyperideal_masks(ring)
                               if m != ring.carrier_mask)
                assert ctx.proper() == proper
                for mode in READING_AXES["prime_mode"]:
                    rd = Reading(prime_mode=mode)
                    primes = tuple(m for m in proper if is_prime(ring, m, mode))
                    assert ctx.primes(rd) == primes
                    assert ctx.minimal_primes(rd) == tuple(
                        p for p in primes
                        if not any(q != p and is_subset(q, p) for q in primes))
                assert ctx.r_class() == tuple(
                    m for m in proper if r_closure_holds(ring, m))
                assert ctx.n_class() == tuple(
                    m for m in proper if is_n_hyperideal(ring, m))
                assert ctx.rad0() == radical(ring, ZERO_MASK)
                if ring.commutative:  # checkers see only commutative rings
                    for x in range(ring.size):
                        assert ctx.ann(x) == ann(ring, x)
                for m in hyperideal_masks(ring):
                    assert ctx.r_ok(m) == r_closure_holds(ring, m)
                    assert ctx.is_n(m) == is_n_hyperideal(ring, m)

    def test_shared_scans(self, default_corpus):
        """Products and factor witnesses are kept per ring and shared by
        every reading and entry; each key must still name everything the
        value depends on."""
        raw, closed = Reading(), Reading(product="closed")
        for ring in default_corpus.rings:
            ctx = RingContext(ring)
            ideals = ctx.ideals()
            for a in ideals:
                for b in ideals:
                    assert ctx.prod(raw, a, b) == set_product(ring, a, b)
                    assert ctx.prod(closed, a, b) == \
                        ideal_product(ring, a, b).members
            meets = (ring.nzd, ring.carrier_mask & ~ctx.rad0())
            for i in ideals:
                for m in meets:
                    assert ctx.factor_witness(i, m) == next(
                        ((a, b) for a in ideals if a & m for b in ideals
                         if is_subset(set_product(ring, a, b), i)
                         and not is_subset(b, i)), None)
