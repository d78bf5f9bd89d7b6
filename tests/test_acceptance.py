"""Acceptance criteria, one test per criterion.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream).  Oracles in
this module are written independently of the library: plain integer
arithmetic and dict/set loops, no reuse of the validation or classifier
code paths.
"""

import hashlib
import time
from contextlib import contextmanager

from hyperrings.bitsets import elements_of, mask_of
from hyperrings.classifiers import is_n_hyperideal
from hyperrings.core import (
    AxiomViolation,
    EmptyHyperproduct,
    classify_ring,
    validate_hyperring,
)
from hyperrings.corpus import CorpusSpec, generate_corpus, manifest_json_bytes, ordinary_ring
from hyperrings.construct import classical_n_ideal, fundamental_ring
from hyperrings.ideals import (
    hyperideal_masks,
    is_C_hyperideal,
    radical,
    radical_via_powers,
)
from hyperrings.theorems import RingContext, run_suite


@contextmanager
def _report(criterion, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {criterion} {label}: FAIL")
        raise
    print(f"[acceptance] {criterion} {label}: PASS")


# --------------------------------------------------------------------------
# criterion 1: axiom validation and the single-cell mutation suite


AXIOMS = ("add-identity", "add-commutative", "add-associative", "add-inverse",
          "hmul-empty", "hmul-commutative", "hmul-associative",
          "distributive", "sign-compatible")


def independent_axiom_scan(n, add, hmul):
    """Independent direct-loop verifier returning all violated axiom ids.

    Works on plain lists (add) and lists of frozensets (hmul); shares no
    code with the validator.
    """
    violated = set()
    if any(add[a][0] != a or add[0][a] != a for a in range(n)):
        violated.add("add-identity")
    if any(add[a][b] != add[b][a] for a in range(n) for b in range(n)):
        violated.add("add-commutative")
    if any(add[add[a][b]][c] != add[a][add[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        violated.add("add-associative")
    neg = {}
    for a in range(n):
        for b in range(n):
            if add[a][b] == 0:
                neg[a] = b
                break
    if len(neg) < n:
        violated.add("add-inverse")
    if any(not hmul[a][b] for a in range(n) for b in range(n)):
        violated.add("hmul-empty")
        return violated
    if any(hmul[a][b] != hmul[b][a] for a in range(n) for b in range(n)):
        violated.add("hmul-commutative")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = set()
                for t in hmul[a][b]:
                    left |= hmul[t][c]
                right = set()
                for u in hmul[b][c]:
                    right |= hmul[a][u]
                if left != right:
                    violated.add("hmul-associative")
    if len(neg) == n:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = hmul[a][add[b][c]]
                    rhs = {add[x][y] for x in hmul[a][b] for y in hmul[a][c]}
                    if not lhs <= rhs:
                        violated.add("distributive")
        for a in range(n):
            for b in range(n):
                expect = frozenset(neg[x] for x in hmul[a][b])
                if hmul[a][neg[b]] != expect or hmul[neg[a]][b] != expect:
                    violated.add("sign-compatible")
    return violated


def ordinary_tables(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    hmul = [[frozenset([(a * b) % n]) for b in range(n)] for a in range(n)]
    return add, hmul


def mutation_cells(n):
    if n <= 5:
        return [(a, b) for a in range(n) for b in range(n)]
    step = max(1, (n * n) // (3 * n))
    return [(k // n, k % n) for k in range(0, n * n, step)]


def test_criterion_1_axiom_validation_and_mutations():
    with _report("C1", "axiom validation"):
        start = time.perf_counter()
        for n in range(2, 13):
            add, hmul = ordinary_tables(n)
            ring = validate_hyperring(f"Z{n}", add,
                                      [[sorted(c) for c in row] for row in hmul])
            assert ring.size == n

        genuine = 0
        correct = 0
        false_rejections = []
        for n in range(2, 13):
            for table in ("add", "hmul"):
                for a, b in mutation_cells(n):
                    add, hmul = ordinary_tables(n)
                    if table == "add":
                        add[a][b] = (add[a][b] + 1) % n
                    else:
                        old = next(iter(hmul[a][b]))
                        hmul[a][b] = frozenset([(old + 1) % n])
                    violated = independent_axiom_scan(n, add, hmul)
                    try:
                        validate_hyperring(
                            "mut", add,
                            [[sorted(c) for c in row] for row in hmul])
                        rejected = None
                    except EmptyHyperproduct:
                        rejected = "hmul-empty"
                    except AxiomViolation as exc:
                        rejected = exc.axiom
                    if violated:
                        genuine += 1
                        if rejected in violated:
                            correct += 1
                    elif rejected is not None:
                        false_rejections.append((n, table, a, b, rejected))
        elapsed = time.perf_counter() - start
        assert not false_rejections, false_rejections
        assert genuine > 200
        ratio = correct / genuine
        print(f"  mutations: {genuine} genuinely breaking, "
              f"{ratio:.1%} rejected with a matching axiom id, "
              f"{elapsed:.2f}s")
        assert ratio >= 0.95
        assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 2: n-ideal agreement with an independent classical oracle


def zn_divisor_ideals(n):
    return [sorted(range(0, n, d)) for d in range(1, n + 1) if n % d == 0]


def zn_nilradical(n):
    out = set()
    for x in range(n):
        seen = set()
        p = x
        while p not in seen:
            seen.add(p)
            p = (p * x) % n
        if 0 in seen:
            out.add(x)
    return out


def zn_classical_n_ideal(n, members):
    if len(members) == n:
        return False
    nil = zn_nilradical(n)
    mset = set(members)
    for x in range(n):
        if x in nil:
            continue
        for y in range(n):
            if (x * y) % n in mset and y not in mset:
                return False
    return True


def test_criterion_2_n_ideal_oracle_equivalence():
    with _report("C2", "n-ideal oracle equivalence on Z2..Z30"):
        start = time.perf_counter()
        for n in range(2, 31):
            ring = ordinary_ring(n)
            divisor_ideals = zn_divisor_ideals(n)
            enumerated = [elements_of(m) for m in hyperideal_masks(ring)]
            assert sorted(map(tuple, enumerated)) == \
                sorted(map(tuple, divisor_ideals))
            for members in divisor_ideals:
                mask = mask_of(members)
                library = is_n_hyperideal(ring, mask)
                oracle = zn_classical_n_ideal(n, members)
                assert library == oracle, (n, members)
        z4 = ordinary_ring(4)
        found = [elements_of(m) for m in hyperideal_masks(z4)
                 if m != z4.carrier_mask and is_n_hyperideal(z4, m)]
        assert found == [[0], [0, 2]]
        elapsed = time.perf_counter() - start
        print(f"  checked n=2..30 in {elapsed:.2f}s")
        assert elapsed < 5.0


# --------------------------------------------------------------------------
# criterion 3: the proposition suite over the pinned default corpus


def test_criterion_3_theorem_suite(default_corpus):
    with _report("C3", "proposition suite over the default corpus"):
        start = time.perf_counter()
        report = run_suite(default_corpus.rings, explore_readings=True)
        elapsed = time.perf_counter() - start
        summary = report.summary()
        print(f"  rings={len(report.rings)} holds={summary['holds']} "
              f"counterexamples={summary['counterexample']} "
              f"not-applicable={summary['not-applicable']} "
              f"reading-sensitive={summary['reading-sensitive']} "
              f"in {elapsed:.1f}s")
        assert summary["counterexample"] == 0, report.counterexamples
        # reading-sensitive outcomes are permitted but must be enumerated
        obj = report.to_obj()
        for verdict in obj["verdicts"]:
            if verdict["reading_sensitive"]:
                assert verdict["reading_results"]
        sensitive_ids = sorted({v.theorem for v in report.reading_sensitive})
        print(f"  reading-sensitive entries: {sensitive_ids}")
        assert elapsed < 590.0


# --------------------------------------------------------------------------
# criterion 4: radical equality on C-hyperideals


def test_criterion_4_radical_equality(default_corpus):
    with _report("C4", "power radical equals prime radical on C-hyperideals"):
        checked = 0
        deviations = []
        for ring in default_corpus.rings:
            for m in hyperideal_masks(ring):
                if not is_C_hyperideal(ring, m):
                    continue
                agree = radical_via_powers(ring, m) == radical(ring, m)
                if ring.commutative:
                    assert agree, (ring.name, elements_of(m))
                    checked += 1
                elif not agree:
                    deviations.append((ring.name, elements_of(m)))
        print(f"  exact equality on {checked} C-hyperideals; "
              f"noncommutative deviations reported: {deviations}")
        assert checked > 150


# --------------------------------------------------------------------------
# criterion 5: zero-ideal-only characterization of integral hyperdomains


def test_criterion_5_only_n_ideal_is_zero_iff_domain(default_corpus):
    with _report("C5", "only-n-ideal-is-zero matches the domain flag"):
        deviations = []
        z13_checked = False
        for ring in default_corpus.rings:
            if ring.identity is None or not ring.commutative:
                continue
            ctx = RingContext(ring)
            only_zero = ctx.n_class() == (ctx.genzero(),)
            integral = classify_ring(ring).integral_hyperdomain
            if ring.name == "Z13_A5_7":
                z13_checked = True
                assert integral
                assert only_zero
            if ctx.standing_ok():
                assert only_zero == integral, ring.name
            elif only_zero != integral:
                deviations.append(ring.name)
        assert z13_checked
        print(f"  deviations (all outside the all-C standing): {deviations}")


# --------------------------------------------------------------------------
# criterion 6: fundamental-quotient correspondence


def test_criterion_6_fundamental_quotient_correspondence(default_corpus):
    with _report("C6", "n-ideals correspond across the fundamental quotient"):
        exercised = 0
        for ring in default_corpus.rings:
            # T40's registry limit (theorems.GAMMA_CAP)
            if not ring.scalar_identity or ring.size > 10:
                continue
            if not ring.commutative:
                continue
            fund = fundamental_ring(ring)
            ctx = RingContext(ring)
            for m in ctx.proper():
                left = ctx.is_n(m)
                right = classical_n_ideal(fund.ring, fund.image_mask(m))
                assert left == right, (ring.name, elements_of(m))
            exercised += 1
        print(f"  {exercised} scalar-identity rings within the gamma cap")
        assert exercised >= 10


# --------------------------------------------------------------------------
# criterion 7: byte-identical reports across consecutive runs


def test_criterion_7_determinism():
    with _report("C7", "two consecutive full runs are byte-identical"):
        first = generate_corpus(CorpusSpec())
        second = generate_corpus(CorpusSpec())
        assert manifest_json_bytes(first) == manifest_json_bytes(second)
        bytes1 = run_suite(first.rings, explore_readings=True).to_json_bytes()
        bytes2 = run_suite(second.rings, explore_readings=True).to_json_bytes()
        sha1 = hashlib.sha256(bytes1).hexdigest()
        sha2 = hashlib.sha256(bytes2).hexdigest()
        print(f"  report sha256 {sha1[:16]}... x2")
        assert sha1 == sha2
