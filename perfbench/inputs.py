"""Seeded inputs for the benchmark workloads.

``corpus_rings(seed)`` returns the default corpus with every base ring's
nonzero labels permuted (0 stays fixed).  Products and ``M2(Z2)`` are
rebuilt from the relabelled factors with the library's own constructions,
under the same names and in the same order, so every verdict, size and
count the workloads check is the same for every seed while the tables the
library sees differ.

``table_candidates(rings, seed)`` returns the validation workload: each
ring's unmutated tables plus ``MUTATIONS_PER_RING`` single-cell mutations of
its ``add`` or ``hmul`` table.  A mutated cell and its mirror cell change
together on commutative rings, so the rejections land on the group,
associativity, distributivity and sign laws rather than all on commutativity.
"""

from __future__ import annotations

import random
import re
import time

from hyperrings import (
    HyperRing,
    direct_product,
    generate_corpus,
    matrix_hyperring,
    validate_hyperring,
)
from hyperrings.bitsets import elements_of

MUTATIONS_PER_RING = 30


def relabel(ring: HyperRing, perm: list[int]) -> HyperRing:
    """The ring with element ``x`` renamed ``perm[x]``."""
    n = ring.size
    add = [[0] * n for _ in range(n)]
    hmul = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[perm[a]][perm[b]] = perm[ring.add[a][b]]
            hmul[perm[a]][perm[b]] = sorted(perm[x] for x in elements_of(ring.hmul[a][b]))
    return validate_hyperring(ring.name, add, hmul,
                              require_commutative=ring.commutative)


def corpus_rings(seed: int) -> tuple[list[HyperRing], float]:
    """The relabelled corpus, and the seconds ``generate_corpus`` took."""
    start = time.perf_counter()
    default = generate_corpus().rings
    generate_s = time.perf_counter() - start
    rng = random.Random(f"relabel:{seed}")
    by_name: dict[str, HyperRing] = {}
    out = []
    for ring in default:
        prov = dict(ring.provenance or ())
        kind = prov.get("construction")
        if kind is None:
            perm = [0] + rng.sample(range(1, ring.size), ring.size - 1)
            new = relabel(ring, perm)
        elif kind == "product":
            left, right = prov["source"].split(",")
            new = direct_product(by_name[left], by_name[right])
        elif kind == "matrix":
            dim = int(re.fullmatch(r"n=(\d+)", prov["params"]).group(1))
            new = matrix_hyperring(by_name[prov["source"]], dim)
        else:
            raise ValueError(f"{ring.name}: no rebuild rule for {kind!r} rings")
        if new.name != ring.name or new.size != ring.size:
            raise ValueError(f"rebuilt {new.name} does not match {ring.name}")
        by_name[new.name] = new
        out.append(new)
    return out, generate_s


def table_candidates(rings: list[HyperRing], seed: int) -> list[dict]:
    rng = random.Random(f"tables:{seed}")
    out = []
    for ring in rings:
        n = ring.size
        add = [list(row) for row in ring.add]
        hmul = [[elements_of(cell) for cell in row] for row in ring.hmul]
        out.append({"ring": ring.name, "mutation": None,
                    "commutative": ring.commutative, "add": add, "hmul": hmul})
        for _ in range(MUTATIONS_PER_RING):
            a, b = rng.randrange(n), rng.randrange(n)
            new_add = [row[:] for row in add]
            new_hmul = [[cell[:] for cell in row] for row in hmul]
            if rng.random() < 0.5:
                value = rng.choice([v for v in range(n) if v != add[a][b]])
                new_add[a][b] = new_add[b][a] = value
                what = f"add[{a}][{b}]={value}"
            else:
                cell = set(hmul[a][b])
                cell ^= {rng.randrange(n)}
                if not cell:
                    cell = {rng.choice([v for v in range(n) if v not in hmul[a][b]])}
                new_hmul[a][b] = sorted(cell)
                if ring.commutative:
                    new_hmul[b][a] = sorted(cell)
                what = f"hmul[{a}][{b}]={sorted(cell)}"
            out.append({"ring": ring.name, "mutation": what,
                        "commutative": ring.commutative,
                        "add": new_add, "hmul": new_hmul})
    return out
