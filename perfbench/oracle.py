"""Independent axiom scan for the ``tables`` workload.

Written from the definition with plain Python sets; it imports nothing from
the library or its tests.  ``verdict`` returns ``"accept"`` or the id of the
first violated law in the order the validator documents (add-identity,
add-commutative, add-associative, add-inverse, hmul-commutative,
hmul-associative, distributive, sign-compatible).
"""

from __future__ import annotations

from itertools import product

ACCEPT = "accept"


def verdict(add: list[list[int]], hmul: list[list[list[int]]],
            commutative: bool) -> str:
    n = len(add)
    cells = [[frozenset(c) for c in row] for row in hmul]
    if any(not c for row in cells for c in row):
        return "EmptyHyperproduct"
    pairs = list(product(range(n), repeat=2))
    triples = list(product(range(n), repeat=3))

    if any(add[a][0] != a or add[0][a] != a for a in range(n)):
        return "add-identity"
    if any(add[a][b] != add[b][a] for a, b in pairs):
        return "add-commutative"
    if any(add[add[a][b]][c] != add[a][add[b][c]] for a, b, c in triples):
        return "add-associative"
    neg = {}
    for a, b in pairs:
        if add[a][b] == 0:
            neg.setdefault(a, b)
    if len(neg) != n:
        return "add-inverse"
    if commutative and any(cells[a][b] != cells[b][a] for a, b in pairs):
        return "hmul-commutative"

    def times(left: frozenset, right: frozenset) -> frozenset:
        return frozenset().union(*(cells[x][y] for x in left for y in right))

    def plus(left: frozenset, right: frozenset) -> frozenset:
        return frozenset(add[x][y] for x in left for y in right)

    for a, b, c in triples:
        if times(cells[a][b], {c}) != times({a}, cells[b][c]):
            return "hmul-associative"
    for a, b, c in triples:
        if not cells[a][add[b][c]] <= plus(cells[a][b], cells[a][c]):
            return "distributive"
        if not cells[add[b][c]][a] <= plus(cells[b][a], cells[c][a]):
            return "distributive"
    for a, b in pairs:
        negated = frozenset(neg[x] for x in cells[a][b])
        if cells[a][neg[b]] != negated or cells[neg[a]][b] != negated:
            return "sign-compatible"
    return ACCEPT
