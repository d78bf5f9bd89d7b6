"""Generation of the standard corpus of small hyperrings.

Families:

* ``ordinary-Zn``: the modular ring with singleton hyperproducts.
* ``Zn-with-A``: ``x o y = {x * a * y mod n : a in A}`` for a parameter set A.
* ``total-hyperop``: stress variants whose products are the whole carrier,
  the nonzero part of it, or the nonzero part away from zero factors.
* depth-1 closure of the base family under quotients, pairwise products
  and the 2x2 matrix construction, within size caps.

Every base candidate and every matrix structure is passed through full
validation; quotients and products are built from tables that their
construction proves to be a hyperring (see :mod:`hyperrings.construct`).
Failures are discarded with a counted log entry, never silently.
Generation is deterministic and content-deduplicated, and the result can be
pinned in a manifest of name/content-hash pairs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional

from .bitsets import elements_of
from .core import HyperRing, HyperRingError, validate_hyperring
from .construct import (
    direct_product,
    matrix_cap_exceeded,
    matrix_hyperring,
    quotient,
)
from .ideals import hyperideal_masks
from .io import ring_sha256, ring_to_json_bytes

DEFAULT_A_SETS: tuple[tuple[int, ...], ...] = ((1,), (5, 7), (2, 3), (-1, 1))
PRODUCT_SIZE_CAP = 12  # largest carrier the closure builds as a direct product


class CorpusSpec(NamedTuple):
    ordinary_range: tuple[int, int] = (2, 12)
    zna_range: tuple[int, int] = (2, 13)
    a_sets: tuple[tuple[int, ...], ...] = DEFAULT_A_SETS
    total_range: Optional[tuple[int, int]] = None
    closure_depth: int = 1


class CorpusResult:
    """Mutable: :func:`generate_corpus` fills both lists after building it."""

    def __init__(self, rings: Optional[list[HyperRing]] = None,
                 discarded: Optional[list[tuple[str, str]]] = None):
        self.rings = [] if rings is None else rings
        self.discarded = [] if discarded is None else discarded

    def names(self) -> list[str]:
        return [r.name for r in self.rings]


def ordinary_ring(n: int) -> HyperRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    hmul = [[[(a * b) % n] for b in range(n)] for a in range(n)]
    return validate_hyperring(f"Z{n}", add, hmul)


def reduced_a_set(n: int, a_set: tuple[int, ...]) -> tuple[int, ...]:
    """Interpret negative entries as ``n - |v|`` and reduce mod n."""
    vals = set()
    for v in a_set:
        vals.add((n + v) % n if v < 0 else v % n)
    return tuple(sorted(vals))


def zn_with_products(n: int, a_set: tuple[int, ...]) -> HyperRing:
    avals = reduced_a_set(n, a_set)
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    hmul = [[sorted({(x * a * y) % n for a in avals}) for y in range(n)]
            for x in range(n)]
    return validate_hyperring(f"Z{n}_A{'_'.join(map(str, avals))}", add, hmul)


def total_hyperop_ring(n: int, variant: str) -> HyperRing:
    """Stress families with maximal products.

    ``full``: every product is the whole carrier.  ``punctured``: every
    product is the nonzero part.  ``absorbing``: zero factors give {0},
    anything else the nonzero part.
    """
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    everything = list(range(n))
    nonzero = list(range(1, n))

    def cell(x: int, y: int) -> list[int]:
        if variant == "full":
            return everything
        if variant == "punctured":
            return nonzero
        if variant == "absorbing":
            return [0] if x == 0 or y == 0 else nonzero
        raise ValueError(f"unknown total-hyperop variant {variant!r}")

    hmul = [[cell(x, y) for y in range(n)] for x in range(n)]
    return validate_hyperring(f"Z{n}_total_{variant}", add, hmul)


def generate_corpus(spec: CorpusSpec = CorpusSpec()) -> CorpusResult:
    if spec.closure_depth not in (0, 1):
        raise ValueError(f"closure depth must be 0 or 1, "
                         f"not {spec.closure_depth}")
    result = CorpusResult()
    seen_tables: set[tuple] = set()

    def admit(builder, label: str) -> Optional[HyperRing]:
        try:
            ring = builder()
        except HyperRingError as exc:
            result.discarded.append((label, str(exc)))
            return None
        key = ring.table_key()
        if key in seen_tables:
            result.discarded.append((label, "duplicate tables"))
            return None
        seen_tables.add(key)
        result.rings.append(ring)
        return ring

    lo, hi = spec.ordinary_range
    for n in range(lo, hi + 1):
        admit(lambda n=n: ordinary_ring(n), f"Z{n}")

    lo, hi = spec.zna_range
    for n in range(lo, hi + 1):
        for a_set in spec.a_sets:
            avals = reduced_a_set(n, a_set)
            label = f"Z{n}_A{'_'.join(map(str, avals))}"
            admit(lambda n=n, a=a_set: zn_with_products(n, a), label)

    if spec.total_range is not None:
        lo, hi = spec.total_range
        for n in range(lo, hi + 1):
            for variant in ("full", "punctured", "absorbing"):
                admit(lambda n=n, v=variant: total_hyperop_ring(n, v),
                      f"Z{n}_total_{variant}")

    if spec.closure_depth:
        base = list(result.rings)
        for ring in base:
            proper = [m for m in hyperideal_masks(ring)
                      if m != ring.carrier_mask and m != 1]
            for members in proper:
                label = f"{ring.name}/{{{','.join(map(str, elements_of(members)))}}}"
                admit(lambda r=ring, m=members: quotient(r, m).ring, label)
        for i, r1 in enumerate(base):
            for r2 in base[i:]:
                if r1.size * r2.size > PRODUCT_SIZE_CAP:
                    continue
                admit(lambda a=r1, b=r2: direct_product(a, b),
                      f"{r1.name}x{r2.name}")
        for ring in base:
            # skipped, not discarded: matrix_hyperring would raise CapExceeded
            if matrix_cap_exceeded(ring, 2) is not None:
                continue
            if not ring.scalar_identity:
                continue
            admit(lambda r=ring: matrix_hyperring(r, 2), f"M2({ring.name})")

    return result


def corpus_manifest(result: CorpusResult) -> list[dict]:
    out = []
    for ring in result.rings:
        prov = dict(ring.provenance) if ring.provenance else {}
        out.append({
            "name": ring.name,
            "sha256": ring_sha256(ring),
            "generator": prov.get("construction", "base"),
            "params": prov.get("params", ""),
        })
    return out


def manifest_json_bytes(result: CorpusResult) -> bytes:
    text = json.dumps(corpus_manifest(result), indent=2, sort_keys=True,
                      ensure_ascii=True)
    return (text + "\n").encode("utf-8")


def slug(name: str) -> str:
    out = []
    for ch in name:
        if ch.isalnum() or ch in "._-":
            out.append(ch)
        elif ch == "/":
            out.append("_mod_")
        else:
            out.append("_")
    text = "".join(out)
    while "__" in text:
        text = text.replace("__", "_")
    return text.strip("_")


def save_corpus(result: CorpusResult, directory: Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ring in result.rings:
        path = directory / f"{slug(ring.name)}.json"
        path.write_bytes(ring_to_json_bytes(ring))
        paths.append(path)
    (directory / "manifest.json").write_bytes(manifest_json_bytes(result))
    return paths
