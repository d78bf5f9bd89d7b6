"""Loading and saving hyperring definition files.

The on-disk format is a JSON object::

    {"name": str, "size": n, "add": [[int; n]; n], "hmul": [[[int, ...]; n]; n]}

plus optional keys ``"commutative"`` (bool, default true) and the
``"construction"``/``"source"``/``"params"`` provenance strings of
constructed rings.
Serialization is canonical (sorted cells, sorted keys, LF) so that saving
the same ring twice is byte-identical and content hashes are stable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .bitsets import elements_of
from .core import DimensionMismatch, HyperRing, HyperRingError, validate_hyperring


class FileFormatError(HyperRingError):
    """A definition file is malformed; the message names the offending field."""


def ring_to_obj(ring: HyperRing) -> dict:
    obj: dict = {
        "name": ring.name,
        "size": ring.size,
        "add": [list(row) for row in ring.add],
        "hmul": [[elements_of(cell) for cell in row] for row in ring.hmul],
    }
    if not ring.commutative:
        obj["commutative"] = False
    if ring.provenance:
        for key, value in ring.provenance:
            obj[key] = value
    return obj


def ring_to_json_bytes(ring: HyperRing) -> bytes:
    text = json.dumps(ring_to_obj(ring), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return (text + "\n").encode("utf-8")


def ring_sha256(ring: HyperRing) -> str:
    import hashlib  # here, by its one user: importing it maps OpenSSL
    return hashlib.sha256(ring_to_json_bytes(ring)).hexdigest()


def save_ring(ring: HyperRing, path: Union[str, Path]) -> None:
    Path(path).write_bytes(ring_to_json_bytes(ring))


def ring_from_obj(obj: object, *, source: str = "<object>") -> HyperRing:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{source}: top level must be a JSON object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise FileFormatError(f"{source}: field 'name' must be a nonempty string")
    size = obj.get("size")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise FileFormatError(f"{source}: field 'size' must be a positive integer")
    add = obj.get("add")
    if not isinstance(add, list) or len(add) != size:
        raise FileFormatError(f"{source}: field 'add' must be a {size}x{size} array")
    for i, row in enumerate(add):
        if not isinstance(row, list) or len(row) != size:
            raise FileFormatError(f"{source}: add[{i}] must be an array of length {size}")
    hmul = obj.get("hmul")
    if not isinstance(hmul, list) or len(hmul) != size:
        raise FileFormatError(f"{source}: field 'hmul' must be a {size}x{size} array")
    for i, row in enumerate(hmul):
        if not isinstance(row, list) or len(row) != size:
            raise FileFormatError(f"{source}: hmul[{i}] must be an array of length {size}")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or not cell:
                raise FileFormatError(
                    f"{source}: hmul[{i}][{j}] must be a nonempty array of indices")
    commutative = obj.get("commutative", True)
    if not isinstance(commutative, bool):
        raise FileFormatError(f"{source}: field 'commutative' must be a boolean")
    provenance = {}
    for key in ("construction", "source", "params"):
        if key in obj:
            if not isinstance(obj[key], str):
                raise FileFormatError(f"{source}: field {key!r} must be a string")
            provenance[key] = obj[key]
    try:
        return validate_hyperring(
            name, add, hmul,
            require_commutative=commutative,
            provenance=provenance or None,
        )
    except DimensionMismatch as exc:
        # the value checks live in validation; name the file here
        raise FileFormatError(f"{source}: {exc}") from exc


def load_ring(path: Union[str, Path]) -> HyperRing:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{p}: cannot read file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return ring_from_obj(obj, source=str(p))
