"""Correctness checks behind ``failed``: each returns (attempted, failed).

``got`` is None when the child produced no output; then every op failed.

* ``suite``: every (entry, ring) cell's status, reading sensitivity and
  alternate-reading results against the pinned reference, plus the sha256 of
  the whole report.
* ``constructions``: γ* sizes, quotient sizes and good-homomorphism counts,
  none of which depend on the labelling, against the pinned reference keyed
  by ring name.
* ``tables``: the validator's accept/axiom verdict against ``oracle.verdict``.

The references live in ``reference/`` and are written by ``pin.py``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
STATUS_CODES = {"holds": "h", "counterexample": "c", "not-applicable": "n"}


def encode_cell(verdict: dict, alternates: list[str]) -> str:
    """Status, sensitivity and alternate results of one cell as a string."""
    results = verdict["reading_results"]
    if sorted(results) != alternates:
        return "labels:" + ",".join(sorted(results))
    return (STATUS_CODES[verdict["status"]]
            + ("s" if verdict["reading_sensitive"] else "-")
            + "".join(STATUS_CODES[results[label]] for label in alternates))


def suite_reference(report: dict) -> dict:
    alternates: dict[str, list[str]] = {}
    cells: dict[str, dict[str, str]] = {}
    for v in report["verdicts"]:
        labels = alternates.setdefault(v["theorem"], sorted(v["reading_results"]))
        cells.setdefault(v["theorem"], {})[v["ring"]] = encode_cell(v, labels)
    return {"alternates": alternates, "cells": cells}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


def check_suite(data: bytes | None, ref: dict) -> tuple[int, int]:
    attempted = sum(len(rows) for rows in ref["cells"].values())
    if data is None:
        return attempted, attempted
    got = json.loads(data)
    seen: dict[tuple[str, str], str] = {}
    for v in got["verdicts"]:
        labels = ref["alternates"].get(v["theorem"], [])
        seen[(v["theorem"], v["ring"])] = encode_cell(v, labels)
    failed = sum(seen.get((tid, ring)) != code
                 for tid, rows in ref["cells"].items() for ring, code in rows.items())
    failed += len(seen) - sum((tid, ring) in seen
                              for tid, rows in ref["cells"].items() for ring in rows)
    if hashlib.sha256(data).hexdigest() != ref["sha256"]:
        failed = max(failed, 1)
    return attempted, min(failed, attempted)


def check_constructions(got: dict | None, ref: dict) -> tuple[int, int]:
    attempted = (len(ref["gamma"]) + sum(map(len, ref["quotients"].values()))
                 + len(ref["homs"]))
    if got is None:
        return attempted, attempted
    failed = 0
    for part in ("gamma", "homs"):
        keys = set(ref[part]) | set(got[part])
        failed += sum(got[part].get(k) != ref[part].get(k) for k in keys)
    for name in set(ref["quotients"]) | set(got["quotients"]):
        want = Counter(ref["quotients"].get(name, []))
        have = Counter(got["quotients"].get(name, []))
        failed += max(sum(want.values()), sum(have.values())) - sum((want & have).values())
    return attempted, min(failed, attempted)


def check_tables(got: list[str] | None, expected: list[str]) -> tuple[int, int]:
    if got is None:
        return len(expected), len(expected)
    failed = sum(g != e for g, e in zip(got, expected)) + abs(len(got) - len(expected))
    return len(expected), min(failed, len(expected))
