"""Write the pinned references in ``reference/`` from the default corpus.

Run from the root of a checkout: ``python3 perfbench/pin.py``.  The
references hold only labelling-independent facts, so one pin checks every
seed.  Re-pin only in a change that alters what the library computes on
purpose, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hyperrings  # noqa: E402

from checks import REFERENCE, suite_reference  # noqa: E402
from child import no_span, run_constructions, run_suite  # noqa: E402


def main() -> int:
    rings = hyperrings.generate_corpus().rings
    data, _ = run_suite(hyperrings, rings, no_span)
    suite = {"sha256": hashlib.sha256(data).hexdigest(),
             **suite_reference(json.loads(data))}
    constructions, _ = run_constructions(hyperrings, rings, no_span)
    for part in constructions["quotients"].values():
        part.sort(key=str)
    REFERENCE.mkdir(exist_ok=True)
    for name, obj in (("suite", suite), ("constructions", constructions)):
        text = json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False)
        (REFERENCE / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    print(f"pinned report sha256 {suite['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
