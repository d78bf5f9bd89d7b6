"""Command-line surface: validation, classification, ideal listings,
corpus generation, constructions, and the proposition suite.

Exit codes: 0 on success (or a suite run with no counterexample), 1 when
the suite finds a counterexample under the default readings, 2 on usage,
IO, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bitsets import elements_of, mask_of
from .classifiers import classify_ideal
from .core import HyperRing, HyperRingError, classify_ring
from .construct import (
    direct_product,
    fundamental_ring,
    matrix_hyperring,
    quotient,
)
from .corpus import CorpusSpec, generate_corpus, save_corpus
from .ideals import enumerate_hyperideals, is_hyperideal
from .io import FileFormatError, load_ring, ring_to_obj
from .theorems import REGISTRY_BY_ID, Reading, reading_from_flags, run_suite


def _load(path: str) -> HyperRing:
    return load_ring(Path(path))


def _ideal_arg(ring: HyperRing, text: str) -> int:
    """The hyperideal of ``ring`` that ``--ideal`` names by its
    comma-separated elements."""
    elements = [int(t) for t in text.split(",")]
    outside = [x for x in elements if not 0 <= x < ring.size]
    if outside:
        raise ValueError(f"--ideal {text}: elements {outside} "
                         f"outside 0..{ring.size - 1}")
    members = mask_of(elements)
    if not is_hyperideal(ring, members):
        raise ValueError(f"--ideal {text}: not a hyperideal of {ring.name}")
    return members


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    ring = _load(args.file)
    flags = classify_ring(ring)
    print(f"{ring.name}: valid hyperring with {ring.size} elements")
    if ring.identity is not None:
        kind = "scalar identity" if ring.scalar_identity else "identity"
        print(f"  {kind}: {ring.identity}")
    else:
        print("  no identity element")
    print(f"  commutative: {ring.commutative}")
    print(f"  integral hyperdomain: {flags.integral_hyperdomain}, "
          f"reduced: {flags.reduced}, regular: {flags.regular_ring}, "
          f"invertible: {flags.invertible_ring}")
    return 0


def _cmd_ideals(args: argparse.Namespace) -> int:
    ring = _load(args.file)
    listing = [{
        "elements": p.elements,
        "is_hyperideal": p.is_hyperideal,
        "is_C": p.is_C,
        "is_proper": p.is_proper,
    } for p in enumerate_hyperideals(ring)]
    _emit(listing, args.json)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    ring = _load(args.file)
    if args.ideal:
        masks = [_ideal_arg(ring, args.ideal)]
    else:
        masks = [p.members for p in enumerate_hyperideals(ring)]
    report = {"ring": ring.name, "mode": args.mode, "ideals": []}
    for members in masks:
        flags = classify_ideal(ring, members, mode=args.mode)
        report["ideals"].append({
            "elements": elements_of(members),
            "prime": flags.prime,
            "primary": flags.primary,
            "maximal": flags.maximal,
            "minimal_nonzero": flags.minimal_nonzero,
            "essential": flags.essential,
            "r_ideal": flags.r_ideal,
            "n_ideal": flags.n_ideal,
            "is_C": flags.is_C,
            "witnesses": {k: list(v) for k, v in flags.witnesses},
        })
    _emit(report, args.json)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = CorpusSpec(
        ordinary_range=(args.ordinary_lo, args.ordinary_hi),
        zna_range=(args.zna_lo, args.zna_hi),
        total_range=(args.total_lo, args.total_hi) if args.total_hi else None,
        closure_depth=args.depth,
    )
    result = generate_corpus(spec)
    save_corpus(result, Path(args.out))
    print(f"wrote {len(result.rings)} rings to {args.out} "
          f"({len(result.discarded)} candidates discarded)")
    for label, reason in result.discarded:
        print(f"  discarded {label}: {reason}")
    return 0


def _cmd_theorems_run(args: argparse.Namespace) -> int:
    only = None
    if args.only is not None:
        only = set(t.strip() for t in args.only.split(",") if t.strip())
        if not only:
            raise FileFormatError(f"--only {args.only!r} names no theorem id")
        unknown = only - set(REGISTRY_BY_ID)
        if unknown:
            raise FileFormatError(f"unknown theorem ids: {sorted(unknown)}")
    if args.corpus == "default":
        result = generate_corpus(CorpusSpec())
        rings = result.rings
        discarded = result.discarded
    else:
        directory = Path(args.corpus)
        if not directory.is_dir():
            raise FileFormatError(f"{directory}: not a corpus directory")
        rings = [load_ring(p) for p in sorted(directory.glob("*.json"))
                 if p.name != "manifest.json"]
        discarded = []
    reading = Reading()
    if args.reading:
        flags = {}
        for token in args.reading.split(","):
            axis, _, value = token.partition("=")
            flags[axis.strip()] = value.strip()
        reading = reading_from_flags(flags)
    report = run_suite(rings, only=only, reading=reading,
                       explore_readings=not args.no_readings,
                       fail_fast=args.fail_fast)
    report.discarded = discarded
    summary = report.summary()
    rows: dict[str, dict[str, int]] = {}
    for v in report.verdicts:
        row = rows.setdefault(v.theorem, {"holds": 0, "counterexample": 0,
                                          "not-applicable": 0, "sensitive": 0})
        row[v.status] += 1
        if v.reading_sensitive:
            row["sensitive"] += 1
    print(f"{'theorem':<8}{'holds':>7}{'counter':>9}{'n/a':>6}{'reading':>9}")
    for tid in sorted(rows):
        row = rows[tid]
        print(f"{tid:<8}{row['holds']:>7}{row['counterexample']:>9}"
              f"{row['not-applicable']:>6}{row['sensitive']:>9}")
    print(f"rings: {len(report.rings)}  "
          f"holds: {summary['holds']}  "
          f"counterexamples: {summary['counterexample']}  "
          f"not-applicable: {summary['not-applicable']}  "
          f"reading-sensitive: {summary['reading-sensitive']}")
    for v in report.counterexamples:
        print(f"COUNTEREXAMPLE {v.theorem} on {v.ring}: {v.witness}")
    for v in report.reading_sensitive:
        alts = {k: s for k, s in v.reading_results.items() if s != v.status}
        print(f"reading-sensitive {v.theorem} on {v.ring}: "
              f"default={v.status} alternates={alts}")
    if args.json:
        with open(args.json, "wb") as fp:
            report.write_json(fp, args.timings)
        print(f"report written to {args.json}")
    return report.exit_status()


def _cmd_construct(args: argparse.Namespace) -> int:
    ring = _load(args.file)
    if args.kind == "quotient":
        if not args.ideal:
            raise FileFormatError("quotient requires --ideal")
        out = quotient(ring, _ideal_arg(ring, args.ideal)).ring
    elif args.kind == "product":
        if not args.other:
            raise FileFormatError("product requires a second file")
        out = direct_product(ring, _load(args.other))
    elif args.kind == "matrix":
        out = matrix_hyperring(ring, args.n)
    elif args.kind == "gamma-star":
        fund = fundamental_ring(ring)
        _emit({
            "construction": "gamma-star",
            "source": fund.source_name,
            "classes": [elements_of(c) for c in fund.classes],
            "projection": list(fund.projection),
            "size": fund.ring.size,
            "add": [list(r) for r in fund.ring.add],
            "mul": [list(r) for r in fund.ring.mul],
        }, args.out)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise FileFormatError(f"unknown construction {args.kind}")
    _emit(ring_to_obj(out), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperrings",
        description="Finite multiplicative hyperring workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a hyperring definition file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("ideals", help="list all hyperideals of a ring")
    p.add_argument("file")
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("classify", help="classify hyperideals of a ring")
    p.add_argument("file")
    p.add_argument("--ideal", help="comma-separated elements of one ideal")
    p.add_argument("--mode", choices=("relaxed", "strict"), default="relaxed")
    p.add_argument("--json")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("generate", help="generate the corpus into a directory")
    p.add_argument("--out", required=True)
    p.add_argument("--ordinary-lo", type=int, default=2)
    p.add_argument("--ordinary-hi", type=int, default=12)
    p.add_argument("--zna-lo", type=int, default=2)
    p.add_argument("--zna-hi", type=int, default=13)
    p.add_argument("--total-lo", type=int, default=0)
    p.add_argument("--total-hi", type=int, default=0)
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("theorems", help="proposition suite")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    pr = tsub.add_parser("run", help="run the registry over a corpus")
    pr.add_argument("--corpus", default="default",
                    help="'default' or a directory of ring files")
    pr.add_argument("--only", help="comma-separated theorem ids")
    pr.add_argument("--reading", help="axis=value[,axis=value] overrides")
    pr.add_argument("--json", help="write the JSON report here")
    pr.add_argument("--fail-fast", action="store_true")
    pr.add_argument("--timings", action="store_true",
                    help="include wall times in the JSON report")
    pr.add_argument("--no-readings", action="store_true",
                    help="skip alternate-reading sweeps")
    pr.set_defaults(fn=_cmd_theorems_run)

    p = sub.add_parser("construct", help="build a derived ring")
    p.add_argument("kind", choices=("quotient", "product", "matrix", "gamma-star"))
    p.add_argument("file")
    p.add_argument("other", nargs="?", help="second ring file for products")
    p.add_argument("--ideal", help="comma-separated ideal elements (quotient)")
    p.add_argument("--n", type=int, default=2, help="matrix dimension")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(fn=_cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (HyperRingError, FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
