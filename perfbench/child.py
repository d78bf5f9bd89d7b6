"""One fresh-process repeat of a workload.

Run by ``run.py`` as ``python3 perfbench/child.py WORKLOAD INPUTS OUTPUTS
[--trace RUN_ID] [--setup-only]``.  The child imports the library from the
checkout's ``src``, loads its input files (set-up), runs the workload's main
phase, writes the outputs ``run.py`` checks into OUTPUTS, and prints one JSON
line with its timestamps.  ``setup_done`` is on the system-wide monotonic
clock so the parent can measure from the moment it started the process.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("inputs", type=Path)
    parser.add_argument("outputs", type=Path)
    parser.add_argument("--trace", metavar="RUN_ID")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import hyperrings

    if Path(hyperrings.__file__).resolve().parent != SRC / "hyperrings":
        raise SystemExit(f"imported {hyperrings.__file__}, not the checkout's library")

    span = no_span
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.trace)
        tracer.install(hyperrings)
        span = tracer.span

    with span("setup"):
        if args.workload == "tables":
            inputs = json.loads((args.inputs / "tables.json").read_text())
        else:
            inputs = [hyperrings.load_ring(p) for p in sorted(args.inputs.glob("*.json"))]
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    run = WORKLOADS[args.workload]
    with span("root"):
        start = time.perf_counter()
        outputs, ops = run(hyperrings, inputs, span)
        run_s = time.perf_counter() - start

    args.outputs.mkdir(parents=True, exist_ok=True)
    if isinstance(outputs, bytes):
        (args.outputs / "report.json").write_bytes(outputs)
    else:
        (args.outputs / "outcomes.json").write_text(json.dumps(outputs))
    if tracer is not None:
        tracer.dump(args.outputs / "spans.bin")
    print(json.dumps({"setup_done": setup_done, "run_s": run_s, "ops": ops}))
    return 0


def no_span(name: str):
    return contextlib.nullcontext()


def run_suite(hr, rings, span):
    """The registry with its reading sweep; ops are (entry, ring) cells."""
    report = hr.run_suite(rings)
    with span("io.report"):
        data = report.to_json_bytes()
    return data, len(report.verdicts)


def outcome(fn, *args, **kwargs):
    """The call's result, or the name of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every outcome is checked against the reference
        return type(exc).__name__


def run_constructions(hr, rings, span):
    """γ* with the cap raised to the carrier size, quotients by every proper
    nonzero hyperideal, and good homomorphisms for size products up to 36."""
    from hyperrings.construct import enumerate_good_homomorphisms
    from hyperrings.ideals import hyperideal_masks

    # Pass the cap only while fundamental_ring still has one, so retiring
    # it needs no edit here.
    capped = "gamma_cap" in inspect.signature(hr.fundamental_ring).parameters
    gamma = {}
    for ring in rings:
        kw = {"gamma_cap": ring.size} if capped else {}
        image = outcome(hr.fundamental_ring, ring, **kw)
        gamma[ring.name] = image if isinstance(image, str) else image.ring.size
    quotients = {}
    for ring in rings:
        masks = outcome(hyperideal_masks, ring)
        if isinstance(masks, str):
            quotients[ring.name] = [masks]
            continue
        sizes = []
        for members in masks:
            if members in (1, ring.carrier_mask):
                continue
            image = outcome(hr.quotient, ring, members)
            sizes.append(image if isinstance(image, str) else image.ring.size)
        quotients[ring.name] = sizes
    homs = {}
    for src in rings:
        for dst in rings:
            if src.size * dst.size <= 36:
                found = outcome(enumerate_good_homomorphisms, src, dst)
                homs[f"{src.name}|{dst.name}"] = found if isinstance(found, str) else len(found)
    ops = len(gamma) + sum(map(len, quotients.values())) + len(homs)
    return {"gamma": gamma, "quotients": quotients, "homs": homs}, ops


def run_tables(hr, candidates, span):
    """Every candidate table through validate_hyperring; ops are tables."""
    verdicts = []
    for c in candidates:
        try:
            hr.validate_hyperring(c["ring"], c["add"], c["hmul"],
                                  require_commutative=c["commutative"])
            verdicts.append("accept")
        except hr.AxiomViolation as exc:
            verdicts.append(exc.axiom)
        except Exception as exc:  # checked against the oracle's verdict
            verdicts.append(type(exc).__name__)
    return verdicts, len(verdicts)


WORKLOADS = {"suite": run_suite, "constructions": run_constructions,
             "tables": run_tables}

if __name__ == "__main__":
    sys.exit(main())
