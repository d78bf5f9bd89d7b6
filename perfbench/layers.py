"""Per-layer metrics from a traced child's spans and outputs.

Names follow the library's modules.  ``calls`` count calls into a layer's
wrapped functions (nested calls within a layer count too); ``self_s`` is span
time not covered by a child span.  A layer the workload never enters reports
0.  The end-to-end metric each should move is listed in README.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import tracer

TIDS = ([f"T{i:02d}" for i in range(1, 8)] + ["T08a", "T08b"]
        + [f"T{i:02d}" for i in range(9, 41)])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(out: Path, prep: dict, traced: dict, untraced_run_s: float) -> dict:
    trace = tracer.load(out / "spans.bin")
    stats = tracer.analyse(trace)
    header = trace.header
    empty = tracer.LayerStats()

    def layer(name: str) -> tracer.LayerStats:
        return stats.get(name, empty)

    m: dict[str, float] = {}
    validate = layer("core.validate")
    m["core.validate.calls"] = validate.calls
    m["core.validate.self_s"] = validate.self_s
    m["core.validate.reject_share"] = ratio(header["raised"].get("core.validate", 0),
                                            validate.calls)
    m["core.validate.table_us.p50"] = percentile(validate.durations, 0.50) * 1e6
    m["core.validate.table_us.p99"] = percentile(validate.durations, 0.99) * 1e6
    masks = layer("core.element_masks")
    m["core.element_masks.calls"] = masks.calls
    m["core.element_masks.self_s"] = masks.self_s
    m["core.element_masks.calls_per_ring"] = ratio(masks.calls, prep["rings"])
    for counter in tracer.COUNTED:
        m[f"{counter}.calls"] = header["counts"].get(counter, 0)

    for name in ("ideals.hyperideal_masks", "ideals.generated_ideal_mask",
                 "ideals.is_hyperideal", "ideals.product_family"):
        m[f"{name}.calls"] = layer(name).calls
        m[f"{name}.self_s"] = layer(name).self_s
    m["ideals.hyperideal_masks.computed"] = header["hyperideal_masks_computed"]
    m["ideals.arith.self_s"] = layer("ideals.arith").self_s
    m["classifiers.calls"] = layer("classifiers").calls
    m["classifiers.self_s"] = layer("classifiers").self_s

    for name in ("fundamental_ring", "quotient", "homs"):
        m[f"construct.{name}.calls"] = layer(f"construct.{name}").calls
        m[f"construct.{name}.self_s"] = layer(f"construct.{name}").self_s
    for name in ("subring", "product", "matrix"):
        m[f"construct.{name}.self_s"] = layer(f"construct.{name}").self_s

    for reading in ("default", "sweep"):
        m[f"theorems.{reading}.self_s"] = 0.0
        m[f"theorems.{reading}.total_s"] = 0.0
    for tid in TIDS:
        m[f"theorems.{tid}.self_s"] = 0.0
        for reading in ("default", "sweep"):
            checker = layer(f"theorems.{tid}@{reading}")
            m[f"theorems.{tid}.self_s"] += checker.self_s
            m[f"theorems.{reading}.self_s"] += checker.self_s
            m[f"theorems.{reading}.total_s"] += sum(checker.durations)
    verdicts = []
    if (out / "report.json").exists():
        verdicts = json.loads((out / "report.json").read_bytes())["verdicts"]
    evals = sum(len(v["reading_results"]) for v in verdicts)
    flips = sum(alt != v["status"] for v in verdicts for alt in v["reading_results"].values())
    m["theorems.sweep.evals"] = evals
    m["theorems.sweep.flip_share"] = ratio(flips, evals)
    m["theorems.na_share"] = ratio(sum(v["status"] == "not-applicable" for v in verdicts),
                                   len(verdicts))
    cells = layer("theorems.cell").durations
    m["theorems.cell_ms.p50"] = percentile(cells, 0.50) * 1e3
    m["theorems.cell_ms.p99"] = percentile(cells, 0.99) * 1e3

    m["io.load.self_s"] = layer("io.load").self_s
    m["io.report.self_s"] = layer("io.report").self_s
    m["corpus.generate.self_s"] = prep["generate_s"]
    m["trace.overhead_s"] = traced["run_s"] - untraced_run_s
    m["trace.unattributed_s"] = layer("root").self_s
    return m
