"""Outside-in layer spans for a traced child run.

``Tracer.install`` wraps the library's public functions from outside.  Each
wrapper replaces the original in every ``hyperrings`` module namespace that
holds it, because the modules import ``hprod``, ``bits``, ``set_sum`` and
friends by name and a wrapper in the defining module alone would miss those
calls.  Registry checkers are wrapped per entry, with the base reading and
the alternate readings recorded under different span names.

Layer functions record spans (name, start, end, parent, run id) in flat
in-memory arrays; the hot kernels (``bits``, ``hprod``, ``set_sum``) only
count calls, since a span per call would cost more than the kernel.  The
spans are written once, by ``dump``, when the run ends, and ``load`` reads
them back for ``analyse``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

# (module, function) -> layer name.  Several functions may share a layer.
SPANNED: dict[str, dict[str, str]] = {
    "core": {
        "validate_hyperring": "core.validate",
        "nzd_mask": "core.element_masks",
        "vnr_mask": "core.element_masks",
        "zero_divisor_mask": "core.element_masks",
        "classify_ring": "core.element_masks",
        "is_nilpotent": "core.element_masks",
    },
    "ideals": {
        "hyperideal_masks": "ideals.hyperideal_masks",
        "generated_ideal_mask": "ideals.generated_ideal_mask",
        "is_hyperideal": "ideals.is_hyperideal",
        "product_family": "ideals.product_family",
        "is_C_hyperideal": "ideals.product_family",
        **{name: "ideals.arith" for name in (
            "colon", "ann", "ann_of_set", "zero_radical", "radical",
            "radical_via_powers", "prime_masks", "prime_condition_holds",
            "ideal_sum", "ideal_product", "set_product", "additive_closure")},
    },
    "construct": {
        "fundamental_ring": "construct.fundamental_ring",
        "quotient": "construct.quotient",
        "enumerate_good_homomorphisms": "construct.homs",
        "check_good_homomorphism": "construct.homs",
        "subhyperring_restrict": "construct.subring",
        "subhyperring_masks": "construct.subring",
        "direct_product": "construct.product",
        "matrix_hyperring": "construct.matrix",
        "matrix_ideal_mask": "construct.matrix",
    },
    "io": {"load_ring": "io.load"},
    "theorems": {"run_theorem": "theorems.cell"},
}
# counter name -> (module, function), for kernels too hot for a span per call
COUNTED: dict[str, tuple[str, str]] = {
    "bitsets.bits": ("bitsets", "bits"),
    "core.hprod": ("core", "hprod"),
    "core.set_sum": ("core", "set_sum"),
}


def classifier_functions(module) -> dict[str, str]:
    """Every public function defined in ``hyperrings.classifiers``."""
    return {name: "classifiers" for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: dict[str, int] = {}
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._hyperideal_masks = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------
    def begin(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end(idx)

    def spanned(self, fn: Callable, name: str) -> Callable:
        name_id = self.name_id(name)
        begin, end, raised = self.begin, self.end, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name_id)
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[name] = raised.get(name, 0) + 1
                raise
            finally:
                end(idx)
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        box = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            box[0] += 1
            return fn(*args)
        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self, package) -> None:
        """Wrap the layer functions of an imported ``hyperrings`` package."""
        def module(short: str):
            return sys.modules[f"{package.__name__}.{short}"]

        self._hyperideal_masks = module("ideals").hyperideal_masks
        plan: list[tuple[Callable, Callable]] = []
        spanned = dict(SPANNED, classifiers=classifier_functions(module("classifiers")))
        for short, table in spanned.items():
            for fname, layer in table.items():
                original = getattr(module(short), fname)
                plan.append((original, self.spanned(original, layer)))
        for counter, (short, fname) in COUNTED.items():
            original = getattr(module(short), fname)
            plan.append((original, self.counted(original, counter)))
        replacements = {id(orig): wrapped for orig, wrapped in plan}
        for name, mod in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        self._wrap_registry(module("theorems"))

    def _wrap_registry(self, theorems) -> None:
        base = theorems.Reading()
        begin, end = self.begin, self.end
        for i, entry in enumerate(theorems.REGISTRY):
            def wrapped(ctx, rd, suite, _checker=entry.checker,
                        _default=self.name_id(f"theorems.{entry.tid}@default"),
                        _sweep=self.name_id(f"theorems.{entry.tid}@sweep")):
                idx = begin(_default if rd == base else _sweep)
                try:
                    return _checker(ctx, rd, suite)
                finally:
                    end(idx)
            theorems.REGISTRY[i] = dataclasses.replace(entry, checker=wrapped)
        theorems.REGISTRY_BY_ID.update({e.tid: e for e in theorems.REGISTRY})

    # -- output ----------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the header line (JSON) followed by the four span arrays."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.span_start),
            "raised": self.raised,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "hyperideal_masks_computed": self._hyperideal_masks.cache_info().misses,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


@dataclasses.dataclass
class Trace:
    header: dict
    name: array
    parent: array
    start: array
    end: array


def load(path: Path) -> Trace:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return Trace(header, *arrays)


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = dataclasses.field(default_factory=list)


def analyse(trace: Trace) -> dict[str, LayerStats]:
    """Calls, self time and span durations per span name.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap in a single-threaded run.
    """
    n = len(trace.start)
    dur = [trace.end[i] - trace.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = trace.parent[i]
        if p >= 0:
            covered[p] += dur[i]
    names = trace.header["names"]
    stats: dict[str, LayerStats] = {name: LayerStats() for name in names}
    for i in range(n):
        s = stats[names[trace.name[i]]]
        s.calls += 1
        s.self_s += dur[i] - covered[i]
        s.durations.append(dur[i])
    return stats
