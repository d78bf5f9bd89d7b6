"""Fresh-process benchmark of the hyperrings workbench.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see README.md for why each exists):

* ``suite``: the 41-entry registry with its reading sweep over the seeded
  88-ring corpus, serialized to the JSON report; an op is one cell.
* ``constructions``: γ*, quotients and good homomorphisms over the corpus;
  an op is one construction call.
* ``tables``: seeded single-cell mutations of the corpus tables, plus the
  unmutated tables, through ``validate_hyperring``; an op is one table.

The seed relabels the corpus (``inputs.py``); the inputs are written as
files before timing starts and the timed process receives only those files.
Each repeat is one fresh child process (``child.py``), one at a time: a
closed loop with one client.  Repeats run until ``--seconds`` have passed,
and at least ``MIN_REPEATS`` times; timings are medians over the repeats.
With ``--trace 1`` a traced child follows the untraced repeats and the
per-layer metrics come from its spans (``tracer.py``).  Children run with
``PYTHONHASHSEED=0`` and with bytecode caching on, whatever the caller's
environment says, so set-up time does not depend on it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, and ``failed_share``.  The raw repeats and the
environment go to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("suite", "constructions", "tables")
MIN_REPEATS = 3
MIN_SETUPS = 15
CHILD_CPU_SECONDS = 150


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# inputs


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the seeded inputs and return what the checks need."""
    from checks import load_reference
    from hyperrings import save_ring
    from inputs import corpus_rings, table_candidates
    from oracle import verdict

    rings, generate_s = corpus_rings(seed)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    prep = {"inputs": inputs, "rings": len(rings), "generate_s": generate_s}
    if workload == "tables":
        candidates = table_candidates(rings, seed)
        (inputs / "tables.json").write_text(json.dumps(candidates))
        prep["expected"] = [verdict(c["add"], c["hmul"], c["commutative"])
                            for c in candidates]
    else:
        for i, ring in enumerate(rings):
            save_ring(ring, inputs / f"{i:03d}.json")
        prep["reference"] = load_reference(workload)
    return prep


# ---------------------------------------------------------------------------
# children


def limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))


def run_child(workload: str, prep: dict, out: Path, *extra: str) -> dict:
    """Run one child to completion and return its timings and peak RSS."""
    argv = [sys.executable, str(HERE / "child.py"), workload,
            str(prep["inputs"]), str(out), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    shutil.rmtree(out, ignore_errors=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            preexec_fn=limit_cpu)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0:
        reply = json.loads(stdout.decode().strip().splitlines()[-1])
        record["setup_s"] = reply["setup_done"] - spawned
        record.update({k: reply[k] for k in ("run_s", "ops") if k in reply})
    return record


def check(workload: str, prep: dict, out: Path, record: dict) -> None:
    """Add attempted, failed and (for ``suite``) the report sha256 to a record."""
    from checks import check_constructions, check_suite, check_tables

    ok = record["exit"] == 0
    record["sha256"] = None
    if workload == "suite":
        data = (out / "report.json").read_bytes() if ok else None
        record["attempted"], record["failed"] = check_suite(data, prep["reference"])
        record["sha256"] = hashlib.sha256(data).hexdigest() if ok else None
        return
    got = json.loads((out / "outcomes.json").read_text()) if ok else None
    if workload == "tables":
        record["attempted"], record["failed"] = check_tables(got, prep["expected"])
    else:
        record["attempted"], record["failed"] = check_constructions(got, prep["reference"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    prep = prepare(workload, seed, work)
    out = work / "out"
    run_child(workload, prep, out, "--setup-only")  # fill the bytecode and file caches

    repeats = []
    start = time.monotonic()
    while len(repeats) < MIN_REPEATS or time.monotonic() - start < seconds:
        record = run_child(workload, prep, out)
        check(workload, prep, out, record)
        repeats.append(record)
    setups = [r["setup_s"] for r in repeats if r["exit"] == 0]
    for _ in range(MIN_SETUPS - len(setups) if setups else 0):
        extra = run_child(workload, prep, out, "--setup-only")
        if extra["exit"] == 0:
            setups.append(extra["setup_s"])
    traced = None
    if trace:
        traced = run_child(workload, prep, out, "--trace", f"{workload}-{seed}-traced")
        check(workload, prep, out, traced)

    done = [r for r in repeats if r["exit"] == 0]
    checked = repeats + ([traced] if traced else [])
    result = {
        "workload": workload, "seed": seed, "environment": environment(),
        "repeats": repeats, "setups": setups, "traced": traced,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "consistent_digest": len({r["sha256"] for r in checked}) == 1,
    }
    if done:
        run_s = statistics.median(r["run_s"] for r in done)
        result["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "ops_per_s": statistics.median(r["ops"] / r["run_s"] for r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
        if traced is not None and traced["exit"] == 0:
            from layers import per_layer

            result["per_layer"] = per_layer(out, prep, traced, run_s)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


# ---------------------------------------------------------------------------
# output


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(result: dict, trace: bool) -> int:
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    values = result.get("per_layer" if trace else "end_to_end")
    correct = result["failed"] == 0 and result["consistent_digest"] and values is not None
    share = result["failed"] / result["attempted"]
    print(f"[{result['workload']}] seed {result['seed']}, {len(result['repeats'])} fresh-process "
          f"repeats, environment {json.dumps(result['environment'])}")
    if values is None:
        print(f"[{result['workload']}] no metrics: the children failed", file=sys.stderr)
        return 1
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<32} {value:>14.6g} {spec['unit']}")
    print(f"  {'failed_share':<32} {share:>14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    args = parse_args()
    if not (SRC / "hyperrings" / "__init__.py").is_file():
        print(f"no library at {SRC / 'hyperrings'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status |= emit(measure(workload, args.seed, args.seconds, bool(args.trace)),
                       bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
