#!/usr/bin/env python3
"""rolecolor benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload small-count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ../src. With --trace 0 the
last stdout line holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Lines before it give the same numbers for reading.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "cli-output.schema.json"
OUT = HERE / "out"
SETUP_BEFORE, SETUP_AFTER = 5, 4  # set-ups timed before and after the timed loop
PACKAGE_MODULES = ("rolecolor", "rolecolor.cli", "rolecolor.chain3", "rolecolor.solver", "rolecolor.reductions")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

import checks  # noqa: E402  (HERE is on sys.path when run as a script)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass(frozen=True)
class Raised:
    """Outcome of an operation that raised instead of returning."""

    traceback: str


def import_package() -> SimpleNamespace:
    """(Re-)import rolecolor from this checkout's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rolecolor" or m.startswith("rolecolor.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in PACKAGE_MODULES}
    origin = Path(mods["rolecolor"].__file__).resolve().parent
    if origin != SRC / "rolecolor":
        raise ImportError(f"rolecolor imported from {origin}, not from {SRC}")
    return SimpleNamespace(rolecolor=mods["rolecolor"], cli=mods["rolecolor.cli"], modules=mods)


def timed_setup(cls, seed: int, tiny: bool, repeats: int):
    """Import the package and build the inputs `repeats` times.

    Returns the last workload and the time of each set-up.
    """
    workdir = OUT / cls.name
    workdir.mkdir(parents=True, exist_ok=True)
    times = []
    wl = None
    for _ in range(repeats):
        wl = None  # free the previous inputs first
        gc.collect()
        t0 = perf_counter()
        wl = cls(import_package(), workdir, seed, tiny)
        wl.setup()
        times.append(perf_counter() - t0)
    return wl, times


def run_pass(wl, order, tracer=None) -> list:
    records = []
    for i in order:
        op = wl.ops[i]
        if wl.collect_between_ops:
            gc.collect()
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter_ns()
        try:
            outcome = wl.execute(op)
        except Exception:
            outcome = Raised(traceback.format_exc())
        records.append((i, perf_counter_ns() - t0, outcome))
    return records


def check_records(wl, records) -> Counter:
    """Check every outcome after the timed loop; identical outcomes are checked once."""
    schema = checks.SchemaCheck(SCHEMA)
    verdict: dict = {}
    reasons: Counter = Counter()
    for i, _, outcome in records:
        key = (i, outcome)
        if key not in verdict:
            if isinstance(outcome, Raised):
                verdict[key] = "raised: " + outcome.traceback.strip().splitlines()[-1]
            else:
                verdict[key] = wl.check(wl.ops[i], outcome, schema)
        if verdict[key]:
            reasons[f"{wl.ops[i].label}: {verdict[key]}"] += 1
    return reasons


def percentile(sorted_vals, pct: float):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def measure(wl, seed: int, seconds: float, traced: bool):
    """Whole passes over the operations, each in a seeded order, until `seconds` is spent.

    Returns (records, per-pass layer metrics, spans, inconsistencies).
    """
    order_rng = random.Random(f"order:{seed}")
    deadline = perf_counter() + seconds
    records, layers, spans, inconsistent = [], [], [], []
    tracer = tracing.Tracer() if traced else None
    while True:
        order = list(range(len(wl.ops)))
        order_rng.shuffle(order)
        if not traced:
            records += run_pass(wl, order)
        else:

            def traced_pass():
                tracer.install(wl.rc.modules)
                try:
                    t0 = perf_counter()
                    return run_pass(wl, order, tracer), perf_counter() - t0
                finally:
                    tracer.uninstall()

            def plain_pass():
                t0 = perf_counter()
                return run_pass(wl, order), perf_counter() - t0

            # alternate which side of the pair runs first
            if len(layers) % 2 == 0:
                (plain, plain_s), (with_spans, traced_s) = plain_pass(), traced_pass()
            else:
                (with_spans, traced_s), (plain, plain_s) = traced_pass(), plain_pass()
            records += plain + with_spans
            pass_spans = tracer.take()
            m = tracing.layer_metrics(pass_spans)
            m["trace.overhead_ratio"] = traced_s / plain_s
            layers.append(m)
            spans.append(pass_spans)
            for (i, _, a), (_, _, b) in zip(plain, with_spans):
                if a != b:
                    inconsistent.append(f"{wl.ops[i].label}: traced output differs from untraced")
            if tracing.count_leaf_mismatches(pass_spans):
                inconsistent.append("accepted leaves differ from the count a search returned")
        if perf_counter() >= deadline:
            return records, layers, spans, inconsistent


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl, setup_times = timed_setup(WORKLOADS[name], seed, tiny, SETUP_BEFORE)
    records, layers, spans, inconsistent = measure(wl, seed, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-ups after the loop too, so that setup_s samples the whole run, not its first second
    setup_s = statistics.median(setup_times + timed_setup(WORKLOADS[name], seed, tiny, SETUP_AFTER)[1])
    reasons = check_records(wl, records)
    problems = list(inconsistent) + wl.final_checks()
    failed = sum(reasons.values())
    lines = [f"workload {name} seed {seed} trace {int(trace)}: {len(wl.ops)} operations per pass"]

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        for key in ("solver.leaves_rejected", "chain3.fallbacks"):
            if metrics[key]:
                problems.append(f"{key} = {metrics[key]}, must be 0")
        OUT.mkdir(exist_ok=True)
        span_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracing.write_spans(span_path, [(p,) + s for p, pass_spans in enumerate(spans) for s in pass_spans])
        lines.append(f"{len(layers)} traced passes, {sum(map(len, spans))} spans written to {span_path}")
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        times = sorted(dt / 1e6 for _, dt, _ in records)
        tail, above = percentile(times, wl.tail_pct)
        metrics = {
            "ops_per_s": len(times) / (sum(times) / 1e3),
            "op_p50_ms": statistics.median(times),
            "op_tail_ms": tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        lines.append(f"op_tail_ms is p{wl.tail_pct:g} of {len(times)} operations, {above} above it")
        lines.append(f"fail_ratio {failed / len(records):.6g} ratio ({failed} of {len(records)})")
        lines.append(f"setup_s is the median of {SETUP_BEFORE} set-ups before the timed loop and {SETUP_AFTER} after it")
    for key, value in metrics.items():
        lines.append(f"{key} {value if isinstance(value, int) else f'{value:.6g}'} {units[key]}")
    for reason, n in reasons.most_common():
        lines.append(f"FAILED x{n} {reason}")
    for p in problems:
        lines.append(f"PROBLEM {p}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (ImportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
