#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/spread.py --workload hard-search --seeds 101-110 [--trace 1] [--json out.json]

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a share of
the median, which is what a metric's bound in BENCHMARK.json is compared to.
Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="'101-110' or '1,7,9'")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the runs and the summary here")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed} correct={res['correct']} failed={res['failed']}/{res['attempted']} {shown}", flush=True)
    summary = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
    for k, s in summary.items():
        print(f"{k:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
