#!/usr/bin/env python3
"""Rebuild catalogue.json, the hard-search instances and their reference outputs.

    python3 perfbench/catalogue.py

For each family, candidate sub-seeds 0, 1, 2, ... are generated and kept when
the node count of every banded mode lies inside its band (see
workloads.HARD_BANDS), until PER_FAMILY are kept. The answers, counts and
witnesses recorded for them are what the package printed when the catalogue
was built; the benchmark checks every later run against them. Rebuilding is
only needed when a generator or a band changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

PER_FAMILY = 16


def build(rc, workdir: Path) -> dict:
    from rolecolor import Graph, RoleGraph, solve_k_role, solve_r_role

    def in_band(inst, bands) -> bool:
        g = Graph(inst.n, inst.edges)
        for mode, (lo, hi) in bands.items():
            if inst.role:
                res = solve_r_role(g, RoleGraph(*inst.role), mode=mode, budget=hi)
            else:
                res = solve_k_role(g, inst.k, mode=mode, budget=hi)
            if res.status == "budget-exceeded" or res.nodes < lo:
                return False
        return True

    families = {}
    for family, bands in workloads.HARD_BANDS.items():
        kept = []
        sub_seed = -1
        while len(kept) < PER_FAMILY:
            sub_seed += 1
            inst = workloads.hard_instance(family, sub_seed)
            if not in_band(inst, bands):
                continue
            path = workdir / "candidate.graph"
            path.write_text(inst.text, encoding="utf-8")
            entry = {"sub_seed": sub_seed, "sha256": workloads.sha256(inst.text), "nodes": {}, "expect": {}}
            for mode in workloads.hard_modes(family):
                if inst.role:
                    role = workdir / "candidate.role"
                    role.write_text(workloads.role_text(inst.role), encoding="utf-8")
                    argv = ["--json", "rrole", str(path), str(role), "--mode", mode]
                else:
                    argv = ["--json", "solve", str(path), "-k", str(inst.k), "--mode", mode]
                code, out, err = workloads.run_cli(rc.cli, argv)
                if code not in (0, 1) or err:
                    raise RuntimeError(f"{family}/{sub_seed} {mode}: exit {code} {err}")
                payload = json.loads(out)
                entry["nodes"][mode] = payload["stats"]["nodes"]
                entry["expect"][mode] = {
                    "answer": payload["answer"],
                    "count": payload.get("count"),
                    "certificate": payload.get("certificate"),
                }
            kept.append(entry)
            print(family, sub_seed, entry["nodes"], flush=True)
        families[family] = kept
    return {"bands": workloads.HARD_BANDS, "families": families}


def main() -> int:
    rc = run.import_package()
    workdir = run.OUT / "catalogue"
    workdir.mkdir(parents=True, exist_ok=True)
    cat = build(rc, workdir)
    with open(workloads.CATALOGUE, "w", encoding="utf-8") as f:
        json.dump(cat, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
