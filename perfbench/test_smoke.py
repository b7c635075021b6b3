"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that wrong certificates and counts count as failed operations, and that the
benchmark refuses to run without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, HardSearch, SmallCount  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"{m['name']} ") and ln.endswith(f" {m['unit']}") for ln in lines[:-1])
    if not trace:
        assert any(ln.startswith("fail_ratio 0 ratio") for ln in lines)


def _tiny(cls, tmp_path):
    wl = cls(run.import_package(), tmp_path, 5, True)
    wl.setup()
    return wl


def test_wrong_count_is_a_failed_operation(tmp_path):
    wl = _tiny(SmallCount, tmp_path)
    status, count, nodes = wl.execute(wl.ops[0])
    records = [(0, 1, (status, count, nodes)), (0, 1, (status, count + 1, nodes))]
    assert sum(run.check_records(wl, records).values()) == 1


def test_wrong_certificate_is_a_failed_operation(tmp_path):
    wl = _tiny(HardSearch, tmp_path)
    i = next(j for j, op in enumerate(wl.ops) if "gadget/witness" in op.label)
    code, out, err = wl.execute(wl.ops[i])
    payload = json.loads(out)
    assert payload["answer"] == "yes"
    cert = payload["certificate"]
    # a valid coloring that is not the reference witness, and one that is invalid
    relabeled = [{1: 2, 2: 1}.get(c, c) for c in cert]
    broken = [1] * (len(cert) - 1) + [2]
    records = [(i, 1, (code, out, err))]
    for bad in (relabeled, broken):
        records.append((i, 1, (code, json.dumps(dict(payload, certificate=bad)) + "\n", err)))
    assert sum(run.check_records(wl, records).values()) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
