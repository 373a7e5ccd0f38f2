"""Smallest-size self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs the benchmark command on tiny inputs for every workload, untraced and
traced, and checks that every metric named in BENCHMARK.json is printed
with its unit, that the outputs passed the correctness checks, and that
the per-layer child spans cover at least 90% of their parent
``blob.encode_table`` / ``blob.decode_table`` spans. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TIMEOUT_S = 180


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--scale", "0.05",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_units_and_checks(workload, trace):
    proc = run_bench(workload, trace)
    res = result_of(proc)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
    if trace:
        for parent in ("blob.encode_table", "blob.decode_table"):
            assert res["metrics"][f"{parent}.child_coverage"]["value"] >= 0.9
        spans_path = os.path.join(
            ROOT, ".bench_build", "perfbench", f"{workload}-seed3-trace1-spans.jsonl"
        )
        with open(spans_path) as f:
            span = json.loads(f.readline())
        assert {"name", "start", "end", "parent"} <= set(span)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("scan", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
