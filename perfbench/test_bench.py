"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

Traced call counts are deterministic for a given seed, so two traced runs
must report identical counts; times are not compared.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls_per_item", ".orderings_per_call", ".weights_per_call")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_counts_repeat(name):
    runs = [result(bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    for out in runs:
        assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in out["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
              for out in runs]
    assert counts[0] == counts[1]
    if name == "compile_mixed":  # synthesis never searches the chamber
        assert counts[0]["chamber.gate_coords.orderings_per_call"] == 0


def test_flow_batch_is_one_cli_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import numpy as np
    import workloads

    batch = workloads.flow_batch(5, 0)
    assert len(batch) == len(workloads.FLOW_KINDS) * workloads.FLOW_CHUNKS
    for k, kind in enumerate(workloads.FLOW_KINDS):
        chunks = batch[k * workloads.FLOW_CHUNKS:(k + 1) * workloads.FLOW_CHUNKS]
        assert {it.kind for it in chunks} == {kind}
        times = np.concatenate([it.times for it in chunks])
        assert times[0] == 0.0 and len(times) == workloads.FLOW_STEPS
        np.testing.assert_array_equal(times, np.linspace(0.0, times[-1], workloads.FLOW_STEPS))
    first = workloads.analyze_batch(5, 0)[0].u
    assert not np.array_equal(first, workloads.analyze_batch(5, 1)[0].u)
    np.testing.assert_array_equal(first, workloads.analyze_batch(5, 0)[0].u)


def test_end_to_end_metrics_printed():
    out = result(bench("--workload", "compile_mixed", "--seed", "5", "--seconds", "0", "--trace", "0"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
