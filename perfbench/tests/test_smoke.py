"""Smoke test of the benchmark: every workload, briefly, traced and untraced.

    python3 -m pytest perfbench/tests -q

No timing is gated.  The test checks that every metric BENCHMARK.json
names is reported with its unit, that no operation failed, and that the
run refuses to produce a result outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
STEP_KINDS = ("Validate", "TransitiveBase", "SylowSplit", "ZelNotInside", "ZelReduce", "OrbitRemoval")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[str, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _result(w, 1)[1] for w in WORKLOADS}


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out, result = _result(workload, 0)
    _check_metrics(result, BENCH["end_to_end"])
    assert f"failed_frac 0.0 (0 of {result['attempted']})" in out.splitlines()
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(traced, workload):
    _check_metrics(traced[workload], BENCH["per_layer"])
    assert "trace.overhead_frac" in traced[workload]["metrics"]


def test_oracle_spans_only_on_oracle_workload(traced):
    for workload, result in traced.items():
        m = result["metrics"]
        for name in ("oracle.search_s", "coloring.orb2_s"):
            if workload == "oracle-closure":
                assert m[name]["value"] > 0, (workload, name)
            else:
                assert m[name]["value"] == 0, (workload, name)


def test_decide_workloads_reach_every_step_kind(traced):
    for kind in STEP_KINDS:
        total = sum(traced[w]["metrics"][f"decider.steps.{kind}"]["value"]
                    for w in ("high-order", "many-orbits"))
        assert total > 0, kind


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
