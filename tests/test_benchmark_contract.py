"""The benchmark still runs one whole round of every workload.

perfbench/tests lies outside the tier-1 test paths, so a change that
deletes or renames a name perfbench/run.py, spans.py or workloads.py
calls would pass tier-1 unnoticed.  This loads perfbench/run.py as the
benchmark does (perfbench/ first on sys.path) and runs one round of each
workload in process, untraced and traced.  It writes nothing: the
per-layer report, which writes the span file, is not called.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved
    return run


def _one_round(bench, workload, rec=None):
    phase = bench.run_phase(workload, 7, 0, rec)  # 0 s: return after the first round
    assert phase.failures == []
    assert phase.round_sizes == [len(phase.latencies)] and phase.latencies
    return phase


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_runs_plain_and_traced(bench, workload):
    _one_round(bench, workload)
    rec = bench.Recorder()  # run.py's names from perfbench/spans.py
    with bench.traced_layers(rec):
        phase = _one_round(bench, workload, rec)
    assert rec.calls["op"] == len(phase.latencies)
