#!/usr/bin/env python3
"""Closed-loop benchmark of the twoclosure library.

    python3 perfbench/run.py --workload high-order --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client, one process, one thread: each
operation starts from group-file text, calls ``parse_group`` and then
``decide_2_closed`` or ``two_closure`` as ``twoclosure decide`` and
``twoclosure closure`` do, and the next operation starts only after the
previous one has returned.  Answers are checked outside the timed region.
The run executes whole rounds of the workload's mix (see workloads.py)
until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the mix
untraced for half the time and traced for the other half, prints the
per-layer metrics (per operation, self times in seconds) and
``trace.overhead_frac``, and writes every span to
``.bench_out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 31


def _import_library():
    """Import twoclosure from this checkout's src/ and nowhere else."""
    package = SRC / "twoclosure" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import twoclosure

    if Path(twoclosure.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported twoclosure from {twoclosure.__file__}, not {package}")


_import_library()

from twoclosure import decider, groupfile, oracle  # noqa: E402
from twoclosure.coloring import orb2, preserves  # noqa: E402
from twoclosure.decider import STEP_KINDS  # noqa: E402
from twoclosure.oracle import SearchLimits  # noqa: E402

from spans import Recorder, traced_layers  # noqa: E402
from workloads import DECIDE, ORACLE_MAX_DEGREE, WORKLOADS, rounds  # noqa: E402

LIMITS = SearchLimits(max_degree=ORACLE_MAX_DEGREE)


def _check(inst, group, answer) -> str | None:
    """What is wrong with the answer, or None if it is right."""
    if inst.op == DECIDE:
        closed, trace = answer
        if closed != inst.closed:
            return f"verdict {closed}, expected {inst.closed}"
        first = trace.steps[0]
        if first.kind != "Validate" or first.order != inst.order:
            return f"first step {first.kind} order={first.order}, expected Validate order={inst.order}"
        return None
    closure = answer.elements()
    if not group.elements() <= closure:
        return "group is not inside its closure"
    if inst.order is None:
        coloring = orb2(group)
        if not all(preserves(coloring, c) for c in closure):
            return "a closure element does not preserve orb2(G)"
    elif len(closure) != inst.order:
        return f"|closure| = {len(closure)}, expected {inst.order}"
    return None


class Phase:
    """Latencies, failures and decider steps of one closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_sizes: list[int] = []
        self.failures: list[str] = []
        self.steps: Counter[str] = Counter()

    def ops_per_s(self) -> float:
        """Median over rounds of operations per second of operation time.

        Every round holds the same mix, so rounds are comparable; the
        median keeps a round slowed by other load on the machine from
        moving the figure.
        """
        rates = []
        start = 0
        for size in self.round_sizes:
            rates.append(size / sum(self.latencies[start:start + size]))
            start += size
        return statistics.median(rates)


def run_phase(workload: str, seed: int, seconds: float, rec: Recorder | None = None) -> Phase:
    """Whole rounds of the mix until ``seconds`` of wall time have passed."""
    phase = Phase()
    began = time.perf_counter()
    for batch in rounds(workload, seed):
        for inst in batch:
            span = rec.operation(len(phase.latencies)) if rec else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    group = groupfile.parse_group(inst.text)
                    if inst.op == DECIDE:
                        answer = decider.decide_2_closed(group)
                    else:
                        answer = oracle.two_closure(group, LIMITS)
            except Exception as exc:  # a raising operation is a failed one; keep going
                phase.latencies.append(time.perf_counter() - t0)
                phase.failures.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                continue
            phase.latencies.append(time.perf_counter() - t0)
            problem = _check(inst, group, answer)
            if problem:
                phase.failures.append(f"{inst.label}: {problem}")
            if inst.op == DECIDE:
                phase.steps.update(step.kind for step in answer[1].steps)
        phase.round_sizes.append(len(batch))
        if time.perf_counter() - began >= seconds:
            return phase


def measure_setup() -> float:
    """Median time a fresh interpreter takes to import twoclosure and its CLI.

    The clock runs inside the child around the imports, so interpreter
    start-up, which the repository does not control, is left out.
    """
    code = (
        "import sys, time; t0 = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); import twoclosure, twoclosure.cli; "
        "print(time.perf_counter() - t0)"
    )
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # writes the bytecode caches
    times = [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
        for _ in range(SETUP_LAUNCHES)
    ]
    return statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float):
    setup = measure_setup()
    phase = run_phase(workload, seed, seconds)
    lat_ms = [t * 1000 for t in phase.latencies]
    metrics = {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"samples {len(lat_ms)} operations in {len(phase.round_sizes)} rounds",
        f"failed_frac {len(phase.failures) / len(lat_ms)} ({len(phase.failures)} of {len(lat_ms)})",
    ]
    return [phase], metrics, notes


# per-layer metric -> span whose per-operation self time it reports
SELF_TIME = {
    "groupfile.parse_s": "groupfile.parse",
    "perm.elements_s": "perm.elements",
    "perm.subgroup_s": "perm.subgroup",
    "perm.stabilizer_s": "perm.stabilizer",
    "perm.from_elements_s": "perm.from_elements",
    "perm.restriction_s": "perm.restriction",
    "perm.orbits_s": "perm.orbits",
    "perm.induced_s": "perm.induced",
    "perm.validate_s": "perm.validate",
    "reduction.zel_s": "reduction.zel",
    "reduction.sylow_s": "reduction.sylow",
    "reduction.remove_orbit_s": "reduction.remove_orbit",
    "decider.self_s": "decider.decide",
    "coloring.orb2_s": "coloring.orb2",
    "oracle.search_s": "oracle.search",
}
# per-layer metric -> span whose calls per operation it reports
CALLS = {
    "groupfile.parse_calls": "groupfile.parse",
    "perm.elements_calls": "perm.elements",
    "perm.stabilizer_calls": "perm.stabilizer",
    "perm.restriction_calls": "perm.restriction",
    "perm.validate_calls": "perm.validate",
    "reduction.zel_calls": "reduction.zel",
}
COUNTS = ("reduction.zel_gens", "coloring.colors", "oracle.closure_elements")

# groups of self times the benchmark predicts to be the largest share
PREDICTED_LARGEST = {
    "high-order": ("perm.elements", "perm.subgroup"),
    "many-orbits": ("reduction.zel", "perm.stabilizer", "perm.from_elements", "perm.validate"),
    "oracle-closure": ("oracle.search",),
}


def per_layer(workload: str, seed: int, seconds: float):
    plain = run_phase(workload, seed, seconds / 2)
    rec = Recorder()
    with traced_layers(rec):
        traced = run_phase(workload, seed, seconds / 2, rec)
    rec.write(OUT / f"spans-{workload}.tsv")

    n = len(traced.latencies)
    metrics = {}
    for metric, span in SELF_TIME.items():
        metrics[metric] = (rec.self_s[span] / n, "s/op")
    for metric, span in CALLS.items():
        metrics[metric] = (rec.calls[span] / n, "count/op")
    metrics["perm.max_elements"] = (rec.max_elements, "count")
    for name in COUNTS:
        metrics[name] = (rec.counts[name] / n, "count/op")
    metrics["decider.steps"] = (sum(traced.steps.values()) / n, "count/op")
    for kind in sorted(STEP_KINDS):
        metrics[f"decider.steps.{kind}"] = (traced.steps[kind] / n, "count/op")
    metrics["trace.overhead_frac"] = (plain.ops_per_s() / traced.ops_per_s() - 1, "frac")

    total = sum(rec.self_s.values())
    notes = [f"traced samples {n} operations in {len(traced.round_sizes)} rounds, "
             f"untraced {len(plain.latencies)} in {len(plain.round_sizes)} rounds, "
             f"{len(rec.starts)} spans"]
    shares = sorted(((s / total, name) for name, s in rec.self_s.items()), reverse=True)
    notes += [f"self-time share {name} {share:.3f}" for share, name in shares]
    group = PREDICTED_LARGEST[workload]
    group_share = sum(rec.self_s[name] for name in group) / total
    others = max((s for name, s in rec.self_s.items() if name not in group), default=0.0) / total
    notes.append(f"predicted largest {'+'.join(group)} {group_share:.3f} "
                 f"vs largest other span {others:.3f}: {'holds' if group_share > others else 'FAILS'}")
    if workload != "oracle-closure":
        present = [name for name in ("coloring.orb2", "oracle.search") if rec.calls[name]]
        notes.append(f"oracle/coloring spans on a decide workload: {present or 'none'}")
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if sys.flags.optimize:
        parser.error("run without -O: users pay for the decider's assert")

    measure = per_layer if args.trace else end_to_end
    phases, metrics, notes = measure(args.workload, args.seed, args.seconds)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in notes:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
