#!/usr/bin/env python3
"""Re-time the ROADMAP baseline rows that finish within seconds.

    python3 perfbench/baseline.py

Each row is timed in-process, from group-file text through
``parse_group`` and ``decide_2_closed``, and the median of REPEATS runs
is printed next to the ROADMAP's single run.  Rows that take minutes
(indep 8x4, indep 10x4, diag Z2 on 600 and 1100 blocks) are left out.
"""

from __future__ import annotations

import random
import statistics
import time

import run  # noqa: F401  (puts this checkout's src/ on sys.path)
from twoclosure.decider import decide_2_closed
from twoclosure.fixtures import fixture_example1, fixture_example2
from twoclosure.groupfile import parse_group
from workloads import diag, fixture_gens, indep, to_text

REPEATS = 3

# (row, maker of its degree and generators, ROADMAP decide seconds)
ROWS = (
    ("example1(11)", lambda rng: fixture_gens(fixture_example1(11)), 0.38),
    ("example2(11)", lambda rng: fixture_gens(fixture_example2(11)), 0.03),
    ("indep 6x4", lambda rng: indep((4,) * 6, rng), 1.4),
    ("diag Z2 on 200 blocks", lambda rng: diag(200, 2, rng), 1.8),
)


def main() -> None:
    print("| instance | ROADMAP `decide` | this run (median) | verdict |")
    print("|---|---|---|---|")
    for name, build, roadmap_s in ROWS:
        text = to_text(*build(random.Random(0)))
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            closed, _ = decide_2_closed(parse_group(text))
            times.append(time.perf_counter() - t0)
        verdict = "2-closed" if closed else "not-2-closed"
        print(f"| {name} | {roadmap_s:g} s | {statistics.median(times):.3f} s | {verdict} |")


if __name__ == "__main__":
    main()
