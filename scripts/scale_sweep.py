#!/usr/bin/env python3
"""Time parse, decide, zel, the 2-closure and the orbits on eight families at doubling degrees.

    python scripts/scale_sweep.py --max-degree 100000

Families, each written as group-file text with its points relabelled by
a seeded shuffle, as a file from elsewhere would be:

  diag     one Z2 generator shifting every block of 2 points
  indep    k Z2 generators, each shifting its own block of 2 points
  linked   k - 1 Z2 generators, generator i shifting blocks i and i + 1
           of 2 points, so that most orbits have two movers
  private  diag's generator plus indep's, so that every orbit has its
           own row and shares a generator with every other
  mixed    one generator per block, shifting blocks of 2 and 3 points
           alternately, so that decide splits it into a Sylow 2-part and
           3-part, each with fixed points
  composite one Z2 and one Z3 generator shifting every block of 6 points,
           so that no generator covers an orbit and each orbit's walk is
           composed from both
  primes   one generator per block, shifting blocks of 2, 3, 5 and 7
           points in turn, so that decide splits it four ways and each
           Sylow part fixes most of the points
  example1 fixture_example1(p) for the least prime p with 3p >= degree

Every size runs in a fresh interpreter, so the max RSS column is that of
one parse, one decide, one zel, one closure and one orbits (text
generation included).  zel_s times what `twoclosure zel` does after
parsing: zel, one walk of each generator's cycles, the product of their
orders for the '# order' line, and the group file written from those
cycles.  closure_s times two_closure with the degree cap at the degree,
which every family here passes in the class, with no search, and
closure_order.  orbits_s times what `twoclosure orbits` does after
parsing: the orbits, and one line of text per orbit.  indep, linked,
private, mixed and primes stop at INDEP_MAX_DEGREE, because their
generators store about k * 2k images.
The last column is the decide time over that of the previous size:
about 2 for a cost linear in the degree, about 4 for a quadratic one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

FAMILIES = ("diag", "indep", "linked", "private", "mixed", "composite", "primes", "example1")
CAPPED = ("indep", "linked", "private", "mixed", "primes")
MIN_DEGREE = 250
INDEP_MAX_DEGREE = 1600


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def group_text(family: str, degree: int, seed: int = 0) -> str:
    """The family's group file at (about) the given degree."""
    from twoclosure.groupfile import serialize_group
    from twoclosure.perm import PermGroup, Permutation

    if family == "example1":
        from twoclosure.fixtures import fixture_example1

        p = next(p for p in range(max(2, -(-degree // 3)), 3 * degree + 2) if _is_prime(p))
        group = fixture_example1(p)
        degree, gens = group.degree, list(group.generators)
    elif family == "mixed":
        degree -= degree % 5
        gens = [Permutation.from_cycles(degree, [cycle]) for s in range(0, degree, 5)
                for cycle in ((s, s + 1), (s + 2, s + 3, s + 4))]
    elif family == "primes":
        degree -= degree % 17
        gens = [Permutation.from_cycles(degree, [tuple(range(s + start, s + start + q))])
                for s in range(0, degree, 17) for start, q in ((0, 2), (2, 3), (5, 5), (10, 7))]
    elif family == "composite":
        degree -= degree % 6
        gens = [Permutation.from_cycles(degree, [tuple(range(s + b, s + 6, step)) for s in range(0, degree, 6)
                                                 for b in range(step)]) for step in (3, 2)]
    else:
        k = degree // 2
        shifts = {"diag": [range(k)], "indep": [[b] for b in range(k)],
                  "linked": [[b, b + 1] for b in range(k - 1)],
                  "private": [range(k)] + [[b] for b in range(k)]}[family]
        gens = [Permutation.from_cycles(degree, [(2 * b, 2 * b + 1) for b in blocks]) for blocks in shifts]
    sigma = list(range(degree))
    random.Random(seed).shuffle(sigma)
    relabel = Permutation(tuple(sigma))
    unlabel = relabel.inverse()
    return serialize_group(PermGroup(degree, [unlabel * g * relabel for g in gens]))


def run_one(family: str, degree: int) -> dict:
    """Parse and decide one instance in this process, then run what
    `twoclosure zel` runs after parsing, then the closure."""
    from twoclosure.decider import decide_2_closed, zel
    from twoclosure.groupfile import parse_group, serialize_cycles
    from twoclosure.oracle import SearchLimits, closure_order, two_closure

    text = group_text(family, degree)
    t0 = time.perf_counter()
    group = parse_group(text)
    t1 = time.perf_counter()
    closed, trace = decide_2_closed(group)
    t2 = time.perf_counter()
    z = zel(group)
    cycles = [g.cycles() for g in z.generators]
    math.prod(math.lcm(*map(len, c)) for c in cycles)
    serialize_cycles(z.degree, cycles)
    t3 = time.perf_counter()
    closure_order(two_closure(group, SearchLimits(max_degree=group.degree)))
    t4 = time.perf_counter()
    "\n".join(" ".join(map(str, cls)) for cls in group.orbits())
    t5 = time.perf_counter()
    return {
        "degree": group.degree,
        "parse_s": t1 - t0,
        "decide_s": t2 - t1,
        "zel_s": t3 - t2,
        "closure_s": t4 - t3,
        "orbits_s": t5 - t4,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "closed": closed,
        "steps": len(trace.steps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-degree", type=int, default=100_000)
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    parser.add_argument("--run", nargs=2, metavar=("FAMILY", "DEGREE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_one(args.run[0], int(args.run[1]))))
        return 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    print(f"{'family':<9} {'degree':>8} {'parse_s':>9} {'decide_s':>9} {'zel_s':>9} {'closure_s':>9} "
          f"{'orbits_s':>9} {'max_rss_mb':>10} {'ratio':>6}")
    for family in args.families:
        cap = min(args.max_degree, INDEP_MAX_DEGREE) if family in CAPPED else args.max_degree
        degree, previous = MIN_DEGREE, None
        while degree <= cap:
            out = subprocess.run(
                [sys.executable, __file__, "--run", family, str(degree)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
            ).stdout
            row = json.loads(out)
            ratio = f"{row['decide_s'] / previous:6.2f}" if previous else f"{'':>6}"
            print(f"{family:<9} {row['degree']:>8} {row['parse_s']:>9.4f} {row['decide_s']:>9.4f} {row['zel_s']:>9.4f} "
                  f"{row['closure_s']:>9.4f} {row['orbits_s']:>9.4f} {row['max_rss_mb']:>10.1f} {ratio}", flush=True)
            previous, degree = row["decide_s"], 2 * degree
    return 0


if __name__ == "__main__":
    sys.exit(main())
