#!/usr/bin/env python3
"""Walk through the two fixture families and show why they are not closed.

For each prime this prints the group's shape, the zel subgroup, the
reduction trace, and (within oracle bounds) the brute-force closure, so
the whole pipeline can be eyeballed at once.  No group is enumerated.

Usage: python scripts/examples_walkthrough.py [--primes 2 3]
"""

import argparse
import math

from twoclosure import zel
from twoclosure.cli import render_step
from twoclosure.coloring import orb2, preserves
from twoclosure.decider import ZEL_NOT_INSIDE, ZEL_REDUCE, decide_2_closed
from twoclosure.fixtures import fixture_example1, fixture_example2
from twoclosure.oracle import MAX_ORACLE_DEGREE, closure_order, two_closure


def show(name, group):
    closed, trace = decide_2_closed(group)
    print(f"== {name}: degree {group.degree}, order {trace.steps[0].order}, "
          f"orbit sizes {tuple(map(len, group.orbits()))}")
    for g in group.generators:
        print(f"   gen {g}")
    z = zel(group)
    # one zel generator per orbit, on disjoint point sets
    z_order = math.prod(g.order() for g in z.generators)
    if z.is_trivial():
        print(f"   zel: order {z_order}")
    else:
        # on these p-groups with a nontrivial zel, the step after Validate
        # tests zel(G) <= G, and ZelNotInside is its failure
        decided = trace.steps[1].kind
        assert decided in (ZEL_REDUCE, ZEL_NOT_INSIDE), decided
        print(f"   zel: order {z_order}, inside the group: {decided != ZEL_NOT_INSIDE}")
    for step in trace.steps:
        print(f"   {render_step(step)}")
    print(f"   verdict: {'2-closed' if closed else 'not 2-closed'}")
    if group.degree <= MAX_ORACLE_DEGREE:
        order = closure_order(two_closure(group))
        # zel lies in the closure iff its generators keep every pair color;
        # a subgroup of equal order is the whole closure
        coloring = orb2(group)
        equal = order == z_order and all(preserves(coloring, g) for g in z.generators)
        print(f"   oracle closure: order {order} (equals zel: {equal})")
    else:
        print("   oracle closure: degree beyond search bound, skipped")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args()
    for p in args.primes:
        show(f"three-orbit group, p={p}", fixture_example1(p))
        show(f"diagonal double, p={p}", fixture_example2(p))


if __name__ == "__main__":
    main()
