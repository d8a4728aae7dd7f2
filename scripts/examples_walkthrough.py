#!/usr/bin/env python3
"""Walk through the two fixture families and show why they are not closed.

For each prime this prints the group's shape, the zel subgroup, the
reduction trace, and (within oracle bounds) the brute-force closure, so
the whole pipeline can be eyeballed at once.

Usage: python scripts/examples_walkthrough.py [--primes 2 3]
"""

import argparse

from twoclosure import zel
from twoclosure.cli import render_step
from twoclosure.decider import decide_2_closed
from twoclosure.fixtures import fixture_example1, fixture_example2
from twoclosure.oracle import MAX_ORACLE_DEGREE, closure_order, two_closure


def show(name, group):
    print(f"== {name}: degree {group.degree}, order {group.order()}, "
          f"orbit sizes {group.orbits().sizes()}")
    for g in group.generators:
        print(f"   gen {g}")
    z = zel(group)
    print(f"   zel: order {z.order()}"
          + ("" if z.is_trivial() else f", inside the group: {z.is_subgroup_of(group)}"))
    closed, trace = decide_2_closed(group)
    for step in trace.steps:
        print(f"   {render_step(step)}")
    print(f"   verdict: {'2-closed' if closed else 'not 2-closed'}")
    if group.degree <= MAX_ORACLE_DEGREE:
        closure = two_closure(group)
        print(f"   oracle closure: order {closure_order(closure)}"
              f" (equals zel: {closure.elements() == z.elements()})")
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
