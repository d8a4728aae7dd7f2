"""Command-line front end.

Subcommands read a group file (or '-' for stdin) and print deterministic
text, so outputs can be golden-tested and piped back in:

    decide FILE [--oracle-check]   reduction trace + verdict (exit 0/1/2)
    closure FILE                   generators of the closure, as a group file
    zel FILE                       the zel subgroup, as a group file
    orbits FILE                    one orbit per line
    orb2 FILE                      pair-orbit color matrix
    example1 P | example2 P        fixture groups, as group files
    random --seed S --max-degree N seeded random instance, as a group file

decide exits 0 when the group is 2-closed, 1 when it is not, 2 on any
error (including an oracle disagreement, which would mean a bug here).
decide, zel and closure enumerate no group elements, '# order'
included: closure prints generators of the closure (pairwise from the
orbit coordinates in the class, the oracle's search's outside it), and
its order is the product of their basic orbit lengths; zel prints one
generator per orbit it moves, and its order is the product of their
orders.
"""

from __future__ import annotations

import argparse
import math
import sys

from .decider import (
    ORBIT_REMOVAL,
    SYLOW_SPLIT,
    ZEL_REDUCE,
    Step,
    decide_2_closed,
    zel,
)
from .coloring import orb2
from .fixtures import (
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from .groupfile import parse_group, serialize_cycles, serialize_group
from .oracle import BudgetExceeded, closure_order, is_2_closed_oracle, two_closure
from .perm import CapExceeded, PermGroup

_DETAIL_LABEL = {
    SYLOW_SPLIT: "primes",
    ZEL_REDUCE: "zel-orbit-sizes",
    ORBIT_REMOVAL: "orbit",
}


def render_step(step: Step) -> str:
    text = f"step {step.kind} degree={step.degree} order={step.order}"
    label = _DETAIL_LABEL.get(step.kind)
    if label is not None:
        text += f" {label}={','.join(map(str, step.detail))}"
    return text


def _verdict_word(closed: bool) -> str:
    return "2-closed" if closed else "not-2-closed"


def _read_group(path: str) -> PermGroup:
    if path == "-":
        return parse_group(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_group(fh.read())


def _print_group(group: PermGroup, order: int | None = None) -> None:
    if order is not None:
        print(f"# order {order}")
    print(serialize_group(group), end="")


def _cmd_decide(args) -> int:
    group = _read_group(args.file)
    closed, trace = decide_2_closed(group)
    oracle = is_2_closed_oracle(group) if args.oracle_check else None
    for step in trace.steps:
        print(render_step(step))
    print(f"verdict {_verdict_word(closed)}")
    if oracle is not None:
        print(f"oracle {_verdict_word(oracle)}")
        print(f"agreement {'MISMATCH' if oracle != closed else 'ok'}")
        if oracle != closed:
            return 2
    return 0 if closed else 1


def _cmd_closure(args) -> int:
    closure = two_closure(_read_group(args.file))
    _print_group(closure, closure_order(closure))
    return 0


def _cmd_zel(args) -> int:
    z = zel(_read_group(args.file))
    cycles = [g.cycles() for g in z.generators]  # walked once, for the order and the text
    # one generator per orbit that zel moves, on disjoint point sets, so
    # |zel(G)| is the product of the generators' orders
    print(f"# order {math.prod(math.lcm(*map(len, c)) for c in cycles)}")
    print(serialize_cycles(z.degree, cycles), end="")
    return 0


def _cmd_orbits(args) -> int:
    for cls in _read_group(args.file).orbits():
        print(" ".join(map(str, cls)))
    return 0


def _cmd_orb2(args) -> int:
    text = orb2(_read_group(args.file)).render()
    if text:  # a matrix with no rows prints no lines, as orbits does
        print(text)
    return 0


def _cmd_fixture(args) -> int:
    _print_group(args.fixture(args.p))
    return 0


def _cmd_random(args) -> int:
    make = random_regular_abelian if args.regular else random_abelian_cyclic
    _print_group(make(args.seed, args.max_degree))
    return 0


# The subcommands that take a group file and nothing else.
_FILE_COMMANDS = (
    ("closure", "generators of the pair-orbit closure of a group file", _cmd_closure),
    ("zel", "the zel subgroup of an intransitive group", _cmd_zel),
    ("orbits", "print the orbits, one per line", _cmd_orbits),
    ("orb2", "print the pair-orbit color matrix", _cmd_orb2),
)

# The subcommands that take a prime p and print a fixture group.
_FIXTURE_COMMANDS = (
    ("example1", "three-orbit fixture of order p^2 on 3p points", fixture_example1),
    ("example2", "diagonal double of example1 on 6p points", fixture_example2),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoclosure",
        description="decide 2-closedness of abelian permutation groups "
        "with cyclic transitive constituents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run the reduction procedure on a group file")
    p.add_argument("file", help="group file, or - for stdin")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="also run the brute-force oracle and compare verdicts",
    )
    p.set_defaults(func=_cmd_decide)

    for name, summary, func in _FILE_COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        p.set_defaults(func=func)

    for name, summary, fixture in _FIXTURE_COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("p", type=int)
        p.set_defaults(func=_cmd_fixture, fixture=fixture)

    p = sub.add_parser("random", help="seeded random abelian instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument(
        "--regular",
        action="store_true",
        help="a regular (transitive) abelian group instead of a block-shift group",
    )
    p.set_defaults(func=_cmd_random)

    return parser


# ValueError covers ParseError, InvalidPermutation, PreconditionFailed, NotPrime
# and ColoringTooLarge.
_EXPECTED_ERRORS = (CapExceeded, BudgetExceeded, ValueError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
