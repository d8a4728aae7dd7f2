"""Seeded instance generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round holds the
same fixed mix of instance shapes, so throughput and latency
percentiles over whole rounds do not depend on which seed drew them.
The seed decides everything that should not change the cost: the
relabelling of the points (a random permutation per instance), the
unit by which each block is shifted, the order of the instances in the
round, and the random instances of ``oracle-closure``.

The program under test only ever sees ``Instance.text``, a group file.
The remaining fields are what the instance is known to satisfy by
construction; the benchmark checks answers against them outside the
timed region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from twoclosure.fixtures import fixture_example1, fixture_example2, random_abelian_cyclic

DECIDE = "decide"
CLOSURE = "closure"

# Oracle degree cap used by oracle-closure; example2(11) (degree 66) is
# above it, so that workload stops at example2(7).
ORACLE_MAX_DEGREE = 48
# Random oracle instances: at degree <= 32 one instance in a few hundred
# takes 0.5-1 s, which would make the per-run mix depend on the seed.
RANDOM_MAX_DEGREE = 24
# Four per round puts the median operation among indep 9xZ2 and
# example2(5), two shapes of about the same cost.  With more, the median
# sits on the jump from indep 8xZ2 (about 6 ms) to them (about 10 ms),
# and the share of a run's random draws above that jump moves op_ms.p50
# from seed to seed.
RANDOM_PER_ROUND = 4

# high-order: |G| up to about 4096, mixed primes included.  Three shapes
# of about 0.1 s each ((9,9,4), (2,)*8, (5,5,5,5)) sit in the middle of
# the cost order, so the median operation falls inside that group rather
# than on a jump between a cheap and a dear shape.  Left out on purpose
# because each takes minutes per run: indep 8xZ4 (40 s) and indep 10xZ4
# (CapExceeded after 93 s).
HIGH_ORDER_INDEP = (
    (4,) * 6,
    (8, 8, 9, 7),
    (4, 4, 4, 3, 3, 7),
    (2, 2, 3, 3, 5, 7),
    (4, 4, 3, 3, 5),
    (9, 9, 4),
    (2,) * 8,
    (5, 5, 5, 5),
    (16, 16),
)
HIGH_ORDER_PRIMES = (5, 7, 11, 13)

# many-orbits: (k, q) = one diagonal Zq generator over k blocks of size q.
# Left out on purpose: diag Z2 on 1100 blocks (RecursionError after 213 s).
MANY_ORBITS = ((40, 2), (60, 3), (80, 2), (100, 3), (120, 2), (140, 3), (160, 2))

# oracle-closure fixed part: example1 for p <= 11, example2 for p <= 7,
# indep k x Z2 for k <= 11.
ORACLE_EXAMPLE1 = (5, 7, 11)
ORACLE_EXAMPLE2 = (5, 7)
ORACLE_INDEP_Z2 = (6, 8, 9, 10, 11)

WORKLOADS = ("high-order", "many-orbits", "oracle-closure")


@dataclass(frozen=True)
class Instance:
    """One operation: a group file plus what its answer must be.

    For ``decide``: ``closed`` is the verdict and ``order`` the group
    order the Validate step must report.  For ``closure``: ``order`` is
    |closure|, or None for random instances, which are checked by
    property (G <= closure, every element preserves orb2(G)).
    """

    label: str
    text: str
    op: str
    closed: Optional[bool]
    order: Optional[int]


def _relabel(degree: int, gens: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Conjugate every generator by a random permutation of the points."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        images = [0] * degree
        for i, v in enumerate(g):
            images[sigma[i]] = sigma[v]
        out.append(images)
    return out


def to_text(degree: int, gens: list[list[int]]) -> str:
    """A group file with every generator in disjoint-cycle notation."""
    lines = [f"degree {degree}"]
    for images in gens:
        seen = [False] * degree
        cycles = []
        for start in range(degree):
            if seen[start] or images[start] == start:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = images[x]
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
        if cycles:
            lines.append("gen " + "".join(cycles))
    return "\n".join(lines) + "\n"


def _unit(q: int, rng: random.Random) -> int:
    """A shift amount that generates Z_q."""
    return rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])


def _shift(images: list[int], start: int, q: int, amount: int) -> None:
    for i in range(q):
        images[start + i] = start + (i + amount) % q


def indep(sizes: tuple[int, ...], rng: random.Random) -> tuple[int, list[list[int]]]:
    """One generator per block, each shifting its own block by a unit."""
    degree = sum(sizes)
    gens = []
    start = 0
    for q in sizes:
        images = list(range(degree))
        _shift(images, start, q, _unit(q, rng))
        gens.append(images)
        start += q
    return degree, gens


def diag(k: int, q: int, rng: random.Random) -> tuple[int, list[list[int]]]:
    """One generator shifting each of k blocks of size q by a unit."""
    degree = k * q
    images = list(range(degree))
    for b in range(k):
        _shift(images, b * q, q, _unit(q, rng))
    return degree, [images]


def fixture_gens(group) -> tuple[int, list[list[int]]]:
    """Degree and generator image lists of a fixture group."""
    return group.degree, [list(g.images) for g in group.generators]


def _make(label, built, rng, op, closed, order) -> Instance:
    degree, gens = built
    return Instance(label, to_text(degree, _relabel(degree, gens, rng)), op, closed, order)


def _high_order_round(rng: random.Random) -> list[Instance]:
    out = [
        _make(f"indep {'x'.join(map(str, s))}", indep(s, rng), rng, DECIDE, True, math.prod(s))
        for s in HIGH_ORDER_INDEP
    ]
    for p in HIGH_ORDER_PRIMES:
        out.append(_make(f"example1({p})", fixture_gens(fixture_example1(p)), rng, DECIDE, False, p * p))
        out.append(_make(f"example2({p})", fixture_gens(fixture_example2(p)), rng, DECIDE, False, p * p))
    return out


def _many_orbits_round(rng: random.Random) -> list[Instance]:
    return [
        _make(f"diag Z{q} on {k} blocks", diag(k, q, rng), rng, DECIDE, True, q)
        for k, q in MANY_ORBITS
    ]


def _oracle_round(rng: random.Random) -> list[Instance]:
    out = []
    for p in ORACLE_EXAMPLE1:
        out.append(_make(f"example1({p})", fixture_gens(fixture_example1(p)), rng, CLOSURE, None, p ** 3))
    for p in ORACLE_EXAMPLE2:
        out.append(_make(f"example2({p})", fixture_gens(fixture_example2(p)), rng, CLOSURE, None, p ** 3))
    for k in ORACLE_INDEP_Z2:
        out.append(_make(f"indep {k}xZ2", indep((2,) * k, rng), rng, CLOSURE, None, 2 ** k))
    for _ in range(RANDOM_PER_ROUND):
        s = rng.randrange(2 ** 32)
        out.append(_make(f"random({s})", fixture_gens(random_abelian_cyclic(s, RANDOM_MAX_DEGREE)),
                         rng, CLOSURE, None, None))
    return out


_ROUNDS = {
    "high-order": _high_order_round,
    "many-orbits": _many_orbits_round,
    "oracle-closure": _oracle_round,
}


def rounds(workload: str, seed: int) -> Iterator[list[Instance]]:
    """Endless rounds of the workload's mix, each in a seeded order."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = make(rng)
        rng.shuffle(batch)
        yield batch
