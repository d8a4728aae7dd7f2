"""Canned and randomized test instances.

The two fixture families are small intransitive p-groups built from
shifts on blocks of size p.  The first is the minimal group whose zel
subgroup escapes it (so it is not closed, and the reduction chain ends
at that check); the second glues two copies of the first diagonally,
which kills zel entirely and exercises the orbit-removal path instead.

The random generators produce seeded, reproducible abelian groups with
cyclic constituents (block shifts) and regular abelian groups (a group
acting on itself), the two instance classes the validation sweeps need.
Every builder refuses a degree the parser would refuse to read back.
"""

from __future__ import annotations

import itertools
import math
import random

from .groupfile import MAX_DEGREE
from .perm import PermGroup, Permutation, prime_factors


class NotPrime(ValueError):
    pass


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit {MAX_DEGREE}")


def _check_prime(p: int) -> None:
    if prime_factors(p) != (p,):
        raise NotPrime(f"{p} is not prime")


def _block_shift(degree: int, shifts: list[tuple[int, int, int]]) -> Permutation:
    """Shift each block of ``size`` consecutive points from ``start`` by
    ``amount``, for every (start, size, amount) in ``shifts``."""
    images = list(range(degree))
    for start, size, amount in shifts:
        for i in range(size):
            images[start + i] = start + (i + amount) % size
    return Permutation(tuple(images))


def _glued_examples(p: int, copies: int) -> PermGroup:
    """``copies`` copies of three blocks of size p, glued diagonally: in
    every copy, generator a shifts blocks 1 and 3, generator b blocks 2 and 3."""
    degree = 3 * p * copies
    _check_degree(degree)
    _check_prime(p)
    return PermGroup(degree, [
        _block_shift(degree, [(3 * p * c + k * p, p, 1) for c in range(copies) for k in blocks])
        for blocks in ((0, 2), (1, 2))
    ])


def fixture_example1(p: int) -> PermGroup:
    """Order p² on 3p points, three orbits of size p, pairwise distinct orbit kernels.

    Generator a shifts orbits 1 and 3; generator b shifts orbits 2 and 3.
    The kernels of the three orbit actions are <b>, <a> and <ab^-1>, all
    different subgroups of order p, which is exactly the configuration
    that makes zel strictly larger than the group.
    """
    return _glued_examples(p, 1)


def fixture_example2(p: int) -> PermGroup:
    """Two copies of fixture_example1(p) glued diagonally: degree 6p, order p².

    Every element acts identically (up to the 3p offset) on both halves,
    so each orbit has a twin whose pointwise stabilizer does nothing on
    it; zel collapses to the trivial group.
    """
    return _glued_examples(p, 2)


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def random_abelian_cyclic(seed: int, max_degree: int) -> PermGroup:
    """A seeded abelian group with cyclic constituents, degree <= max_degree.

    Points are split into blocks of prime-power size (plus occasional
    fixed points); each generator shifts a random subset of the blocks,
    usually by 1 so that blocks get coupled, sometimes by a larger
    amount so that a block splits into several orbits.  Everything is a
    product of block shifts, hence abelian with cyclic constituents.
    """
    _check_degree(max_degree)
    rng = random.Random(seed)
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    if max_degree == 0:
        return PermGroup(0)

    sizes: list[int] = []
    remaining = max_degree
    while remaining >= 2:
        if sizes and rng.random() < 0.15:
            sizes.append(1)
            remaining -= 1
        else:
            pool = [q for q in PRIME_POWERS if q <= remaining]
            q = rng.choice(pool)
            sizes.append(q)
            remaining -= q
        if len(sizes) >= 2 and rng.random() < 0.35:
            break
    if not sizes:
        sizes = [1]

    starts = list(itertools.accumulate(sizes, initial=0))
    total = starts.pop()

    blocks = [(s, q) for s, q in zip(starts, sizes) if q > 1]
    gens = []
    for _ in range(rng.randint(1, max(1, min(3, len(blocks))))):
        chosen = [b for b in blocks if rng.random() < 0.6]
        if not chosen and blocks:
            chosen = [rng.choice(blocks)]
        gens.append(_block_shift(total, [
            (s, q, 1 if rng.random() < 0.6 else rng.randrange(1, q)) for s, q in chosen
        ]))
    return PermGroup(total, gens)


def random_regular_abelian(seed: int, max_degree: int) -> PermGroup:
    """A seeded abelian group acting on itself by translations, degree <= max_degree.

    The group is a random product of cyclic factors Z_m; points are the
    mixed-radix numbers over the factor sizes, and each generator adds 1
    to one digit, of weight w: it maps x to x + w, or to x - (m-1)·w
    where the digit wraps round.  The action is transitive with order
    equal to the degree.
    """
    _check_degree(max_degree)
    rng = random.Random(seed)
    if max_degree < 2:
        raise ValueError("need max_degree >= 2 for a nontrivial regular action")
    factors: list[int] = []
    n = 1
    while True:
        pool = [m for m in range(2, max_degree + 1) if n * m <= max_degree]
        if not pool:
            break
        factors.append(rng.choice(pool))
        n *= factors[-1]
        if rng.random() < 0.4:
            break

    weights = [math.prod(factors[i + 1:]) for i in range(len(factors))]  # weights[i] multiplies digit i
    return PermGroup(n, [
        Permutation(tuple(x + w if x // w % m < m - 1 else x - (m - 1) * w for x in range(n)))
        for m, w in zip(factors, weights)
    ])
