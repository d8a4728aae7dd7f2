"""Canned and randomized test instances.

The two fixture families are small intransitive p-groups built from
shifts on blocks of size p.  The first is the minimal group whose zel
subgroup escapes it (so it is not closed, and the reduction chain ends
at that check); the second glues two copies of the first diagonally,
which kills zel entirely and exercises the orbit-removal path instead.

The random generators produce seeded, reproducible abelian groups with
cyclic constituents (block shifts) and regular abelian groups (a group
acting on itself), the two instance classes the validation sweeps need.
"""

from __future__ import annotations

import random

from .perm import PermGroup, Permutation, prime_factors


class NotPrime(ValueError):
    pass


def _check_prime(p: int) -> None:
    if prime_factors(p) != (p,):
        raise NotPrime(f"{p} is not prime")


def _block_shift(degree: int, starts: list[int], size: int, amount: int = 1) -> Permutation:
    """Shift each listed block of ``size`` consecutive points by ``amount``."""
    images = list(range(degree))
    for s in starts:
        for i in range(size):
            images[s + i] = s + (i + amount) % size
    return Permutation(tuple(images))


def fixture_example1(p: int) -> PermGroup:
    """Order p² on 3p points, three orbits of size p, pairwise distinct orbit kernels.

    Generator a shifts orbits 1 and 3; generator b shifts orbits 2 and 3.
    The kernels of the three orbit actions are <b>, <a> and <ab^-1>, all
    different subgroups of order p, which is exactly the configuration
    that makes zel strictly larger than the group.
    """
    _check_prime(p)
    a = _block_shift(3 * p, [0, 2 * p], p)
    b = _block_shift(3 * p, [p, 2 * p], p)
    return PermGroup(3 * p, [a, b])


def fixture_example2(p: int) -> PermGroup:
    """Two copies of fixture_example1(p) glued diagonally: degree 6p, order p².

    Every element acts identically (up to the 3p offset) on both halves,
    so each orbit has a twin whose pointwise stabilizer does nothing on
    it; zel collapses to the trivial group.
    """
    _check_prime(p)
    base = fixture_example1(p)
    gens = []
    for g in base.generators:
        images = list(g.images) + [3 * p + v for v in g.images]
        gens.append(Permutation(tuple(images)))
    return PermGroup(6 * p, gens)


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def random_abelian_cyclic(seed: int, max_degree: int) -> PermGroup:
    """A seeded abelian group with cyclic constituents, degree <= max_degree.

    Points are split into blocks of prime-power size (plus occasional
    fixed points); each generator shifts a random subset of the blocks,
    usually by 1 so that blocks get coupled, sometimes by a larger
    amount so that a block splits into several orbits.  Everything is a
    product of block shifts, hence abelian with cyclic constituents.
    """
    rng = random.Random(seed)
    if max_degree <= 0:
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

    starts = []
    total = 0
    for q in sizes:
        starts.append(total)
        total += q

    blocks = [(s, q) for s, q in zip(starts, sizes) if q > 1]
    gens = []
    for _ in range(rng.randint(1, max(1, min(3, len(blocks))))):
        chosen = [b for b in blocks if rng.random() < 0.6]
        if not chosen and blocks:
            chosen = [rng.choice(blocks)]
        images = list(range(total))
        for s, q in chosen:
            amount = 1 if rng.random() < 0.6 else rng.randrange(1, q)
            for i in range(q):
                images[s + i] = s + (i + amount) % q
        gens.append(Permutation(tuple(images)))
    return PermGroup(total, gens)


def random_regular_abelian(seed: int, max_degree: int) -> PermGroup:
    """A seeded abelian group acting on itself by translations, degree <= max_degree.

    The group is a random product of cyclic factors; points are the
    mixed-radix digit strings over the factor sizes, and each generator
    adds 1 in one coordinate.  The action is transitive with order equal
    to the degree.
    """
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

    weights = []
    w = 1
    for m in reversed(factors):
        weights.append(w)
        w *= m
    weights.reverse()  # weights[i] multiplies digit i

    def encode(digits):
        return sum(d * w for d, w in zip(digits, weights))

    def decode(x):
        digits = []
        for m, w in zip(factors, weights):
            digits.append((x // w) % m)
        return digits

    gens = []
    for i, m in enumerate(factors):
        images = []
        for x in range(n):
            digits = decode(x)
            digits[i] = (digits[i] + 1) % m
            images.append(encode(digits))
        gens.append(Permutation(tuple(images)))
    return PermGroup(n, gens)
