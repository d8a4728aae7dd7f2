"""Structural reductions: Sylow parts, the zel subgroup, removable orbits.

These are the three ways the decision procedure shrinks an instance
without changing the answer: split an abelian group into its Sylow
p-parts, pass to the action on the orbits of zel(G), or delete an orbit
whose presence cannot affect closedness.  The decider does all three as
arithmetic on its coordinates; here they act on a group's generators,
and nothing enumerates group elements.  ``zel`` is the decider's,
importable from here as well.
"""

from __future__ import annotations

import math

from .decider import zel  # noqa: F401  (re-exported)
from .perm import PermGroup, prime_factors


class NotNilpotent(ValueError):
    """Sylow decomposition needs commuting p-parts; only abelian input is handled."""


class NotAnOrbit(ValueError):
    """The given point set is not an orbit of the group."""


def sylow_decomposition(group: PermGroup) -> tuple[tuple[int, PermGroup], ...]:
    """The Sylow p-subgroups of an abelian group, as (p, part) pairs ordered by p.

    For each prime p dividing the order, the part is generated by the
    p-parts g^m of the generators g, where m is the order of g with every
    factor p removed.  Taking p-parts is a homomorphism of an abelian
    group onto its Sylow p-subgroup, so the generators' p-parts generate
    it.  The primes are read off the exponent, the lcm of the generators'
    orders, which in an abelian group has the prime divisors of the
    order.  Each part acts on the full point set; the parts intersect
    trivially, commute, and their internal product is the whole group, so
    orders multiply.  A trivial group decomposes into zero parts.
    """
    if not group.is_abelian():
        raise NotNilpotent("input is not abelian; cannot split into commuting p-parts")
    parts = []
    for p in prime_factors(math.lcm(*(g.order() for g in group.generators))):
        gens = []
        for g in group.generators:
            m = g.order()
            while m % p == 0:
                m //= p
            gens.append(g ** m)
        parts.append((p, PermGroup(group.degree, gens)))
    return tuple(parts)


def remove_orbit(group: PermGroup, orbit) -> PermGroup:
    """The action on the complement of an orbit, relabeled onto 0..n-|D|-1."""
    cls = tuple(sorted(orbit))
    if cls not in group.orbits():
        raise NotAnOrbit(f"{cls} is not an orbit of the group")
    return group.restriction(set(range(group.degree)).difference(cls))
