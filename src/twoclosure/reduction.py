"""Structural reductions: Sylow parts, the zel subgroup, removable orbits.

These are the three ways the decision procedure shrinks an instance
without changing the answer: split an abelian group into its Sylow
p-parts, pass to the action on the orbits of zel(G), or delete an orbit
whose presence cannot affect closedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perm import DEFAULT_CAP, PermGroup, Permutation, prime_factors


class NotNilpotent(ValueError):
    """Sylow decomposition needs commuting p-parts; only abelian input is handled."""


class NotQuasiregular(ValueError):
    """Some transitive constituent is not regular."""


class NotAnOrbit(ValueError):
    """The given point set is not an orbit of the group."""


@dataclass(frozen=True)
class SylowDecomposition:
    """The Sylow p-subgroups of an abelian group, each acting on the full point set.

    ``parts`` is ordered by prime.  The parts intersect trivially, commute,
    and their internal product is the whole group, so orders multiply.
    """

    degree: int
    parts: tuple[tuple[int, PermGroup], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.parts)


def sylow_decomposition(group: PermGroup, cap: int = DEFAULT_CAP) -> SylowDecomposition:
    """Split an abelian group into its Sylow p-subgroups.

    For each prime p dividing the order, the part is generated by the
    p-parts g^m of the generators g, where m is the order of g with every
    factor p removed.  Taking p-parts is a homomorphism of an abelian
    group onto its Sylow p-subgroup, so the generators' p-parts generate
    it.  A trivial group decomposes into zero parts.
    """
    if not group.is_abelian():
        raise NotNilpotent("input is not abelian; cannot split into commuting p-parts")
    parts = []
    for p in prime_factors(group.order(cap)):
        gens = []
        for g in group.generators:
            m = g.order()
            while m % p == 0:
                m //= p
            gens.append(g ** m)
        parts.append((p, PermGroup(group.degree, gens)))
    return SylowDecomposition(group.degree, tuple(parts))


def _lift(perm: Permutation, points: tuple[int, ...], degree: int) -> Permutation:
    """Extend a permutation of the relabeled set back to the full point set by identity."""
    images = list(range(degree))
    for i, p in enumerate(points):
        images[p] = points[perm.images[i]]
    return Permutation(tuple(images))


def zel(group: PermGroup, cap: int = DEFAULT_CAP) -> PermGroup:
    """The product over orbits D of the intersections of the groups
    induced on D by the pointwise stabilizers of the other orbits.

    Each factor acts on its own orbit and trivially elsewhere, so the
    result is the internal direct product of the factors.  Undefined for
    fewer than two orbits: the intersection over "the other orbits" would
    be empty, and no convention is assumed for it.
    """
    part = group.orbits()
    if len(part) < 2:
        raise ValueError(
            f"zel needs at least two orbits, got {len(part)}; "
            "not defined for transitive groups"
        )
    gens: list[Permutation] = []
    for idx, cls in enumerate(part.classes):
        factor: Optional[frozenset[Permutation]] = None
        for jdx, other in enumerate(part.classes):
            if jdx == idx:
                continue
            induced = group.pointwise_stabilizer(other, cap).restriction(cls)
            els = induced.elements(cap)
            factor = els if factor is None else factor & els
            if len(factor) == 1:
                break
        assert factor is not None
        gens.extend(
            _lift(f, cls, group.degree) for f in factor if not f.is_identity()
        )
    return PermGroup(group.degree, gens)


def is_quasiregular(group: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """True iff the action induced on every orbit is regular (order = orbit size)."""
    return all(
        group.restriction(cls).order(cap) == len(cls)
        for cls in group.orbits().classes
    )


def _check_orbit(group: PermGroup, orbit) -> tuple[int, ...]:
    cls = tuple(sorted(orbit))
    if cls not in group.orbits().classes:
        raise NotAnOrbit(f"{cls} is not an orbit of the group")
    return cls


def has_unessential_witness(
    group: PermGroup, orbit, cap: int = DEFAULT_CAP
) -> Optional[tuple[int, ...]]:
    """An orbit D' whose pointwise stabilizer acts trivially on ``orbit``, if any.

    Such a witness makes ``orbit`` removable: the group is closed iff the
    group with that orbit deleted is.  Orbits are scanned in their
    canonical order and the first witness wins.  The group must be
    quasiregular (every constituent regular); this is checked.
    """
    cls = _check_orbit(group, orbit)
    if not is_quasiregular(group, cap):
        raise NotQuasiregular("some constituent is not regular")
    for other in group.orbits().classes:
        if other == cls:
            continue
        induced = group.pointwise_stabilizer(other, cap).restriction(cls)
        if induced.order(cap) == 1:
            return other
    return None


def remove_orbit(group: PermGroup, orbit) -> PermGroup:
    """The action on the complement of an orbit, relabeled onto 0..n-|D|-1."""
    cls = _check_orbit(group, orbit)
    keep = [p for p in range(group.degree) if p not in set(cls)]
    return group.restriction(keep)
