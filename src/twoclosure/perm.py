"""Permutations and finitely generated permutation groups.

Orbits are read off the generators' cycles (_cycle_orbits, each orbit as its
cycles' ids, for the decider and the pair coloring).  The other group-level
queries (order, stabilizers, subgroup tests, constituent checks) enumerate
the elements, filtering them instead of using stabilizer chains, for the
brute-force oracle and the tests' references; the decider calls none of them.
The element cap (DEFAULT_CAP) keeps runaway inputs from eating the machine.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, compress, repeat
from operator import ne
from typing import Iterable, NamedTuple, Optional, Sequence

DEFAULT_CAP = 1_000_000


class CapExceeded(Exception):
    """Element enumeration hit the cap before the group was closed."""

    def __init__(self, cap: int, partial: int):
        super().__init__(
            f"element enumeration exceeded cap={cap} ({partial} elements found)"
        )
        self.cap = cap
        self.partial = partial


class NotInvariant(ValueError):
    """The given point set is moved off itself by some generator."""


class NotBlockSystem(ValueError):
    """A generator does not map classes of the given partition onto classes."""


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending (empty for n <= 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def format_cycles(cycles: Iterable[Sequence[int]]) -> str:
    """Disjoint cycles in cycle notation, as str writes a permutation; () for none."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


class _PermutationFields(NamedTuple):
    images: tuple[int, ...]


class Permutation(_PermutationFields):
    """A bijection of {0..n-1}; ``images[i]`` is where point ``i`` goes.

    Composition is "left first": ``(p * q)(i) == q(p(i))``, matching the
    exponent convention on points, ``i^(pq) = (i^p)^q``.  This is the one
    global convention.  A permutation is a named tuple of one field, the
    images as a tuple whatever sequence was given: it unpacks as
    ``images, = p``, ``len(p) == 1``, it equals and hashes as the 1-tuple
    ``(images,)``, and permutations order by their images.  ``p + q`` and
    ``2 * p`` raise TypeError, but ``(1,) + p`` is still a tuple
    concatenation: tuple's own ``+`` runs first.
    """

    __slots__ = ()
    __add__ = __rmul__ = None  # not tuple's concatenation and repetition

    def __new__(cls, images: Sequence[int]):
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection of 0..{n - 1}: {images!r}")
            seen[v] = True
        return tuple.__new__(cls, (tuple(images),))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep the check
        return cls(*iterable)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        """A permutation of images its caller has already checked or built to
        be a bijection of 0..n-1, as the builders below and ``*`` do."""
        return tuple.__new__(cls, (images,))

    @classmethod
    def _shifting(cls, degree: int, walks: Iterable[tuple[Sequence[int], int]]) -> Permutation:
        """walk[i] goes to walk[(i + s) % len(walk)] for each (walk, s), 0 <= s <= len(walk),
        over disjoint walks in 0..degree-1; every other point is fixed."""
        images = list(range(degree))
        for walk, s in walks:
            any(map(images.__setitem__, walk, walk[s:] + walk[:s]))
        return cls._unchecked(tuple(images))

    @classmethod
    def _unchecked_cycles(cls, degree: int, points: Sequence[int], lengths: Iterable[int]) -> Permutation:
        """The disjoint cycles, their points one cycle after another, that the
        parser has checked to lie in 0..degree-1 without a repeated point, in
        one pass in C and one step per cycle: _shifting would cost Python work
        per cycle, and one line of a group file can hold thousands of cycles."""
        images, start = list(range(degree)), 0
        any(map(images.__setitem__, points, points[1:]))
        for end in accumulate(filter(None, lengths)):
            images[points[end - 1]] = points[start]
            start = end
        return cls._unchecked(tuple(images))

    @staticmethod
    def identity(degree: int) -> Permutation:
        return Permutation._unchecked(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Permutation:
        """Build a permutation from disjoint cycles; unmentioned points are fixed."""
        cycles = [tuple(cycle) for cycle in cycles]
        touched = set()
        for pt in (pt for cycle in cycles for pt in cycle):
            if not 0 <= pt < degree:
                raise ValueError(f"point {pt} out of range for degree {degree}")
            if pt in touched:
                raise ValueError(f"point {pt} repeated across cycles")
            touched.add(pt)
        return Permutation._shifting(degree, zip(cycles, repeat(1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if len(other.images) != len(self.images):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        # a product of bijections is one
        return Permutation._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def __pow__(self, k: int) -> Permutation:
        return Permutation._shifting(self.degree, ((c, k % len(c)) for c in self.cycles()))

    def inverse(self) -> Permutation:
        return self ** -1

    def is_identity(self) -> bool:
        return not any(map(ne, self.images, range(self.degree)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of the moved points, each starting at its minimal
        point, ordered by that point.  A scan in C skips the fixed points, so
        only the moved points are walked in Python; order, ``**``, inverse
        and str all read these cycles."""
        images, n = self.images, self.degree
        seen, out = set(), []
        for i in compress(range(n), map(ne, images, range(n))):
            if i in seen:
                continue
            cycle, j = [i], images[i]
            while j != i:
                cycle.append(j)
                j = images[j]
            seen.update(cycle)
            out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def __str__(self) -> str:
        return format_cycles(self.cycles())

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"


def _cycle_orbits(group: PermGroup) -> tuple[list[tuple[int, ...]], list[int], Iterable[Sequence[int]], list[int]]:
    """The generators' cycles and the orbits they join into: each generator's
    cycles are walked once, from their minimal points, over the points it
    moves, and a union-find joins the cycles that share a point, in O(n) in
    C plus O(sum of |supp g|) in Python.  Returns the cycles, the generator
    of each, the orbits of size > 1 by minimal point, each the ids of its
    cycles ascending (an iterable to read once: one generator's 1-tuples
    are made as they are read), and the fixed points."""
    n, gens = group.degree, [g.images for g in group.generators]
    # owner[x]: the last cycle walked through x, or -1; parent leads each
    # cycle towards the root of its orbit (a union-find, path halving)
    owner, cycles, movers, parent = [-1] * n, [], [], []
    for h, images in enumerate(gens):
        first = len(cycles)
        for i in compress(range(n), map(ne, images, range(n))):
            if owner[i] < first:  # i is the minimal point of a cycle of h not walked yet
                c, walk, j = len(cycles), [i], images[i]
                while j != i:
                    walk.append(j)
                    j = images[j]
                parent.append(c)
                for t in {*map(owner.__getitem__, walk)} - {-1} if first else ():
                    while parent[t] != t:
                        parent[t] = t = parent[parent[t]]
                    parent[t] = c
                for j in walk:
                    owner[j] = c
                cycles.append(tuple(walk))
        movers.extend(repeat(h, len(cycles) - first))
    orbits = zip(range(len(cycles)))  # one generator's cycles come by minimal point and join none
    if len(gens) > 1:
        roots = {}  # root -> the ids of its orbit's cycles, ascending
        for c in range(len(cycles)):
            t = c
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]
            roots.setdefault(t, []).append(c)
        orbits = sorted(roots.values(), key=lambda ids: min(map(cycles.__getitem__, ids)))
    return cycles, movers, orbits, [*compress(range(n), map((-1).__eq__, owner))]


class PermGroup:
    """A permutation group of fixed degree, given by generators.

    Immutable after construction.  The full element set is computed lazily
    as the breadth-first closure of the generators under composition and is
    memoized.  Duplicate and identity generators are dropped; an
    empty generator list is the trivial group, and degree 0 is legal.
    """

    __slots__ = ("degree", "generators", "_elements")

    def __init__(self, degree: int, generators: Iterable = ()):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        gens: list[Permutation] = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(tuple(g))
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(dict.fromkeys(gens))
        self._elements: Optional[frozenset[Permutation]] = None

    @staticmethod
    def from_elements(degree: int, elements: Iterable[Permutation]) -> PermGroup:
        """Group whose element set is already known to be closed.

        The caller vouches for closure; the set is installed directly as
        the memoized enumeration, with the non-identity elements as
        generators.
        """
        els = frozenset(elements)
        group = PermGroup(degree, sorted(els))
        group._elements = els | {Permutation.identity(degree)}
        return group

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, gens=[{gens}])"

    def elements(self) -> frozenset[Permutation]:
        """All group elements: breadth-first closure of the generators.

        Raises CapExceeded with the partial count if more than DEFAULT_CAP
        (read at call time) elements are found; the enumeration is
        complete iff the group order is at most DEFAULT_CAP.
        """
        cap = DEFAULT_CAP
        if self._elements is None:
            self._elements = self._close(cap)
        if len(self._elements) > cap:
            raise CapExceeded(cap, len(self._elements))
        return self._elements

    def _close(self, cap: int) -> frozenset[Permutation]:
        els = {Permutation.identity(self.degree), *self.generators}
        if len(els) > cap:
            raise CapExceeded(cap, len(els))
        frontier = list(self.generators)
        while frontier:
            new = []
            for a in frontier:
                for g in self.generators:
                    c = a * g
                    if c not in els:
                        els.add(c)
                        if len(els) > cap:
                            raise CapExceeded(cap, len(els))
                        new.append(c)
            frontier = new
        return frozenset(els)

    def order(self) -> int:
        return len(self.elements())

    def is_trivial(self) -> bool:
        return not self.generators

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits as tuples of their points ascending, by minimal point:
        _cycle_orbits' orbits and fixed points, two ascending runs one sort merges."""
        cycles, _, orbits, fixed = _cycle_orbits(self)
        return tuple(sorted([*(tuple(sorted(cycles[ids[0]] if len(ids) == 1 else {*chain(*map(cycles.__getitem__, ids))}))
                               for ids in orbits), *zip(fixed)]))

    def pointwise_stabilizer(self, points: Iterable[int]) -> PermGroup:
        """Subgroup fixing every listed point, with its full element set as generators."""
        pts = self._check_points(points)
        stab = [
            g for g in self.elements() if all(g.images[p] == p for p in pts)
        ]
        return PermGroup.from_elements(self.degree, stab)

    def restriction(self, points: Iterable[int]) -> PermGroup:
        """The action induced on an invariant point set, relabeled by sorted order."""
        pts = self._check_points(points)
        index = {p: i for i, p in enumerate(pts)}
        gens = []
        for g in self.generators:
            for p in pts:
                if g.images[p] not in index:
                    raise NotInvariant(
                        f"generator {g} maps point {p} to {g.images[p]}, "
                        f"outside the given set"
                    )
            gens.append(Permutation(tuple(index[g.images[p]] for p in pts)))
        return PermGroup(len(pts), gens)

    def is_subgroup_of(self, other: PermGroup) -> bool:
        """True iff every generator of this group lies in ``other`` (degrees must match)."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return set(self.generators) <= other.elements()

    def induced_on_orbits(self, inner: PermGroup) -> PermGroup:
        """The action of this group on the orbits of ``inner``.

        The orbit classes of ``inner`` (indexed by minimal point) must form
        a block system for every generator; otherwise NotBlockSystem is
        raised.  With a trivial ``inner`` this is just a relabeling onto
        singletons, an isomorphic copy.
        """
        if inner.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {inner.degree}")
        classes = inner.orbits()
        block = {x: d for d, cls in enumerate(classes) for x in cls}
        gens = []
        for g in self.generators:
            images = []
            for cls in classes:
                j = block[g.images[cls[0]]]
                if any(block[g.images[p]] != j for p in cls):
                    raise NotBlockSystem(
                        f"generator {g} smears orbit {cls} over several classes"
                    )
                images.append(j)
            gens.append(Permutation(tuple(images)))
        return PermGroup(len(classes), gens)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            gens[i] * gens[j] == gens[j] * gens[i]
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        )

    def cyclic_constituents(self) -> bool:
        """True iff the action induced on every orbit is a cyclic group."""
        for cls in self.orbits():
            constituent = self.restriction(cls)
            target = constituent.order()
            if not any(g.order() == target for g in constituent.elements()):
                return False
        return True

    def _check_points(self, points: Iterable[int]) -> tuple[int, ...]:
        pts = tuple(sorted(set(points)))
        for p in pts:
            if not 0 <= p < self.degree:
                raise ValueError(f"point {p} out of range for degree {self.degree}")
        return pts
