"""Inductive decision procedure for 2-closedness, with a full trace.

Scope: permutation groups all of whose transitive constituents are
cyclic (which forces the group to be abelian).  The procedure never
computes the closure itself; it only shrinks the instance until a base
case answers, recording one step per move:

  Validate        precondition check on the input
  TransitiveBase  transitive (or empty) group: closed, stop
  SylowSplit      composite order: closed iff every Sylow part is
  ZelNotInside    zel(G) does not lie inside G: not closed, stop
  ZelReduce       zel(G) lies inside G: pass to the action on its orbits
  OrbitRemoval    zel(G) trivial: delete the orbit of the minimal point

Every reduction strictly decreases the degree, so a chain ends after at
most ``degree`` steps.

No group element is ever enumerated.  A cyclic transitive constituent
on an orbit D is regular, so a generator c of it numbers the points of
D as base, base^c, base^(c^2), ... and every element of G shifts these
coordinates by one residue mod |D|.  G is thus a subgroup of the product
of the Z_|D|, spanned by one integer shift vector per generator, and
each step of the chain is integer arithmetic on those vectors:

  |G|          prod |D| / prod of the echelon pivots of the lattice spanned
               by the shift vectors and the vectors |D| e_D
  Sylow part   shifts mod the p-part p^a of |D|; the orbit D splits into
               |D| / p^a cosets, all shifted alike
  zel factor   on D, generated by c^f_D for the constituent generator c,
               f_D = lcm over D' != D of the index of the shifts on D of
               the elements fixing D' pointwise (a two-column echelon)
  zel <= G     adding the vectors f_D e_D to the lattice keeps |G|
  ZelReduce    coordinate D taken mod f_D; |G| drops by prod |D| / f_D
  OrbitRemoval coordinate D dropped; |G| stays, since a trivial zel
               leaves no element that fixes every other orbit

Point labels are kept per coordinate, so the steps report the same
orbits and sizes as the group they describe.  Each orbit is walked once,
along a generator (or product of generator powers) that runs through
it, and the witness scan, which zel() shares with the chain, pairs only
orbits that share a generator, so the cost of either is about linear in
the degree and the number of nonzero shifts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import merge
from itertools import accumulate, compress
from operator import ne, or_
from typing import NamedTuple

from .perm import PermGroup, Permutation, prime_factors

VALIDATE = "Validate"
TRANSITIVE_BASE = "TransitiveBase"
SYLOW_SPLIT = "SylowSplit"
ZEL_NOT_INSIDE = "ZelNotInside"
ZEL_REDUCE = "ZelReduce"
ORBIT_REMOVAL = "OrbitRemoval"

STEP_KINDS = frozenset(
    {VALIDATE, TRANSITIVE_BASE, SYLOW_SPLIT, ZEL_NOT_INSIDE, ZEL_REDUCE, ORBIT_REMOVAL}
)


class PreconditionFailed(ValueError):
    """The input has a non-cyclic transitive constituent."""


class _StepFields(NamedTuple):
    kind: str
    degree: int
    order: int
    detail: tuple[int, ...] = ()


class Step(_StepFields):
    """One move of the procedure, with the degree and order of the group it saw.

    ``detail`` depends on the kind: the prime list for SylowSplit, the
    orbit sizes of zel(G) for ZelReduce, the removed orbit's points for
    OrbitRemoval, empty otherwise.  A kind outside STEP_KINDS raises
    ValueError.
    """

    __slots__ = ()

    def __new__(cls, kind: str, degree: int, order: int, detail: tuple[int, ...] = ()):
        if kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        return tuple.__new__(cls, (kind, degree, order, detail))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep the check
        return cls(*iterable)


class ReductionTrace(NamedTuple):
    steps: tuple[Step, ...]
    verdict: bool


class _Orbit(NamedTuple):
    """One orbit in coordinates.

    ``points[c]`` is the label of the point at coordinate c, and
    ``shifts[i]`` is the residue mod ``size`` by which generator i moves
    every coordinate.
    """

    size: int
    points: list[int]
    shifts: list[int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return a, s0, t0


def _p_part(n: int, p: int) -> int:
    pa = 1
    while n % (pa * p) == 0:
        pa *= p
    return pa


@lru_cache(maxsize=None)
def _prime_parts(q: int) -> tuple[tuple[int, int], ...]:
    """(p, p^a) for each prime p dividing q, p^a the p-part of q."""
    return tuple((p, _p_part(q, p)) for p in prime_factors(q))


def _coordinates(group: PermGroup) -> list[_Orbit]:
    """The orbits in coordinates, in order of minimal point.

    The constituent generator c on an orbit is the product, over the
    primes p dividing the orbit size q, of the p-part of the first
    generator whose cycle through the minimal point carries the full
    p-part p^a of q.  The orbit is walked once, along a generator that
    acts on it as a q-cycle (or, if none does, along c built from its
    cycles); the constituent is cyclic exactly when every generator
    moving the orbit shifts that walk, and then c shifts it by a unit s,
    so c's coordinates are the walk's divided by s.  Otherwise
    PreconditionFailed is raised.
    """
    n, gens = group.degree, [g.images for g in group.generators]
    part = group.orbits()
    # first[d]: the first generator that moves a point of orbit d, or -1;
    # more[d]: all that do, in order, where there are several (the other
    # generators fix d pointwise)
    first, more = [-1] * len(part.classes), {}
    orbit_of = part.point_to_class.__getitem__
    for h, images in enumerate(gens):
        for d in set(map(orbit_of, compress(range(n), map(ne, images, range(n))))):
            if first[d] < 0:
                first[d] = h
            else:
                more.setdefault(d, [first[d]]).append(h)
    orbits = []
    for d, cls in enumerate(part.classes):
        q, base, shifts = len(cls), cls[0], [0] * len(gens)
        sup = more.get(d) or ([first[d]] if first[d] >= 0 else [])
        for h in sup:
            images, walk = gens[h], [base]
            x = images[base]
            while x != base:
                walk.append(x)
                x = images[x]
            if len(walk) == q:
                shifts[h] = 1
                break
        else:
            walk = _product_walk(cls, gens, sup) if sup else [base]
        for h in sup:
            if not shifts[h]:
                images = gens[h]
                v = shifts[h] = walk.index(images[base]) if len(walk) == q else 0
                if not v or [images[x] for x in walk] != walk[v:] + walk[:v]:
                    raise PreconditionFailed(f"the constituent on the orbit of {base} is not cyclic")
        s = 0
        for p, pa in _prime_parts(q):
            for h in sup:
                length = q // math.gcd(shifts[h], q)
                if length % pa == 0:
                    s += shifts[h] * (length // pa)
                    break
        if q > 1 and s % q != 1:
            unit = pow(s, -1, q)
            walk = [walk[s * i % q] for i in range(q)]
            shifts = [v * unit % q for v in shifts]
        orbits.append(_Orbit(q, tuple(walk), tuple(shifts)))
    return orbits


def _product_walk(cls: tuple[int, ...], gens: list[tuple[int, ...]], sup: list[int]) -> list[int]:
    """The walk from min(cls) of the constituent generator c, built from
    the cycles on cls of the generators it takes a power of."""
    q, c = len(cls), {x: x for x in cls}
    for p, pa in _prime_parts(q):
        for h in sup:
            images, power = gens[h], {}
            for x in cls:
                if x not in power:
                    cycle = [x]
                    while images[cycle[-1]] != x:
                        cycle.append(images[cycle[-1]])
                    if not power:
                        e = len(cycle) // pa
                        if len(cycle) % pa:
                            break
                    power.update((y, cycle[(j + e) % len(cycle)]) for j, y in enumerate(cycle))
            else:
                c = {x: power[y] for x, y in c.items()}
                break
    walk = [cls[0]]
    while c[walk[-1]] != cls[0]:
        walk.append(c[walk[-1]])
    return walk


def _order(orbits: list[_Orbit], extra: tuple[dict[int, int], ...] = ()) -> int:
    """Order of the group spanned by the shift vectors and the extra rows.

    Rows are sparse, column -> nonzero residue, and wait in a bucket for
    their first column.  Column by column, an extended gcd folds the rows
    of that bucket, and the vector |D_j| e_j, into one pivot row; what a
    row leaves over goes to the bucket of its next column.  The order is
    prod |D_j| / pivot_j.
    """
    sizes = [o.size for o in orbits]
    waiting: dict[int, list[dict[int, int]]] = {}
    for row in (*(dict(compress(enumerate(v), v)) for v in zip(*(o.shifts for o in orbits))), *extra):
        if row:
            waiting.setdefault(min(row), []).append(row)
    order = 1
    for j, q in enumerate(sizes):
        pivot = {j: q}
        for row in waiting.pop(j, ()):
            g, s, t = _xgcd(pivot[j], row[j])
            a, b = row[j] // g, pivot[j] // g
            combined, killed = {j: g}, {}
            for col in pivot.keys() | row.keys():
                if col != j:
                    x, y, m = pivot.get(col, 0), row.get(col, 0), sizes[col]
                    if (s * x + t * y) % m:
                        combined[col] = (s * x + t * y) % m
                    if (a * x - b * y) % m:
                        killed[col] = (a * x - b * y) % m
            pivot = combined
            if killed:
                waiting.setdefault(min(killed), []).append(killed)
        order = order * q // pivot[j]
    return order


def _sylow_part(orbits: list[_Orbit], p: int) -> list[_Orbit]:
    """The orbits of the Sylow p-part, in order of minimal point.

    An orbit of size q = p^a r splits into the r cosets of r Z_q.  The
    p-part acts on each coset as Z_(p^a), shifting by the residue mod p^a
    of the whole group's shift (Chinese remainder theorem); the point at
    coordinate s of coset j is the one at j + r (s r^-1 mod p^a) in D.
    """
    part = []
    for o in orbits:
        pa = _p_part(o.size, p)
        r = o.size // pa
        unit = pow(r, -1, pa)
        shifts = [v % pa for v in o.shifts]
        for j in range(r):
            part.append(_Orbit(pa, [o.points[j + r * (s * unit % pa)] for s in range(pa)], shifts))
    part.sort(key=lambda o: min(o.points))
    return part


def _index(a: _Orbit, b: _Orbit) -> int:
    """Index in Z_|a| of the shifts on a of the elements that fix b pointwise.

    A two-column echelon over the generators that move a or b: (x, y) is
    the pivot row on b's column, and h generates the first coordinates of
    the lattice vectors whose b-coordinate is zero.
    """
    h, x, y = a.size, 0, b.size
    for s, t in compress(zip(a.shifts, b.shifts), map(or_, a.shifts, b.shifts)):
        g, u, w = _xgcd(y, t)
        h = math.gcd(h, ((t // g) * x - (y // g) * s) % h)
        if h == 1:  # a gcd chain that reaches 1 stays there
            return 1
        x, y = (u * x + w * s) % a.size, g
    return h


def _witness_scan(orbits: list[_Orbit]) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """For each orbit D, its last witness, or -1, and the (j, _index) pairs
    of index above 1 met on the way down to it.

    A witness of D is another orbit D' whose pointwise stabilizer fixes
    D too (_index is |D|).  Only an orbit D' that shares a generator with
    D can be a witness or add to f_D (otherwise _index is 1), so the scan
    walks, from the top down, the orbits moved by D's generators and stops
    at the first witness; a fixed point's witness is the top other orbit.
    """
    k = len(orbits)
    # movers[h]: the orbits generator h moves, ascending
    movers = [list(compress(range(k), column)) for column in zip(*(o.shifts for o in orbits))]
    witness, found = [], []
    for i, o in enumerate(orbits):
        w, pairs = -1, []
        if o.size == 1:
            w = k - 1 if i < k - 1 else k - 2
        else:
            sup = list(compress(range(len(o.shifts)), o.shifts))
            if len(sup) == 1:
                below = reversed(movers[sup[0]])
            else:
                below = merge(*(reversed(movers[h]) for h in sup), reverse=True)
            last = i
            for j in below:
                if j == last or j == i:
                    continue
                last, h = j, _index(o, orbits[j])
                if h == o.size:
                    w = j
                    break
                if h > 1:
                    pairs.append((j, h))
        witness.append(w)
        found.append(pairs or ())  # no empty list kept per orbit
    return witness, found


def _zel_factors(orbits: list[_Orbit], witness: list[int], found: list, lo: int) -> list[int]:
    """f_D for each orbit D from orbits[lo] on, once the orbits below lo are
    gone: |D| if a witness of D is left, else the lcm of the indices of the
    orbits left."""
    return [o.size if w >= lo else math.lcm(*(h for j, h in pairs if j >= lo))
            for o, w, pairs in zip(orbits[lo:], witness[lo:], found[lo:])]


def _chain(orbits: list[_Orbit], order: int, steps: list[Step]) -> bool:
    """Reduce one p-group to its base case, appending the steps taken.

    Every orbit size is a power of p, so the zel factor on an orbit D is
    trivial exactly when D has a witness (see _witness_scan).  Orbit
    removal leaves every witness a witness and removes orbits in order of
    minimal point, so the last witness of each orbit, found once, says
    for how long its zel factor stays trivial.  Labels are relabelled
    only at ZelReduce; in between, a point's label is its label at the
    last relabelling minus the number of removed points below it.  Those
    are counted in O(log n): a bytearray marks removed labels and is
    counted inside a block of 128 labels, and a Fenwick tree sums the
    counts of the blocks below.

    Returns False when the chain ends in ZelNotInside.
    """
    degree = sum(o.size for o in orbits)
    while len(orbits) > 1:
        k = len(orbits)
        witness, found = _witness_scan(orbits)
        lowest = list(accumulate(reversed(witness), min))[::-1]  # lowest[i] = min(witness[i:])
        # The minimal point of orbit lo is the least label left, so its new
        # label is 0 and the labels below it are those of the lo orbits
        # removed before.  So only the other points of removed orbits are
        # marked; a point's new label is its label minus lo and the marks
        # below it.  The points of orbit lo are marked as they are counted,
        # in ascending order, so the n-th finds n - 1 of its own marked.
        marked, tree = bytearray(degree), [0] * ((degree >> 7) + 2)
        top, lo = len(tree), 0
        while lo < k - 1 and lowest[lo] >= lo:
            points = sorted(orbits[lo].points)
            detail = [0]
            for n in range(1, len(points)):
                x = points[n]
                n, i = n - 1 + x - lo - marked.count(1, x & -128, x), x >> 7
                while i:
                    n -= tree[i]
                    i &= i - 1
                detail.append(n)
                marked[x] = 1
                i = (x >> 7) + 1
                while i < top:
                    tree[i] += 1
                    i += i & -i
            steps.append(Step(ORBIT_REMOVAL, degree, order, tuple(detail)))
            degree -= orbits[lo].size
            lo += 1
        if lo == k - 1:
            orbits = orbits[lo:]
            break
        zel = _zel_factors(orbits, witness, found, lo)
        orbits = orbits[lo:]
        sizes = [o.size for o in orbits]
        if _order(orbits, tuple({i: f} for i, f in enumerate(zel) if f < sizes[i])) != order:
            steps.append(Step(ZEL_NOT_INSIDE, degree, order))
            return False
        blocks = sorted(
            (min(o.points[b::f]), i, b) for i, (o, f) in enumerate(zip(orbits, zel)) for b in range(f)
        )
        steps.append(Step(ZEL_REDUCE, degree, order, tuple(sizes[i] // zel[i] for _, i, _ in blocks)))
        labels = [[0] * f for f in zel]
        for label, (_, i, b) in enumerate(blocks):
            labels[i][b] = label
        for q, f in zip(sizes, zel):
            order //= q // f
        orbits = [_Orbit(f, pts, [v % f for v in o.shifts]) for o, f, pts in zip(orbits, zel, labels)]
        degree = len(blocks)
    steps.append(Step(TRANSITIVE_BASE, degree, order))
    return True


def decide_2_closed(group: PermGroup) -> tuple[bool, ReductionTrace]:
    """Decide whether the group equals its own pair-orbit closure.

    Raises PreconditionFailed unless every transitive constituent is
    cyclic.  The input is validated once: a Sylow part, the action on
    the orbits of zel(G) and an orbit removal all keep constituents
    cyclic, so no group further down the chain needs the check again.
    Returns the verdict together with the step-by-step trace.
    """
    orbits = _coordinates(group)
    order = _order(orbits)
    steps: list[Step] = [Step(VALIDATE, group.degree, order)]
    parts = [(orbits, order)]
    primes = prime_factors(order)
    if len(orbits) != 1 and len(primes) != 1:
        steps.append(Step(SYLOW_SPLIT, group.degree, order, primes))
        parts = ((_sylow_part(orbits, p), _p_part(order, p)) for p in primes)
    # closed iff every part is; the first failing part settles it
    for part, part_order in parts:
        if not _chain(part, part_order, steps):
            return False, ReductionTrace(tuple(steps), False)
    return True, ReductionTrace(tuple(steps), True)


def zel(group: PermGroup) -> PermGroup:
    """The product over orbits D of the intersections of the groups
    induced on D by the pointwise stabilizers of the other orbits.

    The factor on D is generated by c^f_D, for the generator c that
    numbers D's coordinates, so |zel(G)| = prod |D| / f_D; one generator
    per nontrivial factor, in order of minimal point.  Raises
    PreconditionFailed outside the class, and ValueError for fewer than
    two orbits, where the intersection would be empty and no convention
    is assumed for it.
    """
    orbits = _coordinates(group)
    if len(orbits) < 2:
        raise ValueError(f"zel needs at least two orbits, got {len(orbits)}; "
                         "not defined for transitive groups")
    # the residue classes of an orbit's coordinates mod f_D are the cycles of c^f_D
    gens = [Permutation._unchecked_cycles(group.degree, [o.points[b::f] for b in range(f)])
            for o, f in zip(orbits, _zel_factors(orbits, *_witness_scan(orbits), 0)) if f < o.size]
    return PermGroup(group.degree, gens)
