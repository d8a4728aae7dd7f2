"""Inductive decision procedure for 2-closedness, with a full trace.

Scope: permutation groups all of whose transitive constituents are
cyclic (which forces the group to be abelian).  The procedure never
computes the closure (two_closure does, from the same coordinates, in
_pairwise_closure); it only shrinks the instance until a base case
answers, recording one step per move:

  Validate        precondition check on the input
  TransitiveBase  transitive (or empty) group: closed, stop
  SylowSplit      composite order: closed iff every Sylow part is
  ZelNotInside    zel(G) does not lie inside G: not closed, stop
  ZelReduce       zel(G) lies inside G: pass to the action on its orbits
  OrbitRemoval    zel(G) trivial: delete the orbit of the minimal point

Every reduction strictly decreases the degree, so a chain ends after at
most ``degree`` steps.

No group element is ever enumerated.  A cyclic transitive constituent on an
orbit D is regular, so a generator c of it, picked in _coordinates, numbers
the points of D as base, base^c, base^(c^2), ... and every element of G
shifts these coordinates by one residue mod |D|.  G is thus a subgroup of
the product of the Z_|D|, spanned by one integer shift vector per generator,
and each step of the chain is integer arithmetic on those vectors:

  |G|          prod |D| / prod of the echelon pivots of the lattice spanned
               by the shift vectors and the vectors |D| e_D
  Sylow part   shifts mod the p-part p^a of |D|; the orbit D splits into
               |D| / p^a cosets, all shifted alike
  zel factor   on D, generated by c^f_D for the constituent generator c,
               f_D = lcm over D' != D of the index of the shifts on D of
               the elements fixing D' pointwise, read off hashed rows (_keys)
  zel <= G     not if |zel| = prod |D| / f_D exceeds |G|; if equal, iff each
               shift on D is a multiple of f_D; else iff adding the vectors
               f_D e_D to the lattice keeps |G|
  ZelReduce    coordinate D taken mod f_D; |G| drops by prod |D| / f_D
  OrbitRemoval coordinate D dropped; |G| stays, since a trivial zel
               leaves no element that fixes every other orbit

The vectors are held by orbit and sparse: _Coordinates keeps parallel
lists, indexed by orbit of size > 1 in order of minimal point, of the
sizes, the points in coordinate order (so the steps report the orbits of
the group they describe) and the rows, each orbit's nonzero shifts as
ascending (generator, shift) pairs, equal rows sharing one tuple; and
apart, as fixed, the fixed points in ascending order, which have no
coordinate, so that a Sylow part costs no Python work per point it
fixes beyond the step removing it.  They are read off perm._cycle_orbits,
each orbit as its cycles' ids, in O(n) in C plus O(sum of |supp g|) in
Python.  The witness scan (the chain's and zel()'s) and the closure read
one index from keys to the orbits holding them (_holders): one _keys per
distinct (size, row), then O(log |D|) steps per orbit.
"""

from __future__ import annotations

import math
from bisect import bisect
from functools import lru_cache
from itertools import accumulate, chain, compress, groupby, repeat
from operator import not_
from typing import Iterable, NamedTuple

from .perm import PermGroup, Permutation, _cycle_orbits, prime_factors

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


class _Coordinates(NamedTuple):
    """A group's orbits in coordinates (see the module docstring)."""

    sizes: list[int]
    points: list[tuple[int, ...]]
    rows: list[tuple[tuple[int, int], ...]]
    fixed: list[int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return a, s0, t0


@lru_cache(maxsize=None)
def _prime_parts(q: int) -> tuple[tuple[int, int], ...]:
    """(p, p^a) for each prime p dividing q, p^a the p-part of q."""
    return tuple((p, math.gcd(q, p ** q.bit_length())) for p in prime_factors(q))


def _coordinates(group: PermGroup) -> _Coordinates:
    """The orbits in coordinates, in order of minimal point.

    Every orbit of _cycle_orbits is walked along its constituent
    generator c: the product, over the primes p dividing its size q, of
    the p-part of the first generator whose cycle through the minimal
    point carries the full p-part p^a of q.  So if q is a prime power,
    the walk is the first q-cycle on the orbit; else _product_walk
    composes c from the cycles.  The orbit is cyclic exactly when every
    generator moving it shifts that walk, and the first orbit, by
    minimal point, that is not raises PreconditionFailed.
    """
    cycles, movers, orbits, fixed = _cycle_orbits(group)
    walks, rows, seen = [], [], {}
    for ids in orbits:
        if len(ids) == 1 and len(_prime_parts(len(cycles[ids[0]]))) == 1:  # a lone cycle of prime-power size is c
            walk, row = cycles[ids[0]], ((movers[ids[0]], 1),)
        else:
            points = {*chain.from_iterable(map(cycles.__getitem__, ids))}
            q, base, shifts = len(points), min(points), dict.fromkeys(map(movers.__getitem__, ids))
            if len(_prime_parts(q)) > 1:  # each mover's cycles on the orbit, by mover
                own = [[*map(cycles.__getitem__, cs)] for _, cs in groupby(ids, movers.__getitem__)]
                walk = _product_walk(base, points, own)
            else:  # c is the first mover that is a q-cycle; with none, no walk covers the orbit
                walk = next((cycles[c] for c in ids if len(cycles[c]) == q), (base,))
            for h in shifts:
                images = group.generators[h].images
                v = shifts[h] = walk.index(images[base]) if len(walk) == q else 0
                if not v or tuple(map(images.__getitem__, walk)) != walk[v:] + walk[:v]:
                    raise PreconditionFailed(f"the constituent on the orbit of {base} is not cyclic")
            row = tuple(shifts.items())
        walks.append(walk)
        rows.append(seen.setdefault(row, row))
    return _Coordinates([*map(len, walks)], walks, rows, fixed)


def _product_walk(base: int, points: set[int], movers: list[list[tuple[int, ...]]]) -> tuple[int, ...]:
    """The walk from base of c on an orbit of composite size, from each
    mover's cycles on it, by mover: per prime p, c takes h^(L/p^a)
    for the first mover h whose first cycle, through base if h moves it,
    has a length L that the p-part p^a divides."""
    q, c = len(points), {x: x for x in points}
    for p, pa in _prime_parts(q):
        for own in movers:
            if own[0][0] == base and len(own[0]) % pa == 0:
                e, power = len(own[0]) // pa, {}
                for cycle in own:  # all of length L, or the orbit fails the check after
                    power.update(zip(cycle, cycle[e:] + cycle[:e]))
                c = {x: power.get(y, y) for x, y in c.items()}
                break
    walk = [base]
    while c[walk[-1]] != base:
        walk.append(c[walk[-1]])
    return tuple(walk)


def _echelon(sizes: list[int], rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The pivot rows, by column, of the lattice the rows and the |D_j| e_j span.

    Rows are sparse, column -> nonzero residue, and wait in a bucket for
    their first column.  Column by column, an extended gcd folds the rows
    of that bucket, and the vector |D_j| e_j, into one pivot row; what a
    row leaves over goes to the bucket of its next column.  A column no
    row waits for gets no pivot row: its pivot is |D_j| e_j itself.
    """
    waiting, pivots = {}, {}
    for row in rows:
        waiting.setdefault(min(row), []).append(row)
    for j in filter(waiting.__contains__, range(len(sizes))):
        pivot = {j: sizes[j]}
        for row in waiting.pop(j):
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
        pivots[j] = pivot
    return pivots


def _order(coords: _Coordinates, extra: tuple[dict[int, int], ...] = ()) -> int:
    """Order of the group spanned by the generators' shifts and the extra
    rows: prod |D_j| / pivot_j over the pivot rows of their echelon."""
    sizes, rows = coords.sizes, {}  # rows: generator -> its row, ascending in column
    for d, row in enumerate(coords.rows):
        for h, v in row:
            rows.setdefault(h, {})[d] = v
    return math.prod(sizes[j] // pivot[j] for j, pivot in _echelon(sizes, (*rows.values(), *extra)).items())


def _sylow_part(coords: _Coordinates, p: int) -> _Coordinates:
    """The orbits of the Sylow p-part, in order of minimal point.

    An orbit of size q = p^a r splits into the r cosets of r Z_q.  The
    p-part acts on each coset as Z_(p^a), shifting by the residue mod p^a
    of the whole group's shift (Chinese remainder theorem); the point at
    coordinate s of coset j is the one at j + r (s r^-1 mod p^a) in D.
    An orbit whose size p does not divide is fixed pointwise, and those
    are passed over in C.
    """
    part, rests = [], [*map(p.__rmod__, coords.sizes)]  # q % p, zero where p divides q
    fixed = sorted(chain(coords.fixed, *compress(coords.points, rests)))
    for q, points, row in compress(zip(coords.sizes, coords.points, coords.rows), map(not_, rests)):
        pa = math.gcd(q, p ** q.bit_length())
        if pa == q:  # the orbit itself, walked from its minimal point
            part.append((points[0], q, points, row))
            continue
        r, unit = q // pa, pow(q // pa, -1, pa)
        row = tuple((h, v % pa) for h, v in row if v % pa)
        for j in range(r):
            coset = tuple(points[j + r * (s * unit % pa)] for s in range(pa))
            part.append((min(coset), pa, coset, row))
    part.sort()  # minimal points are distinct, so they alone decide the order
    return _Coordinates(*([o[i] for o in part] for i in range(1, 4)), fixed)


def _keys(q: int, row: tuple[tuple[int, int], ...]) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """For each p^t > 1 dividing q, by p and then t, the key (p^t, the
    row times s^-1 mod p^t, zeros dropped), s the row's first shift prime
    to p.  Two orbits hold one key iff their rows agree mod p^t up to a
    unit, their projection then the graph of x' = (s'/s) x mod p^t; so
    the p-part of the index in Z_|D| of the shifts on D of the elements
    fixing D' pointwise is p^t for the deepest key both hold (the second
    determinantal divisor of the two columns; Cohen, GTM 138, 2.4).
    """
    keys = []
    for p, pa in _prime_parts(q):
        if len(row) == 1:  # its one shift is a unit
            scaled = (row[0][0], 1),
        else:
            unit = pow(next(v for _, v in row if v % p), -1, pa)
            scaled = [(h, v * unit % pa) for h, v in row]
        pt = p
        while pt <= pa:
            keys.append((pt, scaled if len(row) == 1 else tuple((h, v % pt) for h, v in scaled if v % pt)))
            pt *= p
    return keys


def _holders(coords: _Coordinates) -> list[list[tuple[int, list[int]]]]:
    """For each orbit, the pairs (p^t, the orbits holding its key at p^t,
    ascending); _keys runs once per (size, row)."""
    memo, lists, held = {}, {}, []
    for d, shape in enumerate(zip(coords.sizes, coords.rows)):
        on = memo.get(shape)
        if on is None:
            on = memo[shape] = [(key[0], lists.setdefault(key, [])) for key in _keys(*shape)]
        for _, ds in on:
            ds.append(d)
        held.append(on)
    return held


def _witness_scan(coords: _Coordinates) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """For each orbit D, its last witness, or -1, and a pair (j, p^t) for
    each other depth p^t whose last other holder j of D's key comes after
    that witness.  A witness holds D's key at |D|, a prime power, so its
    pointwise stabilizer fixes D."""
    witness, found = [], []
    for d, (q, held) in enumerate(zip(coords.sizes, _holders(coords))):
        w, pairs = -1, []
        for pt, on in reversed(held):  # deepest first
            j = on[-1] if on[-1] != d else on[-2] if len(on) > 1 else -1
            if pt == q:
                w = j
            elif j > w:
                pairs.append((j, pt))
        witness.append(w)
        found.append(pairs or ())  # no empty list kept per orbit
    return witness, found


def _zel_factors(coords: _Coordinates, witness: list[int], found: list, lo: int) -> list[int]:
    """f_D for each orbit D from lo on, once the orbits below lo are gone:
    |D| if a witness of D is left, else the lcm of the indices of the
    orbits left."""
    return [q if w >= lo else math.lcm(*(h for j, h in pairs if j >= lo))
            for q, w, pairs in zip(coords.sizes[lo:], witness[lo:], found[lo:])]


def _zel_inside(coords: _Coordinates, zel: list[int], order: int) -> bool:
    """Whether zel(G) <= G, for G of the given order and the factors f_D
    (see the module docstring): the echelon runs only if |zel(G)| < |G|."""
    size = math.prod(q // f for q, f in zip(coords.sizes, zel))
    if size == order:
        return all(v % f == 0 for row, f in zip(coords.rows, zel) for _, v in row)
    return size < order and _order(coords, tuple({i: f} for i, f in enumerate(zel) if f < coords.sizes[i])) == order


def _fixed_removals(degree: int, count: int, order: int) -> Iterable[Step]:
    """The steps removing count fixed points in turn, from the given degree."""
    return map(tuple.__new__, repeat(Step),  # the kind is known, so Step's check is skipped
               zip(repeat(ORBIT_REMOVAL), range(degree, degree - count, -1), repeat(order), repeat((0,))))


def _chain(coords: _Coordinates, order: int, steps: list[Step]) -> bool:
    """Reduce one p-group to its base case, appending the steps taken.

    Every orbit size is a power of p, so the zel factor on an orbit D is
    trivial exactly when D has a witness, an orbit holding D's key at |D|
    (see _witness_scan).  Orbit removal removes orbits in order of
    minimal point, so the last other holder of D's key at each depth,
    read once per round, says how long f_D stays that deep: the last
    witness, how long the factor stays trivial.  A fixed point never
    stops a run and its removal is (0,), so a run removes, by bisecting
    fixed, the fixed points below each orbit it removes just before it.
    Labels are relabelled only at ZelReduce, where a fixed point is a
    block of size 1 and an orbit with f_D = 1 joins fixed; in between, a
    point's label is its label then minus the removed points below it,
    counted in O(log n): a bytearray marks removed labels and is counted
    inside a block of 128 labels, and a Fenwick tree sums the counts of
    the blocks below.  If G is the product of its constituents, zel(G) =
    G and the chain ends in closed form: ZelReduce, then a trivial group
    whose fixed points are removed in turn.

    Returns False when the chain ends in ZelNotInside.
    """
    degree = sum(coords.sizes) + len(coords.fixed)
    while len(coords.sizes) + len(coords.fixed) > 1:
        sizes, points, rows, fixed = coords
        k = len(sizes)
        if k < order.bit_length() and order == math.prod(sizes):  # as 2^k <= prod |D|
            detail = [1] * (k + len(fixed))  # G is the product of its constituents: zel(G) = G
            for i, pts in enumerate(points):
                detail[i + bisect(fixed, min(pts))] = sizes[i]
            if k:
                steps.append(Step(ZEL_REDUCE, degree, order, tuple(detail)))
            steps += _fixed_removals(len(detail), len(detail) - 1, 1)
            degree = order = 1
            break
        witness, found = _witness_scan(coords)
        lowest = list(accumulate(reversed(witness), min))[::-1]  # lowest[i] = min(witness[i:])
        # The minimal point of orbit lo is the least label left, so its new
        # label is 0 and the labels below it are those of the lo orbits and
        # gone fixed points removed before.  So only the other points of
        # removed orbits are marked, and a point's new label is its label
        # minus lo, gone and the marks below it.  Orbit lo's points are marked
        # as they are counted, ascending, so the n-th finds n - 1 marked.
        marked, tree = bytearray(degree), [0] * ((degree >> 7) + 2)
        top, lo, gone = len(tree), 0, 0
        while lowest[lo] >= lo:  # never at k - 1: every other holder of its keys comes before it
            removed = sorted(points[lo])
            if gone < len(fixed) and fixed[gone] < removed[0]:
                below = bisect(fixed, removed[0], gone) - gone
                steps += _fixed_removals(degree, below, order)
                degree, gone = degree - below, gone + below
            detail, skip = [0], lo + gone
            for n in range(1, len(removed)):
                x = removed[n]
                n, i = n - 1 + x - skip - marked.count(1, x & -128, x), x >> 7
                while i:
                    n -= tree[i]
                    i &= i - 1
                detail.append(n)
                marked[x] = 1
                i = (x >> 7) + 1
                while i < top:
                    tree[i] += 1
                    i += i & -i
            steps.append(tuple.__new__(Step, (ORBIT_REMOVAL, degree, order, tuple(detail))))  # known kind, unchecked
            degree -= sizes[lo]
            lo += 1
        if lo == k - 1 and gone == len(fixed):
            break
        zel = _zel_factors(coords, witness, found, lo)
        sizes, points, rows, fixed = coords = _Coordinates(sizes[lo:], points[lo:], rows[lo:], fixed[gone:])
        if not _zel_inside(coords, zel, order):
            steps.append(Step(ZEL_NOT_INSIDE, degree, order))
            return False
        blocks = sorted((min(pts[b::f]), i, b)
                        for i, (pts, f) in enumerate(zip(points, zel)) for b in range(f))
        n = len(blocks) + len(fixed)
        labels, detail, moved = [[0] * f for f in zel], [1] * n, bytearray(n)
        for label, (x, i, b) in enumerate(blocks):
            label += bisect(fixed, x)
            labels[i][b], detail[label], moved[label] = label, sizes[i] // zel[i], zel[i] > 1
        steps.append(Step(ZEL_REDUCE, degree, order, tuple(detail)))
        order //= math.prod(q // f for q, f in zip(sizes, zel))
        degree, kept = n, [*map((1).__lt__, zel)]
        coords = _Coordinates([*compress(zel, kept)], [*map(tuple, compress(labels, kept))],
                              [tuple((h, v % f) for h, v in row if v % f) for row, f in compress(zip(rows, zel), kept)],
                              [*compress(range(n), map(not_, moved))])
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
    coords = _coordinates(group)
    order = _order(coords)
    steps: list[Step] = [Step(VALIDATE, group.degree, order)]
    parts = [(coords, order)]
    primes = prime_factors(order)
    if len(coords.sizes) + len(coords.fixed) != 1 and len(primes) != 1:
        steps.append(Step(SYLOW_SPLIT, group.degree, order, primes))
        parts = ((_sylow_part(coords, p), math.gcd(order, p ** order.bit_length())) for p in primes)
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
    coords = _coordinates(group)
    if (orbits := len(coords.sizes) + len(coords.fixed)) < 2:
        raise ValueError(f"zel needs at least two orbits, got {orbits}; "
                         "not defined for transitive groups")
    gens = [Permutation._shifting(group.degree, [(pts, f)])  # c^f_D shifts D's walk by f_D
            for q, pts, f in zip(coords.sizes, coords.points, _zel_factors(coords, *_witness_scan(coords), 0)) if f < q]
    return PermGroup(group.degree, gens)


def _pairwise_closure(group: PermGroup) -> PermGroup:
    """The 2-closure of a group in the class, from its coordinates.

    Every constituent is regular, so the closure is the x in the product
    of the Z_|D| whose projection on each pair of orbits lies in the
    group's (Wielandt, 1969): per prime p, x_D / s_D = x_E / s_E mod p^t
    for two holders of one key at p^t (see _keys).  Linking each holder
    to the key's first implies the rest, and the deepest key held before
    D, at p^T, the shallower ones: so D links to that key's first holder
    E by x_D = (s_D / s_E) x_E mod p^T, a forest whose depth T drops
    along every path.  A D with p^T below the p-part of |D| gets one
    generator, p^T times the CRT idempotent of p on D down D's subtree,
    summed over such p.  It is zero on the orbits before D: a strong
    generating set for the base 0..n-1, as an element fixing a point of
    a regular orbit fixes the orbit.  PreconditionFailed outside the class.
    """
    sizes, points, rows, _ = coords = _coordinates(group)
    tops, links = {}, {}  # links[p, E]: (D, the link times the idempotent of p on D)
    for d, (q, row, held) in enumerate(zip(sizes, rows, _holders(coords))):
        for p, pa in _prime_parts(q):
            idempotent, pt, e = q // pa * pow(q // pa, -1, pa), 1, d
            for depth, on in held:  # ascending in depth: the last one held before is the deepest
                if pa % depth == 0 and on[0] < d:
                    pt, e = depth, on[0]
            if pt > 1:
                unit = pow(next(v for _, v in rows[e] if v % p), -1, pt) * next(v for _, v in row if v % p)
                links.setdefault((p, e), []).append((d, unit % pt * idempotent))
            if pt < pa:
                tops.setdefault(d, []).append((p, pt * idempotent))
    gens = []
    for d, top in tops.items():
        x, stack = {}, [(d, p, v) for p, v in top]
        while stack:
            e, p, v = stack.pop()
            x[e] = (x.get(e, 0) + v) % sizes[e]
            stack += ((f, p, u * v % sizes[f]) for f, u in links.get((p, e), ()))
        gens.append(Permutation._shifting(group.degree, zip(map(points.__getitem__, x), x.values())))
    return PermGroup(group.degree, gens)
