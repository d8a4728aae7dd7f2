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
  zel factor   on D, the subgroup of index f_D = lcm over D' != D of the
               index of the shifts on D of the elements fixing D'
               pointwise (a two-column echelon)
  zel <= G     adding the vectors f_D e_D to the lattice keeps |G|
  ZelReduce    coordinate D taken mod f_D; |G| drops by prod |D| / f_D
  OrbitRemoval coordinate D dropped; |G| stays, since a trivial zel
               leaves no element that fixes every other orbit

Point labels are kept per coordinate, so the steps report the same
orbits and sizes as the group they describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import SearchLimits, is_2_closed_oracle
from .perm import PermGroup, prime_factors

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


@dataclass(frozen=True)
class Step:
    """One move of the procedure, with the degree and order of the group it saw.

    ``detail`` depends on the kind: the prime list for SylowSplit, the
    orbit sizes of zel(G) for ZelReduce, the removed orbit's points for
    OrbitRemoval, empty otherwise.
    """

    kind: str
    degree: int
    order: int
    detail: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Step, ...]
    verdict: bool


class _Orbit:
    """One orbit in coordinates.

    ``points[c]`` is the label of the point at coordinate c, and
    ``shifts[i]`` is the residue mod ``size`` by which generator i moves
    every coordinate.
    """

    __slots__ = ("size", "points", "shifts")

    def __init__(self, size: int, points: list[int], shifts: list[int]):
        self.size = size
        self.points = points
        self.shifts = shifts


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


def _coordinates(group: PermGroup) -> list[_Orbit]:
    """The orbits in coordinates, in order of minimal point.

    The constituent generator c on an orbit is the product, over the
    primes p dividing the orbit size, of the p-part of a restricted
    generator whose cycles carry the full p-part p^a of the size.  The
    constituent is cyclic exactly when the powers of c reach the whole
    orbit from its minimal point and every generator shifts them;
    otherwise PreconditionFailed is raised.  (A cyclic constituent is
    regular, so all cycles of a generator on the orbit have one length.)
    """
    gens = [g.images for g in group.generators]
    coord = [0] * group.degree
    orbits = []
    for cls in group.orbits().classes:
        q, base = len(cls), cls[0]
        c = {x: x for x in cls}
        for p in prime_factors(q):
            pa = _p_part(q, p)
            for images in gens:
                cycles, seen = [], set()
                for x in cls:
                    if x not in seen:
                        cycle = [x]
                        while images[cycle[-1]] != x:
                            cycle.append(images[cycle[-1]])
                        seen.update(cycle)
                        cycles.append(cycle)
                if len(cycles[0]) % pa == 0:
                    e = len(cycles[0]) // pa
                    power = {x: cycle[(j + e) % len(cycle)] for cycle in cycles for j, x in enumerate(cycle)}
                    c = {x: power[y] for x, y in c.items()}
                    break
        points = [base]
        while c[points[-1]] != base:
            points.append(c[points[-1]])
        for i, x in enumerate(points):
            coord[x] = i
        shifts = [coord[images[base]] for images in gens]
        if len(points) != q or any(
            [images[x] for x in points] != points[v:] + points[:v]
            for images, v in zip(gens, shifts)
        ):
            raise PreconditionFailed(f"the constituent on the orbit of {base} is not cyclic")
        orbits.append(_Orbit(q, points, shifts))
    return orbits


def _order(orbits: list[_Orbit], extra: tuple[dict[int, int], ...] = ()) -> int:
    """Order of the group spanned by the shift vectors and the extra rows.

    Rows are sparse, column -> nonzero residue.  Column by column, an
    extended gcd folds every row with an entry there, and the vector
    |D_j| e_j, into one pivot row; the order is prod |D_j| / pivot_j.
    """
    sizes = [o.size for o in orbits]
    rows = [{j: v for j, v in enumerate(vec) if v} for vec in zip(*(o.shifts for o in orbits))]
    rows += extra
    order = 1
    for j, q in enumerate(sizes):
        pivot, rest = {j: q}, []
        for row in rows:
            if j not in row:
                rest.append(row)
                continue
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
                rest.append(killed)
        order = order * q // pivot[j]
        rows = rest
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

    A two-column echelon over the generators: (x, y) is the pivot row on
    b's column, and h generates the first coordinates of the lattice
    vectors whose b-coordinate is zero.
    """
    h, x, y = a.size, 0, b.size
    for s, t in zip(a.shifts, b.shifts):
        if not (s or t):
            continue
        g, u, w = _xgcd(y, t)
        h = _xgcd(h, ((t // g) * x - (y // g) * s) % h)[0]
        x, y = (u * x + w * s) % a.size, g
    return h


def _chain(orbits: list[_Orbit], order: int, steps: list[Step]) -> bool:
    """Reduce one p-group to its base case, appending the steps taken.

    Every orbit size is a power of p, so the zel factor on an orbit D is
    trivial exactly when some other orbit D' is a witness: the elements
    fixing D' pointwise also fix D.  Orbit removal leaves every witness a
    witness and removes orbits in order of minimal point, so the last
    witness of each orbit, found once, says for how long its zel factor
    stays trivial.  Labels are relabelled only at ZelReduce; in between,
    a point's label is its label at the last relabelling minus the number
    of removed points below it (kept in a Fenwick tree).

    Returns False when the chain ends in ZelNotInside.
    """
    degree = sum(o.size for o in orbits)
    while len(orbits) > 1:
        k = len(orbits)
        witness = [
            next((j for j in range(k - 1, -1, -1) if j != i and _index(o, orbits[j]) == o.size), -1)
            for i, o in enumerate(orbits)
        ]
        lowest = witness[:]
        for i in range(k - 2, -1, -1):  # lowest[i] = min(witness[i:])
            lowest[i] = min(lowest[i], lowest[i + 1])
        below = [0] * (degree + 1)
        lo = 0
        while lo < k - 1 and lowest[lo] >= lo:
            removed = sorted(orbits[lo].points)
            detail = []
            for x in removed:
                n, i = x, x
                while i:
                    n -= below[i]
                    i &= i - 1
                detail.append(n)
            steps.append(Step(ORBIT_REMOVAL, degree, order, tuple(detail)))
            for x in removed:
                i = x + 1
                while i < len(below):
                    below[i] += 1
                    i += i & -i
            degree -= orbits[lo].size
            lo += 1
        if lo == k - 1:
            orbits = orbits[lo:]
            break
        # the index f_D of the zel factor on each orbit D left
        zel = [
            orbits[i].size if witness[i] >= lo
            else max(_index(orbits[i], orbits[j]) for j in range(lo, k) if j != i)
            for i in range(lo, k)
        ]
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


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side verdicts of the decision procedure and the search oracle."""

    decided: bool
    oracle: bool
    trace: ReductionTrace
    mismatch: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mismatch", self.decided != self.oracle)


def decide_with_oracle_check(
    group: PermGroup,
    limits: SearchLimits = SearchLimits(),
) -> OracleReport:
    """Run the procedure and the brute-force oracle; a mismatch means a bug."""
    decided, trace = decide_2_closed(group)
    return OracleReport(decided, is_2_closed_oracle(group, limits), trace)
