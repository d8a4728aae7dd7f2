import math
import random
import re
import sys
from heapq import merge
from itertools import compress
from operator import ne

import pytest
from hypothesis import strategies as st

from twoclosure import PermGroup, Permutation, random_abelian_cyclic
from twoclosure.groupfile import MAX_DEGREE, InvalidPermutation, ParseError
from twoclosure.decider import (
    ORBIT_REMOVAL,
    SYLOW_SPLIT,
    TRANSITIVE_BASE,
    VALIDATE,
    ZEL_NOT_INSIDE,
    ZEL_REDUCE,
    PreconditionFailed,
    ReductionTrace,
    Step,
    _Coordinates,
    _coordinates,
    _echelon,
    _prime_parts,
    _product_walk,
    _xgcd,
)
from twoclosure.perm import prime_factors
from twoclosure.reduction import remove_orbit, sylow_decomposition


def permutations(degree):
    return st.permutations(tuple(range(degree))).map(
        lambda xs: Permutation(tuple(xs))
    )


def perm_groups(max_degree=5, max_gens=2):
    """Arbitrary small groups; element counts stay enumeration-friendly."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(permutations(n), min_size=0, max_size=max_gens).map(
            lambda gs: PermGroup(n, gs)
        )
    )


def abelian_instances(max_degree=10):
    """Seeded block-shift groups: abelian, cyclic constituents."""
    return st.integers(0, 10_000).map(lambda s: random_abelian_cyclic(s, max_degree))


def random_coupled_blocks(seed, max_degree=14):
    """A seeded instance built to be not 2-closed about a third of the time.

    Blocks of size p, p^2, p*q or q (p in {2, 3}, q a second prime in
    about a third of the instances), at most max_degree // 3 points
    each, are each shifted by a random nonzero vector of residues, one
    per generator.  Random vectors make the orbit
    kernels pairwise distinct, as in fixture_example1; residues that are
    not units split a block into several orbits; a block that reuses an
    earlier block's vector is a diagonal gluing.  The points are then
    relabelled at random.
    """
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    q = rng.choice([x for x in (2, 3, 5) if x != p]) if rng.random() < 0.3 else 1
    sizes = [s for s in (p, p * p, p * q, q) if 1 < s <= max(p, max_degree // 3)]
    rank = rng.choice((2, 2, 3))
    blocks, total = [], 0
    while True:
        pool = [s for s in sizes if total + s <= max_degree]
        if not pool or (len(blocks) >= 3 and rng.random() < 0.4):
            break
        size = rng.choice(pool)
        same = [vec for s, vec in blocks if s == size]
        if same and rng.random() < 0.25:
            vec = rng.choice(same)
        else:
            vec = [0] * rank
            while not any(vec):
                vec = [rng.randrange(size) for _ in range(rank)]
        blocks.append((size, vec))
        total += size
    sigma = list(range(total))
    rng.shuffle(sigma)
    gens = []
    for i in range(rank):
        images = [0] * total
        start = 0
        for size, vec in blocks:
            for x in range(size):
                images[sigma[start + x]] = sigma[start + (x + vec[i]) % size]
            start += size
        gens.append(Permutation(tuple(images)))
    return PermGroup(total, gens)


def reference_zel(group):
    """zel(G) by enumeration, as the library computed it before its
    coordinate form: the product over orbits D of the intersections of
    the element sets induced on D by the pointwise stabilizers of the
    other orbits, each factor lifted back by the identity elsewhere.
    """
    classes = group.orbits().classes
    if len(classes) < 2:
        raise ValueError("zel is not defined for transitive groups")
    gens = []
    for cls in classes:
        factor = None
        for other in classes:
            if other == cls:
                continue
            els = group.pointwise_stabilizer(other).restriction(cls).elements()
            factor = els if factor is None else factor & els
            if len(factor) == 1:
                break
        for f in factor:
            images = list(range(group.degree))
            for i, x in enumerate(cls):
                images[x] = cls[f.images[i]]
            gens.append(Permutation(tuple(images)))
    return PermGroup(group.degree, gens)


def reference_coordinates(group):
    """decider._coordinates as the library computed it before it walked
    the generators' cycles: the orbits from PermGroup.orbits, then each
    orbit walked again along its movers, in order of minimal point."""
    n, gens = group.degree, [g.images for g in group.generators]
    part = group.orbits()
    first, more = [-1] * len(part.classes), {}
    orbit_of = part.point_to_class.__getitem__
    for h, images in enumerate(gens):
        for d in set(map(orbit_of, compress(range(n), map(ne, images, range(n))))):
            if first[d] < 0:
                first[d] = h
            else:
                more.setdefault(d, [first[d]]).append(h)
    sizes, walks, rows, seen = [], [], [], {}
    for d, cls in enumerate(part.classes):
        q, base = len(cls), cls[0]
        sup = more.get(d) or ([first[d]] if first[d] >= 0 else [])
        shifts = dict.fromkeys(sup, 0)
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
            for v in shifts.values():
                length = q // math.gcd(v, q)
                if length % pa == 0:
                    s += v * (length // pa)
                    break
        row = tuple(shifts.items())
        if q > 1 and s % q != 1:
            unit = pow(s, -1, q)
            walk = [walk[s * i % q] for i in range(q)]
            row = tuple((h, v * unit % q) for h, v in row)
        sizes.append(q)
        walks.append(tuple(walk))
        rows.append(seen.setdefault(row, row))
    return _Coordinates(sizes, walks, rows)


def reference_index(a, b):
    """decider._index as the library computed it before it hashed rows:
    (h, x), h the index in Z_|a| of the shifts on orbit a of the elements
    that fix orbit b pointwise, for two orbit shapes (size, row), from a
    two-column echelon; (1, x) and (0, h) generate the shifts on (b, a)."""
    (qa, ra), (qb, rb) = a, b
    h, x, y, on_b = qa, 0, qb, dict(rb)
    for s, t in (*((s, on_b.pop(i, 0)) for i, s in ra), *((0, t) for t in on_b.values())):
        g, u, w = _xgcd(y, t)
        h = math.gcd(h, ((t // g) * x - (y // g) * s) % h)
        if h == 1:
            return 1, x
        x, y = (u * x + w * s) % qa, g
    return h, x


def _reference_movers(rows):
    movers = {}
    for d, row in enumerate(rows):
        for h, _ in row:
            movers.setdefault(h, []).append(d)
    return movers


def reference_witness_scan(coords):
    """decider._witness_scan as the library computed it before it hashed
    rows: for each orbit, from the top down over the orbits that share a
    generator with it, reference_index until the first witness (index
    |D|), keeping the (j, index) pairs of index above 1 on the way."""
    shapes = list(zip(coords.sizes, coords.rows))
    k, movers = len(shapes), _reference_movers(coords.rows)
    witness, found = [], []
    for i, (q, row) in enumerate(shapes):
        w, pairs, last = -1, [], i
        if q == 1:
            w, below = k - 1 if i < k - 1 else k - 2, ()
        else:
            below = merge(*(reversed(movers[h]) for h, _ in row), reverse=True)
        for j in below:
            if j == last or j == i:
                continue
            last = j
            h, _ = reference_index(shapes[i], shapes[j])
            if h == q:
                w = j
                break
            if h > 1:
                pairs.append((j, h))
        witness.append(w)
        found.append(pairs)
    return witness, found


def reference_zel_factors(coords, witness, found, lo):
    """f_D for each orbit from lo on: |D| if a witness is left, else the
    lcm of the indices of the orbits left."""
    return [q if w >= lo else math.lcm(*(h for j, h in pairs if j >= lo))
            for q, w, pairs in zip(coords.sizes[lo:], witness[lo:], found[lo:])]


def reference_pairwise_closure(group):
    """decider._pairwise_closure as the library computed it before its
    forest of keys: for each pair of orbits D < E that share a generator,
    the congruence x_E = b x_D mod c that reference_index gives, each one
    a row breaks folded in by an echelon with the residues as a first
    column of size c; the pivot rows are the generators."""
    coords = _coordinates(group)
    shapes = list(zip(coords.sizes, coords.rows))
    rows = [{d + 1: 1} for d, q in enumerate(coords.sizes) if q > 1]
    movers = _reference_movers(coords.rows).values()
    pairs = {(d, e) for ds in movers for i, d in enumerate(ds) for e in ds[i + 1:]}
    for d, e in sorted(pairs):
        c, b = reference_index(shapes[e], shapes[d])
        residues = [(row.get(e + 1, 0) - b * row.get(d + 1, 0)) % c for row in rows]
        if any(residues):
            augmented = [{0: r, **row} if r else row for r, row in zip(residues, rows)]
            rows = [pivot for j, pivot in _echelon([c, *coords.sizes], augmented).items() if j]
    gens = []
    for row in rows:
        images = list(range(group.degree))
        for col, v in row.items():
            pts = coords.points[col - 1]
            for x, y in zip(pts, pts[v:] + pts[:v]):
                images[x] = y
        gens.append(Permutation(tuple(images)))
    return PermGroup(group.degree, gens)


def reference_cycles(perm, include_fixed=False):
    """Permutation.cycles as the library walked it before it skipped the
    fixed points: every point in ascending order, each cycle from its
    minimal point, the fixed points kept on request."""
    seen = [False] * perm.degree
    out = []
    for i in range(perm.degree):
        if seen[i]:
            continue
        cycle = [i]
        seen[i] = True
        j = perm.images[i]
        while j != i:
            cycle.append(j)
            seen[j] = True
            j = perm.images[j]
        if len(cycle) > 1 or include_fixed:
            out.append(tuple(cycle))
    return tuple(out)


def reference_inverse(perm):
    """The inverse written point by point, as the library built it before
    it shifted cycles."""
    images = [0] * perm.degree
    for i, v in enumerate(perm.images):
        images[v] = i
    return Permutation(tuple(images))


def reference_power(perm, k):
    """perm ** k by repeated squaring, as the library computed it before
    it shifted each cycle by k."""
    if k < 0:
        return reference_power(reference_inverse(perm), -k)
    result = Permutation.identity(perm.degree)
    base = perm
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def reference_preserves(coloring, perm):
    """``coloring.preserves`` cell by cell: every pair (i, j) keeps its color."""
    m, im = coloring.matrix, perm.images
    return all(m[i][j] == m[im[i]][im[j]] for i in range(len(im)) for j in range(len(im)))


def reference_orb2(group):
    """orb2 as the library colored before it spread a pair only over the
    generators moving its row's or its column's orbit: every uncolored
    pair, in row-major order, seeds a color spread over all generators."""
    n = group.degree
    matrix = [[-1] * n for _ in range(n)]
    next_color = 0
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != -1:
                continue
            color = next_color
            next_color += 1
            matrix[i][j] = color
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                for g in group.generators:
                    x, y = g.images[a], g.images[b]
                    if matrix[x][y] == -1:
                        matrix[x][y] = color
                        stack.append((x, y))
    return tuple(tuple(row) for row in matrix)


def reference_automorphisms(coloring):
    """Every permutation preserving the coloring, one search leaf each, as
    the oracle found them before it searched for generators.  Points get
    their images in ascending order; a point's candidates share its
    profile (diagonal color, sorted row and column colors) and must keep
    the color of every pair with the points placed before it.
    """
    n = coloring.degree
    m = coloring.matrix
    profiles = [
        (m[i][i], tuple(sorted(m[i])), tuple(sorted(row[i] for row in m)))
        for i in range(n)
    ]
    candidates = [
        tuple(j for j in range(n) if profiles[j] == profiles[i]) for i in range(n)
    ]
    found = []
    image = [0] * n
    used = [False] * n

    def assign(k):
        if k == n:
            found.append(Permutation(tuple(image)))
            return
        for v in candidates[k]:
            if used[v] or any(m[k][t] != m[v][image[t]] or m[t][k] != m[image[t]][v]
                              for t in range(k)):
                continue
            image[k] = v
            used[v] = True
            assign(k + 1)
            used[v] = False

    assign(0)
    return frozenset(found)


def reference_color_automorphisms(coloring):
    """oracle.color_automorphisms as the library searched before it
    filtered a level's images by their prefix: one depth-first search
    started per image not yet reached or known unreachable.  Returns the
    generators and the nodes the search tried, with no degree or node
    bound.
    """
    n = coloring.degree
    m = coloring.matrix

    profiles = [
        (m[i][i], tuple(sorted(m[i])), tuple(sorted(row[i] for row in m)))
        for i in range(n)
    ]
    candidates = [
        tuple(j for j in range(n) if profiles[j] == profiles[i]) for i in range(n)
    ]
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1

    def fits(image, k, v):
        row_k, row_v = m[k], m[v]
        for t in range(k):
            it = image[t]
            if row_k[t] != row_v[it] or m[t][k] != m[it][v]:
                return False
        return True

    def extend(i, v):
        image = list(range(n))
        if not fits(image, i, v):
            return None
        image[i] = v
        used = [t < i for t in range(n)]
        used[v] = True
        next_index = [0] * n
        k = i + 1
        while k > i:
            if k == n:
                return Permutation(tuple(image))
            cands = candidates[k]
            j = next_index[k]
            if j:
                used[image[k]] = False
            while j < len(cands):
                w = cands[j]
                j += 1
                if used[w]:
                    continue
                tick()
                if fits(image, k, w):
                    break
            else:
                next_index[k] = 0
                k -= 1
                continue
            next_index[k] = j
            image[k] = w
            used[w] = True
            k += 1
        return None

    def orbit(points, gens):
        out = set(points)
        stack = list(points)
        while stack:
            x = stack.pop()
            for g in gens:
                y = g.images[x]
                if y not in out:
                    out.add(y)
                    stack.append(y)
        return out

    gens = []
    for i in reversed(range(n)):
        reached = {i}
        unreachable = set()
        for v in candidates[i]:
            if v < i:
                continue
            tick()
            if v in reached or v in unreachable:
                continue
            g = extend(i, v)
            if g is None:
                unreachable |= orbit({v}, gens)
            else:
                gens.append(g)
                reached = orbit({i}, gens)
                unreachable = orbit(unreachable, gens)
    return tuple(gens), nodes


def stack_depth():
    """Frames on the interpreter stack, this function's own included."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def witness(group, cls):
    """The first other orbit whose pointwise stabilizer fixes cls pointwise, if any."""
    return next((other for other in group.orbits().classes if other != cls
                 and group.pointwise_stabilizer(other).restriction(cls).is_trivial()), None)


def reference_decide(group):
    """The decision procedure by group enumeration, as the library ran it
    before its coordinate form: the reference the decider's traces must
    match step for step.  Finishes only where every group on the way
    enumerates under the element cap.
    """
    if not group.cyclic_constituents():
        raise PreconditionFailed("a transitive constituent is not cyclic")
    order = group.order()
    steps = [Step(VALIDATE, group.degree, order)]
    parts = (group,)
    if not group.is_transitive() and len(prime_factors(order)) != 1:
        decomposition = sylow_decomposition(group)
        steps.append(Step(SYLOW_SPLIT, group.degree, order, tuple(p for p, _ in decomposition)))
        parts = tuple(part for _, part in decomposition)
    for g in parts:
        while not g.is_transitive():
            order = g.order()
            z = reference_zel(g)
            if z.is_trivial():
                removed = g.orbits().classes[0]
                steps.append(Step(ORBIT_REMOVAL, g.degree, order, removed))
                g = remove_orbit(g, removed)
            elif z.is_subgroup_of(g):
                steps.append(Step(ZEL_REDUCE, g.degree, order, z.orbits().sizes()))
                g = g.induced_on_orbits(z)
            else:
                steps.append(Step(ZEL_NOT_INSIDE, g.degree, order))
                return False, ReductionTrace(tuple(steps), False)
        steps.append(Step(TRANSITIVE_BASE, g.degree, g.order()))
    return True, ReductionTrace(tuple(steps), True)


def reference_parse_group(text):
    """The group-file parser as the library ran it before it read a bracket
    group per regex match: one regex match and one number conversion per
    point, then Permutation.from_cycles.  The parser must return the same
    group, or raise the same error class with the same line, column and
    message, on every input.
    """
    degree = None
    generators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        word = stripped.split(None, 1)[0]
        if degree is None:
            if word != "degree":
                raise ParseError("expected 'degree N' header", lineno, indent + 1)
            m = re.fullmatch(r"\s+(\d+)\s*", stripped[len(word):])
            if not m:
                raise ParseError("expected a number after 'degree'", lineno,
                                 indent + len(word) + 1)
            _, degree = _reference_number(m.group(1), MAX_DEGREE)
            if degree is None or degree > MAX_DEGREE:
                raise ParseError(f"degree exceeds the limit {MAX_DEGREE}",
                                 lineno, indent + len(word) + m.start(1) + 1)
            continue
        if word != "gen":
            raise ParseError(f"expected 'gen', got {word!r}", lineno, indent + 1)
        generators.append(_reference_perm(line, indent + len(word), degree, lineno))
    if degree is None:
        raise ParseError("missing 'degree N' header", max(1, text.count("\n") + 1), 1)
    return PermGroup(degree, generators)


_REFERENCE_POINT = re.compile(r"\s*,?\s*(\d*)")


def _reference_number(digits, limit):
    if not digits.isascii():
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    return digits, int(digits) if len(digits) <= len(str(limit)) else None


def _reference_perm(line, pos, degree, lineno):
    seen = set()

    def skip_spaces(pos):
        while pos < len(line) and line[pos].isspace():
            pos += 1
        return pos

    def group(bracket):
        nonlocal pos
        if bracket == "(":
            close, noun, kind = ")", "point", "cycles"
        else:
            close, noun, kind = "]", "value", "image list"
        points = []
        pos += 1
        while True:
            m = _REFERENCE_POINT.match(line, pos)
            pos, digits = m.start(1), m.group(1)
            if not digits:
                if pos >= len(line):
                    raise ParseError(f"unclosed {bracket!r}", lineno, pos + 1)
                if line[pos] == close:
                    pos += 1
                    return points
                raise ParseError(f"expected a point, got {line[pos]!r}", lineno, pos + 1)
            shown, value = _reference_number(digits, degree)
            if value is None or value >= degree:
                raise InvalidPermutation(f"{noun} {shown} out of range for degree {degree}",
                                         lineno, pos + 1)
            if value in seen:
                raise InvalidPermutation(f"{noun} {value} repeated in {kind}", lineno, pos + 1)
            seen.add(value)
            points.append(value)
            pos = m.end()

    pos = skip_spaces(pos)
    if pos >= len(line):
        raise ParseError("missing permutation after 'gen'", lineno, pos + 1)
    bracket = line[pos]
    if bracket not in "([":
        raise ParseError(f"expected '(' or '[', got {bracket!r}", lineno, pos + 1)
    groups = [group(bracket)]
    end = pos
    pos = skip_spaces(pos)
    while bracket == "(" and pos < len(line) and line[pos] == "(":
        groups.append(group("("))
        pos = skip_spaces(pos)
    if pos < len(line):
        raise ParseError(f"unexpected trailing {line[pos]!r}", lineno, pos + 1)
    if bracket == "(":
        return Permutation.from_cycles(degree, groups)
    if len(groups[0]) != degree:
        raise InvalidPermutation(
            f"image list has {len(groups[0])} entries, expected {degree}", lineno, end)
    return Permutation(tuple(groups[0]))


@pytest.fixture(scope="session")
def sweep_pool():
    """The shared pool of random instances the validation sweeps run over."""
    return [random_abelian_cyclic(seed, 10) for seed in range(200)]


@pytest.fixture(scope="session")
def coupled_pool():
    """Instances with both verdicts and every step kind well represented."""
    return [random_coupled_blocks(seed) for seed in range(300)]
