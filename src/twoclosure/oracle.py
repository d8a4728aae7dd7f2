"""The pair-orbit closure: from coordinates in the class, else by search.

The closure of a group G is the set of ALL permutations preserving the
pair coloring of G; it is the largest group with the same orbits on
ordered pairs, and G is closed iff it equals its closure.  For a group
outside the class, two_closure searches for its generators along the
base 0, 1, ..., n-1.  At each point, the prefix before it is fixed, so
one comparison of row and column slices against that prefix rejects
most of its images at once (the first step of individualise-and-refine;
McKay and Piperno, 2014).  Each image that survives and that the
generators found so far do not already reach starts one depth-first
search for a single coloring-preserving permutation, pruned with
per-point color profiles and prefix consistency.  Its cost follows the
number of images tried, not the order of the closure.  On every input,
the search is the independent referee of the structural decision
procedure: exponential in the worst case, honest, and bounded by SearchLimits.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import PairColoring, orb2
from .decider import PreconditionFailed, _pairwise_closure
from .perm import PermGroup, Permutation

MAX_ORACLE_DEGREE = 14
MAX_ORACLE_NODES = 50_000_000


class BudgetExceeded(Exception):
    """The search outgrew its limits; no verdict was reached."""


class SearchLimits(NamedTuple):
    """Hard bounds on the closure search.

    max_degree caps the point count up front, for two_closure on every
    input; max_nodes caps the number of candidate image assignments tried
    during the search, and bounds nothing else.  Hitting either raises
    BudgetExceeded rather than returning a partial answer.
    """

    max_degree: int = MAX_ORACLE_DEGREE
    max_nodes: int = MAX_ORACLE_NODES


def _check_degree(n: int, limits: SearchLimits) -> None:
    if n > limits.max_degree:
        raise BudgetExceeded(
            f"degree {n} exceeds search bound {limits.max_degree}"
        )


def color_automorphisms(coloring: PairColoring, limits: SearchLimits = SearchLimits()) -> tuple[Permutation, ...]:
    """Generators of the group of permutations preserving the coloring.

    The base is 0, 1, ..., n-1, and the levels are walked from n-1 down
    to 0.  On reaching level i, the generators found so far generate the
    pointwise stabilizer of 0..i.  Each candidate image v of i that their
    orbit of i does not already hold, and that is not already known to be
    unreachable, starts a depth-first search for one permutation that
    fixes 0..i-1 and maps i to v.  The first leaf found becomes a
    generator; a search without a leaf marks v's orbit unreachable.  The
    generators then generate the pointwise stabilizer of 0..i-1, so the
    group's order is the product of the orbit lengths over all levels.

    A point's candidate images share its invariant profile (diagonal
    color plus the multisets of its row and column colors); a candidate
    survives only if every pair it forms with the points already placed,
    the fixed prefix included, keeps its color both ways.  At level i
    that test against the prefix 0..i-1 is two slice comparisons, row v
    against row i and column v against column i, so a level's images are
    filtered before any search starts.  The filter changes neither the
    generators nor the node count.  A rejected image's search would fail
    at once; and the generators found so far fix 0..i-1 and keep every
    color, so the orbit of a rejected image holds only rejected images,
    and the reached and unreachable sets never needed them.  Every
    candidate image tried costs one node against the budget: a level's
    images v >= i are charged together when it starts, so the search
    exceeds a budget exactly when one search per image would.
    """
    n = coloring.degree
    _check_degree(n, limits)
    m = coloring.matrix
    cols = tuple(zip(*m))

    profiles = [(m[i][i], tuple(sorted(m[i])), tuple(sorted(cols[i]))) for i in range(n)]
    cells: dict[tuple, list[int]] = {}
    for i, profile in enumerate(profiles):
        cells.setdefault(profile, []).append(i)
    candidates = [cells[profile] for profile in profiles]
    nodes = 0

    def tick(count: int = 1) -> None:
        nonlocal nodes
        nodes += count
        if nodes > limits.max_nodes:
            raise BudgetExceeded(f"search exceeded node budget {limits.max_nodes}")

    def fits(image: list[int], k: int, v: int) -> bool:
        row_k, row_v = m[k], m[v]
        for t in range(k):
            it = image[t]
            if row_k[t] != row_v[it] or m[t][k] != m[it][v]:
                return False
        return True

    def extend(i: int, v: int) -> Permutation | None:
        """One permutation fixing 0..i-1, mapping i to v and keeping every
        color, or None; v already keeps its colors with 0..i-1.  Points
        i+1.. are placed in order; next_index[k] is where point k's scan
        of its candidates resumes on backtracking.
        """
        image = list(range(n))
        image[i] = v
        used = [True] * i + [False] * (n - i)
        used[v] = True
        next_index = [0] * n
        k = i + 1
        while k > i:
            if k == n:
                # every point got an image not used before: a bijection
                return Permutation._unchecked(tuple(image))
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

    gens: list[Permutation] = []
    for i in reversed(range(n)):
        cell = candidates[i]
        tick(len(cell) - cell.index(i))  # the images v >= i; cells ascend
        row, col = m[i][:i], cols[i][:i]
        reached = {i}
        unreachable: set[int] = set()
        for v in [v for v in cell if v > i and m[v][:i] == row and cols[v][:i] == col]:
            if v in reached or v in unreachable:
                continue
            g = extend(i, v)
            if g is None:
                unreachable |= _orbit({v}, gens)
            else:
                gens.append(g)
                reached = _orbit({i}, gens)
                unreachable = _orbit(unreachable, gens)
    return tuple(gens)


def _orbit(points: set[int], gens: list[Permutation]) -> set[int]:
    """The union of the orbits of the given points under the generators."""
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


def two_closure(group: PermGroup, limits: SearchLimits = SearchLimits()) -> PermGroup:
    """The largest group with the same pair orbits as ``group``.

    The degree bound is checked first, on every input.  A group in the
    class (every transitive constituent cyclic) gets its closure from its
    orbit coordinates (decider._pairwise_closure), without the n x n pair
    coloring or the search; any other group gets the search's.  Either
    way the generators are a strong generating set for the base 0..n-1.
    """
    _check_degree(group.degree, limits)
    try:
        return _pairwise_closure(group)
    except PreconditionFailed:
        return PermGroup(group.degree, color_automorphisms(orb2(group), limits))


def closure_order(closure: PermGroup) -> int:
    """|closure| for ``two_closure``'s output, without enumerating it.

    Its generators, searched or pairwise, that fix 0..i-1 generate the
    pointwise stabilizer of 0..i-1, a strong generating set for the base
    0..n-1, so the order is the product of the basic orbit lengths
    (Seress, 2003).
    """
    order = 1
    stabilizer = closure.generators
    for i in range(closure.degree):
        order *= len(_orbit({i}, stabilizer))
        stabilizer = [g for g in stabilizer if g.images[i] == i]
    return order


def is_2_closed_oracle(group: PermGroup, limits: SearchLimits = SearchLimits()) -> bool:
    """True iff the group already contains every coloring-preserving permutation.

    G always lies in its closure, so G is closed iff every closure
    generator lies in G; only G's elements are enumerated.  The closure is
    the search's on every input, so the decider's coordinates referee nothing.
    """
    _check_degree(group.degree, limits)  # before the n x n pair coloring
    return PermGroup(group.degree, color_automorphisms(orb2(group), limits)).is_subgroup_of(group)
