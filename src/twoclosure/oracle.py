"""Brute-force pair-orbit closure, by search over the symmetric group.

The closure of a group G is the set of ALL permutations preserving the
pair coloring of G; it is the largest group with the same orbits on
ordered pairs, and G is closed iff it equals its closure.  The search
assigns images point by point, pruning with per-point color profiles and
prefix consistency, and is the independent referee for the structural
decision procedure: exponential, honest, and only viable at small degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PairColoring, orb2
from .perm import PermGroup, Permutation

MAX_ORACLE_DEGREE = 14
MAX_ORACLE_NODES = 50_000_000


class BudgetExceeded(Exception):
    """The search outgrew its limits; no verdict was reached."""


@dataclass(frozen=True)
class SearchLimits:
    """Hard bounds on the closure search.

    max_degree caps the point count up front; max_nodes caps the number of
    candidate image assignments tried during the search.  Hitting either
    raises BudgetExceeded rather than returning a partial answer.
    """

    max_degree: int = MAX_ORACLE_DEGREE
    max_nodes: int = MAX_ORACLE_NODES


def _check_degree(n: int, limits: SearchLimits) -> None:
    if n > limits.max_degree:
        raise BudgetExceeded(
            f"degree {n} exceeds search bound {limits.max_degree}"
        )


def color_automorphisms(coloring: PairColoring, limits: SearchLimits = SearchLimits()) -> frozenset[Permutation]:
    """All permutations preserving the coloring, by depth-first search.

    Points get their images in ascending order.  A point's candidate
    images are precomputed from an invariant profile (diagonal color plus
    the multisets of its row and column colors); a candidate survives only
    if every pair it forms with the already-assigned prefix keeps its
    color both ways.  Every candidate tried costs one node against the
    budget.
    """
    n = coloring.degree
    _check_degree(n, limits)
    m = coloring.matrix

    profiles = [
        (m[i][i], tuple(sorted(m[i])), tuple(sorted(row[i] for row in m)))
        for i in range(n)
    ]
    candidates = [
        tuple(j for j in range(n) if profiles[j] == profiles[i]) for i in range(n)
    ]

    found: list[Permutation] = []
    image = [0] * n
    used = [False] * n
    nodes = 0

    def assign(k: int):
        nonlocal nodes
        if k == n:
            found.append(Permutation(tuple(image)))
            return
        row_k = m[k]
        for v in candidates[k]:
            if used[v]:
                continue
            nodes += 1
            if nodes > limits.max_nodes:
                raise BudgetExceeded(
                    f"search exceeded node budget {limits.max_nodes}"
                )
            row_v = m[v]
            ok = True
            for t in range(k):
                it = image[t]
                if row_k[t] != row_v[it] or m[t][k] != m[it][v]:
                    ok = False
                    break
            if not ok:
                continue
            image[k] = v
            used[v] = True
            assign(k + 1)
            used[v] = False

    assign(0)
    return frozenset(found)


def two_closure(group: PermGroup, limits: SearchLimits = SearchLimits()) -> PermGroup:
    """The largest group with the same pair orbits as ``group``.

    The degree bound is checked before the n x n pair coloring is built.
    """
    _check_degree(group.degree, limits)
    els = color_automorphisms(orb2(group), limits)
    return PermGroup.from_elements(group.degree, els)


def is_2_closed_oracle(group: PermGroup, limits: SearchLimits = SearchLimits()) -> bool:
    """True iff the group already contains every coloring-preserving permutation."""
    return two_closure(group, limits).elements() == group.elements()
