"""Orbits of a group on ordered pairs of points, as a matrix coloring.

The pair orbits of a group partition the n x n grid; two groups with the
same pair orbits have the same invariant binary relations, which is the
combinatorial object everything downstream works with.  Color ids are
assigned canonically, by first occurrence in a row-major scan of the grid,
so two colorings describe the same partition iff their matrices are equal.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .perm import Permutation, PermGroup, _cycle_orbits

# The most points orb2 colors: its matrix holds degree^2 cells, 4.2 million
# at this bound, so a group file's own limit of 10^6 points would ask for
# 10^12.
MAX_COLORING_DEGREE = 2048


class ColoringTooLarge(ValueError):
    """The group's degree is above MAX_COLORING_DEGREE."""


class PairColoring(NamedTuple):
    """An n x n matrix of color ids; cell (i, j) colors the ordered pair (i, j)."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.matrix)

    @property
    def num_colors(self) -> int:
        if not self.matrix:
            return 0
        return 1 + max(max(row) for row in self.matrix)

    def render(self) -> str:
        """One line per row, space-separated color ids."""
        return "\n".join(" ".join(map(str, row)) for row in self.matrix)


def orb2(group: PermGroup) -> PairColoring:
    """The coloring of ordered pairs by the group's orbits on them.

    Pairs (i, j) are scanned row-major; each time an uncolored pair is hit
    it seeds a fresh color, which is then spread over its orbit under the
    generators that move a point of i's orbit or of j's: one that fixes
    both orbits pointwise fixes every pair between them.  Diagonal pairs
    and off-diagonal pairs can never share an orbit, so the diagonal
    colors are exactly the colors of fixed pairs.  The degree is checked
    against MAX_COLORING_DEGREE before anything is allocated.
    """
    n = group.degree
    if n > MAX_COLORING_DEGREE:
        raise ColoringTooLarge(
            f"degree {n} exceeds the pair coloring bound {MAX_COLORING_DEGREE}"
        )
    cycles, movers, orbits, _ = _cycle_orbits(group)
    moving = [[]] * n  # the generators moving the orbit of x, one list per orbit; the fixed points share []
    for ids in orbits:
        spread = [group.generators[h].images for h in dict.fromkeys(map(movers.__getitem__, ids))]
        any(map(moving.__setitem__, chain(*map(cycles.__getitem__, ids)), repeat(spread)))
    matrix = [[-1] * n for _ in range(n)]
    next_color = 0
    for i, row in enumerate(matrix):
        mine, spreads = moving[i], {}  # spreads: by the id of the list of j, once per row
        for j in range(n):
            if row[j] != -1:
                continue
            row[j] = color = next_color
            next_color += 1
            spread = moving[j]
            if mine and spread is not mine:
                if id(spread) not in spreads:
                    spreads[id(spread)] = mine + [g for g in spread if g not in mine]
                spread = spreads[id(spread)]
            if not spread:  # both orbits fixed pointwise: the pair is its own orbit
                continue
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                for images in spread:
                    x, y = images[a], images[b]
                    if matrix[x][y] == -1:
                        matrix[x][y] = color
                        stack.append((x, y))
    return PairColoring(tuple(tuple(row) for row in matrix))


def preserves(coloring: PairColoring, perm: Permutation) -> bool:
    """True iff the permutation maps every pair to a pair of the same color.

    Row by row: the cells (i, j) keep their colors iff row i equals row
    im[i] read at the images im[j].
    """
    if perm.degree != coloring.degree:
        raise ValueError(
            f"degree mismatch: coloring {coloring.degree} vs permutation {perm.degree}"
        )
    m, im = coloring.matrix, perm.images
    return all(row == tuple(map(m[v].__getitem__, im)) for row, v in zip(m, im))
