import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_instances,
    perm_groups,
    permutations,
    random_coupled_blocks,
    reference_orb2,
    reference_preserves,
)
from twoclosure import coloring
from twoclosure.coloring import orb2, preserves
from twoclosure.fixtures import fixture_example1
from twoclosure.oracle import two_closure
from twoclosure.perm import PermGroup, Permutation


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_trivial_group_gets_discrete_coloring():
    c = orb2(PermGroup(2))
    assert c.num_colors == 4
    assert c.matrix == ((0, 1), (2, 3))


def test_degree_zero_group_has_no_colors():
    assert orb2(PermGroup(0)).num_colors == 0


def test_swap_on_two_points():
    c = orb2(PermGroup(2, [cyc(2, (0, 1))]))
    assert c.matrix == ((0, 1), (1, 0))
    assert c.num_colors == 2


def test_regular_c4_colors_by_difference():
    c = orb2(PermGroup(4, [cyc(4, (0, 1, 2, 3))]))
    assert c.num_colors == 4
    assert c.matrix == (
        (0, 1, 2, 3),
        (3, 0, 1, 2),
        (2, 3, 0, 1),
        (1, 2, 3, 0),
    )


def test_diagonal_is_union_of_color_classes():
    g = fixture_example1(2)
    c = orb2(g)
    diagonal_colors = {c.matrix[i][i] for i in range(c.degree)}
    off = {
        c.matrix[i][j]
        for i in range(c.degree)
        for j in range(c.degree)
        if i != j
    }
    assert diagonal_colors.isdisjoint(off)


def test_generators_preserve_their_own_coloring():
    g = fixture_example1(3)
    c = orb2(g)
    for gen in g.generators:
        assert preserves(c, gen)


def test_preserves_detects_foreign_permutation():
    c = orb2(PermGroup(3, [cyc(3, (0, 1))]))
    assert not preserves(c, cyc(3, (0, 2)))


def test_extra_zel_generator_preserves_example1_coloring():
    # the third-orbit shift lies outside the group but fixes its pair orbits
    g = fixture_example1(2)
    extra = cyc(6, (4, 5))
    assert extra not in g.elements()
    assert preserves(orb2(g), extra)


def test_preserves_degree_mismatch():
    with pytest.raises(ValueError):
        preserves(orb2(PermGroup(2)), Permutation.identity(3))


def test_same_coloring_under_closure():
    g = fixture_example1(2)
    assert orb2(g) == orb2(two_closure(g))


def test_same_coloring_distinguishes_partitions():
    a = orb2(PermGroup(3))
    b = orb2(PermGroup(3, [cyc(3, (0, 1, 2))]))
    assert a.num_colors == 9
    assert b.num_colors == 3
    assert a != b
    assert a == orb2(PermGroup(3))


def test_render_and_parse_round_trip():
    c = orb2(fixture_example1(2))
    rows = tuple(tuple(map(int, line.split())) for line in c.render().splitlines())
    assert rows == c.matrix
    assert orb2(PermGroup(2)).render() == "0 1\n2 3"


def _pair_orbit_count(group):
    """Count pair orbits directly from the full element set."""
    els = group.elements()
    seen = set()
    count = 0
    for i in range(group.degree):
        for j in range(group.degree):
            if (i, j) in seen:
                continue
            count += 1
            seen.update((g.images[i], g.images[j]) for g in els)
    return count


@settings(deadline=None)
@given(perm_groups(max_degree=5, max_gens=2))
def test_color_count_matches_element_orbit_count(g):
    assert orb2(g).num_colors == _pair_orbit_count(g)


@settings(deadline=None)
@given(perm_groups(max_degree=5, max_gens=2))
def test_every_element_preserves_coloring(g):
    c = orb2(g)
    assert all(preserves(c, x) for x in g.elements())


@given(perm_groups(max_degree=6, max_gens=3))
def test_transpose_of_color_class_is_color_class(g):
    c = orb2(g)
    for color in range(c.num_colors):
        transposed = {
            c.matrix[j][i]
            for i in range(c.degree)
            for j in range(c.degree)
            if c.matrix[i][j] == color
        }
        assert len(transposed) == 1


@given(perm_groups(max_degree=5, max_gens=2))
def test_canonical_ids_first_appear_in_order(g):
    c = orb2(g)
    seen_max = -1
    for row in c.matrix:
        for value in row:
            assert value <= seen_max + 1
            seen_max = max(seen_max, value)


@settings(max_examples=150, deadline=None)
@given(st.one_of(perm_groups(max_degree=6, max_gens=3), abelian_instances(max_degree=12)), st.data())
def test_preserves_agrees_with_cell_by_cell_definition(g, data):
    c = orb2(g)
    # a word in the closure's generators preserves the coloring
    word = data.draw(st.lists(st.sampled_from((g.identity(), *two_closure(g).generators)), max_size=4))
    preserving = g.identity()
    for x in word:
        preserving = preserving * x
    arbitrary = data.draw(permutations(g.degree))
    assert preserves(c, preserving) and reference_preserves(c, preserving)
    assert preserves(c, arbitrary) == reference_preserves(c, arbitrary)


@settings(max_examples=200, deadline=None)
@given(st.one_of(perm_groups(max_degree=7, max_gens=3), abelian_instances(max_degree=16),
                 st.integers(0, 10_000).map(lambda seed: random_coupled_blocks(seed, 24))))
def test_orb2_matches_the_spread_over_every_generator(g):
    assert orb2(g).matrix == reference_orb2(g)


def test_orb2_spreads_a_pair_only_over_the_generators_moving_it():
    # indep k x Z2: each generator swaps one block, so a pair's orbit is
    # spread over at most two generators, not all k; the orbits are found
    # from the generators' cycles, a read or two per moved point
    reads = 0

    class CountedImages(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    k = 30
    n = 2 * k
    gens = []
    for b in range(k):
        images = list(range(n))
        images[2 * b], images[2 * b + 1] = 2 * b + 1, 2 * b
        gens.append(Permutation._unchecked(CountedImages(images)))
    group = PermGroup(n, gens)
    reads = 0
    assert coloring.orb2(group).num_colors == k * k + k  # one per block pair, two per block
    assert reads // 2 <= 2 * n * n, reads  # an application reads two images
