import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_instances,
    perm_groups,
    reference_automorphisms,
    reference_color_automorphisms,
    stack_depth,
)
from twoclosure import oracle
from twoclosure.cli import main
from twoclosure.coloring import PairColoring, orb2, preserves
from twoclosure.decider import _pairwise_closure
from twoclosure.fixtures import fixture_example1, fixture_example2, random_regular_abelian
from twoclosure.oracle import (
    BudgetExceeded,
    SearchLimits,
    closure_order,
    color_automorphisms,
    is_2_closed_oracle,
    two_closure,
)
from twoclosure.perm import PermGroup, Permutation


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_closure_of_trivial_group_is_trivial():
    # the discrete pair partition pins every point
    cl = two_closure(PermGroup(4))
    assert cl.order() == 1


def test_regular_cyclic_groups_are_closed():
    c4 = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    assert two_closure(c4).elements() == c4.elements()
    c6 = PermGroup(6, [cyc(6, tuple(range(6)))])
    assert is_2_closed_oracle(c6)


def test_example1_closure_order_is_p_cubed():
    assert two_closure(fixture_example1(2)).order() == 8


def test_example1_is_not_closed():
    assert not is_2_closed_oracle(fixture_example1(2))


def test_example2_is_not_closed():
    assert not is_2_closed_oracle(fixture_example2(2))


def test_degree_bound_raises():
    with pytest.raises(BudgetExceeded):
        two_closure(PermGroup(15))


def test_degree_bound_is_checked_before_the_pair_coloring(monkeypatch, tmp_path, capsys):
    # the n x n coloring of a huge group must never be allocated
    def no_coloring(group):
        raise AssertionError("orb2 called above the degree bound")

    monkeypatch.setattr(oracle, "orb2", no_coloring)
    with pytest.raises(BudgetExceeded):
        two_closure(PermGroup(15))
    path = tmp_path / "wide.grp"
    path.write_text("degree 3000\ngen (0 1)\n")
    for argv in (["closure", str(path)], ["decide", str(path), "--oracle-check"]):
        assert main(argv) == 2
        assert "exceeds search bound" in capsys.readouterr().err


def search(g, limits=SearchLimits()):
    """The closure as the search finds it, whatever class g is in."""
    return PermGroup(g.degree, color_automorphisms(orb2(g), limits))


def test_node_budget_raises():
    with pytest.raises(BudgetExceeded):
        search(PermGroup(8), SearchLimits(max_nodes=5))


def test_color_automorphisms_of_two_color_square():
    # one diagonal color, one off-diagonal color: everything is allowed
    c = orb2(PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))]))
    assert c.num_colors == 2
    assert PermGroup(3, color_automorphisms(c)).order() == 6


def assert_generates_reference(c, limits=SearchLimits()):
    gens = color_automorphisms(c, limits)
    assert PermGroup(c.degree, gens).elements() == reference_automorphisms(c)


@pytest.mark.parametrize("make", [fixture_example1, fixture_example2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_generators_match_reference_on_fixtures(make, p):
    assert_generates_reference(orb2(make(p)), SearchLimits(max_degree=30))


def test_generators_match_reference_on_pools(sweep_pool, coupled_pool):
    regular = [random_regular_abelian(seed, 12) for seed in range(100)]
    for g in sweep_pool + coupled_pool + regular:
        assert_generates_reference(orb2(g))


@settings(deadline=None, max_examples=60)
@given(perm_groups(max_degree=6, max_gens=3))
def test_generators_match_reference_on_arbitrary_groups(g):
    assert_generates_reference(orb2(g))


def colorings(max_degree=6):
    """Arbitrary color matrices on a few colors, not only pair-orbit colorings
    (a color class need not be the transpose of one), and graphs: symmetric
    matrices with one diagonal color, whose searches backtrack more often."""
    def coloring(rows, graph):
        n = len(rows)
        if graph:
            rows = [[0 if i == j else rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        return PairColoring(tuple(map(tuple, rows)))

    def matrices(n, colors):
        row = st.lists(st.integers(0, colors - 1), min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n)

    return st.tuples(st.integers(0, max_degree), st.integers(1, 3)).flatmap(
        lambda nc: st.builds(coloring, matrices(*nc), st.booleans())
    )


# a graph on five points whose first-leaf searches must backtrack
_BACKTRACKING_GRAPH = PairColoring((
    (0, 1, 1, 0, 1), (1, 0, 1, 1, 0), (1, 1, 0, 0, 1), (0, 1, 0, 0, 1), (1, 0, 1, 1, 0),
))


@settings(deadline=None, max_examples=200)
@given(colorings())
@example(_BACKTRACKING_GRAPH)
def test_generators_match_reference_on_arbitrary_colorings(c):
    assert_generates_reference(c)


def assert_matches_reference_search(c):
    """The search returns the reference's generator tuple, succeeds within
    the reference's node count and exceeds one node fewer."""
    gens, nodes = reference_color_automorphisms(c)
    limits = SearchLimits(max_degree=c.degree, max_nodes=nodes)
    assert color_automorphisms(c, limits) == gens
    if c.degree:  # every level of a nonempty coloring tries its own point
        with pytest.raises(BudgetExceeded):
            color_automorphisms(c, limits._replace(max_nodes=nodes - 1))


@pytest.mark.parametrize("make", [fixture_example1, fixture_example2])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_search_matches_reference_search_on_fixtures(make, p):
    assert_matches_reference_search(orb2(make(p)))


def test_search_matches_reference_search_on_pools(sweep_pool, coupled_pool):
    regular = [random_regular_abelian(seed, 12) for seed in range(100)]
    for g in sweep_pool + coupled_pool + regular:
        assert_matches_reference_search(orb2(g))


@settings(deadline=None, max_examples=200)
@given(colorings())
@example(_BACKTRACKING_GRAPH)
def test_search_matches_reference_search_on_arbitrary_colorings(c):
    assert_matches_reference_search(c)


def _extend_calls(c, limits):
    """The generators the search finds and the number of depth-first
    searches it starts, one per entry into its extend()."""
    calls = 0

    def enter(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if code.co_name == "extend" and code.co_filename == oracle.__file__:
            calls += 1

    sys.settrace(enter)
    try:
        gens = color_automorphisms(c, limits)
    finally:
        sys.settrace(None)
    return gens, calls


@pytest.mark.parametrize("make, p", [
    (fixture_example1, 11), (fixture_example1, 23), (fixture_example2, 7), (fixture_example2, 13),
])
def test_search_starts_once_per_generator(make, p):
    # a search started for every unreached image enters extend() 138, 696,
    # 111 and 435 times here; the prefix filter leaves only the images that
    # become generators
    g = make(p)
    gens, calls = _extend_calls(orb2(g), SearchLimits(max_degree=g.degree))
    assert calls == len(gens) == 3


def indep(*sizes):
    """Independent cyclic shifts, one generator per block."""
    n = sum(sizes)
    gens, start = [], 0
    for k in sizes:
        gens.append(cyc(n, tuple(range(start, start + k))))
        start += k
    return PermGroup(n, gens)


def base_order(degree, gens):
    """The product over i of the orbit length of i under the generators that
    fix 0..i-1.  It never exceeds the order of the group they generate."""
    order = 1
    for i in range(degree):
        fixing = [g for g in gens if all(g.images[t] == t for t in range(i))]
        orbit, stack = {i}, [i]
        while stack:
            x = stack.pop()
            for g in fixing:
                if g.images[x] not in orbit:
                    orbit.add(g.images[x])
                    stack.append(g.images[x])
        order *= len(orbit)
    return order


@pytest.mark.parametrize("g, order", [
    (fixture_example1(11), 11 ** 3),
    (fixture_example2(7), 7 ** 3),
    (indep(*(4,) * 8), 4 ** 8),
], ids=["example1(11)", "example2(7)", "indep 8xZ4"])
def test_closure_search_stays_within_a_small_node_budget(g, order):
    # a search that stores every leaf needs 81 928, 37 590 and 611 660 nodes
    cl = search(g, SearchLimits(max_degree=48, max_nodes=10_000))
    c = orb2(g)
    assert all(preserves(c, x) for x in cl.generators)
    # base_order <= |<generators>| <= |closure| = order: equality shows nothing is missing
    assert base_order(g.degree, cl.generators) == order
    # each generator maps its base point out of the orbit of the ones found
    # before it, so it at least doubles the group they generate
    assert 2 ** len(cl.generators) <= order


def test_long_search_does_not_grow_the_stack():
    # one involution swapping 30 pairs, degree 60: closed, so the closure has order 2
    blocks = 30
    g = PermGroup(2 * blocks, [cyc(2 * blocks, *((2 * i, 2 * i + 1) for i in range(blocks)))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        cl = search(g, SearchLimits(max_degree=2 * blocks))
    finally:
        sys.setrecursionlimit(limit)
    assert cl.elements() == g.elements()


def test_closure_contains_group_and_fixes_coloring():
    for g in (fixture_example1(2), fixture_example1(3), fixture_example2(2)):
        cl = two_closure(g)
        assert g.elements() <= cl.elements()
        assert orb2(g) == orb2(cl)


def test_closure_is_idempotent_on_fixtures():
    for g in (fixture_example1(2), fixture_example2(2)):
        cl = two_closure(g)
        assert two_closure(cl).elements() == cl.elements()


@settings(deadline=None, max_examples=40)
@given(perm_groups(max_degree=5, max_gens=2))
def test_closure_laws_on_small_groups(g):
    cl = two_closure(g)
    assert g.elements() <= cl.elements()
    assert orb2(g) == orb2(cl)
    assert two_closure(cl).elements() == cl.elements()


@settings(deadline=None, max_examples=40)
@given(abelian_instances(max_degree=8))
def test_closure_of_abelian_group_is_quasiregular(g):
    cl = two_closure(g)
    for cls in cl.orbits():
        assert cl.restriction(cls).order() == len(cls)


def test_closure_order_matches_enumeration_on_pools(sweep_pool, coupled_pool):
    for g in sweep_pool + coupled_pool:
        cl = two_closure(g)
        assert closure_order(cl) == cl.order()


@settings(deadline=None, max_examples=60)
@given(perm_groups(max_degree=6, max_gens=3))
def test_closure_order_matches_enumeration_on_arbitrary_groups(g):
    cl = two_closure(g)
    assert closure_order(cl) == cl.order()


@pytest.mark.parametrize("n", range(8, 15))
def test_closure_order_of_symmetric_groups(n):
    # a transposition and an n-cycle generate Sym(n), which is 2-closed
    g = PermGroup(n, [cyc(n, (0, 1)), cyc(n, tuple(range(n)))])
    assert closure_order(two_closure(g)) == math.factorial(n)


def assert_pairwise_matches_search(g):
    """The pairwise closure of an in-class group against the search's: the
    same order, the same pair orbits, and the same elements where they
    can be listed."""
    pairwise, searched = _pairwise_closure(g), search(g, SearchLimits(max_degree=48))
    order = closure_order(pairwise)
    assert order == closure_order(searched)
    c = orb2(g)
    assert all(preserves(c, x) for x in pairwise.generators)
    assert orb2(pairwise) == c
    if order <= 10_000:
        assert pairwise.elements() == searched.elements()


@pytest.mark.parametrize("make", [fixture_example1, fixture_example2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pairwise_closure_matches_search_on_fixtures(make, p):
    assert_pairwise_matches_search(make(p))


def test_pairwise_closure_matches_search_on_pools(sweep_pool, coupled_pool):
    for g in sweep_pool + coupled_pool:
        assert_pairwise_matches_search(g)


@settings(deadline=None, max_examples=100)
@given(abelian_instances(max_degree=16))
def test_pairwise_closure_matches_search_on_abelian_instances(g):
    assert_pairwise_matches_search(g)
