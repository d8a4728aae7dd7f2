"""Metamorphic relations: facts about 2-closure that need no referee.

The verdict and |G| (the Validate step's order) are invariants of the
group as a permutation group, so they must not change when the points
are relabelled, the generators shuffled, or a product of generator
powers added as a generator.  For G and H on disjoint point sets,
(G x H)^(2) = G^(2) x H^(2), so G x H is closed iff both are,
|G x H| = |G||H| and |(G x H)^(2)| = |G^(2)||H^(2)|; the closures of
groups in the class need no search, so the last runs up to degree 128.
Hypothesis runs derandomized, so every run checks the same instances in
a fixed budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coupled_blocks
from twoclosure.decider import decide_2_closed
from twoclosure.oracle import SearchLimits, closure_order, two_closure
from twoclosure.perm import PermGroup, Permutation

MAX_DEGREE = 40
CLOSURE_DEGREE = 128


def _answer(group):
    """The verdict and the Validate step's order."""
    closed, trace = decide_2_closed(group)
    return closed, trace.steps[0].order


def _relabelled(group, rng):
    points = list(range(group.degree))
    rng.shuffle(points)
    sigma = Permutation(tuple(points))
    return PermGroup(group.degree, [sigma.inverse() * g * sigma for g in group.generators])


def _shuffled(group, rng):
    gens = list(group.generators)
    rng.shuffle(gens)
    return PermGroup(group.degree, gens)


def _with_a_product(group, rng):
    g, h = rng.choice(group.generators), rng.choice(group.generators)
    extra = g ** rng.randrange(g.order()) * h ** rng.randrange(h.order())
    return PermGroup(group.degree, [*group.generators, extra])


def _direct_product(g, h):
    n = g.degree + h.degree
    left = [Permutation(a.images + tuple(range(g.degree, n))) for a in g.generators]
    right = [Permutation(tuple(range(g.degree)) + tuple(x + g.degree for x in b.images))
             for b in h.generators]
    return PermGroup(n, left + right)


def test_relabelling_shuffling_and_products_keep_the_answer():
    verdicts = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, 10**6), st.randoms(use_true_random=False))
    def check(seed, rng):
        group = random_coupled_blocks(seed, MAX_DEGREE)
        answer = _answer(group)
        verdicts.add(answer[0])
        for change in (_relabelled, _shuffled, _with_a_product):
            assert _answer(change(group, rng)) == answer, change.__name__

    check()
    assert verdicts == {True, False}


def test_direct_product_is_closed_iff_both_factors_are():
    verdicts = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def check(a, b):
        g = random_coupled_blocks(a, MAX_DEGREE // 2)
        h = random_coupled_blocks(b, MAX_DEGREE // 2)
        (g_closed, g_order), (h_closed, h_order) = _answer(g), _answer(h)
        closed, order = _answer(_direct_product(g, h))
        verdicts.add(closed)
        assert closed == (g_closed and h_closed)
        assert order == g_order * h_order

    check()
    assert verdicts == {True, False}


def test_closure_order_of_a_direct_product_is_the_product():
    limits = SearchLimits(max_degree=CLOSURE_DEGREE)

    def closure(group):
        return closure_order(two_closure(group, limits))

    verdicts = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def check(a, b):
        g = random_coupled_blocks(a, CLOSURE_DEGREE // 2)
        h = random_coupled_blocks(b, CLOSURE_DEGREE // 2)
        product = _direct_product(g, h)
        order = closure(product)
        verdicts.add(order == _answer(product)[1])
        assert order == closure(g) * closure(h)

    check()
    assert verdicts == {True, False}
