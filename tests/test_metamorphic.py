"""Metamorphic relations: facts about 2-closure that need no referee.

The verdict and |G| (the Validate step's order) are invariants of the
group as a permutation group, so they must not change when the points
are relabelled, the generators shuffled, or a product of generator
powers added as a generator.  For G and H on disjoint point sets,
(G x H)^(2) = G^(2) x H^(2), so G x H is closed iff both are,
|G x H| = |G||H| and |(G x H)^(2)| = |G^(2)||H^(2)|; the closures of
groups in the class need no search, so the last runs up to degree 128.
An abelian G is the direct product of its Sylow parts, so |G| is the
product of their orders, and G is closed iff every part is (the paper's
Sylow split); the parts are built from permutations, as <g^m> with m the
p'-part of the order of g, not from the decider's coordinates.
Hypothesis runs derandomized, so every run checks the same instances in
a fixed budget.
"""

import math
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coupled_blocks
from twoclosure.decider import decide_2_closed
from twoclosure.fixtures import random_abelian_cyclic
from twoclosure.oracle import SearchLimits, closure_order, two_closure
from twoclosure.perm import PermGroup, Permutation, prime_factors

MAX_DEGREE = 40
CLOSURE_DEGREE = 128
# indep blocks of these sizes: the benchmark's high-order shapes whose
# order has more than one prime, so that they go through SylowSplit
SYLOW_SPLIT_SHAPES = ((8, 8, 9, 7), (4, 4, 4, 3, 3, 7), (2, 2, 3, 3, 5, 7), (4, 4, 3, 3, 5), (9, 9, 4))


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


def _indep(sizes):
    """One orbit per size, each shifted by its own generator."""
    degree = sum(sizes)
    return PermGroup(degree, [Permutation.from_cycles(degree, [tuple(range(s, s + q))])
                              for s, q in zip(accumulate(sizes, initial=0), sizes)])


def _sylow_parts(group):
    """<g^m> over the generators g, m the p'-part of the order of g, for
    each prime p dividing the order of some generator."""
    orders = [g.order() for g in group.generators]
    parts = []
    for p in sorted({p for n in orders for p in prime_factors(n)}):
        powers = []
        for g, m in zip(group.generators, orders):
            while m % p == 0:
                m //= p
            powers.append(g ** m)
        parts.append(PermGroup(group.degree, powers))
    return parts


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


def test_a_group_is_closed_iff_each_sylow_part_is(coupled_pool):
    pool = (random_abelian_cyclic(seed, 64) for seed in range(300))
    mixed = [g for g in pool if len(prime_factors(_answer(g)[1])) > 1]
    pool = mixed + coupled_pool + [_indep(sizes) for sizes in SYLOW_SPLIT_SHAPES] + [_indep((2, 3) * 200)]
    verdicts = set()
    for group in pool:
        closed, order = _answer(group)
        parts = [_answer(part) for part in _sylow_parts(group)]
        verdicts.add(closed)
        assert closed == all(c for c, _ in parts), group
        assert order == math.prod(o for _, o in parts), group
    assert len(mixed) > 50 and verdicts == {True, False}, (len(mixed), verdicts)
