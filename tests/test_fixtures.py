import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoclosure.fixtures import (
    NotPrime,
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from twoclosure.groupfile import MAX_DEGREE
from twoclosure.perm import PermGroup
from twoclosure.reduction import zel


@pytest.mark.parametrize("p", [2, 3, 5])
def test_example1_shape(p):
    g = fixture_example1(p)
    assert g.degree == 3 * p
    assert g.order() == p * p
    assert [*map(len, g.orbits())] == [p, p, p]
    assert g.is_abelian()
    assert g.cyclic_constituents()


@pytest.mark.parametrize("p", [2, 3])
def test_example1_orbit_kernels_are_distinct_of_order_p(p):
    g = fixture_example1(p)
    a, b = g.generators
    expected = [
        PermGroup(g.degree, [b]),
        PermGroup(g.degree, [a]),
        PermGroup(g.degree, [a * b.inverse()]),
    ]
    kernels = []
    for cls, want in zip(g.orbits(), expected):
        kernel = g.pointwise_stabilizer(cls)
        assert kernel.order() == p
        assert kernel.elements() == want.elements()
        kernels.append(kernel.elements())
    assert kernels[0] != kernels[1]
    assert kernels[0] != kernels[2]
    assert kernels[1] != kernels[2]


def test_point_stabilizer_equals_orbit_kernel():
    g = fixture_example1(3)
    for cls in g.orbits():
        whole = g.pointwise_stabilizer(cls).elements()
        single = g.pointwise_stabilizer([cls[0]]).elements()
        assert whole == single


@pytest.mark.parametrize("p", [2, 3])
def test_example2_shape(p):
    h = fixture_example2(p)
    assert h.degree == 6 * p
    assert h.order() == p * p
    assert [*map(len, h.orbits())] == [p] * 6
    assert zel(h).is_trivial()


def test_example2_restricts_to_example1():
    p = 2
    h = fixture_example2(p)
    assert h.restriction(range(3 * p)) == fixture_example1(p)


@pytest.mark.parametrize("bad", [-3, 0, 1, 4, 6, 9])
def test_fixtures_reject_non_primes(bad):
    with pytest.raises(NotPrime):
        fixture_example1(bad)
    with pytest.raises(NotPrime):
        fixture_example2(bad)


@pytest.mark.parametrize("build", [
    lambda: fixture_example1(10**18 + 9),
    lambda: fixture_example2(10**18 + 9),
    lambda: random_abelian_cyclic(0, MAX_DEGREE + 1),
    lambda: random_regular_abelian(0, MAX_DEGREE + 1),
], ids=["example1", "example2", "random", "regular"])
def test_degree_above_the_limit_is_refused_at_once(build):
    # for the examples, trial division would first run up to about 10^9
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the limit 1000000"):
        build()
    assert time.perf_counter() - start < 1.0


def test_random_abelian_cyclic_is_deterministic():
    assert random_abelian_cyclic(7, 10) == random_abelian_cyclic(7, 10)
    assert random_abelian_cyclic(7, 10) != random_abelian_cyclic(8, 10)


def test_random_abelian_cyclic_degree_zero_budget():
    assert random_abelian_cyclic(0, 0).degree == 0


def test_random_abelian_cyclic_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="need max_degree >= 0"):
        random_abelian_cyclic(0, -1)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 5_000))
def test_random_abelian_cyclic_always_in_scope(seed):
    g = random_abelian_cyclic(seed, 10)
    assert g.degree <= 10
    assert g.is_abelian()
    assert g.cyclic_constituents()


def test_random_regular_abelian_is_deterministic():
    assert random_regular_abelian(3, 12) == random_regular_abelian(3, 12)


def test_random_regular_abelian_rejects_tiny_budget():
    with pytest.raises(ValueError):
        random_regular_abelian(0, 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5_000))
def test_random_regular_abelian_is_regular(seed):
    g = random_regular_abelian(seed, 12)
    assert 2 <= g.degree <= 12
    assert len(g.orbits()) == 1
    assert g.is_abelian()
    assert g.order() == g.degree


def test_random_regular_abelian_reaches_non_cyclic_groups():
    found = False
    for seed in range(60):
        g = random_regular_abelian(seed, 12)
        if all(x.order() < g.order() for x in g.elements()):
            found = True
            break
    assert found
