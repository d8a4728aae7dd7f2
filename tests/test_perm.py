import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_instances,
    blocks_of_six,
    perm_groups,
    permutations,
    random_coupled_blocks,
    reference_cycles,
    reference_inverse,
    reference_orbits,
    reference_power,
)
from twoclosure import perm
from twoclosure.fixtures import fixture_example1, random_regular_abelian
from twoclosure.perm import (
    CapExceeded,
    NotBlockSystem,
    NotInvariant,
    PermGroup,
    Permutation,
    _cycle_orbits,
    prime_factors,
)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_compose_applies_left_argument_first():
    p = cyc(3, (0, 1))
    q = cyc(3, (1, 2))
    # i -> q(p(i)): the 3-cycle 0->2->1->0
    assert (p * q).images == (2, 0, 1)
    assert (q * p).images == (1, 2, 0)
    assert (p * q)(0) == q(p(0))


def test_compose_identity_and_inverse():
    p = cyc(4, (0, 2, 3))
    e = Permutation.identity(4)
    assert e * p == p
    assert p * e == p
    assert p * p.inverse() == e
    assert p.inverse() * p == e


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))


def test_permutation_from_a_list_is_the_one_from_a_tuple():
    p = Permutation([1, 0, 2])
    assert p.images == (1, 0, 2)
    assert p == Permutation((1, 0, 2)) and hash(p) == hash(Permutation((1, 0, 2)))
    g = PermGroup(3, [p])
    assert g.order() == 2 and g.orbits() == ((0, 1), (2,))


def test_from_cycles_validation():
    with pytest.raises(ValueError):
        Permutation.from_cycles(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])


def test_cycle_form_round_trip():
    p = cyc(7, (0, 3), (1, 4, 5))
    assert str(p) == "(0 3)(1 4 5)"
    assert p.cycles() == ((0, 3), (1, 4, 5))
    assert str(Permutation.identity(3)) == "()"


def test_power_and_order():
    r = cyc(6, (0, 1, 2, 3, 4, 5))
    assert r.order() == 6
    assert (r ** 6).is_identity()
    assert r ** -1 == r.inverse()
    assert (r ** 4) * (r ** 2) == Permutation.identity(6)
    assert cyc(5, (0, 1), (2, 3, 4)).order() == 6


def _identity_or_any(degree):
    return st.one_of(st.just(Permutation.identity(degree)), permutations(degree))


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 12).flatmap(_identity_or_any), st.integers(-30, 30))
def test_cycle_queries_match_the_full_walk(p, k):
    cycles = reference_cycles(p)
    assert p.cycles() == cycles
    assert str(p) == ("".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()")
    assert p.order() == math.lcm(*map(len, reference_cycles(p, include_fixed=True)))
    assert p ** k == reference_power(p, k)
    assert p.inverse() == reference_inverse(p)
    assert p.is_identity() == all(i == v for i, v in enumerate(p.images))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shifting_moves_each_walk_point_s_steps_on_and_fixes_the_rest(data):
    n = data.draw(st.integers(0, 12))
    points = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))  # equal cuts give empty walks
    walks = [tuple(points[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    shifted = [(w, data.draw(st.integers(0, max(len(w) - 1, 0)))) for w in walks if data.draw(st.booleans())]
    p = Permutation._shifting(n, shifted)
    on = {w[i]: w[(i + s) % len(w)] for w, s in shifted for i in range(len(w))}
    assert p.degree == n
    assert [p(x) for x in range(n)] == [on.get(x, x) for x in range(n)]


def test_enumerate_trivial_and_cyclic():
    assert PermGroup(5).elements() == {Permutation.identity(5)}
    assert PermGroup(4, [cyc(4, (0, 1, 2, 3))]).order() == 4


def test_enumerate_example1_p3():
    assert fixture_example1(3).order() == 9


def test_cap_exceeded_carries_partial_count(monkeypatch):
    monkeypatch.setattr(perm, "DEFAULT_CAP", 100)
    sym7 = PermGroup(7, [cyc(7, (0, 1)), cyc(7, tuple(range(7)))])
    with pytest.raises(CapExceeded) as info:
        sym7.elements()
    assert info.value.cap == 100
    assert info.value.partial == 101


def test_cap_applies_to_memoized_elements(monkeypatch):
    g = fixture_example1(3)
    assert g.order() == 9
    monkeypatch.setattr(perm, "DEFAULT_CAP", 5)
    with pytest.raises(CapExceeded) as info:
        g.elements()
    assert info.value.cap == 5
    assert info.value.partial == 9


def test_generator_normalization():
    e = Permutation.identity(3)
    t = cyc(3, (0, 1))
    g = PermGroup(3, [e, t, t])
    assert g.generators == (t,)
    assert PermGroup(3).is_trivial()


def test_group_construction_checks_its_input():
    with pytest.raises(ValueError, match="nonnegative"):
        PermGroup(-1)
    assert PermGroup(3, [[1, 2, 0]]).generators == (cyc(3, (0, 1, 2)),)  # plain images
    with pytest.raises(ValueError, match="does not match"):
        PermGroup(3, [cyc(4, (0, 1))])


def test_groups_compare_hash_and_print_by_degree_and_generators():
    g = PermGroup(3, [cyc(3, (0, 1))])
    assert g == PermGroup(3, [(1, 0, 2)]) and hash(g) == hash(PermGroup(3, [(1, 0, 2)]))
    assert g != PermGroup(4, [cyc(4, (0, 1))])
    assert g.__eq__(3) is NotImplemented and g != 3
    assert repr(g) == "PermGroup(degree=3, gens=[(0 1)])"


def test_cap_below_the_generators_alone_raises(monkeypatch):
    monkeypatch.setattr(perm, "DEFAULT_CAP", 2)
    with pytest.raises(CapExceeded) as info:
        PermGroup(3, [cyc(3, (0, 1)), cyc(3, (1, 2))]).elements()
    assert info.value.partial == 3  # the identity and the two generators


def test_degree_zero_group_is_legal():
    g = PermGroup(0)
    assert g.order() == 1
    assert len(g.orbits()) == 0


def test_orbits_examples():
    assert PermGroup(3).orbits() == ((0,), (1,), (2,))
    g = PermGroup(6, [cyc(6, (0, 1, 2), (3, 4, 5))])
    assert g.orbits() == ((0, 1, 2), (3, 4, 5))
    assert [*map(len, fixture_example1(2).orbits())] == [2, 2, 2]


def test_cycle_orbits_order_orbits_by_minimal_point():
    # the orbit {0, 3, 4} joins (3 4), cycle 1, and (0 3), cycle 2: its
    # least point lies on the second generator's cycle, so it comes before
    # the orbit {1, 2} of cycle 0
    g = PermGroup(5, [cyc(5, (1, 2), (3, 4)), cyc(5, (0, 3))])
    cycles, movers, orbits, fixed = _cycle_orbits(g)
    assert cycles == [(1, 2), (3, 4), (0, 3)]
    assert movers == [0, 0, 1]
    assert [[*ids] for ids in orbits] == [[1, 2], [0]]
    assert fixed == []
    cycles, movers, orbits, fixed = _cycle_orbits(PermGroup(5, [cyc(5, (3, 4)), cyc(5, (0, 3))]))
    assert cycles == [(3, 4), (0, 3)] and [[*ids] for ids in orbits] == [[0, 1]] and fixed == [1, 2]


def test_cycle_orbits_of_one_generator_are_its_cycles_as_1_tuples():
    cycles, movers, orbits, fixed = _cycle_orbits(PermGroup(6, [cyc(6, (4, 5), (0, 2, 1))]))
    assert cycles == [(0, 2, 1), (4, 5)]
    assert movers == [0, 0]
    assert [*orbits] == [(0,), (1,)]
    assert fixed == [3]


def test_cycle_orbits_flatten_to_the_independent_union_find():
    for seed in range(300):
        g = random_coupled_blocks(seed, 36)
        cycles, movers, orbits, fixed = _cycle_orbits(g)
        orbits, (classes, _) = [*orbits], reference_orbits(g)
        assert [tuple(sorted({x for c in ids for x in cycles[c]})) for ids in orbits] == [
            cls for cls in classes if len(cls) > 1
        ], seed
        assert fixed == [cls[0] for cls in classes if len(cls) == 1], seed
        for ids in orbits:  # ids ascend, so movers do not decrease (_coordinates' groupby needs this)
            assert [*ids] == sorted(ids), seed
            assert [movers[c] for c in ids] == sorted(movers[c] for c in ids), seed
        for c, cycle in enumerate(cycles):
            images = g.generators[movers[c]].images
            assert cycle[0] == min(cycle) and [*cycle[1:], cycle[0]] == [images[x] for x in cycle], seed


def test_orbits_are_a_tuple_of_ascending_point_tuples():
    for seed in range(100):
        g = random_coupled_blocks(seed, 36)
        # fixed points added, then every point relabelled, so that they fall between the orbits
        n = g.degree + 1 + seed % 5
        sigma = random.Random(seed).sample(range(n), n)
        gens = []
        for h in g.generators:
            images = [0] * n
            for x, y in enumerate([*h.images, *range(g.degree, n)]):
                images[sigma[x]] = sigma[y]
            gens.append(images)
        g = PermGroup(n, gens)
        orbits = g.orbits()
        assert type(orbits) is tuple, seed
        assert all(type(cls) is tuple and [*cls] == sorted(cls) for cls in orbits), seed
        assert orbits == reference_orbits(g)[0], seed


def test_is_transitive():
    # a group is transitive when it has exactly one orbit
    assert len(PermGroup(4, [cyc(4, (0, 1, 2, 3))]).orbits()) == 1
    assert len(PermGroup(2).orbits()) == 2
    assert len(fixture_example1(2).orbits()) == 3


def test_pointwise_stabilizer():
    g = PermGroup(4, [cyc(4, (0, 1)), cyc(4, (2, 3))])
    assert g.pointwise_stabilizer([]).elements() == g.elements()
    stab = g.pointwise_stabilizer([0, 1])
    assert stab.elements() == {Permutation.identity(4), cyc(4, (2, 3))}


def test_pointwise_stabilizer_example1_orbit_has_order_p():
    g = fixture_example1(3)
    for cls in g.orbits():
        assert g.pointwise_stabilizer(cls).order() == 3


def test_restriction():
    g = PermGroup(5, [cyc(5, (0, 1, 2), (3, 4))])
    r = g.restriction([3, 4])
    assert r.degree == 2
    assert r.generators == (cyc(2, (0, 1)),)
    full = g.restriction(range(5))
    assert full.generators == g.generators


def test_restriction_rejects_non_invariant_sets():
    g = PermGroup(5, [cyc(5, (0, 1, 2), (3, 4))])
    with pytest.raises(NotInvariant):
        g.restriction([0, 1])
    with pytest.raises(ValueError, match="out of range"):
        g.restriction([5])


def test_is_subgroup():
    c3 = PermGroup(3, [cyc(3, (0, 1, 2))])
    assert PermGroup(3).is_subgroup_of(c3)
    assert PermGroup(3, [cyc(3, (0, 2, 1))]).is_subgroup_of(c3)
    assert not PermGroup(3, [cyc(3, (0, 1))]).is_subgroup_of(c3)
    sym3 = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    assert not sym3.is_subgroup_of(c3)
    assert c3.is_subgroup_of(sym3)
    with pytest.raises(ValueError):
        PermGroup(2).is_subgroup_of(c3)


def test_induced_on_orbits():
    c4 = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    z = PermGroup(4, [cyc(4, (0, 2), (1, 3))])
    induced = c4.induced_on_orbits(z)
    assert induced.degree == 2
    assert induced.elements() == PermGroup(2, [cyc(2, (0, 1))]).elements()


def test_induced_on_trivial_is_isomorphic_copy():
    g = fixture_example1(2)
    induced = g.induced_on_orbits(PermGroup(6))
    assert induced.order() == g.order()
    assert sorted(map(len, induced.orbits())) == sorted(map(len, g.orbits()))


def test_induced_rejects_non_block_partitions():
    g = PermGroup(4, [cyc(4, (1, 2))])
    inner = PermGroup(4, [cyc(4, (0, 1))])
    with pytest.raises(NotBlockSystem):
        g.induced_on_orbits(inner)
    with pytest.raises(ValueError, match="degree mismatch"):
        g.induced_on_orbits(PermGroup(3))


def test_is_abelian_and_is_p_group():
    c4 = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    assert c4.is_abelian()
    assert prime_factors(c4.order()) == (2,)
    sym3 = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    assert not sym3.is_abelian()
    assert prime_factors(sym3.order()) == (2, 3)
    assert prime_factors(PermGroup(2).order()) == ()


def test_cyclic_constituents():
    assert PermGroup(4, [cyc(4, (0, 1, 2, 3))]).cyclic_constituents()
    assert fixture_example1(2).cyclic_constituents()
    klein = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    assert not klein.cyclic_constituents()


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(13) == (13,)
    assert prime_factors(360) == (2, 3, 5)


@settings(deadline=None)
@given(perm_groups(max_degree=5, max_gens=2))
def test_elements_closed_under_composition_and_inverse(g):
    els = g.elements()
    assert Permutation.identity(g.degree) in els
    assert all(x.inverse() in els for x in els)
    assert all(x * y in els for x in els for y in els)


@settings(deadline=None, max_examples=300)
@given(st.one_of(perm_groups(max_degree=6, max_gens=3), abelian_instances(24)))
def test_orbits_match_independent_union_find(g):
    assert g.orbits() == reference_orbits(g)[0]


def test_orbits_match_independent_union_find_on_the_wider_families():
    # orbits joined from several generators' cycles, and orbits of
    # composite size that no one generator walks; abelian_instances,
    # above, gives the fixed points
    groups = [random_coupled_blocks(seed, 36) for seed in range(300)]
    groups += [blocks_of_six(50, shifts) for shifts in ((1,), (1, 3), (3, 2))]
    groups += [random_regular_abelian(seed, 60) for seed in range(100)]
    for g in groups:
        assert g.orbits() == reference_orbits(g)[0], g


@settings(deadline=None, max_examples=40)
@given(abelian_instances(max_degree=8))
def test_cross_orbit_stabilizer_order_divides_constituent_order(g):
    classes = g.orbits()
    for cls in classes:
        constituent_order = g.restriction(cls).order()
        for other in classes:
            if other == cls:
                continue
            induced = g.pointwise_stabilizer(other).restriction(cls)
            assert constituent_order % induced.order() == 0


@settings(deadline=None, max_examples=30)
@given(abelian_instances(max_degree=8))
def test_quasiregular_order_divides_product_of_orbit_sizes(g):
    product = 1
    for size in map(len, g.orbits()):
        product *= size
    assert product % g.order() == 0
