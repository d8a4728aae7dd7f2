import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abelian_instances, reference_zel, witness
from twoclosure.decider import PreconditionFailed
from twoclosure.fixtures import (
    fixture_example1,
    fixture_example2,
    random_regular_abelian,
)
from twoclosure.oracle import is_2_closed_oracle, two_closure
from twoclosure.perm import PermGroup, Permutation, prime_factors
from twoclosure.reduction import (
    NotAnOrbit,
    NotNilpotent,
    remove_orbit,
    sylow_decomposition,
    zel,
)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_sylow_of_regular_c6():
    g = PermGroup(6, [cyc(6, tuple(range(6)))])
    parts = dict(sylow_decomposition(g))
    assert tuple(parts) == (2, 3)
    assert parts[2].order() == 2
    assert parts[3].order() == 3
    assert parts[2].generators == (cyc(6, (0, 3), (1, 4), (2, 5)),)


def test_sylow_of_p_group_is_itself():
    g = fixture_example1(2)
    parts = dict(sylow_decomposition(g))
    assert tuple(parts) == (2,)
    assert parts[2].elements() == g.elements()


def test_sylow_parts_fix_foreign_orbits_pointwise():
    g = PermGroup(5, [cyc(5, (0, 1)), cyc(5, (2, 3, 4))])
    parts = dict(sylow_decomposition(g))
    assert parts[2].restriction([2, 3, 4]).is_trivial()
    assert parts[3].restriction([0, 1]).is_trivial()
    assert parts[2].elements() == PermGroup(5, [cyc(5, (0, 1))]).elements()


def test_sylow_of_trivial_group_has_no_parts():
    assert sylow_decomposition(PermGroup(3)) == ()


def test_sylow_rejects_nonabelian_input():
    sym3 = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    with pytest.raises(NotNilpotent):
        sylow_decomposition(sym3)


@settings(deadline=None, max_examples=40)
@given(abelian_instances(max_degree=10))
def test_sylow_parts_multiply_generate_and_commute(g):
    dec = sylow_decomposition(g)
    product = 1
    for p, part in dec:
        assert prime_factors(part.order()) == (p,)
        product *= part.order()
    assert product == g.order()
    regenerated = PermGroup(
        g.degree, [x for _, part in dec for x in part.generators]
    )
    assert regenerated.elements() == g.elements()
    for i, (_, a) in enumerate(dec):
        for _, b in dec[i + 1 :]:
            assert all(x * y == y * x for x in a.generators for y in b.generators)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2_000))
def test_sylow_orbit_sizes_in_regular_abelian_groups(seed):
    g = random_regular_abelian(seed, 12)
    n = g.degree
    for p, part in sylow_decomposition(g):
        n_p = 1
        while n % (n_p * p) == 0:
            n_p *= p
        assert set(map(len, part.orbits())) == {n_p}


@settings(deadline=None, max_examples=40)
@given(abelian_instances(max_degree=10))
def test_reductions_keep_constituents_cyclic(g):
    for _, part in sylow_decomposition(g):
        assert part.cyclic_constituents()
    classes = g.orbits()
    if len(classes) >= 2:
        z = zel(g)
        if not z.is_trivial() and z.is_subgroup_of(g):
            assert g.induced_on_orbits(z).cyclic_constituents()
    if classes:
        assert remove_orbit(g, classes[0]).cyclic_constituents()


def test_zel_of_example1_is_p_cubed_acting_per_orbit():
    for p in (2, 3):
        g = fixture_example1(p)
        z = zel(g)
        assert z.order() == p ** 3
        for cls in g.orbits():
            assert z.restriction(cls).order() == p


def test_zel_of_example2_is_trivial():
    assert zel(fixture_example2(2)).is_trivial()
    assert zel(fixture_example2(3)).is_trivial()


def test_zel_of_glued_two_orbit_group_is_trivial():
    # both cross-orbit stabilizers are trivial
    g = PermGroup(4, [cyc(4, (0, 1), (2, 3))])
    assert zel(g).is_trivial()


def test_zel_of_independent_shifts_is_whole_group():
    g = PermGroup(4, [cyc(4, (0, 1)), cyc(4, (2, 3))])
    assert zel(g).elements() == g.elements()
    assert zel(g).is_subgroup_of(g)


def test_zel_rejects_transitive_input():
    with pytest.raises(ValueError, match="transitive"):
        zel(PermGroup(4, [cyc(4, (0, 1, 2, 3))]))


def test_zel_rejects_input_outside_the_class():
    # the Klein four-group next to a fixed point: a non-cyclic constituent
    klein = PermGroup(5, [cyc(5, (0, 1), (2, 3)), cyc(5, (0, 2), (1, 3))])
    with pytest.raises(PreconditionFailed):
        zel(klein)
    # a non-abelian group with two orbits
    with pytest.raises(PreconditionFailed):
        zel(PermGroup(4, [cyc(4, (0, 1)), cyc(4, (0, 1, 2))]))


def assert_zel_matches_reference(g):
    z, ref = zel(g), reference_zel(g)
    assert z.elements() == ref.elements(), g
    assert len(z.generators) == sum(not ref.restriction(c).is_trivial() for c in g.orbits())


def test_zel_index_is_an_lcm_across_primes():
    # Z6 shifting blocks of size 6, 2 and 3 together: fixing the 2-block
    # leaves even shifts on the 6-block, fixing the 3-block multiples of
    # 3, so the factor on the 6-block has index lcm(2, 3) = 6: trivial
    g = PermGroup(11, [cyc(11, tuple(range(6)), (6, 7), (8, 9, 10))])
    assert zel(g).is_trivial()
    assert_zel_matches_reference(g)


def test_zel_matches_reference(sweep_pool, coupled_pool):
    pools = [fixture_example1(p) for p in (2, 3, 5, 7)]
    pools += [fixture_example2(p) for p in (2, 3, 5)]
    for g in pools + sweep_pool + coupled_pool:
        if len(g.orbits()) >= 2:
            assert_zel_matches_reference(g)


def test_zel_condition_on_fixtures():
    for g, inside in (
        (fixture_example1(2), False),
        (fixture_example1(3), False),
        (fixture_example2(2), True),
    ):
        assert zel(g).is_subgroup_of(g) is inside


def test_zel_factors_match_direct_intersection():
    g = fixture_example1(2)
    z = zel(g)
    classes = g.orbits()
    for cls in classes:
        factor = None
        for other in classes:
            if other == cls:
                continue
            els = g.pointwise_stabilizer(other).restriction(cls).elements()
            factor = els if factor is None else factor & els
        assert z.restriction(cls).elements() == factor


@settings(deadline=None, max_examples=40)
@given(abelian_instances(max_degree=9))
def test_zel_is_inside_the_closure(g):
    if len(g.orbits()) < 2:
        return
    assert zel(g).is_subgroup_of(two_closure(g))


def test_witness_on_example2_is_the_twin_orbit():
    h = fixture_example2(2)
    assert witness(h, (0, 1)) == (6, 7)
    assert witness(h, (6, 7)) == (0, 1)


def test_example1_has_no_witness():
    g = fixture_example1(2)
    for cls in g.orbits():
        assert witness(g, cls) is None


def test_fixed_point_with_another_orbit_has_witness():
    g = PermGroup(3, [cyc(3, (1, 2))])
    assert witness(g, (0,)) == (1, 2)


def test_remove_fixed_point_keeps_the_group():
    g = PermGroup(3, [cyc(3, (1, 2))])
    smaller = remove_orbit(g, (0,))
    assert smaller.degree == 2
    assert smaller.order() == g.order()


def test_removing_second_copy_of_example2_yields_example1():
    # strip the second copy from the tail so surviving points keep their labels
    h = fixture_example2(2)
    for orbit in ((10, 11), (8, 9), (6, 7)):
        h = remove_orbit(h, orbit)
    assert h == fixture_example1(2)


def test_remove_unique_orbit_gives_degree_zero():
    g = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    empty = remove_orbit(g, (0, 1, 2, 3))
    assert empty.degree == 0
    assert empty.order() == 1


def test_remove_orbit_rejects_non_orbits():
    with pytest.raises(NotAnOrbit):
        remove_orbit(PermGroup(4, [cyc(4, (0, 1, 2, 3))]), (0, 1))


@settings(deadline=None, max_examples=25)
@given(abelian_instances(max_degree=9))
def test_witnessed_removal_preserves_closedness(g):
    classes = g.orbits()
    if len(classes) < 2:
        return
    for cls in classes:
        if witness(g, cls) is not None:
            assert is_2_closed_oracle(g) == is_2_closed_oracle(remove_orbit(g, cls))
