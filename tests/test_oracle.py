import pytest
from hypothesis import given, settings

from conftest import abelian_instances, perm_groups
from twoclosure import oracle
from twoclosure.cli import main
from twoclosure.coloring import orb2
from twoclosure.fixtures import fixture_example1, fixture_example2
from twoclosure.oracle import (
    BudgetExceeded,
    SearchLimits,
    color_automorphisms,
    is_2_closed_oracle,
    two_closure,
)
from twoclosure.perm import PermGroup, Permutation


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def test_closure_of_trivial_group_is_trivial():
    # the discrete pair partition pins every point
    cl = two_closure(PermGroup.trivial(4))
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
        two_closure(PermGroup.trivial(15))


def test_degree_bound_is_checked_before_the_pair_coloring(monkeypatch, tmp_path, capsys):
    # the n x n coloring of a huge group must never be allocated
    def no_coloring(group):
        raise AssertionError("orb2 called above the degree bound")

    monkeypatch.setattr(oracle, "orb2", no_coloring)
    with pytest.raises(BudgetExceeded):
        two_closure(PermGroup.trivial(15))
    path = tmp_path / "wide.grp"
    path.write_text("degree 3000\ngen (0 1)\n")
    for argv in (["closure", str(path)], ["decide", str(path), "--oracle-check"]):
        assert main(argv) == 2
        assert "exceeds search bound" in capsys.readouterr().err


def test_node_budget_raises():
    with pytest.raises(BudgetExceeded):
        two_closure(PermGroup.trivial(8), SearchLimits(max_nodes=5))


def test_color_automorphisms_of_two_color_square():
    # one diagonal color, one off-diagonal color: everything is allowed
    c = orb2(PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))]))
    assert c.num_colors == 2
    assert len(color_automorphisms(c)) == 6


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
    for cls in cl.orbits().classes:
        assert cl.restriction(cls).order() == len(cls)
