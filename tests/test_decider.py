import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abelian_instances
from twoclosure.decider import (
    ORBIT_REMOVAL,
    SYLOW_SPLIT,
    TRANSITIVE_BASE,
    VALIDATE,
    ZEL_NOT_INSIDE,
    ZEL_REDUCE,
    PreconditionFailed,
    ReductionTrace,
    Step,
    decide_2_closed,
    decide_with_oracle_check,
)
from twoclosure.fixtures import fixture_example1, fixture_example2
from twoclosure.oracle import is_2_closed_oracle
from twoclosure.perm import CapExceeded, PermGroup, Permutation


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def kinds(trace):
    return tuple(step.kind for step in trace.steps)


def check_trace(trace):
    """The structural invariants every trace must satisfy."""
    steps = trace.steps
    assert steps[0].kind == VALIDATE
    chain_kinds = {TRANSITIVE_BASE, ZEL_NOT_INSIDE, ZEL_REDUCE, ORBIT_REMOVAL}
    chain_start = None
    chain_len = 0
    for i, step in enumerate(steps):
        if step.kind in (ZEL_REDUCE, ORBIT_REMOVAL):
            assert i + 1 < len(steps)
            assert steps[i + 1].degree < step.degree
        if step.kind == ZEL_NOT_INSIDE:
            assert i == len(steps) - 1
            assert trace.verdict is False
        if step.kind in chain_kinds:
            if chain_start is None:
                chain_start = step.degree
                chain_len = 0
            chain_len += 1
            assert chain_len <= chain_start
            if step.kind in (TRANSITIVE_BASE, ZEL_NOT_INSIDE):
                chain_start = None
        else:
            chain_start = None


def test_regular_c8_is_closed_via_transitive_base():
    ok, trace = decide_2_closed(PermGroup(8, [cyc(8, tuple(range(8)))]))
    assert ok
    assert kinds(trace) == (VALIDATE, TRANSITIVE_BASE)
    check_trace(trace)


def test_example1_fails_at_the_zel_inclusion():
    for p in (2, 3):
        ok, trace = decide_2_closed(fixture_example1(p))
        assert not ok
        assert trace.steps[-1].kind == ZEL_NOT_INSIDE
        check_trace(trace)


def test_example2_removes_an_orbit_then_fails():
    ok, trace = decide_2_closed(fixture_example2(2))
    assert not ok
    assert kinds(trace) == (VALIDATE, ORBIT_REMOVAL, ZEL_NOT_INSIDE)
    assert trace.steps[1].detail == (0, 1)
    assert trace.steps[1].degree == 12
    assert trace.steps[2].degree == 10
    check_trace(trace)


def test_trivial_group_on_several_points_is_closed():
    ok, trace = decide_2_closed(PermGroup.trivial(3))
    assert ok
    assert kinds(trace) == (VALIDATE, SYLOW_SPLIT)
    assert trace.steps[1].detail == ()
    check_trace(trace)


def test_degree_zero_group_is_closed():
    ok, trace = decide_2_closed(PermGroup(0))
    assert ok
    check_trace(trace)


def test_composite_order_splits_by_prime():
    g = PermGroup(5, [cyc(5, (0, 1)), cyc(5, (2, 3, 4))])
    ok, trace = decide_2_closed(g)
    assert ok
    assert trace.steps[1].kind == SYLOW_SPLIT
    assert trace.steps[1].detail == (2, 3)
    assert is_2_closed_oracle(g)
    check_trace(trace)


def test_zel_reduce_step_records_orbit_sizes():
    # two coupled shifts: zel lands inside the group and the action on
    # its orbits is what remains
    g = PermGroup(4, [cyc(4, (0, 1)), cyc(4, (2, 3))])
    ok, trace = decide_2_closed(g)
    assert ok
    assert kinds(trace)[1] == ZEL_REDUCE
    assert trace.steps[1].detail == (2, 2)
    check_trace(trace)


def test_precondition_rejects_non_cyclic_constituents():
    klein = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    with pytest.raises(PreconditionFailed):
        decide_2_closed(klein)


def test_cap_is_honored():
    with pytest.raises(CapExceeded):
        decide_2_closed(fixture_example1(3), cap=5)


def _stack_depth():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_long_chain_does_not_grow_the_stack():
    # one involution swapping 60 pairs: 59 orbit removals, then the base case
    blocks = 60
    swap = cyc(2 * blocks, *((2 * i, 2 * i + 1) for i in range(blocks)))
    g = PermGroup(2 * blocks, [swap])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        ok, trace = decide_2_closed(g)
    finally:
        sys.setrecursionlimit(limit)
    assert ok
    assert kinds(trace) == (VALIDATE,) + (ORBIT_REMOVAL,) * (blocks - 1) + (TRANSITIVE_BASE,)
    check_trace(trace)


def test_step_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        Step("Nonsense", 3, 1)


def test_oracle_check_reports():
    report = decide_with_oracle_check(fixture_example1(2))
    assert report.decided is False
    assert report.oracle is False
    assert not report.mismatch

    report = decide_with_oracle_check(PermGroup(6, [cyc(6, tuple(range(6)))]))
    assert report.decided is True
    assert report.oracle is True
    assert not report.mismatch


def _relabel(group, perm):
    gens = [perm.inverse() * g * perm for g in group.generators]
    return PermGroup(group.degree, gens)


@settings(deadline=None, max_examples=30)
@given(abelian_instances(max_degree=9), st.randoms(use_true_random=False))
def test_verdict_is_invariant_under_relabeling(g, rng):
    images = list(range(g.degree))
    rng.shuffle(images)
    relabeled = _relabel(g, Permutation(tuple(images)))
    assert decide_2_closed(relabeled)[0] == decide_2_closed(g)[0]


@settings(deadline=None, max_examples=50)
@given(abelian_instances(max_degree=10))
def test_decision_agrees_with_oracle(g):
    report = decide_with_oracle_check(g)
    assert not report.mismatch
    check_trace(report.trace)
