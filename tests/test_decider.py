import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_instances,
    perm_groups,
    random_coupled_blocks,
    reference_coordinates,
    reference_decide,
    reference_pairwise_closure,
    reference_witness_scan,
    reference_zel_factors,
    stack_depth,
)
from twoclosure import decider
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
    zel,
)
from twoclosure.fixtures import (
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from twoclosure.cli import main
from twoclosure.coloring import orb2, preserves
from twoclosure.groupfile import serialize_group
from twoclosure.oracle import closure_order, is_2_closed_oracle
from twoclosure.perm import DEFAULT_CAP, PermGroup, Permutation, prime_factors


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


def test_long_chain_does_not_grow_the_stack():
    # one involution swapping 60 pairs: 59 orbit removals, then the base case
    blocks = 60
    swap = cyc(2 * blocks, *((2 * i, 2 * i + 1) for i in range(blocks)))
    g = PermGroup(2 * blocks, [swap])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        ok, trace = decide_2_closed(g)
    finally:
        sys.setrecursionlimit(limit)
    assert ok
    assert kinds(trace) == (VALIDATE,) + (ORBIT_REMOVAL,) * (blocks - 1) + (TRANSITIVE_BASE,)
    check_trace(trace)


def test_step_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown step kind 'Nonsense'"):
        Step("Nonsense", 3, 1)
    with pytest.raises(ValueError):
        Step(kind="Nonsense", degree=3, order=1, detail=(1,))
    with pytest.raises(ValueError):
        Step("Validate", 3, 1)._replace(kind="Nonsense")
    for kind in decider.STEP_KINDS:
        assert Step(kind, 3, 1).kind == kind


def test_oracle_check_reports():
    g = fixture_example1(2)
    assert decide_2_closed(g)[0] is False
    assert is_2_closed_oracle(g) is False

    g = PermGroup(6, [cyc(6, tuple(range(6)))])
    assert decide_2_closed(g)[0] is True
    assert is_2_closed_oracle(g) is True


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
    closed, trace = decide_2_closed(g)
    assert closed == is_2_closed_oracle(g)
    check_trace(trace)


def _outcome(decide, group):
    """Everything a caller can observe of one run: verdict and trace, or the refusal."""
    try:
        closed, trace = decide(group)
    except PreconditionFailed:
        return "PreconditionFailed"
    assert trace.verdict is closed
    return closed, tuple((s.kind, s.degree, s.order, s.detail) for s in trace.steps)


def assert_matches_reference(group):
    assert _outcome(decide_2_closed, group) == _outcome(reference_decide, group), group


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_trace_matches_reference_on_fixtures(p):
    assert_matches_reference(fixture_example1(p))
    assert_matches_reference(fixture_example2(p))


def test_trace_matches_reference_on_random_pools():
    for seed in range(300):
        assert_matches_reference(random_abelian_cyclic(seed, 12))
    for seed in range(100):
        assert_matches_reference(random_regular_abelian(seed, 12))


def test_trace_matches_reference_on_coupled_blocks(coupled_pool):
    wider = [random_coupled_blocks(seed, 24) for seed in range(100)]
    seen = set()
    not_closed = 0
    for g in coupled_pool + wider:
        assert_matches_reference(g)
        closed, trace = decide_2_closed(g)
        check_trace(trace)
        seen.update(kinds(trace))
        not_closed += not closed
    assert seen == {VALIDATE, TRANSITIVE_BASE, SYLOW_SPLIT, ZEL_NOT_INSIDE, ZEL_REDUCE, ORBIT_REMOVAL}
    assert not_closed >= len(coupled_pool + wider) / 4


def test_decision_agrees_with_oracle_on_coupled_blocks(coupled_pool):
    verdicts = [decide_2_closed(g)[0] for g in coupled_pool]
    assert not [i for i, g in enumerate(coupled_pool) if verdicts[i] != is_2_closed_oracle(g)]
    assert sum(not closed for closed in verdicts) >= len(coupled_pool) / 4


@settings(deadline=None, max_examples=100)
@given(perm_groups(max_degree=6, max_gens=3))
def test_trace_matches_reference_on_arbitrary_groups(g):
    assert_matches_reference(g)


@settings(deadline=None, max_examples=100)
@given(
    abelian_instances(max_degree=14)
    | st.integers(0, 10_000).map(lambda s: random_coupled_blocks(s, 20))
)
def test_trace_matches_reference_property(g):
    assert_matches_reference(g)


def test_decider_enumerates_no_group(monkeypatch, coupled_pool, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the decider enumerated a group")

    for name in ("elements", "order", "pointwise_stabilizer", "is_subgroup_of",
                 "cyclic_constituents"):
        monkeypatch.setattr(PermGroup, name, refuse)
    monkeypatch.setattr(PermGroup, "from_elements", staticmethod(refuse))
    groups = coupled_pool[:100] + [fixture_example1(5), fixture_example2(3)]
    for g in groups:
        decide_2_closed(g)
        if len(g.orbits()) > 1:
            zel(g)
    path = tmp_path / "g.grp"
    for g in groups[:20] + groups[-2:]:
        path.write_text(serialize_group(g))
        assert main(["decide", str(path)]) in (0, 1)
        if len(g.orbits()) > 1:
            assert main(["zel", str(path)]) == 0
    capsys.readouterr()


def coordinates_or_error(group, coordinates):
    try:
        return coordinates(group)
    except PreconditionFailed as error:
        return str(error)


def assert_coordinates_match_reference(group):
    got = coordinates_or_error(group, decider._coordinates)
    want = coordinates_or_error(group, reference_coordinates)
    assert got == want, (group, got, want)
    if not isinstance(want, str):
        assert [list(field) for field in got] == [list(field) for field in want]


@settings(deadline=None, max_examples=300)
@given(st.one_of(perm_groups(max_degree=7, max_gens=3), abelian_instances(24)))
def test_coordinates_match_the_reference(g):
    # sizes, walks and rows, or the PreconditionFailed message naming the
    # first orbit, in order of minimal point, that is not cyclic
    assert_coordinates_match_reference(g)


def test_coordinates_match_the_reference_on_the_pools(sweep_pool, coupled_pool):
    for g in sweep_pool + coupled_pool:
        assert_coordinates_match_reference(g)
    for p in (2, 3, 5, 7, 11):
        assert_coordinates_match_reference(fixture_example1(p))
        assert_coordinates_match_reference(fixture_example2(p))


def test_the_first_orbit_that_fails_is_the_one_of_least_minimal_point():
    # generator 0 moves only the orbit of 3 and is walked first, but the
    # orbit of 0 comes first in order of minimal point; both are S3
    g = PermGroup(6, [cyc(6, (3, 4)), cyc(6, (0, 1), (4, 5)), cyc(6, (1, 2))])
    assert coordinates_or_error(g, decider._coordinates) == \
        "the constituent on the orbit of 0 is not cyclic"
    assert_coordinates_match_reference(g)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000).map(lambda s: random_coupled_blocks(s, 24)))
def test_sylow_part_coordinates_follow_the_points(g):
    # the p-component of each generator x, x^e with e = 1 mod the p-part
    # of its order and e = 0 mod the rest, moves the point at coordinate c
    # of every orbit of the Sylow part to the point at c + its shift
    orbits = decider._coordinates(g)
    for p in prime_factors(decider._order(orbits)):
        for i, x in enumerate(g.generators):
            m = x.order()
            while m % p == 0:
                m //= p
            images = (x ** (m * pow(m, -1, x.order() // m))).images
            part = decider._sylow_part(orbits, p)
            for q, points, row in zip(*part):
                assert all(0 < v < q for _, v in row)
                v = dict(row).get(i, 0)  # a generator the row leaves out fixes the orbit
                assert tuple(images[y] for y in points) == points[v:] + points[:v]


def _indep(sizes):
    """One orbit per size, each shifted by its own generator."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    degree = sum(sizes)
    return PermGroup(degree, [cyc(degree, tuple(range(s, s + q))) for s, q in zip(starts, sizes)])


def _diag(k, q):
    """One generator shifting each of k blocks of size q."""
    return PermGroup(k * q, [cyc(k * q, *(tuple(range(b * q, b * q + q)) for b in range(k)))])


def test_indep_10_z4_beyond_the_element_cap():
    # enumeration stops at DEFAULT_CAP elements; |G| = 4^10 is past it
    ok, trace = decide_2_closed(_indep((4,) * 10))
    assert 4 ** 10 > DEFAULT_CAP
    assert ok
    assert trace.steps[0] == Step(VALIDATE, 40, 4 ** 10)
    assert trace.steps[1] == Step(ZEL_REDUCE, 40, 4 ** 10, (4,) * 10)
    assert kinds(trace)[2:] == (ORBIT_REMOVAL,) * 9 + (TRANSITIVE_BASE,)
    assert trace.steps[-1] == Step(TRANSITIVE_BASE, 1, 1)
    check_trace(trace)


def test_diag_z2_on_1100_blocks():
    ok, trace = decide_2_closed(_diag(1100, 2))
    assert ok
    assert kinds(trace) == (VALIDATE,) + (ORBIT_REMOVAL,) * 1099 + (TRANSITIVE_BASE,)
    removals = trace.steps[1:-1]
    assert [s.degree for s in removals] == list(range(2200, 2, -2))
    assert all(s.order == 2 and s.detail == (0, 1) for s in removals)
    assert trace.steps[-1] == Step(TRANSITIVE_BASE, 2, 2)


def test_degree_ten_thousand():
    p = 3343  # prime, so example1(p) has degree 3p > 10^4
    ok, trace = decide_2_closed(fixture_example1(p))
    assert not ok
    assert trace.steps == (Step(VALIDATE, 3 * p, p * p), Step(ZEL_NOT_INSIDE, 3 * p, p * p))
    ok, trace = decide_2_closed(_diag(5000, 2))
    assert ok
    assert len(trace.steps) == 5001
    assert trace.steps[-2] == Step(ORBIT_REMOVAL, 4, 2, (0, 1))


def _wide_instance(seed):
    """Blocks of mixed prime-power size under six random shift generators."""
    rng = random.Random(seed)
    sizes = [rng.choice((2, 3, 4, 5, 8, 9)) for _ in range(12)]
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    degree = sum(sizes)
    gens = []
    for _ in range(6):
        images = list(range(degree))
        for start, size in zip(starts, sizes):
            v = rng.randrange(size) if rng.random() < 0.5 else 0
            for x in range(size):
                images[start + x] = start + (x + v) % size
        gens.append(Permutation(tuple(images)))
    return PermGroup(degree, gens)


def test_orders_agree_with_sympy_at_large_rank():
    """Schreier-Sims in sympy checks |G| and every Sylow part's order."""
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation as SymPermutation
    from sympy.combinatorics import PermutationGroup

    groups = [_indep((4,) * 10), _indep((4,) * 6 + (3,) * 5 + (5,) * 2)]
    groups += [_wide_instance(seed) for seed in range(4)]
    for g in groups:
        ok, trace = decide_2_closed(g)
        gens = [SymPermutation(list(x.images)) for x in g.generators]
        assert trace.steps[0].order == PermutationGroup(gens).order()
        if len(trace.steps) < 2 or trace.steps[1].kind != SYLOW_SPLIT:
            continue
        # each part's chain opens with the part's order and ends in its base case
        firsts = [trace.steps[2]] + [
            trace.steps[i + 1] for i in range(2, len(trace.steps) - 1)
            if trace.steps[i].kind == TRANSITIVE_BASE
        ]
        for p, first in zip(trace.steps[1].detail, firsts):
            p_parts = []
            for x in gens:
                m = x.order()
                while m % p == 0:
                    m //= p
                p_parts.append(x ** m)
            assert first.order == PermutationGroup(p_parts).order()


def assert_zel_factors_match_reference(group):
    """The hashed scan against the pairwise one, on the whole group, as
    zel() reads it, and on every Sylow part, as the chain does: f_D at
    every cut-off lo, and on the parts the last witnesses."""
    try:
        coords = decider._coordinates(group)
    except PreconditionFailed:
        return
    parts = [decider._sylow_part(coords, p) for p in prime_factors(decider._order(coords))]
    for part in [coords, *parts]:
        got, want = decider._witness_scan(part), reference_witness_scan(part)
        for lo in range(len(part.sizes)):
            assert decider._zel_factors(part, *got, lo) == reference_zel_factors(part, *want, lo), (group, lo)
        if part is not coords:
            assert got[0] == want[0], group


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 10**6), st.sampled_from([24, 64]))
def test_zel_factors_match_the_pairwise_reference(seed, degree):
    assert_zel_factors_match_reference(random_abelian_cyclic(seed, degree))
    assert_zel_factors_match_reference(random_coupled_blocks(seed, degree))


def test_zel_factors_match_the_pairwise_reference_on_fixtures():
    for p in (2, 3, 5, 7, 11):
        assert_zel_factors_match_reference(fixture_example1(p))
        assert_zel_factors_match_reference(fixture_example2(p))


def test_in_class_closure_matches_the_pairwise_reference(coupled_pool):
    # the forest's generators may differ from the echelon's, but they
    # generate a group of the same order with the same pair orbits; at
    # degree 40, some coupled blocks have rows that agree only up to a unit
    pool = [random_abelian_cyclic(seed, 64) for seed in range(100)] + coupled_pool
    pool += [random_coupled_blocks(seed, 40) for seed in range(300)]
    for g in pool:
        got, want = decider._pairwise_closure(g), reference_pairwise_closure(g)
        assert closure_order(got) == closure_order(want), g
        c = orb2(g)
        assert all(preserves(c, x) for x in got.generators), g
        assert orb2(got) == c, g
