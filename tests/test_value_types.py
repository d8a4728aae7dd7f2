"""The value types' contract: construction, equality, hashing, repr,
immutability and, for Permutation, ordering.

Each type is a record of its fields: equal fields give equal values with
equal hashes, the repr names the fields, assigning a field raises
AttributeError, and a value survives a pickle round trip.
"""

import pickle

import pytest

from twoclosure.coloring import PairColoring
from twoclosure.decider import ReductionTrace, Step
from twoclosure.oracle import MAX_ORACLE_DEGREE, MAX_ORACLE_NODES, SearchLimits
from twoclosure.perm import Permutation

STEP = Step("ZelReduce", 6, 9, (3, 3))

# (value, an equal value built from the same fields, a value with other fields, repr)
CASES = [
    (Permutation((1, 0, 2)), Permutation(images=(1, 0, 2)), Permutation((0, 2, 1)),
     "Permutation((1, 0, 2))"),
    (PairColoring(((0, 1), (1, 0))), PairColoring(matrix=((0, 1), (1, 0))),
     PairColoring(((0, 1), (2, 3))),
     "PairColoring(matrix=((0, 1), (1, 0)))"),
    (STEP, Step(kind="ZelReduce", degree=6, order=9, detail=(3, 3)), Step("ZelReduce", 6, 9),
     "Step(kind='ZelReduce', degree=6, order=9, detail=(3, 3))"),
    (ReductionTrace((STEP,), True), ReductionTrace(steps=(STEP,), verdict=True),
     ReductionTrace((STEP,), False),
     "ReductionTrace(steps=(Step(kind='ZelReduce', degree=6, order=9, detail=(3, 3)),), "
     "verdict=True)"),
    (SearchLimits(), SearchLimits(MAX_ORACLE_DEGREE, MAX_ORACLE_NODES), SearchLimits(max_nodes=5),
     f"SearchLimits(max_degree={MAX_ORACLE_DEGREE}, max_nodes={MAX_ORACLE_NODES})"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(value, same, other, text):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_repr_names_the_fields(value, same, other, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(value, same, other, text):
    for name in _fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
    assert value == same


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_values_survive_pickling(value, same, other, text):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


def _fields(value):
    return {
        Permutation: ("images",),
        PairColoring: ("matrix",),
        Step: ("kind", "degree", "order", "detail"),
        ReductionTrace: ("steps", "verdict"),
        SearchLimits: ("max_degree", "max_nodes"),
    }[type(value)]


def test_defaults():
    assert Step("Validate", 3, 1).detail == ()
    assert SearchLimits().max_degree == MAX_ORACLE_DEGREE
    assert SearchLimits().max_nodes == MAX_ORACLE_NODES


def test_permutations_order_by_images():
    perms = [Permutation(images) for images in ((2, 0, 1), (0, 1, 2), (1, 2, 0), (0, 2, 1))]
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
    a, b = Permutation((0, 2, 1)), Permutation((1, 0, 2))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a or a > a)


def test_permutations_built_through_make_or_replace_are_checked():
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((1, 0, 2))._replace(images=(0, 0, 1))
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation._make([(2, 2)])


def test_permutations_neither_concatenate_nor_repeat():
    p = Permutation((1, 0))
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(AttributeError):  # p * q composes, so q must be a permutation
        p * 2
    assert p * p == Permutation((0, 1))
    assert (1,) + p == (1, (1, 0))  # tuple's own + runs first
