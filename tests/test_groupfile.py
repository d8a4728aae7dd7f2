import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perm_groups
from twoclosure.fixtures import fixture_example1, fixture_example2, random_abelian_cyclic
from twoclosure.groupfile import (
    MAX_DEGREE,
    InvalidPermutation,
    ParseError,
    parse_group,
    serialize_group,
)
from twoclosure.perm import PermGroup, Permutation


def test_parse_cycle_generator():
    g = parse_group("degree 4\ngen (0 1 2 3)")
    assert g == PermGroup(4, [Permutation((1, 2, 3, 0))])


def test_parse_image_list_generator():
    g = parse_group("degree 3\ngen [1,0,2]")
    assert g.generators == (Permutation((1, 0, 2)),)


def test_parse_point_out_of_range():
    with pytest.raises(InvalidPermutation) as info:
        parse_group("degree 2\ngen (0 1 2)")
    assert "point 2" in str(info.value)
    assert "out of range" in str(info.value)
    assert info.value.line == 2
    assert info.value.column == 10


def test_parse_comments_and_blank_lines():
    text = """
    # a four cycle with a spectator point
    degree 5
    gen (0 1 2 3)   # inline comment

    gen (0 2)(1 3)
    """
    g = parse_group(text)
    assert g.degree == 5
    assert len(g.generators) == 2


def test_parse_commas_and_spaces_both_separate():
    a = parse_group("degree 4\ngen (0,1)(2,3)")
    b = parse_group("degree 4\ngen (0 1)(2 3)")
    assert a == b
    assert parse_group("degree 3\ngen [2 0 1]") == parse_group("degree 3\ngen [2,0,1]")


def test_parse_empty_cycles_are_identity():
    g = parse_group("degree 3\ngen ()")
    assert g.is_trivial()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_group("")
    with pytest.raises(ParseError):
        parse_group("gen (0 1)\ndegree 2")
    with pytest.raises(ParseError):
        parse_group("degree x")
    with pytest.raises(ParseError):
        parse_group("degree 3\nfoo (0 1)")
    with pytest.raises(ParseError):
        parse_group("degree 3\ngen (0 1")
    with pytest.raises(ParseError):
        parse_group("degree 3\ngen [0, 1, 2")
    with pytest.raises(ParseError):
        parse_group("degree 3\ngen (0 1) junk")
    with pytest.raises(ParseError):
        parse_group("degree 3\ngen")
    with pytest.raises(ParseError):
        parse_group("degree 3\ngen {0 1}")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_group("degree 3\nfoo (0 1)")
    assert (info.value.line, info.value.column) == (2, 1)
    with pytest.raises(ParseError) as info:
        parse_group("degree 3\ngen (0 1) junk")
    assert (info.value.line, info.value.column) == (2, 11)


def test_degree_above_the_limit_is_refused_at_its_column():
    for text, column in (("degree 100000000000000000000\n", 8), ("  degree\t50000000", 10)):
        with pytest.raises(ParseError, match="exceeds the limit") as info:
            parse_group(text)
        assert (info.value.line, info.value.column) == (1, column)
    with pytest.raises(ParseError):
        parse_group(f"degree {MAX_DEGREE + 1}")
    assert parse_group(f"degree 00{MAX_DEGREE}").degree == MAX_DEGREE


def test_invalid_permutations():
    with pytest.raises(InvalidPermutation):
        parse_group("degree 4\ngen (0 1)(1 2)")  # repeated point
    with pytest.raises(InvalidPermutation):
        parse_group("degree 3\ngen [0, 1]")  # wrong length
    with pytest.raises(InvalidPermutation):
        parse_group("degree 3\ngen [0, 0, 1]")  # repeated value
    with pytest.raises(InvalidPermutation):
        parse_group("degree 3\ngen [0, 1, 3]")  # value out of range


def test_invalid_permutation_is_a_parse_error():
    assert issubclass(InvalidPermutation, ParseError)


def test_serialize_example1():
    assert serialize_group(fixture_example1(2)) == (
        "degree 6\ngen (0 1)(4 5)\ngen (2 3)(4 5)\n"
    )


def test_serialize_trivial_group():
    assert serialize_group(PermGroup.trivial(3)) == "degree 3\n"


def test_round_trip_fixtures():
    for g in (
        fixture_example1(2),
        fixture_example1(5),
        fixture_example2(3),
        PermGroup.trivial(4),
        PermGroup(0),
    ):
        assert parse_group(serialize_group(g)) == g


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5_000))
def test_round_trip_random_instances(seed):
    g = random_abelian_cyclic(seed, 12)
    assert parse_group(serialize_group(g)) == g


@given(perm_groups(max_degree=6, max_gens=3))
def test_round_trip_arbitrary_groups(g):
    text = serialize_group(g)
    again = parse_group(text)
    assert again == g
    assert serialize_group(again) == text


def test_two_digit_points_round_trip():
    g = PermGroup(12, [Permutation.from_cycles(12, [(0, 10, 11)])])
    assert parse_group(serialize_group(g)) == g
