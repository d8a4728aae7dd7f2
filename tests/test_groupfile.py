import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import perm_groups, reference_parse_group
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
    assert serialize_group(PermGroup(3)) == "degree 3\n"


def test_round_trip_fixtures():
    for g in (
        fixture_example1(2),
        fixture_example1(5),
        fixture_example2(3),
        PermGroup(4),
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


# One row per message the parser can produce: text, class, line, column, message.
_ERRORS = [
    ("# only a comment\n", ParseError, 2, 1, "missing 'degree N' header"),
    ("gen (0 1)", ParseError, 1, 1, "expected 'degree N' header"),
    ("degree x", ParseError, 1, 7, "expected a number after 'degree'"),
    ("degree 1000001", ParseError, 1, 8, "degree exceeds the limit 1000000"),
    ("degree 3\nfoo (0 1)", ParseError, 2, 1, "expected 'gen', got 'foo'"),
    ("degree 3\ngen", ParseError, 2, 4, "missing permutation after 'gen'"),
    ("degree 3\ngen {0 1}", ParseError, 2, 5, "expected '(' or '[', got '{'"),
    ("degree 3\ngen [0,,1,2]", ParseError, 2, 8, "expected a point, got ','"),
    ("degree 3\ngen (0 1", ParseError, 2, 9, "unclosed '('"),
    ("degree 3\ngen [0, 1, 2", ParseError, 2, 13, "unclosed '['"),
    ("degree 3\ngen (0 3)", InvalidPermutation, 2, 8, "point 3 out of range for degree 3"),
    ("degree 3\ngen [0, 1, 3]", InvalidPermutation, 2, 12, "value 3 out of range for degree 3"),
    ("degree 3\n\n  gen (0 1)(1 2)  ", InvalidPermutation, 3, 13, "point 1 repeated in cycles"),
    ("degree 3\ngen [0, 0, 1]", InvalidPermutation, 2, 9, "value 0 repeated in image list"),
    ("degree 3\ngen [0, 1]", InvalidPermutation, 2, 10, "image list has 2 entries, expected 3"),
    ("degree 3\ngen [0 1 2]  [1]", ParseError, 2, 14, "unexpected trailing '['"),
]


@pytest.mark.parametrize("text, cls, line, column, message", _ERRORS)
def test_every_error_message(text, cls, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_group(text)
    assert type(info.value) is cls
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


def test_blanks_and_one_comma_separate_points():
    assert parse_group("degree 3\ngen [,1 0\t2,]") == parse_group("degree 3\ngen [1,0,2]")
    assert parse_group("degree 3\ngen (,0, 1,)(,) (2)") == parse_group("degree 3\ngen (0 1)")
    assert parse_group("degree 3\ngen [001 0 2]") == parse_group("degree 3\ngen [1,0,2]")


# The header and the gen lines share one blank class, Unicode whitespace included.
@pytest.mark.parametrize("text", [
    "degree\u00a03\ngen (0 1)",
    "degree 3\ngen\u00a0(0 1)",
    "degree 3\ngen (0\u00a01)",
])
def test_unicode_blanks_separate_as_ascii_blanks_do(text):
    assert parse_group(text) == parse_group("degree 3\ngen (0 1)")


# int() refuses strings of more than 4300 digits; the parser never hands it one.
_HUGE_POINT = "degree 3\ngen (0 " + "1" * 5000 + ")"
_PADDED_IMAGES = "degree 3\ngen [" + "0" * 5000 + "1 0 2]"


def test_huge_point_is_out_of_range_at_its_column():
    with pytest.raises(InvalidPermutation) as info:
        parse_group(_HUGE_POINT)
    assert (info.value.line, info.value.column) == (2, 8)
    assert str(info.value) == f"line 2, column 8: point {'1' * 5000} out of range for degree 3"


def test_zero_padded_point_of_any_length_parses():
    assert parse_group(_PADDED_IMAGES).generators == (Permutation((1, 0, 2)),)
    # int() reads every Unicode decimal digit, and the parser reads them as int() does
    arabic_indic = "degree 3\ngen [" + "\u0660" * 5000 + "\u0661 0 2]"
    assert parse_group(arabic_indic) == parse_group(_PADDED_IMAGES)
    with pytest.raises(InvalidPermutation, match="point 13 out of range for degree 3"):
        parse_group("degree 3\ngen (\u0660\u0661\u0663)")


_FRAGMENTS = ("0", "1", "2", "3", "10", "007", " ", "  ", "\t", ",", "(", ")", "[", "]", "x", "#")
_NEAR_VALID_LINE = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map(lambda xs: "gen " + "".join(xs)),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map("".join),
    st.text(max_size=12),
)
_NEAR_VALID = st.builds(
    lambda degree, lines: "\n".join([f"degree {degree}", *lines]),
    st.integers(0, 4),
    st.lists(_NEAR_VALID_LINE, max_size=4),
)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(max_size=40), _NEAR_VALID))
@example(_HUGE_POINT)
@example(_PADDED_IMAGES)
def test_parse_returns_a_group_or_raises_parse_error(text):
    try:
        group = parse_group(text)
    except ParseError:
        return
    assert isinstance(group, PermGroup)


def _outcome(parse, text):
    """The group a parser returns, or the class, position and message it raises."""
    try:
        group = parse(text)
    except ParseError as exc:
        return type(exc), exc.line, exc.column, str(exc)
    return group.degree, group.generators


# Where a line holds both a bad point and a syntax error, the earlier one is reported.
_ORDERED = [
    "degree 3\ngen (0 5 x",
    "degree 3\ngen (0 1)(1 x",
    "degree 3\ngen (0 1)(2 1",
    "degree 3\ngen [0 0",
    "degree 3\ngen [0 1 9] junk",
    "degree 3\ngen (0 1) (2 ,, 0)",
    "degree 3\ngen (0,1,)( ,2)  (",
    "degree 12\ngen (10 11)(3 10)",
    "degree 3\ngen (1)(1)",
    "degree 0\ngen []",
    "degree 0\ngen ()()",
    "degree 3\ngen [2, 0, 1,]\ngen (0 2 1)",
]


@settings(deadline=None, max_examples=500)
@given(st.one_of(
    st.text(max_size=40),
    _NEAR_VALID,
    perm_groups(max_degree=8, max_gens=3).map(serialize_group),
    st.integers(0, 5_000).map(lambda seed: serialize_group(random_abelian_cyclic(seed, 16))),
))
@example(_HUGE_POINT)
@example(_PADDED_IMAGES)
@example("degree 3\ngen [" + "\u0660" * 5000 + "\u0661 0 2]")
@example("degree 3\ngen (\u0660\u0661\u0663)")
def test_parser_matches_the_reference_scanner(text):
    assert _outcome(parse_group, text) == _outcome(reference_parse_group, text)


@pytest.mark.parametrize("text", _ORDERED + [row[0] for row in _ERRORS])
def test_parser_matches_the_reference_on_ordered_errors(text):
    assert _outcome(parse_group, text) == _outcome(reference_parse_group, text)


# Groups that never close.  A pattern that can split one digit run, or one
# run of blanks, two ways tries exponentially many splits before it gives up.
_UNCLOSED = [
    "(" + "1" * 28,
    "(" + "1 " * 28 + "x",
    "(" + "1  ,  " * 28 + ",",
    "(0 1)" * 28 + "(" + "1" * 28 + " ,,",
    "[" + "1" * 28 + " x",
    "[" + " ,1 " * 28 + "]]",
]


@pytest.mark.parametrize("body", _UNCLOSED)
def test_unclosed_group_is_refused_in_linear_time(body):
    text = f"degree 2\ngen {body}\n"
    start = time.process_time()
    outcome = _outcome(parse_group, text)
    assert time.process_time() - start < 1
    assert outcome == _outcome(reference_parse_group, text)
