"""Plain-text group files: a degree header plus one generator per line.

    # comments run to end of line
    degree 6
    gen (0 1)(4 5)
    gen [1,0,3,2,4,5]

A generator is written in disjoint-cycle notation, a run of (...) groups,
or as a full image list, one [...] group.  Inside a group, points are
separated by blanks (any Unicode whitespace, as in the header) or by
one comma, which may also lead or trail; they may carry leading zeros,
and () is the identity.  The format round-trips:
parse(serialize(G)) == G.  A degree above MAX_DEGREE is refused before
anything is allocated, and every malformed file raises ParseError.
"""

from __future__ import annotations

import re

from .perm import PermGroup, Permutation

# blanks, at most one comma, blanks, then the digits of a point (maybe
# none); a blank is any Unicode whitespace (\s, str.isspace) on every line
_POINT = re.compile(r"\s*,?\s*(\d*)")

# At degree 10^6, diag Z2 on 500 000 blocks parses in 4 s and decides in
# 13 s, with 410 MB max RSS for the whole process, text generation
# included (Python 3.11, 2 shared vCPUs); far larger headers exhaust
# memory or overflow.
MAX_DEGREE = 1_000_000


class ParseError(ValueError):
    """Malformed group text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvalidPermutation(ParseError):
    """Syntactically fine, but not a permutation of 0..degree-1."""


def parse_group(text: str) -> PermGroup:
    degree = None
    generators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        word = stripped.split(None, 1)[0]
        if degree is None:
            if word != "degree":
                raise ParseError("expected 'degree N' header", lineno, indent + 1)
            m = re.fullmatch(r"\s+(\d+)\s*", stripped[len(word):])
            if not m:
                raise ParseError("expected a number after 'degree'", lineno,
                                 indent + len(word) + 1)
            _, degree = _number(m.group(1), MAX_DEGREE)
            if degree is None or degree > MAX_DEGREE:
                raise ParseError(f"degree exceeds the limit {MAX_DEGREE}",
                                 lineno, indent + len(word) + m.start(1) + 1)
            continue
        if word != "gen":
            raise ParseError(f"expected 'gen', got {word!r}", lineno, indent + 1)
        pos = indent + len(word)
        generators.append(_parse_perm(line, pos, degree, lineno))
    if degree is None:
        raise ParseError("missing 'degree N' header", max(1, text.count("\n") + 1), 1)
    return PermGroup(degree, generators)


def serialize_group(group: PermGroup) -> str:
    lines = [f"degree {group.degree}"]
    lines.extend(f"gen {g}" for g in group.generators)
    return "\n".join(lines) + "\n"


def _skip_spaces(line: str, pos: int) -> int:
    while pos < len(line) and line[pos].isspace():
        pos += 1
    return pos


def _number(digits: str, limit: int) -> tuple[str, int | None]:
    """The digits in ASCII without leading zeros, and their value, or None if
    there are more digits than limit has (int() refuses more than 4300)."""
    if not digits.isascii():  # other Unicode decimal digits, as int() reads them
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    return digits, int(digits) if len(digits) <= len(str(limit)) else None


def _parse_perm(line: str, pos: int, degree: int, lineno: int) -> Permutation:
    seen: set[int] = set()

    def group(bracket: str) -> list[int]:
        """The points of the group whose opening bracket is at pos; pos moves past it."""
        nonlocal pos
        if bracket == "(":
            close, noun, kind = ")", "point", "cycles"
        else:
            close, noun, kind = "]", "value", "image list"
        points = []
        pos += 1
        while True:
            m = _POINT.match(line, pos)
            pos, digits = m.start(1), m.group(1)
            if not digits:
                if pos >= len(line):
                    raise ParseError(f"unclosed {bracket!r}", lineno, pos + 1)
                if line[pos] == close:
                    pos += 1
                    return points
                raise ParseError(f"expected a point, got {line[pos]!r}", lineno, pos + 1)
            shown, value = _number(digits, degree)
            if value is None or value >= degree:
                raise InvalidPermutation(f"{noun} {shown} out of range for degree {degree}",
                                         lineno, pos + 1)
            if value in seen:
                raise InvalidPermutation(f"{noun} {value} repeated in {kind}", lineno, pos + 1)
            seen.add(value)
            points.append(value)
            pos = m.end()

    pos = _skip_spaces(line, pos)
    if pos >= len(line):
        raise ParseError("missing permutation after 'gen'", lineno, pos + 1)
    bracket = line[pos]
    if bracket not in "([":
        raise ParseError(f"expected '(' or '[', got {bracket!r}", lineno, pos + 1)
    groups = [group(bracket)]
    end = pos
    pos = _skip_spaces(line, pos)
    while bracket == "(" and pos < len(line) and line[pos] == "(":
        groups.append(group("("))
        pos = _skip_spaces(line, pos)
    if pos < len(line):
        raise ParseError(f"unexpected trailing {line[pos]!r}", lineno, pos + 1)
    if bracket == "(":
        return Permutation.from_cycles(degree, groups)
    if len(groups[0]) != degree:
        raise InvalidPermutation(
            f"image list has {len(groups[0])} entries, expected {degree}", lineno, end)
    return Permutation(tuple(groups[0]))
