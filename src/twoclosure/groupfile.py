"""Plain-text group files: a degree header plus one generator per line.

    # comments run to end of line
    degree 6
    gen (0 1)(4 5)
    gen [1,0,3,2,4,5]

Generators are written either in disjoint-cycle notation or as a full
image list in brackets; inside either form, spaces and commas both
separate numbers.  The format round-trips: parse(serialize(G)) == G.
A degree above MAX_DEGREE is refused before anything is allocated.
"""

from __future__ import annotations

import re

from .perm import PermGroup, Permutation

_NUMBER = re.compile(r"\d+")

# Deciding a degree-10^6 group already takes about 30 s and 1 GB (Python
# 3.11, 2 vCPUs); far larger headers exhaust memory or overflow.
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
            rest = stripped[len(word):]
            m = re.fullmatch(r"\s+(\d+)\s*", rest)
            if not m:
                raise ParseError("expected a number after 'degree'", lineno,
                                 indent + len(word) + 1)
            digits = m.group(1).lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"degree exceeds the limit {MAX_DEGREE}",
                                 lineno, indent + len(word) + m.start(1) + 1)
            degree = int(digits)
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
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _scan_number(line: str, pos: int, lineno: int) -> tuple[int, int, int]:
    """Read one integer; returns (value, its column, position after it)."""
    m = _NUMBER.match(line, pos)
    if not m:
        found = line[pos] if pos < len(line) else "end of line"
        raise ParseError(f"expected a point, got {found!r}", lineno, pos + 1)
    return int(m.group()), pos + 1, m.end()


def _parse_perm(line: str, pos: int, degree: int, lineno: int) -> Permutation:
    pos = _skip_spaces(line, pos)
    if pos >= len(line):
        raise ParseError("missing permutation after 'gen'", lineno, pos + 1)
    if line[pos] == "[":
        return _parse_images(line, pos, degree, lineno)
    if line[pos] == "(":
        return _parse_cycles(line, pos, degree, lineno)
    raise ParseError(
        f"expected '(' or '[', got {line[pos]!r}", lineno, pos + 1
    )


def _parse_images(line: str, pos: int, degree: int, lineno: int) -> Permutation:
    pos += 1  # past '['
    images: list[int] = []
    seen = set()
    while True:
        pos = _skip_spaces(line, pos)
        if pos < len(line) and line[pos] == ",":
            pos = _skip_spaces(line, pos + 1)
        if pos >= len(line):
            raise ParseError("unclosed '['", lineno, pos + 1)
        if line[pos] == "]":
            pos += 1
            break
        value, column, pos = _scan_number(line, pos, lineno)
        if value >= degree:
            raise InvalidPermutation(
                f"value {value} out of range for degree {degree}", lineno, column
            )
        if value in seen:
            raise InvalidPermutation(
                f"value {value} repeated in image list", lineno, column
            )
        seen.add(value)
        images.append(value)
    _expect_end(line, pos, lineno)
    if len(images) != degree:
        raise InvalidPermutation(
            f"image list has {len(images)} entries, expected {degree}",
            lineno, pos,
        )
    return Permutation(tuple(images))


def _parse_cycles(line: str, pos: int, degree: int, lineno: int) -> Permutation:
    cycles: list[list[int]] = []
    seen = set()
    while pos < len(line) and line[pos] == "(":
        pos += 1
        cycle: list[int] = []
        while True:
            pos = _skip_spaces(line, pos)
            if pos < len(line) and line[pos] == ",":
                pos = _skip_spaces(line, pos + 1)
            if pos >= len(line):
                raise ParseError("unclosed '('", lineno, pos + 1)
            if line[pos] == ")":
                pos += 1
                break
            value, column, pos = _scan_number(line, pos, lineno)
            if value >= degree:
                raise InvalidPermutation(
                    f"point {value} out of range for degree {degree}", lineno, column
                )
            if value in seen:
                raise InvalidPermutation(
                    f"point {value} repeated in cycles", lineno, column
                )
            seen.add(value)
            cycle.append(value)
        if cycle:
            cycles.append(cycle)
        pos = _skip_spaces(line, pos)
    _expect_end(line, pos, lineno)
    return Permutation.from_cycles(degree, cycles)


def _expect_end(line: str, pos: int, lineno: int) -> None:
    pos = _skip_spaces(line, pos)
    if pos < len(line):
        raise ParseError(
            f"unexpected trailing {line[pos]!r}", lineno, pos + 1
        )
