"""The code keeps to Python 3.10, the oldest version pyproject.toml accepts.

Every module must parse under the 3.10 grammar, and no regular expression
in the package may use syntax that the 3.10 ``re`` module refuses
(possessive quantifiers and atomic groups arrived in 3.11), so that a
newer interpreter running the tests cannot hide either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall", "finditer"}


def _newer_regex_syntax(pattern: str) -> list[str]:
    """The possessive quantifiers and atomic groups in a pattern."""
    plain = re.sub(r"\\.", "x", pattern)  # an escape stands for one character
    plain = re.sub(r"\[\^?\]?[^\]]*\]", "x", plain)  # and so does a class
    return [token for token in ("*+", "++", "?+", "}+", "(?>") if token in plain]


def _regex_literals(path: Path) -> list[str]:
    """The string literals passed as the pattern to an re function."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.func.attr in RE_FUNCTIONS
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def test_every_module_parses_as_python_3_10():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "scripts", "tests"}
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_src_regexes_use_no_python_3_11_syntax():
    patterns = [p for path in (ROOT / "src").rglob("*.py") for p in _regex_literals(path)]
    assert len(patterns) >= 5  # the group-file grammar's, at least
    assert [p for p in patterns if _newer_regex_syntax(p)] == []


def test_the_regex_check_sees_3_11_syntax():
    assert _newer_regex_syntax(r"(?:\s*,?\s*\d+)*+") == ["*+"]
    assert _newer_regex_syntax(r"(?>\d+)x{2}+") == ["}+", "(?>"]
    assert _newer_regex_syntax(r"\++[*+?]+\d?") == []
