"""Every public function, class and method of the package has a caller.

A public definition that nothing under src/, scripts/ or perfbench/ names
is library API that only the tests call: it costs lines and keeps nothing
the CLI, the scripts or the benchmark run.  The check is by name, read
from the syntax trees.  A function or class counts as named by a name,
an imported name or a string constant (``__all__``); a method by an
attribute name or a string constant (perfbench/spans.py wraps methods
by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "scripts", "perfbench")


def _trees(root: Path, top: str) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((root / top).rglob("*.py"))]


def _public(name: str) -> bool:
    return not name.startswith("_")


def unnamed_definitions(root: Path) -> list[str]:
    """The public top-level functions and classes, and the public methods of
    top-level classes, under root/src that no caller names, as module-free
    ``name`` or ``Class.method``, sorted."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for tree in _trees(root, "src"):
        for node in tree.body:
            if isinstance(node, defs) and _public(node.name):
                defined.append((None, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(node.name, item.name) for item in node.body
                            if isinstance(item, defs[:2]) and _public(item.name)]
    names, attributes, strings = set(), set(), set()
    for tree in (t for top in CALLERS for t in _trees(root, top)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):  # the imported name, and any name it is bound to
                names.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return sorted(
        name if owner is None else f"{owner}.{name}"
        for owner, name in defined
        if name not in strings and name not in (names if owner is None else attributes)
    )


def test_every_public_definition_in_src_has_a_caller():
    assert unnamed_definitions(ROOT) == []


def test_the_check_names_what_no_caller_names(tmp_path):
    for top in CALLERS:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def wrapped(): pass\n"
        "class K:\n"
        "    def called(self): pass\n"
        "    def uncalled(self): pass\n"
        "    def _private(self): pass\n",
        encoding="utf-8",
    )
    (tmp_path / "scripts" / "s.py").write_text("from m import used as u\nK().called()\n", encoding="utf-8")
    (tmp_path / "perfbench" / "p.py").write_text("LAYER = 'wrapped'\n", encoding="utf-8")
    assert unnamed_definitions(tmp_path) == ["K.uncalled", "unused"]
