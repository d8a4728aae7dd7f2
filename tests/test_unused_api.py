"""Every public function, class and method of the package has a caller.

A public definition that nothing under src/, scripts/ or perfbench/ names
is library API that only the tests call: it costs lines and keeps nothing
the CLI, the scripts or the benchmark run.  The check is by name, read
from the syntax trees.  A function or class counts as named by a name
or an imported name, a method by an attribute name, and either by a
string constant only inside the two tables that name definitions by
string: an ``__all__`` list, or ``LAYERS``, perfbench/spans.py's table
of the spans it wraps by name.  Any other string, such as a message or a
dict key, names nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "scripts", "perfbench")
TABLES = ("__all__", "LAYERS")


def _trees(root: Path, top: str) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((root / top).rglob("*.py"))]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _table_strings(tree: ast.Module, tables: tuple[str, ...]) -> set[str]:
    """The string constants inside assignments to the names in tables."""
    return {c.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in tables for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def unnamed_definitions(root: Path, tables: tuple[str, ...] = TABLES) -> list[str]:
    """The public top-level functions and classes, and the public methods of
    top-level classes, under root/src that no caller names, as module-free
    ``name`` or ``Class.method``, sorted; strings name only inside the
    assignments to the names in tables."""
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
        strings |= _table_strings(tree, tables)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):  # the imported name, and any name it is bound to
                names.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(
        name if owner is None else f"{owner}.{name}"
        for owner, name in defined
        if name not in strings and name not in (names if owner is None else attributes)
    )


def test_every_public_definition_in_src_has_a_caller():
    assert unnamed_definitions(ROOT) == []


def test_only_the_span_table_keeps_these():
    # each is called by nothing but the benchmark's spans, which wrap it by
    # name; a definition added here, or kept alive only there, fails this
    assert unnamed_definitions(ROOT, ("__all__",)) == [
        "PermGroup.cyclic_constituents",
        "PermGroup.induced_on_orbits",
        "PermGroup.pointwise_stabilizer",
        "remove_orbit",
        "sylow_decomposition",
    ]


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
    (tmp_path / "scripts" / "s.py").write_text(
        "from m import used as u\nK().called()\nprint('unused', {'uncalled': 1})\n", encoding="utf-8")
    (tmp_path / "perfbench" / "p.py").write_text("LAYERS = {'m.wrapped': (m, 'wrapped')}\n", encoding="utf-8")
    assert unnamed_definitions(tmp_path) == ["K.uncalled", "unused"]
    assert unnamed_definitions(tmp_path, ()) == ["K.uncalled", "unused", "wrapped"]
