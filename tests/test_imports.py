"""What a fresh ``import twoclosure, twoclosure.cli`` loads.

The CLI pays for every import on every run.  ``dataclasses`` alone costs
more than deciding a typical input (it pulls in inspect, ast, dis and
tokenize), so the package must not load it.  Every module of the package
stays loaded up front: no import is deferred into a function body, where
the cost would move to the first call instead of going away.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

EAGER = {
    "twoclosure",
    "twoclosure.cli",
    "twoclosure.coloring",
    "twoclosure.decider",
    "twoclosure.fixtures",
    "twoclosure.groupfile",
    "twoclosure.oracle",
    "twoclosure.perm",
}


def test_import_loads_the_package_without_dataclasses():
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import twoclosure, twoclosure.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    loaded = set(json.loads(out.stdout))
    assert "dataclasses" not in loaded
    assert EAGER <= loaded
