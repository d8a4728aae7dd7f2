"""The scripts under scripts/ still run against the current library."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twoclosure.perm import PermGroup

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["examples_walkthrough.py"],
        ["scale_sweep.py", "--max-degree", "500"],
    ],
)
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_walkthrough_enumerates_no_group(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the walkthrough enumerated a group")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    monkeypatch.setattr(sys, "argv", ["examples_walkthrough.py", "--primes", "2", "3", "5"])
    path = ROOT / "scripts" / "examples_walkthrough.py"
    spec = importlib.util.spec_from_file_location("examples_walkthrough", path)
    walkthrough = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(walkthrough)
    walkthrough.main()
    assert capsys.readouterr().out.count("inside the group: False") == 3
