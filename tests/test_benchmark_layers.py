"""The benchmark's span table still names attributes that exist.

perfbench/spans.py wraps each LAYERS entry by reading
``owner.__dict__[attr]``, so deleting or moving one of those names breaks
``perfbench/run.py --trace 1`` with a KeyError.  This catches that in the
tier-1 suite, without editing or running the benchmark.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (owner, attr) in spans.LAYERS.items() if attr not in owner.__dict__]
    assert not missing
