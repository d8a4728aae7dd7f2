"""The fixture generators and the benchmark's instances, pinned byte for byte.

perfbench/workloads.py draws every benchmark instance from fixtures.py,
so a change to a generator's output changes what the benchmark measures.
One sha256 over the serialized groups catches that: the random families
over fixed seeds and degrees, both fixture families over several primes,
and one round of each benchmark workload.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from twoclosure.fixtures import (
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from twoclosure.groupfile import serialize_group

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

GOLDEN = "73a1f98671fce05b94ba100ae32a8a21e75da8f9e2aeed6d581503b7912ee963"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _texts():
    for seed in range(200):
        for degree in (0, 1, 2, 3, 7, 10, 14, 24, 48):
            yield serialize_group(random_abelian_cyclic(seed, degree))
        for degree in (2, 3, 8, 12, 30, 64):
            yield serialize_group(random_regular_abelian(seed, degree))
    for p in (2, 3, 5, 7, 11, 13, 101):
        yield serialize_group(fixture_example1(p))
        yield serialize_group(fixture_example2(p))
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        for instance in next(workloads.rounds(name, 1)):
            yield repr(instance)


def test_fixture_and_benchmark_instances_are_unchanged():
    digest = hashlib.sha256()
    for text in _texts():
        digest.update(text.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == GOLDEN
