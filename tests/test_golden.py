"""The fixture generators and the benchmark's instances, pinned byte for byte.

perfbench/workloads.py draws every benchmark instance from fixtures.py,
so a change to a generator's output changes what the benchmark measures.
One sha256 over the serialized groups catches that: the random families
over fixed seeds and degrees, both fixture families over several primes,
and one round of each benchmark workload.

A second digest pins what the decider answers on them: the rendered
``decide`` trace, or the PreconditionFailed message, and the ``zel``
generators of every instance with more than one orbit, over the random
families, the coupled-block instances, both fixture families and three
rounds of each decide workload, up to the benchmark's 160 blocks.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from conftest import random_coupled_blocks
from twoclosure.cli import render_step
from twoclosure.decider import PreconditionFailed, decide_2_closed, zel
from twoclosure.fixtures import (
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from twoclosure.groupfile import parse_group, serialize_group

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


GOLDEN_TRACES = "d45dc7de6ff44e86045fa6d07581385b168748f05bcbcaeb71af472ada119ee4"


def _decide_groups():
    for seed in range(200):
        for degree in (7, 12, 24, 48):
            yield random_abelian_cyclic(seed, degree)
        for degree in (8, 30, 64):
            yield random_regular_abelian(seed, degree)
    for seed in range(300):
        yield random_coupled_blocks(seed, 24)
    for p in (2, 3, 5, 7, 11, 13, 101):
        yield fixture_example1(p)
        yield fixture_example2(p)
    workloads = _load_workloads()
    for name in ("high-order", "many-orbits"):
        batches = workloads.rounds(name, 3)
        for _ in range(3):
            for instance in next(batches):
                yield parse_group(instance.text)


def _answers():
    for g in _decide_groups():
        try:
            closed, trace = decide_2_closed(g)
        except PreconditionFailed as e:
            yield f"PreconditionFailed: {e}"
            continue
        yield "\n".join([*map(render_step, trace.steps), f"verdict {closed}"])
        if len(g.orbits()) > 1:
            yield serialize_group(zel(g))


def test_decide_traces_are_unchanged():
    digest = hashlib.sha256()
    for text in _answers():
        digest.update(text.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == GOLDEN_TRACES
