"""Per-layer spans, recorded from outside the library.

``traced_layers`` replaces each layer's public functions with wrappers
that open a span on entry and close it on exit, then puts the originals
back.  A function is replaced under every name any ``twoclosure`` module
binds it to, so calls through names imported by value (``decider.zel``,
``oracle.orb2``) are caught too.

Spans are kept in memory (name, start, end, parent, operation id) and
written out when the run ends.  A span's self time is its duration
minus the time covered by its child spans; spans nest strictly because
the benchmark is single-threaded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

from twoclosure import coloring, decider, groupfile, oracle, reduction
from twoclosure.perm import PermGroup

OP = "op"

# span name -> (owner, attribute).  The owner is a module for functions,
# PermGroup for methods.
LAYERS = {
    "groupfile.parse": (groupfile, "parse_group"),
    "perm.elements": (PermGroup, "elements"),
    "perm.subgroup": (PermGroup, "is_subgroup_of"),
    "perm.stabilizer": (PermGroup, "pointwise_stabilizer"),
    "perm.from_elements": (PermGroup, "from_elements"),
    "perm.restriction": (PermGroup, "restriction"),
    "perm.orbits": (PermGroup, "orbits"),
    "perm.induced": (PermGroup, "induced_on_orbits"),
    "perm.validate": (PermGroup, "cyclic_constituents"),
    "reduction.zel": (reduction, "zel"),
    "reduction.sylow": (reduction, "sylow_decomposition"),
    "reduction.remove_orbit": (reduction, "remove_orbit"),
    "decider.decide": (decider, "decide_2_closed"),
    "coloring.orb2": (coloring, "orb2"),
    "oracle.search": (oracle, "color_automorphisms"),
}


class Recorder:
    """In-memory span store with running self-time and call totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids_by_name: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.op_ids = array("l")
        self.op = -1  # spans are recorded only while an operation is open
        self._stack: list[list] = []  # [span index, start, child time]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # counters fed by result hooks
        self.max_elements = 0

    def open(self, name: str) -> None:
        nid = self._ids_by_name.get(name)
        if nid is None:
            nid = self._ids_by_name[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.op_ids.append(self.op)
        self.ends.append(0.0)
        start = time.perf_counter()
        self.starts.append(start)
        self._stack.append([idx, start, 0.0])

    def close(self, name: str) -> None:
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        self.ends[idx] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def operation(self, op_id: int):
        """The root span of one operation; layer spans nest under it."""
        self.op = op_id
        self.open(OP)
        try:
            yield
        finally:
            self.close(OP)
            self.op = -1

    def write(self, path: Path) -> None:
        """One tab-separated line per span: op, id, parent, name, start, end.

        Start and end are microseconds since the first span opened.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.op_ids[i]}\t{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                    f"{(self.starts[i] - t0) * 1e6:.1f}\t{(self.ends[i] - t0) * 1e6:.1f}\n"
                )


def _observe(rec: Recorder, name: str, result) -> None:
    """Counters taken from a layer's return value."""
    if name == "perm.elements":
        rec.max_elements = max(rec.max_elements, len(result))
    elif name == "reduction.zel":
        rec.counts["reduction.zel_gens"] += len(result.generators)
    elif name == "coloring.orb2":
        rec.counts["coloring.colors"] += result.num_colors
    elif name == "oracle.search":
        rec.counts["oracle.closure_elements"] += len(result)


def _wrap(rec: Recorder, name: str, fn):
    @wraps(fn)
    def traced(*args, **kwargs):
        if rec.op < 0:
            return fn(*args, **kwargs)
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(name)
        _observe(rec, name, result)
        return result

    return traced


def _twoclosure_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "twoclosure" or key.startswith("twoclosure."))]


@contextmanager
def traced_layers(rec: Recorder):
    """Install span wrappers on every layer function, restore on exit."""
    patched = []  # (owner, attribute, original raw value)
    modules = _twoclosure_modules()
    try:
        for name, (owner, attr) in LAYERS.items():
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(_wrap(rec, name, raw.__func__)))
                patched.append((owner, attr, raw))
                continue
            wrapper = _wrap(rec, name, raw)
            if owner is PermGroup:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, raw))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)
                        patched.append((module, key, raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
