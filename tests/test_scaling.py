"""The decider's work grows about linearly with the degree.

Each family is decided at a size N and at 2N, and the work is counted,
not timed, so the checks read the same on any machine.  A cost linear
in the size about doubles; a quadratic one about quadruples.  Two parts
of the chain could turn quadratic without changing any trace:
  - the witness scan.  It hashes each orbit's row into depth keys, once
    per distinct shape (size, row), and reads each key's holders once per
    round, so it visits no pair of orbits: diag Z2 (every orbit one shape) builds
    keys once, and the private family (one generator moving every block,
    plus one per block: every orbit its own shape) once per orbit, where
    a scan over the pairs that share a generator visits k^2 of them;
  - the relabelling at OrbitRemoval.  A point's new label subtracts the
    removed labels below it, counted in O(log n): a bytearray count
    inside the point's block of 128 labels plus a Fenwick tree over the
    blocks below.  A count from label 0 costs O(n) per point.
The lines _chain and the scan's functions run stand for the chain's
Python work: a loop that grows with the degree per point or per orbit
shows in their ratio.  zel() runs the same scan, so it is held to the
same key counts.  The in-class closure reads the same keys, as a forest
with one link per orbit and prime, so its lines grow with the orbits and
its output, not with the pairs of orbits that share a generator.

The coordinates every decide, zel and in-class closure starts from are
built from each generator's cycles, over the points it moves, so the
lines that pass runs grow with the degree and the generators' supports,
not with the degree times the number of generators (indep k x Z2, and
linked, where generator i moves blocks i and i + 1).

A permutation's cycle queries (cycles, order, **, is_identity, str) walk
only its moved points, so building, printing and powering a group of
sparse generators runs as many perm.py lines at any degree.
"""

import os
import random
import sys

from twoclosure import decider, perm
from twoclosure.decider import decide_2_closed
from twoclosure.groupfile import serialize_group
from twoclosure.oracle import SearchLimits, closure_order, two_closure
from twoclosure.perm import PermGroup, Permutation

BOUND = 2.5


def _blocks(k, generators, seed=0):
    """k blocks of 2 points under relabelled points, with one generator
    swapping every block (diag), one per block (indep), both (private), or
    one per pair of neighbours, generator i swapping blocks i and i + 1
    each within itself (linked), so that every orbit but the two ends has
    two movers."""
    sigma = list(range(2 * k))
    random.Random(seed).shuffle(sigma)
    pairs = [(sigma[2 * b], sigma[2 * b + 1]) for b in range(k)]
    gens = []
    layouts = {"diag": [pairs], "indep": [[pair] for pair in pairs],
               "private": [pairs] + [[pair] for pair in pairs],
               "linked": [pairs[i:i + 2] for i in range(k - 1)]}
    for block in layouts[generators]:
        images = list(range(2 * k))
        for x, y in block:
            images[x], images[y] = y, x
        gens.append(Permutation(tuple(images)))
    return PermGroup(2 * k, gens)


def _decide_closed(group):
    assert decide_2_closed(group)[0]


def _lines(counted, run):
    """The number of lines run() runs in the code objects that counted accepts."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def enter(frame, event, arg):
        return count if counted(frame.f_code) else None

    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines


def _chain_lines(group):
    """The number of lines _chain and its witness scan run to decide the group."""
    counted = {f.__code__ for f in (decider._chain, decider._witness_scan, decider._holders, decider._keys)}
    return _lines(counted.__contains__, lambda: _decide_closed(group))


def _closure_lines(group):
    """The number of lines the in-class closure and the keys it reads run."""
    counted = {f.__code__ for f in (decider._pairwise_closure, decider._holders, decider._keys)}
    return _lines(counted.__contains__, lambda: decider._pairwise_closure(group))


def _coordinate_lines(group):
    """The number of lines the coordinate pass, and the src helpers it
    calls, run on the group."""
    package = os.path.dirname(decider.__file__)
    return _lines(lambda code: code.co_filename.startswith(package), lambda: decider._coordinates(group))


def _sparse_perm_lines(n):
    """The number of perm.py lines run to build a group of three
    transpositions on n points, print it, and take each generator's order
    and cube."""
    gens = [Permutation.from_cycles(n, [pair]) for pair in ((0, n - 1), (1, n // 2), (n // 3, n // 3 + 1))]

    def run():
        group = PermGroup(n, gens)
        serialize_group(group)
        for g in group.generators:
            g.order()
            g ** 3

    return _lines(lambda code: code.co_filename == perm.__file__, run)


def _key_builds(monkeypatch, run, group):
    """The number of _keys calls run(group) makes."""
    calls = 0
    keys = decider._keys

    def counted(q, row):
        nonlocal calls
        calls += 1
        return keys(q, row)

    monkeypatch.setattr(decider, "_keys", counted)
    run(group)
    return calls


def test_witness_scan_builds_keys_once_per_shape(monkeypatch):
    # every orbit of diag Z2 has one shape (size 2, shifted by the one
    # generator), so a decide or a zel builds its keys once or twice
    # however many orbits there are
    for run in (_decide_closed, decider.zel):
        calls = _key_builds(monkeypatch, run, _blocks(400, "diag"))
        assert calls <= 2, (run, calls)


def test_private_generators_scale_about_linearly():
    # every orbit has its own shape and shares the diagonal generator with
    # every other: a scan over the pairs that share a generator is k^2
    ratio = _chain_lines(_blocks(400, "private")) / _chain_lines(_blocks(200, "private"))
    assert ratio < BOUND, ratio


def test_in_class_closure_scales_about_linearly():
    # diag Z2: one generator, on the first orbit, carried down a forest of
    # k - 1 links; private: k generators, one per orbit, and no link
    for generators in ("diag", "private"):
        ratio = _closure_lines(_blocks(400, generators)) / _closure_lines(_blocks(200, generators))
        assert ratio < BOUND, (generators, ratio)


def test_in_class_closure_of_independent_blocks_is_the_whole_product():
    # no two orbits of indep 200 x Z2 share a generator, so no pair of
    # them is constrained
    closure = two_closure(_blocks(200, "indep"), SearchLimits(max_degree=400))
    assert closure_order(closure) == 2 ** 200


def test_rank_counts_removed_labels_inside_one_block(monkeypatch):
    widest = 0

    class Marks(bytearray):
        def count(self, x, start=0, end=None):
            nonlocal widest
            end = len(self) if end is None else end
            widest = max(widest, end - start)
            return super().count(x, start, end)

    monkeypatch.setattr(decider, "bytearray", Marks, raising=False)
    assert decide_2_closed(_blocks(5_000, "diag"))[0]
    assert 0 < widest <= 128, widest


def test_diag_z2_scales_about_linearly():
    ratio = _chain_lines(_blocks(20_000, "diag")) / _chain_lines(_blocks(10_000, "diag"))
    assert ratio < BOUND, ratio


def test_indep_z2_scales_about_linearly():
    ratio = _chain_lines(_blocks(400, "indep")) / _chain_lines(_blocks(200, "indep"))
    assert ratio < BOUND, ratio


def test_coordinates_scale_about_linearly():
    # one Python step per moved point: a pass over the orbits that visits
    # every generator at every point costs 2k (k - 1) steps on both
    for generators in ("indep", "linked"):
        ratio = _coordinate_lines(_blocks(400, generators)) / _coordinate_lines(_blocks(200, generators))
        assert ratio < BOUND, (generators, ratio)


def test_sparse_permutations_cost_their_support_not_their_degree():
    small, big = _sparse_perm_lines(20_000), _sparse_perm_lines(40_000)
    assert big < 1_000 and big == small, (small, big)
