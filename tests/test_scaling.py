"""The decider's work grows about linearly with the degree.

Each family is decided at a size N and at 2N, and the work is counted,
not timed, so the checks read the same on any machine.  A cost linear
in the size about doubles; a quadratic one about quadruples.  Two parts
of the chain could turn quadratic without changing any trace:
  - the witness scan.  It pairs only orbits that share a generator, so
    indep k x Z2 (no two orbits share one) calls _index for no pair and
    diag Z2 (one generator moves every orbit) for one pair per orbit
    before it meets a witness; a scan over every pair calls it k^2 times;
  - the relabelling at OrbitRemoval.  A point's new label subtracts the
    removed labels below it, counted in O(log n): a bytearray count
    inside the point's block of 128 labels plus a Fenwick tree over the
    blocks below.  A count from label 0 costs O(n) per point.
The lines _chain and _witness_scan run stand for the chain's Python
work: a loop that grows with the degree per point or per orbit shows in
their ratio.  zel() runs the same witness scan, so it is held to the
same pair counts.  _index reads only two orbit shapes (size and nonzero
shifts), and one scan computes it once per pair of shapes it meets, so
diag Z2, whose orbits all have one shape, calls it once.

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
from functools import partial

from twoclosure import decider, perm
from twoclosure.decider import decide_2_closed
from twoclosure.groupfile import serialize_group
from twoclosure.oracle import SearchLimits, closure_order, two_closure
from twoclosure.perm import PermGroup, Permutation

BOUND = 2.5


def _blocks(k, generators, seed=0):
    """k blocks of 2 points under relabelled points, with one generator
    swapping every block (diag), one per block (indep), or one per pair
    of neighbours, generator i swapping blocks i and i + 1 each within
    itself (linked), so that every orbit but the two ends has two movers."""
    sigma = list(range(2 * k))
    random.Random(seed).shuffle(sigma)
    pairs = [(sigma[2 * b], sigma[2 * b + 1]) for b in range(k)]
    gens = []
    layouts = {"diag": [pairs], "indep": [[pair] for pair in pairs],
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
    counted = {decider._chain.__code__, decider._witness_scan.__code__}
    return _lines(counted.__contains__, lambda: _decide_closed(group))


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


def _index_calls(monkeypatch, run, group):
    """The number of _index calls run(group) makes."""
    calls = 0
    index = decider._index

    def counted(a, b):
        nonlocal calls
        calls += 1
        return index(a, b)

    monkeypatch.setattr(decider, "_index", counted)
    run(group)
    return calls


def test_witness_scan_pairs_only_orbits_that_share_a_generator(monkeypatch):
    for k, generators, most in [(400, "indep", 0), (400, "diag", 400)]:
        calls = _index_calls(monkeypatch, _decide_closed, _blocks(k, generators))
        assert calls <= most, (generators, k, calls)


def test_zel_uses_the_same_witness_scan(monkeypatch):
    for k, generators, most in [(400, "indep", 0), (400, "diag", 400)]:
        calls = _index_calls(monkeypatch, decider.zel, _blocks(k, generators))
        assert calls <= most, (generators, k, calls)


def test_witness_scan_computes_each_shape_pair_once(monkeypatch):
    # every orbit of diag Z2 has the same shape (size 2, shifted by the one
    # generator), so one scan needs one _index call however many orbits
    for run in (_decide_closed, decider.zel):
        calls = _index_calls(monkeypatch, run, _blocks(400, "diag"))
        assert calls <= 2, (run, calls)


def test_in_class_closure_pairs_only_orbits_that_share_a_generator(monkeypatch):
    # no two orbits of indep 200 x Z2 share a generator, so no pair of them
    # is constrained and the closure is the whole product; the orbits of
    # diag Z2 all share one, and all have one shape
    limits = SearchLimits(max_degree=400)
    closure = partial(two_closure, limits=limits)
    assert _index_calls(monkeypatch, closure, _blocks(200, "indep")) == 0
    assert closure_order(closure(_blocks(200, "indep"))) == 2 ** 200
    assert _index_calls(monkeypatch, closure, _blocks(200, "diag")) == 1


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
