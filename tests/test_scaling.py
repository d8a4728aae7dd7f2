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
The lines _chain runs stand for its Python work: a loop that grows
with the degree per point or per orbit shows in their ratio.
"""

import random
import sys

from twoclosure import decider
from twoclosure.decider import decide_2_closed
from twoclosure.perm import PermGroup, Permutation

BOUND = 2.5


def _blocks(k, generators, seed=0):
    """k blocks of 2 points under relabelled points, with one generator
    swapping every block (diag) or one per block (indep)."""
    sigma = list(range(2 * k))
    random.Random(seed).shuffle(sigma)
    pairs = [(sigma[2 * b], sigma[2 * b + 1]) for b in range(k)]
    gens = []
    for block in ([pairs] if generators == "diag" else [[pair] for pair in pairs]):
        images = list(range(2 * k))
        for x, y in block:
            images[x], images[y] = y, x
        gens.append(Permutation(tuple(images)))
    return PermGroup(2 * k, gens)


def _chain_lines(group):
    """The number of lines _chain runs to decide the group."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code is decider._chain.__code__ else None

    sys.settrace(enter)
    try:
        assert decide_2_closed(group)[0]
    finally:
        sys.settrace(None)
    return lines


def test_witness_scan_pairs_only_orbits_that_share_a_generator(monkeypatch):
    calls = 0
    index = decider._index

    def counted(a, b):
        nonlocal calls
        calls += 1
        return index(a, b)

    monkeypatch.setattr(decider, "_index", counted)
    for k, generators, most in [(400, "indep", 0), (400, "diag", 400)]:
        calls = 0
        assert decide_2_closed(_blocks(k, generators))[0]
        assert calls <= most, (generators, k, calls)


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
