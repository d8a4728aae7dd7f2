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
zel(G) <= G is read off |zel(G)| and |G| before any echelon, so decide
runs `_order`, whose elimination can fill in, only once, for Validate's
|G|, where zel(G) = G or |zel(G)| > |G|.

The coordinates every decide, zel and in-class closure starts from, and
the orbits of PermGroup.orbits, are built from each generator's cycles,
over the points it moves, so the lines those passes run grow with the
degree and the generators' supports, not with the degree times the
number of generators (indep k x Z2, and linked, where generator i moves
blocks i and i + 1).  An orbit of
prime-power size is walked along its first full cycle; only one of
composite size has its generator c composed from the cycles, once.

A Sylow part keeps its fixed points apart from its orbits: _sylow_part
passes the orbits its prime does not divide over in C, and _chain
removes the fixed points in batches whose steps are built in C, so a
fixed point costs its step and no Python line of its own.

A permutation's cycle queries (cycles, order, **, is_identity, str) walk
only its moved points, so building, printing and powering a group of
sparse generators runs as many perm.py lines at any degree.
"""

import math
import os
import random
import sys

from conftest import blocks_of_six
from twoclosure import decider, perm
from twoclosure.decider import decide_2_closed
from twoclosure.fixtures import fixture_example1
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


def _package_lines(run):
    """The number of src lines run() runs."""
    package = os.path.dirname(decider.__file__)
    return _lines(lambda code: code.co_filename.startswith(package), run)


def _coordinate_lines(group):
    """The number of lines the coordinate pass, and the src helpers it
    calls, run on the group."""
    return _package_lines(lambda: decider._coordinates(group))


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


def _mixed(k, seed=0):
    """k blocks of 2 and 3 points alternately under relabelled points,
    each shifted by its own generator, so that decide splits the group
    into a Sylow 2-part and 3-part, each with fixed points."""
    return _shifted([(2, 3)[b % 2] for b in range(k)], seed)


def _shifted(sizes, seed=0):
    """Blocks of the given sizes under relabelled points, each shifted by
    its own generator."""
    n, start, gens = sum(sizes), 0, []
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    for q in sizes:
        images = list(range(n))
        for x in range(q):
            images[sigma[start + x]] = sigma[start + (x + 1) % q]
        gens.append(Permutation(tuple(images)))
        start += q
    return PermGroup(n, gens)


def _calls(monkeypatch, name, run, group):
    """The number of calls run(group) makes to the decider's function name."""
    calls = 0
    function = getattr(decider, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return function(*args)

    monkeypatch.setattr(decider, name, counted)
    run(group)
    return calls


def test_witness_scan_builds_keys_once_per_shape(monkeypatch):
    # every orbit of diag Z2 has one shape (size 2, shifted by the one
    # generator), so a decide or a zel builds its keys once or twice
    # however many orbits there are
    for run in (_decide_closed, decider.zel):
        calls = _calls(monkeypatch, "_keys", run, _blocks(400, "diag"))
        assert calls <= 2, (run, calls)


def test_decide_runs_the_echelon_once(monkeypatch):
    # the echelon gives Validate's |G|; zel(G) <= G then follows from
    # |zel(G)| and |G|: equal where zel(G) = G (indep, private and both
    # Sylow parts of mixed), larger on example1, where |zel(G)| = p^3
    for group in (_blocks(200, "indep"), _blocks(200, "private"), fixture_example1(7), _mixed(200)):
        assert _calls(monkeypatch, "_order", decide_2_closed, group) == 1, group


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


def test_mixed_blocks_scale_about_linearly():
    ratio = _chain_lines(_mixed(800)) / _chain_lines(_mixed(400))
    assert ratio < BOUND, ratio


def _fixed_point_lines(twos, k):
    """The lines _sylow_part and _chain run, in their own code objects, to
    reach the Sylow 2-part of blocks of 2, all swapped by one generator,
    and k blocks of 3, each shifted by its own, and to decide it; and the
    steps that chain appends."""
    gens = _shifted([2] * twos + [3] * k).generators
    group = PermGroup(3 * k + 2 * twos, [math.prod(gens[:twos], start=Permutation.identity(3 * k + 2 * twos)),
                                         *gens[twos:]])
    coords, steps = decider._coordinates(group), []
    counted = {decider._sylow_part.__code__, decider._chain.__code__}
    lines = _lines(counted.__contains__, lambda: decider._chain(decider._sylow_part(coords, 2), 2, steps))
    return lines, len(steps)


def test_a_fixed_point_costs_only_its_step():
    # the 2-part fixes 3k points: each is one removal step built in C,
    # with no Python line of its own, so the lines stay about flat; one
    # block of 2 is the whole part, two make a run and a ZelReduce
    for twos in (1, 2):
        (small, small_steps), (big, big_steps) = _fixed_point_lines(twos, 100), _fixed_point_lines(twos, 200)
        assert (small_steps, big_steps) == (301 + twos, 601 + twos), twos
        assert big < 1.2 * small, (twos, small, big)


def test_product_test_reads_the_order_bit_length_first(monkeypatch):
    # |G| = 2 on diag Z2, and prod |D| >= 2^k: the product of the k sizes,
    # quadratic in k as a big integer, is never formed
    longest, prod = 0, math.prod

    def counted(factors, *args, **kwargs):
        nonlocal longest
        factors = list(factors)
        longest = max(longest, len(factors))
        return prod(factors, *args, **kwargs)

    monkeypatch.setattr(math, "prod", counted)
    assert decide_2_closed(_blocks(20_000, "diag"))[0]
    assert longest == 1, longest


def test_indep_z2_scales_about_linearly():
    ratio = _chain_lines(_blocks(400, "indep")) / _chain_lines(_blocks(200, "indep"))
    assert ratio < BOUND, ratio


def test_coordinates_scale_about_linearly():
    # one Python step per moved point: a pass over the orbits that visits
    # every generator at every point costs 2k (k - 1) steps on both
    for generators in ("indep", "linked"):
        ratio = _coordinate_lines(_blocks(400, generators)) / _coordinate_lines(_blocks(200, generators))
        assert ratio < BOUND, (generators, ratio)
    # blocks of 6 moved by a Z2 and a Z3 generator: c is composed per orbit
    ratio = _coordinate_lines(blocks_of_six(400, (3, 2))) / _coordinate_lines(blocks_of_six(200, (3, 2)))
    assert ratio < BOUND, ratio


def test_orbits_scale_about_linearly():
    # the orbits are joined from the generators' cycles, one Python step
    # per moved point; a search that visits every generator at every point
    # costs about k steps per point, so about 4 times as many at 2k
    for generators in ("indep", "linked"):
        ratio = _package_lines(_blocks(400, generators).orbits) / _package_lines(_blocks(200, generators).orbits)
        assert ratio < BOUND, (generators, ratio)


def test_only_orbits_of_composite_size_compose_their_walk(monkeypatch):
    # a prime-power orbit is walked along its first full cycle, a lone
    # cycle without even the sort of the joined orbits (about 22 lines
    # per block of diag Z2, 35 through the sort)
    for group in (_blocks(200, "diag"), _blocks(200, "indep"), _blocks(200, "private"), fixture_example1(7)):
        assert _calls(monkeypatch, "_product_walk", decider._coordinates, group) == 0, group
    for shifts in ((1,), (1, 3), (3, 2)):
        assert _calls(monkeypatch, "_product_walk", decider._coordinates, blocks_of_six(200, shifts)) == 200, shifts
    lines = _coordinate_lines(_blocks(200, "diag"))
    assert lines < 30 * 200, lines


def test_sparse_permutations_cost_their_support_not_their_degree():
    small, big = _sparse_perm_lines(20_000), _sparse_perm_lines(40_000)
    assert big < 1_000 and big == small, (small, big)
