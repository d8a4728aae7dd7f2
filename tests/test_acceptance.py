"""End-to-end acceptance suite.

Eight criteria, each printing one PASS/FAIL line (run with -s to see
them).  Tolerances are exact everywhere; the two fixture reproductions
also assert their wall-clock budgets.
"""

import time

from conftest import witness
from twoclosure.coloring import orb2
from twoclosure.decider import decide_2_closed
from twoclosure.fixtures import (
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from twoclosure.oracle import is_2_closed_oracle, two_closure
from twoclosure.perm import PermGroup, Permutation, prime_factors
from twoclosure.reduction import remove_orbit, sylow_decomposition, zel

SWEEP_SEEDS = range(200)
SWEEP_MAX_DEGREE = 10


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def sweep_instances():
    return [random_abelian_cyclic(seed, SWEEP_MAX_DEGREE) for seed in SWEEP_SEEDS]


def test_criterion_1_example1_reproduction():
    ok = True
    notes = []
    for p, budget in ((2, 1.0), (3, 30.0)):
        start = time.perf_counter()
        g = fixture_example1(p)
        decided, _ = decide_2_closed(g)
        z = zel(g)
        closure = two_closure(g)
        elapsed = time.perf_counter() - start
        good = (
            decided is False
            and closure.order() == p ** 3
            and z.order() == p ** 3
            and closure.elements() == z.elements()
            and elapsed < budget
        )
        ok = ok and good
        notes.append(f"p={p} closure=zel of order {closure.order()} in {elapsed:.3f}s")
    report(1, ok, "example1 not 2-closed, closure equals zel (" + "; ".join(notes) + ")")


def test_criterion_2_example2_reproduction():
    start = time.perf_counter()
    h = fixture_example2(2)
    z_trivial = zel(h).is_trivial()
    decided, _ = decide_2_closed(h)
    closure_order = two_closure(h).order()
    elapsed = time.perf_counter() - start
    ok = z_trivial and decided is False and closure_order > 4 and elapsed < 60.0
    report(
        2,
        ok,
        f"example2 p=2: zel trivial, not 2-closed, |closure|={closure_order}>4 "
        f"in {elapsed:.3f}s",
    )


def test_criterion_3_regular_cyclic_base_case():
    ok = True
    for n in range(1, 11):
        g = PermGroup(n, [Permutation(tuple((i + 1) % n for i in range(n)))])
        ok = ok and two_closure(g).elements() == g.elements()
    report(3, ok, "regular cyclic groups of degree 1..10 equal their closure")


def test_criterion_4_decision_agrees_with_oracle():
    mismatches = [
        seed
        for seed, g in zip(SWEEP_SEEDS, sweep_instances())
        if decide_2_closed(g)[0] != is_2_closed_oracle(g)
    ]
    report(
        4,
        not mismatches,
        f"decide vs oracle on {len(SWEEP_SEEDS)} seeded instances, "
        f"mismatches={mismatches}",
    )


def _internal_product(degree, groups):
    els = {Permutation.identity(degree)}
    for g in groups:
        els = {x * y for x in els for y in g.elements()}
    return frozenset(els)


def test_criterion_5_closure_splits_over_sylow_parts():
    checked = 0
    ok = True
    seed = 0
    while checked < 50 and seed < 2_000:
        g = random_abelian_cyclic(seed, SWEEP_MAX_DEGREE)
        seed += 1
        if len(prime_factors(g.order())) < 2:
            continue
        checked += 1
        parts = [part for _, part in sylow_decomposition(g)]
        product = _internal_product(g.degree, [two_closure(p) for p in parts])
        ok = ok and product == two_closure(g).elements()
    ok = ok and checked >= 50
    report(5, ok, f"closure equals product of part closures on {checked} composite instances")


def test_criterion_6_sylow_part_orbit_sizes():
    checked = 0
    ok = True
    for seed in range(50):
        g = random_regular_abelian(seed, 12)
        checked += 1
        n = g.degree
        for p, part in sylow_decomposition(g):
            n_p = 1
            while n % (n_p * p) == 0:
                n_p *= p
            ok = ok and set(map(len, part.orbits())) == {n_p}
    report(6, ok, f"every Sylow-part orbit has size n_p on {checked} regular instances")


def _law_pool():
    pool = [
        fixture_example1(2),
        fixture_example1(3),
        fixture_example2(2),
        PermGroup(4),
    ]
    pool.extend(sweep_instances())
    return pool


def test_criterion_7_closure_operator_laws():
    ok = True
    pool = _law_pool()
    for g in pool:
        closure = two_closure(g)
        ok = ok and g.elements() <= closure.elements()
        ok = ok and two_closure(closure).elements() == closure.elements()
        ok = ok and orb2(g) == orb2(closure)
    report(7, ok, f"subset, idempotence and orb2 equality on {len(pool)} instances")


def test_criterion_8_witnessed_removal_is_sound():
    fired = 0
    ok = True
    for g in _law_pool():
        classes = g.orbits()
        if len(classes) < 2:
            continue
        closed = is_2_closed_oracle(g)
        for cls in classes:
            if witness(g, cls) is None:
                continue
            fired += 1
            ok = ok and closed == is_2_closed_oracle(remove_orbit(g, cls))
    ok = ok and fired > 0
    report(8, ok, f"closedness preserved across {fired} witnessed orbit removals")
