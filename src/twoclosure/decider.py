"""Inductive decision procedure for 2-closedness, with a full trace.

Scope: permutation groups all of whose transitive constituents are
cyclic (which forces the group to be abelian).  The procedure never
computes the closure itself; it only shrinks the instance until a base
case answers, recording one step per move:

  Validate        precondition check on the input
  TransitiveBase  transitive (or empty) group: closed, stop
  SylowSplit      composite order: closed iff every Sylow part is
  ZelNotInside    zel(G) does not lie inside G: not closed, stop
  ZelReduce       zel(G) lies inside G: pass to the action on its orbits
  OrbitRemoval    zel(G) trivial: delete the orbit of the minimal point

Every reduction strictly decreases the degree, so a chain ends after at
most ``degree`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import SearchLimits, is_2_closed_oracle
from .perm import DEFAULT_CAP, PermGroup, prime_factors
from .reduction import remove_orbit, sylow_decomposition, zel

VALIDATE = "Validate"
TRANSITIVE_BASE = "TransitiveBase"
SYLOW_SPLIT = "SylowSplit"
ZEL_NOT_INSIDE = "ZelNotInside"
ZEL_REDUCE = "ZelReduce"
ORBIT_REMOVAL = "OrbitRemoval"

STEP_KINDS = frozenset(
    {VALIDATE, TRANSITIVE_BASE, SYLOW_SPLIT, ZEL_NOT_INSIDE, ZEL_REDUCE, ORBIT_REMOVAL}
)


class PreconditionFailed(ValueError):
    """The input has a non-cyclic transitive constituent."""


@dataclass(frozen=True)
class Step:
    """One move of the procedure, with the degree and order of the group it saw.

    ``detail`` depends on the kind: the prime list for SylowSplit, the
    orbit sizes of zel(G) for ZelReduce, the removed orbit's points for
    OrbitRemoval, empty otherwise.
    """

    kind: str
    degree: int
    order: int
    detail: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Step, ...]
    verdict: bool


def decide_2_closed(group: PermGroup, cap: int = DEFAULT_CAP) -> tuple[bool, ReductionTrace]:
    """Decide whether the group equals its own pair-orbit closure.

    Raises PreconditionFailed unless every transitive constituent is
    cyclic.  The input is validated once: a Sylow part, the action on
    the orbits of zel(G) and an orbit removal all keep constituents
    cyclic, so no group further down the chain needs the check again.
    Returns the verdict together with the step-by-step trace.
    """
    if not group.cyclic_constituents(cap):
        raise PreconditionFailed(
            "decision procedure requires every transitive constituent to be cyclic"
        )
    order = group.order(cap)
    steps: list[Step] = [Step(VALIDATE, group.degree, order)]
    parts: tuple[PermGroup, ...] = (group,)
    if not group.is_transitive() and len(prime_factors(order)) != 1:
        decomposition = sylow_decomposition(group, cap)
        steps.append(Step(SYLOW_SPLIT, group.degree, order, decomposition.primes()))
        parts = tuple(part for _, part in decomposition.parts)
    # closed iff every part is; the first failing part settles it
    for g in parts:
        while not g.is_transitive():
            order = g.order(cap)
            z = zel(g, cap)
            if z.is_trivial():
                removed = g.orbits().classes[0]
                steps.append(Step(ORBIT_REMOVAL, g.degree, order, removed))
                g = remove_orbit(g, removed)
            elif z.is_subgroup_of(g, cap):
                steps.append(Step(ZEL_REDUCE, g.degree, order, z.orbits().sizes()))
                g = g.induced_on_orbits(z)
            else:
                steps.append(Step(ZEL_NOT_INSIDE, g.degree, order))
                return False, ReductionTrace(tuple(steps), False)
        steps.append(Step(TRANSITIVE_BASE, g.degree, g.order(cap)))
    return True, ReductionTrace(tuple(steps), True)


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side verdicts of the decision procedure and the search oracle."""

    decided: bool
    oracle: bool
    trace: ReductionTrace
    mismatch: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mismatch", self.decided != self.oracle)


def decide_with_oracle_check(
    group: PermGroup,
    limits: SearchLimits = SearchLimits(),
    cap: int = DEFAULT_CAP,
) -> OracleReport:
    """Run the procedure and the brute-force oracle; a mismatch means a bug."""
    decided, trace = decide_2_closed(group, cap)
    return OracleReport(decided, is_2_closed_oracle(group, limits), trace)
