"""Deciding 2-closedness of abelian permutation groups with cyclic constituents.

A permutation group is 2-closed when it already contains every
permutation preserving its orbits on ordered pairs.  This package
computes those pair orbits, finds the closure by brute-force search at
small degree, and decides closedness structurally (Sylow splitting, the
zel subgroup, orbit removal) with a verifiable reduction trace.
"""

from .coloring import PairColoring, orb2, preserves
from .decider import PreconditionFailed, ReductionTrace, Step, decide_2_closed, zel
from .fixtures import (
    NotPrime,
    fixture_example1,
    fixture_example2,
    random_abelian_cyclic,
    random_regular_abelian,
)
from .groupfile import InvalidPermutation, ParseError, parse_group, serialize_group
from .oracle import BudgetExceeded, SearchLimits, closure_order, is_2_closed_oracle, two_closure
from .perm import CapExceeded, PermGroup, Permutation

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "InvalidPermutation",
    "NotPrime",
    "PairColoring",
    "ParseError",
    "PermGroup",
    "Permutation",
    "PreconditionFailed",
    "ReductionTrace",
    "SearchLimits",
    "Step",
    "closure_order",
    "decide_2_closed",
    "fixture_example1",
    "fixture_example2",
    "is_2_closed_oracle",
    "orb2",
    "parse_group",
    "preserves",
    "random_abelian_cyclic",
    "random_regular_abelian",
    "serialize_group",
    "two_closure",
    "zel",
]
