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
from .oracle import (
    BudgetExceeded,
    SearchLimits,
    color_automorphisms,
    is_2_closed_oracle,
    two_closure,
)
from .perm import (
    CapExceeded,
    NotBlockSystem,
    NotInvariant,
    OrbitPartition,
    PermGroup,
    Permutation,
)
from .reduction import (
    NotAnOrbit,
    NotNilpotent,
    SylowDecomposition,
    remove_orbit,
    sylow_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "InvalidPermutation",
    "NotAnOrbit",
    "NotBlockSystem",
    "NotInvariant",
    "NotNilpotent",
    "NotPrime",
    "OrbitPartition",
    "PairColoring",
    "ParseError",
    "PermGroup",
    "Permutation",
    "PreconditionFailed",
    "ReductionTrace",
    "SearchLimits",
    "Step",
    "SylowDecomposition",
    "color_automorphisms",
    "decide_2_closed",
    "fixture_example1",
    "fixture_example2",
    "is_2_closed_oracle",
    "orb2",
    "parse_group",
    "preserves",
    "random_abelian_cyclic",
    "random_regular_abelian",
    "remove_orbit",
    "serialize_group",
    "sylow_decomposition",
    "two_closure",
    "zel",
]
