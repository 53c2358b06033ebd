"""Weakly submodular set functions: builders, checkers, maximizers, bounds.

A set function f over a finite ground set is weakly submodular when

    |T| f(S) + |S| f(T)  >=  |S & T| f(S | T) + |S | T| f(S & T)

for all subsets S and T.  The class contains every monotone submodular
function and some supermodular ones (metric dispersion being the flagship),
and monotone members admit constant-factor maximization: greedy under a
cardinality constraint and single-swap local search under any matroid
constraint.  This package provides the function zoo, exhaustive and sampled
property checkers, the two solvers with brute-force oracles, and exact
evaluation of the closed-form approximation bounds.
"""

__version__ = "0.1.0"

from .core import (
    CHECKERS,
    CapExceeded,
    CheckReport,
    GroundSet,
    GroundSetMismatch,
    PropertyKind,
    SetFunction,
    Subset,
    ViolationWitness,
    check_cardinality_family,
    check_monotone,
    check_normalized_nonnegative,
    check_submodular,
    check_weakly_submodular,
    evaluate,
    weak_submodularity_sides,
)
from .matroid import (
    ExchangeMap,
    InconsistentOracle,
    Matroid,
    brualdi_bijection,
    extend_to_basis,
    is_independent,
    validate_exchange_axiom,
)
from .solve import (
    OptResult,
    SolveResult,
    brute_force_cardinality,
    brute_force_matroid,
    greedy_cardinality,
    local_search_matroid,
)

__all__ = [
    "__version__",
    "CHECKERS",
    "CapExceeded",
    "CheckReport",
    "GroundSet",
    "GroundSetMismatch",
    "PropertyKind",
    "SetFunction",
    "Subset",
    "ViolationWitness",
    "check_cardinality_family",
    "check_monotone",
    "check_normalized_nonnegative",
    "check_submodular",
    "check_weakly_submodular",
    "evaluate",
    "weak_submodularity_sides",
    "ExchangeMap",
    "InconsistentOracle",
    "Matroid",
    "brualdi_bijection",
    "extend_to_basis",
    "is_independent",
    "validate_exchange_axiom",
    "OptResult",
    "SolveResult",
    "brute_force_cardinality",
    "brute_force_matroid",
    "greedy_cardinality",
    "local_search_matroid",
]
