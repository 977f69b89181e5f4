"""Equalizing node weights by edge-increment steps.

A step picks an edge and adds 1 to the weight of each of its vertices.
This package decides whether a weighted graph (or hypergraph) can reach
a uniform weight, finds the smallest such target and a minimum plan,
certifies infeasibility, and classifies graphs by which assignments are
equatable at all.
"""

from .bmatch import (
    BMatchEngine,
    BMatchOutcome,
    ViolatingSet,
    check_tutte_enumeration,
    decide_perfect_bmatching,
    expand_graph,
    isolated_vertices,
    perfect_bmatching,
    s_count,
    solve_bmatching_expansion,
    tutte_deficiency,
    verify_plan_perfect,
    violating_set,
)
from .classify import (
    Bipartition,
    HallVerdict,
    UniversalVerdict,
    bipartition,
    hall_witness_assignment,
    independent_set_condition,
    is_balanced,
    is_connected,
    isolated_condition_enum,
    strict_hall,
    strict_hall_enum,
    universal_equatable,
)
from .core import (
    Graph,
    Hypergraph,
    IncrementPlan,
    apply_plan,
    is_uniform,
    parse_instance,
    serialize_instance,
)
from .equate import (
    EquateResult,
    admissible_parities,
    constraint_bound,
    equate,
    min_beta_for_parity,
)
from .errors import (
    BudgetError,
    InstanceError,
    InternalError,
    ParseError,
)
from .hyper import (
    HyperEquateResult,
    ReductionOutput,
    default_beta_cap,
    hyper_equate,
    hyper_perfect_matching,
    reduce_pm_to_equate,
)
from .oracles import equate_backtracking, min_beta_scan

__version__ = "0.1.0"

__all__ = [
    "BMatchEngine",
    "BMatchOutcome",
    "Bipartition",
    "BudgetError",
    "EquateResult",
    "Graph",
    "HallVerdict",
    "HyperEquateResult",
    "Hypergraph",
    "IncrementPlan",
    "InstanceError",
    "InternalError",
    "ParseError",
    "ReductionOutput",
    "UniversalVerdict",
    "ViolatingSet",
    "admissible_parities",
    "apply_plan",
    "bipartition",
    "check_tutte_enumeration",
    "constraint_bound",
    "decide_perfect_bmatching",
    "default_beta_cap",
    "equate",
    "equate_backtracking",
    "expand_graph",
    "hall_witness_assignment",
    "hyper_equate",
    "hyper_perfect_matching",
    "independent_set_condition",
    "is_balanced",
    "is_connected",
    "is_uniform",
    "isolated_condition_enum",
    "isolated_vertices",
    "min_beta_for_parity",
    "min_beta_scan",
    "parse_instance",
    "perfect_bmatching",
    "reduce_pm_to_equate",
    "s_count",
    "serialize_instance",
    "solve_bmatching_expansion",
    "strict_hall",
    "strict_hall_enum",
    "tutte_deficiency",
    "universal_equatable",
    "verify_plan_perfect",
    "violating_set",
]
