"""Choosability and list-colorability decisions for small graphs.

The core pipeline multiplies the linear factors of the graph polynomial
while truncating every monomial that already exceeds the list sizes, and
reads verdicts off the surviving coefficients: a full-degree monomial
certifies choosability outright, and the tight-marker terms yield linear
constraints whose 0/1 solutions drive a search for a bad list assignment.
"""

from .graphs import (
    DEFAULT_HEURISTIC,
    FAMILIES,
    HEURISTICS,
    Problem,
    ProblemFormatError,
    VertexOrdering,
    format_problem,
    generate_family,
    order_vertices,
    parse_problem,
)
from .poly import (
    CoefficientOverflow,
    DegreeLayout,
    RunStats,
    TermList,
    multiply_edge_extended,
    multiply_edge_standard,
    run_truncated_product,
    unpack_terms,
)
from .oracle import (
    OracleLimitError,
    brute_force_choosable,
    coefficient_table,
    color_from_pattern,
    direct_coefficient,
    orientable_within_budget,
)
from .decide import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    UNKNOWN,
    ConstraintBasis,
    ConstraintRow,
    FeasibleSearchTooLarge,
    PatternCapExceeded,
    Settings,
    Verdict,
    collect_constraints,
    enumerate_assignment_patterns,
    enumerate_feasible_vectors,
    find_deletable_edges,
    pipeline_decide,
    standard_alon_tarsi,
)

__version__ = "0.1.0"


def current_backend():
    """Always "numpy"; kept only because the benchmark records it."""
    return "numpy"


__all__ = [
    "CHOOSABLE",
    "NOT_CHOOSABLE",
    "UNKNOWN",
    "CoefficientOverflow",
    "ConstraintBasis",
    "ConstraintRow",
    "DEFAULT_HEURISTIC",
    "DegreeLayout",
    "FAMILIES",
    "FeasibleSearchTooLarge",
    "HEURISTICS",
    "OracleLimitError",
    "PatternCapExceeded",
    "Problem",
    "ProblemFormatError",
    "RunStats",
    "Settings",
    "TermList",
    "Verdict",
    "VertexOrdering",
    "brute_force_choosable",
    "coefficient_table",
    "collect_constraints",
    "color_from_pattern",
    "current_backend",
    "direct_coefficient",
    "enumerate_assignment_patterns",
    "enumerate_feasible_vectors",
    "find_deletable_edges",
    "format_problem",
    "generate_family",
    "multiply_edge_extended",
    "multiply_edge_standard",
    "orientable_within_budget",
    "order_vertices",
    "parse_problem",
    "pipeline_decide",
    "run_truncated_product",
    "standard_alon_tarsi",
    "unpack_terms",
    "__version__",
]
