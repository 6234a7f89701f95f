"""Exact toolkit for squares of graph adjacency matrices.

The square of an adjacency matrix counts two-edge walks: entry (i,j) is
the number of common neighbors of i and j, the diagonal holds degrees.
This package analyzes candidate squares (necessary conditions, support
components, four-cycle counts, row-sum diagnostics), decides by exact
search whether a matrix is such a square, and constructs families of
non-isomorphic graphs sharing one square.
"""

from .analysis import (
    C4Count,
    ConditionReport,
    IndexPartition,
    RegularRowSumCheck,
    RowSumReport,
    count_c4,
    is_bipartite_or_disconnected,
    necessary_conditions,
    regular_row_sum_check,
    row_sum_report,
    support_components,
)
from .construct import (
    DuplicationFamily,
    bipartite_double_cover,
    disjoint_union,
    duplication_family,
    is_bipartite,
    similar_square_pair,
    verify_bip_copy,
)
from .core import (
    DimensionMismatch,
    Graph,
    IntMatrix,
    Permutation,
    adjacency_matrix,
    apply_similarity,
    degree_sequence,
    graph_from_edges,
    permute_graph,
    square,
)
from .formats import (
    FormatError,
    parse_edgelist,
    parse_graph6,
    parse_matrix_json,
    parse_matrix_text,
    read_graph,
    read_matrix,
    to_edgelist,
    to_graph6,
    to_matrix_json,
    to_matrix_text,
)
from .iso import BudgetExhausted, IsoBudget, are_isomorphic, permutation_similar
from .realize import (
    Enumeration,
    RealizationOutcome,
    RealizationVerdict,
    SearchBudget,
    realize,
    realize_all,
    search_backend,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "C4Count",
    "ConditionReport",
    "IndexPartition",
    "RegularRowSumCheck",
    "RowSumReport",
    "count_c4",
    "is_bipartite_or_disconnected",
    "necessary_conditions",
    "regular_row_sum_check",
    "row_sum_report",
    "support_components",
    "BudgetExhausted",
    "DuplicationFamily",
    "IsoBudget",
    "are_isomorphic",
    "bipartite_double_cover",
    "disjoint_union",
    "duplication_family",
    "is_bipartite",
    "permutation_similar",
    "verify_bip_copy",
    "DimensionMismatch",
    "Graph",
    "IntMatrix",
    "Permutation",
    "adjacency_matrix",
    "apply_similarity",
    "degree_sequence",
    "graph_from_edges",
    "permute_graph",
    "square",
    "similar_square_pair",
    "FormatError",
    "parse_edgelist",
    "parse_graph6",
    "parse_matrix_json",
    "parse_matrix_text",
    "read_graph",
    "read_matrix",
    "to_edgelist",
    "to_graph6",
    "to_matrix_json",
    "to_matrix_text",
    "Enumeration",
    "RealizationOutcome",
    "RealizationVerdict",
    "SearchBudget",
    "realize",
    "realize_all",
    "search_backend",
    "verify",
    "__version__",
]
