"""Role colorings of graphs: verification, exact search, the bipartite chain
graph decision procedure, and the hardness reduction gadgets."""

from .chain3 import ChainDecision, NotBipartiteError, NotChainError, decide_chain3
from .graph import (
    Bipartition,
    ChainStructure,
    Graph,
    GraphFormatError,
    NotBipartite,
    Witness2K2,
    bipartition,
    chain_structure,
    is_chain,
    is_connected,
    parse_graph,
)
from .reductions import (
    GadgetGraph,
    Hypergraph,
    build_almost_bipartite,
    build_k3_instance,
    build_k4_instance,
    build_kpath_instance,
    hypergraph_k_colorable,
    incidence_graph,
    parse_hypergraph,
)
from .roles import (
    RoleColoring,
    RoleGraph,
    Violation,
    emit_coloring,
    extract_role_graph,
    parse_coloring,
    parse_role_graph,
    verify_k_role,
    verify_r_role,
)
from .solver import (
    BudgetExceeded,
    SolveResult,
    solve_k_role,
    solve_r_role,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BudgetExceeded",
    "ChainDecision",
    "ChainStructure",
    "GadgetGraph",
    "Graph",
    "GraphFormatError",
    "Hypergraph",
    "NotBipartite",
    "NotBipartiteError",
    "NotChainError",
    "RoleColoring",
    "RoleGraph",
    "SolveResult",
    "Violation",
    "Witness2K2",
    "bipartition",
    "build_almost_bipartite",
    "build_k3_instance",
    "build_k4_instance",
    "build_kpath_instance",
    "chain_structure",
    "decide_chain3",
    "emit_coloring",
    "extract_role_graph",
    "hypergraph_k_colorable",
    "incidence_graph",
    "is_chain",
    "is_connected",
    "parse_coloring",
    "parse_graph",
    "parse_hypergraph",
    "parse_role_graph",
    "solve_k_role",
    "solve_r_role",
    "verify_k_role",
    "verify_r_role",
]
