import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the naive oracle helpers

from rolecolor import (
    Graph,
    extract_role_graph,
    is_connected,
    verify_k_role,
)
from naive import check_degree_bound, check_role_connectivity


@pytest.fixture
def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def two_k2():
    return Graph(4, [(0, 1), (2, 3)])


@pytest.fixture
def star3():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def atlas_graphs():
    """All 1253 graphs on at most 7 vertices, exactly one per isomorphism class."""
    import networkx as nx

    out = []
    for a in nx.graph_atlas_g():
        nodes = sorted(a.nodes())
        idx = {u: i for i, u in enumerate(nodes)}
        out.append(Graph(len(nodes), ((idx[u], idx[v]) for u, v in a.edges())))
    return out


def assert_observations(g, coloring):
    """Every valid coloring must obey the degree bound and, on connected
    inputs, role-graph connectivity."""
    assert verify_k_role(g, coloring) is None
    r = extract_role_graph(g, coloring)
    assert check_degree_bound(g, coloring, r)
    if is_connected(g) and g.n > 0:
        assert check_role_connectivity(g, coloring, r)
