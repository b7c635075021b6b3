import random
import tracemalloc

import pytest

from rolecolor import (
    Graph,
    GraphFormatError,
    RoleColoring,
    RoleGraph,
    emit_coloring,
    extract_role_graph,
    parse_coloring,
    parse_role_graph,
    verify_k_role,
    verify_r_role,
)
from generators import random_graph
from naive import check_degree_bound, check_role_connectivity, role_graph_connected


class TestRoleColoring:
    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError, match="outside"):
            RoleColoring((1, 3), 2)
        with pytest.raises(ValueError, match="outside"):
            RoleColoring((0, 1), 2)

    def test_used_colors(self):
        c = RoleColoring((1, 1, 3), 3)
        assert c.used_colors() == frozenset({1, 3})
        assert c.n == 3 and c.assignment[2] == 3


class TestRoleGraph:
    def test_loop_counts_once_in_neighbors(self):
        r = RoleGraph(2, [(1, 1), (1, 2)])
        assert r.neighbors(1) == frozenset({1, 2})
        assert len(r.neighbors(1)) == 2
        assert r.neighbors(2) == frozenset({1})

    def test_edges_normalized(self):
        assert RoleGraph(2, [(2, 1)]) == RoleGraph(2, [(1, 2)])

    def test_loops_do_not_connect(self):
        # two colors joined only by their own loops: disconnected
        assert not role_graph_connected(RoleGraph(2, [(1, 1), (2, 2)]))
        assert role_graph_connected(RoleGraph(2, [(1, 2)]))
        assert role_graph_connected(RoleGraph(1, [(1, 1)]))

    def test_connectivity_matches_networkx(self):
        import networkx as nx

        rng = random.Random(43)
        graphs = [RoleGraph(0), RoleGraph(1), RoleGraph(1, [(1, 1)])]
        for _ in range(300):
            colors = rng.randint(0, 7)
            pairs = [(rng.randint(1, colors), rng.randint(1, colors)) for _ in range(rng.randint(0, 8) if colors else 0)]
            graphs.append(RoleGraph(colors, pairs))
        seen = set()
        for r in graphs:
            nxg = nx.Graph()
            nxg.add_nodes_from(range(1, r.colors + 1))
            nxg.add_edges_from(r.edges)  # networkx keeps loops, and they join nothing
            want = r.colors == 0 or nx.is_connected(nxg)
            assert role_graph_connected(r) == want, r
            seen.add(want)
        assert seen == {True, False}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            RoleGraph(2, [(1, 3)])

    def test_colors_without_neighbors(self):
        # only colors with a neighbor keep a set, so a wide range costs nothing per color
        r = RoleGraph(10**6, [(1, 2), (10**6, 10**6)])
        assert r.neighbors(3) == frozenset() and len(r.neighbors(3)) == 0
        assert r.neighbors(10**6) == frozenset({10**6})
        tracemalloc.start()
        try:
            connected = role_graph_connected(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not connected and peak < 2**20  # not a set per color
        assert len(r._nbr) == 3


class TestVerifyKRole:
    def test_valid_path_coloring(self, p4):
        # 1-2-2-1 on a path: both ends see {2}, both middles see {1,2}
        assert verify_k_role(p4, RoleColoring((1, 2, 2, 1), 2)) is None

    def test_not_surjective(self, p4):
        bad = verify_k_role(p4, RoleColoring((1, 1, 1, 1), 2))
        assert bad is not None and bad.kind == "NotSurjective"
        assert bad.witness == (2,)

    def test_many_unused_colors_are_described_briefly(self, p4):
        bad = verify_k_role(p4, RoleColoring((1, 2, 2, 1), 10**6))
        assert bad.witness == tuple(range(3, 10**6 + 1))  # the witness stays complete
        text = bad.describe()
        assert text.startswith("999998 colors are never used, the first 20: [3, 4, ")
        assert text.endswith(", 22]") and len(text) < 200
        assert verify_k_role(p4, RoleColoring((1, 2, 2, 1), 22)).describe() == (
            f"colors {list(range(3, 23))} are never used"
        )

    def test_neighborhood_mismatch(self, p4):
        bad = verify_k_role(p4, RoleColoring((1, 1, 2, 2), 2))
        assert bad is not None and bad.kind == "NeighborhoodMismatch"
        u, v, su, sv = bad.witness
        assert u == 0 and v == 1
        assert su != sv
        assert "share a color" in bad.describe()

    def test_identity_always_valid(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            ident = RoleColoring(tuple(range(1, g.n + 1)), g.n)
            assert verify_k_role(g, ident) is None

    def test_length_mismatch_raises(self, p4):
        with pytest.raises(ValueError, match="covers"):
            verify_k_role(p4, RoleColoring((1, 2), 2))

    def test_deterministic_witness(self, c4):
        a = verify_k_role(c4, RoleColoring((1, 1, 2, 3), 3))
        b = verify_k_role(c4, RoleColoring((1, 1, 2, 3), 3))
        assert a == b


class TestExtractRoleGraph:
    def test_path(self, p4):
        r = extract_role_graph(p4, RoleColoring((1, 2, 2, 1), 2))
        assert r == RoleGraph(2, [(1, 2), (2, 2)])

    def test_loops_from_monochromatic_edges(self, triangle):
        r = extract_role_graph(triangle, RoleColoring((1, 1, 2), 2))
        assert (1, 1) in r.edges and (1, 2) in r.edges

    def test_any_coloring_gives_the_edge_image(self):
        # one role edge per graph edge's color pair, whatever the coloring;
        # vertices of one color may see different color sets here
        rng = random.Random(8)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            k = rng.randint(1, 5)
            c = RoleColoring(tuple(rng.randint(1, k) for _ in range(g.n)), k)
            pairs = {tuple(sorted((c.assignment[u], c.assignment[v]))) for u, v in g.edges}
            assert extract_role_graph(g, c) == RoleGraph(k, pairs)

    def test_self_consistency_with_verify_r(self):
        # extracted role graph always accepts the coloring it came from,
        # provided the coloring is a valid k-role coloring
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 7))
            k = rng.randint(1, g.n)
            assignment = tuple(rng.randint(1, k) for _ in range(g.n))
            try:
                c = RoleColoring(assignment, k)
            except ValueError:
                continue
            if verify_k_role(g, c) is not None:
                continue
            hits += 1
            r = extract_role_graph(g, c)
            assert verify_r_role(g, r, c) is None
        assert hits > 10


class TestVerifyRRole:
    def test_local_surjectivity_failure(self):
        g = Graph(2, [(0, 1)])
        r = RoleGraph(2, [(1, 1), (1, 2)])
        bad = verify_r_role(g, r, RoleColoring((1, 2), 2))
        assert bad is not None and bad.kind == "LocalSurjectivityFailure"
        v, sv, sr = bad.witness
        assert v == 0 and sv == frozenset({2}) and sr == frozenset({1, 2})

    def test_c4_onto_edge(self, c4):
        r = RoleGraph(2, [(1, 2)])
        assert verify_r_role(c4, r, RoleColoring((1, 2, 1, 2), 2)) is None

    def test_color_range_mismatch_raises(self, c4):
        with pytest.raises(ValueError, match="color range"):
            verify_r_role(c4, RoleGraph(3, [(1, 2)]), RoleColoring((1, 2, 1, 2), 2))


class TestStructuralChecks:
    def test_degree_bound_holds_on_valid(self, c4):
        c = RoleColoring((1, 2, 1, 2), 2)
        assert check_degree_bound(c4, c, extract_role_graph(c4, c))

    def test_degree_bound_fails_when_forced(self, p4):
        # an artificial role graph with too-high degree at color 1
        r = RoleGraph(2, [(1, 1), (1, 2)])
        c = RoleColoring((1, 2, 2, 1), 2)
        assert not check_degree_bound(p4, c, r)

    def test_role_connectivity_requires_connected_graph(self, two_k2):
        c = RoleColoring((1, 2, 1, 2), 2)
        with pytest.raises(ValueError, match="connected"):
            check_role_connectivity(two_k2, c, extract_role_graph(two_k2, c))


class TestColoringIO:
    def test_emit_parse_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 10)
            k = rng.randint(1, n)
            assignment = tuple(rng.randint(1, k) for _ in range(n))
            c = RoleColoring(assignment, k)
            assert parse_coloring(emit_coloring(c), k) == c

    def test_parse_defaults_k_to_max(self):
        assert parse_coloring("1 3 2\n").k == 3

    def test_parse_rejects_multi_line(self):
        with pytest.raises(GraphFormatError, match="single line"):
            parse_coloring("1 2\n2 1\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(GraphFormatError, match="integers"):
            parse_coloring("1 a 2\n")


class TestRoleGraphIO:
    def test_round_trip(self):
        r = RoleGraph(3, [(1, 1), (1, 2), (2, 3)])
        assert parse_role_graph(r.to_text()) == r

    def test_loops_allowed(self):
        r = parse_role_graph("2 2\n1 1\n1 2\n")
        assert (1, 1) in r.edges

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_role_graph("2 1\n0 1\n")
