import random

import pytest

from rolecolor import (
    Graph,
    GraphFormatError,
    bipartition,
    chain_structure,
    is_chain,
    is_connected,
    parse_graph,
)
from generators import (
    random_chain_graph,
    random_connected_bipartite,
    random_connected_hypergraph,
    random_graph,
    relabel,
)
from rolecolor.graph import connected_components
from rolecolor.reductions import build_k3_instance, build_k4_instance, build_kpath_instance
from naive import has_induced_2k2, naive_bipartition


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert is_connected(g)

    def test_edges_normalized(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert 2 in g.adj[0] and 0 in g.adj[2]
        assert 1 not in g.adj[0]
        assert g.degree(2) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(1, 0)]))


class TestParsing:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert parse_graph(g.to_text()) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n\n3 1\n# another\n0 2\n"
        assert parse_graph(text) == Graph(3, [(0, 2)])

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="missing header"):
            parse_graph("# only a comment\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declared 2"):
            parse_graph("3 2\n0 1\n")

    def test_bad_tokens_carry_line_numbers(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("3 1\n0 x\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("3 2\n0 1\n1 0\n")

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9))
            assert parse_graph(g.to_text()) == g


def gadget_graphs():
    """k3, k4 and kpath gadgets on a few random connected 3-uniform hypergraphs."""
    rng = random.Random(5)
    out = []
    for nq, ns in ((3, 1), (4, 3), (6, 4), (7, 6)):
        h = random_connected_hypergraph(rng, nq, ns)
        out += [build_k3_instance(h), build_k4_instance(h), build_kpath_instance(h, 5 + nq % 3)]
    return out


def invariant_graphs():
    rng = random.Random(11)
    randoms = [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(60)]
    return randoms + [gg.graph for gg in gadget_graphs()]


class TestInvariants:
    """`m` and `adj` are set on construction; `edges` is built from `adj` on first use."""

    def test_edges_are_built_on_first_use(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g._edges is None and g.m == 2
        assert g.edges is g.edges == frozenset({(0, 2), (1, 2)})

    def test_m_counts_the_edges(self):
        for g in invariant_graphs():
            assert g.m == len(g.edges) == sum(map(len, g.adj)) // 2
            assert all(u < v and v in g.adj[u] for u, v in g.edges)

    def test_edge_order_and_direction_do_not_matter(self):
        rng = random.Random(17)
        for g in invariant_graphs():
            es = list(g.edges)
            rng.shuffle(es)
            mixed = Graph(g.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in es])
            flipped = Graph(g.n, [(v, u) for u, v in reversed(es)])
            for h in (mixed, flipped):
                assert h == g and hash(h) == hash(g) and h.m == g.m
            if es:
                assert Graph(g.n, es[1:]) != g

    def test_text_round_trips(self):
        for g in invariant_graphs():
            assert parse_graph(g.to_text()) == g
        for gg in gadget_graphs():
            text = gg.to_text()
            assert f"# tag {gg.graph.n - 1} " in text
            back = parse_graph(text)
            assert back == gg.graph and back.m == gg.graph.m and back.edges == gg.graph.edges


class TestConnectivity:
    def test_connected_path(self, p4):
        assert is_connected(p4)
        assert connected_components(p4) == [[0, 1, 2, 3]]

    def test_disconnected(self, two_k2):
        assert not is_connected(two_k2)
        assert connected_components(two_k2) == [[0, 1], [2, 3]]

    def test_isolated_vertices(self):
        g = Graph(3)
        assert not is_connected(g)
        assert connected_components(g) == [[0], [1], [2]]

    def test_matches_components_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.random() * 0.5)
            assert is_connected(g) == (len(connected_components(g)) == 1)


class TestBipartition:
    def test_path_bipartition(self, p4):
        bp = bipartition(p4)
        assert bp
        assert bp.partX == frozenset({0, 2})
        assert bp.partY == frozenset({1, 3})

    def test_triangle_witness(self, triangle):
        w = bipartition(triangle)
        assert not w
        walk = w.odd_walk
        assert walk[0] == walk[-1]
        assert len(walk) % 2 == 0  # odd number of edges
        for a, b in zip(walk, walk[1:]):
            assert b in triangle.adj[a]

    def test_odd_cycle_witnesses(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, 0.4)
            w = bipartition(g)
            if w:
                # every edge must cross the parts
                for u, v in g.edges:
                    assert (u in w.partX) != (v in w.partX)
            else:
                walk = w.odd_walk
                assert walk[0] == walk[-1] and len(walk) % 2 == 0
                for a, b in zip(walk, walk[1:]):
                    assert b in g.adj[a]

    def test_matches_the_sorted_reference(self):
        def union(a, b):
            g = Graph(a.n + b.n, [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            return relabel(g, perm)

        rng = random.Random(29)
        kinds = set()
        for _ in range(200):
            a = random_connected_bipartite(rng, rng.randint(2, 14))
            b = random_connected_bipartite(rng, rng.randint(2, 8))
            odd = random_graph(rng, rng.randint(3, 12), 0.3)
            for g in (a, union(a, b), union(union(a, Graph(2)), odd), odd):
                got = bipartition(g)
                assert got == naive_bipartition(g)
                kinds.add((bool(got), is_connected(g)))
        assert len(kinds) == 4  # bipartite or not, connected or not


class TestChainRecognition:
    def test_2k2_is_not_chain(self, two_k2):
        bp = bipartition(two_k2)
        w = is_chain(two_k2, bp)
        assert w is not True
        u, v, z, t = w.u, w.v, w.w, w.z
        assert z in two_k2.adj[u] and t in two_k2.adj[v]
        assert t not in two_k2.adj[u] and z not in two_k2.adj[v]

    def test_star_is_chain(self, star3):
        assert is_chain(star3, bipartition(star3)) is True

    def test_agrees_with_exhaustive_2k2_search(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 8), 0.35)
            bp = bipartition(g)
            if not bp:
                continue
            checked += 1
            assert (is_chain(g, bp) is True) == (not has_induced_2k2(g))
        assert checked > 50

    def test_random_chain_graphs_recognized(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_chain_graph(rng, rng.randint(2, 12))
            bp = bipartition(g)
            assert bp
            assert is_chain(g, bp) is True


class TestChainStructure:
    def test_k33_all_universal(self):
        g = Graph(6, [(x, y) for x in range(3) for y in range(3, 6)])
        bp = bipartition(g)
        cs = chain_structure(g, bp)
        assert cs.universalX == bp.partX
        assert cs.universalY == bp.partY
        assert not cs.pendantX and not cs.pendantY

    def test_star_structure(self, star3):
        bp = bipartition(star3)
        cs = chain_structure(star3, bp)
        assert cs.universalX == frozenset({0})
        assert cs.pendantY == frozenset({1, 2, 3})
        assert cs.universalY == frozenset({1, 2, 3})  # |X| = 1 makes leaves universal
