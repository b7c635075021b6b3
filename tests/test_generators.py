import random
from itertools import combinations

from rolecolor import bipartition, is_chain, is_connected
from rolecolor.generators import (
    chain_graph_from_degrees,
    connected_chain_graphs,
    fano_plane,
    random_connected_bipartite,
    random_connected_hypergraph,
)
from naive import has_induced_2k2


class TestChainGeneration:
    def test_from_degrees(self):
        g = chain_graph_from_degrees(3, [3, 2, 1])
        assert g.n == 6 and g.m == 6
        assert g.adj[0] == frozenset({3, 4, 5})
        assert g.adj[1] == frozenset({3, 4})
        assert g.adj[2] == frozenset({3})

    def test_exhaustive_are_connected_chains(self):
        total = 0
        for n in range(2, 9):
            for g in connected_chain_graphs(n):
                total += 1
                assert g.n == n
                assert is_connected(g)
                bp = bipartition(g)
                assert bp and is_chain(g, bp) is True
        assert total > 100

    def test_counts_grow(self):
        counts = [sum(1 for _ in connected_chain_graphs(n)) for n in range(2, 8)]
        assert counts[0] == 1  # K2 only
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_covers_all_small_chain_graphs(self):
        # every connected bipartite 2K2-free atlas graph appears (by invariants)
        from conftest import atlas_graphs

        want = set()
        for g in atlas_graphs():
            if g.n < 2 or not is_connected(g) or has_induced_2k2(g):
                continue
            if not bipartition(g):
                continue
            want.add((g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n)))))
        have = set()
        for n in range(2, 8):
            for g in connected_chain_graphs(n):
                have.add((g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n)))))
        assert want <= have


class TestRandomBipartite:
    def test_connected_and_bipartite(self):
        rng = random.Random(123)
        for _ in range(200):
            g = random_connected_bipartite(rng, rng.randint(2, 10))
            assert is_connected(g)
            assert bipartition(g)


class TestRandomHypergraphs:
    def test_connected_3uniform(self):
        rng = random.Random(45)
        for _ in range(100):
            nq = rng.randint(3, 6)
            lo = max(1, (nq - 3 + 1) // 2 + 1)
            hi = min(4, len(list(combinations(range(nq), 3))))
            h = random_connected_hypergraph(rng, nq, rng.randint(lo, max(lo, hi)))
            assert h.is_uniform(3)
            assert h.is_connected()

    def test_fano(self):
        h = fano_plane()
        assert h.n == 7 and h.m == 7
        assert h.is_uniform(3) and h.is_connected()
        # every pair of lines meets in exactly one point
        for e, f in combinations(h.edges, 2):
            assert len(e & f) == 1
