"""Instance generators: chain graphs, connected bipartite graphs, 3-uniform hypergraphs.

A connected bipartite chain graph is determined by a part size q and a
nonincreasing degree sequence q = d_1 >= d_2 >= ... >= d_p >= 1: order Y so that
higher-degree vertices come first, then x_i is adjacent to the first d_i
vertices of Y. Enumerating those sequences enumerates every connected chain
graph (each isomorphism class shows up at least once).
"""

from __future__ import annotations

import random
from itertools import combinations

from rolecolor.graph import Graph, is_connected
from rolecolor.reductions import Hypergraph, incidence_graph


def chain_graph_from_degrees(q: int, degrees: list[int], extra_isolated: int = 0) -> Graph:
    """Build the chain graph with |Y| = q and X-degree sequence `degrees`.

    Vertices: X = 0..p-1, Y = p..p+q-1, then `extra_isolated` isolated vertices.
    """
    p = len(degrees)
    edges = []
    for i, d in enumerate(degrees):
        if not 0 <= d <= q:
            raise ValueError(f"degree {d} out of range [0,{q}]")
        edges.extend((i, p + j) for j in range(d))
    return Graph(p + q + extra_isolated, edges)


def _nonincreasing_sequences(length, first, low):
    if length == 0:
        yield ()
        return
    for d in range(low, first + 1):
        for rest in _nonincreasing_sequences(length - 1, d, low):
            yield (d,) + rest


def connected_chain_graphs(n: int):
    """All connected bipartite chain graphs on exactly n vertices (n >= 2)."""
    for p in range(1, n):
        q = n - p
        for degs in _nonincreasing_sequences(p - 1, q, 1):
            yield chain_graph_from_degrees(q, [q, *degs])


def relabel(g: Graph, perm: list[int]) -> Graph:
    """perm[v] is the new id of vertex v."""
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def random_chain_graph(rng: random.Random, n: int, allow_isolated: bool = True) -> Graph:
    """A random chain graph on n vertices with randomly permuted vertex ids."""
    iso = rng.randint(0, max(0, n - 2)) if (allow_isolated and rng.random() < 0.3) else 0
    core = n - iso
    if core < 2:
        iso, core = n, 0
    if core == 0:
        g = Graph(n)
    else:
        p = rng.randint(1, core - 1)
        q = core - p
        degs = sorted((rng.randint(1, q) for _ in range(p)), reverse=True)
        degs[0] = q
        g = chain_graph_from_degrees(q, degs, extra_isolated=iso)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_connected_bipartite(rng: random.Random, n: int) -> Graph:
    """A random connected bipartite graph on n >= 2 vertices."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    p = rng.randint(1, n - 1)
    xs = list(range(p))
    ys = list(range(p, n))
    # random spanning tree alternating between the parts
    edges = set()
    placed_x, placed_y = [xs[0]], []
    pool = xs[1:] + ys
    rng.shuffle(pool)
    for v in pool:
        if v < p:
            if not placed_y:
                # no Y vertex placed yet; defer
                pool.append(v)
                continue
            edges.add((v, rng.choice(placed_y)))
            placed_x.append(v)
        else:
            edges.add((rng.choice(placed_x), v))
            placed_y.append(v)
    for x in xs:
        for y in ys:
            if (x, y) not in edges and rng.random() < 0.3:
                edges.add((x, y))
    g = Graph(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def hypergraph_connected(h: Hypergraph) -> bool:
    """Connected in the incidence sense: every vertex covered, one component."""
    if not h.edges:
        return h.n <= 1
    if sum(map(len, h.edges)) < h.n + h.m - 1:
        return False  # too few incidences to span the incidence graph
    return is_connected(incidence_graph(h).graph)


def random_connected_hypergraph(rng: random.Random, nq: int, ns: int) -> Hypergraph:
    """A random connected 3-uniform hypergraph with nq vertices and ns hyperedges.

    Connected in the hypergraph sense: every vertex is covered and the incidence
    graph is connected. Requires nq >= 3 and enough edges to cover the vertices.
    """
    if nq < 3 or ns < 1:
        raise ValueError("need nq >= 3 and ns >= 1")
    if 3 + 2 * (ns - 1) < nq:
        raise ValueError(f"{ns} triples cannot cover {nq} vertices connectedly")
    all_triples = list(combinations(range(nq), 3))
    if ns > len(all_triples):
        raise ValueError("too many hyperedges requested")
    for _ in range(10_000):
        edges = rng.sample(all_triples, ns)
        h = Hypergraph(nq, [frozenset(e) for e in edges])
        if hypergraph_connected(h):
            return h
    raise RuntimeError(f"no connected 3-uniform hypergraph found for nq={nq}, ns={ns}")


FANO_LINES = [
    {0, 1, 2},
    {0, 3, 4},
    {0, 5, 6},
    {1, 3, 5},
    {1, 4, 6},
    {2, 3, 6},
    {2, 4, 5},
]


def fano_plane() -> Hypergraph:
    return Hypergraph(7, [frozenset(l) for l in FANO_LINES])
