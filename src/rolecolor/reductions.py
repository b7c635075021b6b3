"""Hypergraphs, incidence graphs, hypergraph coloring, and the hardness gadgets.

Three gadget families sit on top of the canonical incidence graph of a
3-uniform hypergraph: a two-vertex pendant path per hypergraph vertex (target
k=3), one pendant per hyperedge vertex (target k=4), and a length-(k-3) pendant
path per hyperedge vertex (targets k>=5). A fourth gadget attaches a pivot twin
and a triangle to a bipartite graph to trade one role-graph instance for a
2-role instance. The proofs' coloring lifts and reverse extractions live in
tests/gadget_proofs.py, next to the tests that check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .graph import MAX_HEADER_COUNT, Graph, _ints, _read_records, bipartition, is_connected
from .roles import RoleColoring
from .solver import (
    BUDGET_EXCEEDED,
    COUNT,
    DECISION,
    DEFAULT_BUDGET,
    ENUMERATE,
    NO,
    WITNESS,
    YES,
    SolveResult,
    _check_search_args,
)


class Hypergraph:
    """Vertex set 0..n-1 plus a list of nonempty hyperedges."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise ValueError("empty hyperedge")
            if any(not (0 <= q < n) for q in fe):
                raise ValueError(f"hyperedge {sorted(fe)} out of range [0,{n})")
            norm.append(fe)
        self.n = n
        self.edges = tuple(norm)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_uniform(self, q: int) -> bool:
        return all(len(e) == q for e in self.edges)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for e in self.edges:
            vs = sorted(e)
            lines.append(f"{len(vs)} " + " ".join(map(str, vs)))
        return "\n".join(lines) + "\n"


def _hyperedge(toks: list) -> tuple:
    """A hyperedge line is "t v1 ... vt": t distinct vertices."""
    vals = _ints(toks)
    t, vs = vals[0], vals[1:]
    if len(vs) != t:
        raise ValueError("hyperedge line must be 't v1 ... vt'")
    if len(set(vs)) != t:
        raise ValueError("repeated vertex in hyperedge")
    return vs


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse "n m" then m lines "t v1 ... vt"."""
    return _read_records(text, Hypergraph, _hyperedge)


# vertex tags: ("Q", i), ("S", j), ("Bq", i), ("Aq", i), ("PendantS", j),
# ("PathS", j, pos), ("Pivot",), ("Orig",), ("Twin",), ("GadgetA",), ("GadgetB",),
# ("GadgetC",), ("GadgetD",)


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    role_of: tuple  # tag per vertex
    kind: str  # incidence / k3 / k4 / kpath / almost
    k: int | None = None
    pivot: int | None = None

    def to_text(self) -> str:
        out = [self.graph.to_text().rstrip("\n")]
        for v, tag in enumerate(self.role_of):
            args = ",".join(str(a) for a in tag[1:])
            out.append(f"# tag {v} {tag[0]}" + (f"[{args}]" if args else ""))
        return "\n".join(out) + "\n"


def _incidence(h: Hypergraph, three_uniform: bool = False, added: int = 0) -> tuple[list, list]:
    """Edge and tag lists of incidence_graph(h), for a gadget that appends `added` vertices. A
    gadget above MAX_HEADER_COUNT vertices, whose file no reader takes back, is refused first."""
    if three_uniform and not h.is_uniform(3):
        raise ValueError("hypergraph must be 3-uniform")
    if h.m == 0:
        raise ValueError("hypergraph has no hyperedges")
    nq = h.n
    if nq + h.m + added > MAX_HEADER_COUNT:
        raise ValueError(f"gadget has {nq + h.m + added} vertices, above the limit {MAX_HEADER_COUNT}")
    edges = [(q, nq + j) for j, e in enumerate(h.edges) for q in e]
    tags = [("Q", i) for i in range(nq)] + [("S", j) for j in range(h.m)]
    return edges, tags


def incidence_graph(h: Hypergraph) -> GadgetGraph:
    """Canonical incidence graph: Q keeps its ids, hyperedge j becomes vertex n+j."""
    edges, tags = _incidence(h)
    return GadgetGraph(Graph(h.n + h.m, edges), tuple(tags), "incidence")


def build_k3_instance(h: Hypergraph) -> GadgetGraph:
    """Incidence graph plus a two-vertex pendant path q - b_q - a_q per q."""
    edges, tags = _incidence(h, three_uniform=True, added=2 * h.n)
    nq = h.n
    off = nq + h.m
    edges += [(q, off + q) for q in range(nq)]  # b_q
    edges += [(off + q, off + nq + q) for q in range(nq)]  # a_q
    tags += [("Bq", q) for q in range(nq)]
    tags += [("Aq", q) for q in range(nq)]
    return GadgetGraph(Graph(off + 2 * nq, edges), tuple(tags), "k3", k=3)


def build_k4_instance(h: Hypergraph) -> GadgetGraph:
    """Incidence graph plus one pendant vertex per hyperedge vertex."""
    edges, tags = _incidence(h, three_uniform=True, added=h.m)
    nq, ns = h.n, h.m
    off = nq + ns
    edges += [(nq + j, off + j) for j in range(ns)]
    tags += [("PendantS", j) for j in range(ns)]
    return GadgetGraph(Graph(off + ns, edges), tuple(tags), "k4", k=4)


def build_kpath_instance(h: Hypergraph, k: int) -> GadgetGraph:
    """Incidence graph plus a pendant path of k-3 vertices hanging off each s."""
    if k < 5:
        raise ValueError("pendant-path gadget requires k >= 5")
    edges, tags = _incidence(h, three_uniform=True, added=h.m * (k - 3))
    nq, ns = h.n, h.m
    off = nq + ns
    plen = k - 3
    ends = range(off + plen - 1, off + ns * plen, plen)  # p^s_{k-3} per s
    edges += [(v, v + 1) for end in ends for v in range(end - plen + 1, end)]
    edges += [(end, nq + j) for j, end in enumerate(ends)]
    tags += [("PathS", j, pos) for j in range(ns) for pos in range(1, plen + 1)]
    return GadgetGraph(Graph(off + ns * plen, edges), tuple(tags), "kpath", k=k)


def build_almost_bipartite(g: Graph, x: int) -> GadgetGraph:
    """Attach a twin y of the pivot x, the edge (y,a), a pendant c on a and the
    triangle a-b-d to g.

    Precondition: g is connected, bipartite and has at least one edge, and
    g.n + 5 is at most MAX_HEADER_COUNT, checked before the other passes. The
    result is one vertex (a or b) and one edge (b,d) away from bipartite, and
    it is 2-role colorable exactly when g has an R0-role coloring, where R0 is
    the role graph with edge 1-2 and a loop at 1:

    1. c sees one color and the gadget is connected with a triangle, so every
       2-role coloring has role graph R0; name the colors so that color 1 sees
       {1,2} and color 2 sees {1}. Then c = 2 and a = 1.
    2. N(y) = N_g(x) + {a}, so y sees the colors of N_g(x) plus 1, which
       forces y to take x's color. Every vertex of g thus sees in the gadget
       exactly the colors it sees in g, and the restriction is an R0-coloring.
    3. Conversely, an R0-coloring of g extends by y = x's color, a = d = 1 and
       b = c = 2.
    """
    if not (0 <= x < g.n):
        raise ValueError(f"pivot {x} out of range")
    if g.n + 5 > MAX_HEADER_COUNT:
        raise ValueError(f"gadget has {g.n + 5} vertices, above the limit {MAX_HEADER_COUNT}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not bipartition(g):
        raise ValueError("graph must be bipartite")
    if g.m == 0:
        raise ValueError("graph must have at least one edge")
    y, a, b, c, d = range(g.n, g.n + 5)
    edges = [(u, v) for u, nb in enumerate(g.adj) for v in nb if u < v]
    edges += [(y, u) for u in g.adj[x]]
    edges += [(y, a), (a, c), (a, b), (a, d), (b, d)]
    tags = [("Pivot",) if v == x else ("Orig",) for v in range(g.n)]
    tags += [("Twin",), ("GadgetA",), ("GadgetB",), ("GadgetC",), ("GadgetD",)]
    return GadgetGraph(Graph(g.n + 5, edges), tuple(tags), "almost", k=2, pivot=x)


def hypergraph_k_colorable(
    h: Hypergraph,
    k: int,
    mode: str = DECISION,
    budget: int = DEFAULT_BUDGET,
    require_surjective: bool = True,
    limit: int = 1,
) -> SolveResult:
    """Backtracking hypergraph coloring: no hyperedge monochromatic.

    By default every color must also be used at least once (the reductions rely
    on surjective colorings); pass require_surjective=False for the textbook
    definition.

    Vertices take colors in ascending id order, colors in ascending order, on an
    explicit stack; a hyperedge is checked when its highest vertex is colored.
    Valid colorings are closed under color permutation, so decision, witness
    and count modes walk restricted growth strings only: the lexicographically
    smallest coloring is one of them, and a valid partition into j blocks
    stands for k!/(k-j)! colorings in the count. Enumerate mode walks all k
    colors, in lexicographic order. `nodes` counts candidate colors, and the
    budget bounds it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_search_args(mode, budget, limit)
    n = h.n
    if require_surjective and k > n:
        return SolveResult(status=NO, count=0 if mode == COUNT else None)
    closing = [[] for _ in range(n)]  # the other vertices of each hyperedge whose highest vertex is v
    for e in h.edges:
        last = max(e)
        closing[last].append(tuple(q for q in e if q != last))
    rgs = mode != ENUMERATE
    color = [0] * n
    used = [0] * (n + 1)  # number of distinct colors before each level
    top = [0] * (n + 1)  # highest color to try at each level; 0 at a dead end and at the leaf
    nodes = count = 0
    found = []
    v = c = 0
    fresh = True
    while True:
        if fresh:
            fresh = False
            c = 0
            if v == n:
                j = used[n]
                if not require_surjective or j == k:
                    if mode == COUNT:
                        count += perm(k, j)
                    else:
                        found.append(RoleColoring(tuple(color), k))
                        if mode != ENUMERATE or len(found) >= limit:
                            break
            elif require_surjective and k - used[v] > n - v:
                top[v] = 0
            else:
                top[v] = min(used[v] + 1, k) if rgs else k
        while c < top[v]:
            c += 1
            nodes += 1
            if nodes > budget:
                return SolveResult(status=BUDGET_EXCEEDED, nodes=nodes)
            for rest in closing[v]:
                if all(map(c.__eq__, map(color.__getitem__, rest))):
                    break  # c would make this hyperedge monochromatic
            else:
                color[v] = c
                if rgs:
                    used[v + 1] = max(used[v], c)
                else:
                    used[v + 1] = used[v] + (c not in color[:v])
                v += 1
                fresh = True
                break
        else:
            if v == 0:
                break
            v -= 1
            c = color[v]
    if mode == COUNT:
        return SolveResult(status=YES if count else NO, count=count, nodes=nodes)
    return SolveResult(
        status=YES if found else NO,
        certificate=found[0] if (found and mode in (WITNESS, DECISION)) else None,
        nodes=nodes,
        certificates=tuple(found) if mode == ENUMERATE else (),
    )

