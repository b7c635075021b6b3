"""Hypergraphs, incidence graphs, and the hardness gadgets with their coloring
lifts and reverse extractions.

Three gadget families sit on top of the canonical incidence graph of a
3-uniform hypergraph: a two-vertex pendant path per hypergraph vertex (target
k=3), one pendant per hyperedge vertex (target k=4), and a length-(k-3) pendant
path per hyperedge vertex (targets k>=5). A fourth gadget attaches a pivot twin
and a triangle to a bipartite graph to trade one role-graph instance for a
2-role instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .graph import Graph, _ints, _read_records, bipartition, is_connected
from .roles import RoleColoring, verify_k_role
from .solver import (
    BUDGET_EXCEEDED,
    COUNT,
    DECISION,
    DEFAULT_BUDGET,
    ENUMERATE,
    NO,
    WITNESS,
    YES,
    BudgetExceeded,
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

    def is_connected(self) -> bool:
        """Connected in the incidence sense: every vertex covered, one component."""
        if self.n == 0:
            return True
        if not self.edges:
            return self.n <= 1
        covered = set().union(*self.edges)
        if len(covered) != self.n:
            return False
        comp = set(self.edges[0])
        pending = list(self.edges[1:])
        while True:
            rest = []
            grown = False
            for e in pending:
                if e & comp:
                    comp |= e
                    grown = True
                else:
                    rest.append(e)
            pending = rest
            if not pending:
                return True
            if not grown:
                return False

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

    def vertices_tagged(self, name: str) -> list[int]:
        return [v for v, tag in enumerate(self.role_of) if tag[0] == name]

    def q_count(self) -> int:
        return len(self.vertices_tagged("Q"))

    def to_text(self) -> str:
        out = [self.graph.to_text().rstrip("\n")]
        for v, tag in enumerate(self.role_of):
            args = ",".join(str(a) for a in tag[1:])
            out.append(f"# tag {v} {tag[0]}" + (f"[{args}]" if args else ""))
        return "\n".join(out) + "\n"


def incidence_graph(h: Hypergraph) -> GadgetGraph:
    """Canonical incidence graph: Q keeps its ids, hyperedge j becomes vertex n+j."""
    if h.m == 0:
        raise ValueError("hypergraph has no hyperedges")
    nq = h.n
    edges = [(q, nq + j) for j, e in enumerate(h.edges) for q in e]
    tags = [("Q", i) for i in range(nq)] + [("S", j) for j in range(h.m)]
    return GadgetGraph(Graph(nq + h.m, edges), tuple(tags), "incidence")


def _require_3uniform(h: Hypergraph):
    if not h.is_uniform(3):
        raise ValueError("hypergraph must be 3-uniform")


def build_k3_instance(h: Hypergraph) -> GadgetGraph:
    """Incidence graph plus a two-vertex pendant path q - b_q - a_q per q."""
    _require_3uniform(h)
    base = incidence_graph(h)
    nq, ns = h.n, h.m
    off = nq + ns
    edges = list(base.graph.edges)
    tags = list(base.role_of)
    for q in range(nq):
        edges.append((q, off + q))  # b_q
        edges.append((off + q, off + nq + q))  # a_q
    tags += [("Bq", q) for q in range(nq)]
    tags += [("Aq", q) for q in range(nq)]
    return GadgetGraph(Graph(off + 2 * nq, edges), tuple(tags), "k3", k=3)


def build_k4_instance(h: Hypergraph) -> GadgetGraph:
    """Incidence graph plus one pendant vertex per hyperedge vertex."""
    _require_3uniform(h)
    base = incidence_graph(h)
    nq, ns = h.n, h.m
    off = nq + ns
    edges = list(base.graph.edges)
    tags = list(base.role_of)
    for j in range(ns):
        edges.append((nq + j, off + j))
    tags += [("PendantS", j) for j in range(ns)]
    return GadgetGraph(Graph(off + ns, edges), tuple(tags), "k4", k=4)


def build_kpath_instance(h: Hypergraph, k: int) -> GadgetGraph:
    """Incidence graph plus a pendant path of k-3 vertices hanging off each s."""
    if k < 5:
        raise ValueError("pendant-path gadget requires k >= 5")
    _require_3uniform(h)
    base = incidence_graph(h)
    nq, ns = h.n, h.m
    off = nq + ns
    plen = k - 3
    edges = list(base.graph.edges)
    tags = list(base.role_of)
    for j in range(ns):
        ids = [off + j * plen + (pos - 1) for pos in range(1, plen + 1)]
        for a, b in zip(ids, ids[1:]):
            edges.append((a, b))
        edges.append((ids[-1], nq + j))  # (p^s_{k-3}, s)
        tags += [("PathS", j, pos) for pos in range(1, plen + 1)]
    return GadgetGraph(Graph(off + ns * plen, edges), tuple(tags), "kpath", k=k)


def build_almost_bipartite(g: Graph, x: int) -> GadgetGraph:
    """Attach a twin y of the pivot x, the edge (y,a), a pendant c on a and the
    triangle a-b-d to g.

    Precondition: g is connected, bipartite and has at least one edge. The
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
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not bipartition(g):
        raise ValueError("graph must be bipartite")
    if g.m == 0:
        raise ValueError("graph must have at least one edge")
    y, a, b, c, d = range(g.n, g.n + 5)
    edges = list(g.edges) + [(y, u) for u in g.adj[x]]
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
                if all(color[q] == c for q in rest):
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


def lift_coloring(gg: GadgetGraph, beta: RoleColoring) -> RoleColoring:
    """Turn a hypergraph coloring into the explicit role coloring of the gadget."""
    if gg.kind == "k3":
        return _lift_k3(gg, beta)
    if gg.kind == "k4":
        return _lift_k4(gg, beta)
    if gg.kind == "kpath":
        return _lift_kpath(gg, beta)
    raise ValueError(f"no coloring lift for gadget kind {gg.kind!r}")


def _lift_k3(gg: GadgetGraph, beta: RoleColoring) -> RoleColoring:
    if beta.k != 2 or beta.n != gg.q_count():
        raise ValueError("k3 gadget needs a 2-coloring of the hypergraph vertices")
    alpha = [0] * gg.graph.n
    for v, tag in enumerate(gg.role_of):
        if tag[0] == "Q":
            alpha[v] = beta.assignment[tag[1]]
        elif tag[0] in ("S", "Bq"):
            alpha[v] = 3
        else:  # Aq: the {1,2}-color its q does not have
            alpha[v] = 3 - beta.assignment[tag[1]]
    return RoleColoring(tuple(alpha), 3)


def _lift_k4(gg: GadgetGraph, beta: RoleColoring) -> RoleColoring:
    if beta.k != 3 or beta.n != gg.q_count():
        raise ValueError("k4 gadget needs a 3-coloring of the hypergraph vertices")
    alpha = [0] * gg.graph.n
    s_seen = {}  # hyperedge index -> set of colors on its Q-neighbors
    g = gg.graph
    for v, tag in enumerate(gg.role_of):
        if tag[0] == "Q":
            alpha[v] = beta.assignment[tag[1]]
        elif tag[0] == "S":
            alpha[v] = 4
    for v, tag in enumerate(gg.role_of):
        if tag[0] == "S":
            s_seen[tag[1]] = {alpha[u] for u in g.adj[v] if gg.role_of[u][0] == "Q"}
    for v, tag in enumerate(gg.role_of):
        if tag[0] == "PendantS":
            seen = s_seen[tag[1]]
            if len(seen) == 2:
                alpha[v] = min({1, 2, 3} - seen)
            else:
                alpha[v] = 1  # free choice in the construction; pick the smallest
    return RoleColoring(tuple(alpha), 4)


def _lift_kpath(gg: GadgetGraph, beta: RoleColoring) -> RoleColoring:
    if beta.k != 2 or beta.n != gg.q_count():
        raise ValueError("pendant-path gadget needs a 2-coloring")
    k = gg.k
    alpha = [0] * gg.graph.n
    for v, tag in enumerate(gg.role_of):
        if tag[0] == "Q":
            alpha[v] = beta.assignment[tag[1]]
        elif tag[0] == "S":
            alpha[v] = 3
        elif tag[0] == "PathS":
            pos = tag[2]
            alpha[v] = 4 if pos == k - 3 else k - pos + 1
    return RoleColoring(tuple(alpha), k)


@dataclass(frozen=True)
class CannotExtract:
    """The proofs exclude this shape of coloring (e.g. a monochromatic Q)."""

    reason: str

    def __bool__(self):
        return False


def extract_beta(gg: GadgetGraph, alpha: RoleColoring):
    """Reverse direction: pull a hypergraph coloring out of a verified gadget coloring."""
    bad = verify_k_role(gg.graph, alpha)
    if bad is not None:
        raise ValueError(f"not a valid role coloring: {bad.describe()}")
    qs = gg.vertices_tagged("Q")
    q_colors = sorted({alpha.assignment[v] for v in qs})
    if gg.kind in ("k3", "kpath"):
        if len(q_colors) != 2:
            return CannotExtract(f"Q uses {len(q_colors)} colors, expected 2")
        rename = {c: i + 1 for i, c in enumerate(q_colors)}
        return RoleColoring(tuple(rename[alpha.assignment[v]] for v in qs), 2)
    if gg.kind == "k4":
        if len(q_colors) == 3:
            rename = {c: i + 1 for i, c in enumerate(q_colors)}
            return RoleColoring(tuple(rename[alpha.assignment[v]] for v in qs), 3)
        if len(q_colors) == 2:
            rename = {c: i + 1 for i, c in enumerate(q_colors)}
            beta = [rename[alpha.assignment[v]] for v in qs]
            # recolor one vertex with the third color: the smallest id whose
            # color is shared, so both original colors survive
            pick = min(i for i, c in enumerate(beta) if beta.count(c) > 1)
            beta[pick] = 3
            return RoleColoring(tuple(beta), 3)
        return CannotExtract(f"Q uses {len(q_colors)} colors, expected 2 or 3")
    raise ValueError(f"no extraction for gadget kind {gg.kind!r}")
