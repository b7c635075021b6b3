"""Independent brute-force oracles used to cross-check the solvers.

Everything here enumerates plainly (all surjective maps, all assignments) and
never reuses the production search code, except three subclasses of its engine
that keep its walk: `RescanEngine` spells out the incremental pruning rules,
`BareEngine` switches the k-role rules off, and `enumerate_k_role`'s engine
goes on past each witness.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from rolecolor import (
    Bipartition,
    Graph,
    GraphFormatError,
    Hypergraph,
    NotBipartite,
    RoleColoring,
    RoleGraph,
    is_connected,
    verify_k_role,
)
from rolecolor.solver import (
    BUDGET_EXCEEDED,
    COUNT,
    DECISION,
    DEFAULT_BUDGET,
    NO,
    WITNESS,
    YES,
    SolveResult,
    _check_search_args,
    _Engine,
)


@lru_cache(maxsize=None)
def surjective_assignments(n: int, k: int) -> np.ndarray:
    """All surjective maps {0..n-1} -> {1..k} as rows of an (R, n) array."""
    if k > n or n == 0:
        return np.empty((0, max(n, 1)), dtype=np.int8)
    grids = np.indices((k,) * n).reshape(n, -1).T.astype(np.int8) + 1
    keep = np.ones(len(grids), dtype=bool)
    for c in range(1, k + 1):
        keep &= (grids == c).any(axis=1)
    return grids[keep]


def naive_valid_mask(g: Graph, assigns: np.ndarray) -> np.ndarray:
    """Definition check, vectorized over rows of surjective assignments."""
    masks = (1 << assigns.astype(np.int32)).astype(np.int32)
    nbr = np.zeros_like(masks)
    for v in range(g.n):
        acc = np.zeros(len(assigns), dtype=np.int32)
        for u in g.adj[v]:
            acc |= masks[:, u]
        nbr[:, v] = acc
    ok = np.ones(len(assigns), dtype=bool)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            ok &= (assigns[:, u] != assigns[:, v]) | (nbr[:, u] == nbr[:, v])
    return ok


def naive_k_role(g: Graph, k: int) -> tuple[bool, int]:
    """(answer, number of valid surjective maps). The map count is k! times the
    canonical (up-to-permutation) count."""
    a = surjective_assignments(g.n, k)
    if len(a) == 0:
        return False, 0
    ok = naive_valid_mask(g, a)
    cnt = int(ok.sum())
    return cnt > 0, cnt


def naive_r_role(g: Graph, r: RoleGraph) -> tuple[bool, int, tuple | None]:
    """Brute force over all |V(R)|^n maps; pure Python, small n only.

    Returns (answer, number of valid maps, lexicographically first valid map).
    """
    cnt = 0
    first = None
    for assign in product(range(1, r.colors + 1), repeat=g.n):
        if len(set(assign)) != r.colors:
            continue
        if all(
            frozenset(assign[u] for u in g.adj[v]) == r.neighbors(assign[v])
            for v in range(g.n)
        ):
            cnt += 1
            if first is None:
                first = assign
    return cnt > 0, cnt, first


def naive_k_role_partitions(g: Graph, k: int):
    """Plain restricted-growth enumeration with a leaf check and no pruning.

    The reference for every answer, count, witness and enumerate_k_role list
    of a k-role search small enough to enumerate.
    """
    n = g.n
    if k > n:
        return
    rgs = [0] * n

    def rec(v, used):
        if v == n:
            if used == k:
                cert = RoleColoring(tuple(rgs), k)
                if verify_k_role(g, cert) is None:
                    yield cert
            return
        for c in range(1, min(used + 1, k) + 1):
            rgs[v] = c
            yield from rec(v + 1, max(used, c))
        rgs[v] = 0

    yield from rec(0, 0)


class RescanEngine(_Engine):
    """The search engine with its incremental rules recomputed from scratch.

    After each coloring, and after the classes it closes are locked, seen[c] is
    rebuilt for every class and every member of every open class is checked
    against it; the forward check and the R-role look-ahead take every uncolored
    neighbor from the full adjacency list, not from the engine's `later` lists;
    the opener bound reads the locked classes from `lock`, not from `lockmask`,
    and counts every free uncolored vertex. Same walk and same rules, so the
    same nodes.
    """

    def _settle(self, v: int) -> bool:
        for u in [v, *self.earlier[v]]:
            if not self.rem[u] and self.lock[self.color[u]] < 0 and not self._close(u):
                return False
        mask, rem = self.nbr_mask, self.rem
        for c in range(1, self.k + 1):
            seen = 0
            for w in self.members[c]:
                seen |= mask[w]
            self.seen[c] = seen  # never trailed: rebuilt before each use
            if self.lock[c] < 0 and any((seen & ~mask[w]).bit_count() > rem[w] for w in self.members[c]):
                return False
        return True

    def _open_to(self, u: int) -> bool:
        """Some class can still take the uncolored vertex u."""
        m, r = self.nbr_mask[u], self.rem[u]
        for c in range(1, self.k + 1):
            want = self.lock[c]
            if want < 0 and (self.seen[c] & ~m).bit_count() <= r:
                return True
            if want >= 0 and not m & ~want and (want & ~m).bit_count() <= r:
                return True
        return False

    def _forward(self, v: int) -> bool:
        return all(self._open_to(u) for u in self.adj[v] if not self.color[u])

    def _openers(self, v: int) -> bool:
        """Enough uncolored vertices have no bound neighbor to open the unused colors."""
        color, lock, k = self.color, self.lock, self.k
        locked = {c for c in range(1, k + 1) if lock[c] >= 0}
        uncolored = [u for u in range(self.g.n) if not color[u]]
        need = k - self.n_used
        if not locked or len(uncolored) - need < need:  # the engine's two skips
            return True

        def bound(w):
            if color[w]:
                return color[w] in locked
            locks = [lock[color[z]] for z in self.adj[w] if color[z] in locked]
            left = {d for d in range(1, k + 1) if all(want >> d & 1 for want in locks)}
            return bool(locks) and left <= locked

        return sum(not any(map(bound, self.adj[u])) for u in uncolored) >= need

    def _ahead(self, v: int) -> bool:
        return all(self._need(self.nbr_mask[u]) <= self.rem[u] for u in self.adj[v] if not self.color[u])


class BareEngine(_Engine):
    """The k-role search engine with its rules switched off: every color fits, and
    no class is locked or checked after a coloring, so every surjective coloring
    the walk reaches is a leaf and the leaf re-check rejects the invalid ones.

    The walk's forced new color stays: it cuts only branches that can never use
    all k colors, so the leaves are those of an unpruned walk.
    """

    def _fits(self, v: int, c: int) -> bool:
        return True

    def _settle(self, v: int) -> bool:
        return True

    _openers = _forward = _settle


class _Enumerator(_Engine):
    """The engine in id order and witness mode, going on past each witness until it
    has `limit` of them."""

    def __init__(self, g: Graph, k: int, limit: int):
        super().__init__(g, k, None, WITNESS, DEFAULT_BUDGET, list(range(g.n)))
        self.limit = limit

    def _leaf(self) -> bool:
        return super()._leaf() and len(self.found) >= self.limit


def enumerate_k_role(g: Graph, k: int, limit: int) -> list[RoleColoring]:
    """The first `limit` valid k-role colorings of g, in the order the witness
    search meets them: ascending restricted growth strings over vertex ids."""
    e = _Enumerator(g, k, limit)
    assert e.run() != BUDGET_EXCEEDED
    return e.found


def naive_closing_order(g: Graph) -> list:
    """The closing vertex order by a plain O(n^2) scan: each step takes the
    unplaced vertex with the most placed neighbors, then the fewest unplaced
    neighbors, then the lowest id."""
    placed: set = set()
    order = []

    def key(v):
        p = len(placed.intersection(g.adj[v]))
        return (-p, g.degree(v) - p, v)

    while len(order) < g.n:
        v = min((v for v in range(g.n) if v not in placed), key=key)
        placed.add(v)
        order.append(v)
    return order


def naive_hypergraph_colorable(edges, n: int, k: int, surjective: bool = True) -> bool:
    for assign in product(range(1, k + 1), repeat=n):
        if surjective and len(set(assign)) != k:
            continue
        if all(len({assign[q] for q in e}) > 1 for e in edges):
            return True
    return False


def naive_hypergraph_k_colorable(
    h: Hypergraph,
    k: int,
    mode: str = DECISION,
    budget: int = DEFAULT_BUDGET,
    require_surjective: bool = True,
) -> SolveResult:
    """The product scan over all k^n assignments that `hypergraph_k_colorable` replaced.

    Same arguments and results, except that `nodes` counts complete assignments.

    By default every color must also be used at least once (the reductions rely
    on surjective colorings); pass require_surjective=False for the textbook
    definition.
    """
    _check_search_args(k, mode, budget)
    nodes = 0
    count = 0
    found = None
    for assignment in product(range(1, k + 1), repeat=h.n):
        nodes += 1
        if nodes > budget:
            return SolveResult(status=BUDGET_EXCEEDED, nodes=nodes)
        if require_surjective and len(set(assignment)) != k:
            continue
        if any(len({assignment[q] for q in e}) == 1 for e in h.edges):
            continue
        if mode == COUNT:
            count += 1
            continue
        found = RoleColoring(assignment, k)
        break
    if mode == COUNT:
        return SolveResult(status=YES if count else NO, count=count, nodes=nodes)
    return SolveResult(status=YES if found else NO, certificate=found, nodes=nodes)


def _naive_edge_list(text: str, check) -> tuple:
    """Reference reader for the "a m" edge-list formats, one plain pass.

    Every token of a record is converted before its width is checked, then
    `check(a, u, v, seen)` applies the format's own edge checks in order.
    Returns (a, frozenset of (min, max) edge pairs); a fault raises the
    GraphFormatError, with the line of the first faulty record, that the
    package reader is documented to raise.
    """
    records = [
        (i, toks)
        for i, toks in enumerate(map(str.split, re.split(r"\r\n|\r|\n", text)), start=1)
        if toks and toks[0][0] != "#"
    ]
    if not records:
        raise GraphFormatError("missing header line")
    (line, toks), body = records[0], records[1:]
    try:
        head = [int(t) for t in toks]
    except ValueError:
        raise GraphFormatError("expected integers", line) from None
    if len(head) != 2 or min(head) < 0:
        raise GraphFormatError("header must be two non-negative integers", line)
    a, m = head
    if a > 10**6:
        raise GraphFormatError(f"header count {a} is above the limit 1000000", line)
    seen = set()
    for line, toks in body:
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise GraphFormatError("expected integers", line) from None
        if len(vals) != 2:
            raise GraphFormatError("edge line must be two integers", line)
        u, v = vals
        fault = check(a, u, v, seen)
        if fault:
            raise GraphFormatError(fault, line)
        seen.add((min(u, v), max(u, v)))
    if len(body) != m:
        raise GraphFormatError(f"declared {m} records but found {len(body)}")
    return a, frozenset(seen)


def _graph_edge_fault(n, u, v, seen):
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u},{v}) out of range [0,{n})"
    if u == v:
        return f"self-loop at vertex {u}"
    if (min(u, v), max(u, v)) in seen:
        return f"duplicate edge ({u},{v})"
    return None


def _role_edge_fault(colors, a, b, seen):
    if (min(a, b), max(a, b)) in seen:
        return f"duplicate edge ({a},{b})"
    if not (1 <= a <= colors and 1 <= b <= colors):  # reported with its ends in order
        return f"role edge ({min(a, b)},{max(a, b)}) out of range [1,{colors}]"
    return None


def naive_parse_graph(text: str) -> tuple:
    """(n, edges) as parse_graph must read them, or its GraphFormatError."""
    return _naive_edge_list(text, _graph_edge_fault)


def naive_parse_role_graph(text: str) -> tuple:
    """(colors, edges) as parse_role_graph must read them, or its GraphFormatError."""
    return _naive_edge_list(text, _role_edge_fault)


def naive_bipartition(g: Graph):
    """BFS from each component's smallest vertex, neighbours in sorted order:
    the parts, or the odd closed walk met first."""
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in sorted(g.adj[u]):
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    parent[w] = u
                    queue.append(w)
                elif side[w] == side[u]:
                    pu = [u]
                    pw = [w]
                    while parent[pu[-1]] != -1:
                        pu.append(parent[pu[-1]])
                    while parent[pw[-1]] != -1:
                        pw.append(parent[pw[-1]])
                    anc = set(pu)
                    j = 0
                    while pw[j] not in anc:
                        j += 1
                    meet = pw[j]
                    walk = pu[: pu.index(meet) + 1] + list(reversed(pw[:j])) + [u]
                    return NotBipartite(tuple(walk))
    partX = frozenset(v for v in range(g.n) if side[v] == 0)
    partY = frozenset(v for v in range(g.n) if side[v] == 1)
    return Bipartition(partX, partY)


def identity_coloring(g: Graph) -> RoleColoring:
    return RoleColoring(tuple(range(1, g.n + 1)), g.n)


def has_induced_2k2(g: Graph) -> bool:
    """Exhaustive check over ordered pairs of disjoint edges."""
    es = sorted(g.edges)
    for i, (u, w) in enumerate(es):
        for v, z in es[i + 1 :]:
            if len({u, w, v, z}) < 4:
                continue
            if (
                v not in g.adj[u]
                and z not in g.adj[u]
                and v not in g.adj[w]
                and z not in g.adj[w]
            ):
                return True
    return False


def check_degree_bound(g: Graph, c: RoleColoring, r: RoleGraph) -> bool:
    """deg_G(v) >= deg_R(color(v)) for every vertex (a loop counts once)."""
    return all(g.degree(v) >= len(r.neighbors(c.assignment[v])) for v in range(g.n))


def check_role_connectivity(g: Graph, c: RoleColoring, r: RoleGraph) -> bool:
    """True iff r is connected. Requires g connected."""
    if not is_connected(g):
        raise ValueError("check_role_connectivity requires a connected graph")
    return role_graph_connected(r)


def role_graph_connected(r: RoleGraph) -> bool:
    """True iff r is connected; r with no colors counts as connected."""
    # loops never connect distinct colors; a color without neighbors stands
    # alone, and answering that first keeps a wide color range cheap
    if r.colors > 1 and len({c for e in r.edges for c in e}) < r.colors:
        return False
    return is_connected(Graph(r.colors, [(a - 1, b - 1) for a, b in r.edges if a != b]))


def one_role_decision(g: Graph) -> bool:
    """1-role colorability: all neighborhoods empty, or none of them."""
    if g.n == 0:
        return False  # no vertex can receive the color
    degs = [g.degree(v) for v in range(g.n)]
    return all(d == 0 for d in degs) or all(d > 0 for d in degs)


def naive_hypergraph_connected(h: Hypergraph) -> bool:
    """Every vertex covered, and the hyperedges joined into one component by
    growing it with each hyperedge that meets it until nothing changes."""
    if h.n == 0:
        return True
    if not h.edges:
        return h.n <= 1
    covered = set().union(*h.edges)
    if len(covered) != h.n:
        return False
    comp = set(h.edges[0])
    pending = list(h.edges[1:])
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


def is_non_monochromatic(h: Hypergraph, beta: RoleColoring) -> bool:
    return all(len({beta.assignment[q] for q in e}) > 1 for e in h.edges)


def is_p4(g: Graph) -> bool:
    if g.n != 4 or g.m != 3 or not is_connected(g):
        return False
    return sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]


class RefutationEntry(NamedTuple):
    coloring: RoleColoring
    violation: object


def p4_no_certificate(g: Graph) -> tuple:
    """Exhaustive refutation that a P4 is not 3-role colorable.

    Enumerates all 6 canonical 3-partitions of the four vertices and records
    the definition violation for each.
    """
    if not is_p4(g):
        raise ValueError("graph is not isomorphic to a P4")
    entries = []
    # walk the restricted-growth strings and keep the failures
    rgs = [0] * 4

    def rec(v, used):
        if v == 4:
            if used == 3:
                c = RoleColoring(tuple(rgs), 3)
                bad = verify_k_role(g, c)
                assert bad is not None, "P4 must not admit a 3-role coloring"
                entries.append(RefutationEntry(c, bad))
            return
        for col in range(1, min(used + 1, 3) + 1):
            rgs[v] = col
            rec(v + 1, max(used, col))

    rec(0, 0)
    assert len(entries) == 6  # S(4,3)
    return tuple(entries)
