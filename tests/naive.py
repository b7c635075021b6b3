"""Independent brute-force oracles used to cross-check the solvers.

Everything here enumerates plainly (all surjective maps, all assignments) and
never reuses the production search code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from rolecolor import (
    Graph,
    GraphFormatError,
    Hypergraph,
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
    ENUMERATE,
    NO,
    WITNESS,
    YES,
    SolveResult,
    _check_search_args,
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

    Kept as the spelled-out baseline for the pruning-neutrality tests.
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


def naive_closing_order(g: Graph) -> list:
    """The closing vertex order by a plain O(n^2) scan: each step takes the
    unplaced vertex with the most placed neighbors, then the fewest unplaced
    neighbors, then the lowest id."""
    placed: set = set()
    order = []

    def key(v):
        p = len(g.adj[v] & placed)
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
    limit: int = 1,
) -> SolveResult:
    """The product scan over all k^n assignments that `hypergraph_k_colorable` replaced.

    Same arguments and results, except that `nodes` counts complete assignments.

    By default every color must also be used at least once (the reductions rely
    on surjective colorings); pass require_surjective=False for the textbook
    definition.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_search_args(mode, budget, limit)
    nodes = 0
    count = 0
    found = []
    for assignment in product(range(1, k + 1), repeat=h.n):
        nodes += 1
        if nodes > budget:
            return SolveResult(status=BUDGET_EXCEEDED, nodes=nodes)
        if require_surjective and len(set(assignment)) != k:
            continue
        if any(len({assignment[q] for q in e}) == 1 for e in h.edges):
            continue
        beta = RoleColoring(assignment, k)
        if mode == COUNT:
            count += 1
            continue
        found.append(beta)
        if mode != ENUMERATE or len(found) >= limit:
            break
    if mode == COUNT:
        status = YES if count else NO
        return SolveResult(status=status, count=count, nodes=nodes)
    status = YES if found else NO
    return SolveResult(
        status=status,
        certificate=found[0] if (found and mode in (WITNESS, DECISION)) else None,
        nodes=nodes,
        certificates=tuple(found) if mode == ENUMERATE else (),
    )


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
        for i, toks in enumerate(map(str.split, text.splitlines()), start=1)
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
                not g.has_edge(u, v)
                and not g.has_edge(u, z)
                and not g.has_edge(w, v)
                and not g.has_edge(w, z)
            ):
                return True
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
