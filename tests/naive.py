"""Independent brute-force oracles used to cross-check the solvers.

Everything here enumerates plainly (all surjective maps, all assignments) and
never reuses the production search code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from rolecolor import Graph, RoleColoring, RoleGraph, verify_k_role


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


def naive_r_role(g: Graph, r: RoleGraph) -> tuple[bool, int]:
    """Brute force over all |V(R)|^n maps; pure Python, small n only."""
    cnt = 0
    for assign in product(range(1, r.colors + 1), repeat=g.n):
        if len(set(assign)) != r.colors:
            continue
        if all(
            frozenset(assign[u] for u in g.adj[v]) == r.neighbors(assign[v])
            for v in range(g.n)
        ):
            cnt += 1
    return cnt > 0, cnt


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


def naive_hypergraph_colorable(edges, n: int, k: int, surjective: bool = True) -> bool:
    for assign in product(range(1, k + 1), repeat=n):
        if surjective and len(set(assign)) != k:
            continue
        if all(len({assign[q] for q in e}) > 1 for e in edges):
            return True
    return False


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
