"""Polynomial-time 3-role-colorability of bipartite chain graphs.

A bipartite chain graph on at least 3 vertices is 3-role colorable exactly when
it is disconnected, has a singleton side, has a two-vertex side that is all
universal, has a two-vertex side with more than one non-pendant opposite
vertex, or has both sides of size at least 3. The decision procedure checks the
conditions in that order (trying both orientations of the bipartition for the
symmetric ones) and builds an explicit certificate coloring for the first
condition that holds. Every certificate is verified before it is returned; if
verification ever failed, the exact solver would be consulted and the incident
recorded, but no such input is known.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .graph import (
    Bipartition,
    ChainStructure,
    Graph,
    bipartition,
    chain_structure,
    connected_components,
    is_chain,
    is_connected,
)
from .roles import RoleColoring, verify_k_role
from .solver import WITNESS, solve_k_role

log = logging.getLogger(__name__)

DISCONNECTED = "Disconnected"
SINGLETON_SIDE = "SingletonSide"
TWO_UNIVERSAL = "TwoUniversal"
TWO_SIDE_WITH_TAIL = "TwoSideWithTail"
BOTH_SIDES_LARGE = "BothSidesLarge"
NONE = "None"


class NotBipartiteError(ValueError):
    pass


class NotChainError(ValueError):
    pass


class InternalCertificateFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class ChainDecision:
    answer: bool
    caseId: str
    subCase: str | None = None
    certificate: RoleColoring | None = None
    used_fallback: bool = False


def decide_chain3(g: Graph) -> ChainDecision:
    """Theorem-style 3-role decision for a bipartite chain graph."""
    bp = bipartition(g)
    if not bp:
        raise NotBipartiteError(f"graph contains an odd closed walk {bp.odd_walk}")
    w = is_chain(g, bp)
    if w is not True:
        raise NotChainError(f"graph contains an induced 2K2 on vertices ({w.u},{w.w}),({w.v},{w.z})")

    if g.n < 3:
        return ChainDecision(False, NONE)

    if not is_connected(g):
        cert = _color_disconnected(g, bp)
        return _finish(g, DISCONNECTED, "edgeless" if g.m == 0 else "one-edged-component", cert)

    orientations = [("", bp), ("-swapped", Bipartition(bp.partY, bp.partX))]
    for tag, obp in orientations:
        if len(obp.partX) == 1:
            cert = _color_singleton(g, obp)
            return _finish(g, SINGLETON_SIDE, "center" + tag, cert)
    # every later case reads the chain structure of one or both orientations
    structured = [(tag, obp, chain_structure(g, obp)) for tag, obp in orientations]
    for tag, obp, cs in structured:
        if len(obp.partX) == 2 and len(cs.universalX) == 2:
            cert = _color_two_universal(g, obp)
            return _finish(g, TWO_UNIVERSAL, "both-universal" + tag, cert)
    for tag, obp, cs in structured:
        nx, ny = len(obp.partX), len(obp.partY)
        if nx == 2 and ny > 2 and ny - len(cs.pendantY) > 1:
            if cs.pendantY:
                cert = _color_two_side_tail(g, obp, cs)
                sub = "pendant-tail"
            else:
                cert = _color_two_side_no_pendants(g, obp, cs)
                sub = "no-pendants"
            return _finish(g, TWO_SIDE_WITH_TAIL, sub + tag, cert)

    if len(bp.partX) >= 3 and len(bp.partY) >= 3:
        cert, sub = _color_both_large(g, bp, structured[0][2])
        return _finish(g, BOTH_SIDES_LARGE, sub, cert)

    return ChainDecision(False, NONE)


def _finish(g, case_id, sub, cert) -> ChainDecision:
    bad = verify_k_role(g, cert)
    if bad is None:
        return ChainDecision(True, case_id, sub, cert)
    # the constructions above should always verify; fall back to exact search
    log.warning(
        "constructed coloring for case %s/%s failed verification (%s); "
        "falling back to exact solver on %r",
        case_id,
        sub,
        bad.describe(),
        g,
    )
    res = solve_k_role(g, 3, mode=WITNESS)
    if res.status == "yes":
        return ChainDecision(True, case_id, sub, res.certificate, used_fallback=True)
    if res.status == "no":
        return ChainDecision(False, NONE, used_fallback=True)
    raise InternalCertificateFailure(
        f"certificate for case {case_id}/{sub} failed and fallback exceeded its budget"
    )


def _color_disconnected(g: Graph, bp: Bipartition) -> RoleColoring:
    colors = [3] * g.n
    if g.m == 0:
        colors[0] = 1
        colors[1] = 2
        return RoleColoring(tuple(colors), 3)
    # exactly one component carries edges (two would make a 2K2)
    edged = next(c for c in connected_components(g) if len(c) > 1)
    for v in edged:
        colors[v] = 1 if v in bp.partX else 2
    return RoleColoring(tuple(colors), 3)


def _color_singleton(g: Graph, bp: Bipartition) -> RoleColoring:
    (center,) = bp.partX
    colors = [3] * g.n
    colors[center] = 1
    colors[min(g.adj[center])] = 2
    return RoleColoring(tuple(colors), 3)


def _color_two_universal(g: Graph, bp: Bipartition) -> RoleColoring:
    u, v = sorted(bp.partX)
    colors = [3] * g.n
    colors[u] = 1
    colors[v] = 2
    return RoleColoring(tuple(colors), 3)


def _two_side_roles(g: Graph, bp: Bipartition, cs: ChainStructure):
    """Split X = {u, v} with u universal (break ties toward the smaller id)."""
    xs = sorted(bp.partX)
    if xs[0] in cs.universalX:
        return xs[0], xs[1]
    return xs[1], xs[0]


def _color_two_side_no_pendants(g: Graph, bp: Bipartition, cs: ChainStructure) -> RoleColoring:
    u, v = _two_side_roles(g, bp, cs)
    colors = [2] * g.n
    colors[u] = 1
    colors[v] = 3
    return RoleColoring(tuple(colors), 3)


def _color_two_side_tail(g: Graph, bp: Bipartition, cs: ChainStructure) -> RoleColoring:
    u, v = _two_side_roles(g, bp, cs)
    t = min(g.adj[v] & cs.degreeTwoY)
    colors = [0] * g.n
    colors[u] = colors[v] = 2
    for y in bp.partY:
        colors[y] = 1 if y in cs.pendantY else 3
    colors[t] = 1
    return RoleColoring(tuple(colors), 3)


def _color_both_large(g: Graph, bp: Bipartition, cs: ChainStructure):
    px, py = cs.pendantX, cs.pendantY
    if not px and not py:
        u = min(cs.universalX)
        colors = [3] * g.n
        colors[u] = 1
        for y in bp.partY:
            colors[y] = 2
        return RoleColoring(tuple(colors), 3), "no-pendants"
    if px and not py:
        return _color_pendants_one_side(g, bp.partY, cs.universalX), "pendants-in-X"
    if py and not px:
        return _color_pendants_one_side(g, bp.partX, cs.universalY), "pendants-in-Y"
    # pendants on both sides: exactly one universal vertex per side
    x = min(cs.universalX)
    y = min(cs.universalY)
    # the neighborhoods of the two universals fail to be independent exactly
    # when some edge avoids both of them
    xy = {x, y}
    independent = all(g.adj[v] <= xy for v in range(g.n) if v not in xy)
    colors = [0] * g.n
    if not independent:
        for v in range(g.n):
            colors[v] = 3
        for v in px | py:
            colors[v] = 1
        colors[x] = colors[y] = 2
        return RoleColoring(tuple(colors), 3), "pendants-both-sides"
    # N(x) u N(y) independent: the graph is a double star
    for v in range(g.n):
        colors[v] = 1
    colors[x] = colors[y] = 2
    nx = sorted(g.adj[x] - {y})
    ny = sorted(g.adj[y] - {x})
    colors[nx[0]] = 1
    colors[nx[1]] = 3
    colors[ny[0]] = 1
    colors[ny[1]] = 3
    return RoleColoring(tuple(colors), 3), "pendants-both-sides-independent"


def _color_pendants_one_side(g: Graph, other_part, universal) -> RoleColoring:
    """Pendants only opposite `other_part`: other_part -> 1, one universal -> 2, rest -> 3."""
    u = min(universal)
    colors = [3] * g.n
    colors[u] = 2
    for y in other_part:
        colors[y] = 1
    return RoleColoring(tuple(colors), 3)
