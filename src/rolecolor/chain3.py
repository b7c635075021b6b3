"""Polynomial-time 3-role-colorability of bipartite chain graphs.

A bipartite chain graph on at least 3 vertices is 3-role colorable exactly when
it is disconnected, has a singleton side, has a two-vertex side that is all
universal, has a two-vertex side with more than one non-pendant opposite
vertex, or has both sides of size at least 3. The decision procedure checks the
conditions in that order (trying both orientations of the bipartition for the
symmetric ones) and builds an explicit certificate coloring for the first
condition that holds; `_paint` builds every certificate. When the two-vertex
side test is reached, the opposite side has a pendant: without one, both
vertices of the side would be universal, a condition already checked, so that
case has one certificate. Every certificate is verified before it is returned;
if verification ever failed, the exact solver would be consulted and the
incident recorded, but no such input is known.
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
            # Y has a pendant here: with none, every Y vertex has degree 2, both X
            # vertices are universal, and the TwoUniversal loop has returned
            cert = _color_two_side_tail(g, obp, cs)
            return _finish(g, TWO_SIDE_WITH_TAIL, "pendant-tail" + tag, cert)

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


def _paint(n: int, base: int, *layers) -> RoleColoring:
    """The 3-role certificate that colors every vertex `base`, then paints each
    (color, vertices) layer in turn."""
    colors = [base] * n
    for color, vertices in layers:
        for v in vertices:
            colors[v] = color
    return RoleColoring(tuple(colors), 3)


def _color_disconnected(g: Graph, bp: Bipartition) -> RoleColoring:
    if g.m == 0:
        return _paint(g.n, 3, (1, [0]), (2, [1]))
    # exactly one component carries edges (two would make a 2K2)
    edged = next(c for c in connected_components(g) if len(c) > 1)
    return _paint(g.n, 3, (1, bp.partX.intersection(edged)), (2, bp.partY.intersection(edged)))


def _color_singleton(g: Graph, bp: Bipartition) -> RoleColoring:
    (center,) = bp.partX
    return _paint(g.n, 3, (1, [center]), (2, [min(g.adj[center])]))


def _color_two_universal(g: Graph, bp: Bipartition) -> RoleColoring:
    u, v = sorted(bp.partX)
    return _paint(g.n, 3, (1, [u]), (2, [v]))


def _color_two_side_tail(g: Graph, bp: Bipartition, cs: ChainStructure) -> RoleColoring:
    """X = {u, v}: u is universal and v is not (both universal is TwoUniversal)."""
    (v,) = bp.partX - cs.universalX
    t = min(y for y in g.adj[v] if g.degree(y) == 2)
    return _paint(g.n, 3, (2, bp.partX), (1, cs.pendantY), (1, [t]))


def _color_both_large(g: Graph, bp: Bipartition, cs: ChainStructure):
    px, py = cs.pendantX, cs.pendantY
    if not px and not py:
        return _paint(g.n, 3, (1, [min(cs.universalX)]), (2, bp.partY)), "no-pendants"
    # pendants on one side only: the other side -> 1, one universal -> 2, rest -> 3
    if not py:
        return _paint(g.n, 3, (2, [min(cs.universalX)]), (1, bp.partY)), "pendants-in-X"
    if not px:
        return _paint(g.n, 3, (2, [min(cs.universalY)]), (1, bp.partX)), "pendants-in-Y"
    # pendants on both sides: exactly one universal vertex per side
    x = min(cs.universalX)
    y = min(cs.universalY)
    # the neighborhoods of the two universals fail to be independent exactly
    # when some edge avoids both of them
    xy = {x, y}
    if not all(xy.issuperset(g.adj[v]) for v in range(g.n) if v not in xy):
        return _paint(g.n, 3, (1, px | py), (2, xy)), "pendants-both-sides"
    # N(x) u N(y) independent: the graph is a double star
    nx = sorted(u for u in g.adj[x] if u != y)
    ny = sorted(u for u in g.adj[y] if u != x)
    return _paint(g.n, 1, (2, xy), (3, [nx[1], ny[1]])), "pendants-both-sides-independent"
