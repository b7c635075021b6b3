"""The constructive halves of the gadget reductions' proofs, for the tests.

Each hardness proof lifts a hypergraph coloring to an explicit role coloring of
the gadget (`lift_coloring`) and pulls a hypergraph coloring back out of a
verified gadget coloring (`extract_beta`). The acceptance and reduction tests
check both directions on every instance they build.
"""

from __future__ import annotations

from dataclasses import dataclass

from rolecolor import GadgetGraph, RoleColoring, verify_k_role


def vertices_tagged(gg: GadgetGraph, name: str) -> list[int]:
    return [v for v, tag in enumerate(gg.role_of) if tag[0] == name]


def q_count(gg: GadgetGraph) -> int:
    return len(vertices_tagged(gg, "Q"))


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
    if beta.k != 2 or beta.n != q_count(gg):
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
    if beta.k != 3 or beta.n != q_count(gg):
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
    if beta.k != 2 or beta.n != q_count(gg):
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
    qs = vertices_tagged(gg, "Q")
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
