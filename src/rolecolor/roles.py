"""Role colorings and role graphs: verification and extraction.

Colors are 1-based ({1..k}); vertices are 0-based. Neighborhood color sets are
compared as sets (bitmasks), never as multisets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import filterfalse

from .graph import MAX_HEADER_COUNT, Graph, _new_edge_record, _read_records


@dataclass(frozen=True)
class RoleColoring:
    """Total map vertex -> color, colors in {1..k}."""

    assignment: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        for v, c in enumerate(self.assignment):
            if not (1 <= c <= self.k):
                raise ValueError(f"vertex {v} has color {c} outside [1, {self.k}]")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def used_colors(self) -> frozenset:
        return frozenset(self.assignment)


_NO_COLORS = frozenset()


class RoleGraph:
    """Graph on colors 1..colors; self-loops permitted. A loop (c,c) puts c in N(c).

    Neighbor sets are kept only for colors that have a neighbor, so a wide
    color range costs nothing per unused color.
    """

    __slots__ = ("colors", "edges", "_nbr")

    def __init__(self, colors: int, edges=()):
        if colors < 0:
            raise ValueError("color count must be non-negative")
        norm = set()
        for a, b in edges:
            if a > b:
                a, b = b, a
            if not (1 <= a and b <= colors):
                raise ValueError(f"role edge ({a},{b}) out of range [1,{colors}]")
            norm.add((a, b))
        nbr = defaultdict(set)
        for a, b in norm:
            nbr[a].add(b)
            nbr[b].add(a)
        self.colors = colors
        self.edges = frozenset(norm)
        self._nbr = {c: frozenset(s) for c, s in nbr.items()}

    def neighbors(self, c: int) -> frozenset:
        return self._nbr.get(c, _NO_COLORS)

    def __eq__(self, other):
        return (
            isinstance(other, RoleGraph)
            and self.colors == other.colors
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.colors, self.edges))

    def __repr__(self):
        return f"RoleGraph(colors={self.colors}, edges={sorted(self.edges)})"

    def to_text(self) -> str:
        lines = [f"{self.colors} {len(self.edges)}"]
        lines.extend(f"{a} {b}" for a, b in sorted(self.edges))
        return "\n".join(lines) + "\n"


NOT_SURJECTIVE = "NotSurjective"
NEIGHBORHOOD_MISMATCH = "NeighborhoodMismatch"
LOCAL_SURJECTIVITY_FAILURE = "LocalSurjectivityFailure"


DESCRIBE_LIMIT = 20  # unused colors that a NotSurjective description lists


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple

    def describe(self) -> str:
        if self.kind == NOT_SURJECTIVE:
            unused = sorted(self.witness)
            if len(unused) <= DESCRIBE_LIMIT:
                return f"colors {unused} are never used"
            return (
                f"{len(unused)} colors are never used, "
                f"the first {DESCRIBE_LIMIT}: {unused[:DESCRIBE_LIMIT]}"
            )
        if self.kind == NEIGHBORHOOD_MISMATCH:
            u, v, su, sv = self.witness
            return (
                f"vertices {u} and {v} share a color but see color sets "
                f"{sorted(su)} != {sorted(sv)}"
            )
        u, su, sr = self.witness
        return (
            f"vertex {u} sees color set {sorted(su)} but its role's "
            f"neighborhood is {sorted(sr)}"
        )


def _color_lookup(c: RoleColoring):
    """vertex -> color as a C callable, for frozenset(map(color_of, g.adj[v])).

    A list's __getitem__ is a plain C method; a tuple's goes through a slot
    wrapper, which makes map() over it slower than a generator expression.
    """
    return list(c.assignment).__getitem__


def _unused_colors(c: RoleColoring) -> tuple:
    """Colors in 1..c.k that no vertex has, ascending."""
    return tuple(filterfalse(c.used_colors().__contains__, range(1, c.k + 1)))


def verify_k_role(g: Graph, c: RoleColoring):
    """None if c is a valid k-role coloring of g, else the first Violation.

    Witnesses are lexicographically first in vertex order, so repeated runs
    return identical violations.
    """
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    missing = _unused_colors(c)
    if missing:
        return Violation(NOT_SURJECTIVE, missing)
    color_of = _color_lookup(c)
    first = {}  # color -> (vertex, neighborhood color set)
    for v, (col, nb) in enumerate(zip(c.assignment, g.adj)):
        sv = frozenset(map(color_of, nb))
        if col in first:
            u, su = first[col]
            if su != sv:
                return Violation(NEIGHBORHOOD_MISMATCH, (u, v, su, sv))
        else:
            first[col] = (v, sv)
    return None


def extract_role_graph(g: Graph, c: RoleColoring) -> RoleGraph:
    """The role graph induced by c: edges between colors joined by some edge of g."""
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    color_of = _color_lookup(c)
    seen = defaultdict(set)  # color -> colors of its vertices' neighbors
    for col, nb in zip(c.assignment, g.adj):
        seen[col].update(map(color_of, nb))
    return RoleGraph(c.k, ((a, b) for a, bs in seen.items() for b in bs))


def verify_r_role(g: Graph, r: RoleGraph, c: RoleColoring):
    """None if c is a locally surjective homomorphism g -> r, else a Violation."""
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    if c.k != r.colors:
        raise ValueError(f"coloring uses color range [1,{c.k}], role graph has {r.colors}")
    missing = _unused_colors(c)
    if missing:
        return Violation(NOT_SURJECTIVE, missing)
    color_of = _color_lookup(c)
    for v, (col, nb) in enumerate(zip(c.assignment, g.adj)):
        sv = frozenset(map(color_of, nb))
        sr = r.neighbors(col)
        if sv != sr:
            return Violation(LOCAL_SURJECTIVITY_FAILURE, (v, sv, sr))
    return None


def parse_coloring(text: str, k: int | None = None) -> RoleColoring:
    """Parse the coloring format: one line of space-separated colors.

    When k is omitted it defaults to the largest color present. A k or a color
    above MAX_HEADER_COUNT is refused, since checks allocate per color. A bad
    k is a plain ValueError, raised before the text is read: the fault is the
    caller's, not the text's.
    """
    if k is not None:
        if k < 1:
            raise ValueError("k must be positive")
        if k > MAX_HEADER_COUNT:
            raise ValueError(f"color range 1..{k} is above the limit {MAX_HEADER_COUNT}")

    def build(rows):
        colors = next(rows, None)
        if colors is None:
            raise ValueError("missing coloring line")
        if next(rows, None) is not None:
            raise ValueError("coloring must be a single line")
        top = max(colors) if k is None else k
        if top > MAX_HEADER_COUNT:
            raise ValueError(f"color range 1..{top} is above the limit {MAX_HEADER_COUNT}")
        return RoleColoring(colors, top)

    return _read_records(text, build, header=False)


def emit_coloring(c: RoleColoring) -> str:
    return " ".join(str(x) for x in c.assignment) + "\n"


def parse_role_graph(text: str) -> RoleGraph:
    """Parse a role graph: the graph format, but 1-based and loops allowed.

    A repeated or reversed edge is an error at its line, as in parse_graph's
    line reader, although RoleGraph itself merges duplicates
    (extract_role_graph relies on that).
    """
    return _read_records(text, RoleGraph, _new_edge_record())
