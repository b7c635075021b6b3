"""Simple undirected graphs: parsing, connectivity, bipartiteness, chain structure."""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphFormatError(ValueError):
    """Malformed graph/coloring/hypergraph file. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Simple undirected graph on vertices 0..n-1. No self-loops, no parallel edges.

    Immutable after construction; safe to share between threads.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range [0,{n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise ValueError(f"duplicate edge ({u},{v})")
            norm.add(e)
        adj = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(norm)
        self.adj = tuple(frozenset(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Bipartition:
    partX: frozenset
    partY: frozenset


@dataclass(frozen=True)
class NotBipartite:
    """Witness: an odd closed walk (list of vertices, first == last)."""

    odd_walk: tuple

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Witness2K2:
    """Induced 2K2: edges (u,w) and (v,z), non-edges (u,z) and (v,w)."""

    u: int
    v: int
    w: int
    z: int

    def __bool__(self):
        return False


@dataclass(frozen=True)
class ChainStructure:
    bipartition: Bipartition
    universalX: frozenset
    universalY: frozenset
    pendantX: frozenset
    pendantY: frozenset
    degreeTwoY: frozenset = field(default_factory=frozenset)


def _strip_comments(text: str):
    """Yield (lineno, tokens) for every non-comment, non-blank line."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def parse_graph(text: str) -> Graph:
    """Parse the "n m" edge-list format. Repeated or reversed duplicate edges are errors."""
    it = _strip_comments(text)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise GraphFormatError("missing header line")
    if len(header) != 2:
        raise GraphFormatError("header must be 'n m'", lineno)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", lineno)
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative", lineno)

    edges = []
    seen = set()
    for lineno, toks in it:
        if len(toks) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", lineno)
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"vertex out of range [0,{n})", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    return Graph(n, edges)


def is_connected(g: Graph) -> bool:
    """True iff g has at most one connected component. The empty graph is connected."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def connected_components(g: Graph) -> list[list[int]]:
    comps = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def bipartition(g: Graph):
    """Two-color g by BFS.

    Returns a Bipartition on success, or a NotBipartite odd-closed-walk witness.
    Deterministic for disconnected graphs: each component is rooted at its
    smallest vertex and the root's side goes to partX.
    """
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
                    # odd cycle: join the two BFS-tree paths at their meeting point
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


def is_chain(g: Graph, bp: Bipartition):
    """True iff the X-neighborhoods are nested under inclusion; otherwise a Witness2K2.

    Near-linear: sort X by degree and check each neighborhood contains the previous.
    """
    xs = sorted(bp.partX, key=lambda v: (g.degree(v), v))
    for a, b in zip(xs, xs[1:]):
        if not g.adj[a] <= g.adj[b]:
            # a and b are incomparable (deg(a) <= deg(b) forces both differences nonempty)
            w = min(g.adj[a] - g.adj[b])
            z = min(g.adj[b] - g.adj[a])
            return Witness2K2(a, b, w, z)
    return True


def chain_structure(g: Graph, bp: Bipartition) -> ChainStructure:
    """Universal, pendant and (on the Y side) degree-two vertex sets of a chain graph."""
    nx, ny = len(bp.partX), len(bp.partY)
    universalX = frozenset(v for v in bp.partX if g.degree(v) == ny)
    universalY = frozenset(v for v in bp.partY if g.degree(v) == nx)
    pendantX = frozenset(v for v in bp.partX if g.degree(v) == 1)
    pendantY = frozenset(v for v in bp.partY if g.degree(v) == 1)
    degreeTwoY = frozenset(v for v in bp.partY if g.degree(v) == 2)
    return ChainStructure(bp, universalX, universalY, pendantX, pendantY, degreeTwoY)
