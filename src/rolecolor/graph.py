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

    `n`, `m` and the adjacency `adj` (a tuple of frozensets) are set on
    construction. `edges`, the frozenset of (u, v) pairs with u < v, is built
    from `adj` on first use; two threads that race on it build equal sets, so
    the graph is still immutable and safe to share between threads.
    """

    __slots__ = ("n", "m", "adj", "_edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range [0,{n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            au = adj[u]
            if v in au:
                raise ValueError(f"duplicate edge ({u},{v})")
            au.add(v)
            adj[v].add(u)
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self.adj = tuple(map(frozenset, adj))
        self._edges = None

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = frozenset((u, v) for u, a in enumerate(self.adj) for v in a if u < v)
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, a in enumerate(self.adj) for v in sorted(a) if u < v)
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


MAX_HEADER_COUNT = 10**6  # largest vertex or color count a file may declare


def _ints(toks: list) -> tuple:
    """A record's tokens as integers, or ValueError("expected integers")."""
    try:
        return tuple(map(int, toks))
    except ValueError:
        raise ValueError("expected integers") from None


def _read_records(text: str, build, record=_ints, header: bool = True):
    """Read the layout that every file format shares; return what `build` makes of it.

    Blank lines and lines whose first non-blank character is `#` are skipped.
    Every other line is a record: its whitespace-separated tokens, which
    `record` turns into an item. Every token must be an integer, and a record
    function reports "expected integers" before any other fault of its line.
    With `header`, the first record is "a m", two non-negative integers, exactly
    m records follow, and the result is build(a, items); a above MAX_HEADER_COUNT
    is refused before anything is built. Otherwise the result is
    build(items). Items are fed lazily, so a ValueError from `record` or
    `build` is raised as a GraphFormatError at the line of the record it
    rejected.
    """
    line = None  # line number of the latest record
    found = 0

    def rows():
        nonlocal line, found
        for i, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split()
            if toks and toks[0][0] != "#":
                line = i
                found += 1
                yield toks

    it = rows()
    try:
        if not header:
            return build(map(record, it))
        head = next(it, None)
        if head is None:
            raise ValueError("missing header line")
        head = _ints(head)
        if len(head) != 2 or min(head) < 0:
            raise ValueError("header must be two non-negative integers")
        if head[0] > MAX_HEADER_COUNT:
            raise ValueError(f"header count {head[0]} is above the limit {MAX_HEADER_COUNT}")
        found = 0  # count only the records after the header
        result = build(head[0], map(record, it))
    except ValueError as e:
        raise GraphFormatError(str(e), line) from None
    if found != head[1]:
        raise GraphFormatError(f"declared {head[1]} records but found {found}")
    return result


def _edge_record(toks: list) -> tuple:
    """An edge line holds exactly two integers."""
    try:
        u, v = toks
        return int(u), int(v)
    except ValueError:
        _ints(toks)  # a token that is not an integer is reported first
        raise ValueError("edge line must be two integers") from None


def parse_graph(text: str) -> Graph:
    """Parse the "n m" edge-list format. Repeated or reversed duplicate edges are errors."""
    return _read_records(text, Graph, _edge_record)


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
