"""Simple undirected graphs: parsing, connectivity, bipartiteness, chain structure."""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Malformed graph/coloring/hypergraph file. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Simple undirected graph on vertices 0..n-1. No self-loops, no parallel edges.

    `n`, `m` and the adjacency `adj` are set on construction: the edges go to
    one neighbor list per vertex, and a repeated edge is found per vertex once
    the lists are built. `adj[v]` is a tuple of v's neighbors in edge order, so
    `v in adj[u]` is O(deg); isolated vertices share the empty tuple. `edges`,
    the frozenset of (u, v) pairs with u < v, is built from `adj` on first use;
    two threads that race on it build equal sets, so the graph is still
    immutable and safe to share between threads. Equality and hashing go
    through `n` and `edges`, so they do not depend on the order of the neighbors.
    """

    __slots__ = ("n", "m", "adj", "_edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range [0,{n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        self._fill(n, adj)

    def _fill(self, n: int, adj: list) -> None:
        """Freeze n symmetric neighbor lists into tuples in place, freeing each list as its tuple
        is made. The lowest vertex v that lists a neighbor w twice raises "duplicate edge (v,w)"."""
        for v, a in enumerate(adj):
            if len(a) > 1 and len(set(a)) != len(a):  # a loop or a repeated edge lists a neighbor twice
                a.sort()
                w = next(x for x, y in zip(a, a[1:]) if x == y)
                raise ValueError(f"duplicate edge ({v},{w})")
            adj[v] = tuple(a)
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self.adj = tuple(adj)
        self._edges = None

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = frozenset((u, v) for u, a in enumerate(self.adj) for v in a if u < v)
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

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
    universalX: frozenset
    universalY: frozenset
    pendantX: frozenset
    pendantY: frozenset


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


def _new_edge_record():
    """A record function for one text's edge lines: two integers, returned as written. An edge
    that an earlier line gave, either way round, is a "duplicate edge (u,v)" at its own line."""
    higher = defaultdict(set)  # lower endpoint -> the higher endpoints read so far

    def record(toks: list) -> tuple:
        try:
            u, v = toks
            u, v = int(u), int(v)
        except ValueError:
            _ints(toks)  # a token that is not an integer is reported first
            raise ValueError("edge line must be two integers") from None
        seen, w = (higher[u], v) if u <= v else (higher[v], u)
        if w in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(w)
        return u, v

    return record


# A plain edge list: a header "n m", then lines "u v", every number written in
# ASCII digits, one space between the two and nothing else on the line.
_PLAIN_HEADER = re.compile(r"([0-9]+) ([0-9]+)\r?(?:\n|\Z)")
_NO_DIGITS = str.maketrans("", "", "0123456789")
_SLICE = 1 << 16  # characters per bulk slice: bounds the copies and lists held at once


def _slices(text: str, start: int):
    """(start, end) bounds that cut text[start:] into slices ending at a newline."""
    size = len(text)
    while start < size:
        end = text.find("\n", start + _SLICE) + 1 or size
        yield start, end
        start = end


def _read_plain_edges(text: str) -> Graph | None:
    """The graph of a plain edge list, or None when `text` is not one.

    Never raises. Any other layout, and any fault (a count off, an id out of
    range, a self-loop, a duplicate edge), returns None, so the line reader
    decides every other text and reports every error at its line. The body is
    read in slices that end at a newline. Each vertex's neighbors become one
    tuple in Graph's freeze step, in edge order and sharing one int object per
    vertex; that step's repeat check also finds a loop. A slice has the layout
    when deleting its digits leaves exactly " \n" per line; the JSON scanner
    then converts all its numbers at once, and refuses an empty number, a
    leading zero ("01") and a number longer than int() converts, which the
    line reader then decides.
    """
    head = _PLAIN_HEADER.match(text)
    if head is None or "#" in text:  # the layout has no "#": decline comments before any slice
        return None
    try:
        n, m = map(int, head.groups())
    except ValueError:  # more digits than int() converts
        return None
    if n > MAX_HEADER_COUNT:
        return None
    ids = list(range(n)).__getitem__
    adj = [[] for _ in range(n)]
    records = 0
    for start, end in _slices(text, head.end()):
        chunk = text[start:end].replace("\r\n", "\n")
        if chunk[-1] == "\n":
            chunk = chunk[:-1]
        if chunk.translate(_NO_DIGITS) != " \n" * chunk.count("\n") + " ":
            return None
        try:
            nums = json.loads("[" + chunk.replace(" ", ",").replace("\n", ",") + "]")
        except ValueError:
            return None
        records += len(nums) // 2
        if max(nums) >= n:
            return None
        it = map(ids, nums)
        for u, v in zip(it, it):
            adj[u].append(v)
            adj[v].append(u)
    if records != m:
        return None
    g = Graph.__new__(Graph)
    try:
        g._fill(n, adj)
    except ValueError:  # a loop or a repeated edge
        return None
    return g


def parse_graph(text: str) -> Graph:
    """Parse the "n m" edge-list format. Repeated or reversed duplicate edges are errors.

    A plain edge list is read in bulk; every other text goes to the line
    reader, which builds the same graph and reports each error at its line.
    """
    g = _read_plain_edges(text)
    return g if g is not None else _read_edge_lines(text)


def _read_edge_lines(text: str) -> Graph:
    """The graph of an edge list in any layout, read a line at a time; each fault at its line."""
    return _read_records(text, Graph, _new_edge_record())


def is_connected(g: Graph) -> bool:
    """True iff g has at most one connected component. The empty graph is connected."""
    if g.n == 0:
        return True
    adj = g.adj
    seen, frontier = {0}, {0}
    while frontier:  # a BFS level at a time, as in bipartition
        frontier = set().union(*map(adj.__getitem__, frontier)) - seen
        seen |= frontier
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
    # Sides depend only on the parity of the BFS distance from each root, so
    # whole levels are taken at once. Only a graph with an odd cycle needs the
    # vertex-by-vertex walk, which fixes the reported witness.
    adj = g.adj
    sides = (set(), set())
    for root in range(g.n):
        if root in sides[0] or root in sides[1]:
            continue
        sides[0].add(root)
        frontier, p = {root}, 0
        while frontier:
            nxt = set().union(*map(adj.__getitem__, frontier))
            if not nxt.isdisjoint(sides[p]):
                return _odd_walk(g)
            p ^= 1
            frontier = nxt - sides[p]
            sides[p].update(frontier)
    return Bipartition(frozenset(sides[0]), frozenset(sides[1]))


def _odd_walk(g: Graph) -> NotBipartite:
    """The odd closed walk that a BFS in sorted neighbour order meets first.

    g must not be bipartite.
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


def is_chain(g: Graph, bp: Bipartition):
    """True iff the X-neighborhoods are nested under inclusion; otherwise a Witness2K2.

    Near-linear: sort X by degree and check each neighborhood contains the previous.
    """
    xs = sorted(bp.partX, key=lambda v: (g.degree(v), v))
    for a, b in zip(xs, xs[1:]):
        nb = set(g.adj[b])
        if not nb.issuperset(g.adj[a]):
            # a and b are incomparable (deg(a) <= deg(b) forces both differences nonempty)
            na = set(g.adj[a])
            w = min(na - nb)
            z = min(nb - na)
            return Witness2K2(a, b, w, z)
    return True


def chain_structure(g: Graph, bp: Bipartition) -> ChainStructure:
    """Universal and pendant vertex sets of a chain graph, per side."""
    nx, ny = len(bp.partX), len(bp.partY)
    universalX = frozenset(v for v in bp.partX if g.degree(v) == ny)
    universalY = frozenset(v for v in bp.partY if g.degree(v) == nx)
    pendantX = frozenset(v for v in bp.partX if g.degree(v) == 1)
    pendantY = frozenset(v for v in bp.partY if g.degree(v) == 1)
    return ChainStructure(universalX, universalY, pendantX, pendantY)
