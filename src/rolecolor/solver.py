"""Exact search for k-role and R-role colorings.

The k-role search walks canonical set partitions (restricted growth strings)
into exactly k blocks, so color-permutation symmetry is never enumerated and
counts are "up to color permutation". Every completed assignment is re-checked
against the definition before it is reported.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .graph import Graph
from .roles import RoleColoring, RoleGraph, verify_k_role, verify_r_role

DECISION = "decision"
WITNESS = "witness"
COUNT = "count"

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10**8
SLICE = 256  # nodes per turn when a certificate search races a closing-order refutation


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    status: str  # yes / no / budget-exceeded
    certificate: RoleColoring | None = None
    count: int | None = None
    nodes: int = 0
    # the vertex order that answered: "closing" for a mode that returns no certificate, and
    # for a "no" that the closing-order refutation raced against a certificate search reached
    order: str = "id"
    leaves_rejected: int = 0  # completed colorings that failed the re-check; 0 unless a rule is wrong

    @property
    def answer(self) -> bool:
        if self.status == BUDGET_EXCEEDED:
            raise BudgetExceeded("search node budget exceeded; answer unknown")
        return self.status == YES


def _closing_order(g: Graph) -> list[int]:
    """A vertex order that closes neighborhoods early.

    Start at the lowest-id vertex of minimum degree, then always take the vertex
    with the most placed neighbors; ties go to the fewest unplaced neighbors,
    then the lowest id. The start rule is that same key with nothing placed, so
    a new component starts the same way. A vertex's key only improves as its
    neighbors are placed, so a lazy heap skips stale entries: O((n+m) log n).
    """
    n = g.n
    placed = [0] * n  # placed neighbors; -1 once the vertex itself is placed
    degree = [len(a) for a in g.adj]
    heap = [(0, degree[v], v) for v in range(n)]
    heapq.heapify(heap)
    order = []
    while heap:
        p, _, v = heapq.heappop(heap)
        if placed[v] != -p:
            continue  # stale: v is placed, or has gained placed neighbors since
        placed[v] = -1
        order.append(v)
        for u in g.adj[v]:
            x = placed[u]
            if x >= 0:
                placed[u] = x + 1
                heapq.heappush(heap, (-x - 1, degree[u] - x - 1, u))
    return order


class _Engine:
    """Backtracking over colorings in a given vertex order, on an explicit stack.

    The engine renames vertex order[i] to i and keeps its own adjacency lists in
    those ids: adj (all neighbors), earlier (placed before the vertex) and, for
    R-role, later. Restricted growth and witnesses follow the search order; a
    leaf is mapped back to the original ids before its check.

    `walk` is the search loop as a generator: it pauses once nodes passes stop,
    and `run` drains it with stop = the budget. So `_race` can run two engines in
    turns on one graph, each resumed where it paused.

    lock[c] is the neighborhood color set (a bitmask) that every member of
    class c must see. An R-role search fills it with N_R(c) up front. A k-role
    search leaves it open (-1) until some member of c has its whole
    neighborhood colored, and walks restricted growth strings, so color
    permutations are never enumerated and counts are "up to color permutation".

    nbr_mask[u] is u's neighbor color set. Coloring v with c records, in
    gained[v], the neighbors of v whose set gains c; undo is last in, first out,
    so taking the color back clears c on exactly those, in O(deg) and with
    O(n + m) state in all. For an open k-role class c, seen[c] is the union of
    its members' nbr_mask: every member must end up seeing all of it. Locks set
    lazily and every change to seen go on one trail stack (a lock as c; a seen
    change as its old value, then -c), undone on backtrack.

    Pruning (answer-preserving):
      * surjectivity: the remaining vertices must cover the unused colors, and
        (k-role) when they are exactly as many, each of them opens a new color;
      * opener bound (k-role): each unused color needs an uncolored vertex of
        its own with no bound neighbor, that is, none in a locked class, and
        none uncolored whose colors left are all locked classes (the colors
        left for an uncolored w are those in the lock of every neighbor of w
        in a locked class). A lock is a class's final neighborhood color set
        and holds used colors only, so a bound neighbor can never see an
        unused color;
      * lock check: every colored member of a locked class sees only colors in
        the lock, and its uncolored neighbors can still supply the rest of it;
      * open-class bound (k-role): every member w of an open class c can still
        be supplied the colors of seen[c] it lacks by its uncolored neighbors;
      * look-ahead: every uncolored neighbor u of the vertex just colored can
        still take some color d, that is, lock[d] holds the colors u already
        sees and u's uncolored neighbors can supply the rest of it. The k-role
        forward check also accepts an open d whose seen[d] u can still reach;
        an unused class is open with seen 0 and fits anyone, so it runs only
        once all k colors are in use.
    """

    def __init__(self, g: Graph, k: int, r: RoleGraph | None, mode: str, budget: int, order: list[int]):
        n = g.n
        self.g = g
        self.k = k
        self.r = r
        self.mode = mode
        self.stop = budget  # the walk pauses once nodes passes this
        self.pos = pos = [0] * n  # search-order id of each vertex
        for i, v in enumerate(order):
            pos[v] = i
        self.adj = adj = [[pos[u] for u in g.adj[v]] for v in order]
        self.earlier = [[u for u in a if u < i] for i, a in enumerate(adj)]
        # v and its earlier neighbors: the colored vertices whose state coloring v changes
        self.touched = [[i, *e] for i, e in enumerate(self.earlier)]
        self.later = [[u for u in a if u > i] for i, a in enumerate(adj)]  # for the forward check
        self.lock = [-1] * (k + 1)
        if r is not None:
            for c in range(1, k + 1):
                self.lock[c] = sum(1 << d for d in r.neighbors(c))
        self.color = [0] * n
        self.nbr_mask = [0] * n
        self.rem = [len(a) for a in adj]  # uncolored neighbors
        self.gained: list[list[int]] = [[]] * n  # per level: neighbors whose set gained the color
        self.members = [[] for _ in range(k + 1)]
        self.seen = [0] * (k + 1)  # k-role, open classes only
        self.trail: list[int] = []  # lazy locks and seen changes, newest last
        self.lockmask = 0  # k-role: the locked classes, as a color bitmask
        if r is not None:
            self.need: dict[int, float] = {}  # memoised per seen-color mask
        self.rejected = 0
        self.n_used = 0
        self.nodes = 0
        self.count = 0
        self.found: list[RoleColoring] = []

    def _fits(self, v: int, c: int) -> bool:
        """Check coloring v with c against the classes that are already locked."""
        lock, mask, rem = self.lock, self.nbr_mask, self.rem
        want = lock[c]
        if want >= 0:
            seen = mask[v]
            if seen & ~want or (want & ~seen).bit_count() > rem[v]:
                return False
        bit = 1 << c
        color = self.color
        for u in self.earlier[v]:
            want = lock[color[u]]
            # u gains c and loses an uncolored neighbor
            if want >= 0 and (not want & bit or (want & ~(mask[u] | bit)).bit_count() >= rem[u]):
                return False
        return True

    def _color(self, v: int, c: int) -> bool:
        """Color v with c and apply the pruning rules that this coloring can trigger."""
        self.color[v] = c
        members = self.members[c]
        if not members:
            self.n_used += 1
        members.append(v)
        bit = 1 << c
        mask, rem = self.nbr_mask, self.rem
        self.gained[v] = gained = []
        for u in self.adj[v]:
            m = mask[u]
            if not m & bit:
                mask[u] = m | bit
                gained.append(u)
            rem[u] -= 1
        if self.r is not None:
            return self._ahead(v)  # R-role locks are all set up front: nothing to close
        if not self._settle(v):
            return False
        return self._openers(v) if self.n_used < self.k else self._forward(v)

    def _settle(self, v: int) -> bool:
        """k-role: lock the open classes that coloring v closes, fold the neighbor
        color sets it changed into seen, and check the open-class bound where it can
        have moved.

        A locked class was checked before coloring. An open one locks once a member's
        neighborhood is colored. Otherwise v's and its earlier neighbors' sets may
        have grown, and those neighbors have one uncolored neighbor fewer: where
        seen[c] grows, every member of c is checked, else only the vertex itself.
        """
        lock, seen, mask, rem, color = self.lock, self.seen, self.nbr_mask, self.rem, self.color
        trail, members = self.trail, self.members
        for u in self.touched[v]:
            c = color[u]
            if lock[c] >= 0:
                continue
            r = rem[u]
            if not r:
                if not self._close(u):
                    return False
                continue
            s, m = seen[c], mask[u]
            if m & ~s:
                trail.append(s)
                trail.append(-c)
                seen[c] = s = s | m
                for w in members[c]:
                    if (s & ~mask[w]).bit_count() > rem[w]:
                        return False
            elif (s & ~m).bit_count() > r:
                return False
        return True

    def _forward(self, v: int) -> bool:
        """k-role, all k colors in use: check that each uncolored neighbor of v can
        still join some class."""
        lock, seen, mask, rem = self.lock, self.seen, self.nbr_mask, self.rem
        classes = range(1, self.k + 1)
        for u in self.later[v]:
            m, r = mask[u], rem[u]
            for d in classes:
                want = lock[d]
                if want < 0:
                    if (seen[d] & ~m).bit_count() <= r:
                        break
                elif not m & ~want and (want & ~m).bit_count() <= r:
                    break
            else:
                return False
        return True

    def _openers(self, v: int) -> bool:
        """k-role, some color unused: check that enough uncolored vertices have no
        bound neighbor to open the unused colors.

        Skipped while no class is locked, and while the uncolored vertices beyond the
        openers needed are fewer than the openers needed: there (k near n) a scan at
        every node costs O(n + m) and seldom cuts. Otherwise the uncolored vertices
        are scanned from the last one, until enough are free or too many are bound;
        an uncolored neighbor's bound state is worked out once per scan.
        """
        lockmask = self.lockmask
        if not lockmask:
            return True
        need = self.k - self.n_used
        spare = self.g.n - v - 1 - need  # uncolored vertices that may be bound
        if spare < need:
            return True
        lock, color, adj, earlier = self.lock, self.color, self.adj, self.earlier
        bound: dict[int, bool] = {}
        for u in range(self.g.n - 1, v, -1):
            for w in adj[u]:
                if w <= v:
                    if lockmask >> color[w] & 1:
                        break
                    continue
                b = bound.get(w)
                if b is None:
                    left = -1  # the colors w can still take, as far as locks tell
                    for z in earlier[w]:
                        if z <= v and lockmask >> color[z] & 1:
                            left &= lock[color[z]]
                    b = bound[w] = left >= 0 and not left & ~lockmask
                if b:
                    break
            else:
                need -= 1
                if not need:
                    return True
                continue
            spare -= 1
            if spare < 0:
                return False
        return True

    def _ahead(self, v: int) -> bool:
        """R-role: check that each uncolored neighbor of v can still take some color."""
        mask, rem, need = self.nbr_mask, self.rem, self.need
        for u in self.later[v]:
            seen = mask[u]
            x = need.get(seen)
            if x is None:
                x = need[seen] = self._need(seen)
            if x > rem[u]:
                return False
        return True

    def _need(self, seen: int) -> float:
        """Fewest new colors a vertex that sees `seen` must still see, over the colors
        d it can take; infinite if there is none.

        d is possible when lock[d] holds seen. R is undirected, so this also puts d
        in the lock of every color in seen.
        """
        lock = self.lock
        return min(
            ((lock[d] & ~seen).bit_count() for d in range(1, self.k + 1) if not seen & ~lock[d]),
            default=float("inf"),
        )

    def _close(self, u: int) -> bool:
        """Lock u's open class to u's neighbor color set, once u's neighborhood is
        colored, and check the class's members against it."""
        lock, mask, rem = self.lock, self.nbr_mask, self.rem
        c = self.color[u]
        want = lock[c] = mask[u]
        self.lockmask |= 1 << c
        self.trail.append(c)
        for w in self.members[c]:
            seen = mask[w]
            if seen & ~want or (want & ~seen).bit_count() > rem[w]:
                return False
        return True

    def _uncolor(self, v: int, mark: int) -> None:
        """Take back v's color, and every lock and seen change since the trail had
        length mark."""
        trail, lock, seen = self.trail, self.lock, self.seen
        while len(trail) > mark:
            c = trail.pop()
            if c > 0:
                lock[c] = -1
                self.lockmask &= ~(1 << c)
            else:
                seen[-c] = trail.pop()
        c = self.color[v]
        keep = ~(1 << c)
        mask, rem = self.nbr_mask, self.rem
        for u in self.gained[v]:
            mask[u] &= keep
        for u in self.adj[v]:
            rem[u] += 1
        members = self.members[c]
        members.pop()
        if not members:
            self.n_used -= 1
        self.color[v] = 0

    def _leaf(self) -> bool:
        """Re-check a full coloring against the definition; True stops the search."""
        cert = RoleColoring(tuple(map(self.color.__getitem__, self.pos)), self.k)
        # the pruning rules should only ever let valid leaves through
        if self.r is None:
            bad = verify_k_role(self.g, cert)
        else:
            bad = verify_r_role(self.g, self.r, cert)
        if bad is not None:
            self.rejected += 1
            return False
        if self.mode == COUNT:
            self.count += 1
            return False
        self.found.append(cert)
        return True

    def walk(self):
        """The search, as a generator: it pauses (yields the nodes counted so far)
        each time nodes passes self.stop, and a resume goes on from the same node,
        already counted. The caller may raise self.stop before resuming."""
        n, k = self.g.n, self.k
        top = [0] * (n + 1)  # highest color to try at each level; 0 at a dead end
        mark = [0] * n  # trail length before each level's coloring
        trail, color, stop = self.trail, self.color, self.stop
        fits, apply, undo = self._fits, self._color, self._uncolor  # looked up once: the loop is hot
        nodes = self.nodes
        v = c = 0
        fresh = True
        while True:
            if fresh:
                fresh = False
                c = 0
                if v == n:
                    if self.n_used == k and self._leaf():
                        break
                elif self.r is not None:  # every role left unused needs a vertex of its own
                    top[v] = 0 if k - self.n_used > n - v else k
                else:  # k-role: the forced new color below keeps k - n_used <= n - v
                    top[v] = min(self.n_used + 1, k)
                    if k - self.n_used == n - v:
                        c = self.n_used  # every vertex left must open a new color: try only n_used + 1
            while c < top[v]:
                c += 1
                nodes += 1
                if nodes > stop:
                    self.nodes = nodes
                    yield nodes
                    stop = self.stop
                if not fits(v, c):
                    continue
                mark[v] = len(trail)
                if apply(v, c):
                    v += 1
                    fresh = True
                    break
                undo(v, mark[v])
            else:
                if v == 0:
                    break
                v -= 1
                c = color[v]
                undo(v, mark[v])
        self.nodes = nodes

    def answer(self) -> str:
        """The status of a finished walk."""
        return YES if self.count or self.found else NO

    def run(self) -> str:
        """Walk to the end, or until nodes passes the budget."""
        return BUDGET_EXCEEDED if next(self.walk(), 0) else self.answer()


def _race(engines: list[_Engine], make_rival: Callable[[], _Engine], budget: int) -> str | None:
    """Run s = engines[0], an id-order certificate search, and a closing-order
    decision on the same graph, in turns of SLICE nodes, s first, under one shared
    budget. make_rival() builds the decision, which joins engines, only once s
    outlives its first turn.

    The first conclusive answer wins: s's status once s ends, None once the
    decision refutes. A coloring that it finds is not the documented certificate,
    so then it is dropped and s runs on alone.
    """
    s = engines[0]
    ids = s.walk()
    s.stop = min(SLICE, budget)
    if not next(ids, 0):  # s ended inside its first turn: no rival is built
        return s.answer()
    if s.nodes > budget:
        return BUDGET_EXCEEDED
    engines.append(rival := make_rival())
    refute = rival.walk()
    end = 0  # each engine's turn ends once it has counted end nodes
    while True:
        end += SLICE
        for e, walk, other in ((s, ids, rival), (rival, refute, s))[end == SLICE :]:  # s had turn 1 above
            e.stop = min(end, budget - other.nodes)
            if next(walk, 0):  # paused: its turn or the budget ran out
                if s.nodes + rival.nodes > budget:
                    return BUDGET_EXCEEDED
            elif e is s:
                return s.answer()
            elif not rival.found:
                return None
            else:
                s.stop = budget - rival.nodes
                return BUDGET_EXCEEDED if next(ids, 0) else s.answer()


def _check_search_args(k: int, mode: str, budget: int) -> None:
    """ValueError unless k >= 1, mode is known and budget >= 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in (DECISION, WITNESS, COUNT):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")


def _solve(g: Graph, k: int, r: RoleGraph | None, mode: str, budget: int) -> SolveResult:
    # a search that returns no certificate (k-role decision and count, R-role
    # count) runs in closing order, which changes only its node count: restricted
    # growth in any vertex order lists each partition once. Witnesses follow
    # vertex ids, their documented order. A search that returns a certificate
    # (k-role witness, R-role decision and witness) races a closing-order
    # decision (_race), since a "no" carries no certificate; nodes,
    # leaves_rejected and the budget then count both engines.
    closing = mode == COUNT or (mode == DECISION and r is None)
    name = "closing" if closing else "id"
    # k colors need k vertices: answer before any per-color state is built; this is
    # not a search, so it answers at any budget
    if k > g.n:
        return SolveResult(status=NO, count=0 if mode == COUNT else None, order=name)
    order = _closing_order(g) if closing else list(range(g.n))
    s = _Engine(g, k, r, mode, budget, order)
    engines = [s]
    if closing:
        status = s.run()
    else:
        status = _race(engines, lambda: _Engine(g, k, r, DECISION, budget, _closing_order(g)), budget)
        if status is None:
            status, name = NO, "closing"
    return SolveResult(
        status=status,
        certificate=s.found[0] if (not closing and s.found) else None,
        count=s.count if mode == COUNT else None,
        nodes=sum(e.nodes for e in engines),
        order=name,
        leaves_rejected=sum(e.rejected for e in engines),
    )


def solve_k_role(g: Graph, k: int, mode: str = DECISION, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Decide / witness / count valid k-role colorings of g.

    Witnesses are the lexicographically smallest restricted-growth coloring;
    counts are up to color permutation.
    """
    _check_search_args(k, mode, budget)
    return _solve(g, k, None, mode, budget)


def solve_r_role(g: Graph, r: RoleGraph, mode: str = DECISION, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Decide / witness / count locally surjective homomorphisms g -> r.

    Witnesses are lexicographically smallest over the vertex-order assignment.
    """
    if r.colors < 1:
        raise ValueError("role graph must have at least one color")
    _check_search_args(r.colors, mode, budget)
    return _solve(g, r.colors, r, mode, budget)
