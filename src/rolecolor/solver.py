"""Exact search for k-role and R-role colorings.

The k-role search walks canonical set partitions (restricted growth strings)
into exactly k blocks, so color-permutation symmetry is never enumerated and
counts are "up to color permutation". Every completed assignment is re-checked
against the definition before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .roles import RoleColoring, RoleGraph, verify_k_role, verify_r_role

DECISION = "decision"
WITNESS = "witness"
COUNT = "count"
ENUMERATE = "enumerate"

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    status: str  # yes / no / budget-exceeded
    certificate: RoleColoring | None = None
    count: int | None = None
    nodes: int = 0
    certificates: tuple = ()  # enumerate mode only

    @property
    def answer(self) -> bool:
        if self.status == BUDGET_EXCEEDED:
            raise BudgetExceeded("search node budget exceeded; answer unknown")
        return self.status == YES


def one_role_decision(g: Graph) -> bool:
    """1-role colorability: all neighborhoods empty, or none of them."""
    if g.n == 0:
        return False  # no vertex can receive the color
    degs = [g.degree(v) for v in range(g.n)]
    return all(d == 0 for d in degs) or all(d > 0 for d in degs)


class _Engine:
    """Backtracking over colorings, vertices in ascending id order, on an explicit stack.

    lock[c] is the neighborhood color set (a bitmask) that every member of
    class c must see. An R-role search fills it with N_R(c) up front. A k-role
    search leaves it open (-1) until some member of c has its whole
    neighborhood colored, and walks restricted growth strings, so color
    permutations are never enumerated and counts are "up to color permutation".

    cnt[c][u] is the number of u's neighbors colored c. u's neighbor color set
    nbr_mask[u] changes only when one of those counters moves between 0 and 1,
    so taking a color back costs O(deg). Locks set lazily go on one trail stack.

    Pruning (answer-preserving; a k-role search drops it with `pruning=False`):
      * surjectivity: the remaining vertices must cover the unused colors;
      * lock check: every colored member of a locked class sees only colors in
        the lock, and its uncolored neighbors can still supply the rest of it.
    """

    def __init__(self, g: Graph, k: int, r: RoleGraph | None, mode: str, budget: int, pruning: bool, limit: int):
        n = g.n
        self.g = g
        self.k = k
        self.r = r
        self.mode = mode
        self.budget = budget
        self.pruning = pruning
        self.limit = limit
        self.lock = [-1] * (k + 1)
        if r is not None:
            for c in range(1, k + 1):
                self.lock[c] = sum(1 << d for d in r.neighbors(c))
        self.color = [0] * n
        self.nbr_mask = [0] * n
        self.rem = [g.degree(v) for v in range(n)]  # uncolored neighbors
        self.cnt = [[0] * n for _ in range(k + 1)]
        self.members = [[] for _ in range(k + 1)]
        self.trail: list[int] = []  # classes locked lazily, newest last
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
        for u in self.g.adj[v]:
            if u < v:
                want = lock[color[u]]
                # u gains c and loses an uncolored neighbor
                if want >= 0 and (not want & bit or (want & ~(mask[u] | bit)).bit_count() >= rem[u]):
                    return False
        return True

    def _color(self, v: int, c: int) -> bool:
        """Color v with c; lock the open classes it closes and check their members."""
        self.color[v] = c
        members = self.members[c]
        if not members:
            self.n_used += 1
        members.append(v)
        bit = 1 << c
        cnt, mask, rem = self.cnt[c], self.nbr_mask, self.rem
        for u in self.g.adj[v]:
            x = cnt[u]
            cnt[u] = x + 1
            if not x:
                mask[u] |= bit
            rem[u] -= 1
        if self.r is not None or not self.pruning:
            return True  # R-role locks are all set up front
        if not self._close(v):
            return False
        for u in self.g.adj[v]:
            if u < v and not self._close(u):
                return False
        return True

    def _close(self, u: int) -> bool:
        """Lock u's open class once u's neighborhood is colored, and check its members."""
        lock, mask, rem = self.lock, self.nbr_mask, self.rem
        c = self.color[u]
        if rem[u] or lock[c] >= 0:
            return True  # a locked class was checked before coloring
        want = lock[c] = mask[u]
        self.trail.append(c)
        for w in self.members[c]:
            seen = mask[w]
            if seen & ~want or (want & ~seen).bit_count() > rem[w]:
                return False
        return True

    def _uncolor(self, v: int, mark: int) -> None:
        """Take back v's color and every lock set since the trail had length mark."""
        trail, lock = self.trail, self.lock
        while len(trail) > mark:
            lock[trail.pop()] = -1
        c = self.color[v]
        bit = 1 << c
        cnt, mask, rem = self.cnt[c], self.nbr_mask, self.rem
        for u in self.g.adj[v]:
            x = cnt[u] - 1
            cnt[u] = x
            if not x:
                mask[u] &= ~bit
            rem[u] += 1
        members = self.members[c]
        members.pop()
        if not members:
            self.n_used -= 1
        self.color[v] = 0

    def _leaf(self) -> bool:
        """Re-check a full coloring against the definition; True stops the search."""
        cert = RoleColoring(tuple(self.color), self.k)
        # the pruning rules should only ever let valid leaves through
        if self.r is None:
            bad = verify_k_role(self.g, cert)
        else:
            bad = verify_r_role(self.g, self.r, cert)
        if bad is not None:
            return False
        if self.mode == COUNT:
            self.count += 1
            return False
        self.found.append(cert)
        return self.mode != ENUMERATE or len(self.found) >= self.limit

    def run(self) -> str:
        n, k = self.g.n, self.k
        if k > n:
            return NO
        top = [0] * (n + 1)  # highest color to try at each level; 0 at a dead end
        mark = [0] * n  # trail length before each level's coloring
        v = c = 0
        fresh = True
        while True:
            if fresh:
                fresh = False
                c = 0
                if v == n:
                    if self.n_used == k and self._leaf():
                        break
                elif self.pruning and k - self.n_used > n - v:
                    top[v] = 0
                else:
                    top[v] = min(self.n_used + 1, k) if self.r is None else k
            while c < top[v]:
                c += 1
                self.nodes += 1
                if self.nodes > self.budget:
                    return BUDGET_EXCEEDED
                if self.pruning and not self._fits(v, c):
                    continue
                mark[v] = len(self.trail)
                if self._color(v, c):
                    v += 1
                    fresh = True
                    break
                self._uncolor(v, mark[v])
            else:
                if v == 0:
                    break
                v -= 1
                c = self.color[v]
                self._uncolor(v, mark[v])
        if self.mode == COUNT:
            return YES if self.count else NO
        return YES if self.found else NO


def _check_search_args(mode: str, budget: int, limit: int = 1) -> None:
    """ValueError unless mode is known, budget >= 0 and (in enumerate mode) limit >= 1."""
    if mode not in (DECISION, WITNESS, COUNT, ENUMERATE):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if mode == ENUMERATE and limit < 1:
        raise ValueError("enumerate limit must be >= 1")


def _solve(s: _Engine, cert_modes: tuple) -> SolveResult:
    status = s.run()
    return SolveResult(
        status=status,
        certificate=s.found[0] if (s.mode in cert_modes and s.found) else None,
        count=s.count if s.mode == COUNT else None,
        nodes=s.nodes,
        certificates=tuple(s.found) if s.mode == ENUMERATE else (),
    )


def solve_k_role(
    g: Graph,
    k: int,
    mode: str = DECISION,
    budget: int = DEFAULT_BUDGET,
    pruning: bool = True,
    limit: int = 1,
) -> SolveResult:
    """Decide / witness / count / enumerate valid k-role colorings of g.

    Witnesses are the lexicographically smallest restricted-growth coloring;
    counts are up to color permutation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_search_args(mode, budget, limit)
    return _solve(_Engine(g, k, None, mode, budget, pruning, limit), (WITNESS,))


def solve_r_role(
    g: Graph,
    r: RoleGraph,
    mode: str = DECISION,
    budget: int = DEFAULT_BUDGET,
    limit: int = 1,
) -> SolveResult:
    """Decide / witness / count / enumerate locally surjective homomorphisms g -> r.

    Witnesses are lexicographically smallest over the vertex-order assignment.
    """
    if r.colors < 1:
        raise ValueError("role graph must have at least one color")
    _check_search_args(mode, budget, limit)
    return _solve(_Engine(g, r.colors, r, mode, budget, True, limit), (WITNESS, DECISION))
