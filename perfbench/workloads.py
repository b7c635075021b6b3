"""The three workloads: seeded inputs, the operations run on them, and the
expected output of each operation.

Inputs come from the benchmark's own generators, not from
`rolecolor.generators`, so a change to the package cannot change what is
measured. Everything is derived from the workload seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = HERE / "catalogue.json"

MODES = ("decision", "witness", "count")
LOOPED_EDGE = (2, [(1, 1), (1, 2)])
C4 = (4, [(1, 2), (2, 3), (3, 4), (1, 4)])


# ---------------------------------------------------------------- generators


def gnp_edges(rng: random.Random, n: int, p: float) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def hypergraph_edges(rng: random.Random, nq: int, ns: int) -> list:
    """Distinct triples; every vertex covered and the incidence graph connected."""
    order = list(range(nq))
    rng.shuffle(order)
    edges = [tuple(sorted(order[:3]))]
    seen = set(edges)
    i = 3
    while i < nq:  # each new vertex joins two placed ones
        a, b = rng.sample(order[:i], 2)
        e = tuple(sorted((order[i], a, b)))
        if e not in seen:
            edges.append(e)
            seen.add(e)
            i += 1
    while len(edges) < ns:
        e = tuple(sorted(rng.sample(range(nq), 3)))
        if e not in seen:
            edges.append(e)
            seen.add(e)
    return edges


def hypergraph_text(nq: int, hedges) -> str:
    return f"{nq} {len(hedges)}\n" + "".join(f"3 {a} {b} {c}\n" for a, b, c in hedges)


def incidence_edges(nq: int, hedges) -> list:
    return [(q, nq + j) for j, e in enumerate(hedges) for q in e]


def k3_gadget(nq: int, hedges):
    """Incidence graph plus a path q - b_q - a_q for every hypergraph vertex q."""
    off = nq + len(hedges)
    edges = incidence_edges(nq, hedges)
    for q in range(nq):
        edges += [(q, off + q), (off + q, off + nq + q)]
    return off + 2 * nq, edges


def k4_gadget(nq: int, hedges):
    """Incidence graph plus one pendant vertex on every hyperedge vertex."""
    off = nq + len(hedges)
    edges = incidence_edges(nq, hedges) + [(nq + j, off + j) for j in range(len(hedges))]
    return off + len(hedges), edges


def role_text(role) -> str:
    colors, edges = role
    return f"{colors} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def role_adjacency(role) -> list:
    colors, edges = role
    adj = [set() for _ in range(colors + 1)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def chain_graph(rng: random.Random, n: int, m: int):
    """Connected bipartite chain graph, both sides n/2, exactly m edges, no pendants.

    Returns (edges, X in decreasing degree order, Y in decreasing degree order,
    X degrees). Vertex ids are shuffled.
    """
    p = q = n // 2
    # x_0 and x_1 see all of Y, so every y has degree >= 2; the last x has
    # degree 2 and the others 3..q-1, which leaves room for the 2K2 edit
    rest = m - 2 * q - 2
    degs = [rng.randint(3, q - 1) for _ in range(p - 3)]
    diff = rest - sum(degs)
    while diff:
        i = rng.randrange(len(degs))
        step = 1 if diff > 0 else -1
        if 3 <= degs[i] + step <= q - 1:
            degs[i] += step
            diff -= step
    degs = [q, q] + sorted(degs, reverse=True) + [2]
    ids = list(range(n))
    rng.shuffle(ids)
    xs, ys = ids[:p], ids[p:]
    edges = [(x, ys[j]) for x, d in zip(xs, degs) for j in range(d)]
    return edges, xs, ys, degs


def rgs_rows(n: int) -> list:
    """All set partitions of n elements as restricted growth strings over 1.."""
    rows = []

    def rec(prefix, used):
        if len(prefix) == n:
            rows.append(tuple(prefix))
            return
        for c in range(1, used + 2):
            rec(prefix + [c], max(used, c))

    rec([], 0)
    return rows


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------- running


@dataclass
class Op:
    label: str
    argv: list | None = None  # CLI operation: arguments of rolecolor.cli.run
    lib: tuple | None = None  # library operation: (graph index, k)
    expect: dict = field(default_factory=dict)


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    tail_pct = 90.0
    collect_between_ops = True  # start each CLI op from a collected heap, as a fresh process would

    def __init__(self, rc, workdir: Path, seed: int, tiny: bool):
        self.rc = rc  # namespace of imported rolecolor modules
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.ops: list[Op] = []

    def setup(self):
        raise NotImplementedError

    def execute(self, op: Op):
        return run_cli(self.rc.cli, op.argv)

    def check(self, op: Op, outcome, schema) -> str | None:
        return checks.check_cli(outcome, op.expect, schema)

    def final_checks(self) -> list:
        return []

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


class SmallCount(Workload):
    """Thousands of short count-mode searches through the library."""

    name = "small-count"
    tail_pct = 99.0
    collect_between_ops = False
    GRAPHS_PER_CLASS = 40

    def setup(self):
        rng = random.Random(f"small-count:{self.seed}")
        per = 1 if self.tiny else self.GRAPHS_PER_CLASS
        self.graphs = []
        for n in (7, 8):
            for p in (0.3, 0.5, 0.7):
                for _ in range(per):
                    edges = gnp_edges(rng, n, p)
                    self.graphs.append((n, edges, self.rc.rolecolor.Graph(n, edges)))
        self.ops = [
            Op(f"count n={n}", lib=(i, k))
            for i, (n, _, _) in enumerate(self.graphs)
            for k in range(2, n - 1 + 1)
        ]
        self._reference = None

    def execute(self, op: Op):
        i, k = op.lib
        res = self.rc.rolecolor.solve_k_role(self.graphs[i][2], k, mode="count")
        return res.status, res.count, res.nodes

    def _oracle_counts(self):
        """Canonical counts per (graph, k) from the numpy oracle in tests/naive.py."""
        import numpy as np

        spec = importlib.util.spec_from_file_location("naive_oracle", ROOT / "tests" / "naive.py")
        naive = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(naive)
        rows = {n: np.array(rgs_rows(n), dtype=np.int8) for n in (7, 8)}
        ref = {}
        for i, (n, edges, _) in enumerate(self.graphs):
            g = SimpleNamespace(n=n, adj=[sorted(a) for a in checks.adjacency(n, edges)])
            ok = naive.naive_valid_mask(g, rows[n])
            blocks = rows[n].max(axis=1)
            for k in range(2, n):
                ref[i, k] = int((ok & (blocks == k)).sum())
        return ref

    def check(self, op: Op, outcome, schema) -> str | None:
        if self._reference is None:
            self._reference = self._oracle_counts()
        status, count, _ = outcome
        want = self._reference[op.lib]
        if count != want:
            return f"count {count}, oracle {want}"
        if status != ("yes" if want else "no"):
            return f"status {status} with count {want}"
        return None


class HardSearch(Workload):
    """A few long searches through `rolecolor.cli.run --json` on files.

    Instances come from catalogue.json: candidates were drawn from each family
    and kept when the search size at the seed commit fell inside a narrow band,
    so that a pass takes about the same time whatever the seed picks. The
    catalogue also holds each instance's reference answer, count and witness.
    """

    name = "hard-search"
    tail_pct = 90.0
    # family -> instances per pass
    PER_PASS = {"solve-gnp": 4, "k3-gadget": 4, "k4-gadget": 4, "rrole-loop": 3, "rrole-c4": 3}

    def setup(self):
        with open(CATALOGUE, encoding="utf-8") as f:
            catalogue = json.load(f)
        rng = random.Random(f"hard-search:{self.seed}")
        role_paths = {
            "rrole-loop": self._write("looped-edge.role", role_text(LOOPED_EDGE)),
            "rrole-c4": self._write("c4.role", role_text(C4)),
        }
        self.ops = []
        for family, per in self.PER_PASS.items():
            for entry in _stratified(rng, catalogue["families"][family], 1 if self.tiny else per):
                inst = hard_instance(family, entry["sub_seed"])
                if sha256(inst.text) != entry["sha256"]:
                    raise RuntimeError(f"{family}/{entry['sub_seed']}: generator drifted from catalogue")
                tag = f"{family}-{entry['sub_seed']}"
                path = self._write(f"{tag}.graph", inst.text)
                adj = checks.adjacency(inst.n, inst.edges)
                for mode, want in entry["expect"].items():
                    if family.startswith("rrole"):
                        argv = ["--json", "rrole", path, role_paths[family], "--mode", mode]
                        verify = _r_role_verifier(adj, role_adjacency(inst.role))
                    else:
                        argv = ["--json", "solve", path, "-k", str(inst.k), "--mode", mode]
                        verify = _k_role_verifier(adj, inst.k)
                    self.ops.append(Op(f"{family}/{mode}", argv=argv, expect=_search_expect(want, verify)))
                if inst.hedges:
                    hpath = self._write(f"{tag}.hg", hypergraph_text(inst.nq, inst.hedges))
                    self.ops += _hgcolor_ops(hpath, inst.nq, inst.hedges)


def _stratified(rng: random.Random, entries: list, k: int) -> list:
    """One entry from each of k strata of the catalogue sorted by recorded search size.

    Drawing across the whole size range every time keeps a pass's work about
    the same for every seed, where a plain sample of k would not.
    """
    ranked = sorted(entries, key=lambda e: (sum(e["nodes"].values()), e["sub_seed"]))
    size = len(ranked) // k
    return [rng.choice(ranked[i * size : (i + 1) * size]) for i in range(k)]


def _search_expect(want: dict, verify) -> dict:
    fields = {"answer": want["answer"]}
    absent = []
    for key in ("count", "certificate"):
        if want.get(key) is None:
            absent.append(key)
        else:
            fields[key] = want[key]
    return {"exit": 0 if want["answer"] == "yes" else 1, "fields": fields, "absent": absent, "verify": verify}


def _k_role_verifier(adj, k):
    def verify(payload):
        cert = payload.get("certificate")
        return None if cert is None else checks.k_role_violation(adj, cert, k)

    return verify


def _r_role_verifier(adj, role_adj):
    def verify(payload):
        cert = payload.get("certificate")
        return None if cert is None else checks.r_role_violation(adj, cert, role_adj)

    return verify


def _hgcolor_ops(path, nq, hedges) -> list:
    """hgcolor -k 2 witness and -k 3 count, checked against a brute force of our own."""
    ops = []
    for k, mode in ((2, "witness"), (3, "count")):
        expect = {"exit": None}  # exit follows the answer; the reference is enumerated when checked

        def verify(payload, k=k, mode=mode, expect=expect):
            if "ref" not in expect:
                expect["ref"] = checks.hypergraph_reference(nq, hedges, k)
            first, count = expect["ref"]
            want = "yes" if count else "no"
            if payload["answer"] != want:
                return f"answer {payload['answer']}, reference {want}"
            if mode == "count" and payload.get("count") != count:
                return f"count {payload.get('count')}, reference {count}"
            if mode == "witness" and payload.get("certificate") != first:
                return f"witness {payload.get('certificate')}, reference {first}"
            return None

        expect["verify"] = verify
        ops.append(Op(f"hgcolor/k{k}-{mode}", argv=["--json", "hgcolor", path, "-k", str(k), "--mode", mode], expect=expect))
    return ops


@dataclass
class HardInstance:
    text: str
    n: int
    edges: list
    k: int = 0
    role: tuple = ()
    nq: int = 0
    hedges: list = field(default_factory=list)


# family -> {mode: (low, high) node band}. The bands put every banded
# operation at about 150 ms at the seed commit, so that the median and the
# tail of a pass fall inside one dense cluster of operation times rather than
# in a gap between families. rrole-loop decision stays unbanded and cheap.
HARD_BANDS = {
    "solve-gnp": {"decision": (20_000, 30_000), "witness": (20_000, 30_000), "count": (20_000, 30_000)},
    "k3-gadget": {"witness": (40_000, 55_000)},
    "k4-gadget": {"witness": (40_000, 55_000)},
    "rrole-loop": {"count": (60_000, 80_000)},
    "rrole-c4": {"decision": (60_000, 80_000), "count": (60_000, 80_000)},
}


def hard_instance(family: str, sub_seed: int) -> HardInstance:
    rng = random.Random(f"{family}:{sub_seed}")
    if family == "solve-gnp":
        n, p, k = rng.choice((14, 15, 16)), rng.choice((0.3, 0.35, 0.4)), rng.choice((4, 5))
        edges = gnp_edges(rng, n, p)
        return HardInstance(graph_text(n, edges), n, edges, k=k)
    if family in ("k3-gadget", "k4-gadget"):
        nq, ns = (9, 7) if family == "k3-gadget" else (9, 9)
        hedges = hypergraph_edges(rng, nq, ns)
        build, k = (k3_gadget, 3) if family == "k3-gadget" else (k4_gadget, 4)
        n, edges = build(nq, hedges)
        return HardInstance(graph_text(n, edges), n, edges, k=k, nq=nq, hedges=hedges)
    if family in ("rrole-loop", "rrole-c4"):
        n = rng.randint(30, 40)
        edges = gnp_edges(rng, n, 0.2)
        role = LOOPED_EDGE if family == "rrole-loop" else C4
        return HardInstance(graph_text(n, edges), n, edges, role=role)
    raise ValueError(family)


def hard_modes(family: str) -> tuple:
    if family == "solve-gnp":
        return MODES
    if family.endswith("gadget"):
        return ("witness",)
    return ("decision", "count")


class LargeChain(Workload):
    """The polynomial layers on big inputs: parse, recognition, chain3, gadget builds."""

    name = "large-chain"
    tail_pct = 75.0
    N, M = 2000, 200_000
    NQ, NS = 400, 2000

    def setup(self):
        rng = random.Random(f"large-chain:{self.seed}")
        n, m = (200, 5_000) if self.tiny else (self.N, self.M)
        nq, ns = (40, 200) if self.tiny else (self.NQ, self.NS)
        edges, xs, ys, degs = chain_graph(rng, n, m)
        body = "".join(f"{u} {v}\n" for u, v in edges)
        a, b = xs[-1], ys[-1]  # lowest-degree x gains an edge to the lowest-degree y
        y0, y1 = ys[0], ys[1]  # both adjacent to xs[0]: a triangle
        chain = self._write("chain.graph", f"{n} {m}\n" + body)
        nonchain = self._write("nonchain.graph", f"{n} {m + 1}\n" + body + f"{a} {b}\n")
        nonbip = self._write("nonbip.graph", f"{n} {m + 1}\n" + body + f"{y0} {y1}\n")
        cert = [3] * n
        cert[xs[0]] = 1
        for y in ys:
            cert[y] = 2
        col = self._write("chain.col", " ".join(map(str, cert)) + "\n")
        hedges = hypergraph_edges(rng, nq, ns)
        hg = self._write("big.hg", hypergraph_text(nq, hedges))

        self._edges, self._extra = edges, {nonchain: (a, b), nonbip: (y0, y1)}
        self._adj = None
        self.n = n
        universal_x = {x for x, d in zip(xs, degs) if d == len(ys)}
        universal_y = set(ys[: degs[-1]])
        sides = {frozenset(xs): universal_x, frozenset(ys): universal_y}

        def recognized(payload):
            rec = payload["recognition"]
            px, py = frozenset(rec["partX"]), frozenset(rec["partY"])
            if {px, py} != set(sides):
                return "bipartition differs from the generated sides"
            if set(rec["universalX"]) != sides[px] or set(rec["universalY"]) != sides[py]:
                return "universal vertices differ"
            if rec["pendantX"] or rec["pendantY"]:
                return "pendant vertices reported on a pendant-free graph"
            return None

        def certified(payload):
            return checks.k_role_violation(self.adjacency(), payload["certificate"], 3)

        def witness_2k2(payload):
            u, v, w, z = payload["recognition"]["witness_2k2"]
            return None if checks.is_induced_2k2(self.adjacency(nonchain), u, v, w, z) else "not an induced 2K2"

        def odd_walk(payload):
            walk = payload["recognition"]["odd_walk"]
            return None if checks.is_odd_closed_walk(self.adjacency(nonbip), walk) else "not an odd closed walk"

        gadgets = {
            "k3": (nq + ns + 2 * nq, 3 * ns + 2 * nq, 3),
            "k4": (nq + 2 * ns, 4 * ns, 4),
            "kpath": (nq + 3 * ns, 5 * ns, 5),
        }
        self._gadget_files = {}
        ops = [
            Op("chain3/chain", ["--json", "chain3", chain], expect={
                "exit": 0, "fields": {"answer": "yes", "case": "BothSidesLarge", "stats": {"fallback": False}},
                "verify": certified}),
            Op("recognize/chain", ["--json", "recognize", chain], expect={
                "exit": 0, "fields": {"answer": "chain"}, "verify": recognized}),
            Op("verify/chain", ["--json", "verify", chain, col, "-k", "3"], expect={
                "exit": 0, "fields": {"answer": "valid"}}),
            Op("rolegraph/chain", ["--json", "rolegraph", chain, col], expect={
                "exit": 0, "fields": {"answer": "ok", "rolegraph": {"colors": 3, "edges": [[1, 2], [2, 3]]}}}),
            Op("chain3/nonchain", ["--json", "chain3", nonchain], expect={"exit": 2, "error": True}),
            Op("recognize/nonchain", ["--json", "recognize", nonchain], expect={
                "exit": 1, "fields": {"answer": "not-chain"}, "verify": witness_2k2}),
            Op("chain3/nonbip", ["--json", "chain3", nonbip], expect={"exit": 2, "error": True}),
            Op("recognize/nonbip", ["--json", "recognize", nonbip], expect={
                "exit": 1, "fields": {"answer": "not-bipartite"}, "verify": odd_walk}),
        ]
        for kind, (gn, gm, gk) in gadgets.items():
            out = str(self.workdir / f"big-{kind}.graph")
            self._gadget_files[out] = (gn, gm)
            argv = ["--json", "reduce", kind, hg, "-o", out] + (["--k", "5"] if kind == "kpath" else [])
            ops.append(Op(f"reduce/{kind}", argv, expect={
                "exit": 0, "fields": {"answer": "ok", "gadget": {"kind": kind, "n": gn, "m": gm, "k": gk, "pivot": None}}}))
        self.ops = ops

    def adjacency(self, path=None):
        if self._adj is None:
            self._adj = checks.adjacency(self.n, self._edges)
        if path is None:
            return self._adj
        u, v = self._extra[path]
        adj = list(self._adj)
        adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
        return adj

    def final_checks(self) -> list:
        bad = []
        for path, (gn, gm) in self._gadget_files.items():
            with open(path, encoding="utf-8") as f:
                header = f.readline().split()
            if header != [str(gn), str(gm)]:
                bad.append(f"{path}: header {header}, expected {gn} {gm}")
        return bad


WORKLOADS = {w.name: w for w in (SmallCount, HardSearch, LargeChain)}
