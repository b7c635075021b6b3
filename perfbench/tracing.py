"""Span tracing from outside the package.

Wrappers replace the package's functions at the names their callers look
them up by (for example `rolecolor.cli.parse_graph`, which is what
`cli._load_graph` calls). Each call records one span:
(name, start_ns, end_ns, parent span index, operation id, attribute).
Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

SOLVER_SPANS = ("solver.solve_k_role", "solver.solve_r_role", "chain3.fallback_solve")
MODES = ("decision", "witness", "count")
CASES = ("Disconnected", "SingletonSide", "TwoUniversal", "TwoSideWithTail", "BothSidesLarge", "None")
EXIT_CODES = (0, 1, 2, 3)
GADGETS = ("k3", "k4", "kpath")


def _mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "decision")


def _solve_attr(args, kwargs, res):
    return (_mode(args, kwargs), res.nodes, res.status, res.count)


# (module, attribute, span name, attribute extractor(args, kwargs, result))
WRAPS = [
    ("rolecolor.cli", "run", "cli.run", lambda a, k, r: r),
    ("rolecolor.cli", "parse_graph", "graph.parse", lambda a, k, r: r.m),
    ("rolecolor.cli", "bipartition", "graph.bipartition", None),
    ("rolecolor.cli", "is_chain", "graph.is_chain", None),
    ("rolecolor.cli", "chain_structure", "graph.chain_structure", None),
    ("rolecolor.chain3", "bipartition", "graph.bipartition", None),
    ("rolecolor.chain3", "is_chain", "graph.is_chain", None),
    ("rolecolor.chain3", "chain_structure", "graph.chain_structure", None),
    ("rolecolor.chain3", "is_connected", "graph.connectivity", None),
    ("rolecolor.chain3", "connected_components", "graph.connectivity", None),
    ("rolecolor.cli", "verify_k_role", "roles.verify", None),
    ("rolecolor.chain3", "verify_k_role", "roles.verify", None),
    ("rolecolor.cli", "parse_coloring", "roles.parse_coloring", None),
    ("rolecolor.cli", "parse_role_graph", "roles.parse_role_graph", None),
    ("rolecolor.cli", "extract_role_graph", "roles.extract", None),
    ("rolecolor", "solve_k_role", "solver.solve_k_role", _solve_attr),
    ("rolecolor.cli", "solve_k_role", "solver.solve_k_role", _solve_attr),
    ("rolecolor.cli", "solve_r_role", "solver.solve_r_role", _solve_attr),
    ("rolecolor.chain3", "solve_k_role", "chain3.fallback_solve", _solve_attr),
    ("rolecolor.solver", "verify_k_role", "solver.leaf_verify", lambda a, k, r: r is not None),
    ("rolecolor.solver", "verify_r_role", "solver.leaf_verify", lambda a, k, r: r is not None),
    ("rolecolor.chain3", "decide_chain3", "chain3.decide", lambda a, k, r: r.caseId),
    ("rolecolor.reductions", "parse_hypergraph", "reductions.parse", None),
    ("rolecolor.reductions", "build_k3_instance", "reductions.build.k3", None),
    ("rolecolor.reductions", "build_k4_instance", "reductions.build.k4", None),
    ("rolecolor.reductions", "build_kpath_instance", "reductions.build.kpath", None),
    ("rolecolor.reductions.GadgetGraph", "to_text", "reductions.to_text", None),
    ("rolecolor.reductions", "hypergraph_k_colorable", "reductions.hgcolor", lambda a, k, r: r.nodes),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = -1  # set by the benchmark before each operation
        self._saved: list = []

    def _wrap(self, name, fn, attr_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            attr = None
            t0 = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
                if attr_of is not None:
                    attr = attr_of(args, kwargs, res)
                return res
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, attr)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """modules maps dotted module names to imported module objects."""
        for mod_name, attr, span, attr_of in WRAPS:
            target = modules[mod_name.removesuffix(".GadgetGraph")]
            if mod_name.endswith(".GadgetGraph"):
                target = target.GadgetGraph
            orig = getattr(target, attr)
            self._saved.append((target, attr, orig))
            setattr(target, attr, self._wrap(span, orig, attr_of))

    def uninstall(self):
        while self._saved:
            target, attr, orig = self._saved.pop()
            setattr(target, attr, orig)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def unit_of(metric: str) -> str:
    if metric == "trace.overhead_ratio":
        return "ratio"
    if metric.endswith("ns_per_node"):
        return "ns"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass. Times in seconds, self = minus child spans."""
    child = [0] * len(spans)
    for name, t0, t1, parent, op, attr in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    dur = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for i, (name, t0, t1, parent, op, attr) in enumerate(spans):
        dur[name] += t1 - t0
        self_ns[name] += t1 - t0 - child[i]
        calls[name] += 1

    m: dict = {}
    solver = [(i, s) for i, s in enumerate(spans) if s[0] in SOLVER_SPANS]
    nodes = sum(s[5][1] for _, s in solver if s[5])
    search_ns = sum(s[2] - s[1] - child[i] for i, s in solver)
    m["solver.calls"] = len(solver)
    m["solver.nodes"] = nodes
    m["solver.search_s"] = search_ns / 1e9
    m["solver.ns_per_node"] = search_ns / nodes if nodes else 0.0
    leaves = [s for s in spans if s[0] == "solver.leaf_verify"]
    m["solver.leaves"] = len(leaves)
    m["solver.leaves_rejected"] = sum(1 for s in leaves if s[5])
    m["solver.leaf_verify_s"] = dur["solver.leaf_verify"] / 1e9
    m["solver.budget_exceeded"] = sum(1 for _, s in solver if s[5] and s[5][2] == "budget-exceeded")
    for mode in MODES:
        picked = [(i, s) for i, s in solver if s[5] and s[5][0] == mode]
        m[f"solver.nodes.{mode}"] = sum(s[5][1] for _, s in picked)
        m[f"solver.search_s.{mode}"] = sum(s[2] - s[1] - child[i] for i, s in picked) / 1e9

    parse_edges = sum(s[5] for s in spans if s[0] == "graph.parse" and s[5] is not None)
    m["graph.parse_s"] = dur["graph.parse"] / 1e9
    m["graph.parse_edges_per_s"] = parse_edges / m["graph.parse_s"] if dur["graph.parse"] else 0.0
    m["graph.bipartition_s"] = dur["graph.bipartition"] / 1e9
    m["graph.is_chain_s"] = dur["graph.is_chain"] / 1e9
    m["graph.chain_structure_s"] = dur["graph.chain_structure"] / 1e9
    m["graph.connectivity_s"] = dur["graph.connectivity"] / 1e9

    m["roles.verify_s"] = dur["roles.verify"] / 1e9
    m["roles.verify_calls"] = calls["roles.verify"]
    m["roles.parse_coloring_s"] = dur["roles.parse_coloring"] / 1e9
    m["roles.parse_role_graph_s"] = dur["roles.parse_role_graph"] / 1e9
    m["roles.extract_s"] = dur["roles.extract"] / 1e9

    decides = [s for s in spans if s[0] == "chain3.decide"]
    m["chain3.calls"] = len(decides)
    m["chain3.decide_s"] = self_ns["chain3.decide"] / 1e9
    m["chain3.fallbacks"] = calls["chain3.fallback_solve"]
    for case in CASES:
        m[f"chain3.case.{case}"] = sum(1 for s in decides if s[5] == case)

    m["reductions.parse_s"] = dur["reductions.parse"] / 1e9
    for g in GADGETS:
        m[f"reductions.build_s.{g}"] = dur[f"reductions.build.{g}"] / 1e9
    m["reductions.to_text_s"] = dur["reductions.to_text"] / 1e9
    m["reductions.hgcolor_s"] = dur["reductions.hgcolor"] / 1e9
    m["reductions.hgcolor_nodes"] = sum(s[5] for s in spans if s[0] == "reductions.hgcolor" and s[5])

    runs = [s for s in spans if s[0] == "cli.run"]
    m["cli.calls"] = len(runs)
    m["cli.self_s"] = self_ns["cli.run"] / 1e9
    for code in EXIT_CODES:
        m[f"cli.exit.{code}"] = sum(1 for s in runs if s[5] == code)
    return m


def count_leaf_mismatches(spans) -> int:
    """Count-mode solver spans whose accepted leaves differ from the returned count."""
    accepted = defaultdict(int)
    for name, t0, t1, parent, op, attr in spans:
        if name == "solver.leaf_verify" and not attr and parent >= 0:
            accepted[parent] += 1
    bad = 0
    for i, s in enumerate(spans):
        if s[0] in SOLVER_SPANS and s[5] and s[5][0] == "count" and s[5][3] != accepted[i]:
            bad += 1
    return bad


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
