"""Output checks that share no code with the package under test.

Every operation's output is checked after the timed loop. A check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from itertools import product


def adjacency(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def k_role_violation(adj, colors, k: int):
    """Definition check: surjective onto 1..k, same color -> same neighbour color set."""
    if len(colors) != len(adj):
        return f"coloring has {len(colors)} entries for {len(adj)} vertices"
    if set(colors) != set(range(1, k + 1)):
        return f"coloring does not use exactly the colors 1..{k}"
    first = {}
    for v, nb in enumerate(adj):
        seen = frozenset(colors[u] for u in nb)
        if first.setdefault(colors[v], seen) != seen:
            return f"vertex {v} sees {sorted(seen)}, its class sees {sorted(first[colors[v]])}"
    return None


def r_role_violation(adj, colors, role_adj):
    """Locally surjective homomorphism check; role_adj[c] is the set N_R(c), 1-based."""
    colors_n = len(role_adj) - 1
    if len(colors) != len(adj):
        return f"coloring has {len(colors)} entries for {len(adj)} vertices"
    if set(colors) != set(range(1, colors_n + 1)):
        return f"coloring does not use exactly the colors 1..{colors_n}"
    for v, nb in enumerate(adj):
        seen = {colors[u] for u in nb}
        if seen != role_adj[colors[v]]:
            return f"vertex {v} sees {sorted(seen)}, role {colors[v]} needs {sorted(role_adj[colors[v]])}"
    return None


def hypergraph_reference(nq: int, hedges, k: int):
    """(first proper surjective coloring in product order or None, count of them)."""
    first, count = None, 0
    for assign in product(range(1, k + 1), repeat=nq):
        if len(set(assign)) != k:
            continue
        if any(assign[a] == assign[b] == assign[c] for a, b, c in hedges):
            continue
        count += 1
        if first is None:
            first = list(assign)
    return first, count


def is_induced_2k2(adj, u, v, w, z) -> bool:
    """Edges (u,w), (v,z); non-edges (u,z), (v,w); four distinct vertices."""
    return (
        len({u, v, w, z}) == 4
        and w in adj[u]
        and z in adj[v]
        and z not in adj[u]
        and w not in adj[v]
    )


def is_odd_closed_walk(adj, walk) -> bool:
    return (
        len(walk) >= 4
        and walk[0] == walk[-1]
        and (len(walk) - 1) % 2 == 1
        and all(b in adj[a] for a, b in zip(walk, walk[1:]))
    )


class SchemaCheck:
    """Validates --json payloads against the repository's output schema."""

    def __init__(self, schema_path):
        import jsonschema

        with open(schema_path, encoding="utf-8") as f:
            schema = json.load(f)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        self._validator = cls(schema)

    def errors(self, payload) -> str | None:
        errs = sorted(self._validator.iter_errors(payload), key=lambda e: list(e.path))
        if errs:
            return f"schema: {errs[0].message}"
        return None


EXIT_OF_ANSWER = {
    "yes": 0, "valid": 0, "ok": 0, "chain": 0,
    "no": 1, "invalid": 1, "not-chain": 1, "not-bipartite": 1,
    "budget-exceeded": 3,
}


def check_cli(outcome, expect, schema: SchemaCheck):
    """Check one CLI outcome (exit, stdout, stderr) against an expectation.

    expect: {"exit": code or None, "error": bool, "fields": {...}, "absent": [...],
             "verify": fn(payload) -> str|None}
    Returns None or the reason the operation failed.
    """
    code, out, err = outcome
    if "Traceback" in err:
        return "traceback on stderr"
    if expect["exit"] is not None and code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect.get("error"):
        if out or not err.startswith("error:"):
            return "error exit without an 'error:' message on stderr only"
        return None
    lines = out.splitlines()
    if len(lines) != 1:
        return f"--json printed {len(lines)} lines"
    try:
        payload = json.loads(lines[0])
    except ValueError as e:
        return f"stdout is not JSON: {e}"
    bad = schema.errors(payload)
    if bad:
        return bad
    if EXIT_OF_ANSWER[payload["answer"]] != code:
        return f"answer {payload['answer']} with exit code {code}"
    for key, want in expect.get("fields", {}).items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)!r}, expected {want!r}"
    for key in expect.get("absent", ()):
        if key in payload:
            return f"unexpected key {key!r}"
    verify = expect.get("verify")
    if verify is not None:
        return verify(payload)
    return None
