"""rolecolor command line front end.

Exit codes: 0 = yes/valid, 1 = no/invalid, 2 = usage/parse/precondition error,
3 = search budget exceeded. With --json, a flag of `rolecolor` itself that
comes before the subcommand (`rolecolor --json solve ...`), a single JSON
object is printed on stdout; errors go to stderr. `run` is the one place that
maps a refused input to exit 2: a fault in an input file reads "error: <path>:
line N: ...", and a library precondition (a ValueError) reads "error:
<message>". A command line that argparse refuses (an unknown, misplaced or
missing flag) prints the usage line of the command or subcommand that refuses
it, then "rolecolor ...: error: ...", also with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chain3 as chain3_mod
from . import reductions
from .graph import GraphFormatError, bipartition, chain_structure, is_chain, parse_graph
from .roles import (
    emit_coloring,
    extract_role_graph,
    parse_coloring,
    parse_role_graph,
    verify_k_role,
)
from .solver import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    YES,
    solve_k_role,
    solve_r_role,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _load(path: str, parse):
    """Read the file at path and parse it; a fault in the file names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return parse(text)
    except OSError as e:
        raise ValueError(str(e))
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    except GraphFormatError as e:
        raise ValueError(f"{path}: {e}")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text)


def _report(args, res) -> int:
    """Print a search result and return its exit code."""
    payload = {
        "answer": res.status,
        "stats": {"nodes": res.nodes, "order": res.order, "leaves_rejected": res.leaves_rejected},
    }
    lines = [res.status]
    if res.certificate is not None:
        payload["certificate"] = list(res.certificate.assignment)
        lines.append(emit_coloring(res.certificate).strip())
    if res.count is not None:
        payload["count"] = res.count
        lines.append(f"count {res.count}")
    _emit(args, payload, "\n".join(lines) + "\n")
    if res.status == BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_YES if res.status == YES else EXIT_NO


def _cmd_verify(args) -> int:
    g = _load(args.graph, parse_graph)
    bad = verify_k_role(g, _load(args.coloring, lambda text: parse_coloring(text, args.k)))
    if bad is None:
        _emit(args, {"answer": "valid", "stats": {}}, "valid\n")
        return EXIT_YES
    _emit(
        args,
        {"answer": "invalid", "violation": {"kind": bad.kind, "detail": bad.describe()}, "stats": {}},
        f"invalid: {bad.describe()}\n",
    )
    return EXIT_NO


def _cmd_rolegraph(args) -> int:
    g = _load(args.graph, parse_graph)
    r = extract_role_graph(g, _load(args.coloring, parse_coloring))
    _emit(
        args,
        {
            "answer": "ok",
            "rolegraph": {"colors": r.colors, "edges": sorted(map(list, r.edges))},
            "stats": {},
        },
        r.to_text(),
    )
    return EXIT_YES


def _cmd_solve(args) -> int:
    g = _load(args.graph, parse_graph)
    return _report(args, solve_k_role(g, args.k, mode=args.mode, budget=args.budget))


def _cmd_rrole(args) -> int:
    g = _load(args.graph, parse_graph)
    r = _load(args.rolegraph, parse_role_graph)
    return _report(args, solve_r_role(g, r, mode=args.mode, budget=args.budget))


def _cmd_chain3(args) -> int:
    dec = chain3_mod.decide_chain3(_load(args.graph, parse_graph))
    payload = {
        "answer": "yes" if dec.answer else "no",
        "case": dec.caseId,
        "stats": {"fallback": dec.used_fallback},
    }
    text = f"{payload['answer']}\ncase {dec.caseId}"
    if dec.subCase:
        payload["subcase"] = dec.subCase
        text += f" ({dec.subCase})"
    text += "\n"
    if dec.certificate is not None:
        payload["certificate"] = list(dec.certificate.assignment)
        text += emit_coloring(dec.certificate)
    _emit(args, payload, text)
    return EXIT_YES if dec.answer else EXIT_NO


def _cmd_recognize(args) -> int:
    g = _load(args.graph, parse_graph)
    bp = bipartition(g)
    rec: dict = {"n": g.n, "m": g.m}
    if not bp:
        rec["bipartite"] = False
        rec["odd_walk"] = list(bp.odd_walk)
        _emit(
            args,
            {"answer": "not-bipartite", "recognition": rec, "stats": {}},
            "not bipartite\nodd closed walk: " + " ".join(map(str, bp.odd_walk)) + "\n",
        )
        return EXIT_NO
    rec["bipartite"] = True
    rec["partX"] = sorted(bp.partX)
    rec["partY"] = sorted(bp.partY)
    w = is_chain(g, bp)
    if w is not True:
        rec["chain"] = False
        rec["witness_2k2"] = [w.u, w.v, w.w, w.z]
        _emit(
            args,
            {"answer": "not-chain", "recognition": rec, "stats": {}},
            f"bipartite but not chain\ninduced 2K2: ({w.u},{w.w}) ({w.v},{w.z})\n",
        )
        return EXIT_NO
    cs = chain_structure(g, bp)
    rec["chain"] = True
    rec["universalX"] = sorted(cs.universalX)
    rec["universalY"] = sorted(cs.universalY)
    rec["pendantX"] = sorted(cs.pendantX)
    rec["pendantY"] = sorted(cs.pendantY)
    text = (
        "bipartite chain graph\n"
        f"X: {rec['partX']}\nY: {rec['partY']}\n"
        f"universal X: {rec['universalX']}\nuniversal Y: {rec['universalY']}\n"
        f"pendant X: {rec['pendantX']}\npendant Y: {rec['pendantY']}\n"
    )
    _emit(args, {"answer": "chain", "recognition": rec, "stats": {}}, text)
    return EXIT_YES


def _cmd_reduce(args) -> int:
    if args.gadget == "almost":
        gg = reductions.build_almost_bipartite(_load(args.input, parse_graph), args.pivot)
    else:
        h = _load(args.input, reductions.parse_hypergraph)
        if args.gadget == "k3":
            gg = reductions.build_k3_instance(h)
        elif args.gadget == "k4":
            gg = reductions.build_k4_instance(h)
        else:
            gg = reductions.build_kpath_instance(h, args.k)
    text = gg.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise ValueError(str(e))
        text = f"wrote {gg.graph.n} vertices, {gg.graph.m} edges to {args.output}\n"
    payload = {
        "answer": "ok",
        "gadget": {
            "kind": gg.kind,
            "n": gg.graph.n,
            "m": gg.graph.m,
            "k": gg.k,
            "pivot": gg.pivot,
        },
        "stats": {},
    }
    _emit(args, payload, text)
    return EXIT_YES


def _cmd_hgcolor(args) -> int:
    h = _load(args.hypergraph, reductions.parse_hypergraph)
    res = reductions.hypergraph_k_colorable(
        h, args.k, mode=args.mode, budget=args.budget, require_surjective=not args.no_surjective
    )
    return _report(args, res)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not take itself, so
    the error shows the subcommand's usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache  # built once per process: parsing keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rolecolor", description=__doc__)
    ap.add_argument("--json", action="store_true", help="emit a single JSON object")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_SubcommandParser)
    search = argparse.ArgumentParser(add_help=False)  # flags shared by solve, rrole and hgcolor
    search.add_argument("--mode", choices=["decision", "witness", "count"], default="witness")
    search.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="most candidate colors to try; a raced solve or rrole search counts both its engines",
    )

    p = sub.add_parser("verify", help="check a k-role coloring")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rolegraph", help="extract the role graph of a coloring")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_rolegraph)

    p = sub.add_parser("solve", parents=[search], help="exact k-role coloring search")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("rrole", parents=[search], help="exact R-role coloring search")
    p.add_argument("graph")
    p.add_argument("rolegraph")
    p.set_defaults(func=_cmd_rrole)

    p = sub.add_parser("chain3", help="3-role decision for bipartite chain graphs")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_chain3)

    p = sub.add_parser("recognize", help="report bipartite/chain structure")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("reduce", help="build a hardness gadget instance")
    gadgets = p.add_subparsers(dest="gadget", required=True)
    gadget = argparse.ArgumentParser(add_help=False)  # arguments shared by every reduce gadget
    gadget.add_argument("input")
    gadget.add_argument("-o", "--output", help="write the gadget here instead of stdout")
    gadget.set_defaults(func=_cmd_reduce)
    gadgets.add_parser("k3", parents=[gadget], help="3-uniform hypergraph -> 3-role instance")
    gadgets.add_parser("k4", parents=[gadget], help="3-uniform hypergraph -> 4-role instance")
    p = gadgets.add_parser("kpath", parents=[gadget], help="3-uniform hypergraph -> k-role instance")
    p.add_argument("--k", type=int, required=True, help="target k (>= 5)")
    p = gadgets.add_parser("almost", parents=[gadget], help="bipartite graph -> almost-bipartite instance")
    p.add_argument("--pivot", type=int, required=True, help="pivot vertex")

    p = sub.add_parser("hgcolor", parents=[search], help="hypergraph k-coloring by backtracking")
    p.add_argument("hypergraph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--no-surjective", action="store_true", help="drop the every-color-used requirement")
    p.set_defaults(func=_cmd_hgcolor)

    return ap


def run(argv=None) -> int:
    """Run one command; the one place a refused input becomes exit 2."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as e:  # a file fault, a GraphFormatError or a library precondition
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
