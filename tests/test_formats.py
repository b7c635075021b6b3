"""The four file formats share one layout: a table of rejected inputs, a
check of the edge-list readers against a plain reference reader, and a fuzz
test that the readers and the CLI fail only in the documented ways. Plain
edge lists are read in bulk, which must agree with the line reader."""

import json
import random
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rolecolor import (
    Graph,
    GraphFormatError,
    RoleGraph,
    emit_coloring,
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_role_graph,
)
from rolecolor.cli import run
from rolecolor.graph import _SLICE, _read_edge_lines, _read_plain_edges
from generators import random_graph
from naive import naive_parse_graph, naive_parse_role_graph

PARSERS = {
    "graph": parse_graph,
    "role": parse_role_graph,
    "hypergraph": parse_hypergraph,
    "coloring": parse_coloring,
}

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "cli-output.schema.json").read_text()
)

# (format, text, message fragment, line of the rejected record or None)
REJECTED = [
    ("graph", "", "missing header", None),
    ("graph", "3\n", "header must be two", 1),
    ("graph", "3 1 0\n0 1\n", "header must be two", 1),
    ("graph", "-1 0\n", "non-negative", 1),
    ("graph", "3 -1\n", "non-negative", 1),
    ("graph", "3 x\n", "integers", 1),
    ("graph", "3 1\n0 x\n", "integers", 2),
    ("graph", "3 1\n0 1 2\n", "two integers", 2),
    ("graph", "3 1\n0 9\n", "out of range", 2),
    ("graph", "3 1\n-1 0\n", "out of range", 2),
    ("graph", "3 1\n1 1\n", "self-loop", 2),
    ("graph", "3 2\n0 1\n1 0\n", "duplicate", 3),
    ("graph", "3 2\n0 1\n", "declared 2", None),
    ("graph", "3 1\n0 1\n1 2\n", "declared 1", None),
    ("role", "", "missing header", None),
    ("role", "-1 0\n", "non-negative", 1),
    ("role", "2 2\n1 2\n2 1\n", "duplicate", 3),
    ("role", "2 2\n1 1\n1 1\n", "duplicate", 3),
    # a repeat mid-file is reported at its own line, not after the last record
    ("role", "3 4\n1 2\n1 2\n2 3\n1 3\n", r"duplicate edge \(1,2\)", 3),
    ("role", "3 4\n1 2\n2 1\n2 3\n1 3\n", r"duplicate edge \(2,1\)", 3),
    ("graph", "4 4\n0 1\n2 3\n1 0\n0 2\n", r"duplicate edge \(1,0\)", 4),
    ("role", "2 1\n0 1\n", "out of range", 2),
    ("role", "2 1\n1\n", "two integers", 2),
    ("role", "2 2\n1 2\n", "declared 2", None),
    ("hypergraph", "", "missing header", None),
    ("hypergraph", "-2 0\n", "non-negative", 1),
    ("hypergraph", "1 1\n0\n", "empty hyperedge", 2),
    ("hypergraph", "3 1\n3 0 1\n", "t v1", 2),
    ("hypergraph", "3 1\n3 0 1 1\n", "repeated", 2),
    ("hypergraph", "3 1\n2 0 3\n", "out of range", 2),
    ("hypergraph", "3 1\n2 0 a\n", "integers", 2),
    ("hypergraph", "3 2\n2 0 1\n", "declared 2", None),
    ("graph", "1000001 0\n", "above the limit", 1),
    ("role", "1000001 0\n", "above the limit", 1),
    ("hypergraph", "1000001 0\n", "above the limit", 1),
    ("coloring", "", "missing coloring line", None),
    ("coloring", "1 2\n2 1\n", "single line", 2),
    ("coloring", "1 a 2\n", "integers", 1),
    ("coloring", "1 0 2\n", "outside", 1),
    ("coloring", "1 1000001 2\n", "above the limit", 1),
    # comments and blank lines are skipped, but still counted as lines
    ("graph", "# c\n\n3 1\n  # indented\n\n1 1\n", "self-loop", 6),
    ("role", "# c\n\n2 1\n  # indented\n\n1 3\n", "out of range", 6),
    ("hypergraph", "# c\n\n3 1\n  # indented\n\n2 1 1\n", "repeated", 6),
    ("coloring", "# c\n\n1 2\n  # indented\n\n2 1\n", "single line", 6),
    ("graph", "# c\n\n", "missing header", None),
    # only \n, \r\n and \r end a line: \f and \x85 are whitespace inside one
    ("graph", "3 3\n0 1\f\n1 2\n1 2\n", r"duplicate edge \(1,2\)", 4),
    ("graph", "3 3\n0 1\x85\n1 2\n1 2\n", r"duplicate edge \(1,2\)", 4),
    ("coloring", "# c\n\n", "missing coloring line", None),
]


@pytest.mark.parametrize("fmt, text, fragment, line", REJECTED)
def test_rejected(fmt, text, fragment, line):
    with pytest.raises(GraphFormatError, match=fragment) as err:
        PARSERS[fmt](text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: " if line else fragment)


def test_header_count_limit_is_inclusive():
    # a hypergraph allocates nothing per vertex, so the limit itself is cheap to read
    assert parse_hypergraph("1000000 0\n").n == 10**6


def test_coloring_color_limit_is_inclusive():
    # checks allocate per color, so k and every color stay within the header limit
    assert parse_coloring("1 1000000\n").k == 10**6
    assert parse_coloring("1 2\n", 10**6).k == 10**6
    with pytest.raises(ValueError, match="1..1000001 is above the limit"):
        parse_coloring("1 2\n", 10**6 + 1)


@pytest.mark.parametrize("k, message", [(0, "k must be positive"), (10**6 + 1, "above the limit")])
def test_coloring_bad_k_is_refused_before_the_text(k, message):
    # the fault is the caller's k, so it is a plain ValueError with no line, even for bad text
    with pytest.raises(ValueError, match=message) as e:
        parse_coloring("not a coloring\n", k)
    assert not isinstance(e.value, GraphFormatError)


@pytest.mark.parametrize(
    "fmt, plain",
    [
        ("graph", "3 2\n0 2\n1 2\n"),
        ("role", "2 2\n1 1\n1 2\n"),
        ("hypergraph", "3 2\n3 0 1 2\n2 0 2\n"),
        ("coloring", "1 2 2 1\n"),
    ],
)
def test_comments_and_blank_lines_are_skipped(fmt, plain):
    text = "# head\n\n" + plain.replace("\n", "\n \t# note\n\n", 1)
    show = emit_coloring if fmt == "coloring" else lambda x: x.to_text()
    assert show(PARSERS[fmt](text)) == show(PARSERS[fmt](plain))


# Edge-list texts with several faults each. Most ends lie in 1..n-1, valid
# for both the graph ids 0..n-1 and the role ids 1..n, so loops and repeated
# or reversed edges are common; the others are 0, n or outside both ranges.
BAD_RECORDS = ["0 x", "1.5 2", "+1 2", "1_0 0", "\u0663 1", "0 1 z"]
SKIPPED = ["# 0 1", "#", "  # note", "", "   ", "\t"]


@st.composite
def edge_list_texts(draw):
    n = draw(st.sampled_from([3, 4, 5, 2, 6, 1, 0]))
    inside = st.integers(1, max(n - 1, 1)).map(str)
    end = st.one_of(inside, inside, inside, inside, st.sampled_from(["0", str(n), "-1", "9"]))
    edge = st.tuples(end, end)
    record = st.one_of(
        edge.map(" ".join),
        edge.map(" ".join),
        edge.map(lambda e: f"\t{e[1]}\t {e[0]}  "),
        st.lists(end, min_size=1, max_size=3).map(" ".join),
        st.sampled_from(BAD_RECORDS),
        st.sampled_from(SKIPPED),
    )
    body = draw(st.lists(record, max_size=8))
    records = sum(1 for r in body if r.split() and r.split()[0][0] != "#")
    m = records + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = draw(
        st.sampled_from(
            [f"{n} {m}"] * 6 + ["", "# head", f"{n}", f"{n} {m} 0", f"-1 {m}", f"{n} x", "1000001 0"]
        )
    )
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(body) + 1, max_size=len(body) + 1))
    return "".join(line + end for line, end in zip([header, *body], ends))


def outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as e:
        return ("error", str(e), e.line)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=edge_list_texts())
def test_edge_list_readers_match_the_reference(text):
    g = outcome(parse_graph, text)
    if isinstance(g, Graph):
        assert g.m == len(g.edges)
        g = (g.n, g.edges)
    assert g == outcome(naive_parse_graph, text)
    r = outcome(parse_role_graph, text)
    if isinstance(r, RoleGraph):
        r = (r.colors, r.edges)
    assert r == outcome(naive_parse_role_graph, text)


# Counts and ids stay small: a header such as "1000000 0" is valid and
# allocates that many adjacency sets. Small ids are drawn most often, so
# that many texts get past the header and reach the record checks.
SMALL = st.integers(-1, 4).map(str)
TOKEN = st.one_of(
    SMALL,
    SMALL,
    st.integers(-2, 64).map(str),
    st.sampled_from(["#", "#1", "+3", "1.5", "0x1", "1_0", "٣"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=3),
)
LINE = st.lists(TOKEN, max_size=4).map(" ".join)
HEADER = st.one_of(st.tuples(SMALL, SMALL).map(" ".join), LINE)
TEXT = st.tuples(HEADER, st.lists(LINE, max_size=7)).map(lambda t: "\n".join([t[0], *t[1]]))


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=TEXT)
def test_fuzzed_input_fails_only_as_documented(text, tmp_path, capsys):
    for parse in PARSERS.values():
        try:
            parse(text)
        except ValueError:
            pass
    fuzz = tmp_path / "fuzz.txt"
    fuzz.write_text(text, encoding="utf-8")
    c4 = tmp_path / "c4.graph"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    for argv in (
        ["recognize", fuzz],
        ["verify", c4, fuzz, "-k", "2"],
        ["rrole", c4, fuzz, "--budget", "1000"],
        ["hgcolor", fuzz, "-k", "2", "--budget", "1000"],
    ):
        code = run(["--json", *map(str, argv)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error:") and not out
        else:
            jsonschema.validate(json.loads(out), SCHEMA)


def plain_edge_list(rng, n, m):
    """m distinct edges on n vertices, in random order and direction."""
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return "".join(f"{line}\n" for line in [f"{n} {m}", *lines])


BIG = plain_edge_list(random.Random(3), 700, 20000)  # longer than one bulk slice


@pytest.mark.parametrize(
    "text",
    [
        "0 0\n",
        "3 0\n",
        "2 1\n1 0\n",
        random_graph(random.Random(1), 9, 0.5).to_text(),
        random_graph(random.Random(2), 40, 0.3).to_text(),
        BIG,
    ],
    ids=["n0", "edgeless", "one-edge", "n9", "n40", "big"],
)
@pytest.mark.parametrize("ending, last", [("\n", "\n"), ("\n", ""), ("\r\n", "\r\n")], ids=["lf", "no-last-lf", "crlf"])
def test_bulk_reader_takes_plain_edge_lists(text, ending, last):
    text = text.rstrip("\n").replace("\n", ending) + last
    g = _read_plain_edges(text)
    want = _read_edge_lines(text)
    assert g is not None and g == want and g.m == want.m


# A fault or another layout on the first line of the second slice: the line
# reader must still decide, with the same graph or the same message and line.
CUT = BIG.index("\n", BIG.index("\n") + 1 + _SLICE) + 1
NEXT = BIG.index("\n", CUT) + 1
AFTER = BIG.index("\n", NEXT) + 1
A, B = BIG[CUT:NEXT].split()
C, D = BIG[NEXT:AFTER].split()
FIRST_EDGE = BIG.splitlines()[1].split()
ABSENT = next(f"0 {v}" for v in range(1, 700) if f"\n0 {v}\n" not in BIG and f"\n{v} 0\n" not in BIG)

FAULTS = {
    "token": "0 x\n",
    "float": "1.5 2\n",
    "range": "0 700\n",
    "negative": "-1 2\n",
    "loop": "5 5\n",
    "duplicate": f"{FIRST_EDGE[1]} {FIRST_EDGE[0]}\n",  # the first edge again, reversed
    "short": "",  # one record too few
    "over": f"{A} {B}\n{ABSENT}\n",  # one record too many
    "over-by-a-repeat": f"{A} {B}\n{B} {A}\n",  # one too many, and still m distinct edges
    "repeat": f"{A} {B}\n{A} {B}\n",  # one too many, the same edge the same way twice
    "repeat-in-place": f"{FIRST_EDGE[0]} {FIRST_EDGE[1]}\n",  # the first edge again, the same way: m records
    "three": "0 1 2\n",
    "long": "1" * 5000 + " 0\n",  # more digits than int() converts, 4300 by default
}
LAYOUTS = {
    "comment": f"# note\n{A} {B}\n",
    "blank": f"\n{A} {B}\n",
    "indent": f" {A} {B}\n",
    "tab": f"{A}\t{B}\n",
    "two-spaces": f"{A}  {B}\n",
    "plus": f"+{A} {B}\n",
    "leading-zero": f"0{A} {B}\n",
}
TEXTS = {name: BIG[:CUT] + lines + BIG[NEXT:] for name, lines in {**FAULTS, **LAYOUTS}.items()}
# "A B C" and "D" replace "A B" and "C D": the record, space and token totals still match
TEXTS["three-then-one"] = BIG[:CUT] + f"{A} {B} {C}\n{D}\n" + BIG[AFTER:]


@pytest.mark.parametrize("name", TEXTS)
def test_bulk_reader_leaves_other_texts_to_the_line_reader(name):
    text = TEXTS[name]
    assert _read_plain_edges(text) is None
    want = outcome(_read_edge_lines, text)
    assert isinstance(want, Graph) == (name in LAYOUTS)
    assert outcome(parse_graph, text) == want


def test_bulk_graph_shares_one_int_per_vertex():
    # so do the line reader's graph and Graph(n, edges), although their endpoints are new ints
    rows = [tuple(map(int, line.split())) for line in BIG.splitlines()[1:]]
    for g in (parse_graph(BIG), parse_graph("# c\n" + BIG), Graph(700, rows)):
        assert len({id(x) for a in g.adj for x in a}) <= g.n


def test_isolated_vertices_share_one_empty_set():
    graphs = []
    for read in (_read_plain_edges, _read_edge_lines):
        tracemalloc.start()
        try:
            graphs.append(read("100000 0\n"))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 4 * 2**20, read.__name__  # an empty frozenset per vertex keeps about 22 MB
    assert graphs[0] == graphs[1]


def test_bulk_reader_holds_no_copy_of_the_whole_text():
    # K_{400,500}: 2e5 lines, 1.6 MB of text. The adjacency lists hold about
    # 3.5 MB until they become tuples; a copy of the whole text adds 1.6 MB more.
    text = "900 200000\n" + "".join(f"{u} {v}\n" for u in range(400) for v in range(400, 900))
    tracemalloc.start()
    try:
        g = _read_plain_edges(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g is not None and g.m == 200000
    assert peak - kept < 4.25 * 2**20


def test_adjacency_keeps_one_slot_per_neighbor():
    # K_{400,500}: 4e5 neighbor entries keep about 3.2 MB as tuples; a set or
    # frozenset per vertex keeps over 14 MB.
    text = "900 200000\n" + "".join(f"{u} {v}\n" for u in range(400) for v in range(400, 900))
    edges = [(u, v) for u in range(400) for v in range(400, 900)]
    commented = "# c\n" + text  # the line reader's int() makes a new int per token
    for build in (lambda: _read_plain_edges(text), lambda: Graph(900, edges), lambda: parse_graph(commented)):
        tracemalloc.start()
        try:
            g = build()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g is not None and g.m == 200000
        assert kept < 6 * 2**20


def test_graph_equality_ignores_edge_order():
    # one edge set, lines shuffled and some pairs reversed, read three ways
    text = plain_edge_list(random.Random(6), 60, 400)
    rows = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
    ordered = "60 400\n" + "".join(f"{min(e)} {max(e)}\n" for e in sorted(rows, key=sorted))
    assert _read_plain_edges("# c\n" + text) is None
    graphs = [
        _read_plain_edges(text),
        parse_graph("# c\n" + text),  # the comment sends it to the line reader
        Graph(60, sorted(rows)),
        _read_plain_edges(ordered),
    ]
    assert graphs[0].adj != graphs[3].adj  # neighbors are kept in the order the edges appear
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0]) and g.m == 400
