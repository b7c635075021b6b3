"""The four file formats share one layout: a table of rejected inputs, a
check of the edge-list readers against a plain reference reader, and a fuzz
test that the readers and the CLI fail only in the documented ways."""

import json
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
