"""The four file formats share one layout: a table of rejected inputs, and a
fuzz test that the readers and the CLI fail only in the documented ways."""

import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rolecolor import (
    GraphFormatError,
    emit_coloring,
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_role_graph,
)
from rolecolor.cli import run

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
