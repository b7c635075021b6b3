import json
import time
from pathlib import Path

import jsonschema
import pytest

from rolecolor import Graph, Hypergraph, RoleGraph
from rolecolor.cli import run

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "cli-output.schema.json").read_text()
)


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture files and return a path lookup."""

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "p4": put("p4.graph", Graph(4, [(0, 1), (1, 2), (2, 3)]).to_text()),
        "c4": put("c4.graph", Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).to_text()),
        "k2": put("k2.graph", Graph(2, [(0, 1)]).to_text()),
        "tri": put("tri.graph", Graph(3, [(0, 1), (1, 2), (0, 2)]).to_text()),
        "good": put("good.col", "1 2 1 2\n"),
        "bad": put("bad.col", "1 1 1 2\n"),
        "r0": put("r0.role", RoleGraph(2, [(1, 1), (1, 2)]).to_text()),
        "edge": put("edge.role", RoleGraph(2, [(1, 2)]).to_text()),
        "empty": put("empty.role", "0 0\n"),
        "hg1": put("one.hg", Hypergraph(3, [{0, 1, 2}]).to_text()),
        "dir": str(tmp_path),
    }


def run_json(capsys, argv):
    code = run(["--json", *argv])
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestVerify:
    def test_valid(self, files, capsys):
        code, payload = run_json(capsys, ["verify", files["c4"], files["good"], "-k", "2"])
        assert code == 0 and payload["answer"] == "valid"

    def test_invalid_reports_violation(self, files, capsys):
        code, payload = run_json(capsys, ["verify", files["c4"], files["bad"], "-k", "2"])
        assert code == 1
        assert payload["answer"] == "invalid"
        assert payload["violation"]["kind"] == "NeighborhoodMismatch"

    def test_text_mode(self, files, capsys):
        assert run(["verify", files["c4"], files["good"], "-k", "2"]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_missing_file_is_usage_error(self, files, capsys):
        assert run(["verify", files["c4"], files["dir"] + "/nope.col", "-k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRolegraph:
    def test_extraction(self, files, capsys):
        code, payload = run_json(capsys, ["rolegraph", files["c4"], files["good"]])
        assert code == 0
        assert payload["rolegraph"] == {"colors": 2, "edges": [[1, 2]]}


class TestColorLimit:
    # checks allocate per color, so a k or a color above 10**6 is refused at once
    def test_k_at_the_limit_is_checked(self, files, capsys):
        code, payload = run_json(capsys, ["verify", files["c4"], files["good"], "-k", str(10**6)])
        assert code == 1 and payload["violation"]["kind"] == "NotSurjective"

    # nothing is kept or printed per unused color, so a range of 10**6 colors is cheap
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "c4", "good", "-k", str(10**6)], 1),
            (["rolegraph", "c4", "top"], 0),
        ],
    )
    def test_at_the_limit_is_fast_and_short(self, files, tmp_path, capsys, json_flag, argv, code):
        files["top"] = str(tmp_path / "top.col")
        Path(files["top"]).write_text(f"1 2 1 {10**6}\n")
        start = time.perf_counter()
        assert run([*json_flag, *(files.get(a, a) for a in argv)]) == code
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024
        if json_flag:
            jsonschema.validate(json.loads(out), SCHEMA)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "c4", "good", "-k", str(10**6 + 1)],
            ["solve", "c4", "-k", str(10**6 + 1), "--check-certificate", "good"],
            ["rolegraph", "c4", "huge"],
        ],
    )
    def test_above_the_limit_is_usage_error(self, files, tmp_path, capsys, argv):
        files["huge"] = str(tmp_path / "huge.col")
        Path(files["huge"]).write_text(f"1 2 1 {10**6 + 1}\n")
        start = time.perf_counter()
        assert run([files.get(a, a) for a in argv]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the limit" in err


class TestSolve:
    def test_p4_k3_no(self, files, capsys):
        code, payload = run_json(capsys, ["solve", files["p4"], "-k", "3"])
        assert code == 1 and payload["answer"] == "no"

    def test_huge_k_is_no_at_once(self, files, capsys):
        start = time.perf_counter()
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", str(10**9)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and payload["answer"] == "no"

    def test_c4_k2_witness(self, files, capsys):
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", "2"])
        assert code == 0 and payload["answer"] == "yes"
        # lexicographically first restricted-growth witness
        assert payload["certificate"] == [1, 1, 2, 2]

    def test_count_mode(self, files, capsys):
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", "2", "--mode", "count"])
        assert code == 0 and payload["count"] == 3

    def test_budget_exit_code(self, files, capsys):
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", "2", "--budget", "1"])
        assert code == 3 and payload["answer"] == "budget-exceeded"

    def test_check_certificate_matches_verify(self, files, capsys):
        # same exit code, stdout and stderr, for valid, invalid and unreadable colorings
        for flags in ([], ["--json"]):
            for col, code in (("good", 0), ("bad", 1), ("dir", 2)):
                a = run([*flags, "solve", files["c4"], "-k", "2", "--check-certificate", files[col]])
                a_out = capsys.readouterr()
                b = run([*flags, "verify", files["c4"], files[col], "-k", "2"])
                assert (a, a_out) == (b, capsys.readouterr()) and a == code

    def test_deep_path(self, files, tmp_path, capsys):
        # deeper than the interpreter's recursion limit
        p = tmp_path / "path.graph"
        p.write_text(Graph(1500, [(i, i + 1) for i in range(1499)]).to_text())
        code, payload = run_json(capsys, ["solve", str(p), "-k", "2", "--budget", "100000"])
        assert code == 0 and payload["answer"] == "yes"
        code, payload = run_json(capsys, ["rrole", str(p), files["edge"], "--budget", "100000"])
        assert code == 0 and payload["answer"] == "yes"

    def test_deterministic_json(self, files, capsys):
        run(["--json", "solve", files["c4"], "-k", "2"])
        first = capsys.readouterr().out
        run(["--json", "solve", files["c4"], "-k", "2"])
        assert capsys.readouterr().out == first


class TestSearchOrder:
    @pytest.mark.parametrize(
        "cmd, mode, order",
        [
            ("solve", "decision", "closing"),
            ("solve", "witness", "id"),
            ("solve", "count", "closing"),
            ("rrole", "decision", "id"),
            ("rrole", "witness", "id"),
            ("rrole", "count", "closing"),
        ],
    )
    def test_stats_name_the_order(self, files, capsys, cmd, mode, order):
        target = ["-k", "2"] if cmd == "solve" else [files["edge"]]
        code, payload = run_json(capsys, [cmd, files["c4"], *target, "--mode", mode])
        assert code == 0 and payload["stats"]["order"] == order


class TestLeavesRejected:
    @pytest.mark.parametrize("cmd", ["solve", "rrole"])
    @pytest.mark.parametrize("mode", ["decision", "witness", "count"])
    def test_stats_count_rejected_leaves(self, files, capsys, cmd, mode):
        target = ["-k", "2"] if cmd == "solve" else [files["edge"]]
        code, payload = run_json(capsys, [cmd, files["c4"], *target, "--mode", mode])
        assert code == 0 and payload["stats"]["leaves_rejected"] == 0

    def test_schema_documents_search_stats(self):
        for stats in ({"nodes": -1}, {"order": "random"}, {"leaves_rejected": "0"}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"answer": "yes", "stats": stats}, SCHEMA)


class TestRRole:
    def test_c4_onto_edge(self, files, capsys):
        code, payload = run_json(capsys, ["rrole", files["c4"], files["edge"]])
        assert code == 0 and payload["certificate"] == [1, 2, 1, 2]

    def test_k2_onto_looped_edge_no(self, files, capsys):
        code, payload = run_json(capsys, ["rrole", files["k2"], files["r0"]])
        assert code == 1 and payload["answer"] == "no"


class TestChain3:
    def test_c4_yes_with_case(self, files, capsys):
        code, payload = run_json(capsys, ["chain3", files["c4"]])
        assert code == 0
        assert payload["answer"] == "yes"
        assert payload["case"] == "TwoUniversal"
        assert "certificate" in payload

    def test_p4_no(self, files, capsys):
        code, payload = run_json(capsys, ["chain3", files["p4"]])
        assert code == 1 and payload["case"] == "None"

    def test_non_bipartite_is_usage_error(self, files, capsys):
        assert run(["chain3", files["tri"]]) == 2
        assert "odd closed walk" in capsys.readouterr().err


class TestRecognize:
    def test_chain(self, files, capsys):
        code, payload = run_json(capsys, ["recognize", files["c4"]])
        assert code == 0
        rec = payload["recognition"]
        assert rec["bipartite"] and rec["chain"]
        assert rec["universalX"] == rec["partX"]

    def test_not_bipartite(self, files, capsys):
        code, payload = run_json(capsys, ["recognize", files["tri"]])
        assert code == 1 and payload["answer"] == "not-bipartite"
        assert payload["recognition"]["odd_walk"]

    def test_not_chain(self, tmp_path, capsys):
        p = tmp_path / "tk2.graph"
        p.write_text(Graph(4, [(0, 1), (2, 3)]).to_text())
        code, payload = run_json(capsys, ["recognize", str(p)])
        assert code == 1 and payload["answer"] == "not-chain"
        assert len(payload["recognition"]["witness_2k2"]) == 4


class TestReduce:
    def test_k3_pipeline(self, files, capsys, tmp_path):
        out = str(tmp_path / "gadget.graph")
        assert run(["reduce", "k3", files["hg1"], "-o", out]) == 0
        capsys.readouterr()
        assert run(["solve", out, "-k", "3"]) == 0

    def test_k3_stdout_tags(self, files, capsys):
        assert run(["reduce", "k3", files["hg1"]]) == 0
        out = capsys.readouterr().out
        assert "# tag 0 Q[0]" in out and "# tag 3 S[0]" in out

    def test_kpath_requires_k(self, files, capsys):
        assert run(["reduce", "kpath", files["hg1"]]) == 2
        assert "requires --k" in capsys.readouterr().err

    def test_almost_requires_pivot(self, files, capsys):
        assert run(["reduce", "almost", files["c4"]]) == 2
        capsys.readouterr()
        code, payload = run_json(capsys, ["reduce", "almost", files["c4"], "--pivot", "0"])
        assert code == 0
        assert payload["gadget"] == {"kind": "almost", "n": 9, "m": 11, "k": 2, "pivot": 0}

    def test_gadget_json(self, files, capsys):
        code, payload = run_json(capsys, ["reduce", "k4", files["hg1"]])
        assert code == 0
        assert payload["gadget"]["kind"] == "k4" and payload["gadget"]["n"] == 5

    def test_unwritable_output_is_usage_error(self, files, capsys):
        assert run(["reduce", "k3", files["hg1"], "-o", files["dir"] + "/missing/x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestHgcolor:
    def test_single_edge(self, files, capsys):
        code, payload = run_json(capsys, ["hgcolor", files["hg1"], "-k", "2"])
        assert code == 0 and payload["certificate"] == [1, 1, 2]

    def test_k1_no(self, files, capsys):
        assert run(["hgcolor", files["hg1"], "-k", "1"]) == 1

    def test_huge_k_is_no_at_once(self, files, capsys):
        start = time.perf_counter()
        code, payload = run_json(capsys, ["hgcolor", files["hg1"], "-k", str(10**6)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and payload["stats"]["nodes"] == 0


class TestUsage:
    def test_no_value_carries_over_between_runs(self, files, capsys):
        # the parser is built once per process; each run starts from the defaults
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", "2", "--mode", "count", "--budget", "1"])
        assert (code, payload["answer"]) == (3, "budget-exceeded")
        assert run(["rrole", files["c4"], files["edge"]]) == 0
        assert capsys.readouterr().out.startswith("yes\n")  # text, not JSON
        code, payload = run_json(capsys, ["solve", files["c4"], "-k", "2"])
        assert code == 0 and payload["certificate"] == [1, 1, 2, 2]  # --mode witness, default budget
        assert "count" not in payload

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_threads(self, files, capsys):
        assert run(["--threads", "0", "solve", files["c4"], "-k", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "c4", "-k", "0"],
            ["rrole", "c4", "empty"],
            ["solve", "c4", "-k", "2", "--budget", "-1"],
            ["rrole", "c4", "edge", "--budget", "-1"],
            ["hgcolor", "hg1", "-k", "2", "--budget", "-1"],
            ["hgcolor", "hg1", "-k", "0"],
            ["reduce", "kpath", "hg1", "--k", "4"],
            ["reduce", "almost", "tri", "--pivot", "0"],
        ],
    )
    def test_solver_argument_errors(self, files, capsys, argv):
        assert run([files.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "cmd, text",
        [
            ("rrole", "-1 0\n"),
            ("rrole", "2 2\n1 2\n2 1\n"),
            ("hgcolor", "-2 0\n"),
            ("hgcolor", "1 1\n0\n"),
            ("recognize", "1000001 0\n"),
            ("rrole", "1000001 0\n"),
            ("hgcolor", "1000001 0\n"),
            ("verify", "1 2 x 2\n"),
            ("rolegraph", "1 2 x 2\n"),
            ("solve", "1 2 x 2\n"),
            ("reduce", "1 1\n0\n"),
        ],
    )
    def test_malformed_file_is_usage_error(self, files, tmp_path, capsys, cmd, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        argv = {
            "recognize": ["recognize", str(p)],
            "rrole": ["rrole", files["c4"], str(p)],
            "hgcolor": ["hgcolor", str(p), "-k", "2"],
            "verify": ["verify", files["c4"], str(p), "-k", "2"],
            "rolegraph": ["rolegraph", files["c4"], str(p)],
            "solve": ["solve", files["c4"], "-k", "2", "--check-certificate", str(p)],
            "reduce": ["reduce", "k3", str(p)],
        }[cmd]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: line ") and "Traceback" not in err

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bin.graph"
        p.write_bytes(b"\xff\xfe 1\n")
        assert run(["recognize", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_parse_error_has_prefix(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("3 1\n0 9\n")
        assert run(["solve", str(p), "-k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")
