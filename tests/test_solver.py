import random
import time
import tracemalloc

import pytest

from rolecolor import (
    BudgetExceeded,
    Graph,
    RoleGraph,
    solve_k_role,
    solve_r_role,
    verify_k_role,
    verify_r_role,
)
from rolecolor import solver
from generators import chain_graph_from_degrees, random_connected_hypergraph, random_graph
from rolecolor.reductions import build_k3_instance, build_k4_instance, parse_hypergraph
from naive import (
    BareEngine,
    RescanEngine,
    enumerate_k_role,
    naive_closing_order,
    naive_k_role,
    naive_k_role_partitions,
    naive_r_role,
    one_role_decision,
)

MODES = ("decision", "witness", "count")


class TestOneRole:
    def test_edgeless_yes(self):
        assert one_role_decision(Graph(4))

    def test_no_isolated_yes(self, c4):
        assert one_role_decision(c4)

    def test_mixed_no(self):
        assert not one_role_decision(Graph(3, [(0, 1)]))

    def test_empty_graph_no(self):
        assert not one_role_decision(Graph(0))

    def test_matches_solver(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 7))
            assert one_role_decision(g) == solve_k_role(g, 1).answer


class TestSolveKRole:
    def test_p4_k3_no(self, p4):
        assert not solve_k_role(p4, 3).answer

    def test_c4_k2_witness_verifies(self, c4):
        res = solve_k_role(c4, 2, mode="witness")
        assert res.status == "yes"
        assert verify_k_role(c4, res.certificate) is None

    def test_k_above_n_is_no(self, p4):
        assert not solve_k_role(p4, 5).answer

    def test_identity_k_equals_n(self, p4):
        assert solve_k_role(p4, 4).answer

    def test_count_is_canonical(self, c4):
        # C4: partitions {02|13}, {01|23}, {03|12}, and {0123} minus non-surjective
        res = solve_k_role(c4, 2, mode="count")
        assert res.count == 3

    def test_witness_is_restricted_growth(self, c4):
        res = solve_k_role(c4, 2, mode="witness")
        a = res.certificate.assignment
        assert a[0] == 1
        assert all(c <= max(a[:i], default=0) + 1 for i, c in enumerate(a))

    def test_budget_exceeded_status(self):
        g = random_graph(random.Random(0), 12, 0.4)
        res = solve_k_role(g, 5, budget=10)
        assert res.status == "budget-exceeded"
        with pytest.raises(BudgetExceeded):
            res.answer

    def test_budget_is_exact(self):
        # a budget of exactly the nodes a search takes lets it finish; one fewer stops it
        g = random_graph(random.Random(0), 8, 0.4)
        full = solve_k_role(g, 3, mode="count")
        assert solve_k_role(g, 3, mode="count", budget=full.nodes).count == full.count
        assert solve_k_role(g, 3, mode="count", budget=full.nodes - 1).status == "budget-exceeded"

    def test_invalid_args(self, p4):
        with pytest.raises(ValueError):
            solve_k_role(p4, 0)
        with pytest.raises(ValueError):
            solve_k_role(p4, 2, mode="nope")

    def test_negative_budget_is_refused(self, p4):
        with pytest.raises(ValueError):
            solve_k_role(p4, 2, budget=-1)

    def test_huge_k_is_no_at_once(self, c4):
        # k colors need k vertices; the answer comes before any per-color state is built
        for mode in MODES:
            start = time.perf_counter()
            res = solve_k_role(c4, 10**9, mode=mode)
            assert time.perf_counter() - start < 1.0
            assert (res.status, res.nodes, res.certificate) == ("no", 0, None)
            assert res.count == (0 if mode == "count" else None)

    def test_k_above_n_answers_at_any_budget(self, p4):
        # not a search: the budget bounds search nodes only
        for mode in MODES:
            assert solve_k_role(p4, 5, mode=mode, budget=0).status == "no"
        assert solve_k_role(p4, 1, budget=0).status == "budget-exceeded"

    def test_deep_path_witness(self):
        # deeper than the interpreter's recursion limit
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        res = solve_k_role(g, 2, mode="witness", budget=10**5)
        assert res.status == "yes"
        assert verify_k_role(g, res.certificate) is None


class TestPruningNeutrality:
    def test_pruned_equals_unpruned(self, monkeypatch):
        # the same count as the walk with its rules off (BareEngine), in no more nodes
        rng = random.Random(17)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, g.n)

            def search():
                return solve_k_role(g, k, mode="count")

            pruned, plain = search(), run_with(monkeypatch, BareEngine, search)
            assert pruned.count == plain.count
            assert pruned.nodes <= plain.nodes

    def test_matches_spelled_out_baseline(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6))
            k = rng.randint(1, g.n)
            baseline = sum(1 for _ in naive_k_role_partitions(g, k))
            assert solve_k_role(g, k, mode="count").count == baseline


class TestForcedNewColor:
    """Once the vertices left are exactly as many as the unused colors, each of
    them must open a new color, so a k-role search tries no old color there."""

    def test_matches_oracle_and_unpruned(self, monkeypatch):
        # every k up to n: k near n is where the rule fires
        rng = random.Random(79)
        for _ in range(24):
            assert_every_k_matches_oracle_and_unpruned(
                monkeypatch, random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
            )

    def test_path_opens_a_color_per_vertex(self):
        # each vertex of P_n with k = n is its own class: one node per vertex
        for n in (2, 7, 40):
            g = Graph(n, [(i, i + 1) for i in range(n - 1)])
            res = solve_k_role(g, n)
            assert (res.status, res.nodes) == ("yes", n)
            res = solve_k_role(g, n, mode="witness")
            assert (res.certificate.assignment, res.nodes) == (tuple(range(1, n + 1)), n)

    def test_state_is_linear_in_size(self):
        # a counter per (vertex, color) would take about 200 MB here
        n = 5000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        tracemalloc.start()
        try:
            res = solve_k_role(g, n, budget=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes) == ("yes", n)
        assert peak < 30 * 2**20


class TestLeafCheck:
    def test_pruning_lets_no_invalid_leaf_through(self, monkeypatch):
        # the leaf re-check is looked up in the solver module at call time
        rejected = []

        def spy(verify):
            def check(*args):
                bad = verify(*args)
                rejected.append(bad is not None)
                return bad

            return check

        monkeypatch.setattr(solver, "verify_k_role", spy(verify_k_role))
        monkeypatch.setattr(solver, "verify_r_role", spy(verify_r_role))
        rng = random.Random(59)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, g.n)
            r = RoleGraph(2, [(1, 2)] + [(1, 1)] * rng.randint(0, 1))
            for search in (lambda: solve_k_role(g, k, mode="count"), lambda: solve_r_role(g, r, mode="count")):
                rejected.clear()
                res = search()
                assert not any(rejected)
                assert len(rejected) == res.count
                assert res.leaves_rejected == 0

    def test_rejected_leaves_are_counted(self, monkeypatch):
        # with the rules off, every surjective coloring is a leaf, and the invalid ones are rejected
        monkeypatch.setattr(solver, "_Engine", BareEngine)
        rejected = []

        def check(*args):
            bad = verify_k_role(*args)
            rejected.append(bad is not None)
            return bad

        monkeypatch.setattr(solver, "verify_k_role", check)
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        res = solve_k_role(p4, 3, mode="count")
        assert (res.count, res.leaves_rejected) == (0, 6)  # the six 3-partitions of P4
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, g.n)
            rejected.clear()
            res = solve_k_role(g, k, mode="count")
            assert res.leaves_rejected == sum(rejected)
            assert len(rejected) == res.count + res.leaves_rejected


class TestSolverVsOracle:
    def test_random_graphs_all_k(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 6))
            for k in range(1, g.n + 1):
                want, _ = naive_k_role(g, k)
                assert solve_k_role(g, k).answer == want, (sorted(g.edges), k)


class TestSolveRRole:
    def test_c4_onto_edge_yes(self, c4):
        assert solve_r_role(c4, RoleGraph(2, [(1, 2)])).answer

    def test_k2_onto_looped_edge_no(self):
        g = Graph(2, [(0, 1)])
        assert not solve_r_role(g, RoleGraph(2, [(1, 1), (1, 2)])).answer

    def test_witness_verifies(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        r = RoleGraph(3, [(1, 1), (1, 2), (2, 3)])
        res = solve_r_role(g, r, mode="witness")
        if res.status == "yes":
            assert verify_r_role(g, r, res.certificate) is None

    def test_more_colors_than_vertices_is_no(self, p4):
        assert not solve_r_role(p4, RoleGraph(5, [(1, 2)])).answer

    def test_invalid_args(self, p4):
        with pytest.raises(ValueError):
            solve_r_role(p4, RoleGraph(0))
        with pytest.raises(ValueError):
            solve_r_role(p4, RoleGraph(2, [(1, 2)]), budget=-1)

    def test_deep_path(self):
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        r = RoleGraph(2, [(1, 2)])
        res = solve_r_role(g, r, budget=10**5)
        assert res.status == "yes"
        assert verify_r_role(g, r, res.certificate) is None

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 6))
            colors = rng.randint(1, 3)
            redges = [
                (a, b)
                for a in range(1, colors + 1)
                for b in range(a, colors + 1)
                if rng.random() < 0.5
            ]
            r = RoleGraph(colors, redges)
            want, want_count, _ = naive_r_role(g, r)
            res = solve_r_role(g, r, mode="count")
            assert res.answer == want
            assert res.count == want_count

    def test_witness_is_lexicographically_first(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            colors = rng.randint(1, 4)
            redges = [
                (a, b)
                for a in range(1, colors + 1)
                for b in range(a, colors + 1)
                if rng.random() < 0.5
            ]
            r = RoleGraph(colors, redges)
            want, _, first = naive_r_role(g, r)
            res = solve_r_role(g, r, mode="witness")
            assert res.answer == want
            assert (res.certificate and res.certificate.assignment) == (first if want else None)

    def test_look_ahead_prunes_no_instance(self, c4):
        # a "no" onto C4: the parent engine, without look-ahead, took 95,572 nodes
        rng = random.Random(3)
        g = Graph(30, [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.2])
        r = RoleGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        res = solve_r_role(g, r, budget=10**6)
        assert res.status == "no"
        assert res.nodes < 5000

    def test_many_colors_onto_cycle(self):
        # the look-ahead memoises per mask seen, never one entry per subset of 40 colors
        g = Graph(40, [(i, (i + 1) % 40) for i in range(40)])
        r = RoleGraph(40, [(c, c % 40 + 1) for c in range(1, 41)])
        res = solve_r_role(g, r, mode="witness", budget=10**4)
        assert res.status == "yes"
        assert verify_r_role(g, r, res.certificate) is None


def outcome(res):
    """Everything a search answers, apart from its node count."""
    witness = res.certificate and res.certificate.assignment
    return res.status, res.count, witness


def oracle_outcome(valid, mode):
    """The outcome a search in `mode` must have, given every valid coloring in order."""
    return (
        "yes" if valid else "no",
        len(valid) if mode == "count" else None,
        valid[0] if mode == "witness" and valid else None,
    )


def assert_every_k_matches_oracle_and_unpruned(monkeypatch, g):
    """For every k up to n and every mode, the search answers as the oracle and
    BareEngine (the rules off) do, in no more nodes than BareEngine; and the
    witness walk, let go on, meets the first three colorings in the oracle's order."""
    for k in range(1, g.n + 1):
        valid = [c.assignment for c in naive_k_role_partitions(g, k)]
        assert [c.assignment for c in enumerate_k_role(g, k, 3)] == valid[:3], (sorted(g.edges), k)
        for mode in MODES:
            def search():
                return solve_k_role(g, k, mode=mode)

            res, plain = search(), run_with(monkeypatch, BareEngine, search)
            assert outcome(res) == outcome(plain) == oracle_outcome(valid, mode), (sorted(g.edges), k, mode)
            assert res.nodes <= plain.nodes


def run_with(monkeypatch, engine, search):
    """Run `search` with the solver's engine replaced by `engine`."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_Engine", engine)
        return search()


class TestIncrementalRules:
    """The open-class bound and the forward check (k-role), and the look-ahead
    (R-role), are kept incrementally; RescanEngine recomputes them from scratch."""

    def test_k_role_matches_rescan_unpruned_and_oracle(self, monkeypatch):
        rng = random.Random(71)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
            for k in range(1, 5):
                valid = [c.assignment for c in naive_k_role_partitions(g, k)]
                for mode in MODES:
                    def search():
                        return solve_k_role(g, k, mode=mode)

                    res = search()
                    ref = run_with(monkeypatch, RescanEngine, search)
                    plain = run_with(monkeypatch, BareEngine, search)
                    want = oracle_outcome(valid, mode)
                    assert res.nodes == ref.nodes, (sorted(g.edges), k, mode)
                    assert outcome(res) == outcome(ref) == outcome(plain) == want

    def test_r_role_look_ahead_matches_rescan(self, monkeypatch):
        rng = random.Random(73)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
            r = random_role_graph(rng, rng.randint(1, 4))
            for mode in MODES:
                def search():
                    return solve_r_role(g, r, mode=mode)

                res, ref = search(), run_with(monkeypatch, RescanEngine, search)
                assert (res.nodes, outcome(res)) == (ref.nodes, outcome(ref)), (sorted(g.edges), r.edges, mode)

    def test_rules_cut_witness_nodes(self):
        # without the open-class bound: 5,741 and 2,182 nodes; without the forward
        # check: 4,381 and 1,243
        k4_gadget = build_k4_instance(random_connected_hypergraph(random.Random(2), 7, 6)).graph
        for g, k, most in ((k4_gadget, 4, 3941), (random_graph(random.Random(0), 12, 0.4), 3, 1135)):
            res = solve_k_role(g, k, mode="witness")
            assert res.status == "yes" and verify_k_role(g, res.certificate) is None
            assert res.nodes <= most


def random_role_graph(rng, colors):
    return RoleGraph(
        colors, [(a, b) for a in range(1, colors + 1) for b in range(a, colors + 1) if rng.random() < 0.5]
    )


def run_engine(g, k, r, mode, order):
    """(status, count, nodes) of one engine search in the given vertex order."""
    s = solver._Engine(g, k, r, mode, 10**6, order)
    return s.run(), s.count, s.nodes


class TestClosingOrder:
    def test_matches_naive(self):
        rng = random.Random(61)
        graphs = [Graph(0), Graph(1), Graph(5), Graph(6, [(0, 1), (3, 4), (4, 5)])]
        graphs += [random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6))) for _ in range(300)]
        for g in graphs:
            assert solver._closing_order(g) == naive_closing_order(g), sorted(g.edges)

    def test_same_answers_as_id_order(self):
        # the modes that use the closing order: k-role decision and count, R-role count
        def run(g, k, r, mode, order):
            return run_engine(g, k, r, mode, order)[:2]

        rng = random.Random(67)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
            closing, ids = solver._closing_order(g), list(range(g.n))
            for k in range(1, 5):
                for mode in ("decision", "count"):
                    assert run(g, k, None, mode, closing) == run(g, k, None, mode, ids)
            r = random_role_graph(rng, rng.randint(1, 4))
            assert run(g, r.colors, r, "count", closing) == run(g, r.colors, r, "count", ids)

    def test_closing_order_cuts_nodes(self):
        for n, p, k, r, mode, count, most, factor in (
            (15, 0.35, 4, None, "decision", 0, 6831, 2),  # 19,606 nodes in id order
            (15, 0.35, 4, None, "count", 166, 96633, 6),  # 777,800 in id order
            (34, 0.2, 2, RoleGraph(2, [(1, 1), (1, 2)]), "count", 962, 37504, 5),  # 252,586 in id order
        ):
            rng = random.Random(5)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            status, found, nodes = run_engine(g, k, r, mode, solver._closing_order(g))
            assert (status, found) == ("yes", count) and nodes <= most
            status, found, nodes = run_engine(g, k, r, mode, list(range(n)))
            assert (status, found) == ("yes", count) and nodes > factor * most

    def test_order_per_mode(self, c4):
        edge = RoleGraph(2, [(1, 2)])
        for mode, k_order, r_order in (
            ("decision", "closing", "id"),
            ("witness", "id", "id"),
            ("count", "closing", "closing"),
        ):
            assert solve_k_role(c4, 2, mode=mode).order == k_order
            assert solve_r_role(c4, edge, mode=mode).order == r_order

    def test_large_graphs_are_fast(self):
        n = 10**5
        path = Graph(n, [(i, i + 1) for i in range(n - 1)])
        star = Graph(n, [(0, i) for i in range(1, n)])
        for g, head in ((path, [0, 1, 2]), (star, [1, 0, 2])):
            start = time.perf_counter()
            order = solver._closing_order(g)
            assert time.perf_counter() - start < 20.0  # an O(n^2) scan would take hours
            assert order[:3] == head and sorted(order) == list(range(n))

    def test_long_path_decision(self):
        g = Graph(20000, [(i, i + 1) for i in range(19999)])
        res = solve_k_role(g, 2, budget=10**6)
        assert (res.status, res.order) == ("yes", "closing")


class TestRace:
    """A search that returns a certificate (k-role witness, R-role decision
    and witness) runs in turns of SLICE nodes against a closing-order decision,
    the id-order search first; the first conclusive answer wins."""

    @pytest.mark.parametrize("slice_", [1, 5, 256])
    def test_same_answer_as_id_order(self, monkeypatch, slice_):
        monkeypatch.setattr(solver, "SLICE", slice_)
        rng = random.Random(101)
        refuted = 0
        for _ in range(50):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            r = random_role_graph(rng, rng.randint(1, 3))
            searches = [(r.colors, r, mode, naive_r_role(g, r)[2]) for mode in ("decision", "witness")]
            for k in range(1, n + 1):
                first = next(naive_k_role_partitions(g, k), None)
                searches.append((k, None, "witness", first and first.assignment))
            for k, role, mode, want in searches:
                def search(**kw):
                    if role is None:
                        return solve_k_role(g, k, mode=mode, **kw)
                    return solve_r_role(g, role, mode=mode, **kw)

                res = search()
                assert search(budget=res.nodes) == res
                assert not res.nodes or search(budget=res.nodes - 1).status == "budget-exceeded"
                bare = solver._Engine(g, k, role, mode, 10**6, list(range(n)))
                status, w = bare.run(), bare.nodes
                d = run_engine(g, k, role, "decision", solver._closing_order(g))[2]
                assert res.status == status == ("yes" if want else "no")
                got = bare.found[0].assignment if bare.found else None
                assert (res.certificate and res.certificate.assignment) == got == want
                assert res.leaves_rejected == 0
                # the id-order search goes first in each turn, so the closing one answers
                # first only when it ends in an earlier turn
                closing_first = -(-d // slice_) < -(-w // slice_)
                assert res.order == ("closing" if closing_first and status == "no" else "id")
                refuted += res.order == "closing"
                if status == "yes":
                    assert res.nodes <= w + min(w, d) + slice_
                else:
                    assert res.nodes <= 2 * min(w, d) + slice_
        assert refuted  # the closing-order engine answered some of them

    def test_chain_graph_witness_ends_in_the_first_turn(self, monkeypatch):
        # so the closing-order rival is never built
        def fail(g):
            raise AssertionError("the closing order was computed")

        monkeypatch.setattr(solver, "_closing_order", fail)
        h32 = chain_graph_from_degrees(18, [18, 18, 16, 14, 14, 13, 11, 11, 9, 6, 6, 5, 5, 2])
        assert [solve_k_role(h32, k, mode="witness").nodes for k in (3, 4, 5)] == [51, 93, 94]

    def test_closing_order_refutes(self):
        g = random_graph(random.Random(1), 16, 0.35)
        assert run_engine(g, 5, None, "witness", list(range(16))) == ("no", 0, 105764)
        res = solve_k_role(g, 5, mode="witness")
        assert (res.status, res.order, res.nodes) == ("no", "closing", 9495)

    def test_budget_counts_both_engines(self):
        # a budget of exactly the nodes a raced search takes lets it finish; one fewer stops it
        k3_gadget = build_k3_instance(parse_hypergraph(HYPERGRAPH)).graph
        for g, k in ((random_graph(random.Random(1), 16, 0.35), 5), (k3_gadget, 3)):
            full = solve_k_role(g, k, mode="witness")
            assert solve_k_role(g, k, mode="witness", budget=full.nodes) == full
            assert solve_k_role(g, k, mode="witness", budget=full.nodes - 1).status == "budget-exceeded"

    def test_single_engine_searches(self):
        # the closing-order modes take the bare engine's nodes
        g = random_graph(random.Random(3), 9, 0.4)
        closing = solver._closing_order(g)
        for mode in ("decision", "count"):
            assert solve_k_role(g, 3, mode=mode).nodes == run_engine(g, 3, None, mode, closing)[2]


# 9 vertices, 7 triples: the hypergraph that CI also runs through `reduce k3` and `solve`
HYPERGRAPH = "9 7\n3 1 5 7\n3 1 3 5\n3 1 6 7\n3 4 5 6\n3 1 6 8\n3 0 1 5\n3 0 2 6\n"


class TestOpenerBound:
    """Each unused color needs an uncolored vertex of its own with no bound
    neighbor (one in a locked class, or an uncolored one that can only join a
    locked class) to open it."""

    def test_matches_oracle_and_unpruned_with_isolated_vertices(self, monkeypatch):
        rng = random.Random(83)
        for _ in range(24):
            core = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
            assert_every_k_matches_oracle_and_unpruned(monkeypatch, Graph(core.n + rng.randint(1, 2), core.edges))

    def test_gadget_nodes(self):
        h = parse_hypergraph(HYPERGRAPH)
        g = build_k3_instance(h).graph
        assert run_engine(g, 3, None, "witness", list(range(g.n)))[2] <= 1400  # 27,875 without the bound
        res = solve_k_role(g, 3, mode="witness")
        assert res.nodes == 1856  # the id-order search and the closing-order decision it races
        assert res.certificate.assignment == (1,) * 5 + (2, 2, 1, 1) + (3,) * 16 + (2,) * 5 + (1, 1, 2, 2)
        assert verify_k_role(g, res.certificate) is None
        res = solve_k_role(build_k4_instance(h).graph, 4)
        assert (res.status, res.order) == ("yes", "closing")
        assert res.nodes <= 502  # 22,007 without the bound

    def test_chain_graph_decision(self):
        # 3-role colorable (decide_chain3); the closing order ran over 2*10^6 nodes without the bound
        h32 = chain_graph_from_degrees(18, [18, 18, 16, 14, 14, 13, 11, 11, 9, 6, 6, 5, 5, 2])
        assert solve_k_role(h32, 3, budget=5 * 10**5).status == "yes"

    def test_runs_only_in_pruned_k_role_searches(self, monkeypatch):
        def fail(self, v):
            raise AssertionError("the opener bound ran")

        monkeypatch.setattr(solver._Engine, "_openers", fail)
        rng = random.Random(89)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            r = random_role_graph(rng, rng.randint(1, 3))
            for mode in MODES:
                solve_r_role(g, r, mode=mode)
        # R-role node counts, as before the bound: decision in id order alone, and count
        rng = random.Random(5)
        g = Graph(34, [(u, v) for u in range(34) for v in range(u + 1, 34) if rng.random() < 0.2])
        looped = RoleGraph(2, [(1, 1), (1, 2)])
        assert run_engine(g, 2, looped, "decision", list(range(34)))[2] == 1793
        assert solve_r_role(g, looped, mode="count").nodes == 37504
        assert solve_r_role(g, looped).nodes == 1841  # decision races a closing-order decision
