import random

import pytest

from rolecolor import (
    BudgetExceeded,
    Graph,
    RoleGraph,
    one_role_decision,
    solve_k_role,
    solve_r_role,
    verify_k_role,
    verify_r_role,
)
from rolecolor import solver
from rolecolor.generators import random_graph
from naive import naive_k_role, naive_k_role_partitions, naive_r_role


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

    def test_enumerate_respects_limit(self, c4):
        res = solve_k_role(c4, 2, mode="enumerate", limit=2)
        assert len(res.certificates) == 2

    def test_budget_exceeded_status(self):
        g = random_graph(random.Random(0), 12, 0.4)
        res = solve_k_role(g, 5, budget=10)
        assert res.status == "budget-exceeded"
        with pytest.raises(BudgetExceeded):
            res.answer

    def test_invalid_args(self, p4):
        with pytest.raises(ValueError):
            solve_k_role(p4, 0)
        with pytest.raises(ValueError):
            solve_k_role(p4, 2, mode="nope")

    def test_negative_budget_is_refused(self, p4):
        with pytest.raises(ValueError):
            solve_k_role(p4, 2, budget=-1)

    def test_deep_path_witness(self):
        # deeper than the interpreter's recursion limit
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        res = solve_k_role(g, 2, mode="witness", budget=10**5)
        assert res.status == "yes"
        assert verify_k_role(g, res.certificate) is None


class TestPruningNeutrality:
    def test_pruned_equals_unpruned(self):
        rng = random.Random(17)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, g.n)
            pruned = solve_k_role(g, k, mode="count")
            plain = solve_k_role(g, k, mode="count", pruning=False)
            assert pruned.count == plain.count
            assert pruned.nodes <= plain.nodes

    def test_matches_spelled_out_baseline(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6))
            k = rng.randint(1, g.n)
            baseline = sum(1 for _ in naive_k_role_partitions(g, k))
            assert solve_k_role(g, k, mode="count").count == baseline


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
            want, want_count = naive_r_role(g, r)
            res = solve_r_role(g, r, mode="count")
            assert res.answer == want
            assert res.count == want_count
