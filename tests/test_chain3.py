import random

import pytest

from rolecolor import (
    Graph,
    NotBipartiteError,
    NotChainError,
    decide_chain3,
    solve_k_role,
    verify_k_role,
)
from rolecolor.chain3 import (
    BOTH_SIDES_LARGE,
    DISCONNECTED,
    NONE,
    SINGLETON_SIDE,
    TWO_SIDE_WITH_TAIL,
    TWO_UNIVERSAL,
)
from generators import (
    connected_chain_graphs,
    random_chain_graph,
)
from conftest import assert_observations
from naive import is_p4, p4_no_certificate


def complete_bipartite(p, q):
    return Graph(p + q, [(x, p + y) for x in range(p) for y in range(q)])


class TestPreconditions:
    def test_rejects_non_bipartite(self, triangle):
        with pytest.raises(NotBipartiteError):
            decide_chain3(triangle)

    def test_rejects_non_chain(self, two_k2):
        with pytest.raises(NotChainError):
            decide_chain3(two_k2)

    def test_tiny_graphs_are_no(self):
        assert not decide_chain3(Graph(1)).answer
        assert not decide_chain3(Graph(2, [(0, 1)])).answer


class TestNamedCases:
    def test_p4_is_no(self, p4):
        dec = decide_chain3(p4)
        assert not dec.answer
        assert dec.caseId == NONE

    def test_c4_two_universal(self, c4):
        dec = decide_chain3(c4)
        assert dec.answer and dec.caseId == TWO_UNIVERSAL
        assert verify_k_role(c4, dec.certificate) is None

    def test_star_singleton_side(self, star3):
        dec = decide_chain3(star3)
        assert dec.answer and dec.caseId == SINGLETON_SIDE

    def test_k33_both_sides_large(self):
        dec = decide_chain3(complete_bipartite(3, 3))
        assert dec.answer and dec.caseId == BOTH_SIDES_LARGE

    def test_edgeless_disconnected(self):
        dec = decide_chain3(Graph(3))
        assert dec.answer and dec.caseId == DISCONNECTED
        assert verify_k_role(Graph(3), dec.certificate) is None

    def test_edge_plus_isolated(self):
        g = Graph(4, [(1, 3)])
        dec = decide_chain3(g)
        assert dec.answer and dec.caseId == DISCONNECTED
        assert verify_k_role(g, dec.certificate) is None

    def test_two_side_with_tail(self):
        # X = {0,1}, 0 universal; Y has a pendant (4) and two degree-2 vertices
        g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        dec = decide_chain3(g)
        assert dec.answer and dec.caseId == TWO_SIDE_WITH_TAIL
        # a two-vertex side X without a pendant opposite it is all universal, so
        # TwoUniversal answers first: "pendant-tail" is this case's only subcase
        assert dec.subCase == "pendant-tail"
        assert verify_k_role(g, dec.certificate) is None

    def test_double_star_yes(self):
        # two adjacent centers with two leaves each
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        dec = decide_chain3(g)
        assert dec.answer
        assert verify_k_role(g, dec.certificate) is None


class TestReachableSubcases:
    def test_every_reachable_case_and_subcase(self):
        # every connected chain graph with n <= 10, edgeless graphs, an edge plus
        # isolated vertices, and the "no" instances P4 and n < 3
        graphs = [g for n in range(2, 11) for g in connected_chain_graphs(n)]
        graphs += [Graph(n) for n in range(1, 6)] + [Graph(4, [(1, 3)]), Graph(5, [(0, 4)])]
        seen = {(d.caseId, d.subCase) for d in map(decide_chain3, graphs)}
        assert seen == {
            (NONE, None),
            (DISCONNECTED, "edgeless"),
            (DISCONNECTED, "one-edged-component"),
            (SINGLETON_SIDE, "center"),
            (SINGLETON_SIDE, "center-swapped"),
            (TWO_UNIVERSAL, "both-universal"),
            (TWO_UNIVERSAL, "both-universal-swapped"),
            (TWO_SIDE_WITH_TAIL, "pendant-tail"),
            (TWO_SIDE_WITH_TAIL, "pendant-tail-swapped"),
            (BOTH_SIDES_LARGE, "no-pendants"),
            (BOTH_SIDES_LARGE, "pendants-in-X"),
            (BOTH_SIDES_LARGE, "pendants-in-Y"),
            (BOTH_SIDES_LARGE, "pendants-both-sides"),
            (BOTH_SIDES_LARGE, "pendants-both-sides-independent"),
        }


class TestAgainstSolver:
    def test_exhaustive_small(self):
        for n in range(2, 9):
            for g in connected_chain_graphs(n):
                dec = decide_chain3(g)
                assert dec.answer == solve_k_role(g, 3).answer, sorted(g.edges)
                assert not dec.used_fallback
                if dec.answer:
                    assert_observations(g, dec.certificate)

    def test_random_relabeled(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_chain_graph(rng, rng.randint(2, 12))
            dec = decide_chain3(g)
            assert dec.answer == solve_k_role(g, 3).answer, sorted(g.edges)
            assert not dec.used_fallback
            if dec.answer:
                assert verify_k_role(g, dec.certificate) is None

    def test_decision_is_label_invariant(self):
        from generators import relabel

        rng = random.Random(5)
        for _ in range(50):
            g = random_chain_graph(rng, rng.randint(3, 10))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert decide_chain3(g).answer == decide_chain3(relabel(g, perm)).answer


class TestP4Refutation:
    def test_recognizer(self, p4, c4, star3):
        assert is_p4(p4)
        assert not is_p4(c4)
        assert not is_p4(star3)

    def test_all_six_partitions_refuted(self, p4):
        entries = p4_no_certificate(p4)
        assert len(entries) == 6
        colorings = {e.coloring.assignment for e in entries}
        assert len(colorings) == 6
        for e in entries:
            assert verify_k_role(p4, e.coloring) == e.violation

    def test_rejects_non_p4(self, c4):
        with pytest.raises(ValueError):
            p4_no_certificate(c4)
