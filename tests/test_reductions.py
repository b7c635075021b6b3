import random

import pytest

from rolecolor import (
    CannotExtract,
    Graph,
    GraphFormatError,
    Hypergraph,
    RoleColoring,
    bipartition,
    build_almost_bipartite,
    build_k3_instance,
    build_k4_instance,
    build_kpath_instance,
    extract_beta,
    hypergraph_k_colorable,
    incidence_graph,
    lift_coloring,
    parse_hypergraph,
    solve_k_role,
    verify_k_role,
)
from rolecolor.generators import fano_plane, random_connected_hypergraph
from rolecolor.reductions import is_non_monochromatic
from naive import naive_hypergraph_colorable


def single_edge_hg():
    return Hypergraph(3, [{0, 1, 2}])


def random_hg(rng, max_q=5, max_s=4):
    nq = rng.randint(3, max_q)
    lo = max(1, (nq - 3 + 1) // 2 + 1)
    hi = min(max_s, nq * (nq - 1) * (nq - 2) // 6)
    return random_connected_hypergraph(rng, nq, rng.randint(lo, max(lo, hi)))


class TestHypergraph:
    def test_uniformity(self):
        h = single_edge_hg()
        assert h.is_uniform(3) and not h.is_uniform(2)

    def test_connectivity(self):
        assert single_edge_hg().is_connected()
        assert not Hypergraph(4, [{0, 1, 2}]).is_connected()  # vertex 3 uncovered
        assert not Hypergraph(6, [{0, 1, 2}, {3, 4, 5}]).is_connected()
        assert Hypergraph(5, [{0, 1, 2}, {2, 3, 4}]).is_connected()

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="empty"):
            Hypergraph(3, [set()])
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, [{0, 3}])

    def test_parse_round_trip(self):
        h = Hypergraph(5, [{0, 1, 2}, {2, 3, 4}])
        h2 = parse_hypergraph(h.to_text())
        assert h2.n == h.n and h2.edges == h.edges

    def test_parse_errors(self):
        with pytest.raises(GraphFormatError, match="t v1"):
            parse_hypergraph("3 1\n3 0 1\n")
        with pytest.raises(GraphFormatError, match="repeated"):
            parse_hypergraph("3 1\n3 0 1 1\n")


class TestHypergraphColoring:
    def test_single_edge_2colorable(self):
        res = hypergraph_k_colorable(single_edge_hg(), 2, mode="witness")
        assert res.status == "yes"
        assert res.certificate.assignment == (1, 1, 2)

    def test_fano_not_2colorable(self):
        assert not hypergraph_k_colorable(fano_plane(), 2).answer

    def test_k1_with_edges_is_no(self):
        assert not hypergraph_k_colorable(single_edge_hg(), 1).answer

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError):
            hypergraph_k_colorable(single_edge_hg(), 2, budget=-1)

    def test_surjectivity_flag(self):
        # 4 vertices, one edge: 4-colorable only without the surjectivity demand
        # if fewer colors suffice... here surjective 4-coloring exists, so use a
        # tighter example: 2 vertices 0,1 unconstrained, k=2
        h = Hypergraph(3, [{0, 1, 2}])
        assert hypergraph_k_colorable(h, 3).answer
        h1 = Hypergraph(1, [])
        assert not hypergraph_k_colorable(h1, 2).answer
        assert hypergraph_k_colorable(h1, 2, require_surjective=False).answer

    def test_matches_naive(self):
        rng = random.Random(8)
        for _ in range(40):
            h = random_hg(rng, max_q=5, max_s=3)
            for k in (2, 3):
                want = naive_hypergraph_colorable(h.edges, h.n, k)
                assert hypergraph_k_colorable(h, k).answer == want


class TestGadgetShapes:
    def test_incidence_graph(self):
        gg = incidence_graph(Hypergraph(5, [{0, 1, 2}, {2, 3, 4}]))
        assert gg.graph.n == 7 and gg.graph.m == 6
        assert gg.role_of[5] == ("S", 0)
        assert gg.graph.has_edge(2, 5) and gg.graph.has_edge(2, 6)

    def test_k3_counts(self):
        h = single_edge_hg()
        gg = build_k3_instance(h)
        assert gg.graph.n == h.n + h.m + 2 * h.n
        assert gg.kind == "k3" and gg.k == 3

    def test_k4_counts(self):
        h = Hypergraph(5, [{0, 1, 2}, {2, 3, 4}])
        gg = build_k4_instance(h)
        assert gg.graph.n == h.n + 2 * h.m
        # each pendant hangs off its hyperedge vertex
        for v, tag in enumerate(gg.role_of):
            if tag[0] == "PendantS":
                assert gg.graph.degree(v) == 1
                (u,) = gg.graph.adj[v]
                assert gg.role_of[u] == ("S", tag[1])

    def test_kpath_counts_and_shape(self):
        h = single_edge_hg()
        for k in (5, 6, 7):
            gg = build_kpath_instance(h, k)
            assert gg.graph.n == h.n + h.m * (k - 2)
            path = gg.vertices_tagged("PathS")
            assert len(path) == k - 3
            # the path's far end has degree 1, its near end touches s
            ends = [v for v in path if gg.graph.degree(v) == 1]
            assert len(ends) == 1
            (s,) = gg.vertices_tagged("S")
            near = [v for v in path if gg.graph.has_edge(v, s)]
            assert [gg.role_of[v][2] for v in near] == [k - 3]

    def test_kpath_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_kpath_instance(single_edge_hg(), 4)

    def test_builders_require_3uniform(self):
        h = Hypergraph(2, [{0, 1}])
        for b in (build_k3_instance, build_k4_instance):
            with pytest.raises(ValueError, match="3-uniform"):
                b(h)

    def test_almost_bipartite_shape(self, c4):
        gg = build_almost_bipartite(c4, 0)
        assert gg.graph.n == c4.n + 5 and gg.graph.m == c4.m + c4.degree(0) + 5
        assert not bipartition(gg.graph)  # triangle a-b-d
        b = gg.vertices_tagged("GadgetB")[0]
        without_b = Graph(
            gg.graph.n,
            [e for e in gg.graph.edges if b not in e],
        )
        assert bipartition(without_b)

    def test_almost_bipartite_preconditions(self, two_k2, triangle):
        with pytest.raises(ValueError, match="connected"):
            build_almost_bipartite(two_k2, 0)
        with pytest.raises(ValueError, match="bipartite"):
            build_almost_bipartite(triangle, 0)
        with pytest.raises(ValueError, match="pivot"):
            build_almost_bipartite(Graph(2, [(0, 1)]), 5)
        with pytest.raises(ValueError, match="edge"):
            build_almost_bipartite(Graph(1, []), 0)

    def test_serialization_is_stable(self):
        gg = build_k3_instance(single_edge_hg())
        assert gg.to_text() == gg.to_text()
        assert "# tag 0 Q[0]" in gg.to_text()
        assert "# tag 3 S[0]" in gg.to_text()


class TestLifts:
    def test_k3_lift_explicit(self):
        gg = build_k3_instance(single_edge_hg())
        beta = RoleColoring((1, 1, 2), 2)
        alpha = lift_coloring(gg, beta)
        # Q keeps beta, S and b_q get 3, a_q gets the opposite of its q
        assert alpha.assignment[:3] == (1, 1, 2)
        assert alpha.assignment[3] == 3
        assert all(alpha.assignment[v] == 3 for v in gg.vertices_tagged("Bq"))
        aq = gg.vertices_tagged("Aq")
        assert [alpha.assignment[v] for v in aq] == [2, 2, 1]
        assert verify_k_role(gg.graph, alpha) is None

    def test_k4_lift_explicit(self):
        gg = build_k4_instance(single_edge_hg())
        alpha = lift_coloring(gg, RoleColoring((1, 2, 3), 3))
        assert alpha.assignment[3] == 4
        assert alpha.assignment[4] == 1  # free choice resolved to the smallest
        assert verify_k_role(gg.graph, alpha) is None

    def test_k5_lift_path_colors(self):
        gg = build_kpath_instance(single_edge_hg(), 5)
        alpha = lift_coloring(gg, RoleColoring((1, 1, 2), 2))
        path = sorted(gg.vertices_tagged("PathS"), key=lambda v: gg.role_of[v][2])
        assert [alpha.assignment[v] for v in path] == [5, 4]
        assert verify_k_role(gg.graph, alpha) is None

    def test_lift_rejects_wrong_beta(self):
        gg = build_k3_instance(single_edge_hg())
        with pytest.raises(ValueError):
            lift_coloring(gg, RoleColoring((1, 2, 3), 3))

    def test_lift_soundness_random(self):
        rng = random.Random(19)
        for _ in range(40):
            h = random_hg(rng, max_q=4, max_s=3)
            for build, k in ((build_k3_instance, 2), (build_k4_instance, 3)):
                res = hypergraph_k_colorable(h, k, mode="witness")
                if res.status != "yes":
                    continue
                gg = build(h)
                alpha = lift_coloring(gg, res.certificate)
                assert verify_k_role(gg.graph, alpha) is None


class TestExtraction:
    def test_round_trip_through_gadget(self):
        rng = random.Random(29)
        for _ in range(30):
            h = random_hg(rng, max_q=4, max_s=3)
            gg = build_k3_instance(h)
            res = solve_k_role(gg.graph, 3, mode="witness")
            if res.status != "yes":
                continue
            beta = extract_beta(gg, res.certificate)
            assert beta
            assert is_non_monochromatic(h, beta)
            assert beta.used_colors() == {1, 2}

    def test_k4_two_color_Q_gets_third_color(self):
        # find a verified 4-role coloring with |alpha(Q)| = 2 and check the recoloring
        rng = random.Random(37)
        seen = False
        for _ in range(60):
            h = random_hg(rng, max_q=4, max_s=2)
            gg = build_k4_instance(h)
            res = solve_k_role(gg.graph, 4, mode="enumerate", limit=50)
            for alpha in res.certificates:
                qcols = {alpha.assignment[v] for v in gg.vertices_tagged("Q")}
                beta = extract_beta(gg, alpha)
                assert beta, qcols
                assert is_non_monochromatic(h, beta)
                assert beta.used_colors() == {1, 2, 3}
                if len(qcols) == 2:
                    seen = True
                    # exactly one vertex was recolored with the third color
                    assert list(beta.assignment).count(3) == 1
            if seen:
                break
        assert seen

    def test_extract_rejects_invalid_alpha(self):
        gg = build_k3_instance(single_edge_hg())
        bad = RoleColoring((1,) * gg.graph.n, 3)
        with pytest.raises(ValueError, match="not a valid"):
            extract_beta(gg, bad)

    def test_cannot_extract_is_falsy(self):
        assert not CannotExtract("reason")
