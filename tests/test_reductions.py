import random
import tracemalloc

import pytest

from rolecolor import (
    Graph,
    GraphFormatError,
    Hypergraph,
    RoleColoring,
    bipartition,
    build_almost_bipartite,
    build_k3_instance,
    build_k4_instance,
    build_kpath_instance,
    hypergraph_k_colorable,
    incidence_graph,
    parse_hypergraph,
    solve_k_role,
    verify_k_role,
)
from gadget_proofs import CannotExtract, extract_beta, lift_coloring, vertices_tagged
from generators import fano_plane, hypergraph_connected, random_connected_hypergraph
from naive import (
    is_non_monochromatic,
    naive_hypergraph_colorable,
    naive_hypergraph_connected,
    naive_hypergraph_k_colorable,
)


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
        assert hypergraph_connected(single_edge_hg())
        assert not hypergraph_connected(Hypergraph(4, [{0, 1, 2}]))  # vertex 3 uncovered
        assert not hypergraph_connected(Hypergraph(6, [{0, 1, 2}, {3, 4, 5}]))
        assert hypergraph_connected(Hypergraph(5, [{0, 1, 2}, {2, 3, 4}]))

    def test_connectivity_matches_fixpoint(self):
        rng = random.Random(41)
        cases = [Hypergraph(0, []), Hypergraph(1, []), Hypergraph(2, []), Hypergraph(1, [{0}])]
        for _ in range(400):
            n = rng.randint(0, 8)
            sizes = [rng.randint(1, min(n, 4)) for _ in range(rng.randint(0, 5) if n else 0)]
            cases.append(Hypergraph(n, [rng.sample(range(n), t) for t in sizes]))
        seen = set()
        for h in cases:
            want = naive_hypergraph_connected(h)
            assert hypergraph_connected(h) == want, (h.n, h.edges)
            seen.add(want)
        assert seen == {True, False}

    def test_connectivity_with_wide_vertex_range_is_cheap(self):
        # an incidence graph on all 10^5 vertices would take about 20 MB of sets
        h = Hypergraph(10**5, [{0, 1, 2}])
        tracemalloc.start()
        try:
            connected = hypergraph_connected(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not connected and peak < 2**20

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


def _hg_result(res):
    cert = res.certificate and res.certificate.assignment
    return res.status, cert, res.count, [c.assignment for c in res.certificates]


class TestHypergraphSearchVsProductScan:
    """The backtracking search against the plain product scan over all k^n maps."""

    CASES = [
        Hypergraph(0, []),
        Hypergraph(1, []),
        Hypergraph(2, [{1}]),
        Hypergraph(4, [{0, 1, 2}, {3}]),
        Hypergraph(3, [{0, 1}, {1, 2}, {0, 2}]),
        Hypergraph(5, [{0, 1, 2}, {2, 3, 4}, {0, 4}]),
    ]

    @staticmethod
    def random_cases(rng, count):
        for _ in range(count):
            n = rng.randint(0, 7)
            sizes = [min(n, rng.choice((1, 2, 3, 3, 3, 4))) for _ in range(rng.randint(0, 6) if n else 0)]
            yield Hypergraph(n, [rng.sample(range(n), t) for t in sizes])

    MODES = [("decision", 1), ("witness", 1), ("count", 1), ("enumerate", 10**6), ("enumerate", 3)]

    def test_all_modes_match(self):
        for h in [*self.CASES, *self.random_cases(random.Random(11), 20)]:
            for k in range(1, 5):  # k > n on the small cases
                for surjective in (True, False):
                    for mode, limit in self.MODES:
                        got, want = (
                            _hg_result(f(h, k, mode=mode, require_surjective=surjective, limit=limit))
                            for f in (hypergraph_k_colorable, naive_hypergraph_k_colorable)
                        )
                        assert got == want, (h.n, h.edges, k, surjective, mode, limit)

    def test_budget_counts_candidate_colors(self):
        # one hyperedge on three vertices, k = 2: 1, 1, then 1 is rejected at vertex 2
        res = hypergraph_k_colorable(single_edge_hg(), 2, mode="witness")
        assert res.nodes == 4
        assert hypergraph_k_colorable(single_edge_hg(), 2, budget=3).status == "budget-exceeded"

    def test_huge_k(self):
        k = 10**6
        res = hypergraph_k_colorable(single_edge_hg(), k, mode="count")
        assert (res.status, res.count, res.nodes) == ("no", 0, 0)
        # without surjectivity: every map but the k monochromatic ones, from a few nodes
        res = hypergraph_k_colorable(single_edge_hg(), k, mode="count", require_surjective=False)
        assert res.count == k**3 - k and res.nodes < 10


class TestGadgetShapes:
    def test_incidence_graph(self):
        gg = incidence_graph(Hypergraph(5, [{0, 1, 2}, {2, 3, 4}]))
        assert gg.graph.n == 7 and gg.graph.m == 6
        assert gg.role_of[5] == ("S", 0)
        assert 5 in gg.graph.adj[2] and 6 in gg.graph.adj[2]

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
            path = vertices_tagged(gg, "PathS")
            assert len(path) == k - 3
            # the path's far end has degree 1, its near end touches s
            ends = [v for v in path if gg.graph.degree(v) == 1]
            assert len(ends) == 1
            (s,) = vertices_tagged(gg, "S")
            near = [v for v in path if s in gg.graph.adj[v]]
            assert [gg.role_of[v][2] for v in near] == [k - 3]

    def test_kpath_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_kpath_instance(single_edge_hg(), 4)

    def test_gadget_above_the_header_limit_is_refused(self, monkeypatch):
        # 10^8 path vertices are refused before any list is built; so is 10^6 + 1, which no reader takes back
        for k in (10**8, 10**6):
            with pytest.raises(ValueError, match=f"gadget has {k + 1} vertices, above the limit 1000000"):
                build_kpath_instance(single_edge_hg(), k)
        # every gadget builder checks its vertex count, and the limit itself is allowed
        monkeypatch.setattr("rolecolor.reductions.MAX_HEADER_COUNT", 10)
        h = single_edge_hg()  # 3 + 1 incidence vertices
        for build, fits, over in (
            (build_k3_instance, h, Hypergraph(4, [{0, 1, 2}])),  # 3n + 1
            (build_k4_instance, Hypergraph(8, [{0, 1, 2}]), Hypergraph(9, [{0, 1, 2}])),  # n + 2
            (lambda h: build_kpath_instance(h, 9), h, Hypergraph(4, [{0, 1, 2}])),  # n + 1 + 6
            (incidence_graph, Hypergraph(9, [{0, 1, 2}]), Hypergraph(10, [{0, 1, 2}])),  # n + 1
            # n + 5; the edgeless 6-vertex graph is refused before the connectivity pass
            (lambda g: build_almost_bipartite(g, 0), Graph(5, [(v, v + 1) for v in range(4)]), Graph(6)),
        ):
            assert build(fits).graph.n == 10
            with pytest.raises(ValueError, match="above the limit 10"):
                build(over)

    def test_builders_require_3uniform(self):
        h = Hypergraph(2, [{0, 1}])
        for b in (build_k3_instance, build_k4_instance):
            with pytest.raises(ValueError, match="3-uniform"):
                b(h)

    def test_almost_bipartite_shape(self, c4):
        gg = build_almost_bipartite(c4, 0)
        assert gg.graph.n == c4.n + 5 and gg.graph.m == c4.m + c4.degree(0) + 5
        assert not bipartition(gg.graph)  # triangle a-b-d
        b = vertices_tagged(gg, "GadgetB")[0]
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


class TestGadgetLayout:
    """Exact vertex ids, edges and tags of every gadget."""

    H = Hypergraph(5, [{0, 1, 2}, {2, 3, 4}])
    INCIDENCE = "0 5\n1 5\n2 5\n2 6\n3 6\n4 6\n"
    QS_TAGS = "".join(f"# tag {q} Q[{q}]\n" for q in range(5)) + "# tag 5 S[0]\n# tag 6 S[1]\n"

    def test_incidence(self):
        assert incidence_graph(self.H).to_text() == "7 6\n" + self.INCIDENCE + self.QS_TAGS

    def test_k3(self):
        assert build_k3_instance(self.H).to_text() == (
            "17 16\n"
            "0 5\n0 7\n1 5\n1 8\n2 5\n2 6\n2 9\n3 6\n3 10\n4 6\n4 11\n"
            "7 12\n8 13\n9 14\n10 15\n11 16\n"
            + self.QS_TAGS
            + "# tag 7 Bq[0]\n# tag 8 Bq[1]\n# tag 9 Bq[2]\n# tag 10 Bq[3]\n# tag 11 Bq[4]\n"
            "# tag 12 Aq[0]\n# tag 13 Aq[1]\n# tag 14 Aq[2]\n# tag 15 Aq[3]\n# tag 16 Aq[4]\n"
        )

    def test_k4(self):
        assert build_k4_instance(self.H).to_text() == (
            "9 8\n" + self.INCIDENCE + "5 7\n6 8\n"
            + self.QS_TAGS
            + "# tag 7 PendantS[0]\n# tag 8 PendantS[1]\n"
        )

    def test_kpath_k6(self):
        assert build_kpath_instance(self.H, 6).to_text() == (
            "13 12\n" + self.INCIDENCE + "5 9\n6 12\n7 8\n8 9\n10 11\n11 12\n"
            + self.QS_TAGS
            + "# tag 7 PathS[0,1]\n# tag 8 PathS[0,2]\n# tag 9 PathS[0,3]\n"
            "# tag 10 PathS[1,1]\n# tag 11 PathS[1,2]\n# tag 12 PathS[1,3]\n"
        )

    def test_almost_bipartite_c4(self, c4):
        assert build_almost_bipartite(c4, 0).to_text() == (
            "9 11\n"
            "0 1\n0 3\n1 2\n1 4\n2 3\n3 4\n4 5\n5 6\n5 7\n5 8\n6 8\n"
            "# tag 0 Pivot\n# tag 1 Orig\n# tag 2 Orig\n# tag 3 Orig\n# tag 4 Twin\n"
            "# tag 5 GadgetA\n# tag 6 GadgetB\n# tag 7 GadgetC\n# tag 8 GadgetD\n"
        )

    def test_almost_bipartite_leaves_input_edges_unbuilt(self, c4):
        build_almost_bipartite(c4, 0)
        assert c4._edges is None

    def test_error_order(self):
        # k is checked before uniformity, and uniformity before emptiness
        with pytest.raises(ValueError, match="k >= 5"):
            build_kpath_instance(Hypergraph(2, [{0, 1}]), 4)
        empty = Hypergraph(3, [])
        for build in (build_k3_instance, build_k4_instance, lambda h: build_kpath_instance(h, 5)):
            with pytest.raises(ValueError, match="3-uniform"):
                build(Hypergraph(4, [{0, 1, 2}, {2, 3}]))
            with pytest.raises(ValueError, match="no hyperedges"):
                build(empty)


class TestLifts:
    def test_k3_lift_explicit(self):
        gg = build_k3_instance(single_edge_hg())
        beta = RoleColoring((1, 1, 2), 2)
        alpha = lift_coloring(gg, beta)
        # Q keeps beta, S and b_q get 3, a_q gets the opposite of its q
        assert alpha.assignment[:3] == (1, 1, 2)
        assert alpha.assignment[3] == 3
        assert all(alpha.assignment[v] == 3 for v in vertices_tagged(gg, "Bq"))
        aq = vertices_tagged(gg, "Aq")
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
        path = sorted(vertices_tagged(gg, "PathS"), key=lambda v: gg.role_of[v][2])
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
                qcols = {alpha.assignment[v] for v in vertices_tagged(gg, "Q")}
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
