"""Acceptance suite: one test per top-level criterion.

Each criterion is checked at the stated scale with seeded randomness, against
independent brute-force oracles where one exists. Valid colorings encountered
anywhere are additionally pushed through the structural checks (degree bound
and role-graph connectivity) so criterion 7 is enforced across the whole run.
"""

import math
import random
from itertools import product

from rolecolor import (
    Graph,
    RoleGraph,
    bipartition,
    build_almost_bipartite,
    build_k3_instance,
    build_k4_instance,
    build_kpath_instance,
    decide_chain3,
    hypergraph_k_colorable,
    is_connected,
    solve_k_role,
    solve_r_role,
    verify_k_role,
)
from gadget_proofs import extract_beta, lift_coloring, vertices_tagged
from generators import (
    connected_chain_graphs,
    fano_plane,
    random_chain_graph,
    random_connected_bipartite,
    random_connected_hypergraph,
)

from conftest import assert_observations, atlas_graphs
from naive import enumerate_k_role, identity_coloring, is_non_monochromatic, naive_k_role


def sample_hypergraph(rng, max_q, max_s):
    nq = rng.randint(3, max_q)
    lo = max(1, (nq - 3 + 1) // 2 + 1)  # enough triples to cover nq vertices
    hi = min(max_s, nq * (nq - 1) * (nq - 2) // 6)
    return random_connected_hypergraph(rng, nq, rng.randint(lo, max(lo, hi)))


def test_criterion_1_solver_matches_oracle_on_all_small_graphs():
    """Exhaustive agreement with naive enumeration: n <= 7, every k <= n."""
    disagreements = []
    checked = 0
    for g in atlas_graphs():
        for k in range(1, g.n + 1):
            res = solve_k_role(g, k, mode="count")
            want_answer, want_maps = naive_k_role(g, k)
            checked += 1
            # canonical counts are up to color permutation: maps = count * k!
            if res.answer != want_answer or res.count * math.factorial(k) != want_maps:
                disagreements.append((sorted(g.edges), k, res.count, want_maps))
    assert checked > 1253  # 1253 graphs, most contribute several k values
    assert disagreements == []


def test_criterion_2_chain_decision_matches_solver():
    """decide_chain3 == solve_k_role(., 3): exhaustive n <= 10 plus 1000 random
    n <= 14; no disagreements, no fallbacks, every yes-certificate verifies."""
    disagreements = []
    fallbacks = 0

    def check(g):
        nonlocal fallbacks
        dec = decide_chain3(g)
        if dec.used_fallback:
            fallbacks += 1
        if dec.answer != solve_k_role(g, 3).answer:
            disagreements.append(sorted(g.edges))
        if dec.answer:
            assert_observations(g, dec.certificate)

    exhaustive = 0
    for n in range(2, 11):
        for g in connected_chain_graphs(n):
            exhaustive += 1
            check(g)
    assert exhaustive >= 500

    rng = random.Random(20260824)
    for _ in range(1000):
        check(random_chain_graph(rng, rng.randint(2, 14)))

    assert disagreements == []
    assert fallbacks == 0

    # the named instances land in the named cases
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not decide_chain3(p4).answer

    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dec = decide_chain3(c4)
    assert dec.answer and dec.caseId == "TwoUniversal"

    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    dec = decide_chain3(k13)
    assert dec.answer and dec.caseId == "SingletonSide"

    k33 = Graph(6, [(x, 3 + y) for x in range(3) for y in range(3)])
    dec = decide_chain3(k33)
    assert dec.answer and dec.caseId == "BothSidesLarge"

    dec = decide_chain3(Graph(3))
    assert dec.answer and dec.caseId == "Disconnected"


def test_criterion_3_pendant_pair_gadget_iff():
    """Hypergraph 2-colorability == 3-role colorability of its gadget graph."""
    rng = random.Random(3)
    counterexamples = []
    for _ in range(500):
        h = sample_hypergraph(rng, max_q=5, max_s=4)
        left = hypergraph_k_colorable(h, 2, mode="witness")
        gg = build_k3_instance(h)
        right = solve_k_role(gg.graph, 3, mode="witness")
        if left.answer != right.answer:
            counterexamples.append(h.to_text())
            continue
        if left.answer:
            alpha = lift_coloring(gg, left.certificate)
            assert_observations(gg.graph, alpha)
            assert_observations(gg.graph, right.certificate)
            beta = extract_beta(gg, right.certificate)
            assert beta and is_non_monochromatic(h, beta)
            assert beta.used_colors() == {1, 2}
    assert counterexamples == []


def test_criterion_4_single_pendant_gadget_iff():
    """Hypergraph 3-colorability == 4-role colorability; Q never takes 1 or 4
    colors in any verified gadget coloring."""
    rng = random.Random(4)
    counterexamples = []
    q_color_counts = set()
    for i in range(500):
        h = sample_hypergraph(rng, max_q=4, max_s=3)
        left = hypergraph_k_colorable(h, 3, mode="witness")
        gg = build_k4_instance(h)
        right = solve_k_role(gg.graph, 4, mode="witness")
        if left.answer != right.answer:
            counterexamples.append(h.to_text())
            continue
        if left.answer:
            alpha = lift_coloring(gg, left.certificate)
            assert_observations(gg.graph, alpha)
            assert_observations(gg.graph, right.certificate)
            beta = extract_beta(gg, right.certificate)
            assert beta and is_non_monochromatic(h, beta)
            assert beta.used_colors() == {1, 2, 3}
        if i < 50 and left.answer:
            qs = vertices_tagged(gg, "Q")
            for alpha in enumerate_k_role(gg.graph, 4, 100):
                sizes = len({alpha.assignment[v] for v in qs})
                q_color_counts.add(sizes)
    assert counterexamples == []
    assert q_color_counts <= {2, 3}
    assert q_color_counts  # the enumeration did see verified colorings


def test_criterion_5_pendant_path_gadget_iff():
    """Hypergraph 2-colorability == k-role colorability for k in {5, 6}; every
    verified gadget coloring uses k-3 distinct colors along each pendant path."""
    rng = random.Random(5)
    counterexamples = []
    paths_checked = 0
    for k in (5, 6):
        for i in range(250):
            h = sample_hypergraph(rng, max_q=4, max_s=3)
            left = hypergraph_k_colorable(h, 2, mode="witness")
            gg = build_kpath_instance(h, k)
            right = solve_k_role(gg.graph, k, mode="witness")
            if left.answer != right.answer:
                counterexamples.append((k, h.to_text()))
                continue
            if left.answer:
                alpha = lift_coloring(gg, left.certificate)
                assert_observations(gg.graph, alpha)
                assert_observations(gg.graph, right.certificate)
                beta = extract_beta(gg, right.certificate)
                assert beta and is_non_monochromatic(h, beta)
            if i < 20 and left.answer:
                by_edge = {}
                for v, tag in enumerate(gg.role_of):
                    if tag[0] == "PathS":
                        by_edge.setdefault(tag[1], []).append(v)
                for alpha in enumerate_k_role(gg.graph, k, 50):
                    for vs in by_edge.values():
                        colors = [alpha.assignment[v] for v in vs]
                        assert len(set(colors)) == k - 3, colors
                        paths_checked += 1
    assert counterexamples == []
    assert paths_checked > 0


def test_criterion_6_almost_bipartite_gadget_iff():
    """R-role colorability of g (R = edge with one loop) == 2-role colorability
    of the triangle-glued gadget graph, over every pivot of 500 random
    connected bipartite graphs."""
    rng = random.Random(6)
    r0 = RoleGraph(2, [(1, 1), (1, 2)])
    counterexamples = []
    for _ in range(500):
        g = random_connected_bipartite(rng, rng.randint(2, 10))
        for x in range(g.n):
            left = solve_r_role(g, r0)
            gg = build_almost_bipartite(g, x)
            right = solve_k_role(gg.graph, 2, mode="witness")
            if left.answer != right.answer:
                counterexamples.append((sorted(g.edges), x, left.status, right.status))
            elif right.answer:
                assert_observations(gg.graph, right.certificate)
    assert counterexamples == [], (
        f"{len(counterexamples)} (graph, pivot) pairs violate the equivalence; "
        f"first: {counterexamples[0]}"
    )


def test_criterion_7_structural_checks_on_sampled_valid_colorings():
    """Degree bound and role-graph connectivity hold for every valid coloring;
    spot-checked here by exhaustive enumeration on all graphs with n <= 6.
    (assert_observations is also applied to every certificate produced in the
    other criteria, so a violation anywhere fails the run.)"""
    seen = 0
    for g in atlas_graphs():
        if g.n > 6:
            continue
        for k in range(1, g.n + 1):
            for cert in enumerate_k_role(g, k, 25):
                assert_observations(g, cert)
                seen += 1
    assert seen > 1000


def test_criterion_8_fixed_facts():
    """Identity colorings, 2-role colorability of connected bipartite graphs,
    and the non-2-colorability of the 7-point 3-uniform design."""
    rng = random.Random(8)

    # identity coloring is always an n-role coloring
    from generators import random_graph

    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        assert verify_k_role(g, identity_coloring(g)) is None

    # connected bipartite graphs on >= 2 vertices: the bipartition itself works
    for _ in range(100):
        g = random_connected_bipartite(rng, rng.randint(2, 10))
        bp = bipartition(g)
        assert bp and is_connected(g)
        coloring = tuple(1 if v in bp.partX else 2 for v in range(g.n))
        from rolecolor import RoleColoring

        assert_observations(g, RoleColoring(coloring, 2))
        assert solve_k_role(g, 2).answer

    # Fano plane: all 2^7 = 128 assignments leave some line monochromatic
    fano = fano_plane()
    for assignment in product((1, 2), repeat=7):
        assert any(len({assignment[q] for q in e}) == 1 for e in fano.edges)
    assert not hypergraph_k_colorable(fano, 2).answer
    assert not hypergraph_k_colorable(fano, 2, require_surjective=False).answer
