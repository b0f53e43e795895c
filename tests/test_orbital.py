"""Suborbit tables, orbital graphs, connectivity, and double covers.

Graph-side oracles are tiny named graphs (K4, directed 4-cycle, K3,3,
pentagon) whose orbital descriptions can be checked by hand; connectivity
is decided independently by the components kernel (`is_connected`) and by
the stabilizer-generation argument and the two answers must agree
everywhere.
"""

import numpy as np
import pytest

from derangements import orbital, perm
from derangements import (BlockSystem, CertificateError, Graph, PermGroup,
                          Permutation, WreathSpec, block_divisibility_check,
                          connectivity_by_generation, is_connected, m11,
                          mersenne_scenario, natural_action, orbital_graph,
                          paired_suborbit, standard_double_cover, suborbits,
                          verify_double_cover_scenario, wreath)

from tests.conftest import cyclic, dihedral, frobenius21, symmetric


def s3_wr_c2():
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    return wreath(WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                             "imprimitive"))


# ---------------------------------------------------------------------------
# suborbit tables


def test_suborbits_s4():
    t = suborbits(natural_action(symmetric(4), "S4"))
    assert t.entries == [(0, 1), (1, 3)]
    assert t.multiset() == (1, 3)
    assert t.fixed_point_count() == 1
    assert t.prime_entries() == [(1, 3)]


def test_suborbits_regular_action():
    t = suborbits(natural_action(cyclic(4), "C4"))
    assert t.multiset() == (1, 1, 1, 1)
    assert t.fixed_point_count() == 4


def test_suborbits_frobenius():
    t = suborbits(natural_action(frobenius21(), "C7:C3"))
    assert t.multiset() == (1, 3, 3)
    assert [length for _, length in t.prime_entries()] == [3, 3]


def test_suborbits_m11(env):
    # 4-transitive on 11 points, 3-transitive on 12
    assert suborbits(env.m11_action()).multiset() == (1, 10)
    assert suborbits(env.m11_on_12()).multiset() == (1, 11)


def test_subdegrees_do_not_depend_on_base_point():
    A = natural_action(dihedral(4), "D8")
    ref = suborbits(A, 0).multiset()
    for alpha in range(1, 4):
        assert suborbits(A, alpha).multiset() == ref


def test_suborbits_require_transitive():
    G = PermGroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        suborbits(natural_action(G, "intransitive"))


def test_wreath_product_action_has_no_prime_subdegree(env):
    # M11 wr C2 on 144 points: subdegrees 1, 22, 121 -- every nontrivial
    # one is composite, so no prime-valency orbital graph exists here.
    _spec, A = env.wreath144()
    t = suborbits(A)
    assert t.multiset() == (1, 22, 121)
    assert t.prime_entries() == []


# ---------------------------------------------------------------------------
# paired suborbits and orbital graphs


def test_paired_suborbit_directed_cycle():
    A = natural_action(cyclic(4), "C4")
    # the suborbit {1} of the regular C4 pairs with {3}
    assert paired_suborbit(A, 0, 1) == 3
    assert paired_suborbit(A, 0, 2) == 2  # self-paired
    with pytest.raises(ValueError):
        paired_suborbit(A, 1, 1)


@pytest.mark.parametrize("call, alpha, beta", [
    (paired_suborbit, -1, 3),
    (orbital_graph, -1, 3),
    (paired_suborbit, 0, 11),
    (connectivity_by_generation, 0, 11),
], ids=["paired negative", "graph negative", "paired past the end",
        "generation past the end"])
def test_points_out_of_range_are_refused(call, alpha, beta):
    # a negative point must not wrap round to the last one, nor a point
    # past the end read as off the orbit
    A = m11()
    bad = alpha if alpha < 0 else beta
    with pytest.raises(ValueError, match=f"point {bad} out of range"):
        call(A, alpha, beta)
    with pytest.raises(ValueError, match=f"point {bad} out of range"):
        A.group.transversal_inverse(alpha, beta)


def test_transversal_inverse_is_the_row_of_the_full_transversal(corpus):
    # S3 on {0, 1, 2} fixing 3 and 4: targets off the orbit give None
    S3 = PermGroup([Permutation(np.array([1, 0, 2, 3, 4])),
                    Permutation(np.array([1, 2, 0, 3, 4]))])
    cases = [(name, A.group) for name, A in corpus] + [("S3+2", S3)]
    for name, G in cases:
        gens = np.stack([g.images for g in G.generators])
        for alpha in sorted({0, G.degree // 2, G.degree - 1}):
            level = perm._orbit(alpha, gens)
            rows = dict(zip(level.points.tolist(), level.inverse))
            for beta in range(G.degree):
                got = G.transversal_inverse(alpha, beta)
                if beta in rows:
                    assert np.array_equal(got, rows[beta]), (name, beta)
                else:
                    assert got is None, (name, beta)
    assert S3.transversal_inverse(0, 4) is None


def test_orbital_graph_k4():
    g = orbital_graph(natural_action(symmetric(4), "S4"), 0, 1)
    assert g.valency == 3
    assert g.self_paired
    assert g.is_complete()
    assert g.arc_count() == 12
    assert len(g.edge_set()) == 6
    assert is_connected(g)


def test_orbital_graph_certificate_failure_raises(monkeypatch):
    # a wrong point stabilizer gives a suborbit shorter than the valency
    trivial = PermGroup([], degree=4)
    monkeypatch.setattr(PermGroup, "point_stabilizer",
                        lambda self, point: trivial)
    with pytest.raises(CertificateError, match="suborbit length"):
        orbital_graph(natural_action(symmetric(4), "S4"), 0, 1)


def test_orbital_graph_of_an_intransitive_action_raises():
    # S3 on {0, 1, 2} fixing 3 and 4: alpha's orbit misses two points
    S3 = PermGroup([Permutation(np.array([1, 0, 2, 3, 4])),
                    Permutation(np.array([1, 2, 0, 3, 4]))])
    with pytest.raises(CertificateError, match="non-uniform out-valency"):
        orbital_graph(natural_action(S3, "S3 fixing two points"), 0, 1)


def test_orbital_graph_directed_4_cycle():
    g = orbital_graph(natural_action(cyclic(4), "C4"), 0, 1)
    assert not g.self_paired
    assert g.valency == 1
    assert g.edge_set() == {(0, 1), (1, 2), (2, 3), (3, 0)}
    assert is_connected(g)  # weakly


def test_orbital_graph_perfect_matching():
    g = orbital_graph(natural_action(cyclic(4), "C4"), 0, 2)
    assert g.self_paired
    assert g.valency == 1
    assert g.edge_set() == {(0, 2), (1, 3)}
    assert not is_connected(g)


def test_orbital_graph_pentagon():
    g = orbital_graph(natural_action(dihedral(5), "D10"), 0, 1)
    assert g.self_paired and g.valency == 2 and is_connected(g)
    assert len(g.edge_set()) == 5


def test_orbital_graphs_of_imprimitive_wreath():
    A = s3_wr_c2()
    within = orbital_graph(A, 0, 1)
    assert within.valency == 2 and not is_connected(within)
    across = orbital_graph(A, 0, 3)
    # complete bipartite K_{3,3} between the two blocks
    assert across.valency == 3 and across.self_paired
    assert is_connected(across)
    assert len(across.edge_set()) == 9
    with pytest.raises(ValueError):
        orbital_graph(A, 2, 2)


# ---------------------------------------------------------------------------
# connectivity: the components kernel versus stabilizer generation


def test_connectivity_by_generation_agrees_with_search():
    cases = [
        (natural_action(symmetric(4), "S4"), 0, 1, True),
        (natural_action(cyclic(4), "C4"), 0, 2, False),
        (natural_action(dihedral(5), "D10"), 0, 1, True),
        (s3_wr_c2(), 0, 1, False),
        (s3_wr_c2(), 0, 3, True),
    ]
    for A, alpha, beta, expected in cases:
        graph = orbital_graph(A, alpha, beta)
        assert graph.self_paired
        assert is_connected(graph) == expected
        assert connectivity_by_generation(A, alpha, beta) == expected


def test_connectivity_by_generation_m11(env):
    A = env.m11_on_12()
    assert connectivity_by_generation(A, 0, 1)
    g = orbital_graph(A, 0, 1)
    assert g.is_complete() and is_connected(g)


def test_generation_and_block_routes_agree(corpus, env):
    # a self-paired orbital graph is connected exactly when alpha and beta
    # share no proper block: both routes read <G_alpha, u> with alpha^u = beta
    for name, A in corpus + [("a384", env.a384())]:
        G = A.group
        stab = G.point_stabilizer(0)
        for beta, _length in suborbits(A, 0).entries:
            if beta == 0 or paired_suborbit(A, 0, beta) not in stab.orbit(beta):
                continue
            assert connectivity_by_generation(A, 0, beta) == \
                (G.minimal_block_system(0, beta) is None), (name, beta)


def test_connectivity_by_generation_intransitive_group():
    # S3 on {0, 1, 2} fixing 3: <G_0, (0 1)> is all of G, but the orbital
    # graph leaves vertex 3 isolated, so it is not connected
    G = PermGroup([Permutation(np.array([1, 0, 2, 3])),
                   Permutation(np.array([1, 2, 0, 3]))])
    assert not connectivity_by_generation(natural_action(G, "S3+1"), 0, 1)


def test_connectivity_by_generation_rejects_unpaired():
    A = natural_action(cyclic(4), "C4")
    with pytest.raises(ValueError):
        connectivity_by_generation(A, 0, 1)


# ---------------------------------------------------------------------------
# block systems versus suborbits


def test_block_divisibility_wreath():
    A = s3_wr_c2()
    part = BlockSystem(6, [(0, 1, 2), (3, 4, 5)])
    assert part.is_invariant(A.group)
    # same block: requires (and finds) a disconnected orbital graph
    assert block_divisibility_check(A, part, 0, 1)
    # different blocks
    assert block_divisibility_check(A, part, 0, 3)


def test_block_divisibility_c4():
    A = natural_action(cyclic(4), "C4")
    part = BlockSystem(4, [(0, 2), (1, 3)])
    assert block_divisibility_check(A, part, 0, 2)
    assert block_divisibility_check(A, part, 0, 1)


def test_block_divisibility_guards():
    A = s3_wr_c2()
    bad = BlockSystem(6, [(0, 1, 3), (2, 4, 5)])
    with pytest.raises(ValueError):
        block_divisibility_check(A, bad, 0, 1)
    good = BlockSystem(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError):
        block_divisibility_check(A, good, 2, 2)


# ---------------------------------------------------------------------------
# standard double covers


def path2():
    return Graph(n=2, adj=((1,), (0,)))


def triangle():
    return Graph(n=3, adj=((1, 2), (0, 2), (0, 1)))


def square():
    return Graph(n=4, adj=((1, 3), (0, 2), (1, 3), (0, 2)))


def test_double_cover_of_single_edge_splits():
    cover = standard_double_cover(path2())
    assert cover.n == 4
    assert cover.edge_set() == {(0, 3), (1, 2)}
    assert not is_connected(cover)


def test_double_cover_of_triangle_is_hexagon():
    cover = standard_double_cover(triangle())
    assert cover.n == 6
    assert all(len(a) == 2 for a in cover.adj)
    assert is_connected(cover)


def test_double_cover_of_square_splits():
    # bipartite input: the cover is two disjoint squares
    cover = standard_double_cover(square())
    assert cover.n == 8
    assert all(len(a) == 2 for a in cover.adj)
    assert not is_connected(cover)


def test_double_cover_rejects_directed_input():
    directed = Graph(n=2, adj=((1,), ()))
    with pytest.raises(ValueError):
        standard_double_cover(directed)


def list_double_cover(graph):
    """The cover built pair by pair in Python lists, as the oracle."""
    n = graph.n
    for u in range(n):
        for v in graph.adj[u]:
            if u not in graph.adj[v]:
                raise ValueError("double cover needs an undirected graph")
    adj = [[] for _ in range(2 * n)]
    for u in range(n):
        for v in graph.adj[u]:
            adj[u].append(v + n)
            adj[u + n].append(v)
    return Graph(n=2 * n, adj=tuple(tuple(sorted(a)) for a in adj))


def test_double_cover_matches_list_builder(env):
    a384 = env.a384()
    rep = next(rep for rep, length in suborbits(a384, 0).entries
               if length == 127)
    sigma = orbital_graph(a384, 0, rep)
    graphs = [path2(), triangle(), square(),
              Graph(n=5, adj=((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))),
              Graph(n=3, adj=((1,), (0,), ())),
              Graph(n=3, adj=((2, 1), (0,), (0,))),  # a row out of order
              sigma]
    for graph in graphs:
        assert standard_double_cover(graph) == list_double_cover(graph)
    for directed in (Graph(n=2, adj=((1,), ())),
                     Graph(n=4, adj=((1,), (2,), (3,), (0,)))):
        for build in (standard_double_cover, list_double_cover):
            with pytest.raises(ValueError):
                build(directed)


# ---------------------------------------------------------------------------
# the valency-127 double cover


def test_double_cover_scenario_rejects_top_parameter(env):
    scn = mersenne_scenario(127, s=63)
    with pytest.raises(ValueError):
        verify_double_cover_scenario(
            scn, actions={"a_half": env.a384(), "a_full": env.a768(),
                          "line": env.line127()})


def test_double_cover_at_127(env):
    scn = env.scn127()
    report = verify_double_cover_scenario(
        scn, budgets=env.budgets,
        actions={"a_half": env.a384(), "a_full": env.a768(),
                 "line": env.line127()})
    assert report.ok and bool(report)
    assert (report.p, report.s) == (127, 21)
    assert report.sigma.n == 384 and report.gamma.n == 768
    assert report.sigma.valency == 127 == report.gamma.valency
    assert report.edge_count == 768 * 127 // 2
    assert sorted(report.psi) == list(range(768))


def test_double_cover_with_a_moved_arc_is_refused(env, monkeypatch):
    # the last cover vertex trades its first neighbour for a vertex it
    # was not joined to, so one mapped arc leaves the orbital graph
    def scenario():
        return verify_double_cover_scenario(
            env.scn127(), budgets=env.budgets,
            actions={"a_half": env.a384(), "a_full": env.a768(),
                     "line": env.line127()})

    def moved_cover(graph):
        cover = true_cover(graph)
        last, heads = cover.n - 1, cover.adj[-1]
        new = next(v for v in range(cover.n)
                   if v not in heads and v != last)
        adj = cover.adj[:-1] + (tuple(sorted((new,) + heads[1:])),)
        return Graph(n=cover.n, adj=adj)

    good = scenario()
    true_cover = orbital.standard_double_cover
    monkeypatch.setattr(orbital, "standard_double_cover", moved_cover)
    bad = scenario()
    assert good.ok and not bad.ok and not bool(bad)
    assert bad.psi == good.psi
    assert bad.edge_count == good.edge_count == 768 * 127 // 2


def scenario127(env):
    return verify_double_cover_scenario(
        env.scn127(), budgets=env.budgets,
        actions={"a_half": env.a384(), "a_full": env.a768(),
                 "line": env.line127()})


def test_double_cover_psi_with_a_repeated_point_is_refused(env, monkeypatch):
    # the second half of psi sends its last point where its first goes
    cc_full = env.a768().parent
    true_index_of = cc_full.index_of

    def repeating_index_of(rows):
        points = true_index_of(rows).copy()
        points[-1] = points[0]
        return points

    monkeypatch.setattr(cc_full, "index_of", repeating_index_of)
    with pytest.raises(CertificateError, match="psi is not a bijection"):
        scenario127(env)


def test_double_cover_with_an_arc_listed_twice_is_refused(env, monkeypatch):
    # the last cover vertex lists its first neighbour twice in a row: the
    # arc set is unchanged, but the arc list is one longer than gamma's
    def doubled_cover(graph):
        cover = true_cover(graph)
        heads = cover.adj[-1]
        return Graph(n=cover.n, adj=cover.adj[:-1] + ((heads[0],) + heads,))

    good = scenario127(env)
    true_cover = orbital.standard_double_cover
    monkeypatch.setattr(orbital, "standard_double_cover", doubled_cover)
    bad = scenario127(env)
    assert good.ok and not bad.ok
    assert bad.psi == good.psi
    assert bad.edge_count == good.edge_count == 768 * 127 // 2


# ---------------------------------------------------------------------------
# the gathered orbital graph against a pair-BFS oracle


def pair_bfs_adjacency(A, alpha, beta):
    """Adjacency of the orbit of (alpha, beta) on ordered pairs, by BFS."""
    n = A.degree
    gens = [g.images for g in A.group.generators]
    seen = {(alpha, beta)}
    frontier = [(alpha, beta)]
    while frontier:
        nxt = []
        for u, v in frontier:
            for img in gens:
                arc = (int(img[u]), int(img[v]))
                if arc not in seen:
                    seen.add(arc)
                    nxt.append(arc)
        frontier = nxt
    adj = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
    return tuple(tuple(sorted(a)) for a in adj), seen


def check_against_pair_bfs(A):
    for rep, length in suborbits(A, 0).entries:
        if rep == 0:
            continue
        graph = orbital_graph(A, 0, rep)
        adj, arcs = pair_bfs_adjacency(A, 0, rep)
        assert graph.adj == adj
        assert graph.valency == length
        assert graph.self_paired == all((v, u) in arcs for u, v in arcs)


def test_orbital_graph_matches_pair_bfs_on_corpus(corpus):
    for _name, A in corpus:
        check_against_pair_bfs(A)


def test_orbital_graph_matches_pair_bfs_on_coset_actions(psl2_31_on_96, env):
    check_against_pair_bfs(psl2_31_on_96)
    check_against_pair_bfs(env.m10_on_12())


# ---------------------------------------------------------------------------
# the head matrix of an orbital graph against its tuple view


def check_array_form_against_tuple_form(A):
    for rep, _length in suborbits(A, 0).entries:
        if rep == 0:
            continue
        graph = orbital_graph(A, 0, rep)
        assert graph.arc_count() == graph.n * graph.valency
        complete = graph.is_complete()
        edges = graph.edge_set()
        assert "adj" not in vars(graph)  # no tuple view built so far
        plain = Graph(graph.n, graph.adj)
        for got, want in zip(orbital._arcs(graph), orbital._arcs(plain)):
            assert np.array_equal(got, want)
        assert graph.arc_count() == plain.arc_count()
        assert edges == (plain.edge_set() if graph.self_paired else
                         {(u, v) for u in range(plain.n) for v in plain.adj[u]})
        assert complete == (graph.self_paired
                            and len(edges) == plain.n * (plain.n - 1) // 2)
        assert is_connected(graph) == is_connected(plain)
        if graph.self_paired:
            assert standard_double_cover(graph).adj \
                == standard_double_cover(plain).adj
        else:
            for form in (graph, plain):
                with pytest.raises(ValueError):
                    standard_double_cover(form)


def test_orbital_graph_array_form_matches_tuple_form_on_corpus(corpus):
    for _name, A in corpus:
        check_array_form_against_tuple_form(A)


def test_orbital_graph_array_form_matches_tuple_form_on_a384(env):
    check_array_form_against_tuple_form(env.a384())


def test_orbital_graph_heads_are_read_only():
    graph = orbital_graph(natural_action(symmetric(4), "S4"), 0, 1)
    with pytest.raises(ValueError):
        graph.heads[0, 0] = 0
