"""The components kernel against the walks it replaced.

`perm._components` answers "which points belong together" for orbits,
point-stabilizer orbits (suborbits), minimal block systems, conjugacy
classes and orbital-graph connectivity.  The oracles below are the set BFS
and union-find walks those routes used before; on every corpus action the
two must give the same partitions.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from derangements import (BlockSystem, Graph, is_connected, orbital_graph,
                          standard_double_cover, suborbits)
from derangements.perm import _components


def bfs_orbit(G, point):
    seen = {point}
    queue = [point]
    while queue:
        pt = queue.pop()
        for g in G.generators:
            q = int(g.images[pt])
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def bfs_orbits(G):
    seen = set()
    out = []
    for pt in range(G.degree):
        if pt not in seen:
            orb = bfs_orbit(G, pt)
            seen |= orb
            out.append(sorted(orb))
    return out


def union_find_blocks(G, alpha, beta):
    """Cells of the finest block system joining alpha and beta, or None."""
    parent = list(range(G.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        u, v = queue.pop()
        for g in G.generators:
            a, b = int(g.images[u]), int(g.images[v])
            if union(a, b):
                queue.append((a, b))
    cells = {}
    for pt in range(G.degree):
        cells.setdefault(find(pt), []).append(pt)
    blocks = sorted(tuple(sorted(c)) for c in cells.values())
    return None if len(blocks) == 1 else blocks


def set_invariant(cells, G):
    cell_set = set(cells)
    return all(tuple(sorted(int(g.images[p]) for p in cell)) in cell_set
               for g in G.generators for cell in cells)


def union_find_connected(graph):
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(graph.n):
        for v in graph.adj[u]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
    return len({find(x) for x in range(graph.n)}) == 1


def bfs_least_points(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    least = [-1] * n
    for start in range(n):  # ascending, so start is its component's least
        if least[start] >= 0:
            continue
        least[start] = start
        queue = [start]
        while queue:
            p = queue.pop()
            for q in adj[p]:
                if least[q] < 0:
                    least[q] = start
                    queue.append(q)
    return least


def test_orbits_match_bfs_on_corpus(corpus, psl2_31_on_96):
    for name, A in corpus + [("PSL(2,31) on 96", psl2_31_on_96)]:
        G = A.group
        assert G.orbits() == bfs_orbits(G), name
        assert G.orbit(0) == bfs_orbit(G, 0), name
        assert G.is_transitive(), name
        for alpha in range(G.degree):
            stab = G.point_stabilizer(alpha)
            assert stab.orbits() == bfs_orbits(stab), (name, alpha)


def test_minimal_block_systems_match_union_find_on_corpus(corpus,
                                                          psl2_31_on_96):
    for name, A in corpus + [("PSL(2,31) on 96", psl2_31_on_96)]:
        G = A.group
        for beta in range(1, G.degree):
            bs = G.minimal_block_system(0, beta)
            want = union_find_blocks(G, 0, beta)
            if want is None:
                assert bs is None, (name, beta)
                continue
            assert bs.cells == want, (name, beta)
            assert bs.is_invariant(G) and set_invariant(want, G)
            assert all(bs.cell_of(p) == i
                       for i, cell in enumerate(want) for p in cell)
            if bs.cell_count > 1 and bs.cell_size > 1:
                # swap two points between the first two cells
                c0, c1 = list(want[0]), list(want[1])
                c0[0], c1[0] = c1[0], c0[0]
                moved = BlockSystem(G.degree, [c0, c1] + want[2:])
                assert moved.is_invariant(G) == set_invariant(moved.cells, G)


def test_is_connected_matches_union_find_on_corpus(corpus, psl2_31_on_96):
    covers = 0
    for name, A in corpus + [("PSL(2,31) on 96", psl2_31_on_96)]:
        for rep, _length in suborbits(A, 0).entries:
            if rep == 0:
                continue
            graph = orbital_graph(A, 0, rep)
            assert is_connected(graph) == union_find_connected(graph), name
            if graph.self_paired:
                cover = standard_double_cover(graph)
                assert is_connected(cover) == union_find_connected(cover)
                covers += 1
    assert covers > 0


def test_is_connected_on_double_covers_of_test_graphs():
    graphs = [Graph(n=2, adj=((1,), (0,))),
              Graph(n=3, adj=((1, 2), (0, 2), (0, 1))),
              Graph(n=4, adj=((1, 3), (0, 2), (1, 3), (0, 2))),
              Graph(n=5, adj=((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))),
              Graph(n=3, adj=((1,), (0,), ()))]
    for graph in graphs:
        cover = standard_double_cover(graph)
        assert is_connected(graph) == union_find_connected(graph)
        assert is_connected(cover) == union_find_connected(cover)


def edge_lists(n_max=30):
    # self-loops are allowed, and points that no edge touches are isolated
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n)))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
@example((5, [(0, 0), (3, 1), (4, 3)]))  # a self-loop; 2 is isolated
def test_components_match_bfs_on_random_edge_lists(case):
    n, edges = case
    u = [a for a, _ in edges]
    v = [b for _, b in edges]
    assert _components(n, u, v).tolist() == bfs_least_points(n, edges)
