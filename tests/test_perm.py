import itertools
import math

import numpy as np
import pytest

from derangements import (BlockSystem, CertificateError, PermGroup,
                          Permutation, WreathSpec, conjugate, commutator,
                          derangement_backtrack, m11, natural_action,
                          parse_cycles, projective_line_action, wreath)
import derangements.perm as perm_module
from derangements.perm import StabilizerChain, _inverse_rows

from tests.conftest import (alternating, cyclic, dihedral,
                            enumerate_elements, frobenius21, klein4,
                            symmetric)


def test_composition_is_left_to_right():
    # (a*b)(x) = b(a(x)): apply a first.
    a = Permutation(np.array([1, 0, 2]))  # (0 1)
    b = Permutation(np.array([0, 2, 1]))  # (1 2)
    ab = a * b
    assert ab(0) == b(a(0)) == 2
    assert a * b == ab
    assert (a * b) * a == a * (b * a)


def test_inverse_and_power():
    g = Permutation.from_cycles(6, [(0, 1, 2, 3, 4)])
    assert (g * g.inverse()).is_identity()
    assert g ** 5 == Permutation.identity(6)
    assert g ** -1 == g.inverse()
    assert g ** 3 == g * g * g
    assert g.order() == 5


def test_cycles_and_cycle_string():
    g = Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])
    assert [list(c) for c in g.cycles()] == [[0, 1, 2], [3, 4]]
    assert g.cycle_string() == "(1,2,3)(4,5)"
    assert Permutation.identity(3).cycle_string() == "()"
    assert g.cycle_type() == (3, 2)
    assert sorted(g.fixed_points()) == [5, 6]


def test_parse_cycles_round_trip():
    cycles = parse_cycles("(1 2 3)(4 5)")
    assert [list(c) for c in cycles] == [[1, 2, 3], [4, 5]]
    g = Permutation.from_cycles(7, cycles, first=1)
    assert g.cycle_string() == "(1,2,3)(4,5)"
    assert [list(c) for c in parse_cycles("(1,2,3)")] == [[1, 2, 3]]
    assert parse_cycles("()") == []
    with pytest.raises(ValueError):
        parse_cycles("(1 2")
    with pytest.raises(ValueError):
        parse_cycles("(1 2 2)")


def test_conjugate_and_commutator():
    x = Permutation.from_cycles(5, [(0, 1, 2)])
    g = Permutation.from_cycles(5, [(2, 3, 4)])
    # conjugation preserves cycle type and relabels points by g
    assert conjugate(x, g).cycle_type() == x.cycle_type()
    assert conjugate(x, g) == g.inverse() * x * g
    assert commutator(x, g) == x.inverse() * g.inverse() * x * g


def naive_closure(gens, degree):
    seen = {Permutation.identity(degree).key()}
    frontier = [Permutation.identity(degree)]
    elems = list(frontier)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.key() not in seen:
                    seen.add(y.key())
                    new.append(y)
                    elems.append(y)
        frontier = new
    return elems


@pytest.mark.parametrize("factory,expected", [
    (lambda: symmetric(4), 24),
    (lambda: alternating(5), 60),
    (lambda: cyclic(7), 7),
    (lambda: dihedral(6), 12),
    (lambda: klein4(), 4),
])
def test_chain_order_matches_naive_closure(factory, expected):
    G = factory()
    assert G.order() == expected
    assert len(naive_closure(G.generators, G.degree)) == expected


def test_membership():
    G = alternating(5)
    assert G.contains(Permutation.from_cycles(5, [(0, 1, 2)]))
    assert not G.contains(Permutation.from_cycles(5, [(0, 1)]))
    for x in enumerate_elements(G):
        assert G.contains(x)


def test_orbit_stabilizer():
    G = symmetric(5)
    H = G.point_stabilizer(0)
    assert H.order() == 24
    assert len(G.orbit(0)) * H.order() == G.order()
    assert all(g.images[0] == 0 for g in H.generators)


def test_bounded_point_stabilizer_matches_unbounded(corpus, env):
    # point_stabilizer builds G_alpha under |G|/|alpha^G|; the same
    # generators without a bound must give the same group
    rng = np.random.default_rng(11)
    for name, A in corpus + [("a384", env.a384())]:
        G = A.group
        for alpha in (0, G.degree - 1):
            H = G.point_stabilizer(alpha)
            U = PermGroup(H.generators, degree=G.degree)
            assert H.order() == U.order() \
                == G.order() // len(G.orbit(alpha)), (name, alpha)
            xs = [G.random_element(rng) for _ in range(25)] + \
                [U.random_element(rng) for _ in range(25)]
            for x in xs:
                fixes = bool(x.images[alpha] == alpha)
                assert H.contains(x) == U.contains(x) == fixes, (name, alpha)


def test_orbits_partition():
    g = Permutation.from_cycles(6, [(0, 1), (2, 3, 4)])
    G = PermGroup([g])
    orbs = sorted(sorted(o) for o in G.orbits())
    assert orbs == [[0, 1], [2, 3, 4], [5]]
    assert not G.is_transitive()
    assert symmetric(4).is_transitive()


def test_normal_closure_and_derived():
    S4 = symmetric(4)
    v = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    V = S4.normal_closure([v])
    assert V.order() == 4
    assert S4.is_normal(V)
    assert S4.derived_subgroup().order() == 12  # A4
    A4 = alternating(4)
    assert A4.derived_subgroup().order() == 4  # V4


def test_block_systems():
    D8 = dihedral(4)
    bs = D8.minimal_block_system(0, 2)
    assert bs is not None
    assert sorted(tuple(sorted(c)) for c in bs.cells) == [(0, 2), (1, 3)]
    assert bs.is_invariant(D8)
    assert not D8.is_primitive()
    assert symmetric(5).is_primitive()
    # a regular cyclic group of prime order is primitive
    assert cyclic(5).is_primitive()
    assert not cyclic(6).is_primitive()
    assert cyclic(6).nontrivial_block_system() is not None
    assert symmetric(5).nontrivial_block_system() is None


def scanned_block_system(G):
    """The first minimal system over every pair (0, beta): the scan that
    one beta per G_0-orbit must reproduce."""
    return next((bs for beta in range(1, G.degree)
                 if (bs := G.minimal_block_system(0, beta)) is not None),
                None)


def test_one_beta_per_suborbit_finds_the_scanned_block_system(env):
    cases = [("C6", cyclic(6)), ("D8", dihedral(4)),
             ("a384", env.a384().group)]
    for name, G in cases:
        want = scanned_block_system(G)
        assert want is not None, name
        assert G.nontrivial_block_system().cells == want.cells, name
    # the product action of M11 wr C2 on 144 points is primitive
    W = env.wreath144()[1].group
    assert scanned_block_system(W) is None
    assert W.nontrivial_block_system() is None


def test_nontrivial_block_system_tries_one_beta_per_suborbit(env,
                                                             monkeypatch):
    G = env.wreath144()[1].group
    calls = []
    inner = PermGroup.minimal_block_system
    monkeypatch.setattr(PermGroup, "minimal_block_system",
                        lambda self, a, b: calls.append(b) or inner(self, a, b))
    assert G.is_primitive()
    # 144 = 1 + 22 + 121: one call per nontrivial G_0-orbit, not 143
    reps = [orbit[0] for orbit in G.point_stabilizer(0).orbits()[1:]]
    assert calls == reps and len(calls) == 2


def test_block_image_that_overlaps_a_cell_is_refused(monkeypatch):
    # with G_0 taken as trivial, <u> for alpha^u = 2 is not the block of an
    # overgroup of G_0, and S4 has no block {0, 2}: the walk must refuse it
    S4 = symmetric(4)
    monkeypatch.setattr(PermGroup, "point_stabilizer",
                        lambda self, point: PermGroup([], degree=self.degree))
    with pytest.raises(CertificateError, match="meets a cell"):
        S4.minimal_block_system(0, 2)


def test_block_system_points_are_checked():
    # a negative point must not wrap round to the last one, nor a point past
    # the end raise a bare IndexError
    with pytest.raises(ValueError, match="point -1 out of range"):
        cyclic(6).minimal_block_system(-1, 2)
    with pytest.raises(ValueError, match="point 11 out of range"):
        m11().group.minimal_block_system(0, 11)


def test_block_system_validation():
    with pytest.raises(ValueError):
        BlockSystem(4, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(ValueError):
        BlockSystem(4, [[0, 1]])  # not a partition
    bs = BlockSystem(4, [[0, 1], [2, 3]])
    assert bs.cell_of(3) == bs.cell_of(2)


def test_enumerate_elements_counts():
    G = symmetric(4)
    elems = list(enumerate_elements(G))
    assert len(elems) == 24
    assert len({e.key() for e in elems}) == 24


def test_element_batches_identity_group():
    G = PermGroup([], degree=5)
    batches = list(G.element_batches())
    assert len(batches) == 1 and batches[0].shape == (1, 5)


def test_element_batches_are_bounded_blocks_in_enumeration_order(monkeypatch):
    G = symmetric(9)
    n = G.degree
    widest = max(len(lvl.inverse) for lvl in G.chain.levels)

    def chunks():
        batches = list(G.element_batches())
        cap = max(perm_module._BATCH_ENTRIES // n, widest)
        for b in batches:
            assert b.dtype == np.min_scalar_type(n - 1) and b.shape[1] == n
            assert 0 < len(b) <= cap
        return batches

    default = chunks()
    small_chunks(monkeypatch, G)
    small = chunks()
    monkeypatch.setattr(perm_module, "_BATCH_ENTRIES", 1 << 30)
    whole = chunks()
    assert len(whole) == 1 < len(default) < len(small)
    for batches in (small, whole):
        assert np.array_equal(np.concatenate(batches),
                              np.concatenate(default))


def explicit_products(G):
    """Image rows of t_{k-1} * ... * t_0 over itertools.product of the
    level indices, lexicographic in (t_0, ..., t_{k-1}); the forward rows
    t_i are the chain's inverse rows inverted."""
    levels = [_inverse_rows(lvl.inverse) for lvl in G.chain.levels]
    index = np.array(list(itertools.product(*(range(len(T)) for T in levels))),
                     dtype=np.int64).reshape(-1, len(levels))
    rows = np.tile(np.arange(G.degree), (len(index), 1))
    for i, T in enumerate(levels):  # t_i applies before t_{i-1}
        rows = np.take_along_axis(rows, T[index[:, i]], axis=1)
    return rows


def test_element_batches_are_the_explicit_products(corpus):
    for name, G in [(name, A.group) for name, A in corpus] + [
            ("S9", symmetric(9))]:
        got = np.concatenate(list(G.element_batches()))
        assert np.array_equal(got, explicit_products(G)), name


def naive_derangement(G, r):
    for x in enumerate_elements(G):
        if x.order() == r and x.num_fixed() == 0:
            return x
    return None


@pytest.mark.parametrize("factory", [
    lambda: symmetric(4),
    lambda: alternating(5),
    lambda: dihedral(6),
    lambda: cyclic(6),
    lambda: klein4(),
])
def test_backtrack_matches_enumeration(factory):
    G = factory()
    for r in (2, 3, 5):
        found = derangement_backtrack(G, r)
        expected = naive_derangement(G, r)
        assert (found is None) == (expected is None)
        if found is not None:
            assert found.order() == r
            assert found.num_fixed() == 0
            assert G.contains(found)


def node_by_node_backtrack(G, r):
    """A coset backtrack one DFS node at a time on int64 rows: the oracle
    for derangement_backtrack's filter over the level-at-a-time element
    scan.  It prunes every node fixing a chosen base point, which drops
    no derangement, and skips the r | degree shortcut."""
    if G.order() % r != 0:
        return None
    chain = G.chain
    levels = [_inverse_rows(lvl.inverse) for lvl in chain.levels]
    if not levels:
        return None
    ident = np.arange(G.degree, dtype=np.int64)
    stack = [(0, None)]  # (level, t_{i-1} * ... * t_0)
    while stack:
        i, partial = stack.pop()
        rows = levels[i]
        new = rows if partial is None else partial[rows]
        bases = chain.base[: i + 1]
        new = new[(new[:, bases] != bases).all(axis=1)]
        if i + 1 < len(levels):
            stack.extend((i + 1, child) for child in new[::-1])
            continue
        new = new[~(new == ident).any(axis=1)]
        new = new[(perm_module.batch_power(new, r) == ident).all(axis=1)]
        if len(new):
            return Permutation._raw(new[0].copy())
    return None


def small_chunks(monkeypatch, G):
    """Chunks of three parents at the widest level (more at the others),
    so every level with more than a few parents spans several chunks."""
    widest = max((len(lvl.inverse) for lvl in G.chain.levels), default=1)
    monkeypatch.setattr(perm_module, "_BATCH_ENTRIES",
                        3 * G.degree * widest)


def check_backtrack_agrees(G, r):
    """The first witness in DFS order, or None after the full scan, as
    the oracle finds it."""
    got = derangement_backtrack(G, r)
    want = node_by_node_backtrack(G, r)
    assert (got is None) == (want is None), r
    if got is not None:
        assert got.images.dtype == np.int64
        assert np.array_equal(got.images, want.images), r


@pytest.mark.parametrize("chunks", ["default", "small"])
def test_backtrack_matches_node_by_node_oracle(corpus, psl2_31_on_96,
                                              monkeypatch, chunks):
    witnesses = 0
    for name, A in corpus + [("PSL(2,31) on 96", psl2_31_on_96)]:
        if chunks == "small":
            small_chunks(monkeypatch, A.group)
        for r in (2, 3, 5, 7):
            check_backtrack_agrees(A.group, r)
            witnesses += derangement_backtrack(A.group, r) is not None
    assert witnesses >= 20  # most cases are NotElusive, so order matters


@pytest.mark.parametrize("chunks", ["default", "small"])
def test_backtrack_first_witness_on_a384_matches_oracle(env, monkeypatch,
                                                        chunks):
    # a NotElusive case on a 1,024,128-node tree: the first witness in DFS
    # order comes from deep inside the first chunks
    G = env.a384().group
    if chunks == "small":
        small_chunks(monkeypatch, G)
    check_backtrack_agrees(G, 2)


def test_random_element_lands_in_group():
    G = alternating(5)
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert G.contains(G.random_element(rng))


def test_chain_base_images_determine_elements():
    # two distinct elements never share all base-point images
    G = symmetric(4)
    base = G.chain.base
    seen = {}
    for x in enumerate_elements(G):
        k = tuple(int(x.images[b]) for b in base)
        assert k not in seen
        seen[k] = x


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PermGroup([Permutation(np.array([1, 0])),
                   Permutation(np.array([1, 2, 0]))])
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))


def test_identity_group_order():
    G = PermGroup([], degree=3)
    assert G.order() == 1
    assert sorted(sorted(o) for o in G.orbits()) == [[0], [1], [2]]


def test_chain_level_rows_are_transversals(corpus):
    for name, A in corpus:
        chain = A.group.chain
        for i, lvl in enumerate(chain.levels):
            assert lvl.point == chain.base[i], name
            assert (np.diff(lvl.points) > 0).all(), name
            assert sorted(lvl.discovered.tolist()) == lvl.points.tolist()
            rows = _inverse_rows(lvl.inverse)
            assert (rows[:, lvl.point] == lvl.points).all(), name
            for b in chain.base[:i]:
                assert (rows[:, b] == b).all(), name
            # the stored inverse rows send points[k] back to the base point
            k = np.arange(len(lvl.points))
            assert (lvl.inverse[k, lvl.points] == lvl.point).all(), name
            for b in chain.base[:i]:
                assert (lvl.inverse[:, b] == b).all(), name
            index = np.full(A.degree, -1)
            index[lvl.points] = np.arange(len(lvl.points))
            assert (lvl.index == index).all(), name


def test_canonical_coset_row_is_least_in_its_coset(m11_12):
    cc = m11_12.parent
    G, H = cc.parent_group, cc.stabilizer
    chain = H.chain
    hrows = np.concatenate(list(H.element_batches()))
    rng = np.random.default_rng(2016)
    xs = np.stack([G.random_element(rng).images for _ in range(50)])
    got = chain.canonical_rows(xs)
    for x, row in zip(xs, got):
        coset = x[hrows]  # rows of h * x for every h in H
        keys = coset[:, chain.base]
        least = coset[np.lexsort(keys.T[::-1])[0]]
        assert (row == least).all()


# ---------------------------------------------------------------------------
# inverse transversal rows against forward-row references


def point_by_point_orbit(point, gens, n):
    """The orbit of `point` in breadth-first order and, per point q, the
    representative u with point^u = q as a product of Permutations: the
    reference for _orbit."""
    reps = {point: Permutation.identity(n)}
    order = [point]
    for p in order:  # grows while it is walked
        for g in gens:
            q = g(p)
            if q not in reps:
                reps[q] = reps[p] * g
                order.append(q)
    return order, reps


def random_partial_permutation(rng, n):
    """A random permutation of a random subset of the points, so that
    orbits are often proper."""
    img = np.arange(n)
    moved = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    img[moved] = rng.permutation(moved)
    return Permutation(img)


def gen_rows(gens, n):
    return np.array([g.images for g in gens],
                    dtype=np.int64).reshape(len(gens), n)


@pytest.mark.parametrize("seed", range(5))
def test_orbit_matches_point_by_point_bfs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        gens = [random_partial_permutation(rng, n)
                for _ in range(int(rng.integers(0, 4)))]
        point = int(rng.integers(0, n))
        rows = gen_rows(gens, n)
        orbit = perm_module._orbit(point, rows)
        order, reps = point_by_point_orbit(point, gens, n)
        assert orbit.point == point
        assert orbit.discovered.tolist() == order
        assert orbit.points.tolist() == sorted(order)
        index = np.full(n, -1)
        index[sorted(order)] = np.arange(len(order))
        assert (orbit.index == index).all()
        assert orbit.inverse.shape == (len(order), n)
        for k, q in enumerate(orbit.points.tolist()):
            # row k is u^-1 for this very u: u * u^-1 is the identity
            assert (orbit.inverse[k][reps[q].images] == np.arange(n)).all()


def test_orbit_under_no_generators_is_the_point():
    orbit = perm_module._orbit(3, np.empty((0, 5), dtype=np.int64))
    assert orbit.points.tolist() == orbit.discovered.tolist() == [3]
    assert orbit.index.tolist() == [-1, -1, -1, 0, -1]
    assert orbit.inverse.tolist() == [[0, 1, 2, 3, 4]]


def check_inverse_representatives(orbit, gens, n):
    """Every row of `orbit` is the inverse of an element of <gens> sending
    the orbit's point to the row's point."""
    G = PermGroup(gens, degree=n)
    k = np.arange(len(orbit.points))
    assert (orbit.inverse[k, orbit.points] == orbit.point).all()
    for row in orbit.inverse:
        assert G.contains(Permutation(row))


@pytest.mark.parametrize("seed", range(5))
def test_grow_by_a_generator_matches_orbit_from_scratch(seed):
    rng = np.random.default_rng(100 + seed)
    grown_count = 0
    for _ in range(40):
        n = int(rng.integers(1, 13))
        gens = [random_partial_permutation(rng, n)
                for _ in range(int(rng.integers(0, 4)))]
        point = int(rng.integers(0, n))
        old = perm_module._orbit(point, gen_rows(gens, n))
        gens.append(random_partial_permutation(rng, n))
        rows = gen_rows(gens, n)
        grown = perm_module._grow(old, rows, len(gens) - 1)
        order, _ = point_by_point_orbit(point, gens, n)
        assert grown.points.tolist() == sorted(order) == \
            perm_module._orbit(point, rows).points.tolist()
        assert grown.point == point
        assert sorted(grown.discovered.tolist()) == sorted(order)
        # old rows and the old discovery order are kept
        assert grown.discovered[:len(old.points)].tolist() == \
            old.discovered.tolist()
        assert np.array_equal(grown.inverse[grown.index[old.points]],
                              old.inverse)
        index = np.full(n, -1)
        index[grown.points] = np.arange(len(grown.points))
        assert (grown.index == index).all()
        check_inverse_representatives(grown, gens, n)
        grown_count += grown is not old
    assert grown_count >= 10  # most cases grow


def test_grow_by_a_member_keeps_the_orbit_object():
    rows = gen_rows(frobenius21().generators, 7)
    orbit = perm_module._orbit(0, rows)
    product = rows[1][rows[0]]  # rows[0] * rows[1] maps the orbit into itself
    assert perm_module._grow(orbit, np.vstack([rows, product]), 2) is orbit
    # (3 4) fixes the first three base points of S5, so it joins levels
    # 0..3, and keeps each closed: every level object stays
    chain = StabilizerChain(5, symmetric(5).generators)
    assert chain.base == [0, 1, 2, 3]
    before = list(chain.levels)
    assert chain._add_strong(np.array([0, 1, 2, 4, 3])) == 3
    assert len(chain.levels) == len(before)
    assert all(a is b for a, b in zip(before, chain.levels))


def test_levels_after_normal_closure_are_orbits_of_their_generators(env):
    _spec, W = env.wreath144()
    socle = W.declared_socle
    top = next(g for g in W.group.generators if not socle.subgroup.contains(g))
    for seed in (socle.factors[0].generators[0], top):
        G = PermGroup(W.group.generators)
        chain = G.normal_closure([seed]).chain
        for i, lvl in enumerate(chain.levels):
            gens = chain._level_gens(i)
            scratch = perm_module._orbit(chain.base[i], gens)
            assert lvl.points.tolist() == scratch.points.tolist(), i
            assert sorted(lvl.discovered.tolist()) == lvl.points.tolist()
            k = np.arange(len(lvl.points))
            assert (lvl.inverse[k, lvl.points] == chain.base[i]).all(), i


def forward_rows(lvl):
    """A level's forward rows u, by argsort of the stored u^-1."""
    return np.argsort(lvl.inverse, axis=1)


def test_random_element_matches_forward_rows(corpus, env):
    for name, A in corpus + [("M11 wr C2 on 144", env.wreath144()[1])]:
        chain = A.group.chain
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(5):
            img = np.arange(A.degree)
            for lvl in reversed(chain.levels):
                pts = lvl.discovered
                u = forward_rows(lvl)[
                    lvl.index[pts[int(ref.integers(0, len(pts)))]]]
                img = u[img]  # img * u
            assert np.array_equal(chain.random_element(rng).images, img), name


def test_canonical_row_matches_forward_rows(corpus, m11_12):
    cc = m11_12.parent
    cases = [(name, A.group, A.group.point_stabilizer(0))
             for name, A in corpus]
    cases.append(("M11 on 12 cosets", cc.parent_group, cc.stabilizer))
    rng = np.random.default_rng(9)
    for name, G, H in cases:
        chain = H.chain
        xs = np.stack([G.random_element(rng).images for _ in range(10)])
        for x, row in zip(xs, chain.canonical_rows(xs)):
            img = x
            for lvl in chain.levels:
                u = forward_rows(lvl)[int(np.argmin(img[lvl.points]))]
                img = img[u]  # u * img
            assert np.array_equal(row, img), name


@pytest.mark.parametrize("dtype, n, m", [(np.uint8, 200, 40),
                                         (np.uint16, 300, 250),
                                         (np.int64, 50, 7)])
def test_batch_power_matches_repeated_composition(dtype, n, m):
    # m * n exceeds the dtype's range, so the row offsets must not wrap
    rng = np.random.default_rng(3)
    rows = np.array([rng.permutation(n) for _ in range(m)]).astype(dtype)
    want = np.tile(np.arange(n), (m, 1))
    for e in range(10):
        got = perm_module.batch_power(rows, e)
        assert np.array_equal(got, want), e
        want = np.array([row[w] for row, w in zip(rows, want)])


# ---------------------------------------------------------------------------
# chains and closures that stop at a certified order


def outside_elements(G, rng, count):
    """`count` seeded elements of Sym(n) outside G, or none when G is the
    whole symmetric group."""
    if G.order() == math.factorial(G.degree):
        return []
    out = []
    while len(out) < count:
        x = Permutation(rng.permutation(G.degree))
        if not G.contains(x):
            out.append(x)
    return out


def test_bounded_chain_agrees_with_full_sweep(corpus, psl2_31_on_96, env):
    # each group with a proven bound on its order, reached in every case:
    # its own order; the parent's order for a coset image, a quotient of
    # the parent; the product of the factor orders for a declared socle's
    # join, as validate builds it.  On M11 wr C2 the random phase falls
    # short of the order, so the bounded build must still run the sweep
    cases = [(name, A.group, A.order())
             for name, A in corpus + [("PSL(2,31) on 96", psl2_31_on_96),
                                      ("M11 wr C2 on 144", env.wreath144()[1])]]
    for name, A in (("a384 image", env.a384()), ("M11 on 12 image",
                                                 env.m11_on_12())):
        cases.append((name, PermGroup(A.group.generators),
                      A.parent.parent_group.order()))
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    s3_wr_c2 = wreath(WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                                 "product"), declare_socle=True)
    for name, W in (("S3 wr C2 socle join", s3_wr_c2),
                    ("M11 wr C2 socle join", env.wreath144()[1])):
        factors = W.declared_socle.factors
        join = PermGroup(list(dict.fromkeys(
            g for F in factors for g in F.generators)), degree=W.degree)
        cases.append((name, join, math.prod(F.order() for F in factors)))
    rng = np.random.default_rng(6)
    for name, G, bound in cases:
        inside = [G.random_element(rng) for _ in range(50)]
        outside = outside_elements(G, rng, 50)
        for prefix in ([], [G.degree - 1]):
            full = StabilizerChain(G.degree, G.generators, prefix)
            bounded = StabilizerChain(G.degree, G.generators, prefix,
                                      bound=bound)
            assert bounded.order() == full.order() == bound, name
            # the early stop leaves the chain the full sweep would build
            assert bounded.base == full.base, name
            assert [lvl.points.tolist() for lvl in bounded.levels] == \
                [lvl.points.tolist() for lvl in full.levels], name
            assert len(bounded.strong) == len(full.strong), name
            assert all(bounded.contains(x) for x in inside), name
            assert not any(bounded.contains(x) or full.contains(x)
                           for x in outside), name


def test_bound_below_the_order_raises():
    # 119 = 7 * 17 is no product of orbit lengths on 5 points, so the build
    # passes over it; C7:C3 has basic orbits of lengths 7 and 3, and 20 lies
    # between their partial products 7 and 21
    G = symmetric(5)
    with pytest.raises(CertificateError):
        StabilizerChain(5, G.generators, bound=119)
    with pytest.raises(CertificateError):
        StabilizerChain(7, frobenius21().generators, bound=20)


def test_image_bound_below_its_order_raises(env):
    # half the parent's order is no proven bound on a faithful image; no
    # partial product of the image's basic orbit lengths equals it, so the
    # build passes over it and refutes it
    A = env.m11_on_12()
    with pytest.raises(CertificateError, match="exceeds the certified bound"):
        PermGroup(A.group.generators,
                  bound=A.parent.parent_group.order() // 2).order()


def rebuilt_closure(G, seeds):
    """<seeds^G> by the plain round loop: a fresh unbounded group per round,
    until every conjugate of every generator sifts into it."""
    gens = [x for x in seeds if not x.is_identity()]
    while True:
        K = PermGroup(gens, degree=G.degree)
        new = [c for c in (conjugate(x, g) for x in gens for g in G.generators)
               if not K.contains(c)]
        if not new:
            return K
        gens = list(dict.fromkeys(gens + new))


def check_closures_against_rebuilt(generators, seeds):
    """Closures of `seeds`, in order, in one group (which keeps each
    closure to bound the next) against the rebuild loop per closure; a
    repeated seed, or a closure equal to one kept or to G, returns that
    same object."""
    G = PermGroup(generators)
    kept = [G]
    for x in seeds:
        got = G.normal_closure([x])
        want = rebuilt_closure(G, [x])
        assert got.order() == want.order()
        assert got.is_subgroup(want) and want.is_subgroup(got)
        assert G.is_normal(got)
        assert G.normal_closure([x]) is got
        same = [N for N in kept
                if N.order() == got.order() and N.is_subgroup(got)]
        assert same in ([got], [])
        kept += [] if same else [got]
    return G


def kept_closures(G):
    """The orders of the distinct closures G keeps, in the order kept; G
    itself counts when a closure reached |G|."""
    return [N.order() for N in dict.fromkeys(G._closures.values())]


def test_closures_bounded_by_certified_subgroups_m11_wr_c2(env):
    _spec, W = env.wreath144()
    socle = W.declared_socle
    a, b = socle.factors[0].generators[:2]
    c = socle.factors[1].generators[0]
    top = next(g for g in W.group.generators if not socle.subgroup.contains(g))
    # a certifies the socle; b * c and a^2 are then bounded by it, while
    # the top element lies outside it and is bounded by |G|
    G = check_closures_against_rebuilt(
        W.group.generators, [a, b * c, a * a, top])
    assert kept_closures(G) == [socle.subgroup.order(), G.order()]


def test_closures_bounded_by_certified_subgroups_pgl_to_psl():
    line = projective_line_action(31)
    psl, pgl = line.subgroups["PSL"], line.subgroups["PGL"]
    x, y = psl.generators[:2]
    outside = next(g for g in pgl.generators if not psl.contains(g))
    G = check_closures_against_rebuilt(
        pgl.generators, [x, y, x * y, outside, outside * x])
    assert kept_closures(G) == [psl.order(), G.order()]


def test_closures_of_class_representatives_match_rebuilt(corpus, env):
    from derangements import prime_order_class_reps
    from derangements.numbers import prime_divisors
    for name, A in corpus:
        reps = [ci.representative for r in prime_divisors(A.group.order())
                for ci in prime_order_class_reps(A.group, r)]
        check_closures_against_rebuilt(A.group.generators, reps)
    # PSL(2,127) on 384 cosets is simple: every closure is G itself
    G = env.a384().group
    G = check_closures_against_rebuilt(
        G.generators, [*G.generators, G.random_element(np.random.default_rng(12))])
    assert kept_closures(G) == [G.order()]


def test_closure_memo_is_keyed_by_every_seed():
    # V4 from a double transposition, then A4 once a 3-cycle joins it
    G = symmetric(4)
    v = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    t = Permutation.from_cycles(4, [(0, 1, 2)])
    assert G.normal_closure([v]).order() == 4
    assert G.normal_closure([v, t]).order() == 12
    assert G.normal_closure([t, v]) is G.normal_closure([v, t])
    assert G.normal_closure([Permutation.from_cycles(4, [(0, 1)])]) is G
    assert kept_closures(G) == [4, 12, 24]


def test_transposition_closure_reaches_its_bound_mid_walk(monkeypatch):
    log = []  # (absorbed, order, bound) after every _absorb call
    absorb = StabilizerChain._absorb

    def logged(self, g):
        absorbed = absorb(self, g)
        log.append((absorbed, self.order(), self._bound))
        return absorbed
    monkeypatch.setattr(StabilizerChain, "_absorb", logged)
    check_closures_against_rebuilt(symmetric(6).generators,
                                   [Permutation.from_cycles(6, [(0, 1)])])
    walk = [(absorbed, order == bound) for absorbed, order, bound in log
            if bound is not None]  # the closure's chain, bounded by |S6|
    # several conjugates were absorbed, and the chain reached |S6| with
    # conjugates still to walk, which then sifted without a sweep
    assert sum(absorbed for absorbed, _ in walk) >= 2
    reached = [k for k, (_, full) in enumerate(walk) if full]
    assert reached and reached[0] < len(walk) - 1
