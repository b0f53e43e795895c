"""The prefiltered order-r scan against the plain power test, and the
class walks against reference partitions.

`order_r_rows` scans for one prime r: it takes the compact enumerated
batches and drops rows by two necessary conditions before the exact
x^r = 1 test (`perm._order_r_filter`, which the derangement backtrack's
leaves share).  The reference below is that exact test over every
enumerated row; the two must agree row for row at every prime.

Classes are formed by one kernel, the class walk (`classes._walk_rows`).
`partition_rows_by_conjugacy` is checked against two reference partitions
on int64 rows: a row-by-row conjugation BFS, and the int64-key
sort-and-search partition that the walk replaced.
`exhaustive_class_partition` is checked against brute-force conjugation of
each element by every element of G.  The transversal rows that a walk
traces back from its Schreier vector are checked against a materialized
BFS transversal (`tests.conftest.bfs_transversal`).
"""

import tracemalloc

import numpy as np
import pytest

from derangements import (classes, m11, natural_action,
                          projective_line_action)
from derangements.classes import (_walk_rows, batch_power,
                                  exhaustive_class_partition, order_r_rows,
                                  partition_rows_by_conjugacy)
from derangements.config import DEFAULT_SEED, BudgetExceeded, CertificateError
from derangements.numbers import factorize, prime_divisors
from derangements.perm import Permutation, PermGroup, _cells, _components

from tests.conftest import (alternating, bfs_transversal, cyclic, dihedral,
                            symmetric)


def identity_mask(rows):
    return (rows == np.arange(rows.shape[1])).all(axis=1)


def reference_order_r_rows(G, r):
    kept = [b[identity_mask(batch_power(b, r)) & ~identity_mask(b)]
            for b in G.element_batches()]
    return np.concatenate(kept, axis=0)


def assert_agrees_at_every_prime(G):
    for r in prime_divisors(G.order()):
        want = reference_order_r_rows(G, r)
        assert len(want) > 0
        got = order_r_rows(G, r)
        assert got.dtype == np.min_scalar_type(G.degree - 1)
        assert np.array_equal(got, want), (G.degree, r)


@pytest.mark.parametrize("factory", [
    lambda: symmetric(5),
    lambda: alternating(6),
    lambda: cyclic(256),   # largest degree on the uint8 path
    lambda: cyclic(257),   # smallest degree on the uint16 path
    lambda: cyclic(300),
], ids=["S5", "A6", "C256", "C257", "C300"])
def test_scan_matches_reference(factory):
    assert_agrees_at_every_prime(factory())


def test_scan_matches_reference_on_m11_12(m11_12):
    assert_agrees_at_every_prime(m11_12.group)


def test_scan_matches_reference_on_psl2_9_line(line9):
    assert_agrees_at_every_prime(line9.subgroups["PSL"])


@pytest.mark.parametrize("G,r", [
    (symmetric(4), 5),
    (cyclic(300), 7),
    (cyclic(1), 2),
], ids=["S4 r=5", "C300 r=7", "trivial"])
def test_empty_result_keeps_its_shape(G, r):
    got = order_r_rows(G, r)
    assert got.shape == (0, G.degree)
    assert got.dtype == np.min_scalar_type(G.degree - 1)
    assert partition_rows_by_conjugacy(G, got) == []


def conjugacy_class_keys(G, seed_row):
    """Byte keys of the G-class of seed_row, by conjugation BFS."""
    gens = [(g.images, g.inverse().images) for g in G.generators]
    seen, frontier = {seed_row.tobytes()}, [seed_row]
    while frontier:
        nxt = []
        for row in frontier:
            for gi, gv in gens:
                conj = gi[row[gv]]
                if conj.tobytes() not in seen:
                    seen.add(conj.tobytes())
                    nxt.append(conj)
        frontier = nxt
    return seen


def reference_partition(G, rows):
    """Classes by conjugation BFS from each unassigned row, row by row."""
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    done = np.zeros(len(rows), dtype=bool)
    out = []
    for i in range(len(rows)):
        if not done[i]:
            members = np.array(sorted(index[k] for k in conjugacy_class_keys(G, rows[i])))
            done[members] = True
            block = rows[members]
            out.append((block[np.lexsort(block.T[::-1])[0]], members))
    out.sort(key=lambda t: tuple(t[0]))
    return out


@pytest.mark.parametrize("factory", [
    lambda: symmetric(5),
    lambda: alternating(6),
], ids=["S5", "A6"])
def test_partition_matches_conjugation_bfs(factory):
    G = factory()
    for r in prime_divisors(G.order()):
        rows = order_r_rows(G, r).astype(np.int64)
        got = partition_rows_by_conjugacy(G, rows)
        want = reference_partition(G, rows)
        assert len(got) == len(want), r
        for (rep, members), (rep0, members0) in zip(got, want):
            assert (rep == rep0).all() and (members == members0).all(), r


def test_partition_matches_conjugation_bfs_on_m11_12(m11_12):
    G = m11_12.group
    for r in prime_divisors(G.order()):
        rows = order_r_rows(G, r).astype(np.int64)
        got = partition_rows_by_conjugacy(G, rows)
        want = reference_partition(G, rows)
        assert [(tuple(a), tuple(m)) for a, m in got] == \
            [(tuple(a), tuple(m)) for a, m in want], r


def test_partition_rejects_rows_not_closed_under_conjugation():
    G = symmetric(4)
    rows = order_r_rows(G, 3)  # the eight 3-cycles, one class
    with pytest.raises(CertificateError):
        partition_rows_by_conjugacy(G, rows[1:])


def test_walks_must_cover_exactly_the_rows_given():
    G = symmetric(4)
    rows = order_r_rows(G, 2)  # transpositions and double transpositions
    walks, labels = _walk_rows(G, rows)
    assert sorted(w.size for w in walks) == [3, 6]
    assert sorted(np.bincount(labels).tolist()) == [3, 6]
    with pytest.raises(CertificateError, match="cover exactly"):
        _walk_rows(G, np.delete(rows, 4, axis=0))


def brute_force_classes(G):
    """(least row, size) of every class of G, sorted by (element order,
    row): each element not placed yet is conjugated by every element."""
    elems = np.concatenate(list(G.element_batches())).astype(np.int64)
    inverses = np.argsort(elems, axis=1)
    placed, out = set(), []
    for x in elems:
        if x.tobytes() in placed:
            continue
        cls = np.unique(np.take_along_axis(elems, x[inverses], axis=1),
                        axis=0)  # g[x[g^-1]] = g^-1 x g, sorted
        placed.update(row.tobytes() for row in cls)
        out.append((tuple(cls[0].tolist()), len(cls)))
    out.sort(key=lambda t: (Permutation(np.array(t[0])).order(), t[0]))
    return out


def assert_class_partition_matches_brute_force(G):
    got = [(tuple(rep.images.tolist()), size)
           for rep, size in exhaustive_class_partition(G)]
    assert got == brute_force_classes(G)
    assert sum(size for _, size in got) == G.order()


@pytest.mark.parametrize("factory", [
    lambda: symmetric(4),
    lambda: alternating(5),
], ids=["S4", "A5"])
def test_class_partition_matches_brute_force(factory):
    assert_class_partition_matches_brute_force(factory())


def test_class_partition_matches_brute_force_on_m11_12(m11_12):
    assert_class_partition_matches_brute_force(m11_12.group)


def int64_key_partition(G, rows):
    """The partition as it ran on int64 rows: byte keys of the int64 rows,
    and each class's least row by lexsort."""
    def row_keys(a):
        a = np.ascontiguousarray(a)
        return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()

    keys = row_keys(rows)
    order = np.argsort(keys)
    moves = []
    for g in G.generators:
        conj_keys = row_keys(g.images[rows[:, g.inverse().images]])
        pos = np.searchsorted(keys, conj_keys, sorter=order)
        move = order[np.minimum(pos, len(rows) - 1)]
        assert (keys[move] == conj_keys).all()
        moves.append(move)
    out = []
    for members in _cells(_components(len(rows), np.arange(len(rows)), moves)):
        block = rows[members]
        out.append((block[np.lexsort(block.T[::-1])[0]], members))
    return sorted(out, key=lambda t: tuple(t[0]))


def assert_partition_matches_int64_keys(G):
    for r in prime_divisors(G.order()):
        rows = order_r_rows(G, r).astype(np.int64)
        got = partition_rows_by_conjugacy(G, rows)
        want = int64_key_partition(G, rows)
        assert len(got) == len(want), r
        for (rep, members), (rep0, members0) in zip(got, want):
            assert rep.dtype == np.int64
            assert np.array_equal(rep, rep0), r
            assert np.array_equal(members, members0), r


def s3_on_1_2_256():
    """S3 on the points 1, 2 and 256 of 300.  Its least transposition
    (2 256) starts [0, 1, ...] while (1 256) starts [0, 256, ...], whose
    little-endian uint16 bytes compare lower: a least row read from
    native-order keys would be wrong."""
    gens = [Permutation.from_cycles(300, [(1, 2, 256)]),
            Permutation.from_cycles(300, [(1, 2)])]
    return PermGroup(gens)


@pytest.mark.parametrize("factory", [
    lambda: cyclic(257),    # uint16 path
    lambda: cyclic(300),
    lambda: dihedral(300),  # uint16 path with classes of several rows
    s3_on_1_2_256,
], ids=["C257", "C300", "D600", "S3 on 300"])
def test_partition_matches_int64_keys(factory):
    assert_partition_matches_int64_keys(factory())


def test_partition_matches_int64_keys_on_psl2_9_line(line9):
    assert_partition_matches_int64_keys(line9.subgroups["PSL"])


def test_partition_matches_int64_keys_on_m11_12(m11_12):
    assert_partition_matches_int64_keys(m11_12.group)


# ---------------------------------------------------------------------------
# class walks with a Schreier vector


def sampled_order_r(G, r):
    """The first element of order r that the Sylow search samples."""
    sylow = r ** factorize(G.order())[r]
    return next(classes._order_r_sample(G, r, sylow))


def forward_order_r_sample(G, r, sylow, full=None):
    """_order_r_sample with its draws taken on forward rows u (argsort of
    the stored u^-1) and the product built as img * u."""
    n, order = G.degree, G.order()
    ident = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(DEFAULT_SEED)
    levels = [(np.argsort(lvl.inverse, axis=1), len(lvl.points))
              for lvl in G.chain.levels]
    for _ in range(max(1, 8 * n // classes._DRAW)):
        img = np.tile(ident, (classes._DRAW, 1))
        for rows, size in reversed(levels):
            u = rows[rng.integers(0, size, size=classes._DRAW)]
            img = np.take_along_axis(u, img, axis=1)  # img * u
        rows = batch_power(img, order // sylow)
        rows = rows[(rows != ident).any(axis=1)]
        if full is not None:
            top = (batch_power(rows, sylow // r) != ident).any(axis=1)
            if top.any():
                full.append(rows[top.argmax()])
                return
        while len(rows):
            nxt = batch_power(rows, r)
            last = (nxt == ident).all(axis=1)
            yield from rows[last]
            rows = nxt[~last]


@pytest.mark.parametrize("full", [False, True], ids=["rows", "full"])
def test_order_r_sample_matches_forward_rows(env, m11_12, full):
    line = env.line127()
    groups = [("PSL(2,127)", line.subgroups["PSL"]),
              ("PGL(2,127)", line.subgroups["PGL"]),
              ("M11 on 12", m11_12.group), ("A6", alternating(6)),
              ("D600", dihedral(300))]
    for name, G in groups:
        for r in prime_divisors(G.order()):
            sylow = r ** factorize(G.order())[r]
            got_full, want_full = ([], []) if full else (None, None)
            got = list(classes._order_r_sample(G, r, sylow, got_full))
            want = list(forward_order_r_sample(G, r, sylow, want_full))
            assert len(got) == len(want), (name, r)
            for a, b in zip(got, want):
                assert a.dtype == np.min_scalar_type(G.degree - 1)
                assert np.array_equal(a, b), (name, r)
            if full:
                assert len(got_full) == len(want_full), (name, r)
                for a, b in zip(got_full, want_full):
                    assert np.array_equal(a, b), (name, r)


def walk_group(env, name):
    if name == "PSL(2,127)":
        return env.line127().subgroups["PSL"]
    return natural_action(env.a384().group, "the a384 group").group


@pytest.mark.parametrize("name,r,chunks", [
    ("PSL(2,127)", 3, "default"),
    ("PSL(2,127)", 3, "small"),
    ("a384 natural", 2, "small"),
    ("a384 natural", 3, "default"),
])
def test_traced_transversal_matches_materialized_bfs(env, monkeypatch, name,
                                                     r, chunks):
    """For every index of a walk the row traced back along the Schreier
    vector equals the materialized transversal's; the walk keeps the
    reference's order, least row and fixed-point counts; and
    `_centralizer` picks the Schreier generators t_i g t_(i^g)^-1 that
    the materialized walk gives.  Small chunks (seven rows) make every
    level span many chunks, merged from smaller pieces."""
    G = walk_group(env, name)
    if chunks == "small":
        monkeypatch.setattr(classes, "_BATCH_ENTRIES", 7 * G.degree)
    x = sampled_order_r(G, r)
    walker = classes._ClassWalker(G)
    walk = walker.walk(x, transversal=True)
    rows, trans = bfs_transversal(G, x)
    assert walk.size == len(rows)
    assert np.array_equal(walker.transversal(walk, np.arange(walk.size)),
                          trans)
    order = [walker.seen[k] - walk.start
             for k in walker.keys(rows[:, walker.base])]
    assert order == list(range(walk.size))
    assert np.array_equal(walk.least, rows[np.lexsort(rows.T[::-1])[0]])
    fixed = (rows == np.arange(G.degree)).sum(axis=1)
    assert walk.fixed == (fixed.min(), fixed.max())

    C = classes._centralizer(walker, x, walk, G.order() // walk.size)
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    picks = np.random.default_rng(DEFAULT_SEED).permutation(
        walk.size * len(G.generators))
    want = []
    for pick in picks[:len(C.generators)]:
        j, i = divmod(int(pick), walk.size)
        g = G.generators[j]
        succ = index[g.images[rows[i][g.inverse().images]].tobytes()]
        want.append(np.argsort(trans[succ])[g.images[trans[i]]])
    assert np.array_equal([c.images for c in C.generators], want)


def test_walk_and_centralizer_keep_no_dense_transversal(env):
    """The walk and `_centralizer` of the order-3 class of the a384 group
    in its natural action (16,256 elements on 384 points) stay below 16 MB
    of traced peak.  A walk holding the size x degree transversal and the
    full frontier at once peaked at 28.3 MB; the Schreier vector and
    chunked levels at 9.1 MB."""
    G = walk_group(env, "a384 natural")
    x = sampled_order_r(G, 3)
    tracemalloc.start()
    try:
        walker = classes._ClassWalker(G)
        walk = walker.walk(x, transversal=True)
        C = classes._centralizer(walker, x, walk, G.order() // walk.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (walk.size, C.order()) == (16256, 63)
    assert peak < 16 * 2 ** 20


def test_power_classes_keep_one_walk_of_rows(env):
    """`sylow_classes` of PSL(2,127) on its line at r = 7 walks one of the
    three order-7 classes (16,256 elements on 128 points), keeping its
    rows, and reads the other two off them: below 6 MB of traced peak
    past the Sylow stage.  Walking all three, each into the walker's
    table, peaked at 7.5 MB."""
    G = walk_group(env, "PSL(2,127)")
    classes.sylow_stage(G, 7)
    tracemalloc.start()
    try:
        got = classes.sylow_classes(G, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [size for _, size, _ in got] == [16256] * 3
    assert peak < 6 * 2 ** 20


class PeakTable(dict):
    """A walker's table that records the most entries it ever held."""

    peak = 0

    def setdefault(self, key, value):
        got = super().setdefault(key, value)
        self.peak = max(self.peak, len(self))
        return got


@pytest.mark.parametrize("limit", [6403, 16255, 16256])
def test_walk_passing_its_limit_overshoots_by_at_most_one_chunk(env, limit):
    """The order-3 class of the a384 group in its natural action has BFS
    levels of cumulative size ... 6403, 12250, 15927, 16256.  Past a limit
    the walk raises with the table left empty, having held at most one
    chunk (_BATCH_ENTRIES // degree rows) of new entries beyond the limit,
    not the whole level; a limit of the class size walks it whole."""
    G = walk_group(env, "a384 natural")
    walker = classes._ClassWalker(G, limit=limit)
    walker.seen = PeakTable()
    x = sampled_order_r(G, 3)
    if limit < 16256:
        with pytest.raises(BudgetExceeded):
            walker.walk(x)
        assert walker.seen == {}
        assert limit < walker.seen.peak <= limit + \
            classes._BATCH_ENTRIES // G.degree
    else:
        assert walker.walk(x).size == 16256
        assert walker.seen.peak == 16256


@pytest.mark.parametrize("name", ["PSL(2,31) line", "M11", "PGammaL(2,9)"])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_byte_keys_agree_with_int_keys(env, monkeypatch, name, r):
    """A walker keys an element by its base images packed into an int64,
    or by their bytes when degree^|base| reaches 2^63.  No shipped group
    is that large, so the byte keys are forced here: the classes found
    (least row, size, fixed-point range) and the centralizer orders of
    their least rows must not change."""
    G = {"PSL(2,31) line": lambda: projective_line_action(31).subgroups["PSL"],
         "M11": lambda: m11().group,
         "PGammaL(2,9)": lambda: env.line9().group}[name]()

    def found():
        rows = classes.sylow_classes(G, r)
        return ([(row.tolist(), size, fixed) for row, size, fixed in rows],
                [classes.centralizer(G, row.astype(np.int64)).order()
                 for row, _size, _fixed in rows])

    int_keys = found()
    init = classes._ClassWalker.__init__

    def byte_keys(self, *args, **kw):
        init(self, *args, **kw)
        self.weights = None

    monkeypatch.setattr(classes._ClassWalker, "__init__", byte_keys)
    assert isinstance(classes._ClassWalker(G).key(np.arange(G.degree)), bytes)
    assert found() == int_keys
    assert int_keys[0]
