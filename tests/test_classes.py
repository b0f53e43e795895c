"""The prefiltered order-r scan against the plain power test.

`order_r_rows` casts batches to a compact dtype and drops rows by two
necessary conditions before the exact x^r = 1 test (`perm._order_r_filter`,
which the derangement backtrack's leaves share).  The reference below is
that exact test over every enumerated row; the two must agree row for row.
"""

import numpy as np
import pytest

from derangements.classes import (batch_power, order_r_rows,
                                  partition_rows_by_conjugacy)
from derangements.config import CertificateError
from derangements.numbers import prime_divisors

from tests.conftest import alternating, cyclic, symmetric


def identity_mask(rows):
    return (rows == np.arange(rows.shape[1])).all(axis=1)


def reference_order_r_rows(G, r):
    kept = [b[identity_mask(batch_power(b, r)) & ~identity_mask(b)]
            for b in G.element_batches()]
    return np.concatenate(kept, axis=0)


def assert_agrees_at_every_prime(G):
    for r in prime_divisors(G.order()):
        got = order_r_rows(G, r)
        want = reference_order_r_rows(G, r)
        assert got.dtype == np.int64
        assert len(want) > 0
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
    assert got.dtype == np.int64
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
        rows = order_r_rows(G, r)
        got = partition_rows_by_conjugacy(G, rows)
        want = reference_partition(G, rows)
        assert len(got) == len(want), r
        for (rep, members), (rep0, members0) in zip(got, want):
            assert (rep == rep0).all() and (members == members0).all(), r


def test_partition_matches_conjugation_bfs_on_m11_12(m11_12):
    G = m11_12.group
    for r in prime_divisors(G.order()):
        rows = order_r_rows(G, r)
        got = partition_rows_by_conjugacy(G, rows)
        want = reference_partition(G, rows)
        assert [(tuple(a), tuple(m)) for a, m in got] == \
            [(tuple(a), tuple(m)) for a, m in want], r


def test_partition_rejects_rows_not_closed_under_conjugation():
    G = symmetric(4)
    rows = order_r_rows(G, 3)  # the eight 3-cycles, one class
    with pytest.raises(CertificateError):
        partition_rows_by_conjugacy(G, rows[1:])
