"""Batched element scans and conjugacy-class bucketing for small groups.

Everything here works on image rows: an (m, n) array whose rows are
permutation image arrays, compact as enumerated or int64.  Used by the
elusivity checkers and the subgroup search for groups whose full element
list fits in the exhaustive budget.

`order_r_rows` serves every prime its caller names in one pass over the
elements.  Enumerated batches arrive compact, in the smallest unsigned
dtype that holds a point (uint8 up to 256 points, uint16 up to 65536,
uint32 beyond), so nothing is cast and the filter moves a fraction of the
bytes.  Each batch goes to `perm._order_r_filter`, the order-r test the
derangement backtrack's leaves share.  The moved-point counts and the
first moved point are shared by the primes; each prime then asks for a
moved-point count that is a positive multiple of r, the trajectory of the
first moved point under x^r, and the exact x^r = 1 on the survivors.
Only the kept rows are widened to int64.

The class partition sorts and searches the rows in the same compact
dtype, big-endian, so that the byte order of a row is its lexicographic
order and the least row of a class is read off the sort.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT_BUDGETS, BudgetExceeded, CertificateError
from .perm import (_BATCH_ENTRIES, Permutation, _cells, _components,
                   _order_r_filter, batch_power)

__all__ = [
    "batch_power",
    "fixed_point_counts",
    "order_r_rows",
    "exhaustive_class_partition",
    "partition_rows_by_conjugacy",
]


def fixed_point_counts(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    return (rows == np.arange(n, dtype=np.int64)).sum(axis=1)


def order_r_rows(G, primes: Sequence[int],
                 budget: int = DEFAULT_BUDGETS.exhaustive) -> dict:
    """{r: image rows of the elements of exact order r in G} for each prime
    r of `primes`, from one pass over G's elements.  A prime that does not
    divide |G| gets no rows (Lagrange) and no share of the pass."""
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    scan = [r for r in dict.fromkeys(primes) if order % r == 0]
    kept = {r: [] for r in scan}
    if scan:
        for batch in G.element_batches():
            for r, rows in zip(scan, _order_r_filter(batch, scan)):
                kept[r].append(rows)
    return {r: np.concatenate(kept[r], axis=0, dtype=np.int64) if kept.get(r)
            else np.empty((0, G.degree), dtype=np.int64) for r in primes}


def _budget_error(G, budget):
    return BudgetExceeded(
        f"group of order {G.order()} exceeds the exhaustive budget {budget}"
    )


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row (its bytes), for sorting and exact lookup.
    Rows of big-endian or one-byte dtype sort as their values do."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _classes(G, rows: np.ndarray) -> list:
    """(least row, sorted member indices) for each G-class of `rows`: each
    generator permutes the row indices by conjugation, looked up in the
    sorted row keys; a class is a connected component of these moves.

    Keys are the rows cast to the smallest unsigned dtype that holds a
    point, big-endian, so their byte order is the rows' lexicographic
    order and a class's least row is its member of least sort rank."""
    compact = np.min_scalar_type(G.degree - 1).newbyteorder(">")
    small = rows.astype(compact)
    keys = _row_keys(small)
    order = np.argsort(keys)
    step = max(1, _BATCH_ENTRIES // max(1, rows.shape[1]))
    moves = []  # per generator g: row k -> row of g^-1 * rows[k] * g
    for g in G.generators:
        gi, gv = g.images.astype(compact), g.inverse().images
        move = np.empty(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), step):
            conj_keys = _row_keys(gi[small[lo:lo + step, gv]])
            pos = np.searchsorted(keys, conj_keys, sorter=order)
            move[lo:lo + step] = order[np.minimum(pos, len(rows) - 1)]
            if not (keys[move[lo:lo + step]] == conj_keys).all():
                raise CertificateError("conjugation left the scanned row set")
        moves.append(move)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.arange(len(rows))
    return [(rows[members[rank[members].argmin()]], members)
            for members in _cells(_components(len(rows), np.arange(len(rows)), moves))]


def partition_rows_by_conjugacy(G, rows: np.ndarray) -> list:
    """Split rows (closed under G-conjugation) into classes.

    Returns a list of (representative_row, member_indices) with the
    representative the lexicographically least row of its class, sorted
    by representative.  Raises CertificateError when a conjugate is not in
    the given row set.
    """
    return sorted(_classes(G, rows), key=lambda t: tuple(t[0]))


def exhaustive_class_partition(G, budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """Conjugacy classes of G as (representative, class_size), all orders.

    Representatives are lexicographically least in their class; the list is
    sorted by (element order, representative images).
    """
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    rows = np.concatenate(list(G.element_batches()))
    reps = [(Permutation._raw(rep.copy()), len(members))
            for rep, members in _classes(G, rows)]
    if sum(size for _, size in reps) != order:
        raise CertificateError("class sizes do not sum to the group order")
    reps.sort(key=lambda t: (t[0].order(), tuple(t[0].images)))
    return reps
