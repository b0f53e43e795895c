"""Batched element scans and conjugacy-class bucketing for small groups.

Everything here works on image rows: an (m, n) int64 array whose rows are
permutation image arrays.  Used by the elusivity checkers and the subgroup
search for groups whose full element list fits in the exhaustive budget.

`order_r_rows` casts each enumerated batch to the smallest unsigned dtype
that holds a point (uint8 up to 256 points, uint16 up to 65536, uint32
beyond), so the filter moves a fraction of the bytes, and passes it to
`perm._order_r_filter`, the order-r test the derangement backtrack's
leaves share: a moved-point count that is a positive multiple of r, the
trajectory of the first moved point under x^r, then the exact x^r = 1 on
the survivors.  Only the kept rows are widened to int64.
"""

from __future__ import annotations

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


def order_r_rows(G, r: int, budget: int = DEFAULT_BUDGETS.exhaustive) -> np.ndarray:
    """All image rows of elements of exact order r (r prime) in G."""
    compact = np.min_scalar_type(G.degree - 1)
    kept = []
    total = 0
    for batch in G.element_batches():
        total += len(batch)
        if total > budget:
            raise _budget_error(G, budget)
        kept.append(_order_r_filter(batch.astype(compact), r))
    if not kept:
        return np.empty((0, G.degree), dtype=np.int64)
    return np.concatenate(kept, axis=0, dtype=np.int64)


def _budget_error(G, budget):
    return BudgetExceeded(
        f"group of order {G.order()} exceeds the exhaustive budget {budget}"
    )


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row (its bytes), for sorting and exact lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _classes(G, rows: np.ndarray) -> list:
    """(least row, sorted member indices) for each G-class of `rows`: each
    generator permutes the row indices by conjugation, looked up in the
    sorted row keys; a class is a connected component of these moves."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    step = max(1, _BATCH_ENTRIES // max(1, rows.shape[1]))
    moves = []  # per generator g: row k -> row of g^-1 * rows[k] * g
    for g in G.generators:
        gi, gv = g.images, g.inverse().images
        move = np.empty(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), step):
            conj_keys = _row_keys(gi[rows[lo:lo + step, gv]])
            pos = np.searchsorted(keys, conj_keys, sorter=order)
            move[lo:lo + step] = order[np.minimum(pos, len(rows) - 1)]
            if not (keys[move[lo:lo + step]] == conj_keys).all():
                raise CertificateError("conjugation left the scanned row set")
        moves.append(move)
    out = []
    for members in _cells(_components(len(rows), np.arange(len(rows)), moves)):
        block = rows[members]
        out.append((block[np.lexsort(block.T[::-1])[0]], members))
    return out


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
