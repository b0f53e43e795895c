"""Batched element scans and conjugacy-class bucketing for small groups.

Everything here works on image rows: an (m, n) int64 array whose rows are
permutation image arrays.  Used by the elusivity checkers and the subgroup
search for groups whose full element list fits in the exhaustive budget.

`order_r_rows` scans each enumerated batch in three stages and still
returns int64 rows.  It first casts the batch to the smallest unsigned
dtype that holds a point (uint8 up to 256 points, uint16 up to 65536,
uint32 beyond), so the prefilters move a fraction of the bytes.  It then drops
rows that fail one of two necessary conditions for prime order r.  An
element x of prime order r has only cycles of length 1 and r, so the
points it moves number a positive multiple of r.  For the same reason
x^r fixes every point, in particular the first point x moves, and the
trajectory of that one point costs r one-dimensional gathers.  The exact
test x^r = 1 then runs on the int64 survivors only; each moves at least r
points, so none is the identity.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_BUDGETS
from .perm import Permutation

__all__ = [
    "batch_power",
    "identity_mask",
    "fixed_point_counts",
    "order_r_rows",
    "exhaustive_class_partition",
    "partition_rows_by_conjugacy",
]


def batch_power(rows: np.ndarray, e: int) -> np.ndarray:
    """Row-wise e-th power of a batch of image rows (square and multiply)."""
    m, n = rows.shape
    acc = np.tile(np.arange(n, dtype=np.int64), (m, 1))
    base = rows
    while e:
        if e & 1:
            acc = np.take_along_axis(base, acc, axis=1)
        e >>= 1
        if e:
            base = np.take_along_axis(base, base, axis=1)
    return acc


def identity_mask(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    return (rows == np.arange(n, dtype=np.int64)).all(axis=1)


def fixed_point_counts(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    return (rows == np.arange(n, dtype=np.int64)).sum(axis=1)


def order_r_rows(G, r: int, budget: int = DEFAULT_BUDGETS.exhaustive) -> np.ndarray:
    """All image rows of elements of exact order r (r prime) in G."""
    n = G.degree
    compact = np.min_scalar_type(n - 1)
    ident = np.arange(n, dtype=compact)
    kept = []
    total = 0
    for batch in G.element_batches():
        total += len(batch)
        if total > budget:
            raise _budget_error(G, budget)
        small = batch.astype(compact)
        moved = small != ident
        counts = np.count_nonzero(moved, axis=1)
        idx = np.flatnonzero((counts > 0) & (counts % r == 0))
        if len(idx):
            small = small[idx]
            start = moved[idx].argmax(axis=1)
            pts = start
            at = np.arange(len(idx))
            for _ in range(r):
                pts = small[at, pts]
            idx = idx[pts == start]
        if len(idx):
            rows = batch[idx]
            kept.append(rows[identity_mask(batch_power(rows, r))])
    if not kept:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate(kept, axis=0)


def _budget_error(G, budget):
    from .config import BudgetExceeded

    return BudgetExceeded(
        f"group of order {G.order()} exceeds the exhaustive budget {budget}"
    )


def _conjugacy_class(G, seed_row: np.ndarray) -> dict:
    """Keys of the G-class of seed_row, by conjugation BFS over generators."""
    gens = [(g.images, g.inverse().images) for g in G.generators]
    seen = {seed_row.tobytes(): seed_row}
    frontier = [seed_row]
    while frontier:
        nxt = []
        for row in frontier:
            for gi, gv in gens:
                conj = gi[row[gv]]
                key = conj.tobytes()
                if key not in seen:
                    seen[key] = conj
                    nxt.append(conj)
        frontier = nxt
    return seen


def partition_rows_by_conjugacy(G, rows: np.ndarray) -> list:
    """Split rows (closed under G-conjugation) into classes.

    Returns a list of (representative_row, member_indices) with the
    representative the lexicographically least row of its class.  Asserts
    that every discovered class stays inside the given row set.
    """
    index = {rows[i].tobytes(): i for i in range(len(rows))}
    done = np.zeros(len(rows), dtype=bool)
    out = []
    for i in range(len(rows)):
        if done[i]:
            continue
        cls = _conjugacy_class(G, rows[i])
        members = []
        for key in cls:
            j = index.get(key)
            if j is None:
                raise AssertionError("conjugation left the scanned row set")
            members.append(j)
        members = np.array(sorted(members), dtype=np.int64)
        done[members] = True
        block = rows[members]
        rep = block[np.lexsort(block.T[::-1])[0]]
        out.append((rep, members))
    out.sort(key=lambda t: tuple(t[0]))
    return out


def exhaustive_class_partition(G, budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """Conjugacy classes of G as (representative, class_size), all orders.

    Representatives are lexicographically least in their class; the list is
    sorted by (element order, representative images).
    """
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    assigned = set()
    reps = []
    for batch in G.element_batches():
        for row in batch:
            key = row.tobytes()
            if key in assigned:
                continue
            cls = _conjugacy_class(G, row)
            assigned.update(cls)
            block = np.stack(list(cls.values()))
            rep = block[np.lexsort(block.T[::-1])[0]]
            reps.append((Permutation._raw(rep.copy()), len(cls)))
    if sum(size for _, size in reps) != order:
        raise AssertionError("class sizes do not sum to the group order")
    reps.sort(key=lambda t: (t[0].order(), tuple(t[0].images)))
    return reps
