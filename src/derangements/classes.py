"""Batched element scans and conjugacy classes, found by class walks.

Everything here works on image rows: an (m, n) array whose rows are
permutation image arrays, compact as enumerated or int64.  Used by the
elusivity checkers and the subgroup search.

`order_r_rows` finds the elements of order r, for one prime r, in one
pass over the elements.  Enumerated batches arrive compact, in the
smallest unsigned dtype that holds a point (uint8 up to 256 points,
uint16 up to 65536, uint32 beyond), so nothing is cast and the filter
moves a fraction of the bytes.  Each batch goes to `perm._order_r_filter`,
the order-r test the derangement backtrack's leaves share: a moved-point
count that is a positive multiple of r, the trajectory of the first moved
point under x^r, and the exact x^r = 1 on the survivors.  Only the kept
rows are widened to int64.

Classes are formed one way only: `_ClassWalker` walks a class x^G whole,
breadth first under conjugation by G's generators, one gather per
generator and level (the orbit algorithm of Holt-Eick-O'Brien, ch. 4,
acting by conjugation).  An element is keyed by its images of the chain's
base points, which determine it, so the walk dedupes exactly without
keeping its rows, and it reads off the least row and the fixed-point
counts as it goes.  `partition_rows_by_conjugacy` and
`exhaustive_class_partition` walk the class of every given row not
covered yet, then check that the walks cover exactly the rows given.

`sylow_classes` finds the order-r classes of a group from a subgroup H
that holds a Sylow r-subgroup: by Sylow's theorem every element of order
r is conjugate into it (Holt-Eick-O'Brien, ch. 4), so the G-classes of
H's order-r elements are all of them.  H is <x> when r^2 does not divide
|G|, else C_G(x) for a sampled x whose class size is prime to r, else G;
|G|_r dividing |H| is checked.  C_G(x) comes from the Schreier generators
of the walk of x's class, on a chain bounded by |G|/|x^G|.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .config import (DEFAULT_BUDGETS, DEFAULT_SEED, BudgetExceeded,
                     CertificateError)
from .numbers import factorize
from .perm import (Permutation, PermGroup, StabilizerChain, _inverse_row,
                   _order_r_filter, batch_power)

__all__ = [
    "batch_power",
    "order_r_rows",
    "exhaustive_class_partition",
    "partition_rows_by_conjugacy",
    "sylow_classes",
]


def order_r_rows(G, r: int,
                 budget: int = DEFAULT_BUDGETS.exhaustive) -> np.ndarray:
    """Image rows (int64) of the elements of exact order r in G, r prime,
    from one pass over G's elements.  When r does not divide |G| there
    are none (Lagrange), and there is no pass."""
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    kept = [_order_r_filter(batch, r) for batch in G.element_batches()] \
        if order % r == 0 else []
    return np.concatenate(kept, axis=0, dtype=np.int64) if kept \
        else np.empty((0, G.degree), dtype=np.int64)


def _budget_error(G, budget):
    return BudgetExceeded(
        f"group of order {G.order()} exceeds the exhaustive budget {budget}"
    )


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row (its bytes), for exact lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


# ---------------------------------------------------------------------------
# class walks


class _Walk(NamedTuple):
    """One conjugacy class x^G, walked whole.

    `least` is its lexicographically least row and `fixed` the least and
    greatest fixed-point count on it.  A walk asked for its transversal
    also keeps, for element i in walk order, a row t_i with x^(t_i) =
    element i, and succ[j, i], the index of element i conjugated by
    generator j: the Schreier graph of the class.
    """

    least: np.ndarray
    size: int
    fixed: tuple
    transversal: Optional[np.ndarray] = None
    succ: Optional[np.ndarray] = None


def _least_row(rows: np.ndarray) -> np.ndarray:
    """The lexicographically least of distinct rows, narrowed column by
    column, with no sort."""
    for j in range(rows.shape[1]):
        if len(rows) == 1:
            break
        col = rows[:, j]
        rows = rows[col == col.min()]
    return rows[0]


class _ClassWalker:
    """Breadth-first walks of G-classes under conjugation by G's
    generators, on compact rows, sharing one table of the elements walked
    so far.

    An element is keyed by its images of G's chain base, which determine
    it: packed into an int64 when degree^|base| < 2^63, else their bytes.
    """

    def __init__(self, G):
        n = G.degree
        self.dtype = np.min_scalar_type(n - 1)
        self.gens = np.stack([g.images for g in G.generators]).astype(self.dtype)
        self.inverses = np.stack([_inverse_row(g.images) for g in G.generators])
        self.base = np.array(G.chain.base, dtype=np.int64)
        self.weights = (n ** np.arange(len(self.base), dtype=np.int64)
                        if n ** len(self.base) < 2 ** 63 else None)
        self.seen: dict = {}  # key -> index in walk order

    def keys(self, base_images: np.ndarray) -> list:
        if self.weights is None:
            return _row_keys(base_images).tolist()
        return (base_images.astype(np.int64) @ self.weights).tolist()

    def key(self, x: np.ndarray):
        return self.keys(x[self.base][None])[0]

    def walk(self, x: np.ndarray, transversal: bool = False) -> _Walk:
        """Walk the class of the compact row x, not walked before.  Each
        level takes, per generator g, the conjugates g^-1 y g = g[y[g^-1]]
        of its rows: their keys from the base columns alone, then the full
        rows of the new ones."""
        seen = self.seen
        ident = np.arange(x.size, dtype=self.dtype)
        start = len(seen)
        seen[self.key(x)] = start
        frontier, reps = x[None].astype(self.dtype), ident[None]
        least, lo, hi = None, x.size, 0
        reps_seen, succ = [], [[] for _ in self.gens]
        while len(frontier):
            counts = (frontier == ident).sum(axis=1)
            lo, hi = min(lo, int(counts.min())), max(hi, int(counts.max()))
            least = _least_row(frontier if least is None
                               else np.concatenate([least[None], frontier]))
            if transversal:
                reps_seen.append(reps)
            rows, new_reps = [], []
            for g, gv, out in zip(self.gens, self.inverses, succ):
                fresh = []
                for i, k in enumerate(self.keys(g[frontier[:, gv[self.base]]])):
                    m = len(seen)
                    j = seen.setdefault(k, m)
                    if j == m:
                        fresh.append(i)
                    out.append(j - start)
                rows.append(g[frontier[fresh][:, gv]])
                if transversal:
                    new_reps.append(g[reps[fresh]])  # t * g
            frontier = np.concatenate(rows)
            if transversal:
                reps = np.concatenate(new_reps)
        size = len(seen) - start
        if not transversal:
            return _Walk(least, size, (lo, hi))
        return _Walk(least, size, (lo, hi), np.concatenate(reps_seen),
                     np.array(succ, dtype=np.int64))


def _walk_rows(G, rows: np.ndarray) -> tuple:
    """(walks, labels): the walk of the G-class of each of `rows` not
    covered yet, in row order, and for row i the index of its class in
    `walks`.  The rows are elements of G; raises CertificateError unless
    the walks cover exactly the distinct rows given, that is, unless the
    rows are closed under G-conjugation."""
    walker = _ClassWalker(G)
    compact = rows.astype(walker.dtype)
    keys = walker.keys(compact[:, walker.base])
    walks, starts = [], []
    for x, k in zip(compact, keys):
        if k not in walker.seen:
            starts.append(len(walker.seen))
            walks.append(walker.walk(x))
    if sum(w.size for w in walks) != len(set(keys)):
        raise CertificateError("the class walks do not cover exactly the given rows")
    found = np.array([walker.seen[k] for k in keys], dtype=np.int64)
    return walks, np.searchsorted(starts, found, side="right") - 1


def partition_rows_by_conjugacy(G, rows: np.ndarray) -> list:
    """Split rows of G, closed under G-conjugation, into classes.

    Returns a list of (representative_row, member_indices) with the
    representative the lexicographically least (int64) row of its class
    and the indices sorted, in order of representative.  Raises
    CertificateError when the rows are not closed under conjugation.
    """
    walks, labels = _walk_rows(G, rows)
    return sorted(((w.least.astype(np.int64), np.flatnonzero(labels == c))
                   for c, w in enumerate(walks)), key=lambda t: tuple(t[0]))


def exhaustive_class_partition(G, budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """Conjugacy classes of G as (representative, class_size), all orders,
    walked from every element of G.

    Representatives are lexicographically least in their class; the list is
    sorted by (element order, representative images).
    """
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    walks, _ = _walk_rows(G, np.concatenate(list(G.element_batches())))
    reps = [(Permutation._raw(w.least), w.size) for w in walks]
    if sum(size for _, size in reps) != order:
        raise CertificateError("class sizes do not sum to the group order")
    reps.sort(key=lambda t: (t[0].order(), tuple(t[0].images)))
    return reps


# ---------------------------------------------------------------------------
# the Sylow route

_DRAW = 32  # random elements per batch of the search for order-r elements


def _order_r_sample(G, r: int, sylow: int):
    """Compact rows of order r: batches of uniform random elements of G
    (seeded with DEFAULT_SEED) raised to the power |G|/|G|_r, which makes
    them r-elements, then to the r-th power until the next power is the
    identity.  At most 8 * degree draws."""
    n, order = G.degree, G.order()
    dtype = np.min_scalar_type(n - 1)
    ident = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(max(1, 8 * n // _DRAW)):
        img = np.tile(ident, (_DRAW, 1))
        for lvl in reversed(G.chain.levels):
            u = lvl.rows[rng.integers(0, len(lvl.points), size=_DRAW)]
            img = np.take_along_axis(u, img, axis=1)  # img * u
        rows = batch_power(img, order // sylow)
        rows = rows[(rows != ident).any(axis=1)]
        while len(rows):
            nxt = batch_power(rows, r)
            last = (nxt == ident).all(axis=1)
            yield from rows[last].astype(dtype)
            rows = nxt[~last]


def _centralizer(walker: _ClassWalker, x: np.ndarray, walk: _Walk,
                 bound: int) -> PermGroup:
    """C_G(x), with its chain: generated by Schreier generators
    t_i g t_(i^g)^-1 of x's class walk, in a seeded random order and
    batches that double, until the chain bounded by |C_G(x)| = `bound`
    reaches it."""
    n, size = x.size, walk.size
    picks = np.random.default_rng(DEFAULT_SEED).permutation(
        size * len(walker.gens))
    points = np.broadcast_to(np.arange(n), (len(picks), n))
    gens = np.empty((0, n), dtype=np.int64)
    lo, step = 0, 8
    while lo < len(picks):
        j, i = np.divmod(picks[lo:lo + step], size)
        t, t_next = walk.transversal[i], walk.transversal[walk.succ[j, i]]
        moved = np.take_along_axis(walker.gens[j], t, axis=1)  # t * g
        inverse = np.empty((len(i), n), dtype=np.int64)
        np.put_along_axis(inverse, t_next, points[:len(i)], axis=1)
        gens = np.concatenate([gens, np.take_along_axis(inverse, moved, axis=1)])
        lo, step = lo + step, 2 * step
        perms = [Permutation._raw(g) for g in gens]
        chain = StabilizerChain(n, perms, bound=bound)
        if chain.order() == bound:
            if not (gens[:, x] == x[gens]).all():
                raise CertificateError("a Schreier generator does not centralize x")
            C = PermGroup(perms, degree=n)
            C._chain = chain
            return C
    raise CertificateError("Schreier generators fall short of the centralizer order")


def sylow_classes(G, r: int,
                  budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """(least row, size, (least, greatest) fixed-point count) of each class
    of elements of order r in G, sorted by least row: the G-classes of the
    order-r elements of a subgroup H holding a Sylow r-subgroup (module
    docstring), enumerated by `order_r_rows` under `budget`."""
    order = G.order()
    if order % r:
        return []
    sylow = r ** factorize(order)[r]
    cyclic = sylow == r
    walker = _ClassWalker(G)
    walks, H = [], G
    for x in _order_r_sample(G, r, sylow):
        if walker.key(x) in walker.seen:
            continue
        walks.append(walker.walk(x, transversal=not cyclic))
        if cyclic:
            H = PermGroup([Permutation._raw(x)])
            break
        if walks[-1].size % r:
            H = _centralizer(walker, x, walks[-1], order // walks[-1].size)
            break
    if H.order() % sylow:
        raise CertificateError("the subgroup holds no Sylow r-subgroup")
    rows = order_r_rows(H, r, budget).astype(walker.dtype)
    for y, k in zip(rows, walker.keys(rows[:, walker.base])):
        if k not in walker.seen:
            walks.append(walker.walk(y))
    return sorted(((w.least, w.size, w.fixed) for w in walks),
                  key=lambda t: tuple(t[0]))
