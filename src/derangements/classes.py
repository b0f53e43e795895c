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
point under x^r, and the exact x^r = 1 on the survivors.  The kept rows
are returned compact, as enumerated.

Classes are formed one way only: `_ClassWalker` walks a class x^G whole,
breadth first under conjugation by G's generators, one gather per
generator and chunk of a level, each level held in chunks of at most
`perm._BATCH_ENTRIES` entries (the orbit algorithm of Holt-Eick-O'Brien,
ch. 4, acting by conjugation).  An element is keyed by its images of the
chain's base points, which determine it, so the walk dedupes exactly
without keeping its rows, and it reads off the least row and the
fixed-point counts as it goes.  A walk that needs its transversal keeps a
Schreier vector instead, each element's parent and generator (HEO ch. 4),
and a row t with x^t = element i is traced back from it on demand.
`partition_rows_by_conjugacy` and `exhaustive_class_partition` walk the
class of every given row not covered yet, then check that the walks cover
exactly the rows given.  No library route calls them or their `_walk_rows`
any more: they stay for the tests and for the benchmark tracer, which
wraps the two public names.

`sylow_subgroup` finds a subgroup H that holds a Sylow r-subgroup: <x>
when r^2 does not divide |G|, else C_G(x) for a sampled x whose class
size is prime to r, else G; |G|_r dividing |H| is checked.  C_G(x) comes
from the Schreier generators of the walk of x's class, on a chain bounded
by |G|/|x^G|.  Its walks count against a budget, past which H = G.  By
Sylow's theorem every element of order r is conjugate into H
(Holt-Eick-O'Brien, ch. 4), so `sylow_classes`, the G-classes of H's
order-r elements, are all of them, and the backtrack route of
`elusive.is_r_elusive` searches H alone.  `centralizer` gives C_G(x) for
one element by the same walk, for the top group of a wreath product.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .config import (DEFAULT_BUDGETS, DEFAULT_SEED, BudgetExceeded,
                     CertificateError)
from .numbers import factorize
from .perm import (_BATCH_ENTRIES, Permutation, PermGroup, StabilizerChain,
                   _inverse_row, _order_r_filter, batch_power)

__all__ = [
    "batch_power",
    "order_r_rows",
    "exhaustive_class_partition",
    "partition_rows_by_conjugacy",
    "sylow_classes",
]


def order_r_rows(G, r: int,
                 budget: int = DEFAULT_BUDGETS.exhaustive) -> np.ndarray:
    """Image rows of the elements of exact order r in G, r prime, from one
    pass over G's elements, compact as enumerated (dtype
    np.min_scalar_type(degree - 1)).  When r does not divide |G| there
    are none (Lagrange), and there is no pass."""
    order = G.order()
    if order > budget:
        raise _budget_error(G, budget)
    kept = [_order_r_filter(batch, r) for batch in G.element_batches()] \
        if order % r == 0 else []
    return np.concatenate(kept, axis=0) if kept \
        else np.empty((0, G.degree), dtype=np.min_scalar_type(G.degree - 1))


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

    `least` is its lexicographically least row, `fixed` the least and
    greatest fixed-point count on it, and `start` the index of x, its
    first element, in the walker's table.  A walk asked for its
    transversal also keeps a Schreier vector (Holt-Eick-O'Brien, ch. 4):
    for element i > 0 in walk order, parent[i], the element it was reached
    from, and via[i], the generator that conjugated it there.  So t_0 = 1
    and t_i = t_parent[i] * g_via[i] give x^(t_i) = element i
    (`_ClassWalker.transversal`).
    """

    least: np.ndarray
    size: int
    fixed: tuple
    start: int
    parent: Optional[np.ndarray] = None
    via: Optional[np.ndarray] = None


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
    The table holds every element walked, so its size is the work done;
    a walk that takes it past `limit` raises BudgetExceeded.
    """

    def __init__(self, G, limit=math.inf):
        n = G.degree
        self.dtype = np.min_scalar_type(n - 1)
        self.gens = np.stack([g.images for g in G.generators]).astype(self.dtype)
        self.inverses = np.stack([_inverse_row(g.images) for g in G.generators])
        self.base = np.array(G.chain.base, dtype=np.int64)
        self.weights = (n ** np.arange(len(self.base), dtype=np.int64)
                        if n ** len(self.base) < 2 ** 63 else None)
        self.seen: dict = {}  # key -> index in walk order
        self.limit = limit

    def keys(self, base_images: np.ndarray) -> list:
        if self.weights is None:
            return _row_keys(base_images).tolist()
        return (base_images.astype(np.int64) @ self.weights).tolist()

    def key(self, x: np.ndarray):
        return self.keys(x[self.base][None])[0]

    def walk(self, x: np.ndarray, transversal: bool = False) -> _Walk:
        """Walk the class of the compact row x, not walked before.

        A level is a list of chunks of at most _BATCH_ENTRIES entries.  Per
        generator g and chunk it takes the conjugates g^-1 y g = g[y[g^-1]]
        of the chunk's rows: their keys from the base columns alone, then
        the full rows of the new ones, merged into the next level's chunks
        in walk order.  The limit is checked after each chunk, so a walk
        overshoots it by at most one chunk; on passing it the walk's
        elements leave the table again before BudgetExceeded is raised."""
        seen, n = self.seen, x.size
        cap = max(1, _BATCH_ENTRIES // n)
        ident = np.arange(n, dtype=self.dtype)
        start = len(seen)
        seen[self.key(x)] = start
        level, first = [x[None].astype(self.dtype)], 0
        least, lo, hi = None, n, 0
        parent, via = [np.array([-1])], [np.array([-1])]
        while level:
            leasts = [] if least is None else [least]
            for chunk in level:
                counts = (chunk == ident).sum(axis=1)
                lo, hi = min(lo, int(counts.min())), max(hi, int(counts.max()))
                leasts.append(_least_row(chunk))
            least = _least_row(np.stack(leasts))
            nxt, pending, rows = [], [], 0
            for j, (g, gv) in enumerate(zip(self.gens, self.inverses)):
                offset = first
                for chunk in level:
                    m, fresh = len(seen), []
                    for i, k in enumerate(self.keys(g[chunk[:, gv[self.base]]])):
                        if seen.setdefault(k, m) == m:
                            fresh.append(i)
                            m += 1
                    if m > self.limit:
                        for _ in range(m - start):
                            seen.popitem()
                        raise BudgetExceeded(
                            f"class walks past the exhaustive budget {self.limit}")
                    if fresh:
                        if rows + len(fresh) > cap:
                            nxt.append(np.concatenate(pending))
                            pending, rows = [], 0
                        pending.append(g[chunk[np.ix_(fresh, gv)]])
                        rows += len(fresh)
                        if transversal:
                            parent.append(offset + np.array(fresh))
                            via.append(np.full(len(fresh), j))
                    offset += len(chunk)
            if pending:
                nxt.append(np.concatenate(pending))
            first += sum(len(chunk) for chunk in level)
            level = nxt
        size = len(seen) - start
        if not transversal:
            return _Walk(least, size, (lo, hi), start)
        return _Walk(least, size, (lo, hi), start, np.concatenate(parent),
                     np.concatenate(via))

    def walk_rows(self, rows: np.ndarray) -> list:
        """The walks of the classes of the compact rows not walked yet, in
        row order."""
        return [self.walk(y) for y, k in zip(rows, self.keys(rows[:, self.base]))
                if k not in self.seen]

    def transversal(self, walk: _Walk, idx) -> np.ndarray:
        """The rows t_i of the walk's elements idx, each traced back along
        the Schreier vector to x: t_i = t_parent[i] * g_via[i], so the
        product is gathered from the right, a generator per step."""
        cur = np.array(idx, dtype=np.int64)
        t = np.tile(np.arange(self.gens.shape[1], dtype=self.dtype),
                    (len(cur), 1))
        live = np.flatnonzero(cur)
        while len(live):
            step = cur[live]
            t[live] = np.take_along_axis(t[live], self.gens[walk.via[step]],
                                         axis=1)
            cur[live] = walk.parent[step]
            live = live[cur[live] > 0]
        return t


def _walk_rows(G, rows: np.ndarray) -> tuple:
    """(walks, labels): the walk of the G-class of each of `rows` not
    covered yet, in row order, and for row i the index of its class in
    `walks`.  The rows are elements of G; raises CertificateError unless
    the walks cover exactly the distinct rows given, that is, unless the
    rows are closed under G-conjugation."""
    walker = _ClassWalker(G)
    compact = rows.astype(walker.dtype)
    walks = walker.walk_rows(compact)
    keys = walker.keys(compact[:, walker.base])
    if sum(w.size for w in walks) != len(set(keys)):
        raise CertificateError("the class walks do not cover exactly the given rows")
    found = np.array([walker.seen[k] for k in keys], dtype=np.int64)
    starts = [w.start for w in walks]
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
    reaches it.  A batch traces back only its own rows t_i; the index of
    i^g, the element x^(t_i g), is looked up in the walker's table by its
    base images."""
    n, size = x.size, walk.size
    picks = np.random.default_rng(DEFAULT_SEED).permutation(
        size * len(walker.gens))
    gens = np.empty((0, n), dtype=np.int64)
    lo, step = 0, 8
    while lo < len(picks):
        j, i = np.divmod(picks[lo:lo + step], size)
        moved = np.take_along_axis(walker.gens[j], walker.transversal(walk, i),
                                   axis=1)  # u = t_i * g
        conj = np.take_along_axis(
            moved, x[np.argsort(moved, axis=1)[:, walker.base]], axis=1)  # x^u
        succ = [walker.seen[k] - walk.start for k in walker.keys(conj)]
        inverse = np.argsort(walker.transversal(walk, succ), axis=1)
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


def centralizer(G, x: np.ndarray,
                budget: int = DEFAULT_BUDGETS.exhaustive) -> PermGroup:
    """C_G(x) for the image row x of an element of G, from the walk of
    x's class with its Schreier vector; the walk counts against
    `budget`."""
    walker = _ClassWalker(G, limit=budget)
    walk = walker.walk(x.astype(walker.dtype), transversal=True)
    return _centralizer(walker, x, walk, G.order() // walk.size)


def sylow_subgroup(G, r: int,
                   budget: int = DEFAULT_BUDGETS.exhaustive) -> tuple:
    """(H, walker, walks): a subgroup H of G holding a Sylow r-subgroup,
    r a prime dividing |G|, with G's class walker and the walks of the
    order-r classes the search took.

    H is <x> for the first sampled x of order r when r^2 does not divide
    |G| (no walk); else C_G(x) for the first sampled x whose class has
    size prime to r, so that |C_G(x)|_r = |G|_r; else G.  The walker's
    table counts against `budget`: a search whose walks would pass it
    ends with H = G.  |G|_r dividing |H| is checked."""
    order = G.order()
    sylow = r ** factorize(order)[r]
    walker = _ClassWalker(G, limit=budget)
    walks, H = [], G
    for x in _order_r_sample(G, r, sylow):
        if sylow == r:
            H = PermGroup([Permutation._raw(x)])
            break
        if walker.key(x) in walker.seen:
            continue
        try:
            walks.append(walker.walk(x, transversal=True))
        except BudgetExceeded:
            break
        if walks[-1].size % r:
            H = _centralizer(walker, x, walks[-1], order // walks[-1].size)
            break
    if H.order() % sylow:
        raise CertificateError("the subgroup holds no Sylow r-subgroup")
    return H, walker, walks


def sylow_classes(G, r: int,
                  budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """(least row, size, (least, greatest) fixed-point count) of each class
    of elements of order r in G, sorted by least row: the G-classes of the
    order-r elements of the subgroup H of `sylow_subgroup`, whose walks it
    reuses, enumerated by `order_r_rows` under `budget`."""
    if G.order() % r:
        return []
    H, walker, walks = sylow_subgroup(G, r, budget)
    walks += walker.walk_rows(order_r_rows(H, r, budget))
    return sorted(((w.least, w.size, w.fixed) for w in walks),
                  key=lambda t: tuple(t[0]))
