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

Classes are found by one kernel: `_ClassWalker` walks a class x^G whole,
breadth first under conjugation by G's generators, one gather per
generator and chunk of a level, each level held in chunks of at most
`perm._BATCH_ENTRIES` entries (the orbit algorithm of Holt-Eick-O'Brien,
ch. 4, acting by conjugation).  An element is keyed by its images of the
chain's base points, which determine it, so the walk dedupes exactly
without keeping its rows, and it reads off the least row and the
fixed-point counts as it goes.  A walk that needs its transversal keeps a
Schreier vector instead, each element's parent and generator (HEO ch. 4),
and a row t with x^t = element i is traced back from it on demand.  A
walk asked to keep its rows returns its level chunks: `sylow_classes`
keeps them to read the other classes of a power family, A^e for e prime
to r, off the walked class A with no walk.
`partition_rows_by_conjugacy` and `exhaustive_class_partition` walk the
class of every given row not covered yet, then check that the walks cover
exactly the rows given.  No library route calls them or their `_walk_rows`
any more: they stay for the tests and for the benchmark tracer, which
wraps the two public names.

`sylow_subgroup` finds a subgroup H that holds a Sylow r-subgroup: <y>
for a sampled r-part y of order |G|_r, a cyclic Sylow r-subgroup, found
with no walk; else C_G(x) for a sampled x of order r whose class size is
prime to r; else G.  |G|_r dividing |H| is checked.  C_G(x) comes from
the Schreier generators of the walk of x's class, on a chain bounded by
|G|/|x^G|.  Its walks count against a budget, past which H = G.  By
Sylow's theorem every element of order r is conjugate into H
(Holt-Eick-O'Brien, ch. 4).  So `sylow_classes`, the G-classes of H's
order-r elements, are all of them, one walked per power family and the
rest read off its rows; `elusive.is_r_elusive` reads an Elusive verdict
off H's order-r rows with no class walk, and its backtrack route
searches H alone.  `sylow_stage` is the search with H's order-r rows; it
stays on G until `sylow_classes` walks from it, so a verdict followed by
the classes searches and scans once.  `centralizer`
gives C_G(x) for one element by the same walk, for the top group of a
wreath product.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Optional

import numpy as np

from .config import (DEFAULT_BUDGETS, DEFAULT_SEED, BudgetExceeded,
                     CertificateError)
from .numbers import factorize
from .perm import (_BATCH_ENTRIES, Permutation, PermGroup, _inverse_rows,
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
    (`_ClassWalker.transversal`).  A walk asked to keep its rows holds its
    level chunks in `rows`.
    """

    least: np.ndarray
    size: int
    fixed: tuple
    start: int
    parent: Optional[np.ndarray] = None
    via: Optional[np.ndarray] = None
    rows: Optional[list] = None


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
        gens = np.stack([g.images for g in G.generators])
        self.gens = gens.astype(self.dtype)
        self.inverses = _inverse_rows(gens)
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

    def walk(self, x: np.ndarray, transversal: bool = False,
             keep: bool = False) -> _Walk:
        """Walk the class of the compact row x, not walked before.

        A level is a list of chunks of at most _BATCH_ENTRIES entries.  Per
        generator g and chunk it takes the conjugates g^-1 y g = g[y[g^-1]]
        of the chunk's rows: their keys from the base columns alone, then
        the full rows of the new ones, merged into the next level's chunks
        in walk order.  The limit is checked after each chunk, so a walk
        overshoots it by at most one chunk; on passing it the walk's
        elements leave the table again before BudgetExceeded is raised.
        Asked to `keep` its rows, the walk returns its level chunks."""
        seen, n = self.seen, x.size
        cap = max(1, _BATCH_ENTRIES // n)
        ident = np.arange(n, dtype=self.dtype)
        start = len(seen)
        seen[self.key(x)] = start
        level, first = [x[None].astype(self.dtype)], 0
        least, lo, hi = None, n, 0
        parent, via = [np.array([-1])], [np.array([-1])]
        kept = [] if keep else None
        while level:
            if keep:
                kept.extend(level)
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
            return _Walk(least, size, (lo, hi), start, rows=kept)
        return _Walk(least, size, (lo, hi), start, np.concatenate(parent),
                     np.concatenate(via), kept)

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
    keys = walker.keys(compact[:, walker.base])
    walks = [walker.walk(y) for y, k in zip(compact, keys)
             if k not in walker.seen]
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


def _order_r_sample(G, r: int, sylow: int, full: Optional[list] = None):
    """Compact rows of order r: batches of uniform random elements of G
    (seeded with DEFAULT_SEED) raised to the power |G|/|G|_r, which gives
    their r-parts, then to the r-th power until the next power is the
    identity.  At most 8 * degree draws.  Given a list `full`, the first
    batch holding an r-part y of order |G|_r, that is y^(|G|_r / r) != 1,
    appends the first such y (int64) to it and ends the sample."""
    n, order = G.degree, G.order()
    dtype = np.min_scalar_type(n - 1)
    ident = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(max(1, 8 * n // _DRAW)):
        inv = np.tile(ident, (_DRAW, 1))
        for lvl in reversed(G.chain.levels):
            v = lvl.inverse[rng.integers(0, len(lvl.points), size=_DRAW)]
            inv = np.take_along_axis(inv, v, axis=1)  # u^-1 * inv
        rows = batch_power(_inverse_rows(inv), order // sylow)
        rows = rows[(rows != ident).any(axis=1)]
        if full is not None:
            top = (batch_power(rows, sylow // r) != ident).any(axis=1)
            if top.any():
                full.append(rows[top.argmax()])
                return
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
        C = PermGroup([Permutation._raw(g) for g in gens], degree=n,
                      bound=bound)
        if C.order() == bound:
            if not (gens[:, x] == x[gens]).all():
                raise CertificateError("a Schreier generator does not centralize x")
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

    The sample goes batch by batch.  H is <y>, a cyclic Sylow r-subgroup,
    for the first sampled r-part y of order |G|_r (no walk); else C_G(x)
    for the first sampled x of order r whose class has size prime to r,
    so that |C_G(x)|_r = |G|_r; else G.  The walker's table counts
    against `budget`: a search whose walks would pass it ends with H = G.
    |G|_r dividing |H| is checked."""
    order = G.order()
    sylow = r ** factorize(order)[r]
    walker = _ClassWalker(G, limit=budget)
    walks, H, full = [], G, []
    for x in _order_r_sample(G, r, sylow, full):
        if walker.key(x) in walker.seen:
            continue
        try:
            walks.append(walker.walk(x, transversal=True))
        except BudgetExceeded:
            break
        if walks[-1].size % r:
            H = _centralizer(walker, x, walks[-1], order // walks[-1].size)
            break
    if full:
        H = PermGroup([Permutation._raw(full[0])])
    if H.order() % sylow:
        raise CertificateError("the subgroup holds no Sylow r-subgroup")
    return H, walker, walks


def sylow_stage(G, r: int,
                budget: int = DEFAULT_BUDGETS.exhaustive) -> tuple:
    """(H, walker, walks, rows): `sylow_subgroup(G, r, budget)` and H's
    order-r rows, `order_r_rows(H, r, budget)`, r a prime dividing |G|.
    The stage is kept on G under (r, budget) until `sylow_classes` takes
    it, so a verdict read off H's rows and the classes walked after it
    search and scan once."""
    stages = G._sylow_stages
    if (r, budget) not in stages:
        H, walker, walks = sylow_subgroup(G, r, budget)
        stages[r, budget] = (H, walker, walks, order_r_rows(H, r, budget))
    return stages[r, budget]


def _exponent(j: int, r: int) -> int:
    """The e with (y^j)^e = y for y of prime order r: j^-1 mod r."""
    return pow(j, -1, r)


def _power_source(walker: _ClassWalker, sources: list, first: int,
                  y: np.ndarray, r: int):
    """(A, j) for the least j in 2..r-1 with y^j in a class A of `sources`,
    the walks with rows kept, whose table entries start at index `first`;
    else None.  Only the base images of the powers are taken, one gather
    per power."""
    traj = np.empty((r - 1, len(walker.base)), dtype=walker.dtype)
    images = walker.base
    for j in range(r - 1):
        images = traj[j] = y[images]  # y^(j+1) on the base
    starts = [A.start for A in sources]
    for j, k in enumerate(walker.keys(traj[1:]), start=2):
        i = walker.seen.get(k, -1)
        if i >= first:
            return sources[bisect.bisect_right(starts, i) - 1], j
    return None


_FEW = 8  # rows left by `_least_power`'s narrowing for the full power


def _least_power(chunks: list, e: int) -> np.ndarray:
    """The lexicographically least of the e-th powers of the rows in
    `chunks`.  The rows are narrowed column by column, column p by the
    trajectories p, z(p), ..., z^e(p), down to at most _FEW; only those
    are raised to the e-th power whole."""
    for p in range(chunks[0].shape[1]):
        values = []
        for c in chunks:
            flat, offsets = c.ravel(), np.arange(0, c.size, c.shape[1])
            v = c[:, p].astype(np.int64)
            for _ in range(e - 1):
                v = flat[offsets + v]
            values.append(v)
        low = min(v.min() for v in values)
        chunks = [c[v == low] for c, v in zip(chunks, values) if low in v]
        if sum(map(len, chunks)) <= _FEW:
            break
    return _least_row(batch_power(np.concatenate(chunks), e))


def sylow_classes(G, r: int,
                  budget: int = DEFAULT_BUDGETS.exhaustive) -> list:
    """(least row, size, (least, greatest) fixed-point count) of each class
    of elements of order r in G, sorted by least row: the G-classes of the
    order-r rows of the subgroup H of `sylow_stage`, whose walks it
    reuses, under `budget`.  It takes the stage off G.

    One class per power family is walked.  For a row y not covered yet,
    if a power y^j lies in a class A walked here (stage walks keep no rows
    and are never a source), y's class is A^e with e = j^-1 mod r; else
    y's class is walked, its rows kept when r > 2 (an involution is its
    own only power).  This is exact: for e prime to r, z -> z^e is a
    bijection on the elements of order r that commutes with conjugation,
    (z^g)^e = (z^e)^g, so A^e is one G-class of |A| elements; z^e fixes
    exactly the points z fixes; and y = (y^j)^e lies in A^e.
    A^e's least row is read off A's rows (`_least_power`), and the rows
    of H whose j-th power lies in A, those of A^e, are dropped.  Raises
    CertificateError when y is not among them, or when the least row's
    fixed-point count is not A's."""
    if G.order() % r:
        return []
    _, walker, walks, rows = sylow_stage(G, r, budget)
    del G._sylow_stages[r, budget]
    found = [(w.least, w.size, w.fixed) for w in walks]
    first, sources = len(walker.seen), []
    ident = np.arange(G.degree)
    live = np.ones(len(rows), dtype=bool)
    for i, k in enumerate(walker.keys(rows[:, walker.base])):
        if not live[i] or k in walker.seen:
            continue
        source = _power_source(walker, sources, first, rows[i], r)
        if source is None:
            w = walker.walk(rows[i], keep=r > 2)
            sources.append(w)
            found.append((w.least, w.size, w.fixed))
            continue
        A, j = source
        e = _exponent(j, r)
        least = _least_power(A.rows, e).astype(walker.dtype)
        if ((least == ident).sum(),) * 2 != A.fixed:
            raise CertificateError("a power class's least row has a fixed-point "
                                   "count other than its source's")
        pending = np.flatnonzero(live)
        power = batch_power(rows[pending], pow(e, -1, r))  # z^(e^-1) in A
        at = [walker.seen.get(k, -1) for k in
              walker.keys(power[:, walker.base].astype(walker.dtype))]
        live[pending[[A.start <= a < A.start + A.size for a in at]]] = False
        if live[i]:
            raise CertificateError("an order-r row is missing from the power "
                                   "class assigned to it")
        found.append((least, A.size, A.fixed))
    return sorted(found, key=lambda t: tuple(t[0]))
