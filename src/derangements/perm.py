"""Core permutation-group engine.

Permutations are bijections of {0, ..., n-1} stored as numpy image arrays.
The composition convention is left-to-right throughout the project:

    (a * b)(x) = b(a(x)),   so  alpha^(g h) = (alpha^g)^h

which is the way exponent notation reads in the group-theory literature.
Points are 0-indexed internally and 1-indexed in cycle notation, file
formats and reports.

Groups carry a lazily built stabilizer chain.  Construction sifts random
words (from a generator seeded with the constant DEFAULT_SEED) for speed,
followed by a deterministic verification sweep in which every Schreier
generator of every level is sifted; the result is therefore exact, not
Monte Carlo.  A built chain can absorb further elements and be swept exact
again; normal_closure grows one chain per new closure so (Seress, ch. 4)
and keeps one object per normal subgroup, which later calls return.  Each
new strong generator grows the levels it belongs to in place (_grow): a
level it keeps closed stays the same object, and otherwise the search
starts from the new points only, keeping the old representatives.  Chains
are refused above config.CHAIN_DEGREE points.
The chain supplies order, membership, uniform random elements, canonical
right-coset representatives and the one element scan, element_batches,
which the derangement search (derangement_backtrack) and the class scan
(classes.order_r_rows) filter through _order_r_filter.

Known-order early stop (Sims 1970; Seress, Permutation Group Algorithms,
section 4.5).  The product of the basic orbit lengths of a partial chain
of H is a lower bound on |H|.  Once it reaches a proven upper bound on |H|
the chain is complete, the random phase ends and the sweep is skipped; a
product above the bound refutes it (CertificateError).  The bound is the
order of a group H lies in, of a group H is a quotient of, or of a direct
product of commuting factors H is the join of.  Only PermGroup hands one
to a chain: point_stabilizer passes |G| and then |G|/|alpha^G| for
G_alpha, and its own bound= keyword is passed by normal_closure (|N| for
the smallest kept closure N holding the seeds, else |G|; a chain that
reaches it returns N or G itself), classes._centralizer (|G|/|x^G|),
zoo.coset_action (|G|, for the image), zoo.subgroup_search (|G|, per
candidate), zoo.SocleDecl.validate (the product of the orders of factors
checked to commute, for their join) and structure.g_plus (|G|/2).  A
bound must be proven before the build.  A build that reaches it skips
the sweep and one that falls short sweeps as without one, so a later
order check still catches a shortfall; zoo.wreath, whose order only its
own check would establish, passes none.

The chain alone decides the transversal format (see _Orbit): per level, an
int64 matrix of inverse representative rows u^-1, one per orbit point in
sorted order, as in Sims's chains (Seress, section 4.1).  Strong
generators are image rows too, so building and sifting make no
Permutation objects.  A sift step g * u^-1 is then one gather, and _grow
builds each new inverse row from its parent's by one gather too, since
(u g)^-1 = g^-1 u^-1.  Forward rows are not stored beside them, which
would double the matrices, the part of a chain whose size grows with the
degree; the few readers of u itself (the Schreier sweep once per orbit
point, element_batches once per level per call) invert it with a scatter.
Chains hold the only transversal matrices: outside a chain,
transversal_inverse and orbital.orbital_graph walk the tree of _search.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .config import (CHAIN_DEGREE, DEFAULT_SEED, BudgetExceeded,
                     CertificateError)


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A bijection of {0, ..., n-1} stored as an image array."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        arr = np.array(images, dtype=np.int64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a permutation needs a nonempty 1-d image array")
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("image out of range")
        seen[arr] = True
        if not seen.all():
            raise ValueError("image array is not a bijection")
        arr.flags.writeable = False
        self.images = arr
        self._hash = None

    @classmethod
    def _raw(cls, arr: np.ndarray) -> "Permutation":
        # internal fast path: caller guarantees arr is a valid image array
        p = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.flags.writeable = False
        p.images = arr
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(np.arange(degree, dtype=np.int64))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]], *,
                    first: int = 0) -> "Permutation":
        """Build from disjoint cycles of points numbered from `first` (0, or
        1 in cycle notation); errors name the points as given."""
        img = np.arange(degree, dtype=np.int64)
        seen = set()
        for cyc in cycles:
            cyc = list(cyc)
            for pt in cyc:
                if not first <= pt < degree + first:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} appears in two cycles")
                seen.add(pt)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - first] = b - first
        return cls._raw(img)

    @property
    def degree(self) -> int:
        return self.images.size

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left-to-right: (self*other)(x) = other(self(x))
        if self.images.size != other.images.size:
            raise ValueError("degree mismatch")
        return Permutation._raw(other.images[self.images])

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def inverse(self) -> "Permutation":
        return Permutation._raw(_inverse_row(self.images))

    def __pow__(self, k: int) -> "Permutation":
        n = self.images.size
        if k < 0:
            return self.inverse() ** (-k)
        result = np.arange(n, dtype=np.int64)
        base = self.images
        while k:
            if k & 1:
                result = base[result]  # result := result * base
            base = base[base]
            k >>= 1
        return Permutation._raw(result)

    def order(self) -> int:
        cycs = self.cycles()
        return math.lcm(*(len(c) for c in cycs)) if cycs else 1

    def fixed_points(self) -> set:
        return set(int(i) for i in np.nonzero(self.images == np.arange(self.images.size))[0])

    def num_fixed(self) -> int:
        return int((self.images == np.arange(self.images.size)).sum())

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.images.size)).all())

    def is_derangement(self) -> bool:
        return self.num_fixed() == 0

    def cycles(self, include_fixed: bool = False) -> list:
        """Disjoint cycles (length >= 2), each starting at its least point.

        With include_fixed, fixed points appear as length-1 cycles.
        """
        img = self.images
        n = img.size
        seen = np.zeros(n, dtype=bool)
        out = []
        for start in range(n):
            if seen[start] or img[start] == start:
                if img[start] == start and include_fixed:
                    out.append((start,))
                seen[start] = True
                continue
            cyc = []
            pt = start
            while not seen[pt]:
                seen[pt] = True
                cyc.append(pt)
                pt = int(img[pt])
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-indexed disjoint cycle notation; '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def cycle_type(self) -> tuple:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def key(self) -> bytes:
        return self.images.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.size == other.images.size and bool(
            (self.images == other.images).all()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def batch_power(rows: np.ndarray, e: int) -> np.ndarray:
    """Row-wise e-th power of a batch of image rows (square and multiply),
    gathering x[y] row-wise as x.ravel()[y + row offsets]; the offsets are
    int64, so compact uint8 and uint16 rows cannot overflow."""
    m, n = rows.shape
    offsets = np.arange(0, m * n, n, dtype=np.int64)[:, None]
    acc = np.tile(np.arange(n, dtype=np.int64), (m, 1))
    base = rows
    while e:
        if e & 1:
            acc = base.ravel()[acc + offsets]
        e >>= 1
        if e:
            base = base.ravel()[base + offsets]
    return acc


def _order_r_filter(rows: np.ndarray, r: int) -> np.ndarray:
    """The rows of exact order r among compact image rows, r prime.

    An element of prime order r has only cycles of length 1 and r, so the
    points it moves number a positive multiple of r, and x^r fixes the
    first point x moves, a trajectory of r one-dimensional gathers.  The
    exact test x^r = 1 runs on the survivors, none of them the identity.
    """
    n = rows.shape[1]
    ident = np.arange(n, dtype=rows.dtype)
    moved = rows != ident
    counts = moved.sum(axis=1, dtype=np.min_scalar_type(max(n, r)))
    keep = np.flatnonzero((counts > 0) & (counts % r == 0))
    first = moved[keep].argmax(axis=1)
    flat, base, pts = rows.ravel(), keep * n, first
    for _ in range(r):
        pts = flat[base + pts]
    cand = rows[keep[pts == first]]
    return cand[(batch_power(cand, r) == ident).all(axis=1)]


def _components(n: int, u, v) -> np.ndarray:
    """For each point of range(n), the least point of its connected
    component in the graph with edges u[i] -- v[i] (u, v broadcast).

    Min-label propagation with pointer jumping: each round lowers
    lab[lab[u]] to lab[v] and lab[lab[v]] to lab[u] where smaller, then
    jumps labels to their labels until each labels itself.  Labels only
    fall and stay in their component; a round that changes nothing leaves
    one label per component, which its least point keeps as its own.
    """
    u, v = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)))
    lab = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = lab[u], lab[v]
        new = lab.copy()
        np.minimum.at(new, lu, lv)
        np.minimum.at(new, lv, lu)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def _cells(labels: np.ndarray) -> list:
    """The points grouped by label, as ascending arrays ordered by their
    least point (labels from _components name the least point)."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, starts) if order.size else []


def conjugate(x: Permutation, g: Permutation) -> Permutation:
    """x^g = g^-1 * x * g (left-to-right)."""
    ginv = g.inverse()
    return Permutation._raw(g.images[x.images[ginv.images]])


def commutator(a: Permutation, b: Permutation) -> Permutation:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


# ---------------------------------------------------------------------------
# cycle-notation parsing (1-indexed, as used in generator files and reports)


def parse_cycles(text: str) -> list:
    """Parse '(3,7,11,8)(4,10,5,6)' into cycles of 1-indexed points.

    '()' denotes the identity (no cycles).  Raises ValueError on malformed
    input; the caller attaches file/line context.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty cycle expression")
    cycles = []
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise ValueError(f"expected '(' at position {i}")
        j = s.find(")", i)
        if j < 0:
            raise ValueError("unclosed cycle")
        body = s[i + 1 : j].strip()
        if body:
            try:
                pts = [int(tok) for tok in re.split(r"[\s,]+", body)]
            except ValueError:
                raise ValueError(f"bad cycle body '{body}'") from None
            if any(p < 1 for p in pts):
                raise ValueError("cycle points must be >= 1")
            if len(set(pts)) != len(pts):
                raise ValueError("repeated point inside a cycle")
            cycles.append(tuple(pts))
        i = j + 1
    return cycles


# ---------------------------------------------------------------------------
# stabilizer chains


def _inverse_row(row: np.ndarray) -> np.ndarray:
    inv = np.empty_like(row)
    inv[row] = np.arange(row.size, dtype=np.int64)
    return inv


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """The inverse of each image row of a matrix, in one scatter."""
    inv = np.empty_like(rows)
    inv[np.arange(len(rows))[:, None], rows] = np.arange(rows.shape[1])
    return inv


class _Orbit(NamedTuple):
    """An orbit with a transversal, the format of every chain level.

    Row k of `inverse` is the image array of u^-1, where u is the
    representative taking `point` to points[k] (sorted); `index` maps a
    point to its row (-1 off the orbit); `discovered` lists the points in
    growth order: the points of the orbit it was grown from, then the new
    ones in the order _grow reached them (breadth first for _orbit).
    """

    point: int
    points: np.ndarray
    inverse: np.ndarray
    index: np.ndarray
    discovered: np.ndarray


def _search(images: list, inside: list, sources: list, start: int) -> tuple:
    """The points outside `inside` (a list of flags, set as points are
    reached) that a breadth-first search reaches: the points `sources`
    mapped by each row of images[start:], then the new points walked
    under all of images.  Returns the new points in the order reached
    and, for each, the pair (p, j) with q = p^images[j] that first
    reached it."""
    found, tree = [], []
    for p in sources:
        for j in range(start, len(images)):
            q = images[j][p]
            if not inside[q]:
                inside[q] = True
                found.append(q)
                tree.append((p, j))
    for p in found:  # grows while it is walked
        for j, img in enumerate(images):
            q = img[p]
            if not inside[q]:
                inside[q] = True
                found.append(q)
                tree.append((p, j))
    return found, tree


def _grow(orb: _Orbit, gens: np.ndarray, start: int) -> _Orbit:
    """The orbit of orb.point under the image rows `gens`, grown from orb,
    which is closed under gens[:start].

    orb itself is returned, nothing copied, when gens[start:] map each of
    its points into it.  Otherwise the search starts from the new points
    only: the old points, in discovered order, are mapped by each row of
    gens[start:], then the new points are walked breadth first under all
    of gens.  A new point q is first reached as p^g; its representative
    is rep(p) * g, whose inverse g^-1 * rep(p)^-1 is the inverse row of p
    gathered by g^-1.  Old rows are kept, so a grown orbit may have other
    representatives than one searched from scratch.  The rows are laid
    out anew in sorted point order, and `discovered` is the old order
    followed by the new points.
    """
    if (orb.index[gens[start:, orb.discovered]] >= 0).all():
        return orb
    inside = (orb.index >= 0).tolist()
    found, tree = _search(gens.tolist(), inside, orb.discovered.tolist(),
                          start)
    n = gens.shape[1]
    points = np.flatnonzero(inside)
    index = np.full(n, -1, dtype=np.int64)
    index[points] = np.arange(points.size)
    inverse = np.empty((points.size, n), dtype=np.int64)
    inverse[index[orb.points]] = orb.inverse
    inv_gens = _inverse_rows(gens)
    for q, (p, j) in zip(found, tree):
        inverse[index[q]] = inverse[index[p]][inv_gens[j]]
    return _Orbit(orb.point, points, inverse, index,
                  np.concatenate([orb.discovered, found]))


def _orbit(point: int, gens: np.ndarray) -> _Orbit:
    """Breadth-first orbit of `point` under the image rows `gens`: the
    one-point orbit grown by all of them."""
    n = gens.shape[1]
    index = np.full(n, -1, dtype=np.int64)
    index[point] = 0
    one = np.array([point], dtype=np.int64)
    return _grow(_Orbit(point, one, np.arange(n)[None, :], index, one),
                 gens, 0)


class StabilizerChain:
    """Base, transversals and strong generators for a permutation group.

    ``strong`` holds all strong generators as (image row, depth) pairs; a
    generator belongs to level i when it fixes base[0..i-1] pointwise.
    Level i's row for an orbit point q is the inverse of a representative
    u with base[i]^u = q.  Levels grow in place: a strong generator of
    depth d extends levels 0..d by _grow as it is added, so every level is
    always the orbit of its base point under its generators, and its
    `discovered` order is the order in which the points were added.

    ``bound`` is a proven upper bound on the order of the group generated
    (module docstring).  The random phase then ends as soon as the order
    reaches it, and the Schreier sweep is skipped: the order is a lower
    bound on the group's, so the two are equal and the chain is complete.
    The chain is then the one an unbounded build returns, since every
    later random word and Schreier generator would sift to the identity.
    An order above the bound raises CertificateError.
    ``_absorb`` grows a built chain by an element and ``_complete`` makes
    it exact again, both under the same bound.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 base_prefix: Sequence[int] = (), *,
                 bound: Optional[int] = None):
        if degree > CHAIN_DEGREE:
            raise BudgetExceeded(
                f"refusing to build a stabilizer chain at degree {degree} "
                f"(limit {CHAIN_DEGREE}); use the structural checkers instead")
        self.degree = degree
        self.base: list = []
        self.levels: list = []
        self.strong: list = []  # (image row, depth)
        self._identity = np.arange(degree, dtype=np.int64)
        self._bound = bound
        self._swept = False  # True while no absorption follows the last sweep
        gens = [g.images for g in generators if not g.is_identity()]
        self._build(gens, list(base_prefix))

    # -- construction ------------------------------------------------------

    def _depth(self, g: np.ndarray) -> int:
        """Number of leading base points fixed by g."""
        moved = np.flatnonzero(g[self.base] != self.base)
        return int(moved[0]) if moved.size else len(self.base)

    def _level_gens(self, i: int) -> np.ndarray:
        gens = [g for g, depth in self.strong if depth >= i]
        return np.array(gens, dtype=np.int64).reshape(len(gens), self.degree)

    def _new_level(self, point: int):
        self.base.append(point)
        self.levels.append(_orbit(point, self._level_gens(len(self.base) - 1)))

    def _add_strong(self, g: np.ndarray):
        """Add g as a strong generator and grow levels 0..depth(g), the
        ones it belongs to, in place; return its depth."""
        depth = self._depth(g)
        if depth == len(self.base):
            # g fixes the whole base: extend it with g's first moved point
            self._new_level(int(np.flatnonzero(g != self._identity)[0]))
        self.strong.append((g, depth))
        for i in range(depth + 1):
            gens = self._level_gens(i)  # g comes last
            self.levels[i] = _grow(self.levels[i], gens, len(gens) - 1)
        return depth

    def _sift(self, g: np.ndarray, from_level: int = 0) -> np.ndarray:
        """Strip the image row g through the levels; return the residue."""
        for i in range(from_level, len(self.levels)):
            lvl = self.levels[i]
            k = lvl.index[g[lvl.point]]
            if k < 0:
                return g
            g = lvl.inverse[k][g]  # g * u^-1
        return g

    def _reached_bound(self) -> bool:
        """True when the order equals the bound; raises above it."""
        if self._bound is None:
            return False
        order = self.order()
        if order > self._bound:
            raise CertificateError(
                f"chain order {order} exceeds the certified bound {self._bound}")
        return order == self._bound

    def _build(self, gens: list, base_prefix: list):
        for b in base_prefix:
            self._new_level(b)
        for g in gens:
            self._add_strong(g)

        # randomized seeding: sift random words, add residues
        if self.strong:
            rng = np.random.default_rng(DEFAULT_SEED)
            misses = 0
            while misses < 8 and not self._reached_bound():
                word = rng.integers(0, len(self.strong), size=int(rng.integers(2, 8)))
                w = self.strong[word[0]][0]
                for idx in word[1:]:
                    w = self.strong[idx][0][w]  # w * g
                misses = 0 if self._absorb(w) else misses + 1
        self._complete()

    def _absorb(self, g: np.ndarray) -> bool:
        """Sift the image row g and keep a nonidentity residue as a strong
        generator; True when g was absorbed, False when it is a member."""
        residue = self._sift(g)
        if (residue == self._identity).all():
            return False
        self._add_strong(residue)
        self._swept = False
        return True

    def _complete(self):
        """The Schreier sweep, unless nothing was absorbed since the last
        one or the order has reached the bound."""
        if self._swept or self._reached_bound():
            return
        i = len(self.levels) - 1
        while i >= 0:
            residue = self._schreier_residue(i)
            if residue is None:
                i -= 1
                continue
            # the residue fixes base[0..i], so its depth d exceeds i; the
            # levels below d+1 grew, and the sweep resumes at level d
            i = self._add_strong(residue)
        self._swept = True
        self._reached_bound()  # raises when the sweep went past the bound

    def _schreier_residue(self, i: int):
        """The residue of the first Schreier generator u * s * u2^-1 of
        level i, points in discovered order, that does not sift to the
        identity; None when all do."""
        lvl = self.levels[i]
        gens = self._level_gens(i)
        for pt in lvl.discovered.tolist():
            u = _inverse_row(lvl.inverse[lvl.index[pt]])
            for s in gens:
                residue = self._sift(lvl.inverse[lvl.index[s[pt]]][s[u]],
                                     i + 1)
                if not (residue == self._identity).all():
                    return residue
        return None

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.points)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue = self._sift(g.images)
        return bool((residue == self._identity).all())

    def random_element(self, rng: np.random.Generator) -> Permutation:
        inv = np.arange(self.degree, dtype=np.int64)
        for lvl in reversed(self.levels):
            pts = lvl.discovered
            v = lvl.inverse[lvl.index[pts[int(rng.integers(0, len(pts)))]]]
            inv = inv[v]  # inv := t^-1 * inv, the inverse of t_{k-1}...t_0
        return Permutation._raw(_inverse_row(inv))

    def canonical_rows(self, rows: np.ndarray) -> np.ndarray:
        """For each image row x of a matrix, the row of the element of the
        right coset H*x (H this chain's group) whose base images are least."""
        for lvl in self.levels:
            k = np.argmin(rows[:, lvl.points], axis=1)
            nxt = np.empty_like(rows)
            np.put_along_axis(nxt, lvl.inverse[k], rows, axis=1)  # u * row
            rows = nxt
        return rows


# ---------------------------------------------------------------------------
# groups

_BATCH_ENTRIES = 1 << 18  # entries per chunk of the product-tree walk


class PermGroup:
    """A finite permutation group on {0, ..., degree-1} given by generators.

    The chain is built on first use, under `bound`, a proven upper bound
    on the order (module docstring), when one is given; a normal closure
    comes with the chain it was grown on.  No other class builds chains.
    """

    def __init__(self, generators: Sequence[Permutation],
                 degree: Optional[int] = None, *,
                 bound: Optional[int] = None):
        gens = list(generators)
        if not gens:
            if degree is None:
                raise ValueError("a group needs generators or an explicit degree")
            gens = [Permutation.identity(degree)]
        if degree is not None and any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        d = gens[0].degree
        if any(g.degree != d for g in gens):
            raise ValueError("generators have unequal degrees")
        self.degree = d
        self.generators = tuple(gens)
        self._bound = bound
        self._chain: Optional[StabilizerChain] = None
        self._stab_cache: dict = {}
        self._closures: dict = {}  # seeds' keys -> normal closure in self
        self._class_reps_cache: dict = {}  # r -> ClassInfo list
        self._sylow_stages: dict = {}  # (r, budget) -> classes.sylow_stage
        self._labels: Optional[np.ndarray] = None  # see _orbit_labels

    # -- chain -------------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators,
                                          bound=self._bound)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, x: Permutation) -> bool:
        return self.chain.contains(x)

    def is_subgroup(self, other: "PermGroup") -> bool:
        """True when self <= other (membership of every generator)."""
        return all(other.contains(g) for g in self.generators)

    def random_element(self, rng: np.random.Generator) -> Permutation:
        return self.chain.random_element(rng)

    # -- orbits ------------------------------------------------------------

    def _orbit_labels(self) -> np.ndarray:
        """The least point of each point's orbit (edges p -- p^g)."""
        if self._labels is None:
            self._labels = _components(self.degree, np.arange(self.degree),
                                       [g.images for g in self.generators])
        return self._labels

    def _check_point(self, point: int):
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")

    def orbit(self, point: int) -> set:
        self._check_point(point)
        labels = self._orbit_labels()
        return set(np.flatnonzero(labels == labels[point]).tolist())

    def orbits(self) -> list:
        return [cell.tolist() for cell in _cells(self._orbit_labels())]

    def is_transitive(self) -> bool:
        return not self._orbit_labels().any()

    def transversal_inverse(self, point: int, target: int) -> Optional[np.ndarray]:
        """The inverse u^-1 of an element u with point^u = target, or None
        when target lies off the orbit: the row for target of the chain
        level `_orbit(point, generators)`, built alone by the same search,
        then the inverted generators on its tree path from target back to
        point composed into one row."""
        self._check_point(point)
        self._check_point(target)
        gens = np.stack([g.images for g in self.generators])
        inside = [False] * self.degree
        inside[point] = True
        found, tree = _search(gens.tolist(), inside, [point], 0)
        if not inside[target]:
            return None
        parent = dict(zip(found, tree))
        inv_gens = _inverse_rows(gens)
        row = np.arange(self.degree)
        while target != point:
            target, j = parent[target]
            row = inv_gens[j][row]  # row * g^-1, the last step first
        return row

    # -- derived subgroups, closures ----------------------------------------

    def point_stabilizer(self, point: int) -> "PermGroup":
        self._check_point(point)
        if point not in self._stab_cache:
            chain = StabilizerChain(self.degree, self.generators,
                                    base_prefix=[point], bound=self.order())
            sub = PermGroup([Permutation._raw(g) for g, depth in chain.strong
                             if depth >= 1], degree=self.degree,
                            bound=chain.order() // len(chain.levels[0].points))
            # orbit-stabilizer cross-check comes for free
            if chain.order() != sub.order() * len(chain.levels[0].points):
                raise CertificateError(
                    "point stabilizer fails the orbit-stabilizer check")
            self._stab_cache[point] = sub
        return self._stab_cache[point]

    def normal_closure(self, elements: Sequence[Permutation]) -> "PermGroup":
        """Smallest normal subgroup of self containing the given elements.

        One chain grows per call: the seeds' group, bounded as below,
        absorbs each conjugate of a listed generator by a generator of
        self, lists one that leaves a residue and takes the list as its
        generators; a last sweep makes it exact.  Its group K is <gens>,
        as strong generators are products of generators and each
        generator was absorbed or sifted to the identity; K is normal, as
        every conjugate of every generator sifted into K.

        Each normal subgroup is one object: `_closures` keeps every
        closure under its seeds' keys, so a repeated seed list returns the
        kept object.  The bound is |N| for the smallest kept closure N
        that holds every seed (so holds <x^G>), else |G| with N = G.  A
        chain reaching it is N, skips its sweep and returns N itself.
        """
        for x in elements:
            if not self.contains(x):
                raise ValueError("closure seed element lies outside the group")
        gens = list(dict.fromkeys(x for x in elements if not x.is_identity()))
        if not gens:
            return PermGroup([], degree=self.degree)
        key = tuple(x.key() for x in gens)
        if key in self._closures:
            return self._closures[key]
        N = min((N for N in dict.fromkeys(self._closures.values())
                 if all(N.contains(x) for x in gens)),
                key=PermGroup.order, default=self)
        closure = PermGroup(gens, degree=self.degree, bound=N.order())
        chain = closure.chain
        for x in gens:  # grows while it is walked
            for g in self.generators:
                c = conjugate(x, g)
                if chain._absorb(c.images):
                    gens.append(c)
        chain._complete()
        closure.generators = tuple(gens)
        if chain.order() == N.order():
            closure = N
        self._closures[key] = closure
        return closure

    def derived_subgroup(self) -> "PermGroup":
        comms = [commutator(a, b)
                 for i, a in enumerate(self.generators)
                 for b in self.generators[i + 1:]]
        return self.normal_closure([c for c in comms if not c.is_identity()])

    def is_normal(self, sub: "PermGroup") -> bool:
        if not sub.is_subgroup(self):
            return False
        return all(sub.contains(conjugate(x, g))
                   for x in sub.generators for g in self.generators)

    # -- blocks -------------------------------------------------------------

    def minimal_block_system(self, alpha: int, beta: int):
        """Finest block system with alpha, beta in one cell, or None.

        None means the pair forces the universal partition (no proper
        nontrivial block contains both points).  Requires transitivity.

        The blocks through alpha are the alpha-orbits of the overgroups of
        G_alpha (Dixon–Mortimer, Permutation Groups, Thm 1.5A;
        Holt–Eick–O'Brien ch. 4).  A block holding alpha and beta is fixed
        by any u with alpha^u = beta, so the least one is the alpha-orbit
        of <G_alpha, u>, read from its orbit labels with no chain.  The
        other cells are its images under the generators, walked breadth
        first; an image that meets a cell without being it refutes the
        block (CertificateError).
        """
        self._check_point(alpha)
        self._check_point(beta)
        if not self.is_transitive():
            raise ValueError("block systems need a transitive group")
        if alpha == beta:
            raise ValueError("need two distinct points")
        n = self.degree
        u_inv = Permutation._raw(self.transversal_inverse(alpha, beta))
        over = PermGroup(self.point_stabilizer(alpha).generators + (u_inv,))
        labels = over._orbit_labels()
        block = np.flatnonzero(labels == labels[alpha])
        if block.size == n:
            return None
        cell = np.full(n, -1, dtype=np.int64)
        cell[block] = 0
        cells = [block]
        for c in cells:  # grows while it is walked
            for g in self.generators:
                image = g.images[c]
                hit = cell[image]
                if hit[0] >= 0 and (hit == hit[0]).all():
                    continue
                if (hit >= 0).any():
                    raise CertificateError(
                        "a block image meets a cell without being it")
                cell[image] = len(cells)
                cells.append(image)
        return BlockSystem(n, [tuple(c.tolist()) for c in cells])

    def is_primitive(self) -> bool:
        return self.is_transitive() and self.nontrivial_block_system() is None

    def nontrivial_block_system(self):
        """Some proper nontrivial block system, or None when primitive.

        Any imprimitive transitive group has a minimal system through some
        pair (0, beta).  That system is the same for every beta in one
        G_0-orbit: h in G_0 maps it to the system through (0, beta^h), and
        an invariant partition is its own image (Atkinson 1975;
        Holt–Eick–O'Brien ch. 4).  So one beta per G_0-orbit, its least
        point, is tried, in ascending order, which finds the system the
        scan over every beta finds first.
        """
        for orbit in self.point_stabilizer(0).orbits()[1:]:
            bs = self.minimal_block_system(0, orbit[0])
            if bs is not None:
                return bs
        return None

    # -- enumeration ---------------------------------------------------------

    def element_batches(self) -> Iterator[np.ndarray]:
        """Yield compact image matrices whose rows enumerate the group
        exactly once: the leaves t_{k-1} * ... * t_0 of the chain's product
        tree in DFS order, lexicographic in (t_0, ..., t_{k-1}), as chunks
        of rows of dtype np.min_scalar_type(degree - 1).  Uniqueness follows
        from the chain's unique factorization.

        A node at level i is a product t_i * ... * t_0 of transversal rows
        (t_i applied first; each level's inverse rows are inverted once per
        call).  DFS frames hold a level's parent rows; a chunk of parents,
        about _BATCH_ENTRIES entries of children, is expanded in one
        gather, and its children are walked before the next chunk.
        So no chunk has more than max(_BATCH_ENTRIES // degree, largest
        level) rows.  The trivial group yields one row, the identity.
        """
        chain, n = self.chain, self.degree
        root = np.arange(n, dtype=np.min_scalar_type(n - 1))[None, :]
        if not chain.levels:
            yield root
            return
        levels = [_inverse_rows(lvl.inverse) for lvl in chain.levels]
        last = len(levels) - 1
        frames = [[0, root, 0]]  # [level, parent rows, next parent]
        while frames:
            frame = frames[-1]
            i, parents, lo = frame
            if lo >= len(parents):
                frames.pop()
                continue
            T = levels[i]
            frame[2] = lo + max(1, _BATCH_ENTRIES // (n * len(T)))
            children = np.take(parents[lo:frame[2]], T, axis=1).reshape(-1, n)
            if i < last:
                frames.append([i + 1, children, 0])
            else:
                yield children

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


class BlockSystem:
    """A G-invariant partition of the point set into equal-size cells."""

    def __init__(self, degree: int, cells: Sequence[Sequence[int]]):
        cells = [tuple(sorted(c)) for c in cells]
        sizes = {len(c) for c in cells}
        if len(sizes) != 1:
            raise ValueError("block cells must have equal size")
        self.cells = sorted(cells)
        self._members = np.array(self.cells, dtype=np.int64)
        if not np.array_equal(np.sort(self._members, axis=None),
                              np.arange(degree)):
            raise ValueError("cells do not partition the point set")
        self.degree = degree
        (self.cell_size,) = sizes
        self.cell_count = len(cells)
        self._label = np.empty(degree, dtype=np.int64)
        self._label[self._members] = np.arange(len(cells))[:, None]

    def cell_of(self, point: int) -> int:
        return int(self._label[point])

    def is_invariant(self, G: PermGroup) -> bool:
        """True when every generator maps each cell into a single cell."""
        for g in G.generators:
            image_cells = self._label[g.images[self._members]]
            if not (image_cells == image_cells[:, :1]).all():
                return False
        return True

    def __repr__(self) -> str:
        return f"BlockSystem({self.cell_count} cells of size {self.cell_size})"


# ---------------------------------------------------------------------------
# the derangement search


def derangement_backtrack(G: PermGroup, r: int) -> Optional[Permutation]:
    """Find an order-r element of G without fixed points, or certify None.

    A filter over the one element scan: each batch of G.element_batches()
    passes `_order_r_filter`, then its few survivors the fixed-point-free
    mask.  The witness is the first in DFS order, widened to int64.

    A derangement of prime order r has only r-cycles, so None is returned
    at once unless r divides both |G| and the degree (never for the
    trivial group).  A returned None is exact: every element was scanned.
    """
    if G.order() % r or G.degree % r:
        return None
    ident = np.arange(G.degree)
    for rows in G.element_batches():
        found = _order_r_filter(rows, r)
        found = found[(found != ident).all(axis=1)]
        if len(found):
            return Permutation._raw(found[0])
    return None
