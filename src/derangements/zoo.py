"""Constructions: projective lines, M11, coset actions, wreath products.

This module builds the concrete permutation actions that the verification
harness runs on.  Groups come out as GroupAction records carrying the
PermGroup together with point labels, a provenance string, and whatever
bookkeeping (coset tables, wreath decompositions, declared socles) later
stages need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .classes import _budget_error, sylow_classes
from .config import (CHAIN_DEGREE, DEFAULT_BUDGETS, DEFAULT_SEED, MATERIALIZE,
                     Budgets, BudgetExceeded, CertificateError)
from .numbers import is_prime, prime_divisors, primitive_root_mod, radical
from .perm import _BATCH_ENTRIES, Permutation, PermGroup, parse_cycles

__all__ = [
    "GroupAction",
    "SocleDecl",
    "CosetConstruction",
    "MersenneScenario",
    "mersenne_scenario",
    "WreathSpec",
    "WreathElement",
    "GeneratorFileError",
    "projective_line_action",
    "borel_subgroup",
    "m11",
    "natural_action",
    "subgroup_search",
    "coset_action",
    "wreath",
    "assemble_stabilizer",
    "coordinate_embedding",
    "top_embedding",
    "load_generators",
    "format_generator_file",
]


# ---------------------------------------------------------------------------
# actions and socle bookkeeping


@dataclass
class SocleDecl:
    """A declared socle: simple factors that commute with each other.
    `validate` checks that they do, builds their join and keeps it as
    `subgroup`; once the join is proven normal it also enters the group's
    normal-closure memo, so that the closure of a socle element is
    bounded by the socle's order and returns `subgroup` itself."""

    factors: list
    subgroup: Optional[PermGroup] = field(default=None, init=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a declared socle needs at least one factor")

    def validate(self, action: "GroupAction") -> None:
        G = action.group
        if any(F.degree != G.degree for F in self.factors):
            raise ValueError("socle degree does not match the action")
        # commuting factors: their join is a quotient of their direct product
        self._check_commuting()
        prod = math.prod(F.order() for F in self.factors)
        gens = dict.fromkeys(g for F in self.factors for g in F.generators)
        join = PermGroup(list(gens), degree=G.degree, bound=prod)
        if join.order() != prod:  # a proper quotient: not a direct product
            raise ValueError("declared factors do not decompose the socle")
        if not G.is_normal(join):
            raise ValueError("declared socle is not normal")
        G._closures[tuple(g.key() for g in join.generators)] = join
        self.subgroup = join

    def _check_commuting(self) -> None:
        """Every generator of a factor commutes with every generator of
        every other factor: g h = h[g] against h g = g[h], one comparison
        per pair of factors."""
        rows = [np.stack([g.images for g in F.generators]) for F in self.factors]
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if not np.array_equal(b[:, a].swapaxes(0, 1), a[:, b]):
                    raise ValueError("declared factors do not commute")


@dataclass
class GroupAction:
    """A permutation group together with what its points stand for."""

    group: PermGroup
    point_labels: tuple
    provenance: str
    declared_socle: Optional[SocleDecl] = None
    parent: Optional["CosetConstruction"] = None
    wreath: Optional["WreathSpec"] = None
    faithful: Optional[bool] = None
    subgroups: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.point_labels) != self.group.degree:
            raise ValueError(
                f"{len(self.point_labels)} labels for degree {self.group.degree}"
            )
        self.point_labels = tuple(self.point_labels)

    @property
    def degree(self) -> int:
        return self.group.degree

    def order(self) -> int:
        return self.group.order()

    def __repr__(self):
        return f"GroupAction({self.provenance!r}, degree={self.degree})"


def natural_action(group: PermGroup, provenance: str) -> GroupAction:
    return GroupAction(group, tuple(range(1, group.degree + 1)), provenance)


def _as_group(G) -> PermGroup:
    return G.group if isinstance(G, GroupAction) else G


# ---------------------------------------------------------------------------
# generator files

GENERATOR_FILE_DOC = """\
Generator file format: one 'degree <n>' line (n at most 1000000), then one
'gen <cycles>' line per generator with cycles on points 1..n, e.g.
'gen (1 2 3)(4 5)'.  'gen ()' is the identity.  Blank lines are skipped and
'#' starts a comment."""


class GeneratorFileError(ValueError):
    """A malformed generator file.  The message names line `lineno`, or
    no line when it is None, for a fault of the whole file such as a
    missing degree line."""

    def __init__(self, lineno: Optional[int], message: str):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


def load_generators(path) -> PermGroup:
    """Read a generator file (see GENERATOR_FILE_DOC) into a PermGroup."""
    degree = None
    gens = []
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, 1):
            try:
                raw = data.decode("utf-8")
            except UnicodeDecodeError:
                raise GeneratorFileError(lineno, "not UTF-8 text") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "degree":
                if degree is not None:
                    raise GeneratorFileError(lineno, "duplicate degree line")
                try:
                    degree = int(rest.strip())
                except ValueError:
                    raise GeneratorFileError(lineno, f"bad degree {rest.strip()!r}") from None
                if degree < 1:
                    raise GeneratorFileError(lineno, "degree must be positive")
                if degree > MATERIALIZE:
                    raise GeneratorFileError(
                        lineno, f"degree {degree} exceeds the materialize "
                        f"budget {MATERIALIZE}")
            elif head == "gen":
                if degree is None:
                    raise GeneratorFileError(lineno, "gen before degree line")
                try:
                    cycles = parse_cycles(rest.strip())
                    gens.append(Permutation.from_cycles(degree, cycles, first=1))
                except ValueError as exc:
                    raise GeneratorFileError(lineno, str(exc)) from None
            else:
                raise GeneratorFileError(lineno, f"unknown directive {head!r}")
    if degree is None:
        raise GeneratorFileError(None, "missing degree line")
    return PermGroup(gens, degree=degree)


def format_generator_file(G: PermGroup, comment: str = "") -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"degree {G.degree}")
    for g in G.generators:
        lines.append(f"gen {g.cycle_string()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# projective lines


def _line_maps(q: int) -> tuple:
    """(t, m, w, frob): the maps x -> x+1, x -> lam*x and x -> 1/x of the
    projective line over F_q, and for q = 9 the Frobenius x -> x^3 (else
    None), as Permutations of the field elements 0..q-1 with infinity at
    q.  q is 9 or a prime.  F_9 is F_3[t]/(t^2+1), a+bt encoded a+3b,
    with lam = 1+t; for prime q, lam is the least primitive root.
    m.order() == q-1 certifies that lam generates F_q^*."""
    x = np.arange(q, dtype=np.int64)
    if q == 9:
        a, b = x % 3, x // 3
        enc = lambda a, b: a % 3 + 3 * (b % 3)
        # (1+t)(a+bt) = (a-b) + (a+b)t, as t^2 = -1
        add, mul, frob = enc(a + 1, b), enc(a - b, a + b), enc(a, -b)
    else:
        add, mul, frob = (x + 1) % q, primitive_root_mod(q) * x % q, None
    t, m = Permutation(np.append(add, q)), Permutation(np.append(mul, q))
    if m.order() != q - 1:
        raise CertificateError(f"the multiplier should generate F{q}*")
    # lam^k for k = 0..q-2, walking x -> lam*x from 1; 1/lam^k = lam^-k
    powers = [1]
    while len(powers) < q - 1:
        powers.append(int(mul[powers[-1]]))
    inv = np.empty(q + 1, dtype=np.int64)
    inv[powers] = np.array(powers)[-np.arange(q - 1) % (q - 1)]
    inv[0], inv[q] = q, 0
    return (t, m, Permutation(inv),
            None if frob is None else Permutation(np.append(frob, q)))


def _element_order_set(G: PermGroup, budget: int) -> frozenset:
    if G.order() > budget:
        raise BudgetExceeded("order-set fingerprint needs full enumeration")
    orders = set()
    for batch in G.element_batches():
        for row in batch:
            orders.add(Permutation._raw(row.copy()).order())
    return frozenset(orders)


def projective_line_action(q: int, budgets: Budgets = DEFAULT_BUDGETS) -> GroupAction:
    """The projective line over F_q with its full semilinear group.

    Points are 0..q-1 (field elements; for q=9, a+bt is encoded a+3b) and
    infinity at index q.  One path serves every q: PGL2(q) = <t, m, w>
    from the line's maps (`_line_maps`), its order checked against
    q(q^2-1), and PSL2(q) its derived subgroup, of half that order.  For
    prime q the group is PGL2(q) and the distinguished subgroups are PSL
    and PGL; for q=9 the Frobenius is added, the group is PGammaL2(9) =
    Aut(A6) of order 1440, and the subgroups dict also carries the three
    index-2 overgroups of PSL2(9) = A6, told apart by element-order
    fingerprints (order 10 only in PGL2(9), order 6 only in S6, M10 has
    element orders {1,2,3,4,5,8}).
    """
    if q != 9 and (not is_prime(q) or q < 5):
        raise ValueError(f"q={q} unsupported: need an odd prime >= 5 or q = 9")
    t, m, w, frob = _line_maps(q)
    pgl = PermGroup([t, m, w], degree=q + 1)
    if pgl.order() != q * (q - 1) * (q + 1):
        raise CertificateError(f"PGL2({q}) order came out wrong")
    psl = pgl.derived_subgroup()
    if psl.order() != q * (q - 1) * (q + 1) // 2:
        raise CertificateError(f"PSL2({q}) order came out wrong")
    if frob is None:
        labels = tuple(str(x) for x in range(q)) + ("inf",)
        return GroupAction(
            pgl, labels, f"PGL2({q}) on the projective line over F{q}",
            faithful=True, subgroups={"PSL": psl, "PGL": pgl},
        )

    full = PermGroup([t, m, w, frob], degree=10)
    if full.order() != 1440:
        raise CertificateError("PGammaL2(9) order came out wrong")
    if pgl.contains(frob):
        raise CertificateError("the field automorphism should lie outside PGL2(9)")
    overgroups = {
        "PGL2(9)": pgl,
        "S6": PermGroup([*psl.generators, frob], degree=10),
        "M10": PermGroup([*psl.generators, m * frob], degree=10),
    }
    fingerprints = {}
    for name, H in overgroups.items():
        if H.order() != 720:
            raise CertificateError(f"index-2 overgroup {name} has order {H.order()}")
        fingerprints[name] = _element_order_set(H, budgets.exhaustive)
    expected = {
        "PGL2(9)": lambda s: 10 in s,
        "S6": lambda s: 6 in s,
        "M10": lambda s: s == frozenset({1, 2, 3, 4, 5, 8}),
    }
    for name, pred in expected.items():
        hits = [k for k, s in fingerprints.items() if pred(s)]
        if hits != [name]:
            raise CertificateError(f"fingerprint for {name} matched {hits}")
    labels = tuple(
        f"{a}+{b}t" if b else str(a)
        for b in range(3)
        for a in range(3)
    ) + ("inf",)
    subgroups = {"PSL": psl, "A6": psl, "PGL": pgl, "Aut(A6)": full}
    subgroups.update(overgroups)
    return GroupAction(
        full, labels, "PGammaL2(9) on the projective line over F9",
        faithful=True, subgroups=subgroups,
    )


# ---------------------------------------------------------------------------
# Mersenne scenarios and Borel subgroups


@dataclass(frozen=True)
class MersenneScenario:
    """A Mersenne prime p = 2^m - 1 with r = rad((p-1)/2) and a chosen
    multiplier order s with r | s | (p-1)/2."""

    p: int
    m: int
    r: int
    s: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p + 1 != 2**self.m:
            raise ValueError(f"p={self.p} is not 2^{self.m}-1")
        half = (self.p - 1) // 2
        if self.r != radical(half):
            raise ValueError(f"r={self.r} is not rad({half})")
        if self.s % self.r != 0 or half % self.s != 0:
            raise ValueError(f"s={self.s} must be a multiple of {self.r} dividing {half}")


def mersenne_scenario(p: int, s: Optional[int] = None) -> MersenneScenario:
    m = (p + 1).bit_length() - 1
    r = radical((p - 1) // 2)
    return MersenneScenario(p=p, m=m, r=r, s=r if s is None else s)


def borel_subgroup(scn: MersenneScenario, flavor: str, t: int) -> PermGroup:
    """The subgroup {x -> ax+b : a in the order-t subgroup of F_p*} of
    PGL2(p) on the projective line, of order p*t: <t, m^((p-1)/t)> from
    the maps of `projective_line_action` (`_line_maps`).  flavor 'psl'
    requires t | (p-1)/2 (so the subgroup lies in PSL2(p)); 'pgl' allows
    t | p-1.
    """
    p = scn.p
    if flavor == "psl":
        if ((p - 1) // 2) % t != 0:
            raise ValueError(f"t={t} does not divide (p-1)/2 = {(p - 1) // 2}")
    elif flavor == "pgl":
        if (p - 1) % t != 0:
            raise ValueError(f"t={t} does not divide p-1 = {p - 1}")
    else:
        raise ValueError(f"flavor must be 'psl' or 'pgl', got {flavor!r}")
    shift, m, _w, _frob = _line_maps(p)
    H = PermGroup([shift, m ** ((p - 1) // t)], degree=p + 1)
    if H.order() != p * t:
        raise CertificateError(f"Borel subgroup order {H.order()}, expected {p * t}")
    return H


# ---------------------------------------------------------------------------
# M11


def m11() -> GroupAction:
    """The Mathieu group M11 in its natural action on 11 points."""
    a = Permutation.from_cycles(11, [tuple(range(11))])
    b = Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    G = PermGroup([a, b], degree=11)
    if G.order() != 7920:
        raise CertificateError(f"M11 order {G.order()}, expected 7920")
    return GroupAction(
        G, tuple(range(1, 12)), "M11 on 11 points", faithful=True
    )


# ---------------------------------------------------------------------------
# seeded subgroup search


def _is_simple(H: PermGroup, budget: int) -> bool:
    """Whether H is simple.  A proper nontrivial normal subgroup holds an
    element of prime order, so a nontrivial H is simple exactly when the
    class of each element of prime order r has normal closure H: one row
    per class, from `sylow_classes(H, r)` for each prime r dividing |H|."""
    order = H.order()
    if order == 1:
        return False
    if is_prime(order):
        return True
    if order > budget:
        raise _budget_error(H, budget)
    return all(H.normal_closure([Permutation._raw(row)]).order() == order
               for r in prime_divisors(order)
               for row, _size, _fixed in sylow_classes(H, r, budget))


def subgroup_search(
    G,
    target_order: int,
    element_orders: Optional[Sequence[int]] = None,
    require_simple: bool = False,
    seed: int = DEFAULT_SEED,
    attempts: int = 600,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Optional[PermGroup]:
    """Look for a subgroup of the given order by seeded random generation.

    Draws small random generating sets (sometimes powered down to prime
    order), keeps the first candidate whose order matches and which passes
    the optional element-order-set and simplicity filters.  The simplicity
    filter takes the normal closure of one element per class of prime
    order, with the classes from `classes.sylow_classes` (`_is_simple`).
    Deterministic for a fixed seed; returns None when the attempt budget
    runs out.
    """
    group = _as_group(G)
    if target_order < 1 or group.order() % target_order != 0:
        raise ValueError(
            f"target order {target_order} does not divide {group.order()}"
        )
    if target_order == 1:
        return PermGroup([], degree=group.degree)
    wanted = None if element_orders is None else frozenset(element_orders)
    rng = np.random.default_rng(seed)
    for trial in range(attempts):
        ngens = 2 + (trial % 3 == 2)
        gens = []
        for _ in range(ngens):
            x = group.random_element(rng)
            if trial % 2 == 1 and not x.is_identity():
                o = x.order()
                ps = prime_divisors(o)
                x = x ** (o // ps[int(rng.integers(len(ps)))])
            if not x.is_identity():
                gens.append(x)
        if not gens:
            continue
        H = PermGroup(gens, degree=group.degree, bound=group.order())
        if H.order() != target_order:
            continue
        if wanted is not None and _element_order_set(H, budgets.exhaustive) != wanted:
            continue
        if require_simple and not _is_simple(H, budgets.exhaustive):
            continue
        return H
    return None


# ---------------------------------------------------------------------------
# coset actions


class CosetConstruction:
    """Bookkeeping for a right-coset action of G on the cosets of H.

    Holds the canonical coset representatives as the rows of the int64
    matrix reps (point i is the coset H*reps[i], point 0 the trivial coset)
    and the action homomorphism push().  The canonical representative of
    Hx is the element whose images of H's base are least
    (StabilizerChain.canonical_rows); its image row is the coset's key.
    """

    def __init__(self, G: PermGroup, H: PermGroup, parent_action: Optional["GroupAction"] = None):
        self.parent_group = G
        self.stabilizer = H
        self.parent_action = parent_action

    def _keys(self, rows: np.ndarray) -> list:
        """The key of the coset H*x for each image row x of a matrix."""
        step = max(1, _BATCH_ENTRIES // rows.shape[1])
        return [row.tobytes() for lo in range(0, len(rows), step)
                for row in self.stabilizer.chain.canonical_rows(rows[lo:lo + step])]

    def _build_table(self, budgets: Budgets):
        """Number the cosets breadth first, a layer at a time, new ones in
        (coset, generator) order; returns the generators' images."""
        G, H = self.parent_group, self.stabilizer
        index = G.order() // H.order()
        if index > budgets.degree:
            raise BudgetExceeded(
                f"coset action degree {index} exceeds the degree budget {budgets.degree}"
            )
        n, gens = G.degree, np.stack([g.images for g in G.generators])
        lookup = dict.fromkeys(self._keys(np.arange(n)[None, :]), 0)
        images, done = [], 0
        while done < len(lookup) <= index:  # keys in insertion order
            layer = np.frombuffer(b"".join(list(lookup)[done:]), dtype=np.int64)
            done = len(lookup)
            prods = gens[:, layer.reshape(-1, n)].swapaxes(0, 1)  # layer[i] * g
            images += [lookup.setdefault(key, len(lookup))
                       for key in self._keys(prods.reshape(-1, n))]
        if len(lookup) != index:
            raise CertificateError(
                f"coset walk found {len(lookup)} cosets, index is {index}")
        self.reps = np.frombuffer(b"".join(lookup), dtype=np.int64).reshape(index, n)
        self._lookup = lookup
        self.index = index
        return [Permutation._raw(r) for r in np.reshape(images, (index, -1)).T]

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """The point of the coset H*x for each image row x of a matrix."""
        return np.array([self._lookup[key] for key in self._keys(rows)],
                        dtype=np.int64)

    def push(self, x: Permutation) -> Permutation:
        """Image of a parent-group element under the coset action."""
        if not self.parent_group.contains(x):
            raise ValueError("element is not in the parent group")
        return Permutation._raw(self.index_of(x.images[self.reps]))


def coset_action(
    G,
    H: PermGroup,
    provenance: str = "",
    budgets: Budgets = DEFAULT_BUDGETS,
) -> GroupAction:
    """The action of G on the right cosets of H, as a GroupAction.

    The resulting action's .parent is the CosetConstruction (canonical
    representatives plus the push homomorphism) and .faithful records
    whether the action kernel is trivial.  Points are labelled 1..index;
    point i stands for the coset of .parent.reps[i].
    """
    parent = G if isinstance(G, GroupAction) else None
    group = _as_group(G)
    if H.degree != group.degree:
        raise ValueError("subgroup degree does not match the group")
    if not H.is_subgroup(group):
        raise ValueError("H is not a subgroup of G")
    cc = CosetConstruction(group, H, parent_action=parent)
    gen_images = cc._build_table(budgets)
    image = PermGroup(gen_images, degree=cc.index, bound=group.order())  # a quotient
    faithful = image.order() == group.order()
    if not provenance:
        base = parent.provenance if parent else f"group of order {group.order()}"
        provenance = f"{base}, on the {cc.index} cosets of a subgroup of order {H.order()}"
    return GroupAction(image, tuple(range(1, cc.index + 1)), provenance,
                       parent=cc, faithful=faithful)


# ---------------------------------------------------------------------------
# wreath products


def _mixed_radix_digits(d: int, k: int) -> np.ndarray:
    """(d^k, k) array: row x holds the digits of x, coordinate 0 first."""
    pts = np.arange(d**k, dtype=np.int64)
    out = np.empty((d**k, k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        out[:, j] = pts % d
        pts //= d
    return out


@dataclass(frozen=True)
class WreathSpec:
    """L wr K: the base action (L on Delta), k coordinates, the top group
    K <= Sym(k), and the flavor of the action ('product' on Delta^k,
    'imprimitive' on k disjoint copies of Delta)."""

    base_action: GroupAction
    k: int
    top: PermGroup
    flavor: str

    def __post_init__(self):
        if self.flavor not in ("product", "imprimitive"):
            raise ValueError(f"unknown wreath flavor {self.flavor!r}")
        if self.k < 1 or self.top.degree != self.k:
            raise ValueError("top group degree must equal the number of coordinates")

    @property
    def base_group(self) -> PermGroup:
        return self.base_action.group

    @property
    def base_degree(self) -> int:
        return self.base_action.degree

    @property
    def degree(self) -> int:
        d = self.base_degree
        return d**self.k if self.flavor == "product" else self.k * d

    def order(self) -> int:
        return self.base_group.order() ** self.k * self.top.order()

    def element(self, base: Sequence[Permutation], top: Permutation) -> "WreathElement":
        return WreathElement(self, tuple(base), top)


class WreathElement:
    """An element (a_1,...,a_k; pi) of L wr K, kept in decomposed form."""

    __slots__ = ("spec", "base", "top")

    def __init__(self, spec: WreathSpec, base: tuple, top: Permutation):
        if len(base) != spec.k:
            raise ValueError(f"need {spec.k} base components, got {len(base)}")
        d = spec.base_degree
        for a in base:
            if a.degree != d:
                raise ValueError("base component degree mismatch")
        if top.degree != spec.k:
            raise ValueError("top component degree mismatch")
        self.spec = spec
        self.base = tuple(base)
        self.top = top

    def cycle_product(self, cycle: Sequence[int]) -> Permutation:
        """Product a_{i1} a_{i2} ... a_{im} along a cycle (i1 i2 ... im)
        of the top component, i2 = pi(i1) etc."""
        acc = self.base[cycle[0]]
        for i in cycle[1:]:
            acc = acc * self.base[i]
        return acc

    def order(self) -> int:
        out = 1
        for cycle in self.top.cycles(include_fixed=True):
            out = math.lcm(out, len(cycle) * self.cycle_product(cycle).order())
        return out

    def to_permutation(self) -> Permutation:
        """Materialize on the points of the spec's flavor of action."""
        spec = self.spec
        d, k = spec.base_degree, spec.k
        if spec.degree > MATERIALIZE:
            raise BudgetExceeded(
                f"degree {spec.degree} exceeds the materialize budget {MATERIALIZE}")
        if spec.flavor == "imprimitive":
            row = np.empty(k * d, dtype=np.int64)
            for i in range(k):
                dest = int(self.top.images[i])
                row[i * d : (i + 1) * d] = dest * d + self.base[i].images
            return Permutation._raw(row)
        digits = _mixed_radix_digits(d, k)
        out_digits = np.empty_like(digits)
        for i in range(k):
            out_digits[:, int(self.top.images[i])] = self.base[i].images[digits[:, i]]
        weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
        return Permutation._raw(out_digits @ weights)

    def __repr__(self):
        parts = ", ".join(a.cycle_string() for a in self.base)
        return f"WreathElement([{parts}]; {self.top.cycle_string()})"


def coordinate_embedding(spec: WreathSpec, i: int, a: Permutation) -> Permutation:
    """The base-group element a placed in coordinate i, materialized."""
    ident = Permutation.identity(spec.base_degree)
    base = tuple(a if j == i else ident for j in range(spec.k))
    return WreathElement(spec, base, Permutation.identity(spec.k)).to_permutation()


def top_embedding(spec: WreathSpec, pi: Permutation) -> Permutation:
    """The top-group element pi with trivial base components, materialized."""
    ident = Permutation.identity(spec.base_degree)
    return WreathElement(spec, (ident,) * spec.k, pi).to_permutation()


def wreath(
    spec: WreathSpec,
    budgets: Budgets = DEFAULT_BUDGETS,
    declare_socle: bool = False,
) -> GroupAction:
    """Materialize L wr K in the flavor given by the spec.

    Generators are the coordinate embeddings of the base generators plus
    the top generators.  When the degree is small enough to chain (at most
    CHAIN_DEGREE), the group order is checked against |L|^k * |K|.
    declare_socle attaches the coordinate factors of the base power L^k,
    which share the group's generators; validation checks they commute,
    joins them once under |L|^k and above CHAIN_DEGREE raises BudgetExceeded.
    `budgets` is accepted for callers that pass it and reaches nothing.
    """
    embedded = [[coordinate_embedding(spec, i, a)
                 for a in spec.base_group.generators] for i in range(spec.k)]
    gens = [g for row in embedded for g in row]
    gens += [top_embedding(spec, pi) for pi in spec.top.generators]
    group = PermGroup(gens, degree=spec.degree)
    if spec.degree <= CHAIN_DEGREE and group.order() != spec.order():
        raise CertificateError(
            f"wreath product order {group.order()}, expected {spec.order()}"
        )
    socle = None
    if declare_socle:
        socle = SocleDecl([PermGroup(row, degree=spec.degree)
                           for row in embedded])
    action = GroupAction(
        group,
        tuple(range(1, spec.degree + 1)),
        f"{spec.base_action.provenance}, wr C on {spec.k} coordinates"
        f" ({spec.flavor} action)",
        wreath=spec,
        declared_socle=socle,
        faithful=True,
    )
    if socle is not None:
        socle.validate(action)
    return action


def assemble_stabilizer(
    spec: WreathSpec,
    factor_subgroups: Sequence[PermGroup],
    top_subgroup: PermGroup,
) -> PermGroup:
    """The subgroup (S_1 x ... x S_k).T of L wr K, materialized.

    Each S_i must be a subgroup of the base group and T a subgroup of the
    top group; the result is generated by the coordinate embeddings of the
    S_i and the top embeddings of T's generators.
    """
    if len(factor_subgroups) != spec.k:
        raise ValueError(f"need {spec.k} factor subgroups")
    L = spec.base_group
    for i, S in enumerate(factor_subgroups):
        if not S.is_subgroup(L):
            raise ValueError(f"factor {i} is not a subgroup of the base group")
    if not top_subgroup.is_subgroup(spec.top):
        raise ValueError("top part is not a subgroup of the top group")
    gens = []
    for i, S in enumerate(factor_subgroups):
        for a in S.generators:
            gens.append(coordinate_embedding(spec, i, a))
    for pi in top_subgroup.generators:
        gens.append(top_embedding(spec, pi))
    return PermGroup(gens, degree=spec.degree)
