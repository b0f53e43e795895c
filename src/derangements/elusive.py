"""Prime-order conjugacy classes, derangements, and elusivity verdicts.

A transitive group is r-elusive when it has no fixed-point-free element of
order r.  Verdicts here are certified: each one records the method that
produced it (exhaustive-enumeration, class-coverage against a smaller
faithful parent action, backtrack search, or the structural wreath-product
criterion) together with the budgets in force, and NotElusive witnesses are
re-verified at construction.

Fixed-point counts are class functions, so one representative of each
class of order-r elements decides.  One selector, `_class_route`, reads
from the action where those classes come from; `is_r_elusive` maps its
route to a method and `action_prime_order_class_reps`, which `structure`
reads, follows it too, so both read the same classes of one action.

An Elusive verdict needs no class at all.  Every order-r element of the
group P whose classes a route reads is conjugate into the subgroup H of
`classes.sylow_stage`, which holds a Sylow r-subgroup, so when each
order-r row of H, pushed to the action's points, fixes a point, the
action is r-elusive, and `is_r_elusive` says so without walking P's
classes.  Otherwise the walk names the least witness.  The stage stays
on P for the walk that `sylow_classes` may make next, so H is searched
for and scanned once.

`prime_order_class_reps` is the one route to those classes, for every
group: `classes.sylow_classes`, the G-classes of the order-r elements of
a subgroup holding a Sylow r-subgroup, each walked whole, so sizes, least
representatives and fixed-point counts are exact.

Every search for an order-r derangement (`_backtrack`: the backtrack
route past the exhaustive budget, the wreath top group's block-deranging
element, the intransitive branch of `semiregular_search`) rests on the
same fact: every order-r element is conjugate into a subgroup H holding a
Sylow r-subgroup (`classes.sylow_subgroup`), so the search, a filter
over H's element scan, runs over H alone and finds a derangement exactly
when G has one.  Its witness is the first one in H's DFS order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import classes
from .classes import (_budget_error, centralizer, sylow_classes,
                      sylow_subgroup)
from .config import (DEFAULT_BUDGETS, MATERIALIZE, Budgets, BudgetExceeded,
                     CertificateError)
from .numbers import is_prime, prime_divisors
from .perm import (Permutation, PermGroup, _cells, _components,
                   derangement_backtrack)
from .zoo import GroupAction, WreathElement, WreathSpec

__all__ = [
    "ELUSIVE",
    "NOT_ELUSIVE",
    "NOT_APPLICABLE",
    "ClassInfo",
    "ElusivityVerdict",
    "ElusivityReport",
    "SemiregularResult",
    "prime_order_class_reps",
    "action_prime_order_class_reps",
    "count_order_r_elements",
    "is_r_elusive",
    "is_2prime_elusive",
    "is_elusive",
    "wreath_fixed_point_check",
    "structural_wreath_elusivity",
    "wreath_prime_order_class_reps",
    "semiregular_search",
]

ELUSIVE = "Elusive"
NOT_ELUSIVE = "NotElusive"
NOT_APPLICABLE = "NotApplicable"

METHOD_ENUM = "exhaustive-enumeration"
METHOD_COVER = "class-coverage"
METHOD_BACKTRACK = "backtrack"
METHOD_WREATH = "wreath-structural"


@dataclass
class ClassInfo:
    """One conjugacy class of prime-order elements."""

    representative: Permutation
    order: int
    class_size: int
    min_fixed_points: int

    def __post_init__(self):
        if self.representative.order() != self.order:
            raise ValueError("representative order does not match the class order")


@dataclass
class ElusivityVerdict:
    """The r-elusivity of a transitive action and the method behind it.

    An `exhaustive-enumeration` or `class-coverage` verdict covers every
    order-r element of the group whose classes its route reads, the
    acting group or a coset parent.  An Elusive one reads the order-r
    rows of a subgroup holding a Sylow r-subgroup, into which every such
    element is conjugated.  A NotElusive one reads every order-r class,
    each walked whole; its witness is the least representative of the
    least fixed-point-free class, on the action's points.
    """

    prime: int
    status: str
    witness: Optional[Union[Permutation, WreathElement]] = None
    reason: Optional[str] = None
    method: Optional[str] = None
    budgets: dict = field(default_factory=dict)
    exact: bool = True

    def __post_init__(self):
        if self.status == NOT_ELUSIVE:
            w = self.witness
            if w is None:
                raise ValueError("NotElusive verdict needs a witness")
            if w.order() != self.prime:
                raise ValueError(f"witness order {w.order()} != {self.prime}")
            if isinstance(w, WreathElement):
                if wreath_fixed_point_check(w.spec, w):
                    raise ValueError("witness fixes a point")
            elif w.num_fixed() != 0:
                raise ValueError("witness fixes a point")

    def __bool__(self):
        return self.status == ELUSIVE

    def witness_cycles(self) -> Optional[str]:
        if self.witness is None:
            return None
        if isinstance(self.witness, WreathElement):
            return repr(self.witness)
        return self.witness.cycle_string()

    def to_dict(self) -> dict:
        out = {
            "r": self.prime,
            "status": self.status,
            "method": self.method,
            "exact": self.exact,
            "budgets": dict(self.budgets),
        }
        if self.witness is not None:
            out["witness_cycles"] = self.witness_cycles()
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class ElusivityReport:
    """Per-prime verdicts over the primes dividing the degree, aggregated."""

    kind: str  # "2'-elusive" or "elusive"
    degree: int
    verdicts: list
    aggregate: Optional[bool]
    reason: Optional[str] = None

    def __bool__(self):
        return bool(self.aggregate)

    @property
    def exact(self) -> bool:
        return all(v.exact for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "aggregate": self.aggregate,
            "reason": self.reason,
            "primes": [v.to_dict() for v in self.verdicts],
        }


# ---------------------------------------------------------------------------
# prime-order class representatives


def count_order_r_elements(G: PermGroup, r: int, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """The number of elements of order r in G: the sum of the sizes of the
    classes that `prime_order_class_reps` finds."""
    return sum(ci.class_size
               for ci in prime_order_class_reps(G, r, budgets=budgets))


def prime_order_class_reps(
    G: PermGroup, r: int, *, budgets: Budgets = DEFAULT_BUDGETS,
) -> list:
    """Conjugacy classes of order-r elements of G, as ClassInfo records,
    sorted by representative, the lexicographically least row of its class.

    The order must fit the exhaustive budget, which also bounds the
    subgroup `classes.sylow_classes` enumerates.  Each class is checked
    to have a constant fixed-point count and a size dividing |G|, and the
    result is cached per prime.
    """
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")
    order = G.order()
    # The budget check comes first, so a warm cache cannot skip it.
    if order > budgets.exhaustive:
        raise _budget_error(G, budgets.exhaustive)
    cache = G._class_reps_cache
    if r in cache:
        return cache[r]
    cache[r] = _class_infos(G, r, sylow_classes(G, r, budgets.exhaustive))
    return cache[r]


def _class_infos(G: PermGroup, r: int, classes: list) -> list:
    """ClassInfo records of (least row, size, (least, greatest) fixed-point
    count) triples, each checked, in the order given."""
    order = G.order()
    infos = []
    for rep_row, size, (least, most) in classes:
        if least != most:
            raise CertificateError("fixed-point count varies inside a conjugacy class")
        if order % size != 0:
            raise CertificateError("class size does not divide the group order")
        infos.append(
            ClassInfo(
                representative=Permutation._raw(rep_row.copy()),
                order=r,
                class_size=size,
                min_fixed_points=int(least),
            )
        )
    return infos


def action_prime_order_class_reps(
    A: GroupAction, r: int, *, budgets: Budgets = DEFAULT_BUDGETS,
) -> list:
    """Order-r ClassInfo records for an action group, by the route
    `_class_route` reads from it, the one `is_r_elusive` follows too.  An
    action with no route raises BudgetExceeded."""
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")
    route = _class_route(A, budgets)
    if route == METHOD_ENUM:
        return prime_order_class_reps(A.group, r, budgets=budgets)
    if route == METHOD_WREATH:
        return wreath_prime_order_class_reps(A.wreath, r, budgets)
    if route is None:
        raise BudgetExceeded("no exact class-representative route for order "
                             f"{A.group.order()} at degree {A.degree}")
    spec = getattr(A.parent.parent_action, "wreath", None)
    if spec is not None:
        infos = wreath_prime_order_class_reps(spec, r, budgets)
    else:
        infos = prime_order_class_reps(A.parent.parent_group, r,
                                       budgets=budgets)
    return [_push_class_info(A, ci) for ci in infos]


# Largest acting order at which a coset action or a wreath-built action
# still reads its own classes rather than its parent's or the wreath
# decomposition's.
_OWN_CLASSES = 100_000


def _acting_order(A: GroupAction) -> int:
    return A.wreath.order() if A.wreath is not None else A.group.order()


def _class_route(A: GroupAction, budgets: Budgets) -> Optional[str]:
    """Where an action's prime-order classes come from, named by the verdict
    method they give: its own group's (exhaustive-enumeration) up to
    `_OWN_CLASSES` and the exhaustive budget; else a faithful coset
    parent's (class-coverage) when it, or a wreath-built parent's base
    group, fits the budget; else the wreath decomposition
    (wreath-structural); else its own group's within the budget; else None."""
    worder = _acting_order(A)
    if worder <= min(_OWN_CLASSES, budgets.exhaustive):
        return METHOD_ENUM
    if A.parent is not None and A.faithful:
        spec = getattr(A.parent.parent_action, "wreath", None)
        P = spec.base_group if spec is not None else A.parent.parent_group
        if P.order() <= budgets.exhaustive:
            return METHOD_COVER
    if A.wreath is not None:
        return METHOD_WREATH
    return METHOD_ENUM if worder <= budgets.exhaustive else None


def _push_class_info(A: GroupAction, ci: ClassInfo) -> ClassInfo:
    pushed = A.parent.push(ci.representative)
    return ClassInfo(
        representative=pushed,
        order=ci.order,
        class_size=ci.class_size,
        min_fixed_points=pushed.num_fixed(),
    )


# ---------------------------------------------------------------------------
# wreath-product classes (exact, from the decomposition)


def _base_class_labels(spec: WreathSpec, r: int, budgets: Budgets) -> list:
    """Classes of the base group of order dividing r: label 0 is the
    identity class, the rest are the order-r classes."""
    ident = Permutation.identity(spec.base_degree)
    labels = [(ident, 1)]
    for ci in action_prime_order_class_reps(spec.base_action, r,
                                            budgets=budgets):
        labels.append((ci.representative, ci.class_size))
    return labels


def wreath_prime_order_class_reps(
    spec: WreathSpec, r: int, budgets: Budgets = DEFAULT_BUDGETS
) -> list:
    """Exact order-r conjugacy classes of L wr K from the decomposition.

    The top part pi of an order-r element has order dividing r.  Over each
    K-class of such pi, taken at its least row (the identity, then the
    classes of `prime_order_class_reps(K, r)`), the classes correspond to
    C_K(pi)-orbits of base-class labels on the fixed coordinates of pi;
    the r-cycles of pi force trivial cycle products, contributing a free
    factor |L|^(r-1) per cycle to the class size.  A central pi has
    C_K(pi) = K (for pi = 1 the all-identity labelling is left out), and
    otherwise C_K(pi) comes from `classes.centralizer`.  The orbits are the
    components (`perm._components`) of the labellings, numbered in
    `np.ndindex` order and joined to their images under C_K(pi)'s
    generators, so each is represented by its least labelling.  The
    labellings of one pi count against the exhaustive budget.
    Representatives are materialized permutations on the spec's point set.
    """
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")
    K, k = spec.top, spec.k
    labels = _base_class_labels(spec, r, budgets)
    free = spec.base_group.order() ** (r - 1)
    ident = Permutation.identity(spec.base_degree)
    tops = [(Permutation.identity(k), 1)] + [
        (ci.representative, ci.class_size)
        for ci in prime_order_class_reps(K, r, budgets=budgets)]
    infos = []
    for pi, k_size in tops:
        C = K if k_size == 1 else centralizer(K, pi.images, budgets.exhaustive)
        cycles = pi.cycles(include_fixed=True)
        fixed = [c[0] for c in cycles if len(c) == 1]
        m = sum(1 for c in cycles if len(c) == r)
        if len(fixed) + m * r != k:
            raise CertificateError("order-r top element with a bad cycle type")
        nf, total = len(fixed), len(labels) ** len(fixed)
        if total > budgets.exhaustive:
            raise BudgetExceeded(
                f"{total} labellings of the fixed coordinates exceed the "
                f"exhaustive budget {budgets.exhaustive}")
        grid = np.indices((len(labels),) * nf).reshape(nf, total).T
        weights = len(labels) ** np.arange(nf - 1, -1, -1)
        where = {p: i for i, p in enumerate(fixed)}
        images = [grid[:, [where[int(s.images[p])] for p in fixed]] @ weights
                  for s in C.generators]
        labelled = _components(total, np.arange(total),
                               np.reshape(images, (len(images), total)))
        for orbit in _cells(labelled):
            if m == 0 and orbit[0] == 0:
                continue  # the all-identity labelling of pi = 1
            f = grid[orbit[0]]
            size = (k_size * len(orbit) * free ** m
                    * math.prod(labels[c][1] for c in f))
            base = [ident] * k
            for p, c in zip(fixed, f):
                base[p] = labels[c][0]
            rep = WreathElement(spec, tuple(base), pi)
            infos.append(_wreath_class_info(rep, r, size))

    worder = spec.order()
    for ci in infos:
        if worder % ci.class_size != 0:
            raise CertificateError("wreath class size does not divide the group order")
    infos.sort(key=lambda ci: (ci.class_size, ci.min_fixed_points))
    return infos


def _wreath_class_info(rep: WreathElement, r: int, size: int) -> ClassInfo:
    if rep.order() != r:
        raise CertificateError("wreath class representative has the wrong order")
    mat = rep.to_permutation()
    return ClassInfo(
        representative=mat,
        order=r,
        class_size=size,
        min_fixed_points=mat.num_fixed(),
    )


# ---------------------------------------------------------------------------
# fixed points of wreath elements without materialization


def wreath_fixed_point_check(spec: WreathSpec, w: WreathElement) -> bool:
    """Does (a_1,...,a_k; pi) fix a point, judged from the decomposition?

    Product action: a point of Delta^k is fixed iff every cycle of pi has
    a cycle product with a fixed point on Delta.  Imprimitive action: iff
    some fixed coordinate i of pi has a_i fixing a point of Delta.
    """
    if w.spec != spec:
        raise ValueError("element does not belong to the given wreath spec")
    cycles = w.top.cycles(include_fixed=True)
    if spec.flavor == "product":
        return all(w.cycle_product(c).num_fixed() > 0 for c in cycles)
    return any(
        len(c) == 1 and w.base[c[0]].num_fixed() > 0 for c in cycles
    )


# ---------------------------------------------------------------------------
# elusivity verdicts


def _verdict(r: int, method: str, budgets: Budgets,
             witness=None) -> ElusivityVerdict:
    """Elusive when there is no witness, NotElusive with it."""
    status = ELUSIVE if witness is None else NOT_ELUSIVE
    return ElusivityVerdict(r, status, witness=witness, method=method,
                            budgets=asdict(budgets))


def _coverage(r: int, infos: list, method: str,
              budgets: Budgets) -> ElusivityVerdict:
    """The verdict from one ClassInfo per order-r class: fixed-point counts
    are class functions, so a class with no fixed point decides, and the
    least such representative is the witness."""
    w = min((ci.representative for ci in infos if ci.min_fixed_points == 0),
            key=lambda p: tuple(p.images), default=None)
    return _verdict(r, method, budgets, w)


def is_r_elusive(
    A: GroupAction,
    r: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ElusivityVerdict:
    """Certified r-elusivity verdict for a transitive action.

    The method is the class route of `_class_route`: the action's own
    classes or a faithful parent's (class coverage), the structural
    wreath criterion, or, with no route, the backtrack search over a
    subgroup holding a Sylow r-subgroup (`_backtrack`).  Fixed-point
    counts are class functions, so one representative per class decides.
    On a class route, an Elusive verdict may come from the order-r rows of
    such a subgroup alone, with no class walk (`_sylow_rows_fix_points`).
    """
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")
    if not A.group.is_transitive():
        raise ValueError("elusivity verdicts need a transitive action")
    worder = _acting_order(A)
    if worder % r != 0:
        return ElusivityVerdict(
            r, NOT_APPLICABLE,
            reason=f"{r} does not divide the group order {worder}",
            budgets=asdict(budgets),
        )
    method = _class_route(A, budgets)
    if method == METHOD_WREATH:
        return _structural_verdict(A.wreath, r, budgets)
    if method is None:
        w = _backtrack(A.group, r, budgets)
        return _verdict(r, METHOD_BACKTRACK, budgets, w)
    if _sylow_rows_fix_points(A, r, method, budgets):
        return _verdict(r, method, budgets)
    infos = action_prime_order_class_reps(A, r, budgets=budgets)
    return _coverage(r, infos, method, budgets)


def _sylow_rows_fix_points(A: GroupAction, r: int, method: str,
                           budgets: Budgets) -> bool:
    """True when every order-r row of the subgroup H of
    `classes.sylow_stage` fixes a point of A.  H is taken in the group P
    whose classes the route reads: A's own, or a coset parent's not built
    as a wreath product, whose rows are pushed through the coset table
    until one fixes no point.  Every order-r element of P is
    conjugate into H and fixed points are a class invariant, so True means
    A is r-elusive, with no class walk.  False, also when P's classes at r
    are cached or the parent is wreath-built, leaves the verdict and its
    least witness to the classes."""
    if method == METHOD_ENUM:
        P, cc = A.group, None
    elif getattr(A.parent.parent_action, "wreath", None) is None:
        P, cc = A.parent.parent_group, A.parent
    else:
        return False
    if r in P._class_reps_cache:
        return False
    rows = classes.sylow_stage(P, r, budgets.exhaustive)[3]
    ident = np.arange(A.degree)
    if cc is None:
        return bool((rows == ident).any(axis=1).all())
    # point i of A goes to the coset of reps[i] * x; pushing a row per call
    # keeps the block canonicalized, and the peak memory, those of `push`
    return all((cc.index_of(x.astype(np.int64)[cc.reps]) == ident).any()
               for x in rows)


def _backtrack(G: PermGroup, r: int, budgets: Budgets) -> Optional[Permutation]:
    """An order-r derangement of G, transitive or not, or None:
    `derangement_backtrack` over the subgroup H of `classes.sylow_subgroup`,
    which holds a Sylow r-subgroup.  Every order-r element is conjugate
    into H and fixed-point counts are class functions, so G has an order-r
    derangement exactly when H has one.  H is a cyclic <y> when a sampled
    r-part y has order |G|_r, with no walk; else the search's walks count
    against the exhaustive budget, and one that would pass it leaves
    H = G."""
    if G.order() % r or G.degree % r:
        return None  # derangement_backtrack's early exit, before the search
    H, _, _ = sylow_subgroup(G, r, budgets.exhaustive)
    return derangement_backtrack(H, r)


def _report(A: GroupAction, primes: Sequence[int], kind: str, budgets) -> ElusivityReport:
    verdicts = [is_r_elusive(A, r, budgets) for r in primes]
    aggregate = all(v.status == ELUSIVE for v in verdicts)
    return ElusivityReport(kind, A.degree, verdicts, aggregate)


def is_2prime_elusive(
    A: GroupAction,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ElusivityReport:
    """2'-elusivity: verdicts for every odd prime dividing the degree.

    Degrees that are powers of 2 get a NotApplicable report (2'-elusivity
    is only defined when an odd prime divides the degree)."""
    odd = [p for p in prime_divisors(A.degree) if p != 2]
    if not odd:
        return ElusivityReport(
            "2'-elusive", A.degree, [], None,
            reason="degree must be divisible by an odd prime",
        )
    return _report(A, odd, "2'-elusive", budgets)


def is_elusive(
    A: GroupAction,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ElusivityReport:
    """Elusivity over every prime dividing the degree (including 2).

    Degree 1 gets a NotApplicable report: elusivity needs at least two
    points, and over no primes the aggregate would read Elusive vacuously."""
    if A.degree < 2:
        return ElusivityReport(
            "elusive", A.degree, [], None,
            reason="elusivity needs a degree of at least 2",
        )
    return _report(A, prime_divisors(A.degree), "elusive", budgets)


# ---------------------------------------------------------------------------
# structural wreath checker


def _structural_verdict(spec: WreathSpec, r: int, budgets: Budgets) -> ElusivityVerdict:
    r_in_base = spec.base_group.order() % r == 0
    r_in_top = spec.top.order() % r == 0
    if not r_in_base and not r_in_top:
        return ElusivityVerdict(
            r, NOT_APPLICABLE,
            reason=f"{r} divides neither the base nor the top order",
            budgets=asdict(budgets),
        )

    base_witness = None
    if r_in_base:
        v = is_r_elusive(spec.base_action, r, budgets)
        if v.status == NOT_ELUSIVE:
            base_witness = v.witness

    # A base witness in the first coordinate deranges the product action;
    # the imprimitive action needs it in every block, or else a
    # block-deranging top element.
    ident = Permutation.identity(spec.base_degree)
    w = None
    if base_witness is not None:
        if spec.flavor == "product":
            base = (base_witness,) + (ident,) * (spec.k - 1)
        else:
            base = (base_witness,) * spec.k
        w = WreathElement(spec, base, Permutation.identity(spec.k))
    elif spec.flavor != "product" and r_in_top:
        pi = _backtrack(spec.top, r, budgets)
        if pi is not None:
            w = WreathElement(spec, (ident,) * spec.k, pi)
    if w is not None and spec.degree <= MATERIALIZE:
        w = w.to_permutation()
    return _verdict(r, METHOD_WREATH, budgets, w)


def structural_wreath_elusivity(
    spec: WreathSpec, r: int, budgets: Budgets = DEFAULT_BUDGETS
) -> ElusivityVerdict:
    """Exact r-elusivity of L wr K (r an odd prime) without enumerating it.

    Order-r elements have top part of order 1 or r; their r-cycles force
    trivial cycle products, so derangements exist exactly when the base
    group has an order-r derangement on Delta (product action) or, in the
    imprimitive action, also when the top group has a fixed-point-free
    order-r element on the k coordinates.
    """
    if not is_prime(r) or r == 2:
        raise ValueError(f"the structural checker is exposed for odd primes, got r={r}")
    if spec.base_group.order() > budgets.exhaustive:
        raise BudgetExceeded("base group exceeds the exhaustive budget")
    return _structural_verdict(spec, r, budgets)


# ---------------------------------------------------------------------------
# semiregular elements


@dataclass
class SemiregularResult:
    witness: Optional[Permutation]
    prime: Optional[int]
    exact: bool
    note: str

    def __bool__(self):
        return self.witness is not None


def semiregular_search(
    A: GroupAction,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> SemiregularResult:
    """Look for a semiregular element: a prime-order derangement.

    An order-p derangement has only p-cycles, so only the primes dividing
    both the group order and the degree are tried, in increasing order.
    Every per-prime check is exact, so "none" is a certificate.
    """
    G = A.group
    primes = prime_divisors(math.gcd(_acting_order(A), A.degree))
    transitive = G.is_transitive()
    for p in primes:
        if transitive:
            w = is_r_elusive(A, p, budgets).witness
        else:
            w = _backtrack(G, p, budgets)
        if w is not None:
            return SemiregularResult(w, p, True, f"order-{p} derangement")
    return SemiregularResult(None, None, True, "none found")
