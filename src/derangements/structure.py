"""Normal-subgroup structure of transitive actions.

Classifies a transitive action as primitive / quasiprimitive /
biquasiprimitive / neither by examining orbit counts of normal closures of
prime-order elements, extracts the index-two subgroup preserving a normal
subgroup's two orbits, and certifies minimal normal subgroups.

The reduction behind `normal_structure`: every nontrivial normal subgroup N
of G contains a prime-order element x, hence contains the normal closure
<x^G>, and the orbits of N are unions of orbits of <x^G>.  Conjugate elements
generate the same closure, so it is enough to look at the closures of
prime-order class representatives: if all of those are transitive, every
nontrivial normal subgroup is transitive; if all have at most two orbits,
so does every nontrivial normal subgroup.

`verify_minimal_normal` rests on the same reduction.  A normal subgroup N
is a union of G-classes, so its prime-order elements are the G-conjugates
of the prime-order class representatives that lie in N.  N is minimal
normal exactly when each of those has <y^G> = N, and a normal M meets N
exactly when it holds one.  Both read the classes through
`elusive.action_prime_order_class_reps`, as `is_r_elusive` does.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .config import Budgets, DEFAULT_BUDGETS, DEFAULT_SEED, CertificateError
from .perm import Permutation, PermGroup
from .zoo import GroupAction
from .elusive import action_prime_order_class_reps
from .numbers import prime_divisors

PRIMITIVE = "primitive"
QUASIPRIMITIVE = "quasiprimitive"
BIQUASIPRIMITIVE = "biquasiprimitive"
NEITHER = "neither"


@dataclass
class NormalStructureReport:
    """Outcome of the prime-order-closure reduction on one action.

    closures holds one row per prime-order class representative:
    (representative, order of its normal closure, number of orbits of the
    closure on the acted-on set).  The verdict is the finest matching label.
    A biquasiprimitive report carries two_orbit, the smallest two-orbit
    closure, whose orbits are the halves that g_plus preserves.
    """

    degree: int
    closures: List[Tuple[Permutation, int, int]]
    verdict: str
    two_orbit: Optional[PermGroup] = None
    g_plus: Optional[PermGroup] = None
    halves: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    exact: bool = True

    def __bool__(self) -> bool:
        return self.verdict in (PRIMITIVE, QUASIPRIMITIVE, BIQUASIPRIMITIVE)

    def orbit_counts(self) -> list:
        return sorted(oc for _, _, oc in self.closures)

    def to_dict(self) -> dict:
        d = {
            "degree": self.degree,
            "verdict": self.verdict,
            "exact": self.exact,
            "closures": [
                {
                    "representative": rep.cycle_string(),
                    "closure_order": order,
                    "orbit_count": oc,
                }
                for rep, order, oc in self.closures
            ],
        }
        if self.g_plus is not None:
            d["g_plus_order"] = self.g_plus.order()
        if self.halves is not None:
            d["halves"] = [sorted(int(p) + 1 for p in h) for h in self.halves]
        return d


def _prime_order_representatives(A: GroupAction, budgets: Budgets):
    """The action's prime-order class representatives, prime by prime."""
    for r in prime_divisors(A.group.order()):
        for ci in action_prime_order_class_reps(A, r, budgets=budgets):
            yield ci.representative


def normal_structure(A: GroupAction, *, budgets: Budgets = DEFAULT_BUDGETS,
                     seed: int = DEFAULT_SEED) -> NormalStructureReport:
    """Classify a transitive action via closures of prime-order class reps.

    For each prime r dividing |G| and each class representative x of order
    r, computes <x^G>, verifies it is normal, and counts its orbits.
    normal_closure returns one object per normal subgroup, so each object
    is verified once.  The verdict is read off the multiset of orbit
    counts:

      all counts 1                      -> quasiprimitive (primitive if the
                                           action is primitive)
      all counts <= 2, some equal to 2  -> biquasiprimitive
      otherwise                         -> neither

    In the biquasiprimitive case the report also carries the smallest
    2-orbit closure, the index-two subgroup preserving its two orbits and
    the two halves.

    No step draws on a caller's seed (stabilizer chains use the fixed
    DEFAULT_SEED and are verified exactly), so ``seed`` reaches nothing;
    it is accepted so that callers can pass a run's seed to every entry
    point alike.
    """
    G = A.group
    if not G.is_transitive():
        raise ValueError("normal_structure requires a transitive action")
    closures = []
    checked = set()  # ids of closures proven normal; one object per subgroup
    two_orbit = None
    for rep in _prime_order_representatives(A, budgets):
        closure = G.normal_closure([rep])
        if id(closure) not in checked:
            if not G.is_normal(closure):
                raise CertificateError("normal closure is not normal in G")
            checked.add(id(closure))
        oc = len(closure.orbits())
        closures.append((rep, closure.order(), oc))
        if oc == 2 and (two_orbit is None
                        or closure.order() < two_orbit.order()):
            two_orbit = closure

    counts = [oc for _, _, oc in closures]
    if all(oc == 1 for oc in counts):
        verdict = PRIMITIVE if G.is_primitive() else QUASIPRIMITIVE
    elif all(oc <= 2 for oc in counts) and any(oc == 2 for oc in counts):
        gp, d1, d2 = g_plus(A, two_orbit)
        return NormalStructureReport(
            degree=A.degree, closures=closures, verdict=BIQUASIPRIMITIVE,
            two_orbit=two_orbit, g_plus=gp, halves=(d1, d2))
    else:
        verdict = NEITHER
    return NormalStructureReport(degree=A.degree, closures=closures,
                                 verdict=verdict)


def g_plus(A: GroupAction, N: PermGroup):
    """Index-two subgroup of G preserving the two orbits of N setwise.

    N must be normal in G = A.group with exactly two orbits D1, D2 on the
    points.  Returns (Gplus, D1, D2) where Gplus is the kernel of the
    induced action of G on {D1, D2}; D1 is the half containing the smallest
    point, the anchor.  Gplus is the stabilizer of the block D1, so it is
    the overgroup <N, G_anchor> of G_anchor whose anchor-orbit D1 is (see
    PermGroup.minimal_block_system).  Some generator moves D1, so |G|/2
    bounds the build, and an order check refutes a shortfall.
    """
    G = A.group
    if not G.is_normal(N):
        raise ValueError("N must be normal in the acting group")
    orbs = N.orbits()
    if len(orbs) != 2:
        raise ValueError("N must have exactly 2 orbits, got %d" % len(orbs))
    o1, o2 = orbs  # ascending, ordered by least point
    anchor = o1[0]
    if not any(g.images[anchor] in o2 for g in G.generators):
        raise ValueError("acting group preserves both halves; index is not 2")
    gp = PermGroup(N.generators + G.point_stabilizer(anchor).generators,
                   degree=A.degree, bound=G.order() // 2)
    if 2 * gp.order() != G.order():
        raise CertificateError("half-preserving subgroup has wrong index")
    return gp, tuple(o1), tuple(o2)


@dataclass
class MinimalNormalReport:
    """Certificate that N is (or is not) a minimal normal subgroup, read
    off the action's prime-order class representatives y of G.

    minimal: every y inside N has <y^G> = N (closure_orders lists |<y^G>|
    for those y, prime by prime).  unique: each y outside N has a normal
    closure holding some y inside N, so meeting N; independent_witness is
    the first whose closure holds none.  Truthiness is minimality.
    """

    minimal: bool
    unique: bool
    n_order: int
    closure_orders: List[int] = field(default_factory=list)
    independent_witness: Optional[Permutation] = None
    exact: bool = True

    def __bool__(self) -> bool:
        return self.minimal


def verify_minimal_normal(A: GroupAction, N: PermGroup,
                          budgets: Budgets = DEFAULT_BUDGETS,
                          seed: int = DEFAULT_SEED) -> MinimalNormalReport:
    """Certify minimality (and uniqueness) of a normal subgroup N of G.

    The prime-order class representatives y of G from
    `action_prime_order_class_reps` are split by membership in N.  For y
    in N, <y^G> lies in N, so the order comparison decides <y^G> = N; N
    is minimal when every such closure is N, since each nontrivial normal
    subgroup inside N contains one of them.  Until the first witness, each
    y outside N has its closure M = <y^G> tested with no join: the normal
    M ∩ N, if nontrivial, holds some y inside N (a conjugate, so y itself).
    A closure holding none has a minimal normal subgroup other than N.

    As in `normal_structure`, ``seed`` is accepted but reaches nothing.
    """
    G = A.group
    if not G.is_normal(N):
        raise ValueError("N must be normal in the acting group")
    n_order = N.order()
    if n_order == 1:
        raise ValueError("N must be nontrivial")

    inside, outside = [], []
    for y in _prime_order_representatives(A, budgets):
        (inside if N.contains(y) else outside).append(y)
    closure_orders = [G.normal_closure([y]).order() for y in inside]
    independent = next((y for y in outside
                        if not any(G.normal_closure([y]).contains(z)
                                   for z in inside)), None)

    return MinimalNormalReport(
        minimal=all(o == n_order for o in closure_orders),
        unique=independent is None, n_order=n_order,
        closure_orders=closure_orders, independent_witness=independent)
