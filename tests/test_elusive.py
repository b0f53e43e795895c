import contextlib

import numpy as np
import pytest

from derangements import (DEFAULT_BUDGETS, Budgets, BudgetExceeded, PermGroup,
                          Permutation, WreathSpec,
                          action_prime_order_class_reps,
                          count_order_r_elements, is_2prime_elusive,
                          is_elusive, is_r_elusive, natural_action,
                          prime_order_class_reps, semiregular_search,
                          structural_wreath_elusivity, wreath,
                          wreath_fixed_point_check,
                          wreath_prime_order_class_reps)
from derangements import (classes, coset_action, derangement_backtrack,
                          normal_structure)
from derangements.classes import (_walk_rows, order_r_rows, sylow_classes,
                                  sylow_subgroup)
from derangements.numbers import prime_divisors
from derangements.elusive import ClassInfo
from derangements.perm import _order_r_filter
from derangements.harness import ScenarioEnv

from tests.conftest import (alternating, cyclic, dihedral,
                            enumerate_elements, symmetric)


@contextlib.contextmanager
def recorded_scans():
    """(order of the group enumerated, budget) of every `order_r_rows` call
    made inside the block, one per call."""
    calls = []
    real = classes.order_r_rows

    def recording(G, r, budget):
        calls.append((G.order(), budget))
        return real(G, r, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("derangements.classes.order_r_rows", recording)
        yield calls


@contextlib.contextmanager
def recorded_backtracks():
    """The order of the group of every `derangement_backtrack` call that
    the elusivity verdicts make inside the block."""
    calls = []
    real = derangement_backtrack

    def recording(G, r, determinism=False):
        calls.append(G.order())
        return real(G, r, determinism)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("derangements.elusive.derangement_backtrack", recording)
        yield calls


def naive_order_r_count(G, r):
    return sum(1 for x in enumerate_elements(G) if x.order() == r)


@pytest.mark.parametrize("factory,r", [
    (lambda: symmetric(4), 2),
    (lambda: symmetric(4), 3),
    (lambda: alternating(5), 5),
    (lambda: cyclic(6), 2),
    (lambda: cyclic(6), 3),
    (lambda: symmetric(5), 2),
])
def test_count_order_r_elements_oracle(factory, r):
    G = factory()
    want = naive_order_r_count(G, r)
    # the sum of the class sizes; the Sylow route enumerates a proper
    # subgroup, never G
    with recorded_scans() as scans:
        assert count_order_r_elements(G, r) == want
    assert scans and all(size < G.order() for size, _ in scans)


def records(classes):
    """(representative images, class size, (least, greatest) fixed-point
    count) per class, from (least row, size, fixed) triples, sorted."""
    return sorted((tuple(row.tolist()), size, tuple(map(int, fixed)))
                  for row, size, fixed in classes)


def scan_reference(G, r, rows=None):
    """The records of the order-r classes of G by the scan: the class walk
    of each order-r element not covered yet, from `rows` when given, else
    from `order_r_rows`."""
    walks, _ = _walk_rows(G, order_r_rows(G, r) if rows is None else rows)
    return records((w.least, w.size, w.fixed) for w in walks)


def public_records(G, r):
    """The records of `prime_order_class_reps`."""
    return [(tuple(ci.representative.images.tolist()), ci.class_size,
             (ci.min_fixed_points,) * 2)
            for ci in prime_order_class_reps(G, r)]


def fresh(G):
    """G with cold caches, so that one route cannot read another's."""
    return PermGroup(G.generators, degree=G.degree)


def naive_class_partition(G, r):
    """Order-r classes by brute conjugation; returns sorted class sizes."""
    elems = [x for x in enumerate_elements(G) if x.order() == r]
    all_elems = list(enumerate_elements(G))
    seen = set()
    sizes = []
    for x in elems:
        if x.key() in seen:
            continue
        cls = {(g.inverse() * x * g).key() for g in all_elems}
        seen |= cls
        sizes.append(len(cls))
    return sorted(sizes)


@pytest.mark.parametrize("factory,r", [
    (lambda: symmetric(4), 2),
    (lambda: symmetric(5), 2),
    (lambda: alternating(5), 3),
    (lambda: alternating(6), 3),
])
def test_class_reps_match_naive_partition(factory, r):
    G = factory()
    infos = prime_order_class_reps(G, r)
    assert sorted(ci.class_size for ci in infos) == naive_class_partition(G, r)
    for ci in infos:
        assert ci.representative.order() == r
        fixed = [x.num_fixed() for x in enumerate_elements(G)
                 if x.order() == r]
        assert ci.min_fixed_points >= min(fixed)


def test_a6_order3_fusion(line9):
    """A6 has two order-3 classes of 40.  The overgroups containing a
    diagonal-type element (PGL(2,9), M10, the full automorphism group) fuse
    them into one class of 80; S6 preserves cycle types and keeps both."""
    a6 = line9.subgroups["PSL"]
    infos = prime_order_class_reps(a6, 3)
    assert sorted(ci.class_size for ci in infos) == [40, 40]
    for name in ("PGL", "M10"):
        over = line9.subgroups[name]
        fused = prime_order_class_reps(over, 3)
        assert [ci.class_size for ci in fused] == [80]
    s6 = prime_order_class_reps(line9.subgroups["S6"], 3)
    assert sorted(ci.class_size for ci in s6) == [40, 40]
    full = prime_order_class_reps(line9.group, 3)
    assert [ci.class_size for ci in full] == [80]


def test_m11_order3_class(env):
    infos = prime_order_class_reps(env.m11_action().group, 3)
    assert [ci.class_size for ci in infos] == [440]
    infos11 = prime_order_class_reps(env.m11_action().group, 11)
    assert sorted(ci.class_size for ci in infos11) == [720, 720]


def naive_wreath_order_r_classes(spec, r):
    """Class sizes of order-r elements in the materialized wreath product."""
    W = wreath(spec)
    G = W.group
    return naive_class_partition(G, r)


@pytest.mark.parametrize("base_factory,k,top_factory,flavor,r", [
    (lambda: cyclic(2), 2, lambda: cyclic(2), "product", 2),
    (lambda: cyclic(2), 2, lambda: cyclic(2), "imprimitive", 2),
    (lambda: symmetric(3), 2, lambda: cyclic(2), "product", 2),
    (lambda: symmetric(3), 2, lambda: cyclic(2), "imprimitive", 2),
    (lambda: symmetric(3), 2, lambda: cyclic(2), "imprimitive", 3),
    (lambda: cyclic(3), 3, lambda: cyclic(3), "imprimitive", 3),
    # larger top groups; in S3 an order-r top element has C_K(pi) < K
    # (explicit ids keep the generated ids of the cases above unchanged)
    pytest.param(lambda: cyclic(2), 3, lambda: symmetric(3), "product", 2,
                 id="C2-3-S3-product-2"),
    pytest.param(lambda: cyclic(2), 3, lambda: symmetric(3), "imprimitive",
                 2, id="C2-3-S3-imprimitive-2"),
    pytest.param(lambda: symmetric(3), 3, lambda: cyclic(3), "imprimitive",
                 3, id="S3-3-C3-imprimitive-3"),
    pytest.param(lambda: symmetric(3), 3, lambda: symmetric(3),
                 "imprimitive", 3, id="S3-3-S3-imprimitive-3"),
    pytest.param(lambda: cyclic(2), 4, lambda: cyclic(4), "imprimitive", 2,
                 id="C2-4-C4-imprimitive-2"),
])
def test_wreath_class_reps_match_materialized(base_factory, k, top_factory,
                                              flavor, r):
    base = natural_action(base_factory(), "base")
    spec = WreathSpec(base, k, top_factory(), flavor)
    infos = wreath_prime_order_class_reps(spec, r)
    assert sorted(ci.class_size for ci in infos) == \
        naive_wreath_order_r_classes(spec, r)
    # representatives come back materialized at these degrees; they really
    # have order r and the declared minimum is attained by the class
    W = wreath(spec)
    for ci in infos:
        perm = ci.representative
        assert perm.order() == r
        assert W.group.contains(perm)
        # min fixed points over the whole class, by brute conjugation
        cls_min = min(
            (g.inverse() * perm * g).num_fixed()
            for g in enumerate_elements(W.group)
        )
        assert ci.min_fixed_points == cls_min


def test_wreath_fixed_point_check_vs_materialized():
    base = natural_action(symmetric(3), "S3")
    c2 = cyclic(2)
    rng = np.random.default_rng(0)
    for flavor in ("product", "imprimitive"):
        spec = WreathSpec(base, 2, c2, flavor)
        for _ in range(200):
            w = spec.element(
                [base.group.random_element(rng) for _ in range(2)],
                c2.generators[0] if rng.integers(2)
                else Permutation.identity(2))
            assert wreath_fixed_point_check(spec, w) == \
                (w.to_permutation().num_fixed() > 0)


def test_is_r_elusive_small_groups():
    # C3 regular: the full group is fixed-point-free
    v = is_r_elusive(natural_action(cyclic(3), "C3"), 3)
    assert v.status == "NotElusive"
    assert v.witness.order() == 3 and v.witness.num_fixed() == 0
    # S3 natural: every order-2 element is a transposition with a fixed point
    v2 = is_r_elusive(natural_action(symmetric(3), "S3"), 2)
    assert v2.status == "Elusive"
    # r does not divide the order
    v3 = is_r_elusive(natural_action(symmetric(3), "S3"), 7)
    assert v3.status == "NotApplicable"
    with pytest.raises(ValueError):
        is_r_elusive(natural_action(symmetric(3), "S3"), 4)


def test_is_r_elusive_requires_transitive():
    g = Permutation.from_cycles(4, [(0, 1)])
    with pytest.raises(ValueError):
        is_r_elusive(natural_action(PermGroup([g]), "C2 on 4"), 2)


def test_m11_12_is_elusive(m11_12):
    rep = is_elusive(m11_12)
    assert bool(rep)
    assert rep.exact
    assert {v.method for v in rep.verdicts} == {"exhaustive-enumeration"}
    assert [v.prime for v in rep.verdicts] == [2, 3]


def test_2prime_elusive_power_of_two_degree():
    # degree 8 admits no odd prime divisor
    from derangements import GroupAction, borel_subgroup, coset_action, \
        mersenne_scenario, projective_line_action
    line = projective_line_action(7)
    H = borel_subgroup(mersenne_scenario(7), "psl", 3)
    A = coset_action(GroupAction(line.subgroups["PSL"], line.point_labels,
                                 "PSL(2,7)"), H)
    rep = is_2prime_elusive(A)
    assert rep.aggregate is None
    assert "odd prime" in rep.reason
    assert not bool(rep)


def test_not_elusive_witness_is_reverified():
    from derangements.elusive import ElusivityVerdict
    w = Permutation.from_cycles(3, [(0, 1)])  # order 2, fixes point 2
    with pytest.raises(ValueError):
        ElusivityVerdict(2, "NotElusive", witness=w)
    with pytest.raises(ValueError):
        ElusivityVerdict(3, "NotElusive",
                         witness=Permutation.from_cycles(4, [(0, 1), (2, 3)]))


def test_class_coverage_route(env):
    A = env.a384()
    v = is_r_elusive(A, 3)
    assert v.status == "Elusive"
    assert v.method == "class-coverage"
    assert v.exact


def test_class_coverage_matches_backtrack(env):
    # same verdict from the independent search on the degree-384 action
    from derangements import derangement_backtrack
    A = env.a384()
    assert derangement_backtrack(A.group, 3) is None
    v = is_r_elusive(A, 3)
    assert v.status == "Elusive"


def test_class_coverage_matches_backtrack_on_a768(env):
    # PGL(2,127) on the 768 cosets of C127:C21: the backtrack's tree has
    # 768 * 127 * 21 leaves before pruning, while the class route walks the
    # order-3 classes of PGL(2,127) from a subgroup holding a Sylow
    # 3-subgroup and scans none of its 2,048,256 elements
    from derangements import derangement_backtrack
    A = env.a768()
    assert derangement_backtrack(A.group, 3) is None
    v = is_r_elusive(A, 3)
    assert v.status == "Elusive"
    assert v.method == "class-coverage"


def test_structural_wreath_positive_and_negative():
    s3 = natural_action(symmetric(3), "S3")
    c2 = cyclic(2)
    # S3 is 3-elusive on 3 points?  No: (0 1 2) is fixed-point-free.
    neg = structural_wreath_elusivity(WreathSpec(s3, 2, c2, "product"), 3)
    assert neg.status == "NotElusive"
    assert neg.witness is not None
    # materialized witness really is an order-3 derangement on 9 points
    assert neg.witness.order() == 3 and neg.witness.num_fixed() == 0
    # A4 on 4 points is 3-elusive (every order-3 element fixes a point),
    # so A4 wr C2 in the product action is too
    a4 = natural_action(alternating(4), "A4")
    pos = structural_wreath_elusivity(WreathSpec(a4, 2, c2, "product"), 3)
    assert pos.status == "Elusive"
    assert pos.method == "wreath-structural"
    # imprimitive flavor with an order-3 top derangement flips the verdict
    c3 = cyclic(3)
    neg2 = structural_wreath_elusivity(
        WreathSpec(a4, 3, c3, "imprimitive"), 3)
    assert neg2.status == "NotElusive"


def test_structural_checker_rejects_r2():
    s3 = natural_action(symmetric(3), "S3")
    with pytest.raises(ValueError):
        structural_wreath_elusivity(WreathSpec(s3, 2, cyclic(2), "product"),
                                    2)


def test_structural_verdicts_match_exhaustive():
    """Structural wreath verdicts agree with direct enumeration of the
    materialized group, for every odd prime dividing the small degrees."""
    cases = [
        (natural_action(symmetric(3), "S3"), 2, cyclic(2), "imprimitive", 3),
        (natural_action(alternating(4), "A4"), 2, cyclic(2), "product", 3),
        (natural_action(cyclic(3), "C3"), 3, cyclic(3), "imprimitive", 3),
        (natural_action(alternating(5), "A5"), 2, cyclic(2), "imprimitive",
         5),
        (natural_action(alternating(5), "A5"), 2, cyclic(2), "imprimitive",
         3),
    ]
    for base, k, top, flavor, r in cases:
        spec = WreathSpec(base, k, top, flavor)
        structural = structural_wreath_elusivity(spec, r)
        W = wreath(spec)
        direct = [x for x in enumerate_elements(W.group)
                  if x.order() == r and x.num_fixed() == 0]
        assert (structural.status == "Elusive") == (len(direct) == 0)


def test_action_class_reps_pushed_through_coset_table(m11_12, env):
    # parent route: classes computed in M11 at degree 11, pushed to 12
    infos = action_prime_order_class_reps(m11_12, 3)
    direct = prime_order_class_reps(m11_12.group, 3)
    assert sorted(ci.class_size for ci in infos) == \
        sorted(ci.class_size for ci in direct)
    assert all(isinstance(ci, ClassInfo) for ci in infos)


def test_budget_exceeded_is_loud():
    tiny = Budgets(exhaustive=10, degree=10**5, chain_degree=2 * 10**4,
                   materialize=10**6)
    G = symmetric(5)
    with pytest.raises(BudgetExceeded):
        prime_order_class_reps(G, 2, budgets=tiny)


def test_budget_is_checked_on_a_warm_cache():
    tiny = Budgets(exhaustive=10)
    G = symmetric(6)
    assert len(prime_order_class_reps(G, 2)) == 3  # warms both caches
    with pytest.raises(BudgetExceeded):
        prime_order_class_reps(G, 2, budgets=tiny)
    with pytest.raises(BudgetExceeded):
        count_order_r_elements(G, 2, budgets=tiny)


def test_wreath_top_group_respects_the_exhaustive_budget():
    # |C3| = 3 fits a budget of 5, but the top group S3 (order 6) does not
    spec = WreathSpec(natural_action(cyclic(3), "C3"), 3, symmetric(3),
                      "product")
    with pytest.raises(BudgetExceeded):
        wreath_prime_order_class_reps(spec, 3, Budgets(exhaustive=5))


def test_wreath_top_group_past_ten_thousand_elements():
    # C2 wr S8 is the hyperoctahedral group B8, |S8| = 40,320.  Its
    # involutions, 32,400 with the identity (OEIS A000898), fall into 24
    # classes: a + b + 2c = 8 points in positive and negative 1-cycles and
    # positive 2-cycles, less the identity.
    spec = WreathSpec(natural_action(cyclic(2), "C2"), 8, symmetric(8),
                      "imprimitive")
    infos = wreath_prime_order_class_reps(spec, 2)
    assert len(infos) == 24
    assert sum(ci.class_size for ci in infos) == 32399


def test_semiregular_search():
    res = semiregular_search(natural_action(cyclic(4), "C4"))
    assert res.witness is not None
    assert res.prime == 2
    a4 = semiregular_search(natural_action(alternating(4), "A4"))
    assert a4.witness is not None  # (0 1)(2 3)
    assert a4.witness.num_fixed() == 0


def test_semiregular_none_on_m11_12(m11_12):
    res = semiregular_search(m11_12)
    assert res.witness is None
    assert res.exact


def test_class_coverage_passes_caller_budget_to_the_scan():
    # S9 on the 36 cosets of S7 x S2: above the 100,000 elements up to
    # which an action reads its own classes, so the parent S9 is read; at
    # r=2 the involutions of type 2^4, a class of odd size 945, have the
    # centralizer C2 wr S4 (order 384), which is enumerated under the
    # caller's budget
    S9 = symmetric(9)
    H = PermGroup([Permutation.from_cycles(9, [(0, 1)]),
                   Permutation.from_cycles(9, [(0, 1, 2, 3, 4, 5, 6)]),
                   Permutation.from_cycles(9, [(7, 8)])], degree=9)
    A = coset_action(natural_action(S9, "S9"), H)
    assert A.degree == 36
    with recorded_scans() as received:
        v = is_r_elusive(A, 2, budgets=Budgets(exhaustive=400_000))
    assert v.method == "class-coverage"
    assert v.budgets["exhaustive"] == 400_000
    assert received == [(384, 400_000)]


def test_exhaustive_budget_below_the_group_order_means_backtrack():
    # M11 on 12 points, |M11| = 7920: under a budget of 7000 neither the
    # action's own classes nor its parent's may be enumerated, so the
    # verdict is the backtrack search's, as on the command line
    v = is_r_elusive(ScenarioEnv().m11_on_12(), 3,
                     budgets=Budgets(exhaustive=7000))
    assert v.method == "backtrack"
    assert v.status == "Elusive"


# ---------------------------------------------------------------------------
# the backtrack route over a subgroup holding a Sylow r-subgroup


def forced_backtrack(A):
    """A's group in its natural action, with no parent and no wreath spec,
    under a budget one below its order: `is_r_elusive` takes the
    backtrack route."""
    G = fresh(A.group)
    return natural_action(G, "natural"), Budgets(exhaustive=G.order() - 1)


def assert_backtrack_route_agrees(A, budgets, determinism=False):
    """At every prime dividing the degree, the backtrack route's status
    is the plain backtrack's over all of G, and in determinism mode so is
    its witness."""
    for r in prime_divisors(A.degree):
        v = is_r_elusive(A, r, budgets, determinism=determinism)
        want = derangement_backtrack(A.group, r, determinism=determinism)
        assert v.method == "backtrack", r
        assert v.status == ("Elusive" if want is None else "NotElusive"), r
        if determinism:
            assert v.witness == want, r


@pytest.mark.parametrize("determinism", [False, True])
def test_backtrack_route_agrees_with_the_plain_backtrack_on_the_corpus(
        corpus, determinism):
    for name, A in corpus:
        assert_backtrack_route_agrees(*forced_backtrack(A), determinism)


def test_backtrack_route_agrees_on_m11_12(m11_12):
    # degree 12: r = 2 (class of involutions 165, centralizer GL(2,3))
    # and r = 3 (class 440, centralizer C3 x S3)
    assert_backtrack_route_agrees(m11_12, Budgets(exhaustive=7000))
    assert_backtrack_route_agrees(m11_12, Budgets(exhaustive=7000),
                                  determinism=True)


def test_backtrack_route_agrees_on_a384_natural(env):
    # the backtrack runs over C_G(t), of order 128, at r = 2 and over
    # C_G(x), of order 63, at r = 3, not over the 1,024,128 elements of G
    A = natural_action(env.a384().group, "the a384 group, natural action")
    with recorded_backtracks() as calls:
        assert_backtrack_route_agrees(A, Budgets(exhaustive=100_000))
    assert calls == [128, 63]


@pytest.mark.parametrize("budget,h_order", [(440, 18), (439, 7920)])
def test_sylow_search_walks_count_against_the_budget(budget, h_order):
    """M11 at r = 3: the first sampled class has 440 elements and a
    centralizer of order 18.  A budget one short of that walk ends the
    search with H = G and leaves the walker's table empty."""
    G = fresh(ScenarioEnv().m11_action().group)
    H, walker, walks = sylow_subgroup(G, 3, budget)
    assert H.order() == h_order
    assert (H is G) == (h_order == G.order())
    assert [w.size for w in walks] == ([440] if H is not G else [])
    assert len(walker.seen) == sum(w.size for w in walks)


@pytest.mark.parametrize("determinism", [False, True])
def test_backtrack_route_past_the_budget_searches_all_of_g(env, determinism):
    # M11 on 12 under a budget of 100: the search's first walk (165
    # elements at r = 2, 440 at r = 3) passes it, so H = G (determinism
    # mode runs no search)
    with recorded_backtracks() as calls:
        assert_backtrack_route_agrees(env.m11_on_12(),
                                      Budgets(exhaustive=100), determinism)
    assert calls == [7920, 7920]
    # M11 on 11 points under a budget of 1000 at r = 11: H = <x> takes no
    # walk, and determinism mode, which wants G's least witness, searches
    # all of G with no Sylow search
    A = natural_action(fresh(env.m11_action().group), "M11")
    with recorded_backtracks() as calls:
        assert_backtrack_route_agrees(A, Budgets(exhaustive=1000),
                                      determinism)
    assert calls == [7920 if determinism else 11]


# ---------------------------------------------------------------------------
# the Sylow route against the scan


def test_sylow_route_agrees_with_the_scan_on_the_corpus(corpus):
    for name, A in corpus:
        for r in prime_divisors(A.group.order()):
            want = scan_reference(A.group, r)
            assert records(sylow_classes(A.group, r)) == want, (name, r)
            assert public_records(fresh(A.group), r) == want, (name, r)


@pytest.fixture(scope="module")
def line127_scanned(env):
    """PSL(2,127) and PGL(2,127) with the scan's class records at every
    prime of their order (2, 3, 7 and 127), from one enumeration pass
    each: every batch is filtered once per prime."""
    out = {}
    for name in ("PSL", "PGL"):
        G = env.line127().subgroups[name]
        primes = prime_divisors(G.order())
        kept = {r: [] for r in primes}
        for batch in G.element_batches():
            for r in primes:
                kept[r].append(_order_r_filter(batch, r))
        out[name] = (G, {r: scan_reference(G, r, np.concatenate(
            kept[r], dtype=np.int64)) for r in primes})
    return out


@pytest.mark.parametrize("name", ["PSL", "PGL"])
def test_sylow_route_agrees_with_the_scan_on_line127(line127_scanned, name):
    G, scanned = line127_scanned[name]
    assert list(scanned) == [2, 3, 7, 127]
    for r, want in scanned.items():
        assert records(sylow_classes(G, r)) == want, r
    if name == "PGL":
        # two involution classes: a walk of the first x's class alone
        # would miss one
        assert sorted(size for _, size, _ in scanned[2]) == [8001, 8128]


@pytest.mark.parametrize("r", [2, 3])
def test_own_classes_verdict_agrees_with_the_scan_on_psl127(
        line127_scanned, r):
    """PSL(2,127) on the projective line has no parent and no wreath spec:
    the verdict reads its own classes, by the Sylow route.  Its witness is
    the least representative of the scan's least fixed-point-free class."""
    G, scanned = line127_scanned["PSL"]
    with recorded_scans() as scans:
        got = is_r_elusive(natural_action(fresh(G), "PSL(2,127)"), r)
    assert scans and all(size < G.order() for size, _ in scans)
    assert got.method == "exhaustive-enumeration"
    free = [images for images, _, (least, _) in scanned[r] if least == 0]
    assert got.witness == (Permutation(free[0]) if free else None)
    # involutions derange the line (127 = 3 mod 4); order-3 elements fix
    # two points (3 divides 127 - 1)
    assert got.status == {2: "NotElusive", 3: "Elusive"}[r]


@pytest.mark.parametrize("group,r,h_order", [
    (lambda env: env.line127().subgroups["PSL"], 7, 7),
    (lambda env: env.line127().subgroups["PSL"], 2, 128),
    (lambda env: cyclic(300), 5, 300),
    (lambda env: env.m11_action().group, 2, 48),
    (lambda env: env.m11_action().group, 3, 18),
    (lambda env: dihedral(300), 2, 600),
    (lambda env: symmetric(9), 2, 384),
], ids=[
    "cyclic P, r^2 not dividing |G|: PSL(2,127) r=7",
    "r-group centralizer D128: PSL(2,127) r=2",
    "abelian centralizer: C300 r=5",
    "centralizer C(t) = GL(2,3): M11 r=2",
    "centralizer C(x) = C3 x S3: M11 r=3",
    "central z, C(z) = D600 = G: D600 r=2",
    "centralizer C(t) = C2 wr S4: S9 r=2",
])
def test_sylow_route_rules(env, line127_scanned, group, r, h_order):
    """The subgroup H that the Sylow route enumerates, one per case, and
    the classes it finds, against the scan."""
    G = group(env)
    psl, scanned = line127_scanned["PSL"]
    want = scanned[r] if G is psl else scan_reference(G, r)
    with recorded_scans() as scans:
        got = sylow_classes(G, r)
    assert scans == [(h_order, DEFAULT_BUDGETS.exhaustive)]
    assert records(got) == want
    assert public_records(fresh(G), r) == want


def test_class_discovery_on_psl127_scans_nothing():
    A = ScenarioEnv().a384()  # fresh: the parent PSL(2,127) is cold
    with recorded_scans() as scans:
        assert is_r_elusive(A, 3).method == "class-coverage"
        assert normal_structure(A).verdict == "quasiprimitive"
    # only subgroups holding a Sylow subgroup are enumerated, never the
    # parent itself
    assert scans and all(size < 1_024_128 for size, _ in scans)
    assert A.parent.parent_group.order() == 1_024_128
    assert 3 in A.parent.parent_group._class_reps_cache


def test_elusivity_needs_two_points():
    S5 = symmetric(5)
    A = coset_action(natural_action(S5, "S5"), S5)  # one coset
    rep = is_elusive(A)
    assert A.degree == 1
    assert rep.aggregate is None
    assert "at least 2" in rep.reason
    assert not rep
