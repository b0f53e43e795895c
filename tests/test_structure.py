"""Normal-structure classification and minimal-normal certificates.

Small groups are checked against hand-derived normal-subgroup lattices;
the classifier's verdicts must match what direct enumeration of normal
closures gives.
"""

import ast
import dataclasses
import glob
import os
import subprocess
import sys
import textwrap

import pytest

from derangements import (BIQUASIPRIMITIVE, NEITHER, PRIMITIVE,
                          QUASIPRIMITIVE, CertificateError,
                          DEFAULT_BUDGETS,
                          PermGroup, Permutation, WreathSpec, coset_action,
                          g_plus, natural_action, normal_structure,
                          prime_order_class_reps, verify_minimal_normal,
                          wreath)
from derangements import classes

from derangements.numbers import is_prime, prime_divisors

from tests.conftest import (alternating, bfs_transversal, cyclic, dihedral,
                            enumerate_elements, klein4, symmetric)


# ---------------------------------------------------------------------------
# normal_structure verdicts


def test_s4_primitive():
    rep = normal_structure(natural_action(symmetric(4), "S4"))
    assert rep.verdict == PRIMITIVE
    assert bool(rep)
    assert rep.exact
    # every nontrivial normal subgroup of S4 (V4, A4, S4) is transitive
    assert rep.orbit_counts() == [1] * len(rep.closures)
    # the double-transposition closure is the Klein four-group
    orders = sorted(order for _, order, _ in rep.closures)
    assert 4 in orders
    assert rep.g_plus is None and rep.halves is None


def test_a5_on_cosets_of_c5_quasiprimitive():
    # C5 < D10 < A5 is not maximal, so the degree-12 action is imprimitive;
    # simplicity still forces every normal subgroup to be transitive.
    a5 = natural_action(alternating(5), "A5")
    c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    A = coset_action(a5, c5)
    assert A.degree == 12
    assert not A.group.is_primitive()
    rep = normal_structure(A)
    assert rep.verdict == QUASIPRIMITIVE
    assert bool(rep)


def test_c4_regular_biquasiprimitive():
    rep = normal_structure(natural_action(cyclic(4), "C4"))
    assert rep.verdict == BIQUASIPRIMITIVE
    # the only prime-order class is the central involution, two orbits
    assert rep.orbit_counts() == [2]
    assert rep.g_plus.order() == 2
    assert rep.halves == ((0, 2), (1, 3))
    d = rep.to_dict()
    assert d["g_plus_order"] == 2
    assert d["halves"] == [[1, 3], [2, 4]]


def test_klein_regular_biquasiprimitive():
    rep = normal_structure(natural_action(klein4(), "V4"))
    assert rep.verdict == BIQUASIPRIMITIVE
    # each of the three involutions generates a two-orbit C2
    assert rep.orbit_counts() == [2, 2, 2]
    assert rep.g_plus.order() == 2


def test_d8_biquasiprimitive():
    rep = normal_structure(natural_action(dihedral(4), "D8"))
    assert rep.verdict == BIQUASIPRIMITIVE
    # one edge-type reflection class closes to a transitive Klein group;
    # the vertex-type class and the central rotation close to two-orbit
    # subgroups
    assert rep.orbit_counts() == [1, 2, 2]
    assert rep.g_plus.order() == 4


def test_c6_regular_neither():
    rep = normal_structure(natural_action(cyclic(6), "C6"))
    assert rep.verdict == NEITHER
    assert not bool(rep)
    # the involution's closure has three orbits, the order-3 closures two
    assert rep.orbit_counts() == [2, 2, 3]
    assert rep.g_plus is None


def test_m10_on_12_biquasiprimitive(env):
    A = env.m10_on_12()
    rep = normal_structure(A)
    assert rep.verdict == BIQUASIPRIMITIVE
    # the unique minimal normal subgroup A6 splits the points 6 + 6
    assert all(order == 360 for _, order, _ in rep.closures)
    assert rep.g_plus.order() == 360
    assert sorted(len(h) for h in rep.halves) == [6, 6]


def test_two_orbit_closure_only_on_biquasiprimitive_reports(corpus):
    # the report's two_orbit is the closure g_plus and halves come from
    for name, A in corpus + [("C6 regular", natural_action(cyclic(6), "C6"))]:
        rep = normal_structure(A)
        if rep.verdict != BIQUASIPRIMITIVE:
            assert rep.two_orbit is None, name
            continue
        assert tuple(map(tuple, rep.two_orbit.orbits())) == rep.halves, name
        assert rep.two_orbit is A.group.normal_closure(
            [min((c for c in rep.closures if c[2] == 2),
                 key=lambda c: c[1])[0]]), name


def test_normal_structure_requires_transitive():
    G = PermGroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        normal_structure(natural_action(G, "C2 x fix"))


# ---------------------------------------------------------------------------
# certificate checks raise, also under python -O


def test_non_normal_closure_raises(monkeypatch):
    monkeypatch.setattr(PermGroup, "is_normal", lambda self, sub: False)
    with pytest.raises(CertificateError, match="not normal"):
        normal_structure(natural_action(cyclic(4), "C4"))


def test_wrong_g_plus_index_raises(monkeypatch):
    class TooSmall(PermGroup):
        def order(self):
            return 1

    monkeypatch.setattr("derangements.structure.PermGroup", TooSmall)
    with pytest.raises(CertificateError, match="wrong index"):
        normal_structure(natural_action(cyclic(4), "C4"))


def test_g_plus_above_its_index_raises(monkeypatch):
    # with G_anchor replaced by G, <N, G_anchor> is all of C4, which
    # overshoots the bound |G|/2 its build is given
    monkeypatch.setattr(PermGroup, "point_stabilizer",
                        lambda self, point: self)
    with pytest.raises(CertificateError, match="exceeds the certified bound"):
        normal_structure(natural_action(cyclic(4), "C4"))


OPTIMIZED_RUN = textwrap.dedent("""
    from derangements import (CertificateError, PermGroup, Permutation,
                              natural_action, normal_structure)
    assert False, "asserts must be stripped in this run"
    c4 = PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    A = natural_action(c4, "C4")
    print(normal_structure(A).verdict)
    PermGroup.is_normal = lambda self, sub: False
    try:
        normal_structure(A)
    except CertificateError as e:
        print("raised:", e)
""")


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _library_trees():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "derangements", "*.py")
    paths = sorted(glob.glob(src))
    assert paths
    for path in paths:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_the_library():
    # python -O strips assert; library checks must raise instead, and raise
    # CertificateError so that a failed certificate is told apart by type
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Raise) and node.exc is not None
                 and _raises_assertion_error(node))]
    assert found == []


def test_no_function_body_reads_the_default_budgets():
    # a body that reads DEFAULT_BUDGETS.<field> ignores the caller's
    # budgets while its certificate records them; a default in a signature
    # is the caller's to override
    found = sorted({f"{name}:{node.lineno}"
                    for name, tree in _library_trees()
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for stmt in fn.body
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "DEFAULT_BUDGETS"})
    assert found == []


def test_only_permgroup_builds_stabilizer_chains():
    # a proven order bound reaches a chain by one path, PermGroup(bound=):
    # no other module builds a chain or hands a group one
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees() if name != "perm.py"
             for node in ast.walk(tree)
             if (isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 == "StabilizerChain")
             or (isinstance(node, ast.Attribute) and node.attr == "_chain"
                 and isinstance(node.ctx, ast.Store))]
    assert found == []


def test_harness_builds_no_normal_closure():
    # the structure report carries the closures a scenario reads, so the
    # harness never builds one again
    tree = dict(_library_trees())["harness.py"]
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "normal_closure"]
    assert found == []


def test_no_library_line_calls_np_unique():
    """numpy 2's np.unique deduplicates integers through a hash table:
    on the 97,536 int64 arc keys of the valency-127 graph on 768 points it
    took 19 ms against 0.66 ms for np.sort (numpy 2.4.6, 2 vCPU).  Keys
    that must be sorted, or checked to be distinct, go through np.sort."""
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "unique"]
    assert found == []


def test_no_library_function_takes_var_keywords():
    # a **kw pass-through accepts a misspelled option without a word; every
    # option a library function takes is named in its signature
    found = [f"{name}:{node.lineno}:{node.name}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.args.kwarg is not None]
    assert found == []


def test_orbital_builds_no_line_or_coset_action():
    # the double-cover check reads the actions it is given; a second build
    # of the line, its Borel subgroup or a coset action would not be shared
    builders = {"projective_line_action", "coset_action", "borel_subgroup"}
    tree = dict(_library_trees())["orbital.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "id", getattr(node.func, "attr", None))]
        else:
            continue
        found += [f"{node.lineno}:{name}" for name in names if name in builders]
    assert found == []


def test_structure_reads_classes_only_through_the_action_route():
    # one route per question: the normal structure reads the classes that
    # `is_r_elusive` reads, never a socle declaration or a route of its own
    tree = dict(_library_trees())["structure.py"]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "classes" not in modules
    assert {n for n in names if "class_reps" in n or n.endswith("classes")} \
        == {"action_prime_order_class_reps"}
    assert "declared_socle" not in names


def test_certificate_checks_survive_python_O():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RUN],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "biquasiprimitive", "raised: normal closure is not normal in G"]


# ---------------------------------------------------------------------------
# g_plus


def test_g_plus_s3_wr_c2_base():
    c2 = PermGroup([Permutation(__import__("numpy").array([1, 0]))])
    spec = WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                      "imprimitive")
    A = wreath(spec)
    base = A.group.normal_closure(
        [Permutation.from_cycles(6, [(0, 1)])])
    assert base.order() == 36
    gp, d1, d2 = g_plus(A, base)
    assert gp.order() == 36
    assert d1 == (0, 1, 2) and d2 == (3, 4, 5)
    # the halves are exactly the orbits and gp preserves them
    for g in gp.generators:
        assert g.images[0] in d1


def test_g_plus_rejects_transitive_normal_subgroup():
    A = natural_action(symmetric(4), "S4")
    v4 = A.group.normal_closure(
        [Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    with pytest.raises(ValueError):
        g_plus(A, v4)  # V4 is regular, a single orbit


def test_g_plus_rejects_non_normal():
    A = natural_action(symmetric(4), "S4")
    H = PermGroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        g_plus(A, H)


def test_g_plus_rejects_half_preserving_group():
    # G = <(1 2), (3 4)> already preserves both halves of N = <(1 2)(3 4)>
    G = PermGroup([Permutation.from_cycles(4, [(0, 1)]),
                   Permutation.from_cycles(4, [(2, 3)])])
    N = PermGroup([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    with pytest.raises(ValueError):
        g_plus(natural_action(G, "halves"), N)


# ---------------------------------------------------------------------------
# verify_minimal_normal


def test_v4_minimal_and_unique_in_s4():
    A = natural_action(symmetric(4), "S4")
    v4 = A.group.normal_closure(
        [Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    rep = verify_minimal_normal(A, v4)
    assert rep.minimal and rep.unique
    assert bool(rep)
    assert rep.n_order == 4
    # one closure per S4-class of prime order inside V4: the double
    # transpositions form a single class of S4
    assert rep.closure_orders == [4]
    assert rep.independent_witness is None
    assert rep.exact


def test_a4_not_minimal_in_s4():
    A = natural_action(symmetric(4), "S4")
    a4 = A.group.derived_subgroup()
    assert a4.order() == 12
    rep = verify_minimal_normal(A, a4)
    assert not rep.minimal
    assert not bool(rep)
    # the double transpositions inside A4 close to V4, a proper subgroup
    assert 4 in rep.closure_orders
    # nothing outside A4 generates an independent normal subgroup
    assert rep.unique


def test_klein_regular_minimal_but_not_unique():
    A = natural_action(klein4(), "V4")
    N = PermGroup([A.group.generators[0]])
    rep = verify_minimal_normal(A, N)
    assert rep.minimal
    assert not rep.unique
    w = rep.independent_witness
    assert w is not None and not N.contains(w)
    M = A.group.normal_closure([w])
    assert PermGroup(M.generators + N.generators).order() \
        == M.order() * N.order()


def test_minimal_normal_guards():
    A = natural_action(symmetric(4), "S4")
    with pytest.raises(ValueError):
        verify_minimal_normal(A, PermGroup(
            [Permutation.from_cycles(4, [(0, 1)])]))  # not normal
    with pytest.raises(ValueError):
        verify_minimal_normal(A, PermGroup([], degree=4))  # trivial


def test_socle_route_certifies_a5_squared(monkeypatch):
    # A5 wr C2 in product action: the group (order 7200) and its socle
    # A5 x A5 (order 3600) are above an exhaustive budget of 1000, so the
    # certificate reads the wreath decomposition's classes, the action's
    # one class route, whether or not the socle is declared.
    scanned = []
    real = classes.order_r_rows

    def recording(G, r, budget):
        scanned.append(G.order())
        return real(G, r, budget)

    monkeypatch.setattr("derangements.classes.order_r_rows", recording)
    c2 = PermGroup([Permutation(__import__("numpy").array([1, 0]))])
    spec = WreathSpec(natural_action(alternating(5), "A5"), 2, c2, "product")
    N = wreath(spec, declare_socle=True).declared_socle.subgroup
    assert N.order() == 3600
    tight = dataclasses.replace(DEFAULT_BUDGETS, exhaustive=1000)
    for A in (wreath(spec, declare_socle=True), wreath(spec)):
        rep = verify_minimal_normal(A, N, budgets=tight)
        assert rep.minimal and rep.unique and rep.exact
        assert set(rep.closure_orders) == {3600}
    # the Sylow route covers A5 at 2, 3 and 5 from subgroups holding a
    # Sylow subgroup, so neither factor (nor anything larger) is scanned
    assert scanned and all(size < 60 for size in scanned)


def reference_minimal_normal(A, N):
    """(minimal, unique, closure orders) without the action's class route:
    the closures of N's own prime-order classes decide minimality, and
    every prime-order element of G outside N, one per class walked by
    plain conjugation, is tried for a closure meeting N trivially."""
    G = A.group
    orders = {G.normal_closure([ci.representative]).order()
              for r in prime_divisors(N.order())
              for ci in prime_order_class_reps(N, r)}
    unique, seen = True, set()
    for x in enumerate_elements(G):
        if x.key() in seen or not is_prime(x.order()) or N.contains(x):
            continue
        rows, _ = bfs_transversal(G, x.images)
        seen |= {Permutation._raw(row).key() for row in rows}
        M = G.normal_closure([x])
        MN = PermGroup(M.generators + N.generators)
        unique = unique and MN.order() != M.order() * N.order()
    return orders == {N.order()}, unique, orders


def _a5_wr_c2_socle():
    c2 = PermGroup([Permutation(__import__("numpy").array([1, 0]))])
    spec = WreathSpec(natural_action(alternating(5), "A5"), 2, c2, "product")
    A = wreath(spec, declare_socle=True)
    return A, A.declared_socle.subgroup


def _s4_with(make_n):
    A = natural_action(symmetric(4), "S4")
    return A, make_n(A.group)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: _s4_with(lambda G: G.normal_closure(
        [Permutation.from_cycles(4, [(0, 1), (2, 3)])])), id="S4-V4"),
    pytest.param(lambda: _s4_with(lambda G: G.derived_subgroup()),
                 id="S4-A4"),
    pytest.param(lambda: (natural_action(klein4(), "V4"),
                          PermGroup([klein4().generators[0]])), id="V4-a"),
    pytest.param(lambda: (natural_action(dihedral(4), "D8"),
                          PermGroup([Permutation.from_cycles(
                              4, [(0, 2), (1, 3)])])), id="D8-center"),
    pytest.param(_a5_wr_c2_socle, id="A5wrC2-socle"),
    # N = C6 is not minimal, and the closure S3 of a transposition meets
    # it in A3, neither trivially nor in all of N
    pytest.param(lambda: (
        natural_action(PermGroup([
            Permutation.from_cycles(5, [(0, 1, 2)]),
            Permutation.from_cycles(5, [(0, 1)]),
            Permutation.from_cycles(5, [(3, 4)])]), "S3 x C2"),
        PermGroup([Permutation.from_cycles(5, [(0, 1, 2)]),
                   Permutation.from_cycles(5, [(3, 4)])])),
        id="S3xC2-C6"),
])
def test_minimal_normal_agrees_with_the_subgroup_class_reference(case):
    A, N = case()
    rep = verify_minimal_normal(A, N)
    minimal, unique, orders = reference_minimal_normal(A, N)
    assert (rep.minimal, rep.unique) == (minimal, unique)
    # an N-class lies in one G-class, and conjugates share a closure
    assert set(rep.closure_orders) == orders
