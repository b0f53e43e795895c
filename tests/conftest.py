import numpy as np
import pytest

from derangements import (GroupAction, PermGroup, Permutation, coset_action,
                          natural_action, projective_line_action, wreath,
                          WreathSpec)
from derangements.harness import ScenarioEnv


@pytest.fixture(scope="session")
def env():
    """One shared construction cache for the whole test session."""
    return ScenarioEnv()


@pytest.fixture(scope="session")
def m11_12(env):
    return env.m11_on_12()


@pytest.fixture(scope="session")
def line9(env):
    return env.line9()


def enumerate_elements(G):
    """Every element of G exactly once, as Permutations: the tests' oracle
    over the library's batched enumeration."""
    for batch in G.element_batches():
        for row in batch:
            yield Permutation._raw(row.copy())


def bfs_transversal(G, x):
    """The G-class of the row x walked breadth first under conjugation by
    G's generators, with the transversal materialized: (rows, transversal)
    in walk order, where each new element's row t is its parent's row
    times the generator, t * g, so that x^t is the element.  The walk
    order is the class walker's: level by level, per level generator by
    generator, then row by row.  The reference for the rows that
    `classes._ClassWalker.transversal` traces back."""
    gens = [(g.images, g.inverse().images) for g in G.generators]
    rows = [np.asarray(x, dtype=np.int64)]
    trans = [np.arange(len(x))]
    seen = {rows[0].tobytes()}
    frontier = [0]
    while frontier:
        nxt = []
        for gi, gv in gens:
            for i in frontier:
                conj = gi[rows[i][gv]]
                if conj.tobytes() not in seen:
                    seen.add(conj.tobytes())
                    nxt.append(len(rows))
                    rows.append(conj)
                    trans.append(gi[trans[i]])  # t * g
        frontier = nxt
    return np.array(rows), np.array(trans)


def cyclic(n):
    return PermGroup([Permutation.from_cycles(n, [tuple(range(n))])])


def symmetric(n):
    gens = [Permutation.from_cycles(n, [tuple(range(n))]),
            Permutation.from_cycles(n, [(0, 1)])]
    return PermGroup(gens, degree=n)


def alternating(n):
    cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
    gens = [Permutation.from_cycles(n, [cyc]),
            Permutation.from_cycles(n, [(0, 1, 2)])]
    return PermGroup(gens, degree=n)


def dihedral(n):
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    refl = Permutation(np.array([(n - i) % n for i in range(n)]))
    return PermGroup([rot, refl])


def klein4():
    return PermGroup([Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                      Permutation.from_cycles(4, [(0, 2), (1, 3)])])


def frobenius21():
    # C7:C3 on 7 points: x -> x+1 and x -> 2x mod 7
    a = Permutation(np.array([(i + 1) % 7 for i in range(7)]))
    b = Permutation(np.array([(2 * i) % 7 for i in range(7)]))
    return PermGroup([a, b])


@pytest.fixture(scope="session")
def corpus(env):
    """Transitive actions of order <= 1e5 used by the oracle property suite.

    Mixes regular, imprimitive, primitive, wreath, and coset actions so the
    suite exercises every code path the big scenarios rely on.
    """
    line9 = env.line9()
    c2 = PermGroup([Permutation(np.array([1, 0]))])
    entries = [
        ("C3 regular", natural_action(cyclic(3), "C3")),
        ("C4 regular", natural_action(cyclic(4), "C4")),
        ("Klein4 regular", natural_action(klein4(), "V4")),
        ("S3 natural", natural_action(symmetric(3), "S3")),
        ("S4 natural", natural_action(symmetric(4), "S4")),
        ("A4 natural", natural_action(alternating(4), "A4")),
        ("D8 on 4", natural_action(dihedral(4), "D8")),
        ("D10 on 5", natural_action(dihedral(5), "D10")),
        ("C5 regular", natural_action(cyclic(5), "C5")),
        ("A5 natural", natural_action(alternating(5), "A5")),
        ("S5 natural", natural_action(symmetric(5), "S5")),
        ("A6 natural", natural_action(alternating(6), "A6")),
        ("S6 natural", natural_action(symmetric(6), "S6")),
        ("C7:C3 on 7", natural_action(frobenius21(), "C7:C3")),
        ("PGammaL(2,9) on 10", line9),
        ("M10 on 12", env.m10_on_12()),
        ("M11 natural", env.m11_action()),
        ("M11 on 12", env.m11_on_12()),
        ("PSL(2,11) on 11", natural_action(env.psl211(), "PSL(2,11)")),
        ("S3 wr C2 imprimitive",
         wreath(WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                           "imprimitive"))),
        ("S3 wr C2 product",
         wreath(WreathSpec(natural_action(symmetric(3), "S3"), 2, c2,
                           "product"))),
        ("C3 wr C3 imprimitive",
         wreath(WreathSpec(natural_action(cyclic(3), "C3"), 3,
                           cyclic(3), "imprimitive"))),
    ]
    for name, a in entries:
        assert a.group.is_transitive(), name
        assert a.group.order() <= 10**5, name
    return entries


@pytest.fixture(scope="session")
def psl2_31_on_96(env):
    from derangements import GroupAction, borel_subgroup, mersenne_scenario
    scn = mersenne_scenario(31)
    line = projective_line_action(31)
    H = borel_subgroup(scn, "psl", 5)
    psl = line.subgroups["PSL"]
    return coset_action(GroupAction(psl, line.point_labels, line.provenance),
                        H)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests.test_acceptance import RESULT_LINES
    except Exception:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
