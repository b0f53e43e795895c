"""The benchmark's workloads: how each builds its inputs, which library
calls it makes, and the verdict every call must return.

A workload is a setup step, which builds the group actions, and a list of
queries run on them in order.  Each query returns a dict of observed
values and carries the values pinned for it.  The pins are the
expectations of the harness scenario the query mirrors, which the
citation names; a value that no scenario pins is derived in the citation.
Every pin holds under every seed.

The seed reaches the library's seeded entry points: `subgroup_search`
(which conjugate of PSL(2,11) in M11 is found), and `normal_structure` and
`verify_minimal_normal`.  On `graphs-768` it also picks the base point of
the suborbits and orbital graphs.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from derangements import elusive, orbital, structure, zoo
from derangements.config import DEFAULT_BUDGETS, Budgets
from derangements.perm import Permutation, PermGroup

# Small enough that the degree-384 action has no exact class route and
# is_r_elusive falls through to derangement_backtrack.
BACKTRACK_BUDGETS = Budgets(exhaustive=100_000)


@dataclass(frozen=True)
class Query:
    name: str
    # (inputs, seed, budgets) -> observed values; runs under self.budgets
    run: Callable[[dict, int, Budgets], dict]
    expected: dict
    cite: str
    budgets: Budgets = DEFAULT_BUDGETS


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]  # seed -> inputs
    queries: List[Query]


# -- setup ----------------------------------------------------------------


def _line127():
    line = zoo.projective_line_action(127, budgets=DEFAULT_BUDGETS)
    psl = zoo.GroupAction(line.subgroups["PSL"], line.point_labels,
                          "PSL(2,127) on the projective line")
    pgl = zoo.GroupAction(line.subgroups["PGL"], line.point_labels,
                          "PGL(2,127) on the projective line")
    return line, psl, pgl


def _a384(psl, scn):
    return zoo.coset_action(psl, zoo.borel_subgroup(scn, "psl", 21),
                            budgets=DEFAULT_BUDGETS)


def _a384_pgl(pgl, scn):
    return zoo.coset_action(pgl, zoo.borel_subgroup(scn, "pgl", 42),
                            budgets=DEFAULT_BUDGETS)


def _a768(pgl, scn):
    return zoo.coset_action(pgl, zoo.borel_subgroup(scn, "psl", 21),
                            budgets=DEFAULT_BUDGETS)


def setup_table(seed: int) -> dict:
    _line, psl, _pgl = _line127()
    return {"a384": _a384(psl, zoo.mersenne_scenario(127))}


def setup_check(seed: int) -> dict:
    _line, psl, pgl = _line127()
    scn = zoo.mersenne_scenario(127)
    a384 = _a384(psl, scn)
    return {"a384_pgl": _a384_pgl(pgl, scn),
            "a384_natural": zoo.natural_action(
                a384.group, "the a384 group, natural action")}


def setup_graphs(seed: int) -> dict:
    line, psl, pgl = _line127()
    scn = zoo.mersenne_scenario(127)
    actions = {"a384": _a384(psl, scn), "a384_pgl": _a384_pgl(pgl, scn),
               "a768": _a768(pgl, scn)}
    # The subdegree multiset does not depend on the base point, so the
    # seed may choose it; 384 divides 768, so it is a point of all three.
    return {"line": line, "scn": scn, "alpha": seed % 384, **actions}


def setup_wreath(seed: int) -> dict:
    M = zoo.m11()
    psl211 = zoo.subgroup_search(M, 660, require_simple=True, seed=seed,
                                 budgets=DEFAULT_BUDGETS)
    if psl211 is None:
        raise RuntimeError(
            f"subgroup_search found no PSL(2,11) at seed {seed}")
    m11_on_12 = zoo.coset_action(M, psl211, budgets=DEFAULT_BUDGETS)
    top2 = PermGroup([Permutation(np.array([1, 0]))])
    spec = zoo.WreathSpec(m11_on_12, 2, top2, "product")
    return {"W": zoo.wreath(spec, budgets=DEFAULT_BUDGETS,
                            declare_socle=True)}


# -- queries --------------------------------------------------------------


def _elusivity(rep) -> dict:
    return {"elusive": bool(rep),
            "primes": [v.prime for v in rep.verdicts],
            "methods": sorted({v.method for v in rep.verdicts}),
            "exact": rep.exact}


def _verdict(v) -> dict:
    return {"status": v.status, "method": v.method}


def _graph_query(key: str) -> Callable[[dict, int, Budgets], dict]:
    """Suborbits of one action, then every nontrivial orbital graph."""

    def run(x: dict, seed: int, budgets: Budgets) -> dict:
        A, alpha = x[key], x["alpha"]
        tab = orbital.suborbits(A, alpha)
        agree = True
        for rep, _length in tab.entries:
            if rep == alpha:
                continue
            g = orbital.orbital_graph(A, alpha, rep)
            connected = orbital.is_connected(g)
            if g.self_paired and connected != \
                    orbital.connectivity_by_generation(A, alpha, rep):
                agree = False
        return {"subdegrees": list(tab.multiset()),
                "connectivity_methods_agree": agree}

    return run


def _double_cover(x: dict, seed: int, budgets: Budgets) -> dict:
    rep = orbital.verify_double_cover_scenario(
        x["scn"], budgets=budgets,
        actions={"a_half": x["a384"], "a_full": x["a768"], "line": x["line"]})
    return {"ok": rep.ok, "edge_count": rep.edge_count}


def _minimal_normal(x: dict, seed: int, budgets: Budgets) -> dict:
    W = x["W"]
    mn = structure.verify_minimal_normal(W, W.declared_socle.subgroup,
                                         budgets=budgets, seed=seed)
    return {"socle_minimal": mn.minimal, "socle_unique": mn.unique}


_AGREE = ("graph search and stabilizer generation agree; the scenario "
          "checks its prime suborbits, this query every nontrivial one")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("table-psl127", setup_table, [
        Query("is_2prime_elusive",
              lambda x, seed, b: _elusivity(
                  elusive.is_2prime_elusive(x["a384"], budgets=b)),
              {"elusive": True, "primes": [3], "methods": ["class-coverage"],
               "exact": True},
              "harness psl2-127-borel21: two_prime_elusive, "
              "odd_primes_checked, methods, exact"),
        Query("normal_structure",
              lambda x, seed, b: {"structure": structure.normal_structure(
                  x["a384"], budgets=b, seed=seed).verdict},
              {"structure": "quasiprimitive"},
              "harness psl2-127-borel21: structure"),
    ]),
    Workload("check-r3", setup_check, [
        Query("pgl127_borel42_r3",
              lambda x, seed, b: _verdict(
                  elusive.is_r_elusive(x["a384_pgl"], 3, budgets=b)),
              {"status": "Elusive", "method": "class-coverage"},
              "harness pgl2-127-borel42: two_prime_elusive with "
              "odd_primes_checked [3], methods"),
        Query("a384_natural_r3",
              lambda x, seed, b: _verdict(
                  elusive.is_r_elusive(x["a384_natural"], 3, budgets=b)),
              {"status": "Elusive", "method": "backtrack"},
              "harness psl2-127-borel21: two_prime_elusive with "
              "odd_primes_checked [3], for the same permutation group; "
              "derived: with no coset parent and order 1024128 above the "
              "exhaustive budget 100000, is_r_elusive routes to backtrack",
              BACKTRACK_BUDGETS),
    ]),
    Workload("graphs-768", setup_graphs, [
        Query("a384_graphs", _graph_query("a384"),
              {"subdegrees": [1, 1, 1, 127, 127, 127],
               "connectivity_methods_agree": True},
              "harness psl2-127-borel21: subdegrees, "
              "connectivity_methods_agree; " + _AGREE),
        Query("a384_pgl_graphs", _graph_query("a384_pgl"),
              {"subdegrees": [1, 1, 1, 127, 127, 127],
               "connectivity_methods_agree": True},
              "harness pgl2-127-borel42: subdegrees, "
              "connectivity_methods_agree; " + _AGREE),
        Query("a768_graphs", _graph_query("a768"),
              {"subdegrees": [1] * 6 + [127] * 6,
               "connectivity_methods_agree": True},
              "harness pgl2-127-borel21-biquasi: subdegrees, "
              "connectivity_methods_agree; " + _AGREE),
        Query("double_cover", _double_cover,
              {"ok": True, "edge_count": 48768},
              "harness pgl2-127-double-cover: ok, edge_count"),
    ]),
    Workload("wreath-m11", setup_wreath, [
        Query("is_elusive",
              lambda x, seed, b: _elusivity(
                  elusive.is_elusive(x["W"], budgets=b)),
              {"elusive": True, "primes": [2, 3],
               "methods": ["wreath-structural"], "exact": True},
              "harness m11-wr2-product: elusive, primes_checked, methods; "
              "derived: exact, as the structural route is exact"),
        Query("suborbits",
              lambda x, seed, b: {"subdegrees": list(
                  orbital.suborbits(x["W"], 0).multiset())},
              {"subdegrees": [1, 22, 121]},
              "harness m11-wr2-product: subdegrees"),
        Query("normal_structure",
              lambda x, seed, b: {"structure": structure.normal_structure(
                  x["W"], budgets=b, seed=seed).verdict},
              {"structure": "primitive"},
              "harness m11-wr2-product: structure"),
        Query("verify_minimal_normal", _minimal_normal,
              {"socle_minimal": True, "socle_unique": True},
              "harness m11-wr2-product: socle_minimal, socle_unique"),
    ]),
]}
