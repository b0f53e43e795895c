"""Scenario registry and verification harness.

Each scenario builds a specific permutation action, computes verdicts with
the library, and compares them field-by-field against expected values.
Every expectation carries a citation describing the mathematical fact it
encodes (a classification row, a subdegree pattern, or an independently
derived oracle); the Expectation record refuses uncited ones at load time.

Scenario runs are deterministic for a fixed (seed, budgets) pair; in
determinism mode wall times are zeroed so serialized reports are
byte-identical across runs.
"""

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import Budgets, DEFAULT_BUDGETS, DEFAULT_SEED, CertificateError
from .numbers import factorize, prime_divisors
from .perm import Permutation, PermGroup
from .zoo import (GroupAction, WreathSpec, assemble_stabilizer,
                  borel_subgroup, coset_action, load_generators, m11,
                  mersenne_scenario, natural_action, projective_line_action,
                  subgroup_search, wreath)
from .elusive import (is_2prime_elusive, is_elusive, is_r_elusive,
                      semiregular_search, structural_wreath_elusivity,
                      wreath_fixed_point_check)
from .structure import normal_structure, verify_minimal_normal
from .orbital import (connectivity_by_generation, is_connected, orbital_graph,
                      standard_double_cover, suborbits,
                      verify_double_cover_scenario, block_divisibility_check)


@dataclass(frozen=True)
class Expectation:
    key: str
    value: object
    citation: str

    def __post_init__(self):
        if not isinstance(self.citation, str) or not self.citation.strip():
            raise ValueError(f"expectation {self.key!r} lacks a citation")


@dataclass(frozen=True)
class Scenario:
    id: str
    tags: Tuple[str, ...]
    builder: Callable
    expected: Tuple[Expectation, ...]

    def __post_init__(self):
        for e in self.expected:
            if not isinstance(e, Expectation):
                raise TypeError("expectations must be Expectation records")


@dataclass
class RunReport:
    scenario_id: str
    passed: bool
    skipped: bool = False
    skip_reason: Optional[str] = None
    error: Optional[str] = None
    expectations: List[dict] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "passed": self.passed,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "error": self.error,
            "expectations": self.expectations,
            "certificates": self.certificates,
            "wall_time": self.wall_time,
        }


class ScenarioSkipped(Exception):
    """Raised by a builder when its optional inputs are absent."""


class ScenarioEnv:
    """Shared construction cache for a harness run.

    Heavy objects (projective-line groups, coset tables, wreath actions)
    are built once per environment and shared across scenarios.
    """

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS,
                 seed: int = DEFAULT_SEED, determinism: bool = False,
                 optional_data: Optional[str] = None):
        self.budgets = budgets
        self.seed = seed
        self.determinism = determinism
        self.optional_data = optional_data
        self._cache: dict = {}

    def get(self, key: str, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- shared ingredients ---------------------------------------------------

    def m11_action(self) -> GroupAction:
        return self.get("m11", m11)

    def psl211(self) -> PermGroup:
        return self.get("psl211", lambda: subgroup_search(
            self.m11_action(), 660, require_simple=True, seed=self.seed,
            budgets=self.budgets))

    def m11_on_12(self) -> GroupAction:
        return self.get("m11_on_12", lambda: coset_action(
            self.m11_action(), self.psl211(), budgets=self.budgets))

    def line9(self) -> GroupAction:
        return self.get("line9", lambda: projective_line_action(
            9, budgets=self.budgets))

    def m10_on_12(self) -> GroupAction:
        def build():
            m10 = self.line9().subgroups["M10"]
            a5 = subgroup_search(m10, 60, element_orders={1, 2, 3, 5},
                                 require_simple=True, seed=self.seed,
                                 budgets=self.budgets)
            return coset_action(m10, a5, budgets=self.budgets,
                                provenance="M10 on the cosets of A5")
        return self.get("m10_on_12", build)

    def auta6_on_24(self) -> GroupAction:
        def build():
            line = self.line9()
            a5 = subgroup_search(line.group, 60, element_orders={1, 2, 3, 5},
                                 require_simple=True, seed=self.seed,
                                 budgets=self.budgets)
            return coset_action(line, a5, budgets=self.budgets,
                                provenance="Aut(A6) on the cosets of A5")
        return self.get("auta6_on_24", build)

    def auta6_on_12(self) -> GroupAction:
        def build():
            line = self.line9()
            s5 = subgroup_search(line.group, 120,
                                 element_orders={1, 2, 3, 4, 5, 6},
                                 seed=self.seed, budgets=self.budgets)
            return coset_action(line, s5, budgets=self.budgets,
                                provenance="Aut(A6) on the cosets of S5")
        return self.get("auta6_on_12", build)

    def line127(self) -> GroupAction:
        return self.get("line127", lambda: projective_line_action(
            127, budgets=self.budgets))

    def scn127(self):
        return self.get("scn127", lambda: mersenne_scenario(127))

    def psl127_action(self) -> GroupAction:
        def build():
            line = self.line127()
            return GroupAction(line.subgroups["PSL"], line.point_labels,
                               "PSL(2,127) on the projective line")
        return self.get("psl127_action", build)

    def pgl127_action(self) -> GroupAction:
        def build():
            line = self.line127()
            return GroupAction(line.subgroups["PGL"], line.point_labels,
                               "PGL(2,127) on the projective line")
        return self.get("pgl127_action", build)

    def a384(self) -> GroupAction:
        def build():
            H = borel_subgroup(self.scn127(), "psl", 21)
            return coset_action(self.psl127_action(), H, budgets=self.budgets)
        return self.get("a384", build)

    def a768(self) -> GroupAction:
        def build():
            H = borel_subgroup(self.scn127(), "psl", 21)
            return coset_action(self.pgl127_action(), H, budgets=self.budgets)
        return self.get("a768", build)

    def a384_pgl(self) -> GroupAction:
        def build():
            H = borel_subgroup(self.scn127(), "pgl", 42)
            return coset_action(self.pgl127_action(), H, budgets=self.budgets)
        return self.get("a384_pgl", build)

    def top2(self) -> PermGroup:
        return self.get("top2", lambda: PermGroup(
            [Permutation(np.array([1, 0]))]))

    def wreath144(self):
        def build():
            spec = WreathSpec(self.m11_on_12(), 2, self.top2(), "product")
            return spec, wreath(spec, budgets=self.budgets, declare_socle=True)
        return self.get("wreath144", build)


def _factor_str(n: int) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p)
                      for p, e in sorted(factorize(n).items()))


def _nh_order(action: GroupAction, N: PermGroup) -> int:
    """|N G_alpha| = |G_alpha| |alpha^N| (orbit-stabilizer; N is normal)."""
    return action.group.point_stabilizer(0).order() * len(N.orbit(0))


def _methods(rep) -> list:
    return sorted({v.method for v in rep.verdicts})


def _two_prime(env: ScenarioEnv, A: GroupAction, values: dict, certs: dict):
    """Record A's 2'-elusivity verdict and certificate; return the report."""
    rep = is_2prime_elusive(A, budgets=env.budgets)
    values["two_prime_elusive"] = bool(rep)
    certs["two_prime_elusive"] = rep.to_dict()
    return rep


def _structure(env: ScenarioEnv, A: GroupAction, values: dict, certs: dict):
    """Record A's normal-structure verdict and certificate; return it."""
    struct = normal_structure(A, budgets=env.budgets, seed=env.seed)
    values["structure"] = struct.verdict
    certs["structure"] = struct.to_dict()
    return struct


# -- scenario builders --------------------------------------------------------


def _build_m11_psl211(env: ScenarioEnv):
    A = env.m11_on_12()
    values: dict = {"degree": A.degree, "order": A.group.order()}
    certs: dict = {}
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    rep = is_elusive(A, budgets=env.budgets)
    values["elusive"] = bool(rep)
    values["methods"] = _methods(rep)
    values["exact"] = rep.exact
    certs["elusive"] = rep.to_dict()
    sr = semiregular_search(A, budgets=env.budgets)
    values["semiregular_witness"] = (None if sr.witness is None
                                     else sr.witness.cycle_string())
    _structure(env, A, values, certs)
    beta = [r for r, l in tab.entries if l == 11][0]
    graph = orbital_graph(A, 0, beta)
    values["eleven_orbital_complete"] = graph.is_complete()
    values["eleven_orbital_connected"] = is_connected(graph)
    values["connected_by_generation"] = connectivity_by_generation(A, 0, beta)
    return values, certs


def _expected_m11_psl211():
    c_row = ("classification of elusive primitive pairs: M11 acting on the "
             "cosets of PSL(2,11)")
    return (
        Expectation("degree", 12, "index of PSL(2,11) in M11 is 7920/660"),
        Expectation("order", 7920, "order of M11"),
        Expectation("subdegrees", [1, 11],
                    "subdegree multiset {1, 11} of the 2-transitive "
                    "degree-12 action of M11"),
        Expectation("elusive", True, c_row),
        Expectation("methods", ["exhaustive-enumeration"],
                    "derived: order 7920 admits full enumeration"),
        Expectation("exact", True, "derived: exhaustive certificate"),
        Expectation("semiregular_witness", None,
                    "M11 on 12 points has no semiregular element of prime "
                    "order (derived: exhaustive search)"),
        Expectation("structure", "primitive",
                    "M11 is simple and 12 is not a proper block size of "
                    "this action"),
        Expectation("eleven_orbital_complete", True,
                    "the valency-11 orbital graph on 12 points is the "
                    "complete graph K12"),
        Expectation("eleven_orbital_connected", True, "K12 is connected"),
        Expectation("connected_by_generation", True,
                    "a stabilizer together with an arc-swapping element "
                    "generates the full group exactly for connected "
                    "orbital graphs"),
    )


def _build_m10_a5(env: ScenarioEnv):
    A = env.m10_on_12()
    values: dict = {"degree": A.degree, "order": A.group.order()}
    certs: dict = {}
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    _two_prime(env, A, values, certs)
    struct = _structure(env, A, values, certs)
    values["g_plus_order"] = struct.g_plus.order()
    values["halves"] = sorted(len(h) for h in struct.halves)
    values["nh_order"] = _nh_order(A, struct.two_orbit)
    b5 = [r for r, l in tab.entries if l == 5][0]
    graph = orbital_graph(A, 0, b5)
    values["five_orbital_self_paired"] = graph.self_paired
    values["five_orbital_connected"] = is_connected(graph)
    values["five_orbital_edges"] = len(graph.edge_set())
    values["connected_by_generation"] = connectivity_by_generation(A, 0, b5)
    return values, certs


def _expected_m10_a5():
    row = ("classification of biquasiprimitive 2'-elusive pairs: M10 "
           "acting on the cosets of A5")
    return (
        Expectation("degree", 12, "index of A5 in M10 is 720/60"),
        Expectation("order", 720, "order of M10"),
        Expectation("subdegrees", [1, 5, 6],
                    "subdegree multiset {1, 5, 6} of M10 on 12 points"),
        Expectation("two_prime_elusive", True, row),
        Expectation("structure", "biquasiprimitive", row),
        Expectation("g_plus_order", 360,
                    "the half-preserving subgroup is A6"),
        Expectation("halves", [6, 6], "A6 splits the 12 points into two "
                    "orbits of 6"),
        Expectation("nh_order", 360,
                    "product identity |NH| = |N||H|/|N meet H| = "
                    "360*60/60 with N = A6, H = A5"),
        Expectation("five_orbital_self_paired", True,
                    "the valency-5 orbital graph of M10 is undirected"),
        Expectation("five_orbital_connected", False,
                    "the valency-5 orbital graph of M10 on 12 points is a "
                    "disjoint union of two copies of K6"),
        Expectation("five_orbital_edges", 30, "two copies of K6 have "
                    "2*15 edges"),
        Expectation("connected_by_generation", False,
                    "generation test agrees with the disconnected "
                    "valency-5 graph"),
    )


def _build_auta6_a5(env: ScenarioEnv):
    A = env.auta6_on_24()
    values: dict = {"degree": A.degree, "order": A.group.order()}
    certs: dict = {}
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    _two_prime(env, A, values, certs)
    struct = _structure(env, A, values, certs)
    values["max_closure_orbits"] = max(oc for _, _, oc in struct.closures)
    return values, certs


def _expected_auta6_a5():
    return (
        Expectation("degree", 24,
                    "derived: a subgroup of order 60 has index 1440/60 = 24 "
                    "in Aut(A6); order arithmetic forces the degree"),
        Expectation("order", 1440, "order of Aut(A6) = PGammaL(2,9)"),
        Expectation("subdegrees", [1, 1, 5, 5, 6, 6],
                    "derived: stabilizer-orbit computation on the built "
                    "action; doubles the {1,5,6} pattern of the index-2 "
                    "subactions"),
        Expectation("two_prime_elusive", True,
                    "classification row: Aut(A6) with point stabilizer A5 "
                    "has no derangement of odd prime order"),
        Expectation("structure", "neither",
                    "derived: the socle A6 has four orbits of size 6 here, "
                    "so a nontrivial normal subgroup has more than two "
                    "orbits"),
        Expectation("max_closure_orbits", 4,
                    "derived: |A6 orbits| = 24/(360/60) = 4"),
    )


def _build_auta6_s5(env: ScenarioEnv):
    A = env.auta6_on_12()
    values: dict = {"degree": A.degree, "order": A.group.order()}
    certs: dict = {}
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    _two_prime(env, A, values, certs)
    struct = _structure(env, A, values, certs)
    values["g_plus_order"] = struct.g_plus.order()
    values["nh_order"] = _nh_order(A, struct.two_orbit)
    return values, certs


def _expected_auta6_s5():
    return (
        Expectation("degree", 12, "index of S5 in Aut(A6) is 1440/120"),
        Expectation("order", 1440, "order of Aut(A6)"),
        Expectation("subdegrees", [1, 5, 6],
                    "subdegree multiset {1, 5, 6} of Aut(A6) on the cosets "
                    "of S5"),
        Expectation("two_prime_elusive", True,
                    "classification row: Aut(A6) with point stabilizer S5 "
                    "has no derangement of odd prime order"),
        Expectation("structure", "biquasiprimitive",
                    "the socle A6 has exactly two orbits of size 6 on the "
                    "cosets of S5"),
        Expectation("g_plus_order", 720,
                    "derived: the half-preserving subgroup A6.S5 = S6 has "
                    "order 720"),
        Expectation("nh_order", 720,
                    "product identity |NH| = 360*120/60 with N = A6, "
                    "H = S5"),
    )


def _build_psl2_7(env: ScenarioEnv):
    scn = mersenne_scenario(7)
    line = projective_line_action(7, budgets=env.budgets)
    H = borel_subgroup(scn, "psl", 3)
    psl = line.subgroups["PSL"]
    A = coset_action(GroupAction(psl, line.point_labels, line.provenance),
                     H, budgets=env.budgets)
    values: dict = {"degree": A.degree,
                    "degree_factorization": _factor_str(A.degree)}
    rep = is_2prime_elusive(A, budgets=env.budgets)
    values["status"] = ("NotApplicable" if rep.aggregate is None
                        else str(rep.aggregate))
    values["reason_mentions_odd_prime"] = "odd prime" in (rep.reason or "")
    v5 = is_r_elusive(A, 5, budgets=env.budgets)
    values["r5_status"] = v5.status
    values["r5_reason_mentions_divide"] = "divide" in (v5.reason or "")
    certs = {"two_prime_elusive": rep.to_dict(), "r5": v5.to_dict()}
    return values, certs


def _expected_psl2_7():
    return (
        Expectation("degree", 8, "index of C7:C3 in PSL(2,7) is 168/21"),
        Expectation("degree_factorization", "2^3",
                    "derived: 8 is a power of two"),
        Expectation("status", "NotApplicable",
                    "a 2-power degree admits no odd prime divisor, so the "
                    "2'-elusive question does not arise"),
        Expectation("reason_mentions_odd_prime", True,
                    "derived: report carries the reason"),
        Expectation("r5_status", "NotApplicable",
                    "derived: 5 does not divide |PSL(2,7)| = 168"),
        Expectation("r5_reason_mentions_divide", True,
                    "derived: report carries the reason"),
    )


def _build_psl2_31(env: ScenarioEnv):
    scn = mersenne_scenario(31)
    line = projective_line_action(31, budgets=env.budgets)
    H = borel_subgroup(scn, "psl", 5)
    psl = line.subgroups["PSL"]
    A = coset_action(GroupAction(psl, line.point_labels, line.provenance),
                     H, budgets=env.budgets)
    values: dict = {"degree": A.degree, "order": A.group.order()}
    v = is_r_elusive(A, 3, budgets=env.budgets)
    values["r3_status"] = v.status
    values["method"] = v.method
    w = v.witness
    values["witness_order"] = None if w is None else w.order()
    values["witness_is_derangement"] = (None if w is None
                                        else w.num_fixed() == 0)
    certs = {"r3": v.to_dict()}
    return values, certs


def _expected_psl2_31():
    return (
        Expectation("degree", 96, "index of C31:C5 in PSL(2,31) is "
                    "14880/155"),
        Expectation("order", 14880, "order of PSL(2,31)"),
        Expectation("r3_status", "NotElusive",
                    "derived: exhaustive enumeration finds an order-3 "
                    "derangement; (31-1)/2 = 15 is squarefree, so no "
                    "subgroup C31:Cs yields a 2'-elusive action"),
        Expectation("method", "exhaustive-enumeration",
                    "derived: order 14880 admits full enumeration"),
        Expectation("witness_order", 3, "derived: witness re-verified at "
                    "construction"),
        Expectation("witness_is_derangement", True,
                    "derived: witness re-verified at construction"),
    )


def _borel_values(env: ScenarioEnv, A: GroupAction):
    values: dict = {"degree": A.degree, "order": A.group.order(),
                    "stabilizer_order": A.group.point_stabilizer(0).order()}
    certs: dict = {}
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    values["fixed_points_of_stabilizer"] = tab.fixed_point_count()
    rep = _two_prime(env, A, values, certs)
    values["odd_primes_checked"] = [v.prime for v in rep.verdicts]
    values["methods"] = _methods(rep)
    values["exact"] = rep.exact
    # cross-checks on every prime-length suborbit
    agree = True
    for beta, _ in tab.prime_entries():
        g = orbital_graph(A, 0, beta)
        if not g.self_paired:
            continue
        if is_connected(g) != connectivity_by_generation(A, 0, beta):
            agree = False
    values["connectivity_methods_agree"] = agree
    return values, certs, tab


def _build_psl2_127_borel21(env: ScenarioEnv):
    A = env.a384()
    values, certs, tab = _borel_values(env, A)
    _structure(env, A, values, certs)
    bs = A.group.nontrivial_block_system()
    values["has_nontrivial_blocks"] = bs is not None
    values["block_count"] = None if bs is None else len(bs.cells)
    values["block_size"] = None if bs is None else len(bs.cells[0])
    if bs is not None:
        div_ok = True
        for rep, l in tab.entries:
            if rep == 0:
                continue
            if not block_divisibility_check(A, bs, 0, rep):
                div_ok = False
        values["block_divisibility"] = div_ok
    return values, certs


def _expected_psl2_127_borel21():
    pattern = ("subdegree pattern {1^((p-1)/2s), p^((p-1)/2s)} for "
               "PSL(2,p) on the cosets of C_p:C_s at p=127, s=21")
    return (
        Expectation("degree", 384, "index (p^2-1)/2s = 16128/42 at p=127, "
                    "s=21"),
        Expectation("order", 1024128, "order of PSL(2,127) = 127*128*126/2"),
        Expectation("stabilizer_order", 2667, "order of C127:C21"),
        Expectation("subdegrees", [1, 1, 1, 127, 127, 127], pattern),
        Expectation("fixed_points_of_stabilizer", 3,
                    "the stabilizer H = C_p:C_s has |N_G(H):H| = (p-1)/2s "
                    "= 3 fixed points"),
        Expectation("two_prime_elusive", True,
                    "classification row: PSL(2,p) with stabilizer C_p:C_s "
                    "for Mersenne p and s a multiple of the radical of "
                    "(p-1)/2 is 2'-elusive"),
        Expectation("odd_primes_checked", [3],
                    "derived: 384 = 2^7 * 3 has a single odd prime "
                    "divisor"),
        Expectation("methods", ["class-coverage"],
                    "derived: fixed-point counts are class functions; the "
                    "degree-128 parent admits full enumeration"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("connectivity_methods_agree", True,
                    "graph search and stabilizer-generation agree on every "
                    "self-paired prime suborbit"),
        Expectation("structure", "quasiprimitive",
                    "every nontrivial normal subgroup of the simple group "
                    "PSL(2,127) is the whole group, hence transitive"),
        Expectation("has_nontrivial_blocks", True,
                    "C127:C21 < C127:C63 < PSL(2,127) gives a proper "
                    "block refinement"),
        Expectation("block_count", 128,
                    "derived: blocks are the C127:C63-coset fibres, "
                    "384/3 = 128 of them"),
        Expectation("block_size", 3, "derived: |C127:C63 : C127:C21| = 3"),
        Expectation("block_divisibility", True,
                    "block-orbit length divides suborbit length for every "
                    "suborbit of an invariant partition"),
    )


def _build_pgl2_127_borel42(env: ScenarioEnv):
    A = env.a384_pgl()
    values, certs, _tab = _borel_values(env, A)
    return values, certs


def _expected_pgl2_127_borel42():
    return (
        Expectation("degree", 384, "index (p^2-1)/s = 16128/42 at p=127, "
                    "s=42 in PGL(2,127)"),
        Expectation("order", 2048256, "order of PGL(2,127) = 127*128*126"),
        Expectation("stabilizer_order", 5334, "order of C127:C42"),
        Expectation("subdegrees", [1, 1, 1, 127, 127, 127],
                    "subdegree pattern for PGL(2,p) on the cosets of "
                    "C_p:C_2s at p=127, s=21"),
        Expectation("fixed_points_of_stabilizer", 3,
                    "|N_G(H):H| = (p-1)/2s = 3 in PGL(2,127)"),
        Expectation("two_prime_elusive", True,
                    "classification row: PGL(2,p) with stabilizer "
                    "C_p:C_2s for Mersenne p is 2'-elusive"),
        Expectation("odd_primes_checked", [3],
                    "derived: 384 = 2^7 * 3"),
        Expectation("methods", ["class-coverage"],
                    "derived: the degree-128 parent admits full "
                    "enumeration"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("connectivity_methods_agree", True,
                    "graph search and stabilizer-generation agree on every "
                    "self-paired prime suborbit"),
    )


def _build_pgl2_127_biquasi(env: ScenarioEnv):
    A = env.a768()
    values, certs, _tab = _borel_values(env, A)
    struct = _structure(env, A, values, certs)
    values["g_plus_order"] = struct.g_plus.order()
    values["halves"] = sorted(len(h) for h in struct.halves)
    values["n_order"] = struct.two_orbit.order()
    values["nh_order"] = _nh_order(A, struct.two_orbit)
    return values, certs


def _expected_pgl2_127_biquasi():
    return (
        Expectation("degree", 768, "index (p^2-1)/s with the stabilizer "
                    "C127:C21 taken inside PGL(2,127)"),
        Expectation("order", 2048256, "order of PGL(2,127)"),
        Expectation("stabilizer_order", 2667, "order of C127:C21"),
        Expectation("subdegrees", [1] * 6 + [127] * 6,
                    "subdegree pattern {1^((p-1)/s), p^((p-1)/s)} for "
                    "PGL(2,p) on the cosets of C_p:C_s at p=127, s=21"),
        Expectation("fixed_points_of_stabilizer", 6,
                    "|N_G(H):H| = (p-1)/s = 6 in PGL(2,127)"),
        Expectation("two_prime_elusive", True,
                    "classification row: biquasiprimitive PGL(2,p) with "
                    "stabilizer C_p:C_s for Mersenne p is 2'-elusive"),
        Expectation("odd_primes_checked", [3], "derived: 768 = 2^8 * 3"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("connectivity_methods_agree", True,
                    "graph search and stabilizer-generation agree on every "
                    "self-paired prime suborbit"),
        Expectation("structure", "biquasiprimitive",
                    "PSL(2,127) has two orbits of 384 and every other "
                    "nontrivial normal subgroup is transitive"),
        Expectation("g_plus_order", 1024128,
                    "the half-preserving subgroup is PSL(2,127)"),
        Expectation("halves", [384, 384],
                    "PSL(2,127) splits the 768 points into two halves"),
        Expectation("n_order", 1024128, "the two-orbit closure is "
                    "PSL(2,127)"),
        Expectation("nh_order", 1024128,
                    "product identity: H = C127:C21 lies inside "
                    "N = PSL(2,127), so NH = N"),
    )


def _build_double_cover(env: ScenarioEnv):
    scn = env.scn127()
    actions = {"a_half": env.a384(), "a_full": env.a768(),
               "line": env.line127()}
    rep = verify_double_cover_scenario(scn, budgets=env.budgets,
                                       actions=actions)
    values = {
        "ok": rep.ok,
        "p": rep.p,
        "s": rep.s,
        "sigma_vertices": rep.sigma.n,
        "gamma_vertices": rep.gamma.n,
        "edge_count": rep.edge_count,
        "sigma_connected": is_connected(rep.sigma),
        "gamma_connected": is_connected(rep.gamma),
        "cover_connected": is_connected(standard_double_cover(rep.sigma)),
    }
    try:
        verify_double_cover_scenario(mersenne_scenario(127, 63),
                                     budgets=env.budgets, actions=actions)
        values["s63_rejected"] = False
    except ValueError:
        values["s63_rejected"] = True
    try:
        mersenne_scenario(127, 42)
        values["s42_rejected"] = False
    except ValueError:
        values["s42_rejected"] = True
    certs = {"psi_head": list(rep.psi[:16]),
             "base_arc": list(rep.gamma.base_arc)}
    return values, certs


def _expected_double_cover():
    fact = ("the valency-127 graph on (p^2-1)/s = 768 points is the "
            "standard double cover of the one on (p^2-1)/2s = 384 points")
    return (
        Expectation("ok", True, fact),
        Expectation("p", 127, "Mersenne prime 2^7 - 1"),
        Expectation("s", 21, "radical of (p-1)/2 = 63"),
        Expectation("sigma_vertices", 384, "(p^2-1)/2s"),
        Expectation("gamma_vertices", 768, "(p^2-1)/s"),
        Expectation("edge_count", 48768,
                    "derived: 768 vertices of valency 127 give "
                    "768*127/2 edges"),
        Expectation("sigma_connected", True,
                    "the PSL orbital graph at these parameters is "
                    "connected"),
        Expectation("gamma_connected", True,
                    "the double cover of a connected non-bipartite graph "
                    "is connected"),
        Expectation("s63_rejected", True,
                    "at s = (p-1)/2 the PGL coset space has the same size "
                    "as the PSL one; no double cover arises"),
        Expectation("s42_rejected", True,
                    "derived: 42 does not divide (p-1)/2 = 63, so the "
                    "parameter set is invalid"),
    )


def _build_m11_wr2_product(env: ScenarioEnv):
    spec, W = env.wreath144()
    values: dict = {"degree": W.degree, "order": W.order()}
    certs: dict = {}
    rep = is_elusive(W, budgets=env.budgets)
    values["elusive"] = bool(rep)
    values["methods"] = _methods(rep)
    values["primes_checked"] = sorted(v.prime for v in rep.verdicts)
    certs["elusive"] = rep.to_dict()
    # structural checker vs direct fixed-point evaluation on seeded elements
    rng = np.random.default_rng(env.seed + 144)
    L = spec.base_action.group
    top_gen = env.top2().generators[0]
    agreements = 0
    trials = 500
    for _ in range(trials):
        base = [L.random_element(rng) for _ in range(2)]
        top = top_gen if rng.integers(2) else Permutation.identity(2)
        w = spec.element(base, top)
        direct = w.to_permutation().num_fixed() > 0
        if wreath_fixed_point_check(spec, w) == direct:
            agreements += 1
    values["structural_agreement"] = agreements
    tab = suborbits(W, 0)
    values["subdegrees"] = list(tab.multiset())
    values["prime_subdegrees"] = [l for _, l in tab.prime_entries()]
    _structure(env, W, values, certs)
    socle = W.declared_socle
    mn = verify_minimal_normal(W, socle.subgroup, budgets=env.budgets,
                               seed=env.seed)
    values["socle_minimal"] = mn.minimal
    values["socle_unique"] = mn.unique
    stab12 = spec.base_action.group.point_stabilizer(0)
    H = assemble_stabilizer(spec, [stab12, stab12], env.top2())
    values["assembled_stabilizer_index"] = W.order() // H.order()
    return values, certs


def _expected_m11_wr2_product():
    return (
        Expectation("degree", 144, "12^2 points of the coordinate-pair "
                    "action"),
        Expectation("order", 125452800, "|M11|^2 * 2"),
        Expectation("elusive", True,
                    "an elusive group stays elusive in the coordinate-pair "
                    "action of its square: M11 wr C2 on 144 points"),
        Expectation("methods", ["wreath-structural"],
                    "derived: the verdict comes from the wreath "
                    "decomposition, not from enumerating 1.25*10^8 "
                    "elements"),
        Expectation("primes_checked", [2, 3],
                    "derived: 144 = 2^4 * 3^2"),
        Expectation("structural_agreement", 500,
                    "derived: structural fixed-point criterion agrees with "
                    "direct evaluation on 500 seeded random elements"),
        Expectation("subdegrees", [1, 22, 121],
                    "derived: stabilizer orbits of sizes 2*11 and 11^2"),
        Expectation("prime_subdegrees", [],
                    "coordinate-pair actions of wreath products on more "
                    "than one block admit no prime subdegree"),
        Expectation("structure", "primitive",
                    "the coordinate-pair action of M11 wr C2 over a "
                    "primitive non-regular component is primitive"),
        Expectation("socle_minimal", True,
                    "M11 x M11 is the unique minimal normal subgroup of "
                    "M11 wr C2"),
        Expectation("socle_unique", True,
                    "M11 x M11 is the unique minimal normal subgroup of "
                    "M11 wr C2"),
        Expectation("assembled_stabilizer_index", 144,
                    "derived: |M11 wr C2| / |(PSL(2,11) x PSL(2,11)):C2| "
                    "= 125452800/871200"),
    )


def _build_m11_wr2_biquasi(env: ScenarioEnv):
    m11n = env.m11_action()
    top2 = env.top2()
    spec22 = WreathSpec(m11n, 2, top2, "imprimitive")
    W22 = env.get("w22", lambda: wreath(spec22, budgets=env.budgets,
                                        declare_socle=True))
    psl11 = env.psl211()
    trivial_top = PermGroup([], degree=2)
    H = assemble_stabilizer(spec22, [psl11, m11n.group], trivial_top)
    A = coset_action(W22, H, budgets=env.budgets,
                     provenance="M11 wr C2 on the cosets of "
                                "PSL(2,11) x M11")
    N24 = PermGroup([A.parent.push(g)
                     for g in W22.declared_socle.subgroup.generators],
                    degree=A.degree)

    values: dict = {"degree": A.degree, "order": A.group.order(),
                    "faithful": A.faithful,
                    "stabilizer_order": H.order()}
    certs: dict = {}
    rep = _two_prime(env, A, values, certs)
    values["methods"] = _methods(rep)
    values["exact"] = rep.exact
    struct = _structure(env, A, values, certs)
    values["g_plus_order"] = struct.g_plus.order()
    values["halves"] = sorted(len(h) for h in struct.halves)
    values["nh_order"] = _nh_order(A, N24)
    mn = verify_minimal_normal(A, N24, budgets=env.budgets, seed=env.seed)
    values["socle_minimal"] = mn.minimal
    values["socle_unique"] = mn.unique
    return values, certs


def _expected_m11_wr2_biquasi():
    row = ("classification row: M11 wr C2 acting with point stabilizer "
           "PSL(2,11) x M11 on 24 points, biquasiprimitive")
    return (
        Expectation("degree", 24, "index of PSL(2,11) x M11 in M11 wr C2 "
                    "is 125452800/5227200"),
        Expectation("order", 125452800, "|M11|^2 * 2"),
        Expectation("faithful", True,
                    "derived: no nontrivial normal subgroup of M11 wr C2 "
                    "lies inside PSL(2,11) x M11"),
        Expectation("stabilizer_order", 5227200, "660 * 7920"),
        Expectation("two_prime_elusive", True, row),
        Expectation("methods", ["class-coverage"],
                    "derived: class data comes from the wreath "
                    "decomposition of the degree-22 parent, pushed through "
                    "the coset table"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("structure", "biquasiprimitive", row),
        Expectation("g_plus_order", 62726400,
                    "the half-preserving subgroup is the base group "
                    "M11 x M11"),
        Expectation("halves", [12, 12],
                    "M11 x M11 has two orbits of 12 on the 24 cosets"),
        Expectation("nh_order", 62726400,
                    "product identity: H = PSL(2,11) x M11 lies inside "
                    "N = M11 x M11, so NH = N"),
        Expectation("socle_minimal", True,
                    "M11 x M11 is minimal normal: the factors are "
                    "interchanged, so closures of its elements fill it"),
        Expectation("socle_unique", True,
                    "derived: no prime-order class outside the socle "
                    "generates a closure meeting it trivially"),
    )


def _wr2_builder(flavor: str):
    """Builder for PSL(2,127) wr C2 over the 384-point component."""
    def build(env: ScenarioEnv):
        spec = WreathSpec(env.a384(), 2, env.top2(), flavor)
        W = wreath(spec, budgets=env.budgets, declare_socle=False)
        # No stabilizer chain at the product degree 147456: the order is
        # spec arithmetic, which wreath() checks wherever it can chain.
        values: dict = {"degree": W.degree, "order": spec.order()}
        if flavor == "product":
            values["degree_factorization"] = _factor_str(W.degree)
        certs: dict = {}
        rep = _two_prime(env, W, values, certs)
        values["methods"] = _methods(rep)
        values["odd_primes_checked"] = [v.prime for v in rep.verdicts]
        values["exact"] = rep.exact
        v3 = structural_wreath_elusivity(spec, 3, budgets=env.budgets)
        values["r3_status"] = v3.status
        certs["r3"] = v3.to_dict()
        return values, certs
    return build


def _expected_wr2_qp():
    return (
        Expectation("degree", 147456, "384^2 coordinate pairs"),
        Expectation("order", 1024128 ** 2 * 2, "|PSL(2,127)|^2 * 2"),
        Expectation("degree_factorization", "2^14 * 3^2",
                    "derived: (2^7*3)^2"),
        Expectation("two_prime_elusive", True,
                    "quasiprimitive coordinate-pair example: "
                    "PSL(2,127) wr C2 over the 384-point component is "
                    "2'-elusive"),
        Expectation("methods", ["wreath-structural"],
                    "derived: decided by the wreath decomposition; no "
                    "stabilizer chain is built at degree 147456"),
        Expectation("odd_primes_checked", [3],
                    "derived: 147456 = 2^14 * 3^2"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("r3_status", "Elusive",
                    "order-3 elements have fixed points in every "
                    "coordinate, and the 384-point component is 3-elusive"),
    )


def _expected_wr2_bq():
    return (
        Expectation("degree", 768, "2 * 384 points of the block action"),
        Expectation("order", 1024128 ** 2 * 2, "|PSL(2,127)|^2 * 2"),
        Expectation("two_prime_elusive", True,
                    "biquasiprimitive block example: PSL(2,127) wr C2 "
                    "acting on two copies of the 384-point component is "
                    "2'-elusive"),
        Expectation("methods", ["wreath-structural"],
                    "derived: decided by the wreath decomposition"),
        Expectation("odd_primes_checked", [3], "derived: 768 = 2^8 * 3"),
        Expectation("exact", True, "derived: exact certificate"),
        Expectation("r3_status", "Elusive",
                    "the component is 3-elusive on its block and the top "
                    "group C2 has no order-3 element"),
    )


def _build_wr4_c4(env: ScenarioEnv):
    base = env.a384()
    c4 = PermGroup([Permutation(np.array([1, 2, 3, 0]))])
    spec = WreathSpec(base, 4, c4, "product")
    L = base.group
    stab = L.point_stabilizer(0)
    values: dict = {}
    certs: dict = {}
    w_order = spec.order()
    h_order = stab.order() ** 4
    n_order = L.order() ** 4
    if w_order % h_order or n_order % h_order:
        raise CertificateError("stabilizer order does not divide the group order")
    values["group_order"] = w_order
    values["stabilizer_order"] = h_order
    values["degree"] = w_order // h_order
    values["degree_factorization"] = _factor_str(values["degree"])
    values["odd_prime_divisors"] = sorted(
        p for p in prime_divisors(values["degree"]) if p != 2)
    # The stabilizer lies inside the base group N = L^4 (componentwise),
    # so the socle orbit count on the coset space is |G : NH| = |G : N|.
    values["stabilizer_inside_socle"] = all(
        L.contains(g) for g in stab.generators)
    values["socle_orbit_count"] = w_order // n_order
    values["biquasiprimitive"] = values["socle_orbit_count"] <= 2
    values["quasiprimitive"] = values["socle_orbit_count"] == 1
    # Order-3 elements lie in the base (C4 has none), and each socle orbit
    # is a copy of the coordinate-4-tuple action, where the structural
    # criterion applies: every coordinate must have a fixed point.
    v3 = structural_wreath_elusivity(spec, 3, budgets=env.budgets)
    values["r3_status"] = v3.status
    values["r3_method"] = v3.method
    values["top_has_order_3"] = any(
        g.order() % 3 == 0 for g in c4.generators)
    certs["r3"] = v3.to_dict()
    return values, certs


def _expected_wr4_c4():
    fact = ("counterexample pattern: PSL(2,127) wr C4 on the cosets of "
            "(C127:C21)^4 is 2'-elusive but not biquasiprimitive")
    return (
        Expectation("group_order", 1024128 ** 4 * 4, "|PSL(2,127)|^4 * 4"),
        Expectation("stabilizer_order", 2667 ** 4, "|C127:C21|^4"),
        Expectation("degree", 4 * 384 ** 4,
                    "derived: index arithmetic |G|/|H|"),
        Expectation("degree_factorization", "2^30 * 3^4",
                    "derived: 4 * (2^7*3)^4"),
        Expectation("odd_prime_divisors", [3],
                    "derived: the only odd prime dividing the degree is 3"),
        Expectation("stabilizer_inside_socle", True,
                    "derived: C127:C21 lies in PSL(2,127) coordinatewise"),
        Expectation("socle_orbit_count", 4,
                    "derived: H <= N forces NH = N, so the socle has "
                    "|G:N| = |C4| = 4 orbits"),
        Expectation("biquasiprimitive", False, fact),
        Expectation("quasiprimitive", False,
                    "derived: a nontrivial normal subgroup with four "
                    "orbits is intransitive"),
        Expectation("r3_status", "Elusive", fact),
        Expectation("r3_method", "wreath-structural",
                    "derived: order-3 elements lie in the base group and "
                    "each socle orbit carries the coordinate-tuple action, "
                    "so the structural criterion decides"),
        Expectation("top_has_order_3", False,
                    "derived: C4 has no element of order 3"),
    )


TF42_FILENAME = "tf42-degree1755.gens"


def _build_tf42(env: ScenarioEnv):
    if env.optional_data is None:
        raise ScenarioSkipped("optional data missing: pass --optional-data "
                              f"with a directory containing {TF42_FILENAME}")
    path = os.path.join(env.optional_data, TF42_FILENAME)
    if not os.path.exists(path):
        raise ScenarioSkipped(f"optional data missing: {path}")
    G = load_generators(path)
    if G.degree != 1755:
        raise ValueError(f"expected degree 1755, file has {G.degree}")
    values: dict = {"input_order": G.order()}
    certs: dict = {}
    H = subgroup_search(G, 7800, element_orders={1, 2, 3, 4, 5, 6, 12, 13},
                        require_simple=True, seed=env.seed,
                        attempts=3000, budgets=env.budgets)
    if H is None:
        raise ValueError("no PSL(2,25) subgroup found within the attempt "
                         "budget")
    values["psl225_order"] = H.order()
    A = coset_action(natural_action(G, "degree-1755 input"), H,
                     budgets=env.budgets)
    values["degree"] = A.degree
    tab = suborbits(A, 0)
    values["subdegrees"] = list(tab.multiset())
    rep = _two_prime(env, A, values, certs)
    values["methods"] = _methods(rep)
    return values, certs


def _expected_tf42():
    return (
        Expectation("input_order", 17971200, "order of the Tits group"),
        Expectation("psl225_order", 7800, "order of PSL(2,25)"),
        Expectation("degree", 2304, "index 17971200/7800"),
        Expectation("subdegrees", [1, 78, 300, 300, 325, 325, 975],
                    "subdegree multiset {1, 78, 300^2, 325^2, 975} of the "
                    "Tits group on the cosets of PSL(2,25)"),
        Expectation("two_prime_elusive", True,
                    "classification row: the Tits group with point "
                    "stabilizer PSL(2,25) is 2'-elusive"),
        Expectation("methods", ["backtrack"],
                    "derived: the group order 17971200 exceeds the "
                    "enumeration budget; the derangement search over the "
                    "elements of a subgroup holding a Sylow r-subgroup is "
                    "exact"),
    )


SCENARIOS: Dict[str, Scenario] = {}


def _register(s: Scenario):
    if s.id in SCENARIOS:
        raise ValueError(f"duplicate scenario {s.id}")
    SCENARIOS[s.id] = s


_register(Scenario("m11-psl211", ("table", "structure", "graph"),
                   _build_m11_psl211, _expected_m11_psl211()))
_register(Scenario("m10-a5", ("table", "structure", "graph"),
                   _build_m10_a5, _expected_m10_a5()))
_register(Scenario("auta6-a5", ("table", "structure"),
                   _build_auta6_a5, _expected_auta6_a5()))
_register(Scenario("auta6-s5", ("table", "structure"),
                   _build_auta6_s5, _expected_auta6_s5()))
_register(Scenario("psl2-7-notapplicable", ("guard",),
                   _build_psl2_7, _expected_psl2_7()))
_register(Scenario("psl2-31-negative", ("guard",),
                   _build_psl2_31, _expected_psl2_31()))
_register(Scenario("psl2-127-borel21", ("table", "structure", "graph"),
                   _build_psl2_127_borel21, _expected_psl2_127_borel21()))
_register(Scenario("pgl2-127-borel42", ("table", "graph"),
                   _build_pgl2_127_borel42, _expected_pgl2_127_borel42()))
_register(Scenario("pgl2-127-borel21-biquasi",
                   ("table", "structure", "graph"),
                   _build_pgl2_127_biquasi, _expected_pgl2_127_biquasi()))
_register(Scenario("pgl2-127-double-cover", ("graph", "cover"),
                   _build_double_cover, _expected_double_cover()))
_register(Scenario("m11-wr2-product", ("wreath", "structure", "graph"),
                   _build_m11_wr2_product, _expected_m11_wr2_product()))
_register(Scenario("m11-wr2-biquasi-24", ("wreath", "structure"),
                   _build_m11_wr2_biquasi, _expected_m11_wr2_biquasi()))
_register(Scenario("psl2-127-wr2-qp", ("wreath",),
                   _wr2_builder("product"), _expected_wr2_qp()))
_register(Scenario("psl2-127-wr2-bq", ("wreath",),
                   _wr2_builder("imprimitive"), _expected_wr2_bq()))
_register(Scenario("psl2-127-wr4-c4-counterexample", ("wreath", "structure"),
                   _build_wr4_c4, _expected_wr4_c4()))
_register(Scenario("tf42-table", ("table", "optional"),
                   _build_tf42, _expected_tf42()))


def _plain(value):
    """Normalize to JSON-friendly data for comparison and serialization."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def run_scenario(scenario_id: str,
                 env: Optional[ScenarioEnv] = None) -> RunReport:
    if scenario_id not in SCENARIOS:
        raise KeyError(f"unknown scenario id: {scenario_id}")
    env = env or ScenarioEnv()
    scenario = SCENARIOS[scenario_id]
    report = RunReport(scenario_id=scenario_id, passed=True)
    start = time.perf_counter()
    try:
        values, certs = scenario.builder(env)
    except ScenarioSkipped as e:
        report.skipped = True
        report.skip_reason = str(e)
        report.wall_time = 0.0 if env.determinism else \
            time.perf_counter() - start
        return report
    except Exception as e:  # noqa: BLE001 - surfaced, not hidden
        report.passed = False
        report.error = f"{type(e).__name__}: {e}"
        report.wall_time = 0.0 if env.determinism else \
            time.perf_counter() - start
        return report
    values = _plain(values)
    for exp in scenario.expected:
        computed = values.get(exp.key)
        ok = computed == _plain(exp.value)
        if not ok:
            report.passed = False
        report.expectations.append({
            "key": exp.key,
            "expected": _plain(exp.value),
            "computed": computed,
            "passed": ok,
            "citation": exp.citation,
        })
    extra = {k: v for k, v in values.items()
             if k not in {e.key for e in scenario.expected}}
    if extra:
        report.certificates["additional_values"] = extra
    report.certificates.update(_plain(certs))
    report.wall_time = 0.0 if env.determinism else time.perf_counter() - start
    return report


def run_all(tag: Optional[str] = None,
            env: Optional[ScenarioEnv] = None) -> List[RunReport]:
    env = env or ScenarioEnv()
    reports = []
    for sid in sorted(SCENARIOS):
        scenario = SCENARIOS[sid]
        if tag is not None and tag not in scenario.tags:
            continue
        reports.append(run_scenario(sid, env))
    return reports


def reports_to_json(reports: List[RunReport], env: ScenarioEnv) -> dict:
    return {
        "version": __version__,
        "seed": env.seed,
        "budgets": dataclasses.asdict(env.budgets),
        "scenarios": [r.to_dict() for r in
                      sorted(reports, key=lambda r: r.scenario_id)],
    }


def format_table(reports: List[RunReport]) -> str:
    lines = []
    for r in sorted(reports, key=lambda r: r.scenario_id):
        if r.skipped:
            lines.append(f"SKIP {r.scenario_id} ({r.skip_reason})")
            continue
        if r.error:
            lines.append(f"FAIL {r.scenario_id} [error] {r.error}")
            continue
        n = len(r.expectations)
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.scenario_id} ({n} expectations, "
                     f"{r.wall_time:.1f}s)")
        if not r.passed:
            for e in r.expectations:
                if not e["passed"]:
                    lines.append(f"     {e['key']}: expected "
                                 f"{e['expected']!r}, computed "
                                 f"{e['computed']!r}")
    return "\n".join(lines)


def all_passed(reports: List[RunReport]) -> bool:
    return all(r.passed or r.skipped for r in reports)
