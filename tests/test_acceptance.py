"""Acceptance gate: one verdict line per primary criterion.

Each test reproduces one headline fact end-to-end and appends a
`[PRIMARY] criterion N: PASS/FAIL` line to RESULT_LINES; the conftest
terminal hook prints the collected lines after the run.  Scenario runs are
cached at module level so overlapping criteria do not recompute them.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from derangements import (Permutation, block_divisibility_check,
                          connectivity_by_generation, derangement_backtrack,
                          is_connected, orbital_graph, paired_suborbit,
                          prime_order_class_reps, suborbits)
from derangements.harness import (TF42_FILENAME, ScenarioEnv, format_table,
                                  run_scenario)
from derangements.numbers import factorize, is_prime, prime_divisors

RESULT_LINES = []
_reports = {}


def scenario(sid, env):
    if sid not in _reports:
        _reports[sid] = run_scenario(sid, env)
    return _reports[sid]


def row(report, key):
    for e in report.expectations:
        if e["key"] == key:
            return e["computed"]
    raise KeyError(key)


@contextlib.contextmanager
def criterion(n, target=None):
    """Record one verdict line; runtime targets are printed, not asserted,
    so a slow machine cannot flip a correct verdict."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULT_LINES.append(f"[PRIMARY] criterion {n}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    note = f"{elapsed:.1f}s"
    if target is not None:
        note += (f", target <{target:g}s" if elapsed < target
                 else f", EXCEEDS the {target:g}s target")
    RESULT_LINES.append(f"[PRIMARY] criterion {n}: PASS ({note})")


def test_criterion_1_table_rows(env):
    with criterion(1, target=60):
        ids = ["m11-psl211", "m10-a5", "auta6-a5", "auta6-s5",
               "psl2-127-borel21", "pgl2-127-borel42",
               "pgl2-127-borel21-biquasi"]
        reports = {sid: scenario(sid, env) for sid in ids}
        for sid, r in reports.items():
            assert r.passed, format_table([r])
        m11 = reports["m11-psl211"]
        assert row(m11, "degree") == 12
        assert row(m11, "subdegrees") == [1, 11]
        assert row(m11, "elusive") is True
        assert row(m11, "methods") == ["exhaustive-enumeration"]
        assert row(m11, "exact") is True
        for sid, deg, subs in [("m10-a5", 12, [1, 5, 6]),
                               ("auta6-s5", 12, [1, 5, 6]),
                               ("auta6-a5", 24, [1, 1, 5, 5, 6, 6])]:
            r = reports[sid]
            assert row(r, "degree") == deg
            assert row(r, "subdegrees") == subs
            assert row(r, "two_prime_elusive") is True
        for sid, deg, k in [("psl2-127-borel21", 384, 3),
                            ("pgl2-127-borel42", 384, 3),
                            ("pgl2-127-borel21-biquasi", 768, 6)]:
            r = reports[sid]
            assert row(r, "degree") == deg
            assert row(r, "subdegrees") == [1] * k + [127] * k
            assert row(r, "two_prime_elusive") is True
        assert row(reports["psl2-127-borel21"], "odd_primes_checked") == [3]


def test_criterion_2_class_fusion(env):
    line9 = env.line9()  # construction cost is not part of the fusion check
    with criterion(2, target=1):
        a6 = line9.subgroups["PSL"]
        assert len(prime_order_class_reps(a6, 3)) == 2
        for name in ("M10", "PGL"):
            over = line9.subgroups[name]
            assert len(prime_order_class_reps(over, 3)) == 1
        assert len(prime_order_class_reps(line9.group, 3)) == 1


def test_criterion_3_structure_verdicts(env):
    with criterion(3, target=300):
        assert row(scenario("m11-psl211", env), "structure") == "primitive"
        b21 = scenario("psl2-127-borel21", env)
        assert row(b21, "structure") == "quasiprimitive"
        assert row(b21, "has_nontrivial_blocks") is True
        for sid in ("m10-a5", "m11-wr2-biquasi-24",
                    "pgl2-127-borel21-biquasi"):
            r = scenario(sid, env)
            assert r.passed, format_table([r])
            assert row(r, "structure") == "biquasiprimitive"
            # half-preserving subgroup realizes the product identity
            assert row(r, "g_plus_order") == row(r, "nh_order")
        wr4 = scenario("psl2-127-wr4-c4-counterexample", env)
        assert wr4.passed, format_table([wr4])
        assert row(wr4, "r3_status") == "Elusive"
        assert row(wr4, "biquasiprimitive") is False
        assert row(wr4, "quasiprimitive") is False


def _components(graph):
    seen = [False] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for v in graph.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def test_criterion_4_graph_layer(env, corpus):
    with criterion(4):
        A12 = env.m11_on_12()
        beta = [r for r, l in suborbits(A12, 0).entries if l == 11][0]
        k12 = orbital_graph(A12, 0, beta)
        assert k12.is_complete() and k12.n == 12
        assert is_connected(k12)
        assert connectivity_by_generation(A12, 0, beta)

        M10 = env.m10_on_12()
        b5 = [r for r, l in suborbits(M10, 0).entries if l == 5][0]
        g5 = orbital_graph(M10, 0, b5)
        assert not is_connected(g5)
        assert not connectivity_by_generation(M10, 0, b5)
        comps = _components(g5)
        assert [len(c) for c in comps] == [6, 6]
        for comp in comps:  # each component is a complete graph K6
            for u in comp:
                assert set(g5.adj[u]) == set(comp) - {u}

        # search and generation agree on every self-paired prime-length
        # suborbit in the corpus
        checked = 0
        for name, A in corpus:
            stab = A.group.point_stabilizer(0)
            for rep, length in suborbits(A, 0).entries:
                if rep == 0 or not is_prime(length):
                    continue
                if paired_suborbit(A, 0, rep) not in stab.orbit(rep):
                    continue
                graph = orbital_graph(A, 0, rep)
                assert is_connected(graph) == \
                    connectivity_by_generation(A, 0, rep), (name, rep)
                checked += 1
        assert checked >= 10

        # the block-divisibility constraint holds for every
        # (block system, suborbit) pair in the corpus
        combos = 0
        for name, A in corpus:
            systems = {}
            for beta2 in range(1, A.degree):
                bs = A.group.minimal_block_system(0, beta2)
                if bs is not None:
                    systems[tuple(map(tuple, bs.cells))] = bs
            entries = suborbits(A, 0).entries
            for bs in systems.values():
                for rep, _length in entries:
                    if rep == 0:
                        continue
                    assert block_divisibility_check(A, bs, 0, rep), \
                        (name, rep)
                    combos += 1
        assert combos >= 10


def test_criterion_5_double_cover(env):
    with criterion(5, target=300):
        r = scenario("pgl2-127-double-cover", env)
        assert r.passed, format_table([r])
        assert row(r, "ok") is True
        assert row(r, "sigma_vertices") == 384
        assert row(r, "gamma_vertices") == 768
        assert row(r, "edge_count") == 48768


def test_criterion_6_wreath_closure(env):
    with criterion(6, target=120):
        r = scenario("m11-wr2-product", env)
        assert r.passed, format_table([r])
        assert row(r, "elusive") is True
        assert row(r, "methods") == ["wreath-structural"]
        assert row(r, "structural_agreement") == 500
        for sid in ("psl2-127-wr2-qp", "psl2-127-wr2-bq"):
            rr = scenario(sid, env)
            assert rr.passed, format_table([rr])
            assert row(rr, "two_prime_elusive") is True
            assert row(rr, "methods") == ["wreath-structural"]


def _naive_closure_size(G):
    closure = {Permutation.identity(G.degree).key()}
    frontier = [Permutation.identity(G.degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in G.generators:
                y = x * g
                if y.key() not in closure:
                    closure.add(y.key())
                    nxt.append(y)
        frontier = nxt
    return len(closure)


def test_criterion_7_oracle_equivalence(corpus):
    with criterion(7, target=600):
        for name, A in corpus:
            G = A.group
            order = G.order()
            rows = np.vstack(list(G.element_batches()))
            assert rows.shape == (order, A.degree), name
            fixed = (rows == np.arange(A.degree)).sum(axis=1)
            orders = np.array([Permutation(r.copy()).order() for r in rows])

            # (c) orbit-counting lemma, exhaustively: one orbit means the
            # fixed points average to exactly 1 over the group
            assert int(fixed.sum()) == order, name

            # (d) a transitive group of degree >= 2 has a derangement
            if A.degree >= 2:
                assert bool((fixed == 0).any()), name

            # (a) backtrack search agrees with exhaustive enumeration at
            # every prime dividing the order
            for r in prime_divisors(order):
                exists = bool(((orders == r) & (fixed == 0)).any())
                witness = derangement_backtrack(G, r)
                assert (witness is not None) == exists, (name, r)
                if witness is not None:
                    assert witness.order() == r
                    assert witness.num_fixed() == 0

            # (e) some derangement of prime-power order exists
            if A.degree >= 2:
                pp = [int(o) for o, f in zip(orders, fixed)
                      if f == 0 and len(factorize(int(o))) == 1]
                assert pp, name

            # (b) stabilizer-chain order equals the naive closure size
            if order <= 5000:
                assert _naive_closure_size(G) == order, name


def test_criterion_8_guards(env):
    with criterion(8):
        r7 = scenario("psl2-7-notapplicable", env)
        assert r7.passed, format_table([r7])
        assert row(r7, "status") == "NotApplicable"
        assert row(r7, "degree_factorization") == "2^3"
        assert row(r7, "r5_status") == "NotApplicable"
        r31 = scenario("psl2-31-negative", env)
        assert r31.passed, format_table([r31])
        assert row(r31, "r3_status") == "NotElusive"
        assert row(r31, "witness_order") == 3
        assert row(r31, "witness_is_derangement") is True


def test_criterion_9_optional_degree_2304_row(env):
    data_dir = env.optional_data or os.environ.get(
        "DERANGEMENTS_OPTIONAL_DATA")
    path = data_dir and os.path.join(data_dir, TF42_FILENAME)
    if not (path and os.path.exists(path)):
        RESULT_LINES.append(
            "[PRIMARY] criterion 9: SKIP (optional degree-1755 generator "
            "file not supplied; not required for the default pass)")
        pytest.skip("optional scenario input absent")
    with criterion(9):
        env9 = ScenarioEnv(budgets=env.budgets, seed=env.seed,
                           optional_data=data_dir)
        r = run_scenario("tf42-table", env9)
        assert r.passed and not r.skipped, format_table([r])
        assert row(r, "degree") == 2304
        assert row(r, "subdegrees") == [1, 78, 300, 300, 325, 325, 975]
        assert row(r, "two_prime_elusive") is True
