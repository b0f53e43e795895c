"""Registry integrity and runner behavior of the verification harness.

The heavy scenarios are exercised end-to-end by the acceptance suite; here
the focus is the machinery itself: citation enforcement, skip/error paths,
report serialization, and determinism mode.
"""

import json
import re

import pytest

from derangements import __version__
from derangements.harness import (SCENARIOS, Expectation, RunReport, Scenario,
                                  ScenarioEnv, all_passed, format_table,
                                  reports_to_json, run_all, run_scenario)

EXPECTED_IDS = {
    "m11-psl211", "m10-a5", "auta6-a5", "auta6-s5",
    "psl2-7-notapplicable", "psl2-31-negative",
    "psl2-127-borel21", "pgl2-127-borel42", "pgl2-127-borel21-biquasi",
    "pgl2-127-double-cover",
    "m11-wr2-product", "m11-wr2-biquasi-24",
    "psl2-127-wr2-qp", "psl2-127-wr2-bq",
    "psl2-127-wr4-c4-counterexample",
    "tf42-table",
}


def test_registry_contents():
    assert set(SCENARIOS) == EXPECTED_IDS
    for sid, s in SCENARIOS.items():
        assert s.id == sid
        assert s.tags, sid
        assert s.expected, sid
        for e in s.expected:
            assert e.citation.strip(), (sid, e.key)
    optional = [sid for sid, s in SCENARIOS.items() if "optional" in s.tags]
    assert optional == ["tf42-table"]


def test_expectation_requires_citation():
    with pytest.raises(ValueError):
        Expectation("degree", 12, "")
    with pytest.raises(ValueError):
        Expectation("degree", 12, "   ")
    with pytest.raises(TypeError):
        Scenario("bad", ("t",), lambda env: ({}, {}),
                 (("degree", 12, "tuple, not a record"),))


def test_run_scenario_unknown_id():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario")


@pytest.mark.parametrize("sid", [
    "psl2-7-notapplicable",
    "psl2-31-negative",
    "m11-psl211",
    "m10-a5",
    "auta6-a5",
    "auta6-s5",
])
def test_fast_scenarios_pass(env, sid):
    r = run_scenario(sid, env)
    assert r.passed and not r.skipped and r.error is None
    assert r.expectations
    assert all(e["passed"] for e in r.expectations)
    for e in r.expectations:
        assert e["computed"] == e["expected"]


def test_tf42_skips_without_optional_data(env):
    assert env.optional_data is None
    r = run_scenario("tf42-table", env)
    assert r.skipped
    assert "tf42-degree1755.gens" in r.skip_reason
    assert r.error is None
    assert all_passed([r])
    assert format_table([r]).startswith("SKIP tf42-table")


def test_run_all_with_tag(env):
    reports = run_all(tag="guard", env=env)
    assert [r.scenario_id for r in reports] == \
        ["psl2-31-negative", "psl2-7-notapplicable"]
    assert all_passed(reports)


def test_report_json_schema(env):
    reports = run_all(tag="guard", env=env)
    doc = reports_to_json(reports, env)
    assert set(doc) == {"version", "seed", "budgets", "scenarios"}
    assert doc["version"] == __version__
    assert doc["seed"] == env.seed
    assert set(doc["budgets"]) == {"exhaustive", "degree"}
    ids = [s["scenario"] for s in doc["scenarios"]]
    assert ids == sorted(ids)
    for s in doc["scenarios"]:
        assert set(s) == {"scenario", "passed", "skipped", "skip_reason",
                          "error", "expectations", "certificates",
                          "wall_time"}
    # fully JSON-serializable (no numpy scalars survive)
    assert json.loads(json.dumps(doc)) == doc


def test_failing_expectation_is_reported():
    sid = "synthetic-mismatch"
    SCENARIOS[sid] = Scenario(
        sid, ("synthetic",), lambda env: ({"x": 1}, {}),
        (Expectation("x", 2, "forced mismatch for runner test"),))
    try:
        r = run_scenario(sid)
        assert not r.passed and r.error is None
        (e,) = r.expectations
        assert e["computed"] == 1 and e["expected"] == 2 and not e["passed"]
        table = format_table([r])
        assert table.splitlines()[0].startswith("FAIL synthetic-mismatch")
        assert "expected 2, computed 1" in table
        assert not all_passed([r])
    finally:
        del SCENARIOS[sid]


def test_builder_error_is_surfaced():
    sid = "synthetic-error"

    def boom(env):
        raise RuntimeError("boom")

    SCENARIOS[sid] = Scenario(
        sid, ("synthetic",), boom,
        (Expectation("x", 1, "never reached"),))
    try:
        r = run_scenario(sid)
        assert not r.passed
        assert r.error == "RuntimeError: boom"
        assert format_table([r]) == \
            "FAIL synthetic-error [error] RuntimeError: boom"
    finally:
        del SCENARIOS[sid]


def test_extra_values_land_in_certificates():
    sid = "synthetic-extra"
    SCENARIOS[sid] = Scenario(
        sid, ("synthetic",),
        lambda env: ({"x": 1, "bonus": [1, 2]}, {"note": "kept"}),
        (Expectation("x", 1, "matched value for runner test"),))
    try:
        r = run_scenario(sid)
        assert r.passed
        assert r.certificates["additional_values"] == {"bonus": [1, 2]}
        assert r.certificates["note"] == "kept"
    finally:
        del SCENARIOS[sid]


def test_determinism_zeroes_wall_time_and_serializes_identically():
    env1 = ScenarioEnv(determinism=True)
    env2 = ScenarioEnv(determinism=True)
    r1 = run_all(tag="guard", env=env1)
    r2 = run_all(tag="guard", env=env2)
    assert all(r.wall_time == 0.0 for r in r1)
    assert json.dumps(reports_to_json(r1, env1), sort_keys=True) == \
        json.dumps(reports_to_json(r2, env2), sort_keys=True)


def test_format_table_shape(env):
    r = run_scenario("psl2-7-notapplicable", env)
    line = format_table([r])
    assert re.fullmatch(
        r"PASS psl2-7-notapplicable \(\d+ expectations, \d+\.\ds\)", line)
