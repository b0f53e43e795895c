"""Command-line interface: exit codes, output shapes, flag plumbing.

Everything goes through main(argv) in-process; one test exercises the
installed console script for real.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from derangements import BudgetExceeded
from derangements.config import MATERIALIZE
from derangements.cli import main
from derangements.harness import RunReport


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def c6_file(tmp_path):
    return write(tmp_path, "c6.gens", "degree 6\ngen (1 2 3 4 5 6)\n")


@pytest.fixture()
def s4_file(tmp_path):
    return write(tmp_path, "s4.gens",
                 "# symmetric group on 4 points\n"
                 "degree 4\ngen (1 2 3 4)\ngen (1 2)\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_single_scenario(capsys):
    assert main(["verify", "--scenario", "psl2-7-notapplicable"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS psl2-7-notapplicable")


def test_verify_determinism_zeroes_times(capsys):
    assert main(["verify", "--scenario", "psl2-7-notapplicable",
                 "--determinism"]) == 0
    assert "0.0s" in capsys.readouterr().out


def test_verify_unknown_scenario(capsys):
    assert main(["verify", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario id" in err
    assert "known ids:" in err


def test_verify_tag_filter(capsys):
    assert main(["verify", "--all", "--tag", "guard"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out] == \
        ["psl2-31-negative", "psl2-7-notapplicable"]


def test_verify_unknown_tag(capsys):
    assert main(["verify", "--all", "--tag", "galaxy"]) == 2
    assert "no scenarios tagged" in capsys.readouterr().err


def test_verify_requires_scenario_or_all():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# check


def test_check_natural_action(c6_file, capsys):
    assert main(["check", "--group", c6_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "degree 6, order 6" in out
    assert "subdegrees [1, 1, 1, 1, 1, 1]" in out
    # the square of the 6-cycle is an order-3 derangement
    assert "2'-elusive: False" in out
    assert "elusive: False" in out


def test_check_single_prime(c6_file, capsys):
    assert main(["check", "--group", c6_file, "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "r=3: NotElusive" in out
    assert "witness:" in out


def test_check_elusive_prime(tmp_path, capsys):
    s3 = write(tmp_path, "s3.gens", "degree 3\ngen (1 2 3)\ngen (1 2)\n")
    assert main(["check", "--group", s3, "--prime", "2"]) == 0
    assert "r=2: Elusive" in capsys.readouterr().out


def test_check_budget_flag_changes_method(c6_file, capsys):
    assert main(["check", "--group", c6_file, "--prime", "3",
                 "--budget-exhaustive", "2"]) == 0
    out = capsys.readouterr().out
    assert "[method backtrack]" in out
    assert "r=3: NotElusive" in out


def test_check_coset_action(s4_file, tmp_path, capsys):
    stab = write(tmp_path, "t.gens", "degree 4\ngen (1 2)\n")
    assert main(["check", "--group", s4_file, "--stab", stab]) == 0
    out = capsys.readouterr().out
    assert "degree 12, order 24" in out


def test_check_degree_one_is_not_elusive_vacuously(tmp_path, capsys):
    s5 = write(tmp_path, "s5.gens", "degree 5\ngen (1 2 3 4 5)\ngen (1 2)\n")
    assert main(["check", "--group", s5, "--stab", s5]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("degree 1,")
    assert out[-1] == ("elusive: NotApplicable "
                       "(elusivity needs a degree of at least 2)")


def test_check_intransitive_input(tmp_path, capsys):
    g = write(tmp_path, "fix.gens", "degree 4\ngen (1 2)\n")
    assert main(["check", "--group", g]) == 2
    assert "not transitive" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", "--group", str(tmp_path / "absent.gens")]) == 2
    assert "cannot read group file" in capsys.readouterr().err


def test_check_malformed_file(tmp_path, capsys):
    g = write(tmp_path, "bad.gens", "degree 4\ngen (1 2 99)\n")
    assert main(["check", "--group", g]) == 2
    assert "cannot read group file" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# a comment\n\n"])
def test_check_file_without_degree_line(tmp_path, text, capsys):
    g = write(tmp_path, "empty.gens", text)
    assert main(["check", "--group", g]) == 2
    err = capsys.readouterr().err
    assert "cannot read group file: missing degree line" in err
    assert "line 0" not in err


def test_check_file_not_utf8(tmp_path, capsys):
    g = tmp_path / "latin1.gens"
    g.write_bytes(b"degree 3\n# caf\xe9\ngen (1 2 3)\n")
    assert main(["check", "--group", str(g)]) == 2
    assert "cannot read group file: line 2: not UTF-8 text" in \
        capsys.readouterr().err


def test_check_degree_past_the_materialize_budget(tmp_path, capsys):
    # refused at the degree line, before any image array is allocated
    g = write(tmp_path, "huge.gens", "degree 2000000\ngen (1 2)\n")
    assert main(["check", "--group", g]) == 2
    err = capsys.readouterr().err
    assert "cannot read group file: line 1:" in err
    assert "materialize budget 1000000" in err


def test_check_stab_not_subgroup(c6_file, tmp_path, capsys):
    stab = write(tmp_path, "notsub.gens", "degree 6\ngen (1 2)\n")
    assert main(["check", "--group", c6_file, "--stab", stab]) == 2
    assert "cannot build the coset action" in capsys.readouterr().err


def test_check_non_prime_is_a_usage_error(capsys):
    m11 = pathlib.Path(__file__).parents[1] / "demos" / "data" / "m11.gens"
    assert main(["check", "--group", str(m11), "--prime", "4"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "--prime 4 is not a prime"


def test_check_prime_past_any_degree_is_refused_before_primality(
        monkeypatch, capsys):
    # trial division of 10**15 + 37 takes seconds; the refusal comes first
    def refuse(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr("derangements.cli.is_prime", refuse)
    m11 = pathlib.Path(__file__).parents[1] / "demos" / "data" / "m11.gens"
    big = 10**15 + 37
    assert main(["check", "--group", str(m11), "--prime", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == (f"--prime {big} exceeds {MATERIALIZE}, the largest "
                           "degree a generator file may declare")


def test_check_degree_budget_is_a_usage_error(s4_file, tmp_path, capsys):
    stab = write(tmp_path, "t.gens", "degree 4\ngen (1 2)\n")
    assert main(["check", "--group", s4_file, "--stab", stab,
                 "--budget-degree", "5"]) == 2
    err = capsys.readouterr().err
    assert "cannot build the coset action" in err
    assert "degree budget 5" in err


def test_check_budget_exceeded_in_verdict_is_a_usage_error(
        c6_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise BudgetExceeded("group of order 6 exceeds the exhaustive "
                             "budget 1")

    monkeypatch.setattr("derangements.cli.is_r_elusive", refuse)
    assert main(["check", "--group", c6_file, "--prime", "3"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("budget exceeded: group of order 6 exceeds the "
                           "exhaustive budget 1")


def test_check_chain_degree_budget_is_a_usage_error(tmp_path, capsys):
    # the order line needs a chain, refused above config.CHAIN_DEGREE
    big = write(tmp_path, "big.gens", "degree 25000\ngen (1,2)\n")
    assert main(["check", "--group", big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert "degree 25000" in captured.err


@pytest.mark.parametrize("flag", ["--budget-exhaustive", "--budget-degree"])
def test_check_negative_budget_is_refused(c6_file, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--group", c6_file, flag, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be >= 0, got -1" in captured.err


def test_verify_negative_seed_is_refused(capsys):
    # a seeded scenario would otherwise fail inside numpy's default_rng
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "m11-psl211", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


# ---------------------------------------------------------------------------
# report (run_all stubbed: full runs belong to the acceptance suite)


def fake_reports(env=None, tag=None):
    return [RunReport(scenario_id="stub", passed=True,
                      expectations=[{"key": "degree", "expected": 1,
                                     "computed": 1, "passed": True,
                                     "citation": "stub row"}],
                      wall_time=0.0)]


def test_report_table(monkeypatch, capsys):
    monkeypatch.setattr("derangements.cli.run_all",
                        lambda env=None: fake_reports())
    assert main(["report"]) == 0
    assert capsys.readouterr().out.startswith("PASS stub")


def test_report_json(monkeypatch, capsys):
    monkeypatch.setattr("derangements.cli.run_all",
                        lambda env=None: fake_reports())
    assert main(["report", "--format", "json", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7
    assert [s["scenario"] for s in doc["scenarios"]] == ["stub"]
    assert doc["scenarios"][0]["passed"] is True


def test_report_failure_exit_code(monkeypatch, capsys):
    bad = [RunReport(scenario_id="stub", passed=False,
                     error="RuntimeError: boom")]
    monkeypatch.setattr("derangements.cli.run_all",
                        lambda env=None: bad)
    assert main(["report"]) == 1
    assert "FAIL stub" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "derangements.cli", "verify",
         "--scenario", "psl2-7-notapplicable"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS psl2-7-notapplicable")
