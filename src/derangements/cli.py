"""Command-line front end: verify scenarios, check user groups, report.

Exit codes: 0 when every executed expectation passes (skipped optional
scenarios do not fail a run), 1 when an expectation or scenario fails,
2 on usage or input errors.
"""

import argparse
import dataclasses
import json
import sys

from .config import DEFAULT_BUDGETS, DEFAULT_SEED, MATERIALIZE, BudgetExceeded
from .zoo import (GENERATOR_FILE_DOC, GeneratorFileError, coset_action,
                  load_generators, natural_action)
from .elusive import is_2prime_elusive, is_elusive, is_r_elusive
from .numbers import is_prime
from .orbital import suborbits
from .harness import (SCENARIOS, ScenarioEnv, all_passed, format_table,
                      reports_to_json, run_all, run_scenario)

USAGE_ERROR = 2
FAILURE = 1


def _non_negative(what: str):
    """An argparse type: an int >= 0, named `what` in its messages."""
    def parse(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= 0, got {text}")
        return int(text)
    parse.__name__ = what  # argparse's "invalid <name> value" message
    return parse


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_non_negative("seed"), default=DEFAULT_SEED,
                   help="seed for subgroup search and the random wreath "
                        "sample (default 0)")
    p.add_argument("--budget-exhaustive", type=_non_negative("budget"),
                   default=None, metavar="N",
                   help="max group order for full enumeration")
    p.add_argument("--budget-degree", type=_non_negative("budget"),
                   default=None, metavar="N",
                   help="max degree for coset constructions")
    p.add_argument("--optional-data", default=None, metavar="DIR",
                   help="directory with optional scenario inputs")
    p.add_argument("--determinism", action="store_true",
                   help="zero wall times so reports are byte-identical")


def _env_from(args) -> ScenarioEnv:
    budgets = DEFAULT_BUDGETS
    if args.budget_exhaustive is not None:
        budgets = dataclasses.replace(budgets,
                                      exhaustive=args.budget_exhaustive)
    if args.budget_degree is not None:
        budgets = dataclasses.replace(budgets, degree=args.budget_degree)
    return ScenarioEnv(budgets=budgets, seed=args.seed,
                       determinism=args.determinism,
                       optional_data=args.optional_data)


def _cmd_verify(args) -> int:
    env = _env_from(args)
    if args.all:
        reports = run_all(tag=args.tag, env=env)
        if not reports:
            print(f"no scenarios tagged {args.tag!r}", file=sys.stderr)
            return USAGE_ERROR
    else:
        if args.scenario not in SCENARIOS:
            print(f"unknown scenario id: {args.scenario}", file=sys.stderr)
            print("known ids: " + ", ".join(sorted(SCENARIOS)),
                  file=sys.stderr)
            return USAGE_ERROR
        reports = [run_scenario(args.scenario, env)]
    print(format_table(reports))
    return 0 if all_passed(reports) else FAILURE


def _cmd_report(args) -> int:
    env = _env_from(args)
    reports = run_all(env=env)
    if args.format == "json":
        print(json.dumps(reports_to_json(reports, env), indent=2,
                         sort_keys=True))
    else:
        print(format_table(reports))
    return 0 if all_passed(reports) else FAILURE


def _cmd_check(args) -> int:
    # A prime dividing |G| is at most the degree, so a larger R answers
    # nothing and is refused before any primality test.
    if args.prime is not None and args.prime > MATERIALIZE:
        print(f"--prime {args.prime} exceeds {MATERIALIZE}, the largest "
              "degree a generator file may declare", file=sys.stderr)
        return USAGE_ERROR
    if args.prime is not None and not is_prime(args.prime):
        print(f"--prime {args.prime} is not a prime", file=sys.stderr)
        return USAGE_ERROR
    env = _env_from(args)
    try:
        G = load_generators(args.group)
    except (OSError, GeneratorFileError) as e:
        print(f"cannot read group file: {e}", file=sys.stderr)
        return USAGE_ERROR
    A = natural_action(G, f"group from {args.group}")
    if args.stab:
        try:
            H = load_generators(args.stab)
            A = coset_action(A, H, budgets=env.budgets)
        except (OSError, GeneratorFileError, ValueError,
                BudgetExceeded) as e:
            print(f"cannot build the coset action: {e}", file=sys.stderr)
            return USAGE_ERROR
    try:
        print(f"degree {A.degree}, order {A.order()}")
        if not A.group.is_transitive():
            print("action is not transitive; elusivity verdicts need a "
                  "transitive action", file=sys.stderr)
            return USAGE_ERROR
        _print_verdicts(A, args, env)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def _print_verdicts(A, args, env) -> None:
    tab = suborbits(A, 0)
    print(f"subdegrees {list(tab.multiset())}")
    if args.prime is not None:
        v = is_r_elusive(A, args.prime, budgets=env.budgets)
        print(f"r={args.prime}: {v.status}"
              + (f" ({v.reason})" if v.reason else "")
              + (f" [method {v.method}]" if v.method else ""))
        if v.witness is not None:
            print(f"  witness: {v.witness_cycles()}")
        return
    rep = is_2prime_elusive(A, budgets=env.budgets)
    if rep.aggregate is None:
        print(f"2'-elusive: NotApplicable ({rep.reason})")
    else:
        print(f"2'-elusive: {bool(rep)}")
        for v in rep.verdicts:
            print(f"  r={v.prime}: {v.status} [method {v.method}]")
    full = is_elusive(A, budgets=env.budgets)
    if full.aggregate is None:
        print(f"elusive: NotApplicable ({full.reason})")
    else:
        print(f"elusive: {bool(full)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="derangements",
        description="verification harness for derangement and elusivity "
                    "verdicts on finite permutation groups",
        epilog=GENERATOR_FILE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run shipped scenarios")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--scenario", metavar="ID", help="one scenario id")
    which.add_argument("--all", action="store_true", help="every scenario")
    p_verify.add_argument("--tag", default=None,
                          help="with --all: only scenarios carrying the tag")
    _common_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser("check", help="verdicts for a user group file")
    p_check.add_argument("--group", required=True, metavar="FILE",
                         help="generator file for the acting group")
    p_check.add_argument("--stab", default=None, metavar="FILE",
                         help="generator file for a subgroup; the action "
                              "becomes the one on its cosets")
    p_check.add_argument("--prime", type=int, default=None, metavar="R",
                         help="check r-elusivity at this prime only")
    _common_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="run everything and serialize")
    p_report.add_argument("--format", choices=("table", "json"),
                          default="table")
    _common_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
