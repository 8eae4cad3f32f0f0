"""Command line interface.

Subcommands: check (type-check declarations), normalize (print normal
forms for each normalize command), eq (run asserteq commands), report
(generator and rule statistics as TSV).  Exit codes: 0 all passed,
1 any failure, 2 usage or I/O error.

Each failure prints one ``file:line:col: Kind: detail`` line on stderr.
A term nested too deeply for the interpreter's stack is a failure of
kind ResourceLimit, located at its declaration, or at 1:1 when the
parser itself ran out of stack.
"""

from __future__ import annotations

import argparse
import sys

from . import parser as P
from .check import TypingError
from .elaborate import ElabError, new_env, process_decl
from .printer import fmt_term
from .rewriting import (
    DEFAULT_BUDGET, ReductionStep, RuleSet, StepBudgetExceeded,
    normalize,
)

TOO_DEEP = "ResourceLimit: term nests too deeply"


def resource_limit(e: Exception) -> str:
    """The ``Kind: detail`` of a step budget or stack overrun."""
    if isinstance(e, RecursionError):
        return TOO_DEEP
    return f"StepBudgetExceeded: {e}"


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semistrict",
        description="checker and normalizer for strictly associative and "
                    "unital higher-categorical coherence terms")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("check", "type-check all declarations"),
                        ("normalize", "print a normal form per normalize command"),
                        ("eq", "run all asserteq commands")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--trace", action="store_true",
                       help="log one-step reductions to stderr")
        p.add_argument("--step-budget", type=int, default=DEFAULT_BUDGET,
                       metavar="N", help="normalizer step budget")
        p.add_argument("--no-rule", action="append", default=[],
                       choices=("dr", "ecr", "ins"), metavar="{dr|ecr|ins}",
                       help="disable a reduction rule (untested configuration)")
    rep = sub.add_parser("report", help="harness summary statistics as TSV")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--count", type=int, default=200, metavar="N",
                     help="number of generated terms")
    return ap


def ruleset_from(args) -> RuleSet:
    off = set(args.no_rule)
    rules = RuleSet(disc_removal="dr" not in off,
                    endo_coherence_removal="ecr" not in off,
                    insertion="ins" not in off)
    if rules.disabled():
        print(f"warning: rules disabled ({', '.join(rules.disabled())}); "
              f"this configuration is untested", file=sys.stderr)
    return rules


def make_tracer(names):
    def trace(step: ReductionStep):
        before = fmt_term(step.before, names)
        after = fmt_term(step.after, names)
        line = f"{step.rule} @ {step.path_str()}: {before} ==> {after}"
        if step.detail:
            line += f"   [{step.detail}]"
        print(line, file=sys.stderr)
    return trace


def run_files(args) -> int:
    rules = ruleset_from(args)
    env = new_env()
    failures = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                src = fh.read()
        except OSError as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        try:
            decls = P.parse(src)
        except P.ParseError as e:
            print(f"{path}:{e.line}:{e.col}: ParseError: {e.msg}",
                  file=sys.stderr)
            return 1
        except RecursionError:
            print(f"{path}:1:1: {TOO_DEEP}", file=sys.stderr)
            return 1
        for decl in decls:
            try:
                checked = process_decl(decl, env, rules)
            except (TypingError, ElabError) as e:
                line = getattr(e, "line", 0) or decl.line
                col = getattr(e, "col", 0) or decl.col
                kind = getattr(e, "kind", e.__class__.__name__)
                print(f"{path}:{line}:{col}: {kind}: {e.detail}",
                      file=sys.stderr)
                failures += 1
                continue
            except (StepBudgetExceeded, RecursionError) as e:
                print(f"{path}:{decl.line}:{decl.col}: {resource_limit(e)}",
                      file=sys.stderr)
                failures += 1
                continue
            names = checked.ctx.names if checked.ctx is not None else ()
            trace = make_tracer(names) if args.trace else None
            try:
                if args.command == "normalize" and isinstance(decl, P.NormalizeCmd):
                    nf = normalize(checked.terms[0], rules, args.step_budget,
                                   trace)
                    print(fmt_term(nf, names))
                elif args.command == "eq" and isinstance(decl, P.AssertEqCmd):
                    lhs, rhs = checked.terms
                    ok = (normalize(lhs, rules, args.step_budget, trace)
                          == normalize(rhs, rules, args.step_budget, trace))
                    verdict = "ok" if ok else "FAIL"
                    print(f"{path}:{decl.line}: {verdict}")
                    if not ok:
                        failures += 1
            except (StepBudgetExceeded, RecursionError) as e:
                print(f"{path}:{decl.line}:{decl.col}: {resource_limit(e)}",
                      file=sys.stderr)
                failures += 1
    return 1 if failures else 0


def run_report(args) -> int:
    from .harness import report
    print(report(seed=args.seed, count=args.count), end="")
    return 0


def main(argv=None) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "report":
        return run_report(args)
    return run_files(args)


if __name__ == "__main__":
    sys.exit(main())
