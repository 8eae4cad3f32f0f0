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
    DEFAULT_BUDGET, ReductionStep, StepBudgetExceeded,
    normalize,
)
from .trees import tree_to_ctx

TOO_DEEP = "ResourceLimit: term nests too deeply"


def non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def read_source(path: str) -> str:
    """A file's text, with no newline translation: only a line feed
    starts a line.  A byte that is not UTF-8 decodes to a lone
    surrogate, and the first one is a ParseError at its character."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        src = fh.read()
    try:
        src.encode("utf-8")
    except UnicodeEncodeError as e:
        at = e.start
        raise P.ParseError(src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at),
                           f"byte 0x{ord(src[at]) - 0xDC00:02x} is not UTF-8") from None
    return src


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
        if name == "check":
            continue
        # only the normalizations this command prints or decides trace and
        # count steps; the conversions run while checking do neither
        p.add_argument("--trace", action="store_true",
                       help="log one-step reductions to stderr")
        p.add_argument("--step-budget", type=non_negative, default=DEFAULT_BUDGET,
                       metavar="N", help="normalizer step budget")
    rep = sub.add_parser("report", help="harness summary statistics as TSV")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--count", type=non_negative, default=200, metavar="N",
                     help="number of generated terms")
    return ap


def make_tracer(names):
    """Print each step over the names of its context: the declaration's,
    or a head tree's for a step inside a coherence's cell."""
    def trace(step: ReductionStep):
        over = names if step.head is None else tree_to_ctx(step.head).names
        before = fmt_term(step.before, over)
        after = fmt_term(step.after, over)
        line = f"{step.rule} @ {step.path_str()}: {before} ==> {after}"
        if step.detail:
            line += f"   [{step.detail}]"
        print(line, file=sys.stderr)
    return trace


def run_files(args) -> int:
    env = new_env()
    failures = 0
    for path in args.files:
        try:
            decls = P.parse(read_source(path))
        except OSError as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        except P.ParseError as e:
            print(f"{path}:{e.line}:{e.col}: ParseError: {e.msg}",
                  file=sys.stderr)
            return 1
        except RecursionError:
            print(f"{path}:1:1: {TOO_DEEP}", file=sys.stderr)
            return 1
        for decl in decls:
            try:
                checked = process_decl(decl, env)
                if args.command == "check":
                    continue
                names = checked.ctx.names
                trace = make_tracer(names) if args.trace else None
                if args.command == "normalize" and isinstance(decl, P.NormalizeCmd):
                    nf = normalize(checked.terms[0], args.step_budget, trace)
                    print(fmt_term(nf, names))
                elif args.command == "eq" and isinstance(decl, P.AssertEqCmd):
                    lhs, rhs = checked.terms
                    ok = (normalize(lhs, args.step_budget, trace)
                          == normalize(rhs, args.step_budget, trace))
                    print(f"{path}:{decl.line}: {'ok' if ok else 'FAIL'}")
                    failures += not ok
            except (TypingError, ElabError) as e:
                line = getattr(e, "line", 0) or decl.line
                col = getattr(e, "col", 0) or decl.col
                print(f"{path}:{line}:{col}: {e.kind}: {e.detail}",
                      file=sys.stderr)
                failures += 1
            except (StepBudgetExceeded, RecursionError) as e:
                why = (TOO_DEEP if isinstance(e, RecursionError)
                       else f"StepBudgetExceeded: {e}")
                print(f"{path}:{decl.line}:{decl.col}: {why}", file=sys.stderr)
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
