"""Elaboration: declarations, implicit argument inference, environments.

An application ``name a1 .. ak`` supplies the locally maximal arguments
in tree order; the full substitution is reconstructed by walking the
declared boundary chains of those arguments against their inferred
types.  Shared endpoints must agree syntactically or, failing that, up
to definitional equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .syntax import (
    Arrow, Coh, Context, STAR, Sub, Term, Type, Var,
    apply_sub_term, dim_type, free_vars, id_sub,
)
from .trees import tree_to_ctx
from .insertion import locally_maximal_positions
from .rewriting import RuleSet, SUA, def_eq
from .check import infer_term
from . import parser as P


@dataclass
class ElabError(Exception):
    kind: str
    detail: str
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class CohValue:
    tree: tuple
    cell: Type

    @property
    def ctx(self) -> Context:
        return tree_to_ctx(self.tree)

    @property
    def lm_positions(self) -> tuple:
        return locally_maximal_positions(self.tree)


@dataclass(frozen=True)
class DefValue:
    ctx: Context
    body: Term
    ty: Type

    @property
    def lm_positions(self) -> tuple:
        used = frozenset()
        for _, ty in self.ctx.entries:
            used |= free_vars(ty)
        return tuple(i for i in range(len(self.ctx)) if i not in used)


class Environment:
    """Named, type-checked declarations in insertion order; no shadowing."""

    def __init__(self):
        self.table: Dict[str, object] = {}
        self.order: List[str] = []

    def add(self, name: str, value, line=0, col=0):
        if name in self.table:
            raise ElabError("DuplicateName", f"{name!r} is already defined",
                            line, col)
        self.table[name] = value
        self.order.append(name)

    def get(self, name: str):
        return self.table.get(name)

    def copy(self) -> "Environment":
        env = Environment()
        env.table = dict(self.table)
        env.order = list(self.order)
        return env


def elaborate_ctx(cx, env: Environment, rules: RuleSet = SUA) -> Context:
    if isinstance(cx, P.PsCtx):
        base = tree_to_ctx(cx.tree)
        if len(cx.names) != len(base):
            raise ElabError("ArityMismatch",
                            f"pasting notation names {len(cx.names)} variables, "
                            f"context has {len(base)}", cx.line, cx.col)
        if len(set(cx.names)) != len(cx.names):
            raise ElabError("DuplicateName",
                            "pasting notation repeats a variable name",
                            cx.line, cx.col)
        return Context(tuple(zip(cx.names, base.types)))
    ctx = Context(())
    for name, tye, line, col in cx.bindings:
        if name in ctx.names:
            raise ElabError("DuplicateName",
                            f"context binds {name!r} twice", line, col)
        ty = elaborate_type(tye, ctx, env, rules)
        ctx = ctx.extended(name, ty)
    return ctx


def elaborate_type(tye, ctx: Context, env: Environment,
                   rules: RuleSet = SUA) -> Type:
    if isinstance(tye, P.StarE):
        return STAR
    s = elaborate_term(tye.lhs, ctx, env, rules)
    t = elaborate_term(tye.rhs, ctx, env, rules)
    a = infer_term(ctx, s, rules)
    b = infer_term(ctx, t, rules)
    if a != b and not def_eq(a, b, rules):
        raise ElabError("TypeMismatch",
                        "arrow endpoints live at different types",
                        tye.line, tye.col)
    return Arrow(s, a, t)


def elaborate_term(e, ctx: Context, env: Environment,
                   rules: RuleSet = SUA) -> Term:
    if isinstance(e, P.NameE):
        if e.name in ctx.names:
            return Var(ctx.names.index(e.name))
        val = env.get(e.name)
        if val is None:
            raise ElabError("UnknownVariable", f"{e.name!r} is not in scope",
                            e.line, e.col)
        return _apply_value(val, (), ctx, env, rules, e.line, e.col)
    if isinstance(e, P.AppE):
        if not e.args:
            return elaborate_term(e.head, ctx, env, rules)
        if isinstance(e.head, P.NameE):
            if e.head.name in ctx.names:
                raise ElabError("NotApplicable",
                                f"variable {e.head.name!r} cannot take arguments",
                                e.line, e.col)
            val = env.get(e.head.name)
            if val is None:
                raise ElabError("UnknownVariable",
                                f"{e.head.name!r} is not in scope",
                                e.line, e.col)
        elif isinstance(e.head, P.CohE):
            val = _elaborate_coh_literal(e.head, env, rules)
        else:
            raise ElabError("NotApplicable",
                            "only names and coh literals take arguments",
                            e.line, e.col)
        args = tuple((elaborate_term(a, ctx, env, rules), braced)
                     for a, braced in e.args)
        return _apply_value(val, args, ctx, env, rules, e.line, e.col)
    if isinstance(e, P.CohE):
        return _apply_value(_elaborate_coh_literal(e, env, rules), (), ctx,
                            env, rules, e.line, e.col)
    raise ElabError("Internal", f"unexpected expression {e!r}")


def _elaborate_coh_literal(e: P.CohE, env: Environment,
                           rules: RuleSet) -> CohValue:
    head_ctx = Context(tuple(zip(e.names, tree_to_ctx(e.tree).types)))
    if len(e.names) != len(set(e.names)):
        raise ElabError("DuplicateName",
                        "pasting notation repeats a variable name",
                        e.line, e.col)
    cell = elaborate_type(e.ty, head_ctx, env, rules)
    if not isinstance(cell, Arrow):
        raise ElabError("TypeMismatch", "a coherence needs an arrow type",
                        e.line, e.col)
    return CohValue(e.tree, cell)


def _apply_value(val, args, ctx, env, rules, line, col) -> Term:
    sub = _infer_sub(val.ctx, val.lm_positions, args, ctx, rules, line, col)
    if isinstance(val, CohValue):
        term = Coh(val.tree, val.cell, sub)
    else:
        term = apply_sub_term(val.body, sub)
    infer_term(ctx, term, rules)
    return term


def _infer_sub(src_ctx: Context, lm: tuple, args, ctx: Context,
               rules: RuleSet, line, col) -> Sub:
    """Rebuild the full substitution from locally maximal arguments."""
    n = len(src_ctx)
    bound: List[Optional[Term]] = [None] * n
    explicit = [False] * n

    # distribute the written arguments over the positions
    cursor = 0
    for pos in range(n):
        if cursor >= len(args):
            break
        term, braced = args[cursor]
        if pos in lm:
            bound[pos] = term
            explicit[pos] = True
            cursor += 1
        elif braced:
            bound[pos] = term
            explicit[pos] = True
            cursor += 1
    if cursor != len(args):
        supplied = len([1 for _, b in args if not b])
        raise ElabError("ArityMismatch",
                        f"expected {len(lm)} arguments, got {supplied}",
                        line, col)

    def bind(pos: int, term: Term):
        old = bound[pos]
        if old is None:
            bound[pos] = term
            return
        if old == term:
            return
        if not def_eq(old, term, rules):
            raise ElabError(
                "InferenceFailure",
                f"boundary terms for {src_ctx.name_of(pos)!r} disagree after "
                f"normalization", line, col)
        # keep the first binding; explicit bindings win over inferred ones

    for pos in lm:
        if bound[pos] is None:
            raise ElabError("ArityMismatch",
                            f"missing argument for {src_ctx.name_of(pos)!r}",
                            line, col)
        declared = src_ctx.type_of(pos)
        got = infer_term(ctx, bound[pos], rules)
        if dim_type(got) != dim_type(declared):
            raise ElabError(
                "TypeMismatch",
                f"argument for {src_ctx.name_of(pos)!r} has dimension "
                f"{dim_type(got)}, expected {dim_type(declared)}", line, col)
        while isinstance(declared, Arrow):
            if isinstance(declared.src, Var):
                bind(declared.src.idx, got.src)
            if isinstance(declared.tgt, Var):
                bind(declared.tgt.idx, got.tgt)
            declared, got = declared.base, got.base

    missing = [i for i, t in enumerate(bound) if t is None]
    if missing:
        raise ElabError(
            "InferenceFailure",
            f"cannot infer argument for "
            f"{src_ctx.name_of(missing[0])!r}", line, col)
    return tuple(bound)


# --- declaration processing --------------------------------------------------

@dataclass
class CheckedDecl:
    decl: object
    name: Optional[str] = None
    ctx: Optional[Context] = None
    terms: tuple = ()


def process_decl(decl, env: Environment, rules: RuleSet = SUA) -> CheckedDecl:
    if isinstance(decl, P.CohDecl):
        ctx = elaborate_ctx(decl.ps, env, rules)
        val = _elaborate_coh_literal(
            P.CohE(decl.ps.tree, ctx.names, decl.ty, decl.line, decl.col),
            env, rules)
        # validate through the checker against the identity instantiation
        term = Coh(val.tree, val.cell, id_sub(len(ctx)))
        infer_term(ctx, term, rules)
        env.add(decl.name, val, decl.line, decl.col)
        return CheckedDecl(decl, decl.name, ctx, (term,))
    if isinstance(decl, P.TermDef):
        ctx = elaborate_ctx(decl.ctx, env, rules)
        body = elaborate_term(decl.body, ctx, env, rules)
        ty = infer_term(ctx, body, rules)
        env.add(decl.name, DefValue(ctx, body, ty), decl.line, decl.col)
        return CheckedDecl(decl, decl.name, ctx, (body,))
    if isinstance(decl, P.NormalizeCmd):
        ctx = elaborate_ctx(decl.ctx, env, rules)
        body = elaborate_term(decl.body, ctx, env, rules)
        infer_term(ctx, body, rules)
        return CheckedDecl(decl, None, ctx, (body,))
    if isinstance(decl, P.AssertEqCmd):
        ctx = elaborate_ctx(decl.ctx, env, rules)
        lhs = elaborate_term(decl.lhs, ctx, env, rules)
        rhs = elaborate_term(decl.rhs, ctx, env, rules)
        infer_term(ctx, lhs, rules)
        infer_term(ctx, rhs, rules)
        return CheckedDecl(decl, None, ctx, (lhs, rhs))
    raise ElabError("Internal", f"unknown declaration {decl!r}")


PRELUDE_SRC = """
# built-in coherences for the low-dimensional vocabulary
coh comp (x(f)y(g)z) : x -> z
coh id (x) : x -> x
coh id1 (x(f)y) : f -> f
coh vert (x(f(a)g(b)h)y) : f -> h
coh horiz (x(f(a)g)y(h(b)k)z) : comp f h -> comp g k
coh assoc (x(f)y(g)z(h)w) : comp (comp f g) h -> comp f (comp g h)
coh unitor-l (x(f)y) : comp (id x) f -> f
coh unitor-r (x(f)y) : comp f (id y) -> f
"""

_PRELUDE: Optional[Environment] = None


def prelude() -> Environment:
    global _PRELUDE
    if _PRELUDE is None:
        env = Environment()
        for decl in P.parse(PRELUDE_SRC):
            process_decl(decl, env)
        _PRELUDE = env
    return _PRELUDE


def new_env() -> Environment:
    return prelude().copy()
