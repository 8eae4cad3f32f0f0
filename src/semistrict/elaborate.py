"""Elaboration: declarations, implicit argument inference, environments.

An application ``name a1 .. ak`` supplies the locally maximal arguments
in tree order; the full substitution is reconstructed by walking the
declared boundary chains of those arguments against their inferred
types.  Shared endpoints must agree syntactically or, failing that, up
to definitional equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .syntax import (
    Arrow, Coh, Context, STAR, Sub, Term, Type, Var,
    apply_sub_term, dim_type, free_vars, id_sub,
)
from .trees import tree_to_ctx
from .insertion import locally_maximal_positions
from .rewriting import def_eq
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
    ctx: Context = field(init=False, repr=False)
    lm_positions: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ctx", tree_to_ctx(self.tree))
        object.__setattr__(self, "lm_positions", locally_maximal_positions(self.tree))


@dataclass(frozen=True)
class DefValue:
    ctx: Context
    body: Term
    ty: Type
    lm_positions: tuple = field(init=False, repr=False)

    def __post_init__(self):
        used = free_vars(self.ctx.types)
        object.__setattr__(self, "lm_positions",
                           tuple(i for i in range(len(self.ctx)) if i not in used))


class Environment:
    """Named, type-checked declarations; no shadowing."""

    def __init__(self):
        self.table: Dict[str, object] = {}

    def add(self, name: str, value, line=0, col=0):
        if name in self.table:
            raise ElabError("DuplicateName", f"{name!r} is already defined",
                            line, col)
        self.table[name] = value

    def get(self, name: str):
        return self.table.get(name)

    def copy(self) -> "Environment":
        env = Environment()
        env.table = dict(self.table)
        return env


def _head_ctx(tree: tuple, names: tuple, line: int, col: int) -> Context:
    """The context of a pasting tree, under the names its notation gives."""
    types = tree_to_ctx(tree).types
    if len(names) != len(types):
        raise ElabError("ArityMismatch",
                        f"pasting notation names {len(names)} variables, "
                        f"context has {len(types)}", line, col)
    if len(set(names)) != len(names):
        raise ElabError("DuplicateName",
                        "pasting notation repeats a variable name", line, col)
    return Context(tuple(zip(names, types)))


def _coh_value(tree: tuple, ctx: Context, tye, env: Environment,
              line: int, col: int) -> CohValue:
    """A coherence over ``ctx``, the context of ``tree``: its cell type
    is elaborated there and must be an arrow."""
    cell = elaborate_type(tye, ctx, env)
    if not isinstance(cell, Arrow):
        raise ElabError("TypeMismatch", "a coherence needs an arrow type",
                        line, col)
    return CohValue(tree, cell)


def elaborate_ctx(cx, env: Environment) -> Context:
    if isinstance(cx, P.PsCtx):
        return _head_ctx(cx.tree, cx.names, cx.line, cx.col)
    ctx = Context(())
    for name, tye, line, col in cx.bindings:
        if name in ctx.positions:
            raise ElabError("DuplicateName",
                            f"context binds {name!r} twice", line, col)
        ty = elaborate_type(tye, ctx, env)
        ctx = ctx.extended(name, ty)
    return ctx


def elaborate_type(tye, ctx: Context, env: Environment) -> Type:
    if isinstance(tye, P.StarE):
        return STAR
    s = elaborate_term(tye.lhs, ctx, env)
    t = elaborate_term(tye.rhs, ctx, env)
    a = infer_term(ctx, s)
    b = infer_term(ctx, t)
    if not def_eq(a, b):
        raise ElabError("TypeMismatch",
                        "arrow endpoints live at different types",
                        tye.line, tye.col)
    return Arrow(s, a, t)


def elaborate_term(e, ctx: Context, env: Environment) -> Term:
    if isinstance(e, P.NameE):
        i = ctx.positions.get(e.name)
        if i is not None:
            return Var(i)
        val = env.get(e.name)
        if val is None:
            raise ElabError("UnknownVariable", f"{e.name!r} is not in scope",
                            e.line, e.col)
        return _apply_value(val, (), ctx, env, e.line, e.col)
    if isinstance(e, P.AppE):
        if not e.args:
            return elaborate_term(e.head, ctx, env)
        if isinstance(e.head, P.NameE):
            if e.head.name in ctx.positions:
                raise ElabError("NotApplicable",
                                f"variable {e.head.name!r} cannot take arguments",
                                e.line, e.col)
            val = env.get(e.head.name)
            if val is None:
                raise ElabError("UnknownVariable",
                                f"{e.head.name!r} is not in scope",
                                e.line, e.col)
        elif isinstance(e.head, P.CohE):
            val = _elaborate_coh_literal(e.head, env)
        else:
            raise ElabError("NotApplicable",
                            "only names and coh literals take arguments",
                            e.line, e.col)
        # a loop, not a generator expression: one frame per nesting level
        args = []
        for a, braced in e.args:
            args.append((elaborate_term(a, ctx, env), braced))
        return _apply_value(val, tuple(args), ctx, env, e.line, e.col)
    if isinstance(e, P.CohE):
        return _apply_value(_elaborate_coh_literal(e, env), (), ctx,
                            env, e.line, e.col)
    raise ElabError("Internal", f"unexpected expression {e!r}")


def _elaborate_coh_literal(e: P.CohE, env: Environment) -> CohValue:
    ctx = _head_ctx(e.tree, e.names, e.line, e.col)
    return _coh_value(e.tree, ctx, e.ty, env, e.line, e.col)


def _apply_value(val, args, ctx, env, line, col) -> Term:
    sub = _infer_sub(val.ctx, val.lm_positions, args, ctx, line, col)
    if isinstance(val, CohValue):
        term = Coh(val.tree, val.cell, sub)
    else:
        term = apply_sub_term(val.body, sub)
    infer_term(ctx, term)
    return term


def _infer_sub(src_ctx: Context, lm: tuple, args, ctx: Context,
               line, col) -> Sub:
    """Rebuild the full substitution from locally maximal arguments."""
    n = len(src_ctx)
    bound: List[Optional[Term]] = [None] * n
    explicit = set(lm)

    # distribute the written arguments over the positions
    cursor = 0
    for pos in range(n):
        if cursor >= len(args):
            break
        term, braced = args[cursor]
        if pos in explicit or braced:
            bound[pos] = term
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
        if not def_eq(old, term):
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
        got = infer_term(ctx, bound[pos])
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
    ctx: Context
    terms: tuple


def process_decl(decl, env: Environment) -> CheckedDecl:
    if isinstance(decl, P.CohDecl):
        ctx = elaborate_ctx(decl.ps, env)
        val = _coh_value(decl.ps.tree, ctx, decl.ty, env, decl.line, decl.col)
        # validate through the checker against the identity instantiation
        term = Coh(val.tree, val.cell, id_sub(len(ctx)))
        infer_term(ctx, term)
        env.add(decl.name, val, decl.line, decl.col)
        return CheckedDecl(ctx, (term,))
    if isinstance(decl, P.TermDef):
        ctx = elaborate_ctx(decl.ctx, env)
        body = elaborate_term(decl.body, ctx, env)
        ty = infer_term(ctx, body)
        env.add(decl.name, DefValue(ctx, body, ty), decl.line, decl.col)
        return CheckedDecl(ctx, (body,))
    if isinstance(decl, P.NormalizeCmd):
        ctx = elaborate_ctx(decl.ctx, env)
        body = elaborate_term(decl.body, ctx, env)
        infer_term(ctx, body)
        return CheckedDecl(ctx, (body,))
    if isinstance(decl, P.AssertEqCmd):
        ctx = elaborate_ctx(decl.ctx, env)
        lhs = elaborate_term(decl.lhs, ctx, env)
        rhs = elaborate_term(decl.rhs, ctx, env)
        infer_term(ctx, lhs)
        infer_term(ctx, rhs)
        return CheckedDecl(ctx, (lhs, rhs))
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
