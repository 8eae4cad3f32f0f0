"""Elaboration: declarations, implicit argument inference, environments.

An environment is a dict from names to values.  A value is a body over
a context together with its explicit positions: the variables no type
in the context mentions.  A definition's body is its term; a coherence,
declared or written as a ``coh`` literal, is its ``Coh`` over the
context its pasting notation names, applied to that context's
variables, and its explicit positions are the locally maximal ones.  So
applying a value is one operation: substitute the arguments into the
body; a coherence's is its head on the arguments, built directly.  Each
successful application is remembered for the life of the process
(``_APPLIED``): it depends only on the value's body and context types,
the argument terms and the context types, never on names.  A failure is
diagnosed afresh at each occurrence.

An application ``name a1 .. ak`` supplies the explicit arguments in
context order; the full substitution is reconstructed by walking the
declared boundary chains of those arguments against their inferred
types.  Shared endpoints must agree syntactically or, failing that, up
to definitional equality.  Diagnostics name a value's variables as its
declaration wrote them.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .syntax import (
    Arrow, Coh, Context, Record, STAR, Sub, Term, Type, Var,
    apply_sub_term, id_sub, var_mask,
)
from .trees import tree_to_ctx
from .rewriting import def_eq
from .check import infer_term
from . import parser as P


class ElabError(Exception):
    def __init__(self, kind: str, detail: str, line: int = 0, col: int = 0):
        self.kind = kind
        self.detail = detail
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class Value(NamedTuple):
    """A named value: ``body`` over ``ctx``, applied to the arguments at
    the ``explicit`` positions.  ``chains`` holds, for each explicit
    position, the positions its declared type's source and target name,
    level by level from the top, flat: ``None`` where an endpoint is not
    a variable."""
    ctx: Context
    body: Term
    explicit: tuple
    chains: tuple


def _value(ctx: Context, body: Term) -> Value:
    """A value whose explicit positions are the variables no type in
    ``ctx`` mentions; over a pasting context, the locally maximal ones."""
    used = var_mask(ctx.types, {})
    explicit = tuple(i for i in range(len(ctx)) if not used >> i & 1)
    chains = []
    for i in explicit:
        chain, ty = [], ctx.types[i]
        while isinstance(ty, Arrow):
            for end in (ty.src, ty.tgt):
                chain.append(end.idx if isinstance(end, Var) else None)
            ty = ty.base
        chains.append(tuple(chain))
    return Value(ctx, body, explicit, tuple(chains))


def _define(env: dict, name: str, val: Value, line: int, col: int) -> None:
    if name in env:
        raise ElabError("DuplicateName", f"{name!r} is already defined",
                        line, col)
    env[name] = val


def _head_ctx(ps) -> Context:
    """The context of a pasting tree, under the names its notation gives;
    ``ps`` is a ``PsCtx`` or a ``CohE``, and errors are located at it."""
    if len(set(ps.names)) != len(ps.names):
        raise ElabError("DuplicateName",
                        "pasting notation repeats a variable name", ps.line, ps.col)
    return Context(tuple(zip(ps.names, tree_to_ctx(ps.tree).types)))


def _coh(ps, tye, env: dict, line: int, col: int) -> Value:
    """The coherence of cell type ``tye`` over the context its pasting
    notation ``ps`` names, as its identity instance there."""
    ctx = _head_ctx(ps)
    cell = elaborate_type(tye, ctx, env)
    if not isinstance(cell, Arrow):
        raise ElabError("TypeMismatch", "a coherence needs an arrow type",
                        line, col)
    return _value(ctx, Coh(ps.tree, cell, id_sub(len(ctx))))


def elaborate_ctx(cx, env: dict) -> Context:
    if isinstance(cx, P.PsCtx):
        return _head_ctx(cx)
    ctx = Context(())
    for name, tye, line, col in cx.bindings:
        if name in ctx.positions:
            raise ElabError("DuplicateName",
                            f"context binds {name!r} twice", line, col)
        ty = elaborate_type(tye, ctx, env)
        ctx = ctx.extended(name, ty)
    return ctx


def elaborate_type(tye, ctx: Context, env: dict) -> Type:
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


def elaborate_term(e, ctx: Context, env: dict) -> Term:
    """A name, a ``coh`` literal, or either applied; a bare name is an
    application to no arguments."""
    head, args = (e.head, e.args) if isinstance(e, P.AppE) else (e, ())
    if isinstance(head, P.NameE):
        i = ctx.positions.get(head.name)
        if i is not None:
            if args:
                raise ElabError("NotApplicable",
                                f"variable {head.name!r} cannot take arguments",
                                e.line, e.col)
            return Var(i)
        val = env.get(head.name)
        if val is None:
            raise ElabError("UnknownVariable", f"{head.name!r} is not in scope",
                            e.line, e.col)
    elif isinstance(head, P.CohE):
        val = _coh(head, head.ty, env, head.line, head.col)
    else:
        raise ElabError("NotApplicable",
                        "only names and coh literals take arguments",
                        e.line, e.col)
    # a loop, not a generator expression: one frame per nesting level
    terms = []
    for a, braced in args:
        terms.append((elaborate_term(a, ctx, env), braced))
    return _apply_value(val, tuple(terms), ctx, e.line, e.col)


# each successful application, for the life of the process, keyed by the
# value's body, the argument terms with their braced flags and the two
# contexts' hashes; an entry keeps the two contexts' types, which a hit
# compares in C (identity first), and the term
_APPLIED: dict = {}


def _apply_value(val: Value, args, ctx: Context, line, col) -> Term:
    key, types = (val.body, val.ctx._hash, args, ctx._hash), (val.ctx.types, ctx.types)
    hit = _APPLIED.get(key)
    if hit is not None and hit[0] == types:
        return hit[1]
    sub = _infer_sub(val, args, ctx, line, col)
    body = val.body
    # a coherence's body is its head on the identity: the head on sub
    if isinstance(body, Coh) and body.args == id_sub(len(sub)):
        term = Coh(body.head, body.cell, sub)
    else:
        term = apply_sub_term(body, sub)
    infer_term(ctx, term)
    _APPLIED[key] = (types, term)
    return term


def _infer_sub(val: Value, args, ctx: Context, line, col) -> Sub:
    """Rebuild the full substitution from the explicit arguments."""
    src_ctx = val.ctx
    explicit = val.explicit
    bound: List[Optional[Term]] = [None] * len(src_ctx)
    # a braced argument takes the next position, explicit or not
    cursor = 0
    for pos in range(len(bound)):
        if cursor >= len(args):
            break
        term, braced = args[cursor]
        if braced or pos in explicit:
            bound[pos] = term
            cursor += 1
    if cursor != len(args):
        supplied = len([1 for _, b in args if not b])
        noun = "argument" if len(explicit) == 1 else "arguments"
        raise ElabError("ArityMismatch",
                        f"expected {len(explicit)} {noun}, got {supplied}",
                        line, col)

    # match each explicit argument's type against its declared chain; a
    # position keeps its first binding, so explicit ones win
    types = ctx.types
    for pos, chain in zip(explicit, val.chains):
        term = bound[pos]
        if term is None:
            raise ElabError("ArityMismatch",
                            f"missing argument for {src_ctx.name_of(pos)!r}",
                            line, col)
        # a variable's type is read off the context, with no call
        got = types[term.idx] if isinstance(term, Var) else infer_term(ctx, term)
        ends = []
        while isinstance(got, Arrow):
            ends.append(got.src)
            ends.append(got.tgt)
            got = got.base
        if len(ends) != len(chain):
            raise ElabError(
                "TypeMismatch",
                f"argument for {src_ctx.name_of(pos)!r} has dimension "
                f"{len(ends) // 2}, expected {len(chain) // 2}", line, col)
        for at, end in zip(chain, ends):
            if at is None:
                continue
            old = bound[at]
            if old is None:
                bound[at] = end
            elif old is not end and not def_eq(old, end):
                raise ElabError(
                    "InferenceFailure",
                    f"boundary terms for {src_ctx.name_of(at)!r} disagree "
                    f"after normalization", line, col)

    if None in bound:
        raise ElabError(
            "InferenceFailure",
            f"cannot infer argument for "
            f"{src_ctx.name_of(bound.index(None))!r}", line, col)
    return tuple(bound)


# --- declaration processing --------------------------------------------------

class CheckedDecl(Record):
    __slots__ = ("ctx", "terms")


def process_decl(decl, env: dict) -> CheckedDecl:
    if isinstance(decl, P.CohDecl):
        val = _coh(decl.ps, decl.ty, env, decl.line, decl.col)
        ctx, terms = val.ctx, (val.body,)
    else:
        ctx = elaborate_ctx(decl.ctx, env)
        exprs = (decl.lhs, decl.rhs) if isinstance(decl, P.AssertEqCmd) else (decl.body,)
        terms = ()
        for e in exprs:  # not a comprehension, which would take a frame
            terms += (elaborate_term(e, ctx, env),)
    for t in terms:
        infer_term(ctx, t)
    if isinstance(decl, P.CohDecl):
        _define(env, decl.name, val, decl.line, decl.col)
    elif isinstance(decl, P.TermDef):
        _define(env, decl.name, _value(ctx, terms[0]), decl.line, decl.col)
    return CheckedDecl(ctx, terms)


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

_PRELUDE: Optional[dict] = None


def prelude() -> dict:
    global _PRELUDE
    if _PRELUDE is None:
        env = {}
        for decl in P.parse(PRELUDE_SRC):
            process_decl(decl, env)
        _PRELUDE = env
    return _PRELUDE


def new_env() -> dict:
    return dict(prelude())
