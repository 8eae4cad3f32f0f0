"""Bidirectional typing with conversion by normalization.

Coherences are typed by one of two support disciplines: a composition
rule, where the source and target of the cell type are supported by the
matching boundary of the head tree, and a full rule, where both sides
are supported by the entire head context.  Type equality demanded by a
rule is discharged by def_eq.

Two premises of the coherence rule, that the cell type is well formed
over the head's pasting context and that its support conditions hold,
read only the head ``(tree, cell)`` and never the arguments.  So both
are decided before the arguments are checked, and a head that passes
them is remembered then, for the life of the process: every later use,
one nested in its own arguments too, checks only its arguments.  Only
passes are remembered: a bad head is checked afresh, and raises the
same error, on every use.  A support failure is raised only after the
arguments, so a bad argument is reported first.  A side's support is
a mask: the union of the downward closures, kept on the head tree, of
the variables the side mentions.  A variable's type is read off the
context, and an argument that is a variable is typed in place.  A
coherence's type, its cell along its arguments, is built once per term
(``_TYPES``); ``_INFER_CACHE`` keys each context a term passed in by
its hash and keeps its types, so a hit compares those in C.

An argument is checked against the head's pasting context, where each
entry's type is ``*`` or ``Var(s) -> Var(u)`` over the type of entry
``s``, with ``s, u`` earlier.  An arrow normalizes componentwise, so an
argument whose inferred type is the arrow from argument ``s`` to
argument ``u`` over the type argument ``s`` got has the wanted type:
three identity tests.  Only otherwise is the wanted type built by
substitution and compared by def_eq.
"""

from __future__ import annotations

from .syntax import (
    STAR, Arrow, Coh, Context, KernelError, Star, Term, Type, Var,
    apply_sub_type, var_mask,
)
from .trees import tree_inc, tree_to_ctx
from .rewriting import def_eq


class TypingError(Exception):
    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail

    def __str__(self):
        return f"{self.kind}: {self.detail}"


_INFER_CACHE: dict = {}
_TYPES: dict = {}
# (tree, cell) pairs whose cell type and support have been checked
_GOOD_HEADS: set = set()


def check_type(ctx: Context, a: Type) -> None:
    if isinstance(a, Star):
        return
    if not isinstance(a, Arrow):
        raise KernelError(f"not a type: {a!r}")
    check_type(ctx, a.base)
    for side, t in (("source", a.src), ("target", a.tgt)):
        got = infer_term(ctx, t)
        if not def_eq(got, a.base):
            raise TypingError("TypeMismatch",
                              f"{side} of arrow has type {got!r}, expected {a.base!r}")


def _unbound(ctx: Context, v: Var) -> TypingError:
    return TypingError("UnknownVariable",
                       f"variable {v.idx} not bound in a context of "
                       f"length {len(ctx)}")


def infer_term(ctx: Context, t: Term) -> Type:
    if isinstance(t, Var):
        if t.idx >= len(ctx.types):
            raise _unbound(ctx, t)
        return ctx.types[t.idx]
    types, key = ctx.types, (ctx._hash, t)
    hit = _INFER_CACHE.get(key)
    if hit is types or hit == types:
        return _TYPES[t]
    out = _infer(ctx, t)
    _INFER_CACHE[key] = types
    return out


def _infer(ctx: Context, t: Term) -> Type:
    if not isinstance(t, Coh):
        raise KernelError(f"not a term: {t!r}")
    head_ctx = tree_to_ctx(t.head)
    cell = t.cell
    if not isinstance(cell, Arrow):
        raise TypingError("TypeMismatch",
                          "a coherence cell must be an arrow type")
    head = (t.head, cell)
    # cell, arguments, support: the order a diagnostic reports them in;
    # the head is decided, and remembered if good, before its arguments
    bad = None
    if head not in _GOOD_HEADS:
        check_type(head_ctx, cell)
        try:
            _check_support(t.head, head_ctx, cell)
            _GOOD_HEADS.add(head)
        except TypingError as e:
            bad = e
    # the arguments in this loop, not a helper: two frames per nesting level
    args = t.args
    # the head context's types share their bases: push them with one memo
    memo, gots, types = {}, [], ctx.types
    for i, (a, ty) in enumerate(zip(args, head_ctx.types)):
        # a variable's type is read off the context, with no call
        if isinstance(a, Var):
            if a.idx >= len(types):
                raise _unbound(ctx, a)
            got = types[a.idx]
        else:
            got = infer_term(ctx, a)
        gots.append(got)
        # ty is STAR or Var(s) -> Var(u) over the type of s (module docstring)
        if ty is STAR:
            if got is STAR:
                continue
        elif (isinstance(got, Arrow) and got.src is args[ty.src.idx]
              and got.tgt is args[ty.tgt.idx] and got.base is gots[ty.src.idx]):
            continue
        want = apply_sub_type(ty, args, memo)
        if not def_eq(got, want):
            raise TypingError(
                "TypeMismatch",
                f"argument {i} ({head_ctx.name_of(i)}) has type {got!r}, "
                f"expected {want!r}")
    if bad is not None:
        raise bad
    if t not in _TYPES:
        _TYPES[t] = apply_sub_type(cell, args, memo)
    return _TYPES[t]


def _closures(tree) -> tuple:
    """The mask of each variable's downward closure in the tree's context."""
    out = tree.__dict__.get("closures")
    if out is None:
        out = []
        for i, ty in enumerate(tree_to_ctx(tree).types):  # STAR or Var(s) -> Var(u)
            out.append(1 << i if ty is STAR else 1 << i | out[ty.src.idx] | out[ty.tgt.idx])
        out = tree.__dict__["closures"] = tuple(out)
    return out


def _support(closures: tuple, x, memo: dict) -> int:
    """The mask of x's support: the closures of the variables x mentions."""
    mask, out = var_mask(x, memo), 0
    while mask:
        out |= closures[mask.bit_length() - 1]
        mask &= ~out
    return out


def _check_support(tree, head_ctx: Context, cell: Arrow) -> None:
    closures, memo = _closures(tree), {}
    src_supp, tgt_supp = _support(closures, cell.src, memo), _support(closures, cell.tgt, memo)
    if src_supp == tgt_supp == (1 << tree.size) - 1:
        return
    # over the point tree every term mentions the one object, so only a
    # tree of dimension 1 or more gets here
    want_src, want_tgt = (_support(closures, tree_inc(eps, tree.dim - 1, tree), memo)
                          for eps in "-+")
    if src_supp == want_src and tgt_supp == want_tgt:
        return
    side, want, got = (("source", want_src, src_supp) if src_supp != want_src
                       else ("target", want_tgt, tgt_supp))
    fmt = lambda m: "{" + ",".join(n for i, n in enumerate(head_ctx.names) if m >> i & 1) + "}"
    raise TypingError(
        "SupportMismatch",
        f"{side} support {fmt(got)} matches neither the {side} boundary "
        f"{fmt(want)} nor the full context")
