"""Unbiased coherences, terms and types, plus identities and recognizers.

The unbiased operations compose every cell of a pasting diagram at
once.  Recognizers re-derive the unbiased type for a candidate's head
tree and compare syntactically, so terms stay plain first-order data
with no provenance flags.
"""

from __future__ import annotations

from .syntax import (
    Arrow, Coh, STAR, Sub, Term, Tree, Type, Var, apply_sub_term, dim_type,
    id_sub,
)
from .trees import disc, is_linear, tree_bd, tree_inc


def unbiased_type(n: int, t: tuple) -> Type:
    """U^n_T, kept on the tree in ``unbiased``, a dict by level.  Above
    T's dimension it holds a coherence over T, a cycle once kept, so the
    kernel asks for that only of a disc, one level up, where it holds
    the disc's top variable instead (``insertion._inserts``)."""
    try:
        return t.unbiased[n]
    except (AttributeError, KeyError):  # not built yet, or a plain tuple
        if n <= 0:
            return STAR
        t = Tree(t)
    kept = t.__dict__.setdefault("unbiased", {})
    ty = kept.get(n)
    if ty is None:
        bd = unbiased_term(n - 1, tree_bd(n - 1, t))
        s = apply_sub_term(bd, tree_inc("-", n - 1, t))
        u = apply_sub_term(bd, tree_inc("+", n - 1, t))
        ty = kept[n] = Arrow(s, unbiased_type(n - 1, t), u)
    return ty


def unbiased_term(n: int, t: Tree) -> Term:
    if is_linear(t) and t.dim == n:
        return Var(t.size - 1)  # the top variable of a disc
    return unbiased_coh(n, t)


def unbiased_coh(n: int, t: Tree) -> Term:
    t = Tree(t)
    return Coh(t, unbiased_type(n, t), id_sub(t.size))


def disc_sub(a: Type, t: Term) -> Sub:
    """The substitution from a disc listing the iterated boundary of a, then t."""
    levels = []
    while isinstance(a, Arrow):
        levels.append((a.src, a.tgt))
        a = a.base
    vec = []
    for s, u in reversed(levels):
        vec.append(s)
        vec.append(u)
    vec.append(t)
    return tuple(vec)


def identity_term(a: Type, s: Term) -> Term:
    """The canonical identity cell on s at type a."""
    n = dim_type(a)
    return apply_sub_term(unbiased_coh(n + 1, disc(n)), disc_sub(a, s))


def is_identity(t: Term) -> bool:
    if not isinstance(t, Coh):
        return False
    if not is_linear(t.head):
        return False
    return t.cell == unbiased_type(t.head.dim + 1, t.head)
