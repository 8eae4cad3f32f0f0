"""Planar rooted trees as pasting contexts.

A tree is a plain tuple of subtrees; ``()`` generates the singleton
context.  ``tree_to_ctx`` realises a tree as a context by suspending
each child and gluing the results at their poles, so the variable
layout of ``tree_to_ctx(T)`` for ``T = (T0, .., Tn-1)`` is

    p0  p1  B0  p2  B1  ...  pn  Bn-1

where the ``p``s are the 0-dimensional gluing points and ``Bi`` is the
suspended block of child ``i``.  All positional bookkeeping in this
module (point positions, block starts, inclusion substitutions) refers
to that layout.
"""

from __future__ import annotations

from functools import lru_cache

from .syntax import (
    STAR, Arrow, Coh, Context, KernelError, Star, Sub, Term, Tree, Type, Var,
    apply_sub_term, apply_sub_type, ctx_len, dim_type,
)


@lru_cache(maxsize=None)
def tree_dim(t: Tree) -> int:
    if not t:
        return 0
    return 1 + max(map(tree_dim, t))


def trunk_height(t: Tree) -> int:
    if len(t) == 1:
        return 1 + trunk_height(t[0])
    return 0


def is_linear(t: Tree) -> bool:
    """trunk_height(t) == tree_dim(t), in O(depth): no branch point below a leaf."""
    while len(t) == 1:
        t = t[0]
    return not t


def disc(n: int) -> Tree:
    t: Tree = ()
    for _ in range(n):
        t = (t,)
    return t


@lru_cache(maxsize=None)
def point_positions(t: Tree) -> tuple:
    """Positions of the 0-level gluing points in tree_to_ctx(t)."""
    if not t:
        return (0,)
    pts = [0, 1]
    cur = 2
    for i, c in enumerate(t):
        cur += ctx_len(c)
        if i < len(t) - 1:
            pts.append(cur)
            cur += 1
    return tuple(pts)


@lru_cache(maxsize=None)
def block_starts(t: Tree) -> tuple:
    """Start position of each child's suspended variable block."""
    bs = []
    cur = 2
    for i, c in enumerate(t):
        bs.append(cur)
        cur += ctx_len(c) + 1
    return tuple(bs)


@lru_cache(maxsize=None)
def child_incl(t: Tree, i: int) -> Sub:
    """Inclusion of the suspension of child i into tree_to_ctx(t)."""
    pts = point_positions(t)
    bs = block_starts(t)
    vec = [Var(pts[i]), Var(pts[i + 1])]
    vec.extend(Var(bs[i] + j) for j in range(ctx_len(t[i])))
    return tuple(vec)


# --- suspension -----------------------------------------------------------

def suspend_tree(t: Tree) -> Tree:
    return (t,)


def suspend_type(a: Type) -> Type:
    if isinstance(a, Star):
        return Arrow(Var(0), STAR, Var(1))
    return Arrow(suspend_term(a.src), suspend_type(a.base), suspend_term(a.tgt))


def suspend_term(t: Term) -> Term:
    if isinstance(t, Var):
        return Var(t.idx + 2)
    return Coh(suspend_tree(t.head), suspend_type(t.cell), suspend_sub(t.args))


def suspend_sub(s: Sub) -> Sub:
    return (Var(0), Var(1)) + tuple(suspend_term(t) for t in s)


def suspend_ctx(ctx: Context, poles=("N", "S")) -> Context:
    entries = [(poles[0], STAR), (poles[1], STAR)]
    entries.extend((n, suspend_type(ty)) for n, ty in ctx.entries)
    return Context(tuple(entries))


# --- tree to context ------------------------------------------------------

_DIM_LETTERS = {0: ("x", "y", "z", "w", "v", "u"),
                1: ("f", "g", "h", "i", "j", "k"),
                2: ("a", "b", "c", "d", "e"),
                3: ("m", "n", "o", "p", "q")}


def _auto_names(types) -> tuple:
    counters = {}
    names = []
    for ty in types:
        d = dim_type(ty)
        k = counters.get(d, 0)
        counters[d] = k + 1
        pool = _DIM_LETTERS.get(d)
        if pool and k < len(pool):
            names.append(pool[k])
        elif pool:
            names.append(f"{pool[0]}{k}")
        else:
            names.append(f"c{d}_{k}")
    return tuple(names)


@lru_cache(maxsize=None)
def tree_to_ctx(t: Tree) -> Context:
    if not t:
        return Context((("x", STAR),))
    types = [None] * ctx_len(t)
    for p in point_positions(t):
        types[p] = STAR
    bs = block_starts(t)
    for i, c in enumerate(t):
        inc = child_incl(t, i)
        sub_ctx = tree_to_ctx(c)
        for j in range(len(sub_ctx)):
            types[bs[i] + j] = apply_sub_type(suspend_type(sub_ctx.type_of(j)), inc)
    return Context(tuple(zip(_auto_names(types), types)))


# --- boundaries and inclusions --------------------------------------------

def tree_bd(n: int, t: Tree) -> Tree:
    """Truncate t at depth n."""
    if n <= 0 or not t:
        return () if n <= 0 else t
    return tuple(tree_bd(n - 1, c) for c in t)


@lru_cache(maxsize=None)
def tree_inc(eps: str, n: int, t: Tree) -> Sub:
    """Inclusion of the n-boundary of t into tree_to_ctx(t).

    Every surviving position maps to its counterpart; a leaf created by
    the truncation maps to the eps-most n-dimensional boundary variable
    of the subtree it replaced.
    """
    if eps not in ("-", "+"):
        raise KernelError(f"bad direction {eps!r}")
    if n <= 0:
        pos = 0 if eps == "-" else point_positions(t)[-1]
        return (Var(pos),)
    if not t:
        return (Var(0),)
    b = tree_bd(n, t)
    out = [None] * ctx_len(b)
    bpts, bbs = point_positions(b), block_starts(b)
    tpts = point_positions(t)
    for j in range(len(t) + 1):
        out[bpts[j]] = Var(tpts[j])
    for i, c in enumerate(t):
        inc = child_incl(t, i)
        rec = tree_inc(eps, n - 1, c)
        for j, term in enumerate(rec):
            out[bbs[i] + j] = apply_sub_term(suspend_term(term), inc)
    return tuple(out)


# --- rendering ------------------------------------------------------------

def bracket(t: Tree) -> str:
    return "[" + ",".join(bracket(c) for c in t) + "]"


def parse_bracket(s: str) -> Tree:
    """Parse bracket notation; commas optional, whitespace ignored."""
    stack = []
    cur = None
    for ch in s:
        if ch.isspace() or ch == ",":
            continue
        if ch == "[":
            stack.append([])
        elif ch == "]":
            if not stack:
                raise ValueError("unbalanced ']' in tree literal")
            done = tuple(stack.pop())
            if stack:
                stack[-1].append(done)
            else:
                if cur is not None:
                    raise ValueError("trailing content after tree literal")
                cur = done
        else:
            raise ValueError(f"unexpected {ch!r} in tree literal")
    if stack or cur is None:
        raise ValueError("unterminated tree literal")
    return cur
