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

from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    STAR, Arrow, Coh, Context, KernelError, Star, Sub, Term, Tree, Type, Var,
    apply_sub_term, apply_sub_type, ctx_len, id_sub,
)


class NotPastingError(Exception):
    """A context failed to parse as a pasting context."""

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"not a pasting context (entry {position}): {reason}")


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


def subtree(t: Tree, path) -> Tree:
    for k in path:
        t = t[k]
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
    from .syntax import dim_type
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


# --- context to tree ------------------------------------------------------

def _strip_suspension(ty: Type, pos: int) -> Type:
    """Invert suspend_type on a block entry already renumbered to poles 0,1."""
    if isinstance(ty, Arrow) and isinstance(ty.base, Star):
        if ty.src != Var(0) or ty.tgt != Var(1):
            raise NotPastingError(pos, "cell does not join its gluing points")
        return STAR
    if isinstance(ty, Arrow):
        return Arrow(_unsuspend_term(ty.src, pos), _strip_suspension(ty.base, pos),
                     _unsuspend_term(ty.tgt, pos))
    raise NotPastingError(pos, "object-typed variable inside a cell block")


def _unsuspend_term(t: Term, pos: int):
    if not isinstance(t, Var):
        raise NotPastingError(pos, "cell boundary is not a variable")
    if t.idx < 2:
        raise NotPastingError(pos, "gluing point used above its dimension")
    return Var(t.idx - 2)


def ctx_to_tree(ctx: Context) -> Tree:
    """Parse a context as a pasting tree; raises NotPastingError otherwise."""
    n = len(ctx)
    if n == 0:
        raise NotPastingError(0, "empty context")
    types = ctx.types
    if not isinstance(types[0], Star):
        raise NotPastingError(0, "first variable must be an object")
    if n == 1:
        return ()
    if not isinstance(types[1], Star):
        raise NotPastingError(1, "second variable of a composite context must be an object")
    stars = [i for i, ty in enumerate(types) if isinstance(ty, Star)]
    # expected layout: p0 p1 B0 p2 B1 ... pn Bn-1 with nonempty blocks
    children = []
    for k in range(1, len(stars)):
        lo = stars[k]
        hi = stars[k + 1] if k + 1 < len(stars) else n
        block = range(lo + 1, hi)
        if len(block) == 0:
            raise NotPastingError(lo, "disconnected objects")
        neg_pole, pos_pole = stars[k - 1], stars[k]
        entries = []
        for j, p in enumerate(block):
            ty = types[p]
            renum = {neg_pole: 0, pos_pole: 1}
            renum.update({block[0] + jj: 2 + jj for jj in range(j)})
            try:
                ty = _renumber_type(ty, renum, p)
            except KeyError as e:
                raise NotPastingError(p, "cell crosses its gluing points") from None
            entries.append((ctx.name_of(p), _strip_suspension(ty, p)))
        children.append(ctx_to_tree(Context(tuple(entries))))
    return tuple(children)


def _renumber_type(ty: Type, renum: dict, pos: int) -> Type:
    if isinstance(ty, Star):
        return ty
    if not isinstance(ty.src, Var) or not isinstance(ty.tgt, Var):
        raise NotPastingError(pos, "cell boundary is not a variable")
    return Arrow(Var(renum[ty.src.idx]), _renumber_type(ty.base, renum, pos),
                 Var(renum[ty.tgt.idx]))


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


# --- labellings -----------------------------------------------------------

@dataclass(frozen=True)
class Label:
    """Tree-shaped substitution: n+1 point labels around n sub-labellings."""

    points: tuple
    branches: tuple

    def __post_init__(self):
        if len(self.points) != len(self.branches) + 1:
            raise KernelError("labelling shape mismatch")


def label_to_sub(lab: Label) -> Sub:
    if not lab.branches:
        return (lab.points[0],)
    out = [lab.points[0], lab.points[1]]
    for i, br in enumerate(lab.branches):
        out.extend(label_to_sub(br))
        if i + 1 < len(lab.branches):
            out.append(lab.points[i + 2])
    return tuple(out)


def sub_to_label(t: Tree, sub: Sub) -> Label:
    if len(sub) != ctx_len(t):
        raise KernelError(f"substitution arity {len(sub)} does not fit tree {t}")
    points = tuple(sub[p] for p in point_positions(t))
    bs = block_starts(t)
    branches = tuple(sub_to_label(c, tuple(sub[bs[i]:bs[i] + ctx_len(c)]))
                     for i, c in enumerate(t))
    return Label(points, branches)


def identity_label(t: Tree) -> Label:
    return sub_to_label(t, id_sub(ctx_len(t)))


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
