"""Planar rooted trees as pasting contexts.

A tree is the interned tuple of its subtrees (``syntax.Tree``); ``()``
generates the singleton context.  Each tree carries its dimension
``dim`` and context length ``size``, so ``tree_dim`` and ``ctx_len``
are attribute reads, and the caches here hash a tree by identity.  A
function here that takes a tree from outside the kernel interns a
plain tuple it is given; a cached one does so on a miss, and keeps the
tuple as a key of its own.  The context of ``T = (T0, .., Tn-1)`` has
the layout

    p0  p1  B0  p2  B1  ...  pn  Bn-1

where the ``p``s are the 0-dimensional gluing points and ``Bi`` is the
layout of child ``i``, one dimension up: its points have type
``p_i -> p_i+1``.  All positional bookkeeping in this module and in
``insertion`` (point positions, block starts, inclusion substitutions)
refers to that layout, and ``tree_to_ctx`` and ``tree_inc`` build
contexts and boundary inclusions by one walk over it.  Each walk is a
module function, not a nested closure: a recursive closure is a
reference cycle, garbage that only the cycle collector frees (see
syntax.py).

``Bi`` is also child ``i``'s own context, suspended and glued in at
its poles, which is how the paper defines it.  No construction here
suspends, but the suspension functions stay: they lift a whole term,
context or substitution one dimension up, as the benchmark's
dimension-2 chains need (and suspension at application will), and
the tests check the walks against the definitions by suspension.
"""

from __future__ import annotations

from functools import lru_cache

from .syntax import (
    STAR, Arrow, Coh, Context, KernelError, Star, Sub, Term, Tree, Type, Var,
    dim_type, tree,
)


def tree_dim(t: tuple) -> int:
    return Tree(t).dim


def ctx_len(t: tuple) -> int:
    """Number of variables in the context a tree generates."""
    return Tree(t).size


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
    t = tree(())
    for _ in range(n):
        t = tree((t,))
    return t


def point_positions(t: Tree) -> tuple:
    """Positions of the 0-level gluing points in tree_to_ctx(t)."""
    if not t:
        return (0,)
    pts = [0, 1]
    cur = 2
    for i, c in enumerate(Tree(t)):
        cur += c.size
        if i < len(t) - 1:
            pts.append(cur)
            cur += 1
    return tuple(pts)


def block_starts(t: Tree) -> tuple:
    """Start position of each child's suspended variable block: one past
    the point that follows it."""
    return tuple(p + 1 for p in point_positions(t)[1:])


# --- suspension -----------------------------------------------------------

def suspend_tree(t: Tree) -> Tree:
    return tree((Tree(t),))


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


def suspend_ctx(ctx: Context) -> Context:
    entries = [("N", STAR), ("S", STAR)]
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
    types = []
    _layout_types(t, STAR, types)
    return Context(tuple(zip(_auto_names(types), types)))


def _layout_types(node: Tree, base: Type, types: list) -> None:
    """Append the types of node's layout, its points over base."""
    src = len(types)
    types.append(base)
    for c in node:
        tgt = len(types)
        types.append(base)
        _layout_types(c, Arrow(Var(src), base, Var(tgt)), types)
        src = tgt


# --- boundaries and inclusions --------------------------------------------

def tree_bd(n: int, t: Tree) -> Tree:
    """Truncate t at depth n."""
    if n <= 0:
        return tree(())
    return tree(tuple([tree_bd(n - 1, c) for c in t]))


def tree_inc(eps: str, n: int, t: Tree) -> Sub:
    """Inclusion of the n-boundary of t into tree_to_ctx(t).

    Every surviving position maps to its counterpart; a leaf created by
    the truncation maps to the eps-most point of the subtree it replaced,
    its first (-) or last (+) n-dimensional variable.
    """
    if eps not in ("-", "+"):
        raise KernelError(f"bad direction {eps!r}")
    out = []
    _inc_walk(eps, Tree(t), n, 0, out)
    return tuple(out)


def _inc_walk(eps: str, node: Tree, m: int, pos: int, out: list) -> None:
    # pos is the position of node's first point in t's layout
    if m <= 0 or not node:
        # the last point comes just before the last child's block
        last = node.size - 1 - node[-1].size if node else 0
        out.append(Var(pos if eps == "-" else pos + last))
        return
    out.append(Var(pos))
    for c in node:
        pos += 1
        out.append(Var(pos))
        _inc_walk(eps, c, m - 1, pos + 1, out)
        pos += c.size


# --- rendering ------------------------------------------------------------

def bracket(t: Tree) -> str:
    return "[" + ",".join(bracket(c) for c in t) + "]"
