"""Insertion: grafting an argument's pasting tree into the head tree.

A branch is a nonempty index path into a tree whose indexed subtree is
linear; it stands for the locally maximal variable of that subtree.
Each locally maximal variable has one canonical branch, the shortest
path whose subtree is linear (equivalently, the path into the maximal
linear suffix below the deepest branch point), which is the most
permissive representative for the trunk-height side condition.

Inserting T at branch P of S changes one block: the innermost block on
P's path, a linear block with its target point, is replaced by a window
onto T's innermost tree.  Every variable before that block keeps its
position and every variable after it keeps its distance from the end.
So the interior and exterior substitutions are flat splices of runs of
variables around that block, at every branch height.  The paper defines
both by induction on branch height through suspension; the splices
agree with it because suspension commutes with unbiased types,
``suspend_type(unbiased_type(n, t)) == unbiased_type(n + 1, (t,))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    Coh, Sub, Term, Tree, Var, apply_sub_type, ctx_len, dim_type, id_sub,
)
from .trees import block_starts, is_linear, point_positions, tree_dim, trunk_height
from .unbiased import disc_sub, is_identity, unbiased_type


class HeightMismatch(Exception):
    """Trunk height of the argument tree is below the branch height."""


Branch = tuple


def branch_height(p: Branch) -> int:
    return len(p) - 1


def _require_trunk(s: Tree, p: Branch, t: Tree):
    if branch_height(p) > trunk_height(t):
        raise HeightMismatch(
            f"cannot insert {t} at branch {p} of {s}: trunk too short")


@lru_cache(maxsize=None)
def branch_table(t: Tree) -> tuple:
    """(branch, variable position, leaf height) per canonical branch.

    One walk in branch (lexicographic) order: a child whose subtree is
    linear ends a canonical branch at the top variable of its block,
    any other child is walked into.
    """
    out = []

    def walk(node: Tree, path: Branch, pos: int) -> int:
        # pos is the position of node's first point; returns the one after its context
        pos += 1
        for k, c in enumerate(node):
            pos += 1  # the point before block k
            p = path + (k,)
            d, leaf = 0, c
            while len(leaf) == 1:
                leaf, d = leaf[0], d + 1
            if leaf:
                pos = walk(c, p, pos)
            else:  # a linear block: a disc of 2d+1 variables
                out.append((p, pos + 2 * d, len(p) + d))
                pos += 2 * d + 1
        return pos

    walk(t, (), 0)
    return tuple(out)


def locally_maximal_positions(t: Tree) -> tuple:
    """Context positions of the locally maximal variables of a tree.

    The empty tree has no branches but its single variable is still
    locally maximal.
    """
    if not t:
        return (0,)
    return tuple(v for _, v, _ in branch_table(t))


@dataclass(frozen=True)
class InsertionRedex:
    S: Tree
    P: Branch
    T: Tree
    outer: Sub  # from S's context into the ambient context
    inner: Sub  # from T's context into the ambient context


def inserted_tree(s: Tree, p: Branch, t: Tree) -> Tree:
    _require_trunk(s, p, t)
    k = p[0]
    if len(p) == 1:
        return s[:k] + t + s[k + 1:]
    # bh >= 1 forces t = (t0,)
    return s[:k] + (inserted_tree(s[k], p[1:], t[0]),) + s[k + 1:]


def _descend(s: Tree, p: Branch, t: Tree):
    """One pass down P: the interior substitution, then for the exterior
    one the position of the innermost block's target point, that block
    and T's innermost tree."""
    _require_trunk(s, p, t)
    poles, off = [], 0
    for k in p[:-1]:
        pts = point_positions(s)
        poles += (Var(off + pts[k]), Var(off + pts[k + 1]))
        off += block_starts(s)[k]
        s, t = s[k], t[0]
    k = p[-1]
    pts = point_positions(s)
    a = off + pts[k + 1]
    iota = tuple(poles) + (Var(off + pts[k]),) + id_sub(a + ctx_len(t) - 1)[a:]
    return iota, a, s[k], t


def interior_sub(s: Tree, p: Branch, t: Tree) -> Sub:
    """T's context into the inserted tree's.

    The poles of block p[i] at each level i above the innermost, then
    T's innermost tree as a window: the innermost block's source point,
    then a run from its target point.  This equals the paper's
    induction on branch height, which suspends the interior
    substitution one level down and includes it as child p[0].
    """
    return _descend(s, p, t)[0]


def exterior_sub(s: Tree, p: Branch, t: Tree) -> Sub:
    """S's context into the inserted tree's, by splicing three runs.

    Before the innermost block's target point every variable keeps its
    position and after the block every variable keeps its distance from
    the end; only the block and its target point move.  The block is
    linear, a disc of 2d+1 variables, so with its target point it takes
    the last 2d+2 entries of the disc substitution of the unbiased cell
    ``Coh(T, U, iota)``, ``U = unbiased_type(leaf_height, T)``.

    The paper defines this by induction on branch height through
    suspension; the splice agrees at every height because suspension
    commutes with unbiased types:
    ``suspend_type(unbiased_type(n, t)) == unbiased_type(n + 1, (t,))``.
    """
    iota, a, block, inner = _descend(s, p, t)
    m = ctx_len(block)
    ty = unbiased_type(len(p) + (m - 1) // 2, t)
    cell = disc_sub(apply_sub_type(ty, iota), Coh(t, ty, iota))
    nr = ctx_len(s) + ctx_len(inner) - m - 2
    return id_sub(a) + cell[-m - 1:] + id_sub(nr)[a + ctx_len(inner) - 1:]


def inserted_sub(sigma: Sub, p: Branch, tau: Sub, s: Tree, t: Tree) -> Sub:
    """Splice tau's entries over sigma's at branch p.

    tau's points replace sigma's points k and k+1; at branch height 0
    its blocks replace block k, above that its one block is spliced
    into block k.
    """
    _require_trunk(s, p, t)
    k = p[0]
    pts = point_positions(s)
    lo = block_starts(s)[k]
    hi = lo + ctx_len(s[k])
    if len(p) == 1:
        mid = tau[1:]
    else:
        mid = (tau[1],) + inserted_sub(sigma[lo:hi], p[1:], tau[2:], s[k], t[0])
    return sigma[:pts[k]] + (tau[0],) + sigma[pts[k] + 1:pts[k + 1]] + mid + sigma[hi:]


def find_redexes(term: Term):
    """All insertion redexes of a coherence term, in branch order."""
    if not isinstance(term, Coh) or is_identity(term):
        return []
    s, args = term.head, term.args
    out = []
    for p, v, lh in branch_table(s):
        arg = args[v]
        # the cell's dimension first: matching the unbiased type hashes arg's tree
        if not isinstance(arg, Coh) or dim_type(arg.cell) != lh:
            continue
        t = arg.head
        if arg.cell != unbiased_type(lh, t):
            continue
        d = tree_dim(t)
        # only unbiased composites and identities insert
        if not (lh == d or (lh == d + 1 and is_linear(t))):
            continue
        if branch_height(p) > trunk_height(t):
            continue
        out.append(InsertionRedex(s, p, t, args, arg.args))
    return out
