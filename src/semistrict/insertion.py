"""Insertion: grafting an argument's pasting tree into the head tree.

A branch is a nonempty index path into a tree whose indexed subtree is
linear; it stands for the locally maximal variable of that subtree.
Each locally maximal variable has one canonical branch, the shortest
path whose subtree is linear (equivalently, the path into the maximal
linear suffix below the deepest branch point), which is the most
permissive representative for the trunk-height side condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .syntax import Coh, KernelError, Sub, Term, Tree, apply_sub_type, compose, id_sub
from .trees import (
    block_starts, child_incl, ctx_len, is_linear, point_positions, subtree,
    suspend_sub, tree_dim, trunk_height, window_incl,
)
from .unbiased import disc_sub, is_identity, is_unbiased_coh, unbiased_type


class HeightMismatch(Exception):
    """Trunk height of the argument tree is below the branch height."""


class NotRedex(Exception):
    """Substitution splice attempted outside an insertion point."""


Branch = tuple


def is_branch(s: Tree, p: Branch) -> bool:
    if not p:
        return False
    try:
        return is_linear(subtree(s, p))
    except IndexError:
        return False


def branch_height(p: Branch) -> int:
    return len(p) - 1


def leaf_height(s: Tree, p: Branch) -> int:
    return len(p) + tree_dim(subtree(s, p))


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


def canonical_branches(t: Tree) -> tuple:
    """One branch per locally maximal variable, in lexicographic order."""
    return tuple(p for p, _, _ in branch_table(t))


def branch_var(s: Tree, p: Branch) -> int:
    """Context position of the locally maximal variable the branch names."""
    # every branch extends exactly one canonical branch, naming its variable
    for q, v, _ in branch_table(s):
        if p[:len(q)] == q:
            return v
    raise KernelError(f"{p} is not a branch of {s}")


def locally_maximal_positions(t: Tree) -> tuple:
    """Context positions of the locally maximal variables of a tree.

    The empty tree has no branches but its single variable is still
    locally maximal.
    """
    if not t:
        return (0,)
    return tuple(v for _, v, _ in branch_table(t))


@dataclass(frozen=True)
class InsertionPoint:
    S: Tree
    P: Branch
    T: Tree

    def __post_init__(self):
        if not is_branch(self.S, self.P):
            raise KernelError(f"{self.P} is not a branch of {self.S}")
        if branch_height(self.P) > trunk_height(self.T):
            raise HeightMismatch(
                f"branch height {branch_height(self.P)} exceeds trunk height "
                f"{trunk_height(self.T)}")


@dataclass(frozen=True)
class InsertionRedex:
    S: Tree
    P: Branch
    T: Tree
    outer: Sub  # from S's context into the ambient context
    inner: Sub  # from T's context into the ambient context


def inserted_tree(s: Tree, p: Branch, t: Tree) -> Tree:
    if branch_height(p) > trunk_height(t):
        raise HeightMismatch(
            f"cannot insert {t} at branch {p} of {s}: trunk too short")
    k = p[0]
    if len(p) == 1:
        return s[:k] + t + s[k + 1:]
    # bh >= 1 forces t = (t0,)
    return s[:k] + (inserted_tree(s[k], p[1:], t[0]),) + s[k + 1:]


def interior_sub(s: Tree, p: Branch, t: Tree) -> Sub:
    r = inserted_tree(s, p, t)
    k = p[0]
    if len(p) == 1:
        return window_incl(r, k, t)
    rec = interior_sub(s[k], p[1:], t[0])
    return compose(suspend_sub(rec), child_incl(r, k))


def exterior_sub(s: Tree, p: Branch, t: Tree) -> Sub:
    """S's context into the inserted tree's, by splicing three runs.

    Before block k every variable keeps its position and after it every
    variable keeps its distance from the end; only block k moves.
    """
    r = inserted_tree(s, p, t)
    k = p[0]
    lo = block_starts(s)[k]
    hi = lo + ctx_len(s[k])
    nr = ctx_len(r)
    tail = id_sub(nr)[nr - ctx_len(s) + hi:]
    if len(p) == 1:
        # the grafted child: S_k is linear, so its suspension is a disc
        # mapping through the unbiased cell over t; the disc's target
        # point (position lo - 1) goes to the window's last point
        ty = unbiased_type(1 + tree_dim(s[k]), t)
        w = window_incl(r, k, t)
        return id_sub(lo - 1) + disc_sub(apply_sub_type(ty, w), Coh(t, ty, w))[1:] + tail
    rec = compose(suspend_sub(exterior_sub(s[k], p[1:], t[0])), child_incl(r, k))
    return id_sub(lo) + rec[2:] + tail


def inserted_sub(sigma: Sub, p: Branch, tau: Sub, s: Tree, t: Tree) -> Sub:
    """Splice tau's entries over sigma's at branch p.

    tau's points replace sigma's points k and k+1; at branch height 0
    its blocks replace block k, above that its one block is spliced
    into block k.
    """
    if branch_height(p) > trunk_height(t):
        raise NotRedex(
            f"branch height {branch_height(p)} exceeds trunk height {trunk_height(t)}")
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
        if not isinstance(arg, Coh):
            continue
        m = is_unbiased_coh(arg)
        if m is None:
            continue
        n, t, tau = m
        if n != lh:
            continue
        if not (n == tree_dim(t) or is_identity(arg)):
            continue  # only unbiased composites and identities insert
        if branch_height(p) > trunk_height(t):
            continue
        out.append(InsertionRedex(s, p, t, term.args, tau))
    return out
