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

from .syntax import Coh, KernelError, Sub, Term, Tree, Var, apply_sub_term, compose
from .trees import (
    block_starts, child_incl, ctx_len, is_linear, point_positions, subtree,
    suspend_sub, tree_dim, trunk_height, window_incl,
)
from .unbiased import is_identity, is_unbiased_coh, unbiased_coh, unbiased_type, disc_sub


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
def branch_var(s: Tree, p: Branch) -> int:
    """Context position of the locally maximal variable the branch names."""
    k = p[0]
    off = block_starts(s)[k]
    if len(p) == 1:
        return off + ctx_len(s[k]) - 1
    return off + branch_var(s[k], p[1:])


def leaf_paths(t: Tree):
    if not t:
        yield ()
        return
    for k, c in enumerate(t):
        for rest in leaf_paths(c):
            yield (k,) + rest


@lru_cache(maxsize=None)
def canonical_branches(t: Tree) -> tuple:
    """One branch per locally maximal variable, in lexicographic order."""
    out = []
    for path in leaf_paths(t):
        if not path:
            continue  # the empty tree has no branches
        for i in range(1, len(path) + 1):
            if is_linear(subtree(t, path[:i])):
                out.append(path[:i])
                break
    return tuple(sorted(out))


def locally_maximal_positions(t: Tree) -> tuple:
    """Context positions of the locally maximal variables of a tree.

    The empty tree has no branches but its single variable is still
    locally maximal.
    """
    if not t:
        return (0,)
    return tuple(branch_var(t, p) for p in canonical_branches(t))


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
    r = inserted_tree(s, p, t)
    k = p[0]
    n, m = len(s), len(t)
    spts, sbs = point_positions(s), block_starts(s)
    rpts, rbs = point_positions(r), block_starts(r)
    out = [None] * ctx_len(s)
    if len(p) == 1:
        for j in range(n + 1):
            out[spts[j]] = Var(rpts[j] if j <= k else rpts[j + m - 1])
        for i in range(n):
            if i == k:
                continue
            ri = i if i < k else i + m - 1
            for j in range(ctx_len(s[i])):
                out[sbs[i] + j] = Var(rbs[ri] + j)
        # the grafted child: S_k is linear, so its suspension is a disc
        # mapping through the unbiased cell over t
        lh = 1 + tree_dim(s[k])
        w = window_incl(r, k, t)
        dvec = disc_sub(unbiased_type(lh, t), unbiased_coh(lh, t))
        for j in range(ctx_len(s[k])):
            out[sbs[k] + j] = apply_sub_term(dvec[2 + j], w)
    else:
        for j in range(n + 1):
            out[spts[j]] = Var(rpts[j])
        for i in range(n):
            if i == k:
                rec = compose(suspend_sub(exterior_sub(s[k], p[1:], t[0])),
                              child_incl(r, k))
                for j in range(ctx_len(s[k])):
                    out[sbs[k] + j] = rec[2 + j]
            else:
                for j in range(ctx_len(s[i])):
                    out[sbs[i] + j] = Var(rbs[i] + j)
    return tuple(out)


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
    s = term.head
    out = []
    for p in canonical_branches(s):
        arg = term.args[branch_var(s, p)]
        m = is_unbiased_coh(arg)
        if m is None:
            continue
        n, t, tau = m
        if n != leaf_height(s, p):
            continue
        if not (n == tree_dim(t) or is_identity(arg)):
            continue  # only unbiased composites and identities insert
        if branch_height(p) > trunk_height(t):
            continue
        out.append(InsertionRedex(s, p, t, term.args, tau))
    return out
