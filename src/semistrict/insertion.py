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
variables around that block, at every branch height, and all three
splices take P's positions in S's context from its ``branch_table``
row: the poles of P's blocks, the innermost block's target point and
the branch variable.  The paper defines the substitutions by induction
on branch height through suspension; the splices agree with it because
suspension commutes with unbiased types,
``suspend_type(unbiased_type(n, t)) == unbiased_type(n + 1, (t,))``.

What one insertion builds grows only with what the new head keeps: its
children and its arguments are each one new tuple, no run of the old
ones copied more than three times (``_graft``, ``inserted_sub``), and
the exterior substitution is as long as S's context, the window onto T
(iota) read one entry at a time and built whole only inside the
unbiased cell (``exterior_sub``).

A redex is the ``branch_table`` row ``(P, v, leaf height, positions)``
of its branch in the head S, and the term holds the rest: S is its
head, sigma its arguments, and its argument at v the coherence whose
tree T and arguments tau are inserted.  A head's redexes are found by
one scan (``find_redexes``) and then carried from each head to the next
(``carry_redexes``).  Outside the spliced block every branch keeps its
argument, its branch height and its leaf height, so each later redex
only moves: its positions after the block by the change in arity, its
child index at the block's level by the block's change in width.  The
block itself adds no redex when the inserted argument is a non-identity
composite: that argument is normal, so none of its own branches is a
redex, and each of them keeps its argument and heights in the new head.
An identity is the exception.  Inserting it lowers its block's
dimension by one, so the one branch it leaves behind has a new argument
(the cell the identity is on) or, when the block goes altogether and
its parent keeps a single linear child, a shorter canonical branch;
that one branch is examined again.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    Coh, Sub, Term, Tree, Type, Var, apply_sub_term, apply_sub_type, dim_type,
    id_sub, tree, var_run,
)
from .trees import is_linear, trunk_height
from .unbiased import is_identity, unbiased_type


class HeightMismatch(Exception):
    """Trunk height of the argument tree is below the branch height."""


Branch = tuple


def branch_height(p: Branch) -> int:
    return len(p) - 1


def branch_table(t: tuple) -> tuple:
    """(branch, variable position, leaf height, positions) per canonical
    branch, kept on the tree as ``branches``.  The positions are the
    source and target points of the branch's block at each level, then
    the branch variable.

    One walk in branch (lexicographic) order: a child whose subtree is
    linear ends a canonical branch at the top variable of its block,
    any other child is walked into.
    """
    try:
        return t.branches
    except AttributeError:  # not built yet, or a plain tuple
        t = Tree(t)
    rows = t.__dict__.get("branches")
    if rows is None:
        out = []
        _branch_walk(t, (), 0, (), out)
        rows = t.__dict__["branches"] = tuple(out)
    return rows


def _branch_walk(node: Tree, path: Branch, src: int, poles: tuple, out: list) -> int:
    # src is the position of node's first point; returns the one after its context
    # (a module function: a recursive closure would be a reference cycle)
    tgt = src + 1
    for k, c in enumerate(node):
        # block k lies between the points at src and tgt, its variables after tgt
        p, at = path + (k,), poles + (src, tgt)
        d, leaf = 0, c
        while len(leaf) == 1:
            leaf, d = leaf[0], d + 1
        if leaf:
            end = _branch_walk(c, p, tgt + 1, at, out)
        else:  # a linear block: a disc of 2d+1 variables
            v = tgt + 1 + 2 * d
            out.append((p, v, len(p) + d, at + (v,)))
            end = v + 1
        src, tgt = tgt, end
    return tgt


def locally_maximal_positions(t: Tree) -> tuple:
    """Context positions of the locally maximal variables of a tree.

    The empty tree has no branches but its single variable is still
    locally maximal.
    """
    if not t:
        return (0,)
    return tuple(row[1] for row in branch_table(t))


def _graft(s: Tree, p: Branch, t: Tree) -> Tree:
    """The new tree, its dimension and size read off the splice.

    At each level one child, the block on P's path, becomes the new
    child or, innermost, t's children.  Unless that lowers the block,
    as an identity's does, the new dimension is the larger of the old
    one and the new block's.
    """
    k = p[0]
    old = s[k]
    if len(p) == 1:
        dim = max(s.dim, t.dim) if t.dim > old.dim else None
        # t is a Tree, not a plain tuple, so () + t copies it: at child 0
        # start from t, and t is copied once
        kids = s[:k] + t + s[k + 1:] if k else t + s[1:]
        return tree(kids, dim, s.size + t.size - old.size - 2)
    # bh >= 1 forces t = (t0,)
    new = _graft(old, p[1:], t[0])
    dim = max(s.dim, new.dim + 1) if new.dim >= old.dim else None
    return tree(s[:k] + (new,) + s[k + 1:], dim, s.size - old.size + new.size)


def inserted_tree(s: Tree, p: Branch, t: Tree) -> Tree:
    if branch_height(p) > trunk_height(t):
        raise HeightMismatch(f"cannot insert {t} at branch {p} of {s}: trunk too short")
    return _graft(Tree(s), p, Tree(t))


def _innermost(p: Branch, t: Tree) -> Tree:
    """T's tree at P's innermost level: T has a trunk that tall."""
    for _ in p[1:]:
        t = t[0]
    return t


class _Window:
    """iota, T's context into the inserted tree's, read one entry at a
    time and never built: the poles of P's blocks, then a run of
    variables from the innermost block's target point.

    ``apply_sub_term`` reads only its length and the entries the term
    pushed through it mentions; ``entries()`` builds the whole tuple.
    """

    __slots__ = ("poles", "shift", "n")
    __iter__ = None  # an index past the end raises nothing, so no iteration

    def __init__(self, at: tuple, inner: Tree):
        self.poles = tuple(map(Var, at[:-2]))
        self.shift = at[-2] - len(self.poles)
        self.n = len(self.poles) + inner.size - 1

    def __len__(self):
        return self.n

    def __getitem__(self, i: int):
        return self.poles[i] if i < len(self.poles) else Var(i + self.shift)

    def entries(self) -> Sub:
        return self.poles + var_run(len(self.poles) + self.shift, self.n + self.shift)


def exterior_sub(s: Tree, p: Branch, t: Tree, at: tuple,
                 cell: Optional[Type] = None):
    """S's context into the inserted tree's, P at positions ``at``, by
    splicing three runs.

    Before the innermost block's target point every variable keeps its
    position and after the block every variable keeps its distance from
    the end; only the block and its target point move.  The block is
    linear, a disc of 2d+1 variables, so with its target point it takes
    the last 2d+2 entries of the disc substitution of the unbiased cell
    ``Coh(T, U, iota)``, ``U = unbiased_type(leaf_height, T)``.

    Only those entries are built: the block's boundary in T, pushed
    along iota one entry at a time (``_Window``), then the cell itself.
    The substitution is then one tuple as long as S's context, its runs
    before and after the block each one slice of the interned
    variables, so nothing in it grows with T.  Given ``cell``, a type
    over S, the result is instead ``cell`` pushed along it.  A type
    mentions only variables below its dimension, so when that is at most
    the leaf height the branch variable's image, the unbiased cell, is
    not built, and neither is the whole of iota, which only it holds.

    The paper defines this by induction on branch height through
    suspension; the splice agrees at every height because suspension
    commutes with unbiased types:
    ``suspend_type(unbiased_type(n, t)) == unbiased_type(n + 1, (t,))``.
    """
    s, t = Tree(s), Tree(t)
    inner = _innermost(p, t)
    iota = _Window(at, inner)
    a, v = at[-2], at[-1]
    m = v - a  # the block's 2d+1 variables
    lh = len(p) + (m - 1) // 2
    ty = unbiased_type(lh, t)
    # U's iterated boundary from the top down to P's innermost level
    pieces, level = [], ty
    for _ in range(m // 2):
        pieces += (level.tgt, level.src)
        level = level.base
    pieces.append(level.tgt)
    memo = {}
    block = [apply_sub_term(x, iota, memo) for x in reversed(pieces)]
    # cell never reads the branch variable's entry when it is left as None
    block.append(Coh(t, ty, iota.entries())
                 if cell is None or dim_type(cell) > lh else None)
    b = a + inner.size - 1  # the first position after the window
    kappa = id_sub(a) + tuple(block) + var_run(b, b + s.size - v - 1)
    return kappa if cell is None else apply_sub_type(cell, kappa)


def inserted_sub(sigma: Sub, tau: Sub, at: tuple) -> Sub:
    """Splice tau's entries over sigma's at the branch at positions ``at``.

    tau's poles replace sigma's at each level and the rest of tau
    replaces the innermost block with its target point: at branch
    height 0 tau's blocks replace block k, above that its one block is
    spliced into block k.

    One list is built, from tau, and sigma's runs before and after the
    block are spliced around it, so no run is copied again by a later
    concatenation; the result is that list's one tuple.
    """
    h, a = len(at) - 2, at[-2]
    out = list(tau)
    out[:h] = sigma[:a]  # sigma's run before the block, over tau's poles
    for i in range(h):
        out[at[i]] = tau[i]
    out += sigma[at[-1] + 1:]
    return tuple(out)


def _inserts(arg: Coh, p: Branch, lh: int) -> bool:
    """Whether the coherence at branch p, of leaf height lh, makes an
    insertion redex there."""
    t = arg.head
    d = t.dim
    # only unbiased composites and identities insert; the shape is tested
    # first, so no unbiased type is built above a non-linear t's dimension
    if not (lh == d or (lh == d + 1 and is_linear(t))):
        return False
    if arg.cell != unbiased_type(lh, t):
        return False
    return len(p) - 1 <= trunk_height(t)


def find_redexes(term: Term) -> list:
    """The insertion redexes of a coherence term, in branch order: the
    rows of its head's ``branch_table`` whose argument inserts."""
    if not isinstance(term, Coh) or is_identity(term):
        return []
    args, out = term.args, []
    for row in branch_table(term.head):
        arg = args[row[1]]
        if isinstance(arg, Coh) and _inserts(arg, row[0], row[2]):
            out.append(row)
    return out


def _left_behind(s: Tree, p: Branch, at: tuple, inner: Tree, delta: int):
    """(branch, positions) of the branch an identity inserted at p
    leaves behind in the new tree s, or None.

    A nonempty window is a disc one dimension down, at p itself.  An
    empty one removes the block, and if that leaves its parent with a
    single linear child, that child's canonical branch shortens to the
    first prefix of p whose subtree is now linear.
    """
    if inner:
        return p, at[:-1] + (at[-1] + delta,)
    node = s
    for i, k in enumerate(p[:-1]):
        node = node[k]
        if is_linear(node):
            # the same block p[i], now linear, ends in the sibling's variable
            return p[:i + 1], at[:2 * i + 2] + (at[2 * i + 1] + node.size,)
    return None


def carry_redexes(redexes: list, before: Coh, term: Coh) -> list:
    """The insertion redexes of ``term``, the result of applying
    ``redexes[0]`` to ``before``, whose redexes those are, without a scan.

    Equal to ``find_redexes(term)`` (so an identity has none) when the
    inserted argument is normal, as every argument is where the
    normalizer inserts; see the module docstring.  A redex moved or left
    behind is a new row, with the positions and branch it has in
    ``term``'s head.
    """
    p, v, lh, at = redexes[0]
    t = before.args[v].head
    # an identity: one dimension below the leaf height, as the redex inserts
    identity = lh == t.dim + 1
    rest = redexes[1:]
    if not (identity or rest) or is_identity(term):
        return []
    s, args = term.head, term.args
    h, a = len(p) - 1, at[-2]
    inner = _innermost(p, t)
    delta = len(args) - len(before.args)
    out = []
    if rest:
        # where the block's target point, the next block's source, lands:
        # inner's last point, just before its last child's block
        moved = a - 1 + inner.size - inner[-1].size - 1 if inner else at[-3]
        for qp, _, qlh, qat in rest:
            if qp[:h] == p[:h]:  # the next block at p's level: shift past the window
                qp = qp[:h] + (qp[h] + len(inner) - 1,) + qp[h + 1:]
            qat = tuple(x if x < a else x + delta if x > a else moved for x in qat)
            out.append((qp, qat[-1], qlh, qat))
    if identity:
        left = _left_behind(s, p, at, inner, delta)
        if left is not None:
            lp, lat = left
            out = [q for q in out if q[0][:len(lp)] != lp]
            llh = len(lp) + (lat[-1] - lat[-2] - 1) // 2
            arg = args[lat[-1]]
            if isinstance(arg, Coh) and _inserts(arg, lp, llh):
                out.insert(0, (lp, lat[-1], llh, lat))
    return out
