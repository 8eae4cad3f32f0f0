"""Random generators, independent oracles and metatheory helpers.

Nothing in the kernel imports this module: the CLI loads it only for
``report``, and the tests for the rest.  The oracles here are
deliberately separate code paths from the kernel: the pasting oracle
replays the original derivation rules for pasting contexts on raw
contexts, and the boundary support oracle reads boundary membership off
variable occurrences instead of the tree inclusions; ``one_step``, which
``reduction_graph`` closes terms under, enumerates every step under
congruence.  The metatheory helpers are the ordinal measure behind
termination (syntactic complexity), the inverse of ``tree_to_ctx``,
recognizers for unbiased coherences and the branch bookkeeping of
insertion points, with any branch's positions found by a walk
(``branch_at``) and the interior substitution built whole
(``interior_sub``), references for what the kernel reads off a branch
row.  Generators are seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .syntax import (
    Arrow, Coh, Context, KernelError, STAR, Star, Sub, Term, Tree, Type, Var,
    compose, dim_type, id_sub, tree, var_run,
)
from .trees import (
    disc, is_linear, point_positions, tree_to_ctx, trunk_height,
)
from .insertion import (
    Branch, HeightMismatch, branch_height, branch_table, exterior_sub,
    inserted_tree, locally_maximal_positions,
)
from .unbiased import identity_term, is_identity, unbiased_type
from .rewriting import def_eq, head_steps, normalize
from .check import infer_term


# --- ordinals below omega^omega ---------------------------------------------

@dataclass(frozen=True, slots=True)
class OrdinalPoly:
    """Polynomial in omega: ((exponent, coefficient), ...) sorted descending."""

    terms: tuple = ()

    def __post_init__(self):
        es = [e for e, _ in self.terms]
        if es != sorted(es, reverse=True) or len(set(es)) != len(es):
            raise KernelError("ordinal terms must be sorted by exponent")
        if any(c <= 0 for _, c in self.terms):
            raise KernelError("ordinal coefficients must be positive")

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append("w" if c == 1 else f"{c}w")
            else:
                bits.append(f"w^{e}" if c == 1 else f"{c}w^{e}")
        return " + ".join(bits)


ORD_ZERO = OrdinalPoly()


def omega_pow(e: int, c: int = 1) -> OrdinalPoly:
    return OrdinalPoly(((e, c),)) if c else ORD_ZERO


def natural_sum(a: OrdinalPoly, b: OrdinalPoly) -> OrdinalPoly:
    coeffs = dict(a.terms)
    for e, c in b.terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return OrdinalPoly(tuple(sorted(coeffs.items(), reverse=True)))


def ord_lt(a: OrdinalPoly, b: OrdinalPoly) -> bool:
    """Lexicographic from the highest exponent down: on canonical terms
    (exponents descending, coefficients positive), tuple comparison."""
    return a.terms < b.terms


def syntactic_complexity(x) -> OrdinalPoly:
    """The termination measure: it strictly decreases along every
    reduction step that does not pass through a coherence's cell type."""
    if isinstance(x, Var):
        return ORD_ZERO
    if isinstance(x, Coh):
        d = dim_type(x.cell)
        head = omega_pow(d, 1 if is_identity(x) else 2)
        return natural_sum(head, syntactic_complexity(x.args))
    if isinstance(x, tuple):
        acc = ORD_ZERO
        for t in x:
            acc = natural_sum(acc, syntactic_complexity(t))
        return acc
    raise KernelError(f"syntactic complexity undefined for {x!r}")


@dataclass(frozen=True)
class GenConfig:
    max_depth: int = 2
    max_width: int = 2
    max_nesting: int = 3
    max_dim: int = 3
    seed: int = 0

    def __post_init__(self):
        if min(self.max_depth, self.max_width, self.max_nesting, self.max_dim) < 1:
            raise ValueError("all generator caps must be at least 1")


# --- trees ------------------------------------------------------------------

def gen_tree(rng: random.Random, cfg: GenConfig) -> Tree:
    def go(depth: int) -> Tree:
        if depth >= cfg.max_depth:
            return tree(())
        width = rng.randint(0, cfg.max_width)
        return tree(tuple([go(depth + 1) for _ in range(width)]))

    t = go(0)
    return t if t else tree((t,))  # context generation wants at least one cell


def gen_tree_of_dim(rng: random.Random, d: int, width: int = 2) -> Tree:
    """A random tree of dimension exactly d."""
    if d == 0:
        return tree(())
    kids = [gen_tree_of_dim(rng, d - 1, width)]
    for _ in range(rng.randint(0, width - 1)):
        kids.append(gen_tree_of_dim(rng, rng.randint(0, d - 1), width))
    rng.shuffle(kids)
    return tree(tuple(kids))


@lru_cache(maxsize=None)
def trees_with_nodes(n: int) -> tuple:
    if n <= 0:
        return ()
    if n == 1:
        return (tree(()),)
    out = []

    def go(remaining: int, acc: list):
        if remaining == 0:
            out.append(tree(tuple(acc)))
            return
        for k in range(1, remaining + 1):
            for child in trees_with_nodes(k):
                acc.append(child)
                go(remaining - k, acc)
                acc.pop()

    go(n - 1, [])
    return tuple(out)


def enumerate_trees(max_nodes: int):
    for n in range(1, max_nodes + 1):
        yield from trees_with_nodes(n)


# --- context to tree ----------------------------------------------------------

class NotPastingError(Exception):
    """A context failed to parse as a pasting context."""

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"not a pasting context (entry {position}): {reason}")


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
        return tree(())
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
            except KeyError:
                raise NotPastingError(p, "cell crosses its gluing points") from None
            entries.append((ctx.name_of(p), _strip_suspension(ty, p)))
        children.append(ctx_to_tree(Context(tuple(entries))))
    return tree(tuple(children))


def _renumber_type(ty: Type, renum: dict, pos: int) -> Type:
    if isinstance(ty, Star):
        return ty
    if not isinstance(ty.src, Var) or not isinstance(ty.tgt, Var):
        raise NotPastingError(pos, "cell boundary is not a variable")
    return Arrow(Var(renum[ty.src.idx]), _renumber_type(ty.base, renum, pos),
                 Var(renum[ty.tgt.idx]))


# --- unbiased recognizers --------------------------------------------------------

def match_disc_sub(sub: Sub) -> Tuple[Type, Term]:
    """Inverse of disc_sub for substitutions out of a disc."""
    if len(sub) % 2 == 0:
        raise KernelError(f"disc substitution must have odd arity, got {len(sub)}")
    a: Type = STAR
    for i in range((len(sub) - 1) // 2):
        a = Arrow(sub[2 * i], a, sub[2 * i + 1])
    return a, sub[-1]


def is_unbiased_coh(t: Term) -> Optional[Tuple[int, Tree, Sub]]:
    """Match t against an unbiased coherence; returns (n, head, args)."""
    if not isinstance(t, Coh):
        return None
    n = dim_type(t.cell)
    if t.cell == unbiased_type(n, t.head):
        return n, t.head, t.args
    return None


def is_unbiased_composite(t: Term) -> bool:
    m = is_unbiased_coh(t)
    return m is not None and m[0] == m[1].dim


# --- branches ------------------------------------------------------------------

def subtree(t: Tree, path) -> Tree:
    for k in path:
        t = t[k]
    return t


def is_branch(s: Tree, p: Branch) -> bool:
    if not p:
        return False
    try:
        return is_linear(subtree(s, p))
    except IndexError:
        return False


def leaf_height(s: Tree, p: Branch) -> int:
    return len(p) + subtree(Tree(s), p).dim


def canonical_branches(t: Tree) -> tuple:
    """One branch per locally maximal variable, in lexicographic order."""
    return tuple(row[0] for row in branch_table(t))


def branch_var(s: Tree, p: Branch) -> int:
    """Context position of the locally maximal variable the branch names."""
    # every branch extends exactly one canonical branch, naming its variable
    for q, v, _, _ in branch_table(s):
        if p[:len(q)] == q:
            return v
    raise KernelError(f"{p} is not a branch of {s}")


def branch_at(s: Tree, p: Branch, t: Tree) -> tuple:
    """P's positions in S's context, for inserting T there: the source and
    target points of block p[i] at each level i, then the branch variable.

    A walk over any branch, raising ``HeightMismatch`` when T's trunk is
    too short for P; the kernel reads a canonical branch's positions off
    its ``branch_table`` row.
    """
    s = Tree(s)
    if branch_height(p) > trunk_height(t):
        raise HeightMismatch(f"cannot insert {t} at branch {p} of {s}: trunk too short")
    out, off = [], 0
    for k in p:
        pts = point_positions(s)
        out += (off + pts[k], off + pts[k + 1])
        off += pts[k + 1] + 1  # a block starts just after its target point
        s = s[k]
    out.append(off + s.size - 1)
    return tuple(out)


def interior_sub(p: Branch, t: Tree, at: tuple) -> Sub:
    """T's context into the inserted tree's, P at positions ``at``, built
    whole; the kernel reads it one entry at a time (``insertion._Window``).

    The poles of block p[i] at each level i above the innermost, then
    T's innermost tree as a window: the innermost block's source point,
    then a run from its target point.  This equals the paper's
    induction on branch height, which suspends the interior
    substitution one level down and includes it as child p[0].
    """
    inner = subtree(Tree(t), (0,) * branch_height(p))
    return tuple(map(Var, at[:-2])) + var_run(at[-2], at[-2] + inner.size - 1)


# --- well-typed term generation ----------------------------------------------

class TermGen:
    """Bottom-up pool of well-typed terms over a fixed context.

    New terms are identities on pool members, unbiased coherences over
    small trees labelled by endpoint-compatible chains from the pool,
    and rebracketing coherences between two bracketings of a chain.
    """

    def __init__(self, ctx: Context, cfg: GenConfig, rng: random.Random):
        self.ctx = ctx
        self.cfg = cfg
        self.rng = rng
        self.pool: List[Tuple[Term, Type, int]] = []  # (term, type, nesting)
        self.by_key: Dict[tuple, List[int]] = {}
        self.objects: List[int] = []
        for i in range(len(ctx)):
            self.add(Var(i), nesting=0)

    def add(self, t: Term, nesting: int) -> Optional[int]:
        ty = infer_term(self.ctx, t)
        if dim_type(ty) > self.cfg.max_dim:
            return None
        idx = len(self.pool)
        self.pool.append((t, ty, nesting))
        if isinstance(ty, Star):
            self.objects.append(idx)
        else:
            key = (normalize(ty.base), normalize(ty.src))
            self.by_key.setdefault(key, []).append(idx)
        return idx

    def pick_object(self) -> Term:
        return self.pool[self.rng.choice(self.objects)][0]

    def pick_step(self, at: Term, base: Type) -> Tuple[Term, Term]:
        """A cell leaving `at` over `base`, with its target endpoint."""
        if dim_type(base) + 1 <= self.cfg.max_dim:
            key = (normalize(base), normalize(at))
            cands = self.by_key.get(key, ())
            if cands and self.rng.random() < 0.8:
                t, ty, _ = self.pool[self.rng.choice(cands)]
                return t, ty.tgt
        return identity_term(base, at), at

    def gen_args(self, t: Tree, base: Type, start: Term) -> list:
        """Arguments for a pasting tree whose first point is `start`, in
        context layout order: each child's target point comes before its
        block, which is also the order they are drawn in."""
        out, point = [start], start
        for child in t:
            cell, nxt = self.pick_step(point, base)
            out.append(nxt)
            out += self.gen_args(child, Arrow(point, base, nxt), cell)
            point = nxt
        return out

    def gen_sub(self, t: Tree) -> Sub:
        """A random well-typed substitution out of a pasting tree."""
        return tuple(self.gen_args(t, STAR, self.pick_object()))

    def small_tree(self, max_dim: int) -> Tree:
        d = self.rng.randint(1, max_dim)
        return gen_tree_of_dim(self.rng, d, self.cfg.max_width)

    def gen_bracketing(self, chain: Tree, lo: int, hi: int) -> Term:
        """Random bracketed composite of arrows lo..hi of a 1-dim chain."""
        pts = point_positions(chain)
        bs = [2 + 2 * i for i in range(len(chain))]
        if hi - lo == 1:
            return Var(bs[lo])
        cut = self.rng.randint(lo + 1, hi - 1)
        left = self.gen_bracketing(chain, lo, cut)
        right = self.gen_bracketing(chain, cut, hi)
        args = (Var(pts[lo]), Var(pts[cut]), left, Var(pts[hi]), right)
        two = tree(chain[:2])
        return Coh(two, unbiased_type(1, two), args)

    def grow(self) -> Optional[Term]:
        roll = self.rng.random()
        if roll < 0.25:
            t, ty, nest = self.pool[self.rng.randrange(len(self.pool))]
            if dim_type(ty) + 1 > self.cfg.max_dim or nest + 1 > self.cfg.max_nesting:
                return None
            out = identity_term(ty, t)
            self.add(out, nest + 1)
            return out
        if roll < 0.85:
            head = self.small_tree(self.cfg.max_dim)
            n = head.dim
            if self.rng.random() < 0.35 and n + 1 <= self.cfg.max_dim:
                n += 1  # unbiased coherence one level up: endo shaped
            sub = self.gen_sub(head)
            out = Coh(head, unbiased_type(n, head), sub)
            nest = 1 + max((self._nesting(x) for x in sub), default=0)
            if nest > self.cfg.max_nesting:
                return None
            self.add(out, nest)
            return out
        # rebracketing coherence between two bracketings of a chain
        k = self.rng.randint(2, max(2, self.cfg.max_width + 1))
        chain = tree((tree(()),) * k)
        a = self.gen_bracketing(chain, 0, k)
        b = self.gen_bracketing(chain, 0, k)
        pts = point_positions(chain)
        cell = Arrow(a, Arrow(Var(pts[0]), STAR, Var(pts[-1])), b)
        sub = self.gen_sub(chain)
        out = Coh(chain, cell, sub)
        nest = 1 + max((self._nesting(x) for x in sub), default=0)
        if dim_type(cell) > self.cfg.max_dim or nest > self.cfg.max_nesting:
            return None
        self.add(out, nest)
        return out

    def _nesting(self, t: Term) -> int:
        if isinstance(t, Var):
            return 0
        return 1 + max((self._nesting(a) for a in t.args), default=0)


def gen_population(cfg: GenConfig, count: int):
    """Exactly `count` distinct well-typed (context, term) pairs."""
    rng = random.Random(cfg.seed)
    out = []
    seen = set()
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 50 * count:
            raise RuntimeError("generator exhausted under the configured caps")
        ctx = tree_to_ctx(gen_tree(rng, cfg))
        gen = TermGen(ctx, cfg, rng)
        for _ in range(25):
            t = gen.grow()
            if t is None or isinstance(t, Var):
                continue
            key = (ctx, t)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out[:count]


# --- redex generation ---------------------------------------------------------

def gen_redex(rng: random.Random, cfg: GenConfig) -> Tuple[Coh, tuple]:
    """A random insertion redex built from the canonical pushout square:
    (term, row), the unbiased composite over S of the exterior
    substitution pushed along a random substitution, and the
    ``branch_table`` row of S it inserts at."""
    s = gen_tree(rng, cfg)  # never empty, so it has a branch
    row = rng.choice(branch_table(s))
    p, _, lh, at = row
    bh = branch_height(p)
    if rng.random() < 0.3:
        # identity argument; bh + 1 <= lh always, so the trunk is tall enough
        t = disc(lh - 1)
    else:
        # composite argument: dimension exactly lh with enough trunk
        t = gen_tree_of_dim(rng, lh - bh, cfg.max_width)
        for _ in range(bh):
            t = tree((t,))
    r = inserted_tree(s, p, t)
    if rng.random() < 0.5:
        mu = id_sub(r.size)
    else:
        gamma = tree_to_ctx(gen_tree(rng, cfg))
        gen = TermGen(gamma, cfg, rng)
        for _ in range(rng.randint(0, 6)):
            gen.grow()
        mu = gen.gen_sub(r)
    return Coh(s, unbiased_type(s.dim, s), compose(exterior_sub(s, p, t, at), mu)), row


def enumerate_insertion_points(max_nodes: int):
    """All (S, P, T) insertion points over trees of bounded size."""
    for s in enumerate_trees(max_nodes):
        for p in canonical_branches(s):
            bh = branch_height(p)
            for t in enumerate_trees(max_nodes):
                if trunk_height(t) >= bh:
                    yield s, p, t


# --- maximal equality -----------------------------------------------------------

def eq_max_syntactic(sigma: Sub, tau: Sub, tree: tuple) -> bool:
    """Syntactic agreement of substitutions on locally maximal variables."""
    return all(sigma[i] == tau[i] for i in locally_maximal_positions(tree))


def eq_max_def(sigma: Sub, tau: Sub, tree: tuple) -> bool:
    return all(def_eq(sigma[i], tau[i])
               for i in locally_maximal_positions(tree))


# --- independent oracles ---------------------------------------------------------

def pasting_oracle(ctx: Context) -> bool:
    """Replay of the original pasting-context derivation rules.

    A derivation starts at the initial object, alternately extends with
    a (target, fill) pair after descending to the matching dimension,
    and must come back down to an object at the end.
    """
    n = len(ctx)
    if n == 0 or not isinstance(ctx.type_of(0), Star):
        return False
    focus_var, focus_ty = 0, STAR
    i = 1
    while i < n:
        ty_y = ctx.type_of(i)
        while dim_type(focus_ty) > dim_type(ty_y):
            if not isinstance(focus_ty.tgt, Var):
                return False
            focus_var, focus_ty = focus_ty.tgt.idx, focus_ty.base
        if ty_y != focus_ty:
            return False
        if i + 1 >= n:
            return False
        fill = ctx.type_of(i + 1)
        if fill != Arrow(Var(focus_var), focus_ty, Var(i)):
            return False
        focus_var, focus_ty = i + 1, fill
        i += 2
    while isinstance(focus_ty, Arrow):
        if not isinstance(focus_ty.tgt, Var):
            return False
        focus_var, focus_ty = focus_ty.tgt.idx, focus_ty.base
    return True


def free_vars(x) -> frozenset:
    """The variables a term, type or substitution mentions, as a set: the
    reference for ``syntax.var_mask``, walking shared subterms as a tree."""
    if isinstance(x, Var):
        return frozenset((x.idx,))
    if isinstance(x, Coh):
        return free_vars(x.args)
    if isinstance(x, Star):
        return frozenset()
    if isinstance(x, Arrow):
        return free_vars(x.src) | free_vars(x.base) | free_vars(x.tgt)
    if isinstance(x, tuple):
        return frozenset().union(*map(free_vars, x))
    raise KernelError(f"not syntax: {x!r}")


def support(ctx: Context, x) -> frozenset:
    """The free variables of x closed under those of their types: the
    reference for the support masks ``check`` reads off a head tree."""
    seen = set()
    todo = list(free_vars(x))
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(free_vars(ctx.type_of(i)) - seen)
    return frozenset(seen)


def bd_support_oracle(ctx: Context, n: int, eps: str) -> frozenset:
    """Boundary support read off variable occurrences in a pasting context.

    The n-boundary keeps everything below dimension n, plus the
    dimension-n variables that are not the eps-opposite face of any
    higher cell.
    """
    dims = [dim_type(t) for t in ctx.types]
    covered = set()
    for i, ty in enumerate(ctx.types):
        if dims[i] == n + 1 and isinstance(ty, Arrow):
            face = ty.tgt if eps == "-" else ty.src
            if isinstance(face, Var):
                covered.add(face.idx)
    out = {i for i in range(len(ctx)) if dims[i] < n}
    out |= {i for i in range(len(ctx)) if dims[i] == n and i not in covered}
    return frozenset(out)


# --- one-step reduction and reduction graphs -----------------------------------------

def one_step(x, memo: Optional[dict] = None) -> tuple:
    """Every step of a term, type or substitution under congruence, as
    ``(rule, path, reduct)``, outermost and leftmost first: a coherence's
    head steps, then its cell's, then its arguments'.  ``memo`` keeps the
    steps of each piece of syntax met, so terms that share subterms, as a
    reduction graph's nodes do, can share one."""
    if isinstance(x, (Var, Star)):
        return ()  # atoms take no step
    if memo is None:
        memo = {}
    else:
        out = memo.get(x)
        if out is not None:
            return out
    steps = []
    if isinstance(x, Coh):
        steps = [(rule, (), r) for rule, r, _ in head_steps(x)]
        parts, label = (x.cell,) + x.args, lambda i: ("arg", i - 1) if i else "cell"
    elif isinstance(x, Arrow):
        parts, label = (x.src, x.base, x.tgt), ("src", "base", "tgt").__getitem__
    elif isinstance(x, tuple):
        parts, label = x, lambda i: ("entry", i)
    else:
        raise KernelError(f"not syntax: {x!r}")
    for i, part in enumerate(parts):
        for rule, path, r in one_step(part, memo):
            ps = parts[:i] + (r,) + parts[i + 1:]
            steps.append((rule, (label(i),) + path,
                          Coh(x.head, ps[0], ps[1:]) if isinstance(x, Coh)
                          else Arrow(*ps) if isinstance(x, Arrow) else ps))
    out = memo[x] = tuple(steps)
    return out


class BudgetExceeded(Exception):
    pass


@dataclass
class ReductionGraph:
    nodes: set
    edges: list  # (source, rule, is_cell_step, target)
    sinks: set


def reduction_graph(t, budget: int = 10_000) -> ReductionGraph:
    nodes = {t}
    edges = []
    sinks = set()
    frontier = [t]
    memo = {}  # each subterm's steps, enumerated once per graph
    while frontier:
        cur = frontier.pop()
        steps = one_step(cur, memo)
        if not steps:
            sinks.add(cur)
            continue
        for rule, path, r in steps:
            edges.append((cur, rule, "cell" in path, r))
            if r not in nodes:
                nodes.add(r)
                if len(nodes) > budget:
                    raise BudgetExceeded(f"reduction graph exceeded {budget} nodes")
                frontier.append(r)
    return ReductionGraph(nodes, edges, sinks)


# --- summary report ---------------------------------------------------------------

def report(seed: int = 0, count: int = 200) -> str:
    cfg = GenConfig(seed=seed)
    population = gen_population(cfg, count)
    rule_counts = {"disc-removal": 0, "endo-coherence-removal": 0,
                   "insertion": 0}

    def tally(step):
        rule_counts[step.rule] += 1

    max_sc = ORD_ZERO
    graph_sizes = []
    over_budget = 0
    for i, (ctx, t) in enumerate(population):
        normalize(t, trace=tally)
        c = syntactic_complexity(t)
        if ord_lt(max_sc, c):
            max_sc = c
        if i < 25:
            try:
                graph_sizes.append(len(reduction_graph(t).nodes))
            except BudgetExceeded:
                over_budget += 1
    lines = [("instances", len(population)),
             ("seed", seed),
             ("disc_removal_steps", rule_counts["disc-removal"]),
             ("endo_coherence_removal_steps",
              rule_counts["endo-coherence-removal"]),
             ("insertion_steps", rule_counts["insertion"]),
             ("max_sc", str(max_sc)),
             ("graphs_over_budget", over_budget),
             ("max_graph_nodes", max(graph_sizes, default=0)),
             ("mean_graph_nodes",
              round(sum(graph_sizes) / len(graph_sizes), 2) if graph_sizes else 0)]
    return "".join(f"{k}\t{v}\n" for k, v in lines)
