import random
from typing import NamedTuple

import pytest

from semistrict import insertion
from semistrict.syntax import (
    STAR, Arrow, Coh, Tree, Var, apply_sub_term, apply_sub_type, compose, free_vars,
    id_sub, tree,
)
from semistrict.trees import (
    block_starts, ctx_len, disc, is_linear, point_positions,
    suspend_sub, suspend_term, suspend_type, tree_to_ctx, trunk_height,
)
from semistrict.insertion import (
    HeightMismatch, branch_at, branch_height, branch_table, exterior_sub,
    find_redexes, inserted_sub, inserted_tree, interior_sub,
    locally_maximal_positions,
)
from semistrict.unbiased import disc_sub, identity_term, unbiased_coh, unbiased_type
from semistrict.rewriting import def_eq
from semistrict.harness import (
    GenConfig, branch_var, canonical_branches, enumerate_insertion_points,
    enumerate_trees, eq_max_def, eq_max_syntactic, gen_redex, gen_tree_of_dim,
    is_branch, leaf_height, subtree,
)

from conftest import CHAIN2, CHAIN3
from test_trees import child_incl

NESTED = (((), ()), ())  # [[[],[]],[]]


def test_inserted_tree_deep_graft():
    assert inserted_tree(NESTED, (0, 0), (((), ()),)) == (((), (), ()), ())


def test_inserted_tree_deep_prune():
    assert inserted_tree(NESTED, (0, 0), ((),)) == (((),), ())


def test_inserted_tree_height_mismatch():
    with pytest.raises(HeightMismatch):
        inserted_tree(NESTED, (0, 0), ((), ()))


def test_inserted_tree_flat():
    assert inserted_tree(CHAIN2, (1,), CHAIN2) == CHAIN3


def test_branch_bookkeeping():
    assert branch_height((0, 0)) == 1
    assert leaf_height(NESTED, (0, 0)) == 2
    for s, p, t in list(enumerate_insertion_points(4))[:300]:
        assert leaf_height(s, p) == len(p) + subtree(s, p).dim
        assert branch_height(p) + 1 <= leaf_height(s, p)


def test_canonical_branches():
    assert canonical_branches(()) == ()
    assert canonical_branches(CHAIN2) == ((0,), (1,))
    # one branch per locally maximal variable, at the deepest branch point
    assert canonical_branches(NESTED) == ((0, 0), (0, 1), (1,))
    assert canonical_branches(disc(3)) == ((0,),)


def _leaf_paths(t):
    if not t:
        yield ()
        return
    for k, c in enumerate(t):
        for rest in _leaf_paths(c):
            yield (k,) + rest


def _branch_var_by_descent(s, p):
    k = p[0]
    off = block_starts(s)[k]
    if len(p) == 1:
        return off + ctx_len(s[k]) - 1
    return off + _branch_var_by_descent(s[k], p[1:])


def _branch_table_by_leaf_paths(t):
    """Reference: the shortest linear prefix of every leaf path, sorted."""
    out = []
    for path in _leaf_paths(t):
        for i in range(1, len(path) + 1):
            if is_linear(subtree(t, path[:i])):
                out.append(path[:i])
                break
    return tuple((p, _branch_var_by_descent(t, p), leaf_height(t, p))
                 for p in sorted(out))


def _all_branches(root, node, path=()):
    for k, c in enumerate(node):
        if is_branch(root, path + (k,)):
            yield path + (k,)
        yield from _all_branches(root, c, path + (k,))


def test_branch_table_matches_leaf_path_walk():
    trees = list(enumerate_trees(9))  # every tree of at most 8 edges
    assert len(trees) == 2056
    for t in trees:
        want = _branch_table_by_leaf_paths(t)
        assert tuple(row[:3] for row in branch_table(t)) == want
        assert all(at == branch_at(t, p, disc(branch_height(p))) for p, _, _, at in branch_table(t))
        assert canonical_branches(t) == tuple(p for p, _, _ in want)
        if t:
            assert locally_maximal_positions(t) == tuple(v for _, v, _ in want)
        # the elaborator's explicit positions: the variables no type mentions
        used = free_vars(tree_to_ctx(t).types)
        assert tuple(i for i in range(ctx_len(t)) if i not in used) == locally_maximal_positions(t)
        for p in _all_branches(t, t):  # non-canonical branches too
            assert branch_var(t, p) == _branch_var_by_descent(t, p)
    assert locally_maximal_positions(()) == (0,)


def test_interior_first_clause_is_window_inclusion():
    iota = interior_sub((1,), CHAIN2, branch_at(CHAIN2, (1,), CHAIN2))
    # maps T's copy onto the last two arrows of the ternary tree
    assert iota == (Var(1), Var(3), Var(4), Var(5), Var(6))


def test_interior_disc_target_is_identity():
    # inserting into a disc along its unique branch is the identity inclusion
    for t in (CHAIN2, ((),), ((), (), ())):
        n = max(Tree(t).dim, 1)
        assert inserted_tree(disc(n), (0,), t) == t
        assert interior_sub((0,), t, branch_at(disc(n), (0,), t)) == id_sub(ctx_len(t))


def test_exterior_sends_branch_to_unbiased_composite():
    at = branch_at(CHAIN2, (1,), CHAIN2)
    kappa = exterior_sub(CHAIN2, (1,), CHAIN2, at)
    r = inserted_tree(CHAIN2, (1,), CHAIN2)
    got = kappa[branch_var(CHAIN2, (1,))]
    want = apply_sub_term(unbiased_coh(1, CHAIN2), interior_sub((1,), CHAIN2, at))
    assert got == want
    assert isinstance(got, Coh) and got.head == CHAIN2
    # non-branch variables map to themselves here
    assert kappa[0] == Var(0) and kappa[2] == Var(2)


def test_branch_image_equation_everywhere():
    for s, p, t in enumerate_insertion_points(5):
        at = branch_at(s, p, t)
        kappa = exterior_sub(s, p, t, at)
        iota = interior_sub(p, t, at)
        lhs = kappa[branch_var(s, p)]
        rhs = apply_sub_term(unbiased_coh(leaf_height(s, p), t), iota)
        assert lhs == rhs, (s, p, t)


def test_exterior_disc_argument_is_max_identity():
    for s, p, _ in list(enumerate_insertion_points(5))[:400]:
        t = disc(leaf_height(s, p))
        if trunk_height(t) < branch_height(p):
            continue
        assert inserted_tree(s, p, t) == s
        kappa = exterior_sub(s, p, t, branch_at(s, p, t))
        assert eq_max_def(kappa, id_sub(ctx_len(s)), s)


def test_exterior_interior_insertion_is_identity():
    for s, p, t in enumerate_insertion_points(5):
        r = inserted_tree(s, p, t)
        at = branch_at(s, p, t)
        ins = inserted_sub(exterior_sub(s, p, t, at), interior_sub(p, t, at), at)
        assert ins == id_sub(ctx_len(r)), (s, p, t)


def test_inserted_sub_flat_splice(f_then_gh):
    # <f, comp g h parts> splices to <f, g, h> on the ternary tree
    ins = inserted_sub(f_then_gh.args, f_then_gh.args[4].args,
                       branch_at(CHAIN2, (1,), CHAIN2))
    assert ins == id_sub(7)


def test_inserted_sub_rejects_bad_height():
    with pytest.raises(HeightMismatch):
        inserted_sub(id_sub(ctx_len(NESTED)), id_sub(5), branch_at(NESTED, (0, 0), ((), ())))


class Label(NamedTuple):
    """Reference tree-shaped substitution: n+1 point labels around n
    sub-labellings, one per child."""

    points: tuple
    branches: tuple


def _label_to_sub(lab):
    if not lab.branches:
        return (lab.points[0],)
    out = [lab.points[0], lab.points[1]]
    for i, br in enumerate(lab.branches):
        out.extend(_label_to_sub(br))
        if i + 1 < len(lab.branches):
            out.append(lab.points[i + 2])
    return tuple(out)


def _sub_to_label(t, sub):
    assert len(sub) == ctx_len(t)
    points = tuple(sub[p] for p in point_positions(t))
    bs = block_starts(t)
    branches = tuple(_sub_to_label(c, sub[bs[i]:bs[i] + ctx_len(c)])
                     for i, c in enumerate(t))
    return Label(points, branches)


def _label_insert(lab, p, arg):
    """Reference splice on labellings: arg's points and branches replace
    points k, k+1 and branch k of lab, recursing at branch height >= 1."""
    k = p[0]
    if len(p) == 1:
        points = lab.points[:k] + arg.points + lab.points[k + 2:]
        branches = lab.branches[:k] + arg.branches + lab.branches[k + 1:]
    else:
        rec = _label_insert(lab.branches[k], p[1:], arg.branches[0])
        points = lab.points[:k] + arg.points[:2] + lab.points[k + 2:]
        branches = lab.branches[:k] + (rec,) + lab.branches[k + 1:]
    return Label(points, branches)


def test_inserted_sub_matches_label_splice():
    cases = 0
    for s, p, t in enumerate_insertion_points(6):  # trees of at most 5 edges
        sigma = tuple(Var(i) for i in range(ctx_len(s)))
        tau = tuple(Var(1000 + i) for i in range(ctx_len(t)))
        ref = _label_insert(_sub_to_label(s, sigma), p, _sub_to_label(t, tau))
        assert inserted_sub(sigma, tau, branch_at(s, p, t)) == _label_to_sub(ref), (s, p, t)
        cases += 1
    assert cases == 7865


def _high_insertion_points(rng, dim, count):
    """``count`` seeded (S, P, T) whose S has dimension ``dim`` and 7 to 10
    edges; T inserts at P, an identity or a composite of P's leaf height."""
    out = []
    while len(out) < count:
        s = gen_tree_of_dim(rng, dim)
        if not 7 <= (ctx_len(s) - 1) // 2 <= 10:
            continue
        p = rng.choice(canonical_branches(s))
        lh, bh = leaf_height(s, p), branch_height(p)
        if rng.random() < 0.3:
            t = disc(lh - 1)
        else:
            t = gen_tree_of_dim(rng, lh - bh)
            for _ in range(bh):
                t = (t,)
        out.append((s, p, t))
    return out


def _wide_insertion_points():
    """(S, P, T) for heads of 300 branches, of dimension 1 and 2, at the
    first and the last branch: T an identity or a 3-ary composite."""
    out = []
    for s in (((),) * 300, (((),) * 300,), (((),),) * 300):
        branches = canonical_branches(s)
        for p in (branches[0], branches[-1]):
            lh = leaf_height(s, p)
            comp = ((),) * 3
            for _ in range(lh - 1):
                comp = (comp,)
            out += [(s, p, disc(lh - 1)), (s, p, comp)]
    return out


def _recount(t):
    """(dimension, context length) of a tree, recounted over its nodes."""
    if not t:
        return 0, 1
    kids = [_recount(c) for c in t]
    return 1 + max(d for d, _ in kids), len(t) + 1 + sum(n for _, n in kids)


def test_an_inserted_tree_carries_its_recounted_dimension_and_size(monkeypatch):
    # inserted_tree reads both off the splice at every level, and counts
    # the dimension over the children only where the graft lowers its
    # block; the tree is often made already, so check what it passes
    made = []

    def recorded(kids, dim=None, size=None):
        made.append((kids, dim, size))
        return tree(kids, dim, size)

    monkeypatch.setattr(insertion, "tree", recorded)
    rng = random.Random(11)
    points = list(enumerate_insertion_points(6))  # trees of at most 5 edges
    points += _high_insertion_points(rng, 4, 150) + _high_insertion_points(rng, 5, 150)
    for s, p, t in points:
        r = inserted_tree(s, p, t)
        assert (r.dim, r.size) == _recount(r), (s, p, t)
    counted = 0
    for kids, dim, size in made:
        want = _recount(kids)
        assert size == want[1], kids
        if dim is None:
            counted += 1
        else:
            assert dim == want[0], kids
    assert len(made) >= len(points) and counted > 0


def test_high_dimensional_inserted_subs_match_label_splice():
    # and heads of 300 branches, spliced at their first and last branch
    rng = random.Random(7)
    points = _high_insertion_points(rng, 4, 150) + _high_insertion_points(rng, 5, 150)
    for s, p, t in points + _wide_insertion_points():
        sigma = tuple(Var(i) for i in range(ctx_len(s)))
        tau = tuple(Var(1000 + i) for i in range(ctx_len(t)))
        ref = _label_insert(_sub_to_label(s, sigma), p, _sub_to_label(t, tau))
        assert inserted_sub(sigma, tau, branch_at(s, p, t)) == _label_to_sub(ref), (s, p, t)


def _window_incl_by_loop(r, a, u):
    """Reference: u into r, when r's children a..a+len(u) are u's, one
    variable at a time."""
    assert r[a:a + len(u)] == u
    out = [None] * ctx_len(u)
    upts, ubs = point_positions(u), block_starts(u)
    rpts, rbs = point_positions(r), block_starts(r)
    for j in range(len(u) + 1):
        out[upts[j]] = Var(rpts[a + j])
    for i in range(len(u)):
        for j in range(ctx_len(u[i])):
            out[ubs[i] + j] = Var(rbs[a + i] + j)
    return tuple(out)


def _interior_sub_by_suspension(s, p, t):
    """Reference: the paper's induction on branch height."""
    r = inserted_tree(s, p, t)
    k = p[0]
    if len(p) == 1:
        return _window_incl_by_loop(r, k, t)
    rec = _interior_sub_by_suspension(s[k], p[1:], t[0])
    return compose(suspend_sub(rec), child_incl(r, k))


def test_interior_sub_matches_suspension_recursion():
    cases = 0
    for s, p, t in enumerate_insertion_points(6):  # trees of at most 5 edges
        at = branch_at(s, p, t)
        assert interior_sub(p, t, at) == _interior_sub_by_suspension(s, p, t), (s, p, t)
        cases += 1
    assert cases == 7865
    with pytest.raises(HeightMismatch):
        branch_at(NESTED, (0, 0), ((), ()))


def test_suspension_commutes_with_unbiased_cells():
    # the lemma that makes one splice serve every branch height
    cases = 0
    for t in enumerate_trees(7):  # every tree of at most 6 edges
        d = t.dim
        for n in sorted({max(d, 1), d + 1}):
            assert suspend_type(unbiased_type(n, t)) == unbiased_type(n + 1, (t,))
            assert suspend_term(unbiased_coh(n, t)) == unbiased_coh(n + 1, (t,))
            cases += 1
    assert cases == 393


def _exterior_sub_by_loop(s, p, t):
    """Reference: map S's points and blocks one variable at a time."""
    r = inserted_tree(s, p, t)
    k, n, m = p[0], len(s), len(t)
    spts, sbs = point_positions(s), block_starts(s)
    rpts, rbs = point_positions(r), block_starts(r)
    out = [None] * ctx_len(s)
    deep = len(p) > 1
    for j in range(n + 1):
        out[spts[j]] = Var(rpts[j] if deep or j <= k else rpts[j + m - 1])
    for i in range(n):
        if i == k:
            continue
        ri = i if deep or i < k else i + m - 1
        for j in range(ctx_len(s[i])):
            out[sbs[i] + j] = Var(rbs[ri] + j)
    if deep:
        rec = compose(suspend_sub(_exterior_sub_by_loop(s[k], p[1:], t[0])),
                      child_incl(r, k))
    else:
        lh = 1 + Tree(s[k]).dim
        rec = compose(disc_sub(unbiased_type(lh, t), unbiased_coh(lh, t)),
                      _window_incl_by_loop(r, k, t))
    for j in range(ctx_len(s[k])):
        out[sbs[k] + j] = rec[2 + j]
    return tuple(out)


def test_exterior_sub_matches_loop():
    cases = 0
    for s, p, t in enumerate_insertion_points(6):  # trees of at most 5 edges
        at = branch_at(s, p, t)
        assert exterior_sub(s, p, t, at) == _exterior_sub_by_loop(s, p, t), (s, p, t)
        cases += 1
    assert cases == 7865


def test_exterior_sub_pushes_a_cell_of_any_dimension():
    # given a type, exterior_sub leaves out the unbiased cell when the
    # type's dimension is at most the leaf height; at every base level of
    # the type the result is the type pushed along the whole substitution,
    # which is checked against the reference
    rng = random.Random(5)
    points = list(enumerate_insertion_points(5))  # trees of at most 4 edges
    points += _high_insertion_points(rng, 4, 40) + _high_insertion_points(rng, 5, 40)
    points += _wide_insertion_points()
    for s, p, t in points:
        at = branch_at(s, p, t)
        kappa = exterior_sub(s, p, t, at)
        assert kappa == _exterior_sub_by_loop(s, p, t), (s, p, t)
        top = unbiased_coh(Tree(s).dim, s)
        cell = Arrow(top, unbiased_type(Tree(s).dim, s), top)
        while isinstance(cell, Arrow):
            assert exterior_sub(s, p, t, at, cell) == apply_sub_type(cell, kappa)
            cell = cell.base


def test_pushout_equations_random():
    rng = random.Random(11)
    cfg = GenConfig(seed=11)
    for _ in range(120):
        r = gen_redex(rng, cfg)
        ins = inserted_sub(r.outer, r.inner, r.at)
        assert compose(interior_sub(r.P, r.T, r.at), ins) == r.inner
        assert eq_max_syntactic(compose(exterior_sub(r.S, r.P, r.T, r.at), ins), r.outer, r.S)


def test_insertion_functoriality_substitution():
    rng = random.Random(5)
    cfg = GenConfig(seed=5)
    for _ in range(60):
        r = gen_redex(rng, cfg)
        ins = inserted_sub(r.outer, r.inner, r.at)
        mu = tuple(Var(0) for _ in range(max(v.idx for t in ins
                                             for v in _vars(t)) + 1))
        lhs = compose(ins, mu)
        rhs = inserted_sub(compose(r.outer, mu), compose(r.inner, mu), r.at)
        assert lhs == rhs


def _vars(t):
    if isinstance(t, Var):
        yield t
    else:
        for a in t.args:
            yield from _vars(a)


def test_insertion_functoriality_suspension():
    rng = random.Random(9)
    cfg = GenConfig(seed=9)
    for _ in range(60):
        r = gen_redex(rng, cfg)
        ins = inserted_sub(r.outer, r.inner, r.at)
        lhs = suspend_sub(ins)
        rhs = inserted_sub(suspend_sub(r.outer), suspend_sub(r.inner),
                           branch_at((r.S,), (0,) + r.P, (r.T,)))
        assert lhs == rhs


def test_insertion_irrelevant_to_branch_entry():
    # substitutions differing only at the branch variable splice identically
    pos = branch_var(CHAIN2, (1,))
    sigma = id_sub(5)
    rogue = sigma[:pos] + (identity_term(Arrow(Var(1), STAR, Var(3)), Var(4)),)
    tau = (Var(1), Var(3), Var(4))  # labels a disc onto the g-arrow
    at = branch_at(CHAIN2, (1,), ((),))
    a = inserted_sub(sigma, tau, at)
    b = inserted_sub(rogue, tau, at)
    assert a == b
    assert not eq_max_syntactic(sigma, rogue, CHAIN2)


def test_find_redexes_nested_composite(f_then_gh):
    redexes = find_redexes(f_then_gh)
    assert len(redexes) == 1
    assert redexes[0].P == (1,)
    assert redexes[0].T == CHAIN2


def test_find_redexes_unit(f_then_idy):
    redexes = find_redexes(f_then_idy)
    assert len(redexes) == 1
    assert redexes[0].P == (1,)
    assert redexes[0].T == ()


def test_find_redexes_variables_only(comp_fg):
    assert find_redexes(comp_fg) == []


def test_find_redexes_skips_identities():
    one = identity_term(STAR, Var(0))
    assert find_redexes(one) == []


def test_find_redexes_skips_a_full_coherence_one_dimension_up(comp_fg):
    # comp f g => comp f g is unbiased one dimension above its tree, like
    # an identity, but its tree is not linear, so it does not insert
    endo = unbiased_coh(2, CHAIN2)
    assert endo.cell == Arrow(comp_fg, Arrow(Var(0), STAR, Var(3)), comp_fg)
    t = Coh(disc(2), unbiased_type(2, disc(2)), (Var(0), Var(3), comp_fg, comp_fg, endo))
    assert leaf_height(disc(2), (0,)) == 2
    assert find_redexes(t) == []
