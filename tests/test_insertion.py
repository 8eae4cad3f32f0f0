import random

import pytest

from semistrict.syntax import (
    STAR, Arrow, Coh, Var, apply_sub_term, compose, id_sub,
)
from semistrict.trees import (
    Label, block_starts, child_incl, ctx_len, disc, is_linear, label_to_sub,
    point_positions, sub_to_label, subtree, suspend_sub, tree_dim, tree_to_ctx,
    trunk_height, window_incl,
)
from semistrict.insertion import (
    HeightMismatch, InsertionPoint, NotRedex, branch_height, branch_table,
    branch_var, canonical_branches, exterior_sub, find_redexes, inserted_sub,
    inserted_tree, interior_sub, is_branch, leaf_height,
    locally_maximal_positions,
)
from semistrict.unbiased import disc_sub, identity_term, unbiased_coh, unbiased_type
from semistrict.rewriting import def_eq
from semistrict.harness import (
    GenConfig, enumerate_insertion_points, enumerate_trees, eq_max_def,
    eq_max_syntactic, gen_redex,
)

from conftest import CHAIN2, CHAIN3

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
    from semistrict.trees import subtree
    assert branch_height((0, 0)) == 1
    assert leaf_height(NESTED, (0, 0)) == 2
    for s, p, t in list(enumerate_insertion_points(4))[:300]:
        assert leaf_height(s, p) == len(p) + tree_dim(subtree(s, p))
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
        assert branch_table(t) == want
        assert canonical_branches(t) == tuple(p for p, _, _ in want)
        if t:
            assert locally_maximal_positions(t) == tuple(v for _, v, _ in want)
        for p in _all_branches(t, t):  # non-canonical branches too
            assert branch_var(t, p) == _branch_var_by_descent(t, p)
    assert locally_maximal_positions(()) == (0,)


def test_interior_first_clause_is_window_inclusion():
    iota = interior_sub(CHAIN2, (1,), CHAIN2)
    # maps T's copy onto the last two arrows of the ternary tree
    assert iota == (Var(1), Var(3), Var(4), Var(5), Var(6))


def test_interior_disc_target_is_identity():
    # inserting into a disc along its unique branch is the identity inclusion
    for t in (CHAIN2, ((),), ((), (), ())):
        n = max(tree_dim(t), 1)
        assert inserted_tree(disc(n), (0,), t) == t
        assert interior_sub(disc(n), (0,), t) == id_sub(ctx_len(t))


def test_exterior_sends_branch_to_unbiased_composite():
    kappa = exterior_sub(CHAIN2, (1,), CHAIN2)
    r = inserted_tree(CHAIN2, (1,), CHAIN2)
    got = kappa[branch_var(CHAIN2, (1,))]
    want = apply_sub_term(unbiased_coh(1, CHAIN2), interior_sub(CHAIN2, (1,), CHAIN2))
    assert got == want
    assert isinstance(got, Coh) and got.head == CHAIN2
    # non-branch variables map to themselves here
    assert kappa[0] == Var(0) and kappa[2] == Var(2)


def test_branch_image_equation_everywhere():
    for s, p, t in enumerate_insertion_points(5):
        kappa = exterior_sub(s, p, t)
        iota = interior_sub(s, p, t)
        lhs = kappa[branch_var(s, p)]
        rhs = apply_sub_term(unbiased_coh(leaf_height(s, p), t), iota)
        assert lhs == rhs, (s, p, t)


def test_exterior_disc_argument_is_max_identity():
    for s, p, _ in list(enumerate_insertion_points(5))[:400]:
        t = disc(leaf_height(s, p))
        if trunk_height(t) < branch_height(p):
            continue
        assert inserted_tree(s, p, t) == s
        kappa = exterior_sub(s, p, t)
        assert eq_max_def(kappa, id_sub(ctx_len(s)), s)


def test_exterior_interior_insertion_is_identity():
    for s, p, t in enumerate_insertion_points(5):
        r = inserted_tree(s, p, t)
        ins = inserted_sub(exterior_sub(s, p, t), p, interior_sub(s, p, t), s, t)
        assert ins == id_sub(ctx_len(r)), (s, p, t)


def test_inserted_sub_flat_splice(f_then_gh):
    # <f, comp g h parts> splices to <f, g, h> on the ternary tree
    ins = inserted_sub(f_then_gh.args, (1,),
                       f_then_gh.args[4].args, CHAIN2, CHAIN2)
    assert ins == id_sub(7)


def test_inserted_sub_rejects_bad_height():
    with pytest.raises(NotRedex):
        inserted_sub(id_sub(ctx_len(NESTED)), (0, 0), id_sub(5), NESTED, ((), ()))


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
        ref = _label_insert(sub_to_label(s, sigma), p, sub_to_label(t, tau))
        assert inserted_sub(sigma, p, tau, s, t) == label_to_sub(ref), (s, p, t)
        cases += 1
    assert cases == 7865


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
        lh = 1 + tree_dim(s[k])
        rec = compose(disc_sub(unbiased_type(lh, t), unbiased_coh(lh, t)),
                      window_incl(r, k, t))
    for j in range(ctx_len(s[k])):
        out[sbs[k] + j] = rec[2 + j]
    return tuple(out)


def test_exterior_sub_matches_loop():
    cases = 0
    for s, p, t in enumerate_insertion_points(6):  # trees of at most 5 edges
        assert exterior_sub(s, p, t) == _exterior_sub_by_loop(s, p, t), (s, p, t)
        cases += 1
    assert cases == 7865


def test_pushout_equations_random():
    rng = random.Random(11)
    cfg = GenConfig(seed=11)
    for _ in range(120):
        r = gen_redex(rng, cfg)
        ins = inserted_sub(r.outer, r.P, r.inner, r.S, r.T)
        assert compose(interior_sub(r.S, r.P, r.T), ins) == r.inner
        assert eq_max_syntactic(compose(exterior_sub(r.S, r.P, r.T), ins), r.outer, r.S)


def test_insertion_functoriality_substitution():
    rng = random.Random(5)
    cfg = GenConfig(seed=5)
    for _ in range(60):
        r = gen_redex(rng, cfg)
        ins = inserted_sub(r.outer, r.P, r.inner, r.S, r.T)
        mu = tuple(Var(0) for _ in range(max(v.idx for t in ins
                                             for v in _vars(t)) + 1))
        lhs = compose(ins, mu)
        rhs = inserted_sub(compose(r.outer, mu), r.P, compose(r.inner, mu),
                           r.S, r.T)
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
        ins = inserted_sub(r.outer, r.P, r.inner, r.S, r.T)
        lhs = suspend_sub(ins)
        rhs = inserted_sub(suspend_sub(r.outer), (0,) + r.P,
                           suspend_sub(r.inner), (r.S,), (r.T,))
        assert lhs == rhs


def test_insertion_irrelevant_to_branch_entry():
    # substitutions differing only at the branch variable splice identically
    pos = branch_var(CHAIN2, (1,))
    sigma = id_sub(5)
    rogue = sigma[:pos] + (identity_term(Arrow(Var(1), STAR, Var(3)), Var(4)),)
    tau = (Var(1), Var(3), Var(4))  # labels a disc onto the g-arrow
    a = inserted_sub(sigma, (1,), tau, CHAIN2, ((),))
    b = inserted_sub(rogue, (1,), tau, CHAIN2, ((),))
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


def test_insertion_point_validation():
    with pytest.raises(HeightMismatch):
        InsertionPoint(NESTED, (0, 0), ((), ()))
    InsertionPoint(NESTED, (0, 0), ((),))
