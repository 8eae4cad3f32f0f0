import random

import pytest

from semistrict.syntax import (
    STAR, Arrow, Context, KernelError, Var, apply_sub_term, free_vars,
    id_sub, support,
)
from semistrict.trees import (
    Label, NotPastingError, block_starts, bracket, ctx_len, ctx_to_tree, disc,
    identity_label, is_linear, label_to_sub, parse_bracket, point_positions,
    sub_to_label, suspend_ctx, suspend_sub, suspend_term, suspend_tree,
    suspend_type, tree_bd, tree_dim, tree_dot, tree_inc, tree_to_ctx,
    trunk_height, wedge_ctx, wedge_sub, window_incl,
)
from semistrict.harness import bd_support_oracle, enumerate_trees, pasting_oracle

from conftest import CHAIN2

FIG5 = (((), ()),)

TWO_ARROWS = Context((
    ("x", STAR), ("y", STAR), ("f", Arrow(Var(0), STAR, Var(1))),
    ("z", STAR), ("g", Arrow(Var(1), STAR, Var(3))),
))

ARROW_01 = Arrow(Var(0), STAR, Var(1))

FIG5_CTX = Context((
    ("x", STAR), ("y", STAR),
    ("f", ARROW_01), ("g", ARROW_01),
    ("a", Arrow(Var(2), ARROW_01, Var(3))),
    ("h", ARROW_01),
    ("b", Arrow(Var(3), ARROW_01, Var(5))),
))


def test_disc_shapes():
    assert disc(0) == ()
    assert disc(1) == ((),)
    assert tree_to_ctx(disc(0)) == Context((("x", STAR),))
    d3 = tree_to_ctx(disc(3))
    from semistrict.syntax import dim_type
    assert [dim_type(t) for t in d3.types] == [0, 0, 1, 1, 2, 2, 3]


def test_tree_to_ctx_literals():
    assert tree_to_ctx(()) == Context((("x", STAR),))
    assert tree_to_ctx(CHAIN2) == TWO_ARROWS
    assert tree_to_ctx(FIG5) == FIG5_CTX


def test_ctx_to_tree_roundtrip_small():
    for t in enumerate_trees(8):
        assert ctx_to_tree(tree_to_ctx(t)) == t


def test_ctx_to_tree_rejects_disconnected():
    with pytest.raises(NotPastingError):
        ctx_to_tree(Context((("x", STAR), ("y", STAR))))


def test_ctx_to_tree_rejects_misoriented():
    backwards = Context((("x", STAR), ("y", STAR),
                         ("f", Arrow(Var(1), STAR, Var(0)))))
    with pytest.raises(NotPastingError):
        ctx_to_tree(backwards)


def test_wedge_of_discs():
    d2 = tree_to_ctx(disc(2))
    assert ctx_to_tree(wedge_ctx(d2, d2)) == (((),), ((),))
    d1 = tree_to_ctx(disc(1))
    assert wedge_ctx(d1, d1) == TWO_ARROWS


def test_tree_wedge_is_concatenation():
    assert CHAIN2 + ((),) == ((), (), ())


def test_wedge_sub():
    d1 = tree_to_ctx(disc(1))
    two = TWO_ARROWS
    # include D1 v D1 into the middle of a four-arrow chain
    left = (Var(1), Var(3), Var(4))   # onto g, ending at the gluing object
    right = (Var(0), Var(1), Var(2))  # onto the next arrow, from its start
    glued = wedge_sub(left, right, d1, two, two)
    assert glued == (Var(1), Var(3), Var(4), Var(5), Var(6))
    # left component must land on the gluing object
    with pytest.raises(KernelError):
        wedge_sub((Var(0), Var(1), Var(2)), right, d1, two, two)
    # right component must fix the initial object
    with pytest.raises(KernelError):
        wedge_sub(left, (Var(1), Var(3), Var(4)), d1, two, two)


def test_suspension_on_discs():
    for n in range(5):
        assert suspend_tree(disc(n)) == disc(n + 1)
        assert suspend_ctx(tree_to_ctx(disc(n))) == tree_to_ctx(disc(n + 1))


def test_suspension_of_two_arrows():
    # suspending the composable pair gives the vertical-composition context
    assert suspend_ctx(TWO_ARROWS) == tree_to_ctx((CHAIN2,))


def test_suspend_base_type():
    assert suspend_type(STAR) == Arrow(Var(0), STAR, Var(1))


def test_suspension_commutes_with_substitution(f_then_gh):
    sub = (Var(0), Var(1), Var(2), Var(5), f_then_gh)
    from semistrict.unbiased import unbiased_coh
    t = unbiased_coh(1, CHAIN2)
    assert suspend_term(apply_sub_term(t, sub)) == \
        apply_sub_term(suspend_term(t), suspend_sub(sub))


def test_boundary_of_two_arrows():
    assert tree_bd(0, CHAIN2) == ()
    assert tree_inc("-", 0, CHAIN2) == (Var(0),)
    assert tree_inc("+", 0, CHAIN2) == (Var(3),)


def test_boundary_above_dimension_is_identity():
    for t in ((), CHAIN2, FIG5, disc(3)):
        d = tree_dim(t)
        assert tree_bd(d, t) == t
        for eps in "-+":
            assert tree_inc(eps, d, t) == id_sub(ctx_len(t))
            assert tree_inc(eps, d + 2, t) == id_sub(ctx_len(t))


def test_boundary_of_fig5():
    assert tree_bd(1, FIG5) == ((),)
    # the 1-source picks f, the 1-target picks h
    assert tree_inc("-", 1, FIG5) == (Var(0), Var(1), Var(2))
    assert tree_inc("+", 1, FIG5) == (Var(0), Var(1), Var(5))


def test_boundary_supports_cover_and_close():
    # each inclusion contains every variable strictly below the boundary
    # dimension (interior n-cells belong to neither side), and supports are
    # downward closed
    from semistrict.syntax import dim_type
    for t in enumerate_trees(6):
        ctx = tree_to_ctx(t)
        for n in range(tree_dim(t) + 1):
            lo = support(ctx, tree_inc("-", n, t))
            hi = support(ctx, tree_inc("+", n, t))
            below = {i for i in range(len(ctx))
                     if dim_type(ctx.type_of(i)) < n}
            assert below <= lo and below <= hi
            assert all(dim_type(ctx.type_of(i)) <= n for i in lo | hi)
            for s in (lo, hi):
                for i in s:
                    assert free_vars(ctx.type_of(i)) <= s
        d = tree_dim(t)
        assert support(ctx, tree_inc("-", d, t)) | \
            support(ctx, tree_inc("+", d, t)) == frozenset(range(len(ctx)))


def test_boundary_support_matches_occurrence_oracle():
    for t in enumerate_trees(6):
        ctx = tree_to_ctx(t)
        for n in range(tree_dim(t) + 2):
            for eps in "-+":
                assert support(ctx, tree_inc(eps, n, t)) == \
                    bd_support_oracle(ctx, n, eps), (t, n, eps)


def test_identity_labelling_fig5():
    lab = identity_label(FIG5)
    assert lab.points == (Var(0), Var(1))
    inner = lab.branches[0]
    assert inner.points == (Var(2), Var(3), Var(5))
    assert [b.points for b in inner.branches] == [(Var(4),), (Var(6),)]
    assert label_to_sub(lab) == id_sub(7)


def test_constant_labelling():
    lab = Label((Var(0),), ())
    assert label_to_sub(lab) == (Var(0),)


def test_label_roundtrip_random():
    rng = random.Random(0)
    trees = list(enumerate_trees(6))
    for _ in range(200):
        t = rng.choice(trees)
        sub = tuple(Var(rng.randrange(9)) for _ in range(ctx_len(t)))
        assert label_to_sub(sub_to_label(t, sub)) == sub


def test_tree_statistics():
    assert trunk_height(()) == 0
    assert trunk_height(((),)) == 1
    assert trunk_height(((), ())) == 0
    assert tree_dim((((), ()), ())) == 2
    for n in range(5):
        assert is_linear(disc(n))
    assert not is_linear((((), ()), ()))


def test_is_linear_is_trunk_height_equals_dimension():
    trees = list(enumerate_trees(9))  # every tree of at most 8 edges
    assert len(trees) == 2056
    for t in trees:
        assert is_linear(t) == (trunk_height(t) == tree_dim(t))


def _window_incl_by_loop(r, a, u):
    """Reference: map u's points and blocks one variable at a time."""
    out = [None] * ctx_len(u)
    upts, ubs = point_positions(u), block_starts(u)
    rpts, rbs = point_positions(r), block_starts(r)
    for j in range(len(u) + 1):
        out[upts[j]] = Var(rpts[a + j])
    for i in range(len(u)):
        for j in range(ctx_len(u[i])):
            out[ubs[i] + j] = Var(rbs[a + i] + j)
    return tuple(out)


def test_window_incl_matches_loop():
    cases = 0
    for r in enumerate_trees(7):  # every tree of at most 6 edges
        for a in range(len(r) + 1):
            for m in range(len(r) - a + 1):
                u = r[a:a + m]
                assert window_incl(r, a, u) == _window_incl_by_loop(r, a, u)
                cases += 1
    assert cases > 1000
    with pytest.raises(KernelError):
        window_incl(CHAIN2, 0, ((((),),),))


def test_pasting_oracle_agrees_on_trees():
    for t in enumerate_trees(7):
        assert pasting_oracle(tree_to_ctx(t))


def test_bracket_roundtrip():
    for t in enumerate_trees(6):
        assert parse_bracket(bracket(t)) == t
    assert parse_bracket("[[ ] [ ]]") == CHAIN2
    assert parse_bracket("[[],[]]") == CHAIN2


def test_dot_output():
    dot = tree_dot(CHAIN2)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
