import pytest

from semistrict.syntax import (
    STAR, Arrow, Context, Tree, Var, apply_sub_term, apply_sub_type, dim_type,
    id_sub,
)
from semistrict.trees import (
    _auto_names, block_starts, bracket, ctx_len, disc, is_linear,
    point_positions, suspend_ctx, suspend_sub, suspend_term, suspend_tree,
    suspend_type, tree_bd, tree_inc, tree_to_ctx, trunk_height,
)
from semistrict.insertion import branch_table
from semistrict.parser import parse
from semistrict.unbiased import unbiased_type
from semistrict.harness import (
    NotPastingError, bd_support_oracle, ctx_to_tree, enumerate_trees, free_vars,
    pasting_oracle, support,
)

from conftest import CHAIN2, forget_tree_facts

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


def _well_formed_types(n):
    """Every well-formed context of 1 to n entries, as its types: each
    entry is * or s -> u over the common type of s and u."""
    def go(types):
        yield types
        if len(types) < n:
            i = len(types)
            yield from go(types + (STAR,))
            for s in range(i):
                for u in range(i):
                    if types[s] == types[u]:
                        yield from go(types + (Arrow(Var(s), types[s], Var(u)),))
    yield from go((STAR,))


def test_ctx_to_tree_accepts_exactly_what_the_pasting_oracle_accepts():
    # the oracle replays the derivation rules, ctx_to_tree reads a shape
    # off the dimensions and checks it by tree_to_ctx
    seen, pasting = 0, 0
    for types in _well_formed_types(6):
        ctx = Context(tuple((f"v{i}", ty) for i, ty in enumerate(types)))
        try:
            shape = ctx_to_tree(ctx)
        except NotPastingError as e:
            assert not pasting_oracle(ctx), types
            assert 0 < e.position <= len(types), types
        else:
            assert pasting_oracle(ctx), types
            assert tree_to_ctx(shape).types == types
            pasting += 1
        seen += 1
    assert (seen, pasting) == (5259, 4)
    with pytest.raises(NotPastingError) as e:
        ctx_to_tree(Context(()))
    assert e.value.position == 0 and not pasting_oracle(Context(()))


def test_tree_wedge_is_concatenation():
    assert CHAIN2 + ((),) == ((), (), ())


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
        d = Tree(t).dim
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
    for t in enumerate_trees(6):
        ctx = tree_to_ctx(t)
        for n in range(t.dim + 1):
            lo = support(ctx, tree_inc("-", n, t))
            hi = support(ctx, tree_inc("+", n, t))
            below = {i for i in range(len(ctx))
                     if dim_type(ctx.type_of(i)) < n}
            assert below <= lo and below <= hi
            assert all(dim_type(ctx.type_of(i)) <= n for i in lo | hi)
            for s in (lo, hi):
                for i in s:
                    assert free_vars(ctx.type_of(i)) <= s
        d = t.dim
        assert support(ctx, tree_inc("-", d, t)) | \
            support(ctx, tree_inc("+", d, t)) == frozenset(range(len(ctx)))


def test_boundary_support_matches_occurrence_oracle():
    for t in enumerate_trees(6):
        ctx = tree_to_ctx(t)
        for n in range(t.dim + 2):
            for eps in "-+":
                assert support(ctx, tree_inc(eps, n, t)) == \
                    bd_support_oracle(ctx, n, eps), (t, n, eps)


def test_fig5_point_and_block_positions():
    # x y are FIG5's points and its one block starts at f; inside that
    # block f g h are the points and a, b start the two inner blocks
    assert point_positions(FIG5) == (0, 1)
    assert block_starts(FIG5) == (2,)
    assert tuple(2 + p for p in point_positions(FIG5[0])) == (2, 3, 5)
    assert tuple(2 + b for b in block_starts(FIG5[0])) == (4, 6)
    assert [FIG5_CTX.name_of(i) for i in (0, 1, 2, 3, 5, 4, 6)] == list("xyfghab")


def test_target_inclusion_maps_a_truncated_subtree_to_its_last_point():
    # tree_inc("+", ..) reads a subtree's last point off context lengths;
    # point_positions finds it by walking the points
    wide = tuple(((),) * k for k in range(6))
    for t in list(enumerate_trees(9)) + [wide, (wide,), (wide, wide)]:
        assert tree_inc("+", 0, t) == (Var(point_positions(t)[-1]),)
        if not t:
            continue
        # depth 1: each child's block is truncated to one arrow, its last point
        ones = tree_inc("+", 1, t)[2::2]
        assert ones == tuple(Var(b + point_positions(c)[-1])
                             for b, c in zip(block_starts(t), t)), t


def test_each_context_entry_is_an_object_or_an_arrow_between_earlier_entries():
    # check._infer relies on this layout: each arrow's type is
    # Var(s) -> Var(u) over the type of s, with s and u earlier
    wide = tuple(((),) * k for k in range(6))
    for t in list(enumerate_trees(9)) + [wide, (wide,), (wide, wide)]:
        types = tree_to_ctx(t).types
        for i, ty in enumerate(types):
            if ty is STAR:
                continue
            s, u = ty.src.idx, ty.tgt.idx
            assert s < i and u < i, (t, i)
            assert ty == Arrow(Var(s), types[s], Var(u)), (t, i)


def test_tree_statistics():
    assert trunk_height(()) == 0
    assert trunk_height(((),)) == 1
    assert trunk_height(((), ())) == 0
    assert Tree((((), ()), ())).dim == 2
    for n in range(5):
        assert is_linear(disc(n))
    assert not is_linear((((), ()), ()))


def test_a_plain_tuple_and_its_tree_share_each_fact():
    # a fact is built once per shape and kept on the interned tree, so a
    # plain tuple, as the benchmark passes, reads the tree's own
    forget_tree_facts()
    for shape in (((),) * 3, (((),), ()), ((((),), ()), ((),), ())):
        t = Tree(shape)
        assert tree_to_ctx(shape) is tree_to_ctx(t) is t.ctx
        assert branch_table(shape) is branch_table(t) is t.branches
        for n in range(t.dim + 1):
            assert unbiased_type(n, shape) is unbiased_type(n, t)
        assert all(unbiased_type(n, shape) is u for n, u in t.unbiased.items())
        assert set(t.unbiased) == set(range(1, t.dim + 1))


def test_is_linear_is_trunk_height_equals_dimension():
    trees = list(enumerate_trees(9))  # every tree of at most 8 edges
    assert len(trees) == 2056
    for t in trees:
        assert is_linear(t) == (trunk_height(t) == t.dim)


def test_pasting_oracle_agrees_on_trees():
    for t in enumerate_trees(7):
        assert pasting_oracle(tree_to_ctx(t))


def test_bracket_roundtrip():
    for t in enumerate_trees(6):
        [d] = parse(f"normalize {bracket(t)} | x")
        assert (d.ctx.tree, d.ctx.names) == (t, tree_to_ctx(t).names)
    for src in ("[[ ] [ ]]", "[[],[]]", "[,[],,[],]"):
        [d] = parse(f"normalize {src} | x")
        assert d.ctx.tree == CHAIN2


# --- the definitions by suspension, as references for the layout walks ------

def child_incl(t, i):
    """Inclusion of the suspension of child i into tree_to_ctx(t)."""
    pts = point_positions(t)
    bs = block_starts(t)
    vec = [Var(pts[i]), Var(pts[i + 1])]
    vec.extend(Var(bs[i] + j) for j in range(ctx_len(t[i])))
    return tuple(vec)


def tree_to_ctx_by_suspension(t):
    """Each child's block is its own context, suspended and included."""
    if not t:
        return Context((("x", STAR),))
    types = [None] * ctx_len(t)
    for p in point_positions(t):
        types[p] = STAR
    bs = block_starts(t)
    for i, c in enumerate(t):
        inc = child_incl(t, i)
        sub_ctx = tree_to_ctx_by_suspension(c)
        for j in range(len(sub_ctx)):
            types[bs[i] + j] = apply_sub_type(suspend_type(sub_ctx.type_of(j)), inc)
    return Context(tuple(zip(_auto_names(types), types)))


def tree_inc_by_suspension(eps, n, t):
    """Each child's inclusion one level down, suspended and included."""
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
        rec = tree_inc_by_suspension(eps, n - 1, c)
        for j, term in enumerate(rec):
            out[bbs[i] + j] = apply_sub_term(suspend_term(term), inc)
    return tuple(out)


def test_layout_walks_match_the_definitions_by_suspension():
    trees = list(enumerate_trees(8))  # every tree of at most 7 edges
    assert len(trees) == 626
    inclusions = 0
    for t in trees:
        ctx = tree_to_ctx(t)
        ref = tree_to_ctx_by_suspension(t)
        assert (ctx.types, ctx.names) == (ref.types, ref.names), t
        for n in range(t.dim + 2):
            for eps in "-+":
                assert tree_inc(eps, n, t) == tree_inc_by_suspension(eps, n, t), (t, n, eps)
                inclusions += 1
    assert inclusions == 6660
