import pickle

import pytest
from hypothesis import given, strategies as st

from semistrict.syntax import (
    STAR, Arrow, Coh, Context, KernelError, Var, alpha_eq, apply_sub_term,
    apply_sub_type, compose, dim_ctx, dim_term, dim_type, free_vars, id_sub,
    support,
)
from semistrict.trees import disc, tree_to_ctx
from semistrict.unbiased import identity_term, unbiased_coh, unbiased_type

from conftest import CHAIN1, CHAIN2


def test_variable_lookup(ctx2, comp_fg):
    # f[<f -> f, g -> id_y>] is still f: variables read their image
    one_y = identity_term(STAR, Var(1))
    sub = (Var(0), Var(1), Var(2), Var(1), one_y)
    assert apply_sub_term(Var(2), sub) == Var(2)
    assert apply_sub_term(Var(4), sub) == one_y


def test_identity_substitution_fixes_terms(comp_fg, f_then_gh, fg_then_h):
    for t in (Var(0), comp_fg, f_then_gh, fg_then_h):
        n = 5 if t is comp_fg else 7
        assert apply_sub_term(t, id_sub(n)) == t


def test_composite_under_unitor_substitution(comp_fg, f_then_idy):
    # (f . g) pushed through <.., f -> f, g -> id_y> gives f . id_y
    one_y = identity_term(STAR, Var(1))
    sub = (Var(0), Var(1), Var(2), Var(1), one_y)
    assert apply_sub_term(comp_fg, sub) == f_then_idy


def test_free_vars_and_support(ctx2):
    assert free_vars(Var(2)) == frozenset({2})
    assert support(ctx2, Var(2)) == frozenset({0, 1, 2})
    point = Context((("x", STAR),))
    assert support(point, Var(0)) == frozenset({0})


def test_support_idempotent_and_downward_closed(ctx2, f_then_gh, ctx3):
    for ctx, t in ((ctx2, unbiased_coh(1, CHAIN2)), (ctx3, f_then_gh)):
        supp = support(ctx, t)
        assert support(ctx, tuple(Var(i) for i in sorted(supp))) == supp
        for i in supp:
            assert free_vars(ctx.type_of(i)) <= supp


def test_dimensions():
    assert dim_type(STAR) == 0
    assert dim_type(Arrow(Var(0), STAR, Var(1))) == 1
    assert dim_ctx(tree_to_ctx(disc(3))) == 3


def test_dim_preserved_by_substitution(ctx2, ctx3, f_then_gh):
    # push the binary composite along an inclusion-like substitution
    sub = (Var(0), Var(1), Var(2), Var(5), f_then_gh)
    t = unbiased_coh(1, CHAIN2)
    assert dim_term(ctx3, apply_sub_term(t, sub)) == dim_term(ctx2, t)


def test_alpha_ignores_names():
    a = Context((("x", STAR),))
    b = Context((("y", STAR),))
    assert a == b
    assert alpha_eq(Var(0), Var(0))


def test_alpha_distinguishes_args(comp_fg):
    flipped = Coh(CHAIN2, comp_fg.cell, (Var(0), Var(1), Var(4), Var(3), Var(2)))
    assert not alpha_eq(comp_fg, flipped)


def test_identity_built_twice_is_alpha_equal():
    assert identity_term(STAR, Var(0)) == identity_term(STAR, Var(0))
    a = Arrow(Var(0), STAR, Var(1))
    assert alpha_eq(identity_term(a, Var(2)), identity_term(a, Var(2)))


def test_compose_associative_and_unital(f_then_gh):
    rho = (Var(0), Var(1), Var(2), Var(1), identity_term(STAR, Var(1)))
    tau = id_sub(5)[:3] + (Var(1), Var(2))  # an endo-substitution on ctx2's shape
    sigma = (Var(0), Var(1), Var(2), Var(3), Var(4))
    assert compose(compose(tau, rho), sigma) == compose(tau, compose(rho, sigma))
    assert compose(rho, id_sub(3)) == rho
    assert compose(id_sub(5), rho) == rho


def test_arity_mismatch_is_structural_error():
    with pytest.raises(KernelError):
        apply_sub_term(Var(3), (Var(0),))


def test_alpha_congruence(comp_fg):
    # equal components build equal composites
    again = Coh(comp_fg.head, Arrow(Var(0), STAR, Var(3)), id_sub(5))
    assert alpha_eq(comp_fg, again)
    assert hash(comp_fg) == hash(again)


@given(st.integers(min_value=0, max_value=30))
def test_id_sub_entries(n):
    assert all(t == Var(i) for i, t in enumerate(id_sub(n)))


def test_context_equality_ignores_names():
    a = tree_to_ctx(CHAIN2)
    b = Context(tuple(zip("abcde", a.types)))
    assert a.names != b.names
    assert a == b and hash(a) == hash(b)
    assert a.types == b.types
    c = tree_to_ctx(CHAIN1)
    assert a != c
    d = Context(a.entries[:4] + (("g", Arrow(Var(0), STAR, Var(3))),))
    assert a != d


def test_coh_rejects_wrong_arity():
    with pytest.raises(KernelError):
        Coh(((), ()), unbiased_type(1, CHAIN1), id_sub(3))
    Coh(CHAIN1, unbiased_type(1, CHAIN1), id_sub(3))


def test_var_is_interned():
    for i in range(2001):
        v = Var(i)
        assert v is Var(i) and v.idx == i
        assert v == Var(i) and hash(v) == hash(Var(i))
    assert Var(3) != Var(4)
    assert id_sub(2001) == tuple(Var(i) for i in range(2001))
    assert pickle.loads(pickle.dumps(id_sub(9))) == id_sub(9)
    assert pickle.loads(pickle.dumps(Var(7))) is Var(7)
    assert repr(Var(5)) == "Var(5)"
    with pytest.raises(KernelError):
        Var(-1)
    with pytest.raises(AttributeError):
        Var(0).idx = 1
