import pytest

from semistrict.syntax import (
    STAR, Arrow, Coh, Tree, Var, apply_sub_term, dim_type, id_sub,
)
from semistrict.trees import ctx_len, disc, suspend_term, suspend_tree, suspend_type
from semistrict.unbiased import (
    disc_sub, identity_term, is_identity, unbiased_coh, unbiased_term,
    unbiased_type,
)
from semistrict.rewriting import normalize
from semistrict.harness import (
    enumerate_trees, is_unbiased_coh, is_unbiased_composite, match_disc_sub,
)

from conftest import CHAIN2, CHAIN3


def test_binary_composite_is_unbiased(comp_fg):
    assert unbiased_coh(1, CHAIN2) == comp_fg
    assert unbiased_type(1, CHAIN2) == Arrow(Var(0), STAR, Var(3))


def test_unbiased_term_on_discs():
    for n in range(4):
        assert unbiased_term(n, disc(n)) == Var(ctx_len(disc(n)) - 1)


def test_identity_term_literal():
    one = identity_term(STAR, Var(0))
    assert one == Coh((), Arrow(Var(0), STAR, Var(0)), (Var(0),))


def test_identity_dim_and_recognizer():
    a = Arrow(Var(0), STAR, Var(1))
    one_f = identity_term(a, Var(2))
    assert dim_type(one_f.cell) == dim_type(a) + 1
    assert is_identity(one_f)
    assert is_identity(identity_term(STAR, Var(0)))


def test_composite_recognizers(comp_fg):
    assert is_unbiased_composite(comp_fg)
    n, tree, args = is_unbiased_coh(comp_fg)
    assert (n, tree) == (1, CHAIN2)
    assert args == id_sub(5)
    assert not is_unbiased_composite(identity_term(STAR, Var(0)))
    assert not is_identity(comp_fg)


def test_associator_is_not_unbiased(f_then_gh, fg_then_h):
    alpha = Coh(CHAIN3, Arrow(fg_then_h, Arrow(Var(0), STAR, Var(5)), f_then_gh),
                id_sub(7))
    assert is_unbiased_coh(alpha) is None
    assert not is_unbiased_composite(alpha)


def test_disc_sub_base():
    assert disc_sub(STAR, Var(4)) == (Var(4),)


def test_disc_sub_boundary_listing():
    a = Arrow(Var(0), STAR, Var(1))
    assert disc_sub(a, Var(2)) == (Var(0), Var(1), Var(2))


def test_disc_sub_roundtrip():
    a = Arrow(Var(2), Arrow(Var(0), STAR, Var(1)), Var(3))
    assert match_disc_sub(disc_sub(a, Var(4))) == (a, Var(4))


def test_every_disc_substitution_splits(comp_fg):
    # any substitution out of a disc is of the {A, t} form
    sub = (Var(0), Var(3), comp_fg)
    a, t = match_disc_sub(sub)
    assert disc_sub(a, t) == sub


def test_suspension_identities_small():
    for t in enumerate_trees(6):
        for n in range(t.dim + 2):
            assert suspend_term(unbiased_coh(n, t)) == \
                unbiased_coh(n + 1, suspend_tree(t))
            assert suspend_term(unbiased_term(n, t)) == \
                unbiased_term(n + 1, suspend_tree(t))
            assert suspend_type(unbiased_type(n, t)) == \
                unbiased_type(n + 1, suspend_tree(t))


def test_unbiased_coh_reduces_to_unbiased_term():
    for t in enumerate_trees(5):
        for n in range(1, t.dim + 2):
            assert normalize(unbiased_coh(n, t)) == normalize(unbiased_term(n, t))


def test_identity_from_unbiased_clauses():
    # the identity is the unbiased coherence one dimension above its disc
    one = identity_term(STAR, Var(0))
    m = is_unbiased_coh(one)
    assert m is not None
    n, tree, _ = m
    assert n == tree.dim + 1 and tree == ()
