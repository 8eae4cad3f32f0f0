import pytest

from semistrict.syntax import _TREES, STAR, Arrow, Coh, Context, Tree, Var, id_sub
from semistrict.trees import tree_to_ctx
from semistrict.unbiased import identity_term, unbiased_coh, unbiased_type

CHAIN1 = Tree(((),))
CHAIN2 = Tree(((), ()))
CHAIN3 = Tree(((), (), ()))

# what a tree keeps once the function that owns each fact has built it
TREE_FACTS = ("ctx", "branches", "unbiased")


def forget_tree_facts():
    """Drop the facts every live tree keeps, so the next use builds them."""
    for t in _TREES.values():
        for name in TREE_FACTS:
            t.__dict__.pop(name, None)


@pytest.fixture
def ctx1():
    """x, y, f : x -> y"""
    return tree_to_ctx(CHAIN1)


@pytest.fixture
def ctx2():
    """x, y, f : x -> y, z, g : y -> z"""
    return tree_to_ctx(CHAIN2)


@pytest.fixture
def ctx3():
    """x, y, f, z, g, w, h: three composable arrows"""
    return tree_to_ctx(CHAIN3)


@pytest.fixture
def comp_fg():
    """The binary composite over the two-arrow context."""
    return unbiased_coh(1, CHAIN2)


@pytest.fixture
def f_then_gh():
    """comp f (comp g h) over the three-arrow context."""
    u1 = unbiased_type(1, CHAIN2)
    gh = Coh(CHAIN2, u1, (Var(1), Var(3), Var(4), Var(5), Var(6)))
    return Coh(CHAIN2, u1, (Var(0), Var(1), Var(2), Var(5), gh))


@pytest.fixture
def fg_then_h():
    """comp (comp f g) h over the three-arrow context."""
    u1 = unbiased_type(1, CHAIN2)
    fg = Coh(CHAIN2, u1, (Var(0), Var(1), Var(2), Var(3), Var(4)))
    return Coh(CHAIN2, u1, (Var(0), Var(3), fg, Var(5), Var(6)))


@pytest.fixture
def f_then_idy():
    """comp f (id y) over the one-arrow context."""
    u1 = unbiased_type(1, CHAIN2)
    one_y = identity_term(STAR, Var(1))
    return Coh(CHAIN2, u1, (Var(0), Var(1), Var(2), Var(1), one_y))


@pytest.fixture
def env():
    from semistrict.elaborate import new_env
    return new_env()
