import sys

import pytest

from semistrict import check, rewriting
from semistrict.check import TypingError, infer_term
from semistrict.harness import GenConfig, gen_population
from semistrict.rewriting import def_eq, normalize
from semistrict.syntax import STAR, Arrow, Coh, Var, id_sub
from semistrict.trees import block_starts, point_positions, tree_to_ctx
from semistrict.unbiased import unbiased_coh, unbiased_type

from conftest import CHAIN1, CHAIN2


def _clear_memos():
    check._INFER_CACHE.clear()
    check._GOOD_HEADS.clear()
    rewriting.clear_caches()


def _error(ctx, t):
    with pytest.raises(TypingError) as info:
        infer_term(ctx, t)
    return info.value.kind, info.value.detail


# over (x(f)y): x -> x has the wrong target support, and f -> f over *
# is ill formed because f is an arrow, not an object
@pytest.mark.parametrize("cell, kind", [
    (Arrow(Var(0), STAR, Var(0)), "SupportMismatch"),
    (Arrow(Var(2), STAR, Var(2)), "TypeMismatch"),
])
def test_a_bad_head_fails_the_same_way_on_every_use(ctx1, ctx2, comp_fg, cell, kind):
    infer_term(ctx2, comp_fg)  # a good head, remembered
    first = _error(ctx1, Coh(CHAIN1, cell, id_sub(3)))
    assert first[0] == kind
    # the same head again, with other well-typed arguments and with the same
    assert _error(ctx2, Coh(CHAIN1, cell, (Var(1), Var(3), Var(4)))) == first
    assert _error(ctx1, Coh(CHAIN1, cell, id_sub(3))) == first
    assert (CHAIN1, cell) not in check._GOOD_HEADS


def test_a_bad_argument_is_reported_before_a_bad_support(ctx1):
    # the head has the wrong target support and argument 2 is an object
    t = Coh(CHAIN1, Arrow(Var(0), STAR, Var(0)), (Var(0), Var(1), Var(0)))
    for _ in range(2):
        assert _error(ctx1, t) == (
            "TypeMismatch",
            "argument 2 (f) has type Star, expected Arrow(Var(0), Star, Var(1))")


def test_a_good_head_is_remembered_and_its_arguments_still_checked(ctx1, ctx2, comp_fg):
    infer_term(ctx2, comp_fg)
    assert (comp_fg.head, comp_fg.cell) in check._GOOD_HEADS
    # the remembered head with an argument of the wrong dimension
    bad = Coh(comp_fg.head, comp_fg.cell, (Var(0), Var(1), Var(2), Var(1), Var(0)))
    kind, detail = _error(ctx1, bad)
    assert kind == "TypeMismatch" and detail.startswith("argument 4 (g)")


def test_memos_do_not_change_inferred_types():
    pop = gen_population(GenConfig(seed=3), 150)
    _clear_memos()
    warm = [infer_term(ctx, t) for ctx, t in pop]
    cold = []
    for ctx, t in pop:
        _clear_memos()
        cold.append(infer_term(ctx, t))
    assert cold == warm


def test_def_eq_of_equal_syntax_normalizes_nothing(monkeypatch, f_then_gh, fg_then_h):
    calls = []
    normalize = rewriting.normalize

    def counting(x, budget=rewriting.DEFAULT_BUDGET):
        calls.append(x)
        return normalize(x, budget)

    monkeypatch.setattr(rewriting, "normalize", counting)
    u = Arrow(Var(0), STAR, Var(1))
    for a, b in ((f_then_gh, f_then_gh), (u, Arrow(Var(0), STAR, Var(1))),
                 (Var(3), Var(3))):
        assert def_eq(a, b)
    assert calls == []
    # different syntax still goes through normal forms
    assert def_eq(f_then_gh, fg_then_h)
    assert calls == [f_then_gh, fg_then_h]


def _deep_chain(n, shape):
    """The left- or right-nested binary bracketing of n arrows, built in a loop."""
    tree = ((),) * n
    pts, arrows = point_positions(tree), block_starts(tree)
    comp = unbiased_type(1, CHAIN2)
    if shape == "left":
        t = Var(arrows[0])
        for i in range(1, n):
            t = Coh(CHAIN2, comp, (Var(pts[0]), Var(pts[i]), t, Var(pts[i + 1]),
                                   Var(arrows[i])))
    else:
        t = Var(arrows[n - 1])
        for i in range(n - 2, -1, -1):
            t = Coh(CHAIN2, comp, (Var(pts[i]), Var(pts[i + 1]), Var(arrows[i]),
                                   Var(pts[n]), t))
    return tree, t


@pytest.mark.parametrize("shape", ["left", "right"])
def test_400_deep_chains_decide_at_the_default_recursion_limit(shape):
    # inference takes two frames per nesting level, as normalizing does
    assert sys.getrecursionlimit() == 1000
    tree, t = _deep_chain(400, shape)
    _clear_memos()
    assert infer_term(tree_to_ctx(tree), t) == unbiased_type(1, tree)
    assert normalize(t) == unbiased_coh(1, tree)
