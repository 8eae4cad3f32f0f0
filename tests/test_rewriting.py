import random

import pytest
from hypothesis import given, settings, strategies as st

from semistrict import rewriting
from semistrict.check import infer_term
from semistrict.syntax import STAR, Arrow, Coh, Var, apply_sub_term, id_sub
from semistrict.trees import (
    block_starts, ctx_len, disc, point_positions, suspend_term, suspend_tree,
    tree_to_ctx,
)
from semistrict.unbiased import (
    disc_sub, identity_term, is_identity, unbiased_coh, unbiased_type,
)
from semistrict.insertion import exterior_sub
from semistrict.rewriting import (
    ORD_ZERO, OrdinalPoly, RuleSet, StepBudgetExceeded, clear_caches, def_eq, disc_removal,
    endo_coherence_removal, insertion_step, natural_sum, normalize,
    normalize_first_step, omega_pow, one_step, one_step_term, ord_lt, sc,
)
from semistrict.harness import (
    GenConfig, gen_population, reduction_graph,
)

from conftest import CHAIN1, CHAIN2, CHAIN3


# --- ordinals ----------------------------------------------------------------

ordinals = st.builds(
    lambda d: OrdinalPoly(tuple(sorted(d.items(), reverse=True))),
    st.dictionaries(st.integers(0, 5), st.integers(1, 9), max_size=4))


@given(ordinals, ordinals, ordinals)
def test_natural_sum_assoc_comm(a, b, c):
    assert natural_sum(a, b) == natural_sum(b, a)
    assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))


@given(ordinals, ordinals, ordinals)
def test_natural_sum_strictly_monotone(a, b, c):
    if ord_lt(a, b):
        assert ord_lt(natural_sum(a, c), natural_sum(b, c))


@given(ordinals, ordinals)
def test_ord_lt_total_order(a, b):
    assert (ord_lt(a, b), ord_lt(b, a), a == b).count(True) == 1


@given(ordinals, ordinals, ordinals)
def test_ord_lt_transitive(a, b, c):
    if ord_lt(a, b) and ord_lt(b, c):
        assert ord_lt(a, c)


def test_ordinal_printing():
    assert str(ORD_ZERO) == "0"
    assert str(natural_sum(omega_pow(2, 2), omega_pow(0, 3))) == "2w^2 + 3"


# --- syntactic complexity -------------------------------------------------------

def test_sc_examples(comp_fg):
    assert sc(Var(0)) == ORD_ZERO
    assert sc(identity_term(STAR, Var(0))) == omega_pow(1)
    assert sc(comp_fg) == omega_pow(1, 2)


# --- head rules -------------------------------------------------------------------

def test_disc_removal_unary():
    unary = Coh(disc(1), unbiased_type(1, disc(1)), (Var(0), Var(1), Var(2)))
    assert disc_removal(unary) == Var(2)


def test_disc_removal_not_applicable(comp_fg):
    assert disc_removal(comp_fg) is None
    assert disc_removal(identity_term(STAR, Var(0))) is None


def test_disc_removal_iterates():
    inner = Coh(disc(1), unbiased_type(1, disc(1)), (Var(0), Var(1), Var(2)))
    outer = Coh(disc(1), unbiased_type(1, disc(1)), (Var(0), Var(1), inner))
    assert disc_removal(outer) == inner
    assert normalize(outer) == Var(2)


def test_ecr_direct_instance():
    arr = Arrow(Var(0), STAR, Var(1))
    endo = Coh(CHAIN1, Arrow(Var(2), arr, Var(2)), id_sub(3))
    infer_term(tree_to_ctx(CHAIN1), endo)
    # head ((),) is the one-arrow tree; cell f -> f over it IS the identity
    assert endo_coherence_removal(endo) is None and is_identity(endo)
    assert endo == identity_term(arr, Var(2))
    # a genuinely non-identity endo-coherence over the two-arrow tree
    comp_ty = unbiased_type(1, CHAIN2)
    comp = unbiased_coh(1, CHAIN2)
    endo2 = Coh(CHAIN2, Arrow(comp, comp_ty, comp), id_sub(5))
    infer_term(tree_to_ctx(CHAIN2), endo2)
    out = endo_coherence_removal(endo2)
    assert out == identity_term(comp_ty, comp)


def test_ecr_skips_identities():
    assert endo_coherence_removal(identity_term(STAR, Var(0))) is None


def test_insertion_step_examples(f_then_gh, fg_then_h, f_then_idy):
    tern = unbiased_coh(1, CHAIN3)
    assert insertion_step(f_then_gh) == tern
    assert insertion_step(fg_then_h) == tern
    out = insertion_step(f_then_idy)
    assert out.head == ((),)  # unary composite of f
    assert normalize(f_then_idy) == Var(2)


def test_one_step_variables_are_normal():
    assert one_step_term(Var(0)) == []


def test_one_step_contains_insertion(f_then_gh):
    rules = [s.rule for s in one_step_term(f_then_gh)]
    assert "insertion" in rules


def test_one_step_endo_includes_ecr_and_argument_steps(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    steps = one_step_term(endo)
    kinds = {(s.rule, s.path and s.path[0]) for s in steps}
    assert ("endo-coherence-removal", ()) in {(s.rule, s.path) for s in steps}
    assert any(s.path and s.path[0] == "cell" for s in steps)


def test_normalize_strict_associativity(f_then_gh, fg_then_h):
    assert normalize(f_then_gh) == normalize(fg_then_h) == unbiased_coh(1, CHAIN3)


def test_normalize_variables(ctx2):
    assert normalize(Var(0)) == Var(0)


def test_unitor_collapses_to_identity(f_then_idy):
    a = Arrow(Var(0), STAR, Var(1))
    rho = Coh(((),), Arrow(f_then_idy, a, Var(2)), id_sub(3))
    nf = normalize(rho)
    assert is_identity(nf)
    assert nf == identity_term(a, Var(2))


def test_associator_collapses_to_identity(f_then_gh, fg_then_h):
    a = Arrow(Var(0), STAR, Var(5))
    alpha = Coh(CHAIN3, Arrow(fg_then_h, a, f_then_gh), id_sub(7))
    nf = normalize(alpha)
    assert is_identity(nf)
    assert nf == identity_term(a, unbiased_coh(1, CHAIN3))


def test_reduction_graph_is_the_def_eq_oracle(f_then_gh, fg_then_h):
    g1 = reduction_graph(f_then_gh)
    g2 = reduction_graph(fg_then_h)
    assert g1.sinks == g2.sinks == {unbiased_coh(1, CHAIN3)}
    assert def_eq(f_then_gh, fg_then_h)
    only = reduction_graph(Var(0))
    assert only.nodes == {Var(0)} and only.sinks == {Var(0)}


def test_def_eq_examples(f_then_gh, fg_then_h, f_then_idy, comp_fg):
    assert def_eq(f_then_gh, fg_then_h)
    assert def_eq(f_then_idy, Var(2))
    flipped = Coh(CHAIN2, comp_fg.cell, (Var(0), Var(1), Var(4), Var(3), Var(2)))
    assert not def_eq(comp_fg, flipped)


def test_strategy_independence():
    cfg = GenConfig(seed=20)
    for ctx, t in gen_population(cfg, 60):
        assert normalize(t) == normalize_first_step(t)


def test_rule_set_configuration(f_then_gh):
    no_ins = RuleSet(insertion=False)
    assert normalize(f_then_gh, no_ins) == f_then_gh
    assert no_ins.disabled() == ["ins"]


def test_step_budget_trips():
    with pytest.raises(StepBudgetExceeded):
        deep = Var(2)
        a = Arrow(Var(0), STAR, Var(1))
        for _ in range(12):
            u1 = unbiased_type(1, disc(1))
            deep = Coh(disc(1), u1, (Var(0), Var(1), deep))
        normalize(deep, budget=3, trace=lambda s: None)


def test_cell_steps_preserve_sc_non_cell_steps_decrease(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    for t in (f_then_gh, endo):
        base = sc(t)
        for step in one_step_term(t):
            if "cell" in step.path:
                assert sc(step.result) == base
            else:
                assert ord_lt(sc(step.result), base)


def test_trace_stream_is_deterministic(f_then_gh):
    def run():
        log = []
        normalize(f_then_gh, trace=lambda s: log.append(
            (s.rule, s.path, s.detail)))
        return log

    first = run()
    assert first == run()
    assert first and first[0][0] == "insertion"
    assert "S=[[],[]]" in first[0][2]


def test_insertion_detail_formatted_only_when_traced(f_then_gh, monkeypatch):
    def fail(r):
        raise AssertionError("detail formatted without a trace")

    monkeypatch.setattr(rewriting, "_insertion_detail", fail)
    clear_caches()  # make sure the insertion really runs, not a memo hit
    assert normalize(f_then_gh) == unbiased_coh(1, CHAIN3)
    monkeypatch.undo()
    log = []
    normalize(f_then_gh, trace=log.append)
    assert [(s.rule, s.detail) for s in log] == [
        ("insertion", "S=[[],[]] P=[1] T=[[],[]] -> [[],[],[]]")]


def _comp_chain(n, shape, rng):
    """A bracketing of the n-arrow chain into binary composites."""
    tree = ((),) * n
    pts, arrows = point_positions(tree), block_starts(tree)
    comp = unbiased_type(1, CHAIN2)

    def build(lo, hi):
        if hi - lo == 1:
            return Var(arrows[lo])
        if shape == "left":
            cut = hi - 1
        elif shape == "right":
            cut = lo + 1
        else:
            cut = rng.randint(lo + 1, hi - 1)
        return Coh(CHAIN2, comp, (Var(pts[lo]), Var(pts[cut]), build(lo, cut),
                                  Var(pts[hi]), build(cut, hi)))

    return tree, build(0, n)


@pytest.mark.parametrize("dim", [1, 2])
def test_comp_chains_normalize_to_the_unbiased_composite(dim):
    rng = random.Random(dim)
    for n in (2, 3, 5, 8, 13, 24):
        for shape in ("left", "right", "random", "random"):
            tree, t = _comp_chain(n, shape, rng)
            if dim == 2:
                tree, t = suspend_tree(tree), suspend_term(t)
            clear_caches()
            nf = normalize(t)
            assert nf == unbiased_coh(dim, tree)
            assert nf == normalize_first_step(t)


@pytest.mark.parametrize("u", [CHAIN2, CHAIN3])
def test_whisker_insertion_normalizes_the_reduct_cell(u):
    # alpha whiskered by a composite g1 .. gm: the reduct's cell still
    # holds f composed with that composite, which inserts in turn
    s = (((),), ())
    r = s[:1] + u
    t = Coh(s, unbiased_type(2, s), exterior_sub(s, (1,), u))
    infer_term(tree_to_ctx(r), t)
    clear_caches()
    nf = normalize(t)
    assert nf == unbiased_coh(2, r)
    assert nf == normalize_first_step(t)


@pytest.mark.parametrize("seed", [0, 1])
def test_normalize_preserves_type(seed):
    for ctx, t in gen_population(GenConfig(seed=seed), 150):
        assert def_eq(infer_term(ctx, normalize(t)), infer_term(ctx, t))
