"""The paper's metatheory of reduction, on every step from sampled terms.

Local confluence and termination: each ``one_step`` reduct of a term
normalizes to the term's normal form, and each step lowers the
syntactic complexity, or keeps it when it is taken inside a cell.
Type preservation: each reduct has the term's type up to conversion.
Stability: normalizing commutes with suspension and with substitution.
The samples are population terms of three seeds and bracketed composite
chains in dimensions 1 and 2.
"""

import random

import pytest

from semistrict.check import infer_term
from semistrict.harness import (
    GenConfig, TermGen, ctx_to_tree, gen_population, gen_tree, one_step,
    ord_lt, syntactic_complexity,
)
from semistrict.rewriting import def_eq, normalize
from semistrict.syntax import apply_sub_term
from semistrict.trees import suspend_term, tree_to_ctx

from conftest import comp_chain

SEEDS = [7, 11, 23]


def _chains():
    rng = random.Random(0)
    for dim in (1, 2):
        for n in range(2, 25):
            for shape in ("left", "right", "random"):
                t = comp_chain(n, shape, rng)[1]
                yield suspend_term(t) if dim == 2 else t


def _locally_confluent_and_decreasing(terms):
    steps = 0
    for t in terms:
        nf, sc = normalize(t), syntactic_complexity(t)
        for rule, path, reduct in one_step(t):
            assert normalize(reduct) is nf, (t, rule, path)
            if "cell" in path:
                assert syntactic_complexity(reduct) == sc, (t, rule, path)
            else:
                assert ord_lt(syntactic_complexity(reduct), sc), (t, rule, path)
            steps += 1
    return steps


@pytest.mark.parametrize("seed", SEEDS)
def test_every_step_from_a_population_term_rejoins_it_and_lowers_its_complexity(seed):
    terms = [t for _, t in gen_population(GenConfig(seed=seed), 300)]
    assert _locally_confluent_and_decreasing(terms) > 800


def test_every_step_from_a_chain_rejoins_it_and_lowers_its_complexity():
    assert _locally_confluent_and_decreasing(_chains()) > 1500


@pytest.mark.parametrize("seed", SEEDS)
def test_every_step_from_a_population_term_preserves_its_type(seed):
    steps = 0
    for ctx, t in gen_population(GenConfig(seed=seed), 300):
        ty = infer_term(ctx, t)
        for rule, path, reduct in one_step(t):
            assert def_eq(infer_term(ctx, reduct), ty), (t, rule, path)
            steps += 1
    assert steps > 800


@pytest.mark.parametrize("seed", SEEDS)
def test_normalizing_commutes_with_suspension_and_substitution(seed):
    # t[sigma] for sigma out of t's context into another pasting context,
    # drawn from a pool of that context's terms
    rng, cfg = random.Random(seed), GenConfig(seed=seed)
    for ctx, t in gen_population(cfg, 200):
        assert normalize(suspend_term(t)) is suspend_term(normalize(t))
        gen = TermGen(tree_to_ctx(gen_tree(rng, cfg)), cfg, rng)
        for _ in range(rng.randint(0, 4)):
            gen.grow()
        sigma = gen.gen_sub(ctx_to_tree(ctx))
        moved = apply_sub_term(t, sigma)
        infer_term(gen.ctx, moved)
        assert normalize(moved) is normalize(apply_sub_term(normalize(t), sigma)), (t, sigma)
