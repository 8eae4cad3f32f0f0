"""The paper's metatheory of reduction, on every step from sampled terms.

Local confluence and termination: each ``one_step`` reduct of a term
normalizes to the term's normal form, and each step lowers the
syntactic complexity.  A step taken inside a cell keeps it, unless it
turns the coherence whose cell holds it into an identity: then it falls
by exactly omega^d, d the dimension of that coherence's cell.
Type preservation: each reduct has the term's type up to conversion.
Stability: normalizing commutes with suspension and with substitution.
The samples are population terms of three seeds, bracketed composite
chains in dimensions 1 and 2, and every node on the outermost path of
each term the corpus elaborates.
"""

import random
from pathlib import Path

import pytest

from semistrict import parser as P
from semistrict.check import infer_term
from semistrict.elaborate import new_env, process_decl
from semistrict.harness import (
    GenConfig, TermGen, ctx_to_tree, gen_population, gen_tree, natural_sum,
    omega_pow, one_step, ord_lt, syntactic_complexity,
)
from semistrict.rewriting import def_eq, normalize
from semistrict.syntax import Arrow, Var, apply_sub_term, dim_type
from semistrict.trees import suspend_term, tree_to_ctx
from semistrict.unbiased import is_identity

from conftest import comp_chain

SEEDS = [7, 11, 23]
CORPUS = Path(__file__).parent.parent / "corpus"


def _chains():
    rng = random.Random(0)
    for dim in (1, 2):
        for n in range(2, 25):
            for shape in ("left", "right", "random"):
                t = comp_chain(n, shape, rng)[1]
                yield suspend_term(t) if dim == 2 else t


def _coh_at(t, links):
    for _, i in links:
        t = t.args[i]
    return t


def _complexity_drop(t, sc, path, reduct):
    """How a step's complexity compares with its term's, ``sc``: "lower",
    "same", or "identity" when a cell step makes the coherence whose cell
    holds it an identity and the complexity falls by exactly omega^d."""
    rc = syntactic_complexity(reduct)
    if "cell" not in path:
        return "lower" if ord_lt(rc, sc) else None
    links = path[:path.index("cell")]
    before, after = _coh_at(t, links), _coh_at(reduct, links)
    if is_identity(after) and not is_identity(before):
        return "identity" if natural_sum(rc, omega_pow(dim_type(before.cell))) == sc else None
    return "same" if rc == sc else None


def _locally_confluent_and_decreasing(terms):
    steps = 0
    for t in terms:
        nf, sc = normalize(t), syntactic_complexity(t)
        for rule, path, reduct in one_step(t):
            assert normalize(reduct) is nf, (t, rule, path)
            assert _complexity_drop(t, sc, path, reduct) in ("lower", "same"), (t, rule, path)
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


def _corpus_terms():
    for path in sorted(CORPUS.glob("*.catt")):
        env = new_env()
        for decl in P.parse(path.read_text()):
            checked = process_decl(decl, env)
            for t in checked.terms:
                yield checked.ctx, t


def test_every_step_along_the_outermost_path_of_a_corpus_term_keeps_the_properties():
    # each node of each term's outermost path (its first reduct, taken
    # until none is left), and every step out of that node
    terms, nodes, rules, drops = 0, 0, {}, {}
    for ctx, t in _corpus_terms():
        terms += 1
        nf, ty = normalize(t), infer_term(ctx, t)
        while True:
            nodes += 1
            steps, sc = one_step(t), syntactic_complexity(t)
            for rule, path, reduct in steps:
                assert normalize(reduct) is nf, (t, rule, path)
                assert def_eq(infer_term(ctx, reduct), ty), (t, rule, path)
                drop = _complexity_drop(t, sc, path, reduct)
                assert drop is not None, (t, rule, path)
                rules[rule] = rules.get(rule, 0) + 1
                drops[drop] = drops.get(drop, 0) + 1
            if not steps:
                break
            t = steps[0][2]
    assert (terms, nodes) == (24, 391)
    assert rules == {"insertion": 4553, "disc-removal": 89, "endo-coherence-removal": 25}
    assert drops["identity"] == 1


def test_a_cell_step_that_makes_an_identity_lowers_the_complexity_by_omega_to_its_dimension(env):
    # unitor-r f of corpus/basics.catt, along its outermost path: id y
    # inserts into the cell's source comp f (id y), leaving the unary
    # composite of f, and disc removal turns the cell into f -> f, the
    # identity's cell on f
    t = process_decl(P.parse("normalize (x(f)y) | unitor-r f")[0], env).terms[0]
    [(rule, path, unary)] = one_step(t)
    assert (rule, path) == ("insertion", ("cell", "src"))
    assert _complexity_drop(t, syntactic_complexity(t), path, unary) == "same"
    [(rule, path, reduct)] = one_step(unary)
    assert (rule, path) == ("disc-removal", ("cell", "src"))
    assert reduct.cell == Arrow(Var(2), reduct.cell.base, Var(2))
    assert not is_identity(unary) and is_identity(reduct)
    assert syntactic_complexity(unary) == omega_pow(2, 2)
    assert syntactic_complexity(reduct) == omega_pow(2)
    assert _complexity_drop(unary, omega_pow(2, 2), path, reduct) == "identity"
