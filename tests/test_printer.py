import pytest

from semistrict.elaborate import new_env, process_decl
from semistrict.harness import GenConfig, ctx_to_tree, gen_population
from semistrict.parser import parse
from semistrict.printer import fmt_ps, fmt_term
from semistrict.rewriting import def_eq, normalize


@pytest.mark.parametrize("seed", [0, 1])
def test_print_parse_round_trip(seed):
    # normal forms come back exactly; a raw term may come back as another
    # term with the same normal form, since only locally maximal
    # arguments are printed and the rest are inferred
    env = new_env()
    for ctx, t in gen_population(GenConfig(seed=seed), 150):
        ps = fmt_ps(ctx_to_tree(ctx), ctx.names)
        for term in (normalize(t), t):
            src = f"normalize {ps} | {fmt_term(term, ctx.names)}\n"
            checked = process_decl(parse(src)[0], env)
            assert checked.ctx == ctx
            back = checked.terms[0]
            if term is t:
                assert def_eq(back, t), src
            else:
                assert back == term, src
