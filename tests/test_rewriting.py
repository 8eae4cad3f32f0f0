import random

import pytest
from hypothesis import given, strategies as st

from semistrict import harness, rewriting
from semistrict.check import infer_term
from semistrict.syntax import STAR, Arrow, Coh, Var, id_sub
from semistrict.trees import ctx_len, disc, suspend_term, suspend_tree, tree_to_ctx
from semistrict.unbiased import (
    identity_term, is_identity, unbiased_coh, unbiased_type,
)
from semistrict.insertion import exterior_sub
from semistrict.rewriting import (
    StepBudgetExceeded, clear_caches, def_eq, disc_removal,
    endo_coherence_removal, head_steps, normalize, normalize_first_step,
)
from semistrict.harness import (
    ORD_ZERO, GenConfig, OrdinalPoly, branch_at, gen_population, natural_sum,
    omega_pow, one_step, ord_lt, reduction_graph, syntactic_complexity,
)

from conftest import CHAIN1, CHAIN2, CHAIN3, comp_chain


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


def _ord_lt_by_exponent(a, b):
    # the reference: compare coefficients from the highest exponent down
    ca, cb = dict(a.terms), dict(b.terms)
    for e in sorted(set(ca) | set(cb), reverse=True):
        x, y = ca.get(e, 0), cb.get(e, 0)
        if x != y:
            return x < y
    return False


def test_ord_lt_agrees_with_the_comparison_by_exponent():
    rng = random.Random(0)

    def ordinal():
        es = rng.sample(range(6), rng.randint(0, 4))
        return OrdinalPoly(tuple((e, rng.randint(1, 3)) for e in sorted(es, reverse=True)))

    pairs = [(ordinal(), ordinal()) for _ in range(20000)]
    # a proper prefix, and a lower exponent against a higher coefficient
    pairs += [(omega_pow(2), natural_sum(omega_pow(2), omega_pow(0))),
              (OrdinalPoly(((2, 1), (1, 3))), OrdinalPoly(((2, 1), (0, 9))))]
    for a, b in pairs:
        assert ord_lt(a, b) == _ord_lt_by_exponent(a, b), (str(a), str(b))
        assert ord_lt(b, a) == _ord_lt_by_exponent(b, a), (str(a), str(b))


def test_ordinal_printing():
    assert str(ORD_ZERO) == "0"
    assert str(natural_sum(omega_pow(2, 2), omega_pow(0, 3))) == "2w^2 + 3"


# --- syntactic complexity -------------------------------------------------------

def test_sc_examples(comp_fg):
    assert syntactic_complexity(Var(0)) == ORD_ZERO
    assert syntactic_complexity(identity_term(STAR, Var(0))) == omega_pow(1)
    assert syntactic_complexity(comp_fg) == omega_pow(1, 2)


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


def _first_insertion(t):
    return next(r for rule, r, _ in head_steps(t) if rule == "insertion")


def test_insertion_step_examples(f_then_gh, fg_then_h, f_then_idy):
    tern = unbiased_coh(1, CHAIN3)
    assert _first_insertion(f_then_gh) == tern
    assert _first_insertion(fg_then_h) == tern
    out = _first_insertion(f_then_idy)
    assert out.head == ((),)  # unary composite of f
    assert normalize(f_then_idy) == Var(2)


def test_head_steps_in_priority_order_and_lazily(comp_fg, monkeypatch):
    # the unary composite of a binary composite: disc removal and insertion
    t = Coh(disc(1), unbiased_type(1, disc(1)), (Var(0), Var(3), comp_fg))
    infer_term(tree_to_ctx(CHAIN2), t)
    assert [(rule, r) for rule, r, _ in head_steps(t)] == [
        ("disc-removal", comp_fg), ("insertion", comp_fg)]
    assert list(head_steps(Var(0))) == []

    def fail(t):
        raise AssertionError("redexes searched though a removal comes first")

    monkeypatch.setattr(rewriting, "find_redexes", fail)
    assert next(head_steps(t))[0] == "disc-removal"


def test_one_step_variables_are_normal():
    assert one_step(Var(0)) == ()


def test_one_step_contains_insertion(f_then_gh):
    rules = [rule for rule, _, _ in one_step(f_then_gh)]
    assert "insertion" in rules


def test_one_step_endo_includes_ecr_and_argument_steps(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    steps = one_step(endo)
    assert ("endo-coherence-removal", ()) in {(rule, path) for rule, path, _ in steps}
    assert any(path[:1] == ("cell",) for _, path, _ in steps)


def _coh_subterms(x, out):
    """Every coherence in ``x``, its cells' included."""
    if isinstance(x, Coh):
        out.add(x)
        for part in (x.cell,) + x.args:
            _coh_subterms(part, out)
    elif isinstance(x, Arrow):
        for part in (x.src, x.base, x.tgt):
            _coh_subterms(part, out)
    return out


def test_a_reduction_graph_enumerates_each_subterm_once(f_then_gh, monkeypatch):
    # the graph's nodes share their subterms; one memo per graph takes
    # each coherence's head steps once, however many nodes hold it
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    calls = []
    real = harness.head_steps

    def spy(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(harness, "head_steps", spy)
    graph = reduction_graph(endo)
    met = set()
    for node in graph.nodes:
        _coh_subterms(node, met)
    assert len(graph.nodes) > 2
    assert len(calls) == len(set(calls)) and set(calls) == met


def test_a_step_is_an_immutable_record_seen_from_each_level(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))

    def traced():
        log = []
        normalize(endo, trace=log.append)
        return log

    steps, again = traced(), traced()
    assert steps == again and {hash(step) for step in steps} == {hash(step) for step in again}
    # one step inside the cell, over its head, and one at the root
    inner, root = steps
    assert (inner.path_str(), inner.head, root.path_str(), root.head) == (
        "cell.src", CHAIN3, "root", None)
    assert inner != root and hash(inner) != hash(root)
    for step in steps:
        for name in ("rule", "path", "head"):
            with pytest.raises(AttributeError):
                setattr(step, name, None)
            with pytest.raises(AttributeError):
                delattr(step, name)


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


def _first_steps(t):
    """The normal form reached by taking ``one_step``'s first reduct until
    there is none, and the number of steps that took."""
    k = 0
    while True:
        steps = one_step(t)
        if not steps:
            return t, k
        t, k = steps[0][2], k + 1


def test_the_oracle_takes_the_first_enumerated_step_each_time():
    # normalize_first_step fits a budget of exactly as many steps as
    # iterating one_step's first reduct takes, so it takes the same ones
    terms = [t for _, t in gen_population(GenConfig(seed=7), 300)]
    rng = random.Random(7)
    for n in (2, 3, 5, 8, 13, 24):
        for shape in ("left", "right", "random"):
            t = comp_chain(n, shape, rng)[1]
            terms += [t, suspend_term(t)]
    for t in terms:
        nf, k = _first_steps(t)
        assert normalize_first_step(t, budget=k) == nf
        if k:
            with pytest.raises(StepBudgetExceeded):
                normalize_first_step(t, budget=k - 1)


def test_step_budget_trips():
    # each insertion on the left-nested chain is at a new head
    _, chain = comp_chain(6, "left", None)
    log = []
    normalize(chain, trace=log.append)
    assert len({s.before for s in log}) == len(log) >= 4
    with pytest.raises(StepBudgetExceeded):
        normalize(chain, budget=3, trace=lambda s: None)


def test_a_head_already_normalized_takes_no_step_and_no_scan(monkeypatch):
    # each head over normal parts is remembered with its normal form, and
    # so is each normal form, so head_steps never sees one a second time
    pop = gen_population(GenConfig(seed=20), 300)
    memo = rewriting._NF_TERMS["sua"]
    heads = []
    real = rewriting.head_steps

    def spy(t, redexes=None):
        assert t not in memo
        heads.append(t)
        return real(t, redexes)

    clear_caches()
    monkeypatch.setattr(rewriting, "head_steps", spy)
    for _, t in pop:
        normalize(t)
    assert heads and len(set(heads)) == len(heads)


def _endo_comp(a, b):
    # over the context (x : *) (f : x -> x)
    x = Var(0)
    return Coh(CHAIN2, unbiased_type(1, CHAIN2), (x, x, a, x, b))


_UNIT = _endo_comp(Var(1), identity_term(STAR, Var(0)))  # 2 steps to f


def _warmed_population(seed, count):
    """(warm, term, cold steps) for generated terms that take a step.

    The memos are warmed by a few other terms at random, and half the
    time by the term itself or one of its arguments.
    """
    rng = random.Random(seed)
    pop = [t for _, t in gen_population(GenConfig(seed=seed), count)]
    for t in pop:
        log = []
        normalize(t, trace=log.append)
        if log:
            warm = rng.sample(pop, rng.randint(0, 3))
            if isinstance(t, Coh) and rng.random() < 0.5:
                warm.append(rng.choice((t,) + t.args))
            yield warm, t, len(log)


@pytest.mark.parametrize("warm, term, steps", [
    # the same unit met twice in one normalization, computed here or remembered
    ([], _endo_comp(_UNIT, _UNIT), 2),
    ([_UNIT], _endo_comp(_UNIT, _UNIT), 2),
    # two remembered normal forms whose normalizations share the unit's steps
    ([], _endo_comp(_endo_comp(_UNIT, Var(1)), _endo_comp(Var(1), _UNIT)), 4),
    ([_endo_comp(_UNIT, Var(1)), _endo_comp(Var(1), _UNIT)],
     _endo_comp(_endo_comp(_UNIT, Var(1)), _endo_comp(Var(1), _UNIT)), 4),
    *_warmed_population(1, 150),
])
def test_a_normalization_spends_each_step_once(warm, term, steps):
    # the steps of a cold run, whatever the memo remembers
    clear_caches()
    for t in warm:
        normalize(t)
    with pytest.raises(StepBudgetExceeded):
        normalize(term, budget=steps - 1)
    assert normalize(term, budget=steps) == normalize(term, trace=lambda s: None)
    log = []
    normalize(term, trace=log.append)
    assert len(log) == steps


@pytest.fixture
def built(monkeypatch):
    """(cold, normalizer) for each Normalizer that normalize builds."""
    out = []

    class Spy(rewriting.Normalizer):
        def __init__(self, budget=None, trace=None):
            super().__init__(budget, trace)
            out.append((self.term_memo is not rewriting._NF_TERMS["sua"], self))

    monkeypatch.setattr(rewriting, "Normalizer", Spy)
    return out


def test_a_default_budget_never_normalizes_twice(built):
    # a benchmark population takes far fewer steps than the default
    # budget, and each of its normalizations is one run over the shared memos
    pop = gen_population(GenConfig(seed=11), 3000)[:3000]
    clear_caches()
    del built[:]
    for _, t in pop:
        normalize(t)
    assert len(built) == len(pop) and not any(cold for cold, _ in built)
    assert 0 < sum(nz.steps for _, nz in built) < rewriting.DEFAULT_BUDGET


def test_a_budget_below_the_remembered_steps_is_one_cold_run(built):
    # a stated budget is one cold run, whatever the memos hold: here they
    # hold the term, so a shared run would skip both its steps
    term = _endo_comp(_UNIT, _UNIT)
    clear_caches()
    for n in range(3, 7):
        normalize(comp_chain(n, "left", None)[1])
    nf = normalize(term)
    memo = dict(rewriting._NF_TERMS["sua"])
    del built[:]
    with pytest.raises(StepBudgetExceeded):
        normalize(term, budget=1)
    assert normalize(term, budget=2) == nf
    assert [cold for cold, _ in built] == [True, True]
    assert [nz.steps for _, nz in built] == [2, 2]
    assert rewriting._NF_TERMS["sua"] == memo


def test_a_default_call_is_one_shared_run_however_many_steps_came_before(built, monkeypatch):
    # default calls whose steps together pass the default budget: each is
    # held to it on its own, runs over the shared memos and adds to them
    # (each left-nested chain meets the one before it and takes one step)
    monkeypatch.setattr(rewriting, "DEFAULT_BUDGET", 3)
    clear_caches()
    sizes = []
    for n in range(3, 11):
        normalize(comp_chain(n, "left", None)[1])
        sizes.append(len(rewriting._NF_TERMS["sua"]))
    assert sum(nz.steps for _, nz in built) > rewriting.DEFAULT_BUDGET
    assert len(built) == len(sizes) and not any(cold for cold, _ in built)
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_a_default_call_whose_own_steps_pass_the_default_budget_raises(built, monkeypatch):
    _, chain = comp_chain(6, "left", None)
    log = []
    normalize(chain, trace=log.append)
    monkeypatch.setattr(rewriting, "DEFAULT_BUDGET", len(log) - 1)
    clear_caches()
    del built[:]
    with pytest.raises(StepBudgetExceeded):
        normalize(chain)
    assert [(cold, nz.steps) for cold, nz in built] == [(False, len(log))]


def test_cell_steps_preserve_sc_non_cell_steps_decrease(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    for t in (f_then_gh, endo):
        base = syntactic_complexity(t)
        for _, path, reduct in one_step(t):
            if "cell" in path:
                assert syntactic_complexity(reduct) == base
            else:
                assert ord_lt(syntactic_complexity(reduct), base)


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


def test_a_step_inside_a_cell_carries_the_head_it_is_over(f_then_gh):
    a = Arrow(Var(0), STAR, Var(5))
    endo = Coh(CHAIN3, Arrow(f_then_gh, a, f_then_gh), id_sub(7))
    clear_caches()  # the cell's steps are taken here, not remembered
    log = []
    normalize(endo, trace=log.append)
    assert {(st.path[:1] == ("cell",), st.head) for st in log} == {
        (True, CHAIN3), (False, None)}


def test_insertion_detail_formatted_only_when_traced(f_then_gh, monkeypatch):
    def fail(t, redex):
        raise AssertionError("detail formatted without a trace")

    monkeypatch.setattr(rewriting, "_insertion_detail", fail)
    clear_caches()  # make sure the insertion really runs, not a memo hit
    assert normalize(f_then_gh) == unbiased_coh(1, CHAIN3)
    # the enumerator and the graphs over it read no detail either
    assert ("insertion", (), unbiased_coh(1, CHAIN3)) in one_step(f_then_gh)
    assert reduction_graph(f_then_gh).sinks == {unbiased_coh(1, CHAIN3)}
    monkeypatch.undo()
    log = []
    normalize(f_then_gh, trace=log.append)
    assert [(s.rule, s.detail) for s in log] == [
        ("insertion", "S=[[],[]] P=[1] T=[[],[]] -> [[],[],[]]")]


def _doubling(n):
    """d{n} x, where d0 x is id x and d{k} x is comp (d{k-1} x) (d{k-1} x)."""
    t = identity_term(STAR, Var(0))
    for _ in range(n):
        t = _endo_comp(t, t)
    return t


@pytest.mark.parametrize("term", [
    suspend_term(comp_chain(12, "left", None)[1]),
    _doubling(10),
], ids=["dim-2-chain", "doubling"])
def test_the_insertion_shape_memo_moves_no_step(monkeypatch, term):
    # normalized cold, then with every reduct head remembered and the
    # normal forms forgotten: the same steps and the same budget verdicts
    built = []
    exterior = rewriting.exterior_sub

    def counted(*args):
        built.append(args)
        return exterior(*args)

    monkeypatch.setattr(rewriting, "exterior_sub", counted)

    def forget_normal_forms():
        heads = dict(rewriting._HEADS)
        clear_caches()
        rewriting._HEADS.update(heads)

    def steps():
        log = []
        nf = normalize(term, trace=log.append)
        return nf, [(s.rule, s.path, s.before, s.after, s.detail, s.head) for s in log]

    def verdicts(n, reset):
        out = []
        for budget in (n - 1, n):
            reset()
            try:
                out.append(normalize(term, budget=budget))
            except StepBudgetExceeded:
                out.append(None)
        return out

    clear_caches()
    nf, cold = steps()
    n = len(cold)
    assert n >= 2 and built
    assert verdicts(n, clear_caches) == [None, nf]
    shapes = len(rewriting._HEADS)
    built.clear()
    forget_normal_forms()
    assert steps() == (nf, cold)
    assert verdicts(n, forget_normal_forms) == [None, nf]
    assert not built and len(rewriting._HEADS) == shapes


@pytest.mark.parametrize("dim", [1, 2])
def test_comp_chains_normalize_to_the_unbiased_composite(dim):
    rng = random.Random(dim)
    for n in (2, 3, 5, 8, 13, 24):
        for shape in ("left", "right", "random", "random"):
            tree, t = comp_chain(n, shape, rng)
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
    t = Coh(s, unbiased_type(2, s), exterior_sub(s, (1,), u, branch_at(s, (1,), u)))
    infer_term(tree_to_ctx(r), t)
    clear_caches()
    nf = normalize(t)
    assert nf == unbiased_coh(2, r)
    assert nf == normalize_first_step(t)


@pytest.mark.parametrize("seed", [0, 1])
def test_normalize_preserves_type(seed):
    for ctx, t in gen_population(GenConfig(seed=seed), 150):
        assert def_eq(infer_term(ctx, normalize(t)), infer_term(ctx, t))


def _pinned_path_terms():
    """A seed-7 population term whose trace has steps in an argument, at
    the root, then in its reduct's cell, and an endo-coherence over the
    same tree that holds it as its cell's source and target."""
    s = (((),), ())
    u1 = unbiased_type(1, CHAIN2)
    fg = Coh(CHAIN2, u1, (Var(0), Var(1), Var(2), Var(5), Var(6)))
    fh = Coh(CHAIN2, u1, (Var(0), Var(1), Var(3), Var(5), Var(6)))
    unary = Coh(CHAIN1, unbiased_type(1, CHAIN1), (Var(1), Var(1), identity_term(STAR, Var(1))))
    t = Coh(s, Arrow(fg, Arrow(Var(0), STAR, Var(5)), fh),
            (Var(0), Var(1), Var(2), Var(3), Var(4), Var(1), unary))
    ty = infer_term(tree_to_ctx(s), t)
    return t, Coh(s, Arrow(t, ty, t), id_sub(ctx_len(s)))


def test_traced_steps_keep_their_paths():
    # the paths and their strings as recorded before paths were linked
    t, endo = _pinned_path_terms()
    want = [
        [("disc-removal", (("arg", 6),), "arg[6]"),
         ("insertion", (), "root"),
         ("insertion", ("cell", "src"), "cell.src"),
         ("disc-removal", ("cell", "src"), "cell.src"),
         ("insertion", ("cell", "tgt"), "cell.tgt"),
         ("disc-removal", ("cell", "tgt"), "cell.tgt"),
         ("disc-removal", (), "root")],
        [("disc-removal", ("cell", "src", ("arg", 6)), "cell.src.arg[6]"),
         ("insertion", ("cell", "src"), "cell.src"),
         ("insertion", ("cell", "src", "cell", "src"), "cell.src.cell.src"),
         ("disc-removal", ("cell", "src", "cell", "src"), "cell.src.cell.src"),
         ("insertion", ("cell", "src", "cell", "tgt"), "cell.src.cell.tgt"),
         ("disc-removal", ("cell", "src", "cell", "tgt"), "cell.src.cell.tgt"),
         ("disc-removal", ("cell", "src"), "cell.src"),
         ("endo-coherence-removal", (), "root")],
    ]
    for x, steps in zip((t, endo), want):
        log = []
        normalize(x, trace=log.append)
        assert [(s.rule, s.path, s.path_str()) for s in log] == steps


def test_an_untraced_normalization_builds_no_step_and_no_path(monkeypatch):
    # a path is linked one pair per level and flattened only for a traced
    # step, so a normalization without a trace does neither
    def fail(*args):
        raise AssertionError("step or path built without a trace")

    monkeypatch.setattr(rewriting, "ReductionStep", fail)
    monkeypatch.setattr(rewriting, "_flat", fail)
    terms = [t for _, t in gen_population(GenConfig(seed=20), 300)]
    terms.append(comp_chain(200, "right", None)[1])
    clear_caches()
    for t in terms:
        normalize(t)
        normalize(t, budget=10 ** 6)
    with pytest.raises(AssertionError, match="without a trace"):
        normalize(terms[-1], trace=lambda s: None)
