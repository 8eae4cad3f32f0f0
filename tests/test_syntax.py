import copy
import gc
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from semistrict.syntax import (
    _ARROWS, _COHS, _TREES, STAR, Arrow, Coh, Context, KernelError, Tree, Var,
    apply_sub_term, compose, dim_type, id_sub, tree, var_mask,
)
from semistrict.check import _GOOD_HEADS, _INFER_CACHE, _TYPES, infer_term
from semistrict.cli import main
from semistrict.elaborate import _APPLIED, CheckedDecl, new_env, process_decl
from semistrict.harness import GenConfig, free_vars, gen_population, support
from semistrict.parser import NameE, StarE, parse
from semistrict.printer import fmt_term
from semistrict import rewriting
from semistrict.rewriting import (
    _NF_TERMS, _NF_TYPES, ReductionStep, clear_caches, normalize,
)
from semistrict.trees import bracket, disc, is_linear, tree_to_ctx
from semistrict.unbiased import identity_term, unbiased_coh, unbiased_type

from conftest import CHAIN1, CHAIN2, CHAIN3, forget_tree_facts

CORPUS = Path(__file__).parent.parent / "corpus"


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


def test_a_variable_mask_is_the_set_of_free_variables(ctx3, f_then_gh):
    syntax = [Var(0), Var(70), STAR, f_then_gh, f_then_gh.cell, ctx3.types, f_then_gh.args]
    for x in syntax:
        assert var_mask(x, {}) == sum(1 << i for i in free_vars(x))
    memo = {}
    assert [var_mask(x, memo) for x in syntax] == [var_mask(x, {}) for x in syntax]
    assert memo[f_then_gh] == 0b1111111 and memo[f_then_gh.args[-1]] == 0b1111010


def test_a_shared_subterm_is_walked_once_for_its_variables():
    # d_k = comp d_(k-1) d_(k-1) mentions 2^k leaves but k + 1 coherences
    comp = unbiased_type(1, CHAIN2)
    d = identity_term(STAR, Var(0))
    for _ in range(200):
        d = Coh(CHAIN2, comp, (Var(0), Var(0), d, Var(0), d))
    memo = {}
    assert var_mask(Arrow(d, Arrow(d, STAR, d), d), memo) == 1
    assert len(memo) == 204  # and STAR


def test_support_idempotent_and_downward_closed(ctx2, f_then_gh, ctx3):
    for ctx, t in ((ctx2, unbiased_coh(1, CHAIN2)), (ctx3, f_then_gh)):
        supp = support(ctx, t)
        assert support(ctx, tuple(Var(i) for i in sorted(supp))) == supp
        for i in supp:
            assert free_vars(ctx.type_of(i)) <= supp


def test_dimensions():
    assert dim_type(STAR) == 0
    assert dim_type(Arrow(Var(0), STAR, Var(1))) == 1


def test_alpha_ignores_names():
    a = Context((("x", STAR),))
    b = Context((("y", STAR),))
    assert a == b
    assert Var(0) == Var(0)


def test_alpha_distinguishes_args(comp_fg):
    flipped = Coh(CHAIN2, comp_fg.cell, (Var(0), Var(1), Var(4), Var(3), Var(2)))
    assert comp_fg != flipped


def test_identity_built_twice_is_alpha_equal():
    assert identity_term(STAR, Var(0)) == identity_term(STAR, Var(0))
    a = Arrow(Var(0), STAR, Var(1))
    assert identity_term(a, Var(2)) == identity_term(a, Var(2))


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
    assert comp_fg == again
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


def test_an_extended_context_is_the_context_built_afresh():
    # every prefix, grown one binder at a time with its positions resolved
    # at each step (as elaborate_ctx does) or only at the end; a repeated
    # name keeps its first position
    types = tree_to_ctx(CHAIN3).types
    entries = tuple(zip(("x", "y", "f", "z", "f", "w", "x"), types))
    eager = lazy = Context(())
    for k, (name, ty) in enumerate(entries, 1):
        eager, lazy = eager.extended(name, ty), lazy.extended(name, ty)
        fresh = Context(entries[:k])
        for ctx in (eager, lazy):
            assert (ctx.entries, ctx.names, ctx.types, hash(ctx)) == (
                fresh.entries, fresh.names, fresh.types, hash(fresh))
            assert ctx == fresh
        assert eager.positions == fresh.positions
    assert "_positions" not in lazy.__dict__
    assert lazy.positions == eager.positions == {"x": 0, "y": 1, "f": 2, "z": 3, "w": 5}


def test_a_record_is_built_from_its_slots_by_position_or_keyword():
    ctx = tree_to_ctx(CHAIN1)
    before, after = unbiased_coh(1, CHAIN1), Var(2)
    step = ReductionStep("disc-removal", ("cell",), before, after, "", CHAIN1)
    assert ReductionStep(rule="disc-removal", path=("cell",), before=before,
                         after=after, detail="", head=CHAIN1) == step
    assert ReductionStep("disc-removal", ("cell",), before, after,
                         head=CHAIN1, detail="") == step
    assert CheckedDecl(ctx=ctx, terms=(after,)) == CheckedDecl(ctx, (after,))
    assert NameE(col=3, line=2, name="x") == NameE("x", 2, 3)
    # a missing field is named as in any function's error, under its class
    for build, missing in [
        (lambda: NameE("x", 1), "NameE.__init__() missing 1 required "
                                "positional argument: 'col'"),
        (lambda: CheckedDecl(ctx), "CheckedDecl.__init__() missing 1 required "
                                   "positional argument: 'terms'"),
        (lambda: ReductionStep("disc-removal", ()), "ReductionStep.__init__() "
                                                   "missing 4 required"),
    ]:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value).startswith(missing)
    with pytest.raises(TypeError, match=r"^StarE\.__init__\(\) takes 3 positional"):
        StarE(1, 2, 3)
    with pytest.raises(TypeError, match=r"^StarE\.__init__\(\) got an unexpected keyword"):
        StarE(1, 2, name="x")


def test_a_context_is_immutable():
    ctx = tree_to_ctx(CHAIN2)
    for name in ("entries", "names", "types", "_hash", "fresh"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, ())
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    assert ctx.positions == {"x": 0, "y": 1, "f": 2, "z": 3, "g": 4}
    # a cached name table leaves equality and the hash blind to names
    renamed = Context(tuple(zip("abcde", ctx.types)))
    assert renamed.positions != ctx.positions
    assert renamed == ctx and hash(renamed) == hash(ctx)
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert pickle.loads(pickle.dumps(ctx)).names == ctx.names


def test_coh_rejects_wrong_arity():
    cell = unbiased_type(1, CHAIN1)
    before = len(_COHS)
    # on every attempt, since a rejected term is never interned
    for _ in range(3):
        with pytest.raises(KernelError):
            Coh(((), ()), cell, id_sub(3))
    assert (((), ()), cell, id_sub(3)) not in _COHS
    assert len(_COHS) == before
    Coh(CHAIN1, cell, id_sub(3))


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


def _deep_chain(n: int):
    # built by a loop: comp (comp (.. f ..) f) f, n coherences deep
    u1 = unbiased_type(1, CHAIN2)
    t = Var(2)
    for _ in range(n):
        t = Coh(CHAIN2, u1, (Var(0), Var(1), t, Var(1), Var(2)))
    return t


def test_deep_terms_built_twice_are_one_object():
    a, b = _deep_chain(2000), _deep_chain(2000)
    assert a is b
    assert Arrow(a, STAR, b) is Arrow(b, STAR, a)
    assert {a: 1}[b] == 1
    assert _deep_chain(1999) is not a
    assert a.args[2] is _deep_chain(1999)


def test_pickled_terms_unpickle_to_the_live_object(comp_fg):
    arrow = Arrow(comp_fg, Arrow(Var(0), STAR, Var(3)), comp_fg)
    for x in (comp_fg, arrow, _deep_chain(50), STAR, comp_fg.head, disc(3)):
        assert pickle.loads(pickle.dumps(x)) is x
    assert copy.deepcopy(arrow) is arrow
    assert copy.deepcopy(STAR) is STAR
    # a term's head tree comes back as the live tree, not a copy
    assert pickle.loads(pickle.dumps(comp_fg)).head is CHAIN2
    for x in (comp_fg.head, disc(3)):
        assert copy.deepcopy(x) is x and copy.copy(x) is x


def test_records_unpickle_through_their_constructors():
    # an Immutable record (a traced step) forbids setting its slots one by
    # one, so every record pickles as its class and its fields in slot order
    decls = parse((CORPUS / "basics.catt").read_text(encoding="utf-8"))
    env, checked, steps = new_env(), [], []
    for decl in decls:
        checked.append(process_decl(decl, env))
        for t in checked[-1].terms:
            normalize(t, trace=steps.append)
    assert steps
    for record in [*steps, decls[0], checked[-1]]:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record


def test_a_tree_is_one_object_per_shape(comp_fg):
    t = Tree((((),), ()))
    assert Tree((((),), ())) is t and Tree(t) is t and tree((t[0], t[1])) is t
    assert t == (((),), ()) and t[0] is Tree(((),)) and type(t[1]) is Tree
    assert (t.dim, t.size) == (2, 7) and (Tree().dim, Tree().size) == (0, 1)
    assert hash(t) == object.__hash__(t)
    assert repr(t) == "(((),), ())"
    with pytest.raises(AttributeError):
        t.dim = 3
    # a coherence interns a plain head tuple it is given
    assert Coh(((), ()), comp_fg.cell, comp_fg.args) is comp_fg


def test_a_tree_whose_hash_another_tree_holds_is_interned_by_its_children():
    kids = (disc(9), disc(8), disc(7), disc(6))
    key = hash(kids)
    assert key not in _TREES and kids not in _TREES
    _TREES[key] = CHAIN2  # as if CHAIN2's children hashed the same
    try:
        t = tree(kids)
        assert t == kids and t is not CHAIN2 and tree(kids) is t
        assert _TREES[kids] is t and _TREES[key] is CHAIN2
    finally:
        del _TREES[key], _TREES[kids]


def test_terms_are_immutable(comp_fg):
    arrow = comp_fg.cell
    for x, name in ((comp_fg, "args"), (comp_fg, "head"), (arrow, "src"), (arrow, "base")):
        with pytest.raises(AttributeError):
            setattr(x, name, Var(0))
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_a_second_corpus_run_interns_and_remembers_nothing_new(capsys, monkeypatch):
    # the intern tables and memos live as long as the process, so they are
    # bounded by the distinct syntax a run meets, not by how often it runs
    corpus = sorted(str(p) for p in CORPUS.glob("*.catt"))
    built = []

    class Spy(rewriting.Normalizer):
        def __init__(self, budget=None, trace=None):
            super().__init__(budget, trace)
            built.append(self)

    def run():
        for mode in ("check", "normalize", "eq"):
            assert main([mode, *corpus]) == 0
        capsys.readouterr()

    def sizes():
        return (len(_TREES), len(_COHS), len(_ARROWS), len(_NF_TERMS["sua"]),
                len(_NF_TYPES["sua"]), len(rewriting._HEADS), len(_INFER_CACHE),
                len(_TYPES), len(_GOOD_HEADS), len(_APPLIED))

    run()
    first = sizes()
    monkeypatch.setattr(rewriting, "Normalizer", Spy)
    run()
    assert sizes() == first
    # and it takes no step: every normalization is one lookup
    assert built and sum(nz.steps for nz in built) == 0


def test_kernel_work_leaves_no_cyclic_garbage():
    # interned syntax is never freed, so importing syntax raises the young
    # collection threshold; that is sound only while checking, normalizing,
    # elaborating and printing make no reference cycles, which a later
    # collection would have to free
    assert gc.get_threshold()[0] >= 20_000
    pop = gen_population(GenConfig(seed=20), 300)
    gc.collect()
    gc.disable()
    try:
        forget_tree_facts()
        clear_caches()
        for ctx, t in pop:
            infer_term(ctx, t)
            fmt_term(normalize(t), ctx.names)
        env = new_env()
        for path in sorted(CORPUS.glob("*.catt")):
            for decl in parse(path.read_text()):
                process_decl(decl, env)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_tree_keeps_a_type_that_refers_back_to_it():
    # above a tree's dimension its unbiased type holds an unbiased
    # coherence over the tree itself, a reference cycle once kept on it;
    # a linear tree's type one level up holds its top variable instead.
    # The Eckmann-Hilton file has 2-cells whose arguments are composites of
    # a dimension-2 tree and can never insert
    forget_tree_facts()
    clear_caches()
    assert main(["normalize", str(CORPUS / "eckmann_hilton.catt")]) == 0
    kept = {t: max(t.unbiased) for t in _TREES.values() if "unbiased" in t.__dict__}
    assert any(t.dim == 2 and not is_linear(t) for t in kept)
    above = [(bracket(t), n) for t, n in kept.items()
             if n > t.dim + is_linear(t)]
    assert not above, f"unbiased types that refer back to their tree: {above[:5]}"
