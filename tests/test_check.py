import pickle
import sys
import threading
from pathlib import Path

import pytest

from semistrict import check, elaborate, rewriting
from semistrict.check import TypingError, infer_term
from semistrict.cli import main
from semistrict.harness import GenConfig, enumerate_trees, gen_population, support
from semistrict.rewriting import def_eq, normalize
from semistrict.syntax import STAR, Arrow, Coh, Context, Var, id_sub
from semistrict.trees import block_starts, disc, point_positions, tree_inc, tree_to_ctx
from semistrict.unbiased import identity_term, unbiased_coh, unbiased_term, unbiased_type

from conftest import CHAIN1, CHAIN2, forged_ctx

CORPUS = Path(__file__).parent.parent / "corpus"


def _clear_memos():
    elaborate._APPLIED.clear()
    check._INFER_CACHE.clear()
    check._TYPES.clear()
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


def test_a_head_nested_in_its_own_arguments_is_checked_once(monkeypatch):
    # the head is remembered before its arguments are checked, so the 38
    # uses of comp inside the outermost one check neither cell nor support
    calls = []
    support = check._check_support
    monkeypatch.setattr(check, "_check_support", lambda *a: calls.append(a) or support(*a))
    tree, t = _deep_chain(40, "left")
    _clear_memos()
    assert infer_term(tree_to_ctx(tree), t) == unbiased_type(1, tree)
    assert [(a[0], a[2]) for a in calls] == [(CHAIN2, unbiased_type(1, CHAIN2))]


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

    def counting(x, budget=None):
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


# argument types that are convertible to the wanted ones but not equal
# syntax, over x, y, f, g : x -> y and further arrows
_X, _Y, _F, _G, _A, _B, _M = (Var(i) for i in range(7))
_XY = Arrow(_X, STAR, _Y)
_F_THEN_ID = Coh(CHAIN2, unbiased_type(1, CHAIN2),
                 (_X, _Y, _F, _Y, identity_term(STAR, _Y)))  # comp f (id y)


def _ctx(*types):
    return Context(tuple(zip("xyfgabm", types)))


def _disc_coh(n, args):
    return Coh(disc(n), unbiased_type(n, disc(n)), args)


def _counting_def_eq(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return def_eq(a, b)

    monkeypatch.setattr(check, "def_eq", counting)
    return calls


@pytest.mark.parametrize("ctx, t", [
    # a : comp f (id y) -> g, passed where an arrow f -> g is wanted
    (_ctx(STAR, STAR, _XY, _XY, Arrow(_F_THEN_ID, _XY, _G)),
     _disc_coh(2, (_X, _Y, _F, _G, _A))),
    # m : a -> b over comp f (id y) -> g, while a and b are over f -> g
    (_ctx(STAR, STAR, _XY, _XY, Arrow(_F, _XY, _G), Arrow(_F, _XY, _G),
          Arrow(_A, Arrow(_F_THEN_ID, _XY, _G), _B)),
     _disc_coh(3, (_X, _Y, _F, _G, _A, _B, _M))),
], ids=["source", "base"])
def test_a_convertible_argument_type_falls_back_to_def_eq(monkeypatch, ctx, t):
    _clear_memos()
    infer_term(tree_to_ctx(t.head), Coh(t.head, t.cell, id_sub(len(t.args))))
    calls = _counting_def_eq(monkeypatch)
    assert infer_term(ctx, t) == Arrow(t.args[-3], ctx.type_of(len(t.args) - 3),
                                       t.args[-2])
    # only the last argument's type is not the wanted syntax
    assert len(calls) == 1 and calls[0][0] == ctx.type_of(len(t.args) - 1)


def test_argument_types_equal_to_the_wanted_ones_need_no_conversion(monkeypatch, ctx2, comp_fg):
    _clear_memos()
    infer_term(ctx2, comp_fg)  # the head, remembered
    calls = _counting_def_eq(monkeypatch)
    # comp (comp f g) f over x, f : x -> x: two more uses of the head
    ctx = _ctx(STAR, Arrow(_X, STAR, _X))
    fg = Coh(comp_fg.head, comp_fg.cell, (_X, _X, _Y, _X, _Y))
    infer_term(ctx, Coh(comp_fg.head, comp_fg.cell, (_X, _X, fg, _X, _Y)))
    assert calls == []


@pytest.mark.parametrize("ctx, t, detail", [
    (_ctx(STAR, STAR, _XY, _XY, Arrow(_G, _XY, _F)), _disc_coh(2, (_X, _Y, _F, _G, _A)),
     "argument 4 (a) has type Arrow(Var(3), Arrow(Var(0), Star, Var(1)), Var(2)), "
     "expected Arrow(Var(2), Arrow(Var(0), Star, Var(1)), Var(3))"),
    (_ctx(STAR, STAR, _XY, _XY, Arrow(_F_THEN_ID, _XY, _G)), _disc_coh(2, (_X, _Y, _G, _F, _A)),
     "argument 4 (a) has type Arrow(Coh(((), ()), Arrow(Var(0), Star, Var(3)), (Var(0), "
     "Var(1), Var(2), Var(1), Coh((), Arrow(Var(0), Star, Var(0)), (Var(1),)))), "
     "Arrow(Var(0), Star, Var(1)), Var(3)), expected Arrow(Var(3), Arrow(Var(0), Star, "
     "Var(1)), Var(2))"),
    (_ctx(STAR, STAR, _XY), _disc_coh(1, (_F, _Y, _F)),
     "argument 0 (x) has type Arrow(Var(0), Star, Var(1)), expected Star"),
], ids=["reversed", "convertible-source-reversed", "arrow-for-object"])
def test_a_wrong_argument_type_is_a_type_mismatch(ctx, t, detail):
    _clear_memos()
    assert _error(ctx, t) == ("TypeMismatch", detail)


@pytest.mark.parametrize("t", [Var(99), _disc_coh(1, (_X, Var(99), _F))],
                         ids=["bare", "argument"])
def test_an_unbound_variable_is_unknown(t):
    _clear_memos()
    assert _error(_ctx(STAR, STAR, _XY), t) == (
        "UnknownVariable", "variable 99 not bound in a context of length 3")


def test_the_inference_memo_holds_no_variables(capsys):
    corpus = sorted(str(p) for p in CORPUS.glob("*.catt"))
    _clear_memos()
    assert main(["check", *corpus]) == 0
    capsys.readouterr()
    assert check._INFER_CACHE
    assert not [t for _, t in check._INFER_CACHE if isinstance(t, Var)]


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


def _in_deep_thread(fn):
    """fn's result, computed in a thread with a 64 MiB stack under a
    recursion limit of 20,000; what fn raises is raised here."""
    out = []

    def run():
        try:
            out.append(fn())
        except BaseException as e:  # handed back to the caller's thread
            out.append(e)

    limit, stack = sys.getrecursionlimit(), threading.stack_size(64 * 1024 * 1024)
    sys.setrecursionlimit(20_000)
    try:
        th = threading.Thread(target=run)
        th.start()
        th.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack)
    assert not th.is_alive() and len(out) == 1
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


@pytest.mark.parametrize("shape", ["left", "right"])
def test_640_deep_chains_normalize_to_the_unbiased_composite(shape):
    # every step of a long chain makes a new head tree, whose dimension
    # and size insertion reads off the splice
    tree, t = _deep_chain(640, shape)
    _clear_memos()
    ty, nf = _in_deep_thread(lambda: (infer_term(tree_to_ctx(tree), t), normalize(t)))
    assert ty is unbiased_type(1, tree)
    assert nf is unbiased_coh(1, tree)


def test_a_typing_error_keeps_its_kind_and_detail():
    e = TypingError("TypeMismatch", "source of arrow has type *")
    assert (e.kind, e.detail, str(e)) == (
        "TypeMismatch", "source of arrow has type *", "TypeMismatch: source of arrow has type *")
    back = pickle.loads(pickle.dumps(e))
    assert (type(back), back.kind, back.detail) == (TypingError, e.kind, e.detail)


def _mask(indices):
    return sum(1 << i for i in indices)


def _reference_support(tree, cell):
    """The support premise by the frozenset reference: the supports of the
    two sides, the boundary supports, the verdict and the detail of a
    SupportMismatch."""
    ctx = tree_to_ctx(tree)
    got = support(ctx, cell.src), support(ctx, cell.tgt)
    full = frozenset(range(len(ctx)))
    want = tuple(support(ctx, tree_inc(eps, tree.dim - 1, tree)) for eps in "-+") \
        if tree.dim else (full, full)
    if got == (full, full):
        return got, want, "full", None
    if got == want:
        return got, want, "boundary", None
    side, k = ("source", 0) if got[0] != want[0] else ("target", 1)
    fmt = lambda s: "{" + ",".join(ctx.names[i] for i in sorted(s)) + "}"
    return got, want, "mismatch", (f"{side} support {fmt(got[k])} matches neither the "
                                   f"{side} boundary {fmt(want[k])} nor the full context")


def _kernel_support(tree, cell):
    closures = check._closures(tree)
    sides = tuple(check._support(closures, x, {}) for x in (cell.src, cell.tgt))
    try:
        check._check_support(tree, tree_to_ctx(tree), cell)
    except TypingError as e:
        assert e.kind == "SupportMismatch"
        return sides, e.detail
    return sides, None


def _cells(tree):
    """Unbiased cells at the tree's dimension and one above, and the first
    of them reversed and with its source for both sides."""
    top = unbiased_term(tree.dim, tree)
    out = [Arrow(top, unbiased_type(tree.dim, tree), top)]
    if tree.dim:
        u = unbiased_type(tree.dim, tree)
        out += [u, Arrow(u.tgt, u.base, u.src), Arrow(u.src, u.base, u.src)]
    return out


def _heads(terms):
    """Every (tree, cell) of a coherence in the terms, their cells included."""
    seen, todo = set(), list(terms)
    while todo:
        x = todo.pop()
        if isinstance(x, Coh) and (x.head, x.cell) not in seen:
            seen.add((x.head, x.cell))
            todo += [x.cell.src, x.cell.tgt, *x.args]
    return seen


def test_mask_supports_agree_with_the_frozenset_reference():
    cases = [(t, cell) for t in enumerate_trees(7) for cell in _cells(t)]
    for seed in (7, 11, 23):
        cases += sorted(_heads(t for _, t in gen_population(GenConfig(seed=seed), 300)),
                        key=repr)
    verdicts = set()
    for tree, cell in cases:
        got, want, verdict, detail = _reference_support(tree, cell)
        sides, kernel_detail = _kernel_support(tree, cell)
        assert sides == tuple(map(_mask, got)), (tree, cell)
        assert kernel_detail == detail, (tree, cell)
        # the boundary masks the kernel compares the sides with
        closures = check._closures(tree)
        if tree.dim:
            assert tuple(check._support(closures, tree_inc(eps, tree.dim - 1, tree), {})
                         for eps in "-+") == tuple(map(_mask, want))
        verdicts.add(verdict)
    assert verdicts == {"full", "boundary", "mismatch"}


def test_each_closure_is_its_variable_and_its_type_closed():
    for tree in enumerate_trees(7):
        ctx = tree_to_ctx(tree)
        assert check._closures(tree) == tuple(_mask(support(ctx, Var(i)))
                                              for i in range(len(ctx)))


def _counting(monkeypatch, name):
    calls, fn = [], getattr(check, name)
    monkeypatch.setattr(check, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_equal_contexts_share_one_inference_entry(monkeypatch, comp_fg):
    _clear_memos()
    ctx, twin = tree_to_ctx(CHAIN2), Context(tuple(zip("abcde", tree_to_ctx(CHAIN2).types)))
    assert twin is not ctx and twin == ctx
    calls = _counting(monkeypatch, "_infer")
    first = infer_term(ctx, comp_fg)
    entries = len(check._INFER_CACHE)
    assert infer_term(twin, comp_fg) is first
    assert len(calls) == 1 and len(check._INFER_CACHE) == entries


def test_a_term_checked_in_two_contexts_is_typed_once(monkeypatch, comp_fg):
    _clear_memos()
    ctx = tree_to_ctx(CHAIN2)
    wider = ctx.extended("w", STAR)
    assert wider != ctx
    infers = _counting(monkeypatch, "_infer")
    subs = _counting(monkeypatch, "apply_sub_type")
    first = infer_term(ctx, comp_fg)
    assert infer_term(wider, comp_fg) is first
    assert len(infers) == 2
    assert [a for a in subs if a[0] is comp_fg.cell] == [subs[0]]


@pytest.mark.parametrize("good_first", [True, False])
def test_contexts_that_share_a_hash_keep_their_own_verdicts(comp_fg, good_first):
    good = tree_to_ctx(CHAIN2)
    bad = forged_ctx(good, (STAR,) * 5)  # f and g are objects there, not arrows
    assert hash(bad) == hash(good) and bad != good
    for _ in range(2):
        _clear_memos()
        for ctx in ((good, bad) if good_first else (bad, good)) * 2:
            if ctx is good:
                assert infer_term(ctx, comp_fg) is Arrow(Var(0), STAR, Var(3))
            else:
                assert _error(ctx, comp_fg) == (
                    "TypeMismatch", "argument 2 (f) has type Star, "
                    "expected Arrow(Var(0), Star, Var(1))")


def test_a_term_whose_arguments_fail_keeps_no_type(ctx1, comp_fg):
    _clear_memos()
    assert _error(ctx1, Coh(comp_fg.head, comp_fg.cell, (Var(0),) * 5))[0] == "TypeMismatch"
    assert (comp_fg.head, comp_fg.cell) in check._GOOD_HEADS
    assert not check._TYPES
