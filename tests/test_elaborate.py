"""The elaborator on its own: implicit arguments and located errors."""

import pickle
from pathlib import Path

import pytest

from semistrict import elaborate, syntax
from semistrict.check import TypingError
from semistrict.elaborate import ElabError, _value, process_decl
from semistrict.parser import parse
from semistrict.rewriting import normalize
from semistrict.syntax import STAR, Coh, Var, apply_sub_term, id_sub
from semistrict.trees import tree_to_ctx
from semistrict.unbiased import identity_term, unbiased_coh

from conftest import CHAIN2, forged_ctx

CORPUS = Path(__file__).parent.parent / "corpus"


def _elaborate(env, src):
    """The checked terms of each declaration of ``src``, in order."""
    return [process_decl(d, env).terms for d in parse(src)]


def _error(env, src):
    with pytest.raises(ElabError) as info:
        _elaborate(env, src)
    e = info.value
    return e.kind, e.line, e.col


def test_implicit_points_are_inferred_from_the_arrows(env):
    [(t,)] = _elaborate(env, "normalize (x(f)y(g)z) | comp f g")
    assert t is unbiased_coh(1, CHAIN2)


def test_implicit_arrows_are_inferred_from_two_cells(env):
    [(t,)] = _elaborate(env, "normalize (x(f(a)g(b)h)y) | vert a b")
    assert t is unbiased_coh(2, (((), ()),))
    assert t.args == id_sub(7)


def test_a_braced_argument_fills_an_implicit_position(env):
    [(by_type,), (braced,)] = _elaborate(env, "normalize (x(f)y) | id1 f\n"
                                              "normalize (x(f)y) | id1 {x} {y} f")
    assert braced is by_type
    assert by_type.args == (Var(0), Var(1), Var(2))


def test_a_definition_is_applied_through_its_context(env):
    src = ("def twocell (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f => g) "
           ":= vert (id1 f) a\n"
           "normalize (p(q)r(s(c)t)u) | twocell c")
    [(body,), (applied,)] = _elaborate(env, src)
    # x, y, f, g, a go to r, u, s, t, c of the layout p r q u s t c
    assert applied is apply_sub_term(body, (Var(1), Var(3), Var(4), Var(5), Var(6)))


def _doubling_defs(n: int) -> str:
    # d{k} x mentions d{k-1} x twice, so its body unfolds to 2^k leaves
    return "def d0 (x : *) := id x\n" + "".join(
        f"def d{k} (x : *) := comp (d{k - 1} x) (d{k - 1} x)\n" for k in range(1, n + 1))


def test_shared_definitions_elaborate_in_linear_substitution_work(env, monkeypatch):
    calls = 0
    apply = syntax.apply_sub_term

    def counting(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    # every recursive call goes through the module's global
    monkeypatch.setattr(syntax, "apply_sub_term", counting)
    counts = []
    for d in parse(_doubling_defs(40)):
        calls = 0
        process_decl(d, env)
        counts.append(calls)
    # each shared subterm is substituted once per call, not once per occurrence
    assert len({b - a for a, b in zip(counts[3:], counts[4:])}) == 1
    assert counts[40] < 10 * 40


def test_names_resolve_to_context_positions(env):
    [(t,)] = _elaborate(env, "normalize (x : *) (y : *) (f : x -> y) | id y")
    assert t is identity_term(t.cell.base, Var(1))


@pytest.mark.parametrize("src, where", [
    # a second declaration of a prelude name, at the declaration
    ("coh comp (x(f)y(g)z) : x -> z", (1, 1)),
    # a context binding repeated, at the repeating binding
    ("normalize (x : *) (x : *) | x", (1, 19)),
    # pasting notation with a repeated point, at the context
    ("normalize (x(f)x) | x", (1, 11)),
    # a repeated name inside a coh literal, at the literal
    ("normalize (x(f)y) | coh (a(p)a : a -> a) f", (1, 21)),
])
def test_duplicate_names(env, src, where):
    assert _error(env, src) == ("DuplicateName", *where)


def test_a_definition_name_cannot_be_reused(env):
    src = "def d (x : *) := id x\n\ndef d (x : *) := x"
    assert _error(env, src) == ("DuplicateName", 3, 1)


@pytest.mark.parametrize("src, where", [
    # a context variable applied to an argument
    ("normalize (x(f)y) | f x", (1, 21)),
    # an application applied again
    ("normalize (x(f)y) | (comp f) f", (1, 21)),
])
def test_not_applicable(env, src, where):
    assert _error(env, src) == ("NotApplicable", *where)


@pytest.mark.parametrize("src, where", [
    # where: line, column and detail
    ("normalize (x(f)y(g)z) | comp f", (1, 25, "missing argument for 'g'")),
    ("normalize (x(f)y(g)z) | comp f g f", (1, 25, "expected 2 arguments, got 3")),
    ("normalize (x(f)y(g)z)\n  | comp f (comp g)", (2, 13, "missing argument for 'g'")),
    ("normalize (x) | id x x", (1, 17, "expected 1 argument, got 2")),
])
def test_arity_mismatch(env, src, where):
    with pytest.raises(ElabError) as info:
        _elaborate(env, src)
    e = info.value
    assert (e.kind, e.line, e.col, e.detail) == ("ArityMismatch", *where)


@pytest.mark.parametrize("src, where", [
    # f and f do not compose: y against x
    ("normalize (x(f)y) | comp f f", (1, 21)),
    # a braced point that disagrees with the one the arrow gives
    ("normalize (x(f)y(g)z) | comp {y} f g", (1, 25)),
    # f occurs in a's type only under coherences, so nothing determines it
    ("def w (x : *) (y : *) (f : x -> y) (a : comp f (id y) => comp f (id y)) := a\n"
     "normalize (p(q)r) | w (id1 q)", (2, 21)),
])
def test_inference_failure(env, src, where):
    assert _error(env, src) == ("InferenceFailure", *where)


@pytest.mark.parametrize("src, where", [
    # a declared coherence of type *, at the declaration
    ("coh c (x) : *", (1, 1)),
    # a coh literal of type *, at the literal
    ("normalize (x) | coh (a : *) x", (1, 17)),
])
def test_a_coherence_needs_an_arrow_type(env, src, where):
    assert _error(env, src) == ("TypeMismatch", *where)


def test_an_error_leaves_the_environment_unchanged(env):
    with pytest.raises(ElabError):
        _elaborate(env, "def d (x(f)y) := comp f f")
    [(t,)] = _elaborate(env, "def d (x : *) := id x")
    assert t is identity_term(t.cell.base, Var(0))


PASTING = "normalize (x(f)y(g)z)\n  | "
BINDING = "normalize (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z)\n  | "


@pytest.mark.parametrize("ctx", [PASTING, BINDING])
@pytest.mark.parametrize("body, kind, col", [
    # an unknown argument, at the argument
    ("comp f q", "UnknownVariable", 12),
    # an unknown name applied, at the application
    ("nope f g", "UnknownVariable", 5),
    # an unknown name on its own, at the name
    ("q", "UnknownVariable", 5),
    # a context variable applied, at the application
    ("comp (g f) g", "NotApplicable", 11),
    ("f x", "NotApplicable", 5),
])
def test_name_errors_are_located_in_either_kind_of_context(env, ctx, body, kind, col):
    assert _error(env, ctx + body) == (kind, 2, col)


def test_a_diagnostic_names_a_coherence_variable_as_declared(env):
    # f ends at y where g starts, so g f puts both z and x at swap's q
    src = "coh swap (p(u)q(v)r) : p -> r\nnormalize (x(f)y(g)z) | swap g f"
    with pytest.raises(ElabError) as info:
        _elaborate(env, src)
    assert info.value.kind == "InferenceFailure"
    assert info.value.detail == "boundary terms for 'q' disagree after normalization"


@pytest.mark.parametrize("src", [
    "asserteq (x(f)y(g)z) | (comp f g) = comp f g",
    "asserteq (x(f)y) | (coh (a(u)b : a -> b) f) = f",
])
def test_a_parenthesized_whole_term_elaborates_and_decides(env, src):
    [(lhs, rhs)] = _elaborate(env, src)
    assert normalize(lhs) is normalize(rhs)


def test_an_unknown_name_in_a_binding_type_is_located_at_the_name(env):
    assert _error(env, "normalize (x : *)\n (f : x -> q) | f") == ("UnknownVariable", 2, 12)


def test_an_elaboration_error_keeps_its_kind_detail_and_position():
    e = ElabError("ArityMismatch", "expected 1 argument, got 2", 3, 7)
    assert (e.kind, e.detail, e.line, e.col) == ("ArityMismatch", "expected 1 argument, got 2", 3, 7)
    assert str(e) == "ArityMismatch: expected 1 argument, got 2"
    bare = ElabError("UnknownVariable", "q")
    assert (bare.line, bare.col) == (0, 0)
    back = pickle.loads(pickle.dumps(e))
    assert (type(back), back.kind, back.detail, back.line, back.col) == (
        ElabError, e.kind, e.detail, e.line, e.col)


def test_checked_declarations_compare_by_their_fields(env):
    [a] = parse("normalize (x(f)y(g)z) | comp f g")
    [b] = parse("normalize (a(u)b(v)c) | comp u v")
    assert process_decl(a, env) == process_decl(b, env)
    assert process_decl(a, env) != process_decl(parse("normalize (x(f)y) | f")[0], env)


# --- the memo of successful applications ------------------------------------

@pytest.fixture
def applied(monkeypatch):
    """A fresh memo of applications, and the values ``_infer_sub`` is run on."""
    memo, runs = {}, []
    infer_sub = elaborate._infer_sub

    def spy(val, args, ctx, line, col):
        runs.append(val)
        return infer_sub(val, args, ctx, line, col)

    monkeypatch.setattr(elaborate, "_APPLIED", memo)
    monkeypatch.setattr(elaborate, "_infer_sub", spy)
    return memo, runs


def test_an_application_under_other_names_is_elaborated_once(env, applied):
    [(a,), (b,)] = _elaborate(env, "normalize (x(f)y(g)z) | comp f g\n"
                                   "normalize (p(u)q(v)r) | comp u v")
    assert a is b is unbiased_coh(1, CHAIN2)
    assert applied[1] == [env["comp"]]


@pytest.mark.parametrize("body, kind", [
    # f and f do not compose: found while inferring the arguments
    ("comp f f", "InferenceFailure"),
    # the literal's target is not supported: found by typing the application
    ("coh (a(p)b : a -> a) f", "SupportMismatch"),
])
def test_a_failed_application_is_diagnosed_afresh_at_each_occurrence(env, applied, body, kind):
    where = []
    for decl in parse(f"normalize (x(f)y) | {body}\n\n  normalize (x(f)y) | {body}"):
        with pytest.raises((ElabError, TypingError)) as info:
            process_decl(decl, env)
        e = info.value
        where.append((e.kind, getattr(e, "line", None), getattr(e, "col", None)))
    if kind == "InferenceFailure":
        assert where == [(kind, 1, 21), (kind, 3, 23)]
    else:
        assert where == [(kind, None, None)] * 2
    assert applied[0] == {}


def test_a_braced_argument_is_part_of_the_application(env, applied):
    _elaborate(env, "normalize (x(f)y(g)z) | comp f g")
    # braced, f and g fill x and y, and nothing is left for f
    assert _error(env, "normalize (x(f)y(g)z) | comp {f} {g}") == ("ArityMismatch", 1, 25)


@pytest.mark.parametrize("good_first", [True, False])
def test_contexts_that_share_a_hash_keep_their_own_applications(env, applied, good_first):
    comp = env["comp"]
    good = tree_to_ctx(CHAIN2)
    bad = forged_ctx(good, (STAR,) * 5)  # f and g are objects there, not arrows
    # comp's body over five objects, all explicit: f goes to the object x
    flat = _value(forged_ctx(comp.ctx, (STAR,) * 5), comp.body)
    args = ((Var(2), False), (Var(4), False))
    cases = [(comp, good, None), (comp, bad, "TypeMismatch"), (flat, good, "TypeMismatch")]
    for val, ctx, kind in (cases if good_first else cases[::-1]) * 2:
        if kind is None:
            assert elaborate._apply_value(val, args, ctx, 1, 1) is unbiased_coh(1, CHAIN2)
        else:
            with pytest.raises(ElabError) as info:
                elaborate._apply_value(val, args, ctx, 1, 1)
            assert info.value.kind == kind
    assert len(applied[0]) == 1


def test_a_coherence_applied_directly_is_its_body_substituted(monkeypatch):
    # every application the prelude and the corpus make, coherences and
    # definitions, against apply_sub_term on the substitution inferred
    made, infer_sub, apply_value = [], elaborate._infer_sub, elaborate._apply_value

    def spy(val, args, ctx, line, col):
        made.append([val, infer_sub(val, args, ctx, line, col)])
        return made[-1][1]

    def record(*args):
        n = len(made)
        term = apply_value(*args)
        if len(made) > n:  # a miss, which ran _infer_sub once
            made[-1].append(term)
        return term

    monkeypatch.setattr(elaborate, "_APPLIED", {})
    monkeypatch.setattr(elaborate, "_PRELUDE", None)
    monkeypatch.setattr(elaborate, "_infer_sub", spy)
    monkeypatch.setattr(elaborate, "_apply_value", record)
    env = elaborate.new_env()
    for path in sorted(CORPUS.glob("*.catt")):
        for decl in parse(path.read_text(encoding="utf-8")):
            process_decl(decl, env)
    cohs = 0
    for val, sub, term in made:
        assert term is apply_sub_term(val.body, sub)
        cohs += isinstance(val.body, Coh) and val.body.args == id_sub(len(sub))
    assert cohs > len(made) // 2
