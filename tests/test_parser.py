"""The surface parser on its own: tokens, declarations and error positions."""

import random
import re

import pytest

from semistrict.parser import (
    AppE, ArrowE, AssertEqCmd, BindCtx, CohDecl, CohE, NameE, NormalizeCmd,
    ParseError, PsCtx, StarE, TermDef, parse, tokenize,
)


def test_tokens_carry_their_line_and_column():
    src = "coh unitor-l (x) : x -> x  # note\n  def d := a' {b}\n"
    assert tokenize(src) == [
        ("name", "coh", 1, 1), ("name", "unitor-l", 1, 5), ("op", "(", 1, 14),
        ("name", "x", 1, 15), ("op", ")", 1, 16), ("op", ":", 1, 18),
        ("name", "x", 1, 20), ("op", "->", 1, 22), ("name", "x", 1, 25),
        # the comment is skipped, and the next line starts at column 1
        ("name", "def", 2, 3), ("name", "d", 2, 7), ("op", ":=", 2, 9),
        ("name", "a'", 2, 12), ("op", "{", 2, 15), ("name", "b", 2, 16),
        ("op", "}", 2, 17), ("eof", "", 3, 1),
    ]


def test_coh_declaration():
    [d] = parse("coh comp (x(f)y(g)z) : x -> z")
    assert d == CohDecl("comp", PsCtx(((), ()), ("x", "y", "f", "z", "g"), 1, 10),
                        ArrowE(NameE("x", 1, 24), NameE("z", 1, 29), 1, 24), 1, 1)


def test_def_declaration_with_bindings():
    [d] = parse("def t (x : *) {y : *} (f : x -> y) := f")
    assert isinstance(d, TermDef) and d.name == "t" and (d.line, d.col) == (1, 1)
    assert d.ctx == BindCtx((
        ("x", StarE(1, 12), 1, 7),
        ("y", StarE(1, 20), 1, 15),
        ("f", ArrowE(NameE("x", 1, 28), NameE("y", 1, 33), 1, 28), 1, 23),
    ), 1, 7)
    assert d.body == NameE("f", 1, 39)


def test_normalize_command_with_a_coh_literal_and_a_braced_argument():
    [d] = parse("\n  normalize (x(f)y) | coh (a(p)b : a -> b) {x} f")
    assert isinstance(d, NormalizeCmd) and (d.line, d.col) == (2, 3)
    assert d.ctx == PsCtx(((),), ("x", "y", "f"), 2, 13)
    body = d.body
    assert isinstance(body, AppE) and (body.line, body.col) == (2, 23)
    assert body.head == CohE(((),), ("a", "b", "p"),
                             ArrowE(NameE("a", 2, 36), NameE("b", 2, 41), 2, 36), 2, 23)
    assert body.args == ((NameE("x", 2, 45), True), (NameE("f", 2, 48), False))


def test_asserteq_command_over_a_tree_literal():
    [d] = parse("asserteq [[],[]] | comp f (id y) = f")
    assert isinstance(d, AssertEqCmd) and (d.line, d.col) == (1, 1)
    assert d.ctx == PsCtx(((), ()), ("x", "y", "f", "z", "g"), 1, 10)
    assert d.lhs == AppE(NameE("comp", 1, 20), (
        (NameE("f", 1, 25), False),
        (AppE(NameE("id", 1, 28), ((NameE("y", 1, 31), False),), 1, 28), False),
    ), 1, 20)
    assert d.rhs == NameE("f", 1, 36)


def test_pasting_notation_lists_names_in_context_order():
    [d] = parse("normalize (x(f(a)g)y(h)z) | a")
    assert d.ctx.tree == (((),), ())
    assert d.ctx.names == ("x", "y", "f", "g", "a", "z", "h")


def test_several_declarations_keep_their_own_positions():
    decls = parse("# header\ncoh c (x) : x -> x\n\nnormalize (x) | c x\n")
    assert [(type(d).__name__, d.line, d.col) for d in decls] == [
        ("CohDecl", 2, 1), ("NormalizeCmd", 4, 1)]


@pytest.mark.parametrize("src, line, col, msg, expected", [
    ("coh oops (x(f)y :", 1, 17, "found ':'", (")",)),
    ("normalize (x(f)y) | comp f $", 1, 28, "unexpected character '$'", ()),
    ("normalize (x : *)\n  (x(f)y) | x", 2, 3, "pasting notation cannot follow bindings", ()),
    ("coh c (x(f)y) : f", 1, 18, "found 'end of file'", ("->", "=>")),
    ("normalize [[]x] | x", 1, 14, "found 'x' inside a tree literal", ()),
    ("normalize [[]]] | x", 1, 15, "found ']'", ("|",)),
    ("normalize (x) | x ->", 1, 19, "found '->'", ("coh", "def", "normalize", "asserteq")),
    ("def coh (x) := x", 1, 5, "found 'coh'", ("a name",)),
    ("asserteq | x = x", 1, 10, "found '|'", ("a context",)),
    ("normalize [[]", 1, 14, "found 'end of file' inside a tree literal", ()),
    ("coh c (x) : x -> x\n\n  normalize (x) | c é\n", 3, 21, "unexpected character 'é'", ()),
])
def test_parse_errors_are_located(src, line, col, msg, expected):
    with pytest.raises(ParseError) as info:
        parse(src)
    e = info.value
    assert (e.line, e.col, e.msg, e.expected) == (line, col, msg, expected)
    assert str(e).startswith(f"{line}:{col}: {msg}")


def test_crlf_line_endings_start_lines_after_the_line_feed():
    # the carriage return is whitespace at the end of its line
    assert tokenize("coh c (x) : x -> x\r\nnormalize (x) | c x\r\n")[-8:] == [
        ("name", "normalize", 2, 1), ("op", "(", 2, 11), ("name", "x", 2, 12),
        ("op", ")", 2, 13), ("op", "|", 2, 15), ("name", "c", 2, 17),
        ("name", "x", 2, 19), ("eof", "", 3, 1),
    ]


def test_a_tab_is_one_column():
    assert tokenize("\tcoh\tc\n\t\tx") == [
        ("name", "coh", 1, 2), ("name", "c", 1, 6), ("name", "x", 2, 3),
        ("eof", "", 2, 4),
    ]


@pytest.mark.parametrize("space", ["\u00a0", "\u2028"])
def test_unicode_spaces_separate_tokens_without_starting_a_line(space):
    assert tokenize(f"x{space}y{space}{space}z") == [
        ("name", "x", 1, 1), ("name", "y", 1, 3), ("name", "z", 1, 6),
        ("eof", "", 1, 7),
    ]


@pytest.mark.parametrize("src, eof", [
    ("", (1, 1)),
    ("x\n  y  ", (2, 6)),
    ("x\n\n", (3, 1)),
    # a comment at the end of the file, with and without a newline
    ("x # the end", (1, 12)),
    ("x # the end\n", (2, 1)),
    ("#\n#", (2, 2)),
])
def test_the_eof_token_is_after_the_last_character(src, eof):
    assert tokenize(src)[-1] == ("eof", "", *eof)


# The tokenizer as one match per token, newlines apart: a reference for
# the one-call tokenizer, which must give the same tokens and errors.
_REFERENCE_RE = re.compile(r"""
    (?P<nl>\n)
  | (?P<ws>[^\S\n]+|\#[^\n]*)
  | (?P<op>:=|->|=>|[():{}|=*\[\],])
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_'][A-Za-z0-9_']*)*)
  | (?P<bad>.)
""", re.VERBOSE)


def _reference_tokenize(src):
    out = []
    line, start = 1, 0
    for m in _REFERENCE_RE.finditer(src):
        kind = m.lastgroup
        if kind == "op" or kind == "name":
            out.append((kind, m.group(), line, m.start() - start + 1))
        elif kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(line, m.start() - start + 1,
                             f"unexpected character {m.group()!r}")
    out.append(("eof", "", line, len(src) - start + 1))
    return out


def _outcome(tokenizer, src):
    try:
        return tokenizer(src)
    except ParseError as e:
        return (e.line, e.col, e.msg)


# whitespace a line break or not, comments, every operator character,
# name characters and a character that is neither
_ALPHABET = ["\n", "\r", "\t", "\x0b", "\x0c", "\x85", "\u00a0", "\u2028", " ",
             "#", ":", "=", "-", ">", "(", ")", "{", "}", "|", "*", "[", "]", ",",
             "a", "Z", "_", "0", "9", "'", "é"]


def test_the_tokenizer_agrees_with_one_match_per_token():
    rng = random.Random(18)
    for _ in range(20_000):
        src = "".join(rng.choices(_ALPHABET, k=rng.randint(0, 24)))
        assert _outcome(tokenize, src) == _outcome(_reference_tokenize, src), repr(src)


@pytest.mark.parametrize("src", ["x" + " " * 100_000, "x" + " " * 100_000 + "é"])
def test_a_long_whitespace_tail_tokenizes_as_one_run(src):
    assert _outcome(tokenize, src) == _outcome(_reference_tokenize, src)
