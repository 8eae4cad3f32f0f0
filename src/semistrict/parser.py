"""Surface language parser.

Grammar (see README for the full sketch):

    file  := decl*
    decl  := "coh" NAME ps ":" ty
           | "def" NAME ctx ":=" tm
           | "normalize" ctx "|" tm
           | "asserteq" ctx "|" tm "=" tm
    ps    := "(" NAME (("(" entry ")") NAME)* ")" | tree
    tree  := "[" (tree | ",")* "]"
    ctx   := ps | binding+        binding := "(" NAME ":" ty ")" | "{" NAME ":" ty "}"
    ty    := "*" | tm ("->" | "=>") tm
    tm    := NAME atom* | "coh" "(" ps ":" ty ")" atom*
    atom  := NAME | "(" tm ")" | "{" tm "}"

Comments run from '#' to end of line.

The tokenizer is one ``findall`` over one pattern, whose groups are the
whitespace and comments before a token, then an operator, a name, or
any other character, which is an error; at the end of the input all
three are empty.  A token is a plain ``(kind, text, line, col)`` tuple,
``kind`` being ``'op'``, ``'name'`` or ``'eof'``.  Only ``\n`` starts a
line, and a column counts characters from the line's start: a tab, a
carriage return, U+00A0 or U+2028 is whitespace one column wide.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .syntax import Record, tree
from .trees import tree_to_ctx


class ParseError(Exception):
    def __init__(self, line: int, col: int, msg: str, expected=()):
        self.line = line
        self.col = col
        self.msg = msg
        self.expected = tuple(expected)
        extra = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{extra}")


# Once the whitespace group has taken all it can, one of the three
# alternatives or the end of input matches, so nothing backtracks.
_TOKEN_RE = re.compile(r"""
    (\s*(?:\#[^\n]*\s*)*)
    (?: (:=|->|=>|[():{}|=*\[\],])
      | ([A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_'][A-Za-z0-9_']*)*)
      | (.)
      | \Z )
""", re.VERBOSE)

KEYWORDS = {"coh", "def", "normalize", "asserteq"}
_RPAREN, _RBRACE = frozenset({")"}), frozenset({"}"})


def tokenize(src: str) -> List[tuple]:
    toks = _TOKEN_RE.findall(src)
    line, start = 1, 0  # start: the offset of the current line's first character
    pos = 0
    # each match becomes its token in place; the first one at the end, eof
    for i, (ws, op, name, bad) in enumerate(toks):
        if ws:
            if "\n" in ws:
                line += ws.count("\n")
                start = pos + ws.rfind("\n") + 1
            pos += len(ws)
        if op:
            toks[i] = ("op", op, line, pos - start + 1)
            pos += len(op)
        elif name:
            toks[i] = ("name", name, line, pos - start + 1)
            pos += len(name)
        elif bad:
            raise ParseError(line, pos - start + 1, f"unexpected character {bad!r}")
        else:
            toks[i] = ("eof", "", line, pos - start + 1)
            del toks[i + 1:]
            return toks


# --- expression forms, each built from its slots (syntax.Record) -------------

class NameE(Record):
    __slots__ = ("name", "line", "col")


class AppE(Record):
    # head: a NameE or CohE; args: of (expr, braced: bool)
    __slots__ = ("head", "args", "line", "col")


class CohE(Record):
    __slots__ = ("tree", "names", "ty", "line", "col")


class StarE(Record):
    __slots__ = ("line", "col")


class ArrowE(Record):
    __slots__ = ("lhs", "rhs", "line", "col")


class PsCtx(Record):
    __slots__ = ("tree", "names", "line", "col")


class BindCtx(Record):
    # bindings: of (name, ty expr, line, col)
    __slots__ = ("bindings", "line", "col")


class CohDecl(Record):
    __slots__ = ("name", "ps", "ty", "line", "col")


class TermDef(Record):
    __slots__ = ("name", "ctx", "body", "line", "col")


class NormalizeCmd(Record):
    __slots__ = ("ctx", "body", "line", "col")


class AssertEqCmd(Record):
    __slots__ = ("ctx", "lhs", "rhs", "line", "col")


class Parser:
    """Recursive descent over the token tuples ``(kind, text, line, col)``."""

    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0

    def peek(self) -> tuple:
        return self.toks[self.i]

    def expect(self, text: str) -> tuple:
        t = self.toks[self.i]
        if t[1] != text:
            raise ParseError(t[2], t[3], f"found {t[1] or 'end of file'!r}",
                             expected=(text,))
        self.i += 1
        return t

    def expect_name(self) -> str:
        kind, text, line, col = self.toks[self.i]
        if kind != "name" or text in KEYWORDS:
            raise ParseError(line, col, f"found {text or 'end of file'!r}",
                             expected=("a name",))
        self.i += 1
        return text

    # -- declarations

    def parse_file(self) -> List[object]:
        decls = []
        while self.peek()[0] != "eof":
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self):
        _, text, line, col = self.peek()
        if text == "coh":
            self.i += 1
            name = self.expect_name()
            ps = self.parse_ps()
            self.expect(":")
            ty = self.parse_ty()
            return CohDecl(name, ps, ty, line, col)
        if text == "def":
            self.i += 1
            name = self.expect_name()
            ctx = self.parse_ctx()
            self.expect(":=")
            body = self.parse_tm()
            return TermDef(name, ctx, body, line, col)
        if text == "normalize":
            self.i += 1
            ctx = self.parse_ctx()
            self.expect("|")
            body = self.parse_tm()
            return NormalizeCmd(ctx, body, line, col)
        if text == "asserteq":
            self.i += 1
            ctx = self.parse_ctx()
            self.expect("|")
            lhs = self.parse_tm()
            self.expect("=")
            rhs = self.parse_tm()
            return AssertEqCmd(ctx, lhs, rhs, line, col)
        raise ParseError(line, col, f"found {text or 'end of file'!r}",
                         expected=("coh", "def", "normalize", "asserteq"))

    # -- pasting notation

    def parse_ps(self) -> PsCtx:
        _, text, line, col = self.peek()
        if text == "[":
            tree = self.parse_tree()
            return PsCtx(tree, tree_to_ctx(tree).names, line, col)
        self.expect("(")
        tree, names = self.parse_ps_level()
        self.expect(")")
        return PsCtx(tree, names, line, col)

    def parse_ps_level(self) -> Tuple[tuple, tuple]:
        """One alternating level: NAME ( "(" level ")" NAME )*.

        Returns the tree together with its names in context layout order
        (p0 p1 B0 p2 B1 ...): each block's names follow the point after it.
        """
        names = [self.expect_name()]
        trees = []
        while self.toks[self.i][1] == "(":
            self.i += 1
            sub, inner = self.parse_ps_level()
            self.expect(")")
            names.append(self.expect_name())
            names.extend(inner)
            trees.append(sub)
        return tree(tuple(trees)), tuple(names)

    def parse_tree(self) -> tuple:
        """tree := "[" (tree | ",")* "]"; the commas are optional."""
        self.expect("[")
        children = []
        while True:
            _, text, line, col = self.peek()
            if text == "]":
                self.i += 1
                return tree(tuple(children))
            if text == "[":
                children.append(self.parse_tree())
            elif text == ",":
                self.i += 1
            else:
                raise ParseError(line, col, f"found {text or 'end of file'!r} "
                                 "inside a tree literal")

    # -- contexts

    def parse_ctx(self):
        if self.peek()[1] == "[":
            return self.parse_ps()
        groups = []
        while self.peek()[1] in ("(", "{"):
            _, opener, line, col = self.peek()
            self.i += 1
            closer = ")" if opener == "(" else "}"
            first = self.expect_name()
            if self.peek()[1] == ":":
                self.i += 1
                ty = self.parse_ty(stop={closer})
                self.expect(closer)
                groups.append((first, ty, line, col))
            else:
                if groups or opener == "{":
                    raise ParseError(line, col, "pasting notation cannot " + (
                        "follow bindings" if groups else "be braced"))
                # re-parse the whole group as pasting notation
                self.i -= 2
                return self.parse_ps()
        if not groups:
            _, text, line, col = self.peek()
            raise ParseError(line, col, f"found {text or 'end of file'!r}",
                             expected=("a context",))
        return BindCtx(tuple(groups), groups[0][2], groups[0][3])

    # -- types

    def parse_ty(self, stop=frozenset()):
        _, text, line, col = self.peek()
        if text == "*":
            self.i += 1
            return StarE(line, col)
        lhs = self.parse_tm(stop=stop | {"->", "=>"})
        _, arr, aline, acol = self.peek()
        if arr not in ("->", "=>"):
            raise ParseError(aline, acol, f"found {arr or 'end of file'!r}",
                             expected=("->", "=>"))
        self.i += 1
        rhs = self.parse_tm(stop=stop)
        return ArrowE(lhs, rhs, line, col)

    # -- terms

    def parse_tm(self, stop=frozenset()):
        toks = self.toks
        _, text, line, col = toks[self.i]
        if text == "(":
            self.i += 1
            head = self.parse_tm(_RPAREN)
            self.expect(")")
        elif text == "coh":
            head = self.parse_coh()
        else:
            head = NameE(self.expect_name(), line, col)
        args = []
        while True:
            kind, text, aline, acol = toks[self.i]
            if kind == "name":
                if text in KEYWORDS:
                    break
                args.append((NameE(text, aline, acol), False))
                self.i += 1
            elif text in stop:
                break
            elif text == "(":
                self.i += 1
                args.append((self.parse_tm(_RPAREN), False))
                self.expect(")")
            elif text == "{":
                self.i += 1
                args.append((self.parse_tm(_RBRACE), True))
                self.expect("}")
            else:
                break
        if not args:
            return head
        return AppE(head, tuple(args), line, col)

    def parse_coh(self) -> CohE:
        _, _, line, col = self.expect("coh")
        self.expect("(")
        tree, names = self.parse_ps_level()
        self.expect(":")
        ty = self.parse_ty(stop=_RPAREN)
        self.expect(")")
        return CohE(tree, names, ty, line, col)


def parse(src: str) -> List[object]:
    return Parser(src).parse_file()
