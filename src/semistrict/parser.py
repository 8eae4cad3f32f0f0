"""Surface language parser.

Grammar (see README for the full sketch):

    file  := decl*
    decl  := "coh" NAME ps ":" ty
           | "def" NAME ctx ":=" tm
           | "normalize" ctx "|" tm
           | "asserteq" ctx "|" tm "=" tm
    ps    := "(" NAME (("(" entry ")") NAME)* ")" | tree
    tree  := "[" (tree | ",")* "]"
    ctx   := ps | binding+        binding := "(" NAME ":" ty ")" | "{...}"
    ty    := "*" | tm ("->" | "=>") tm
    tm    := NAME atom* | "coh" "(" ps ":" ty ")" atom*
    atom  := NAME | "(" tm ")" | "{" tm "}"

Comments run from '#' to end of line.

The tokenizer is one ``finditer`` pass over one pattern whose
alternatives are a newline, other whitespace or a comment, an operator,
a name, and any other character, which is an error.  Only ``\n``
starts a line, and a column counts characters from the line's start:
a tab, a carriage return, U+00A0 or U+2028 is whitespace one column wide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .trees import tree_to_ctx


class ParseError(Exception):
    def __init__(self, line: int, col: int, msg: str, expected=()):
        self.line = line
        self.col = col
        self.msg = msg
        self.expected = tuple(expected)
        extra = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{extra}")


_TOKEN_RE = re.compile(r"""
    (?P<nl>\n)
  | (?P<ws>[^\S\n]+|\#[^\n]*)
  | (?P<op>:=|->|=>|[():{}|=*\[\],])
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_'][A-Za-z0-9_']*)*)
  | (?P<bad>.)
""", re.VERBOSE)

KEYWORDS = {"coh", "def", "normalize", "asserteq"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'op', 'name', 'eof'
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> List[Token]:
    out = []
    line, start = 1, 0  # start: the offset of the current line's first character
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "op" or kind == "name":
            out.append(Token(kind, m.group(), line, m.start() - start + 1))
        elif kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(line, m.start() - start + 1,
                             f"unexpected character {m.group()!r}")
    out.append(Token("eof", "", line, len(src) - start + 1))
    return out


# --- expression forms -------------------------------------------------------

@dataclass(slots=True)
class NameE:
    name: str
    line: int
    col: int


@dataclass(slots=True)
class AppE:
    head: object  # NameE or CohE
    args: tuple   # of (expr, braced: bool)
    line: int
    col: int


@dataclass(slots=True)
class CohE:
    tree: tuple
    names: tuple
    ty: object
    line: int
    col: int


@dataclass(slots=True)
class StarE:
    line: int
    col: int


@dataclass(slots=True)
class ArrowE:
    lhs: object
    rhs: object
    line: int
    col: int


@dataclass(slots=True)
class PsCtx:
    tree: tuple
    names: tuple
    line: int
    col: int


@dataclass(slots=True)
class BindCtx:
    bindings: tuple  # of (name, ty expr, line, col)
    line: int
    col: int


@dataclass(slots=True)
class CohDecl:
    name: str
    ps: PsCtx
    ty: object
    line: int
    col: int


@dataclass(slots=True)
class TermDef:
    name: str
    ctx: object
    body: object
    line: int
    col: int


@dataclass(slots=True)
class NormalizeCmd:
    ctx: object
    body: object
    line: int
    col: int


@dataclass(slots=True)
class AssertEqCmd:
    ctx: object
    lhs: object
    rhs: object
    line: int
    col: int


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(t.line, t.col, f"found {t.text or 'end of file'!r}",
                             expected=(text,))
        return self.next()

    def expect_name(self) -> Token:
        t = self.peek()
        if t.kind != "name" or t.text in KEYWORDS:
            raise ParseError(t.line, t.col, f"found {t.text or 'end of file'!r}",
                             expected=("a name",))
        return self.next()

    # -- declarations

    def parse_file(self) -> List[object]:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self):
        t = self.peek()
        if t.text == "coh":
            self.next()
            name = self.expect_name()
            ps = self.parse_ps()
            self.expect(":")
            ty = self.parse_ty()
            return CohDecl(name.text, ps, ty, t.line, t.col)
        if t.text == "def":
            self.next()
            name = self.expect_name()
            ctx = self.parse_ctx()
            self.expect(":=")
            body = self.parse_tm()
            return TermDef(name.text, ctx, body, t.line, t.col)
        if t.text == "normalize":
            self.next()
            ctx = self.parse_ctx()
            self.expect("|")
            body = self.parse_tm()
            return NormalizeCmd(ctx, body, t.line, t.col)
        if t.text == "asserteq":
            self.next()
            ctx = self.parse_ctx()
            self.expect("|")
            lhs = self.parse_tm()
            self.expect("=")
            rhs = self.parse_tm()
            return AssertEqCmd(ctx, lhs, rhs, t.line, t.col)
        raise ParseError(t.line, t.col, f"found {t.text or 'end of file'!r}",
                         expected=("coh", "def", "normalize", "asserteq"))

    # -- pasting notation

    def parse_ps(self) -> PsCtx:
        t = self.peek()
        if t.text == "[":
            tree = self.parse_tree()
            return PsCtx(tree, tree_to_ctx(tree).names, t.line, t.col)
        self.expect("(")
        tree, names = self.parse_ps_level()
        self.expect(")")
        return PsCtx(tree, names, t.line, t.col)

    def parse_ps_level(self) -> Tuple[tuple, tuple]:
        """One alternating level: NAME ( "(" level ")" NAME )*.

        Returns the tree together with its names in context layout order
        (p0 p1 B0 p2 B1 ...).
        """
        first = self.expect_name().text
        points = [first]
        blocks = []
        while self.peek().text == "(":
            self.next()
            blocks.append(self.parse_ps_level())
            self.expect(")")
            points.append(self.expect_name().text)
        tree = tuple(b[0] for b in blocks)
        names = list(points[:2]) if len(points) > 1 else list(points)
        for i, (_, bnames) in enumerate(blocks):
            names.extend(bnames)
            if i + 1 < len(blocks):
                names.append(points[i + 2])
        return tree, tuple(names)

    def parse_tree(self) -> tuple:
        """tree := "[" (tree | ",")* "]"; the commas are optional."""
        self.expect("[")
        children = []
        while True:
            t = self.peek()
            if t.text == "]":
                self.next()
                return tuple(children)
            if t.text == "[":
                children.append(self.parse_tree())
            elif t.text == ",":
                self.next()
            else:
                raise ParseError(t.line, t.col, f"found {t.text or 'end of file'!r} "
                                 "inside a tree literal")

    # -- contexts

    def parse_ctx(self):
        t = self.peek()
        if t.text == "[":
            ps = self.parse_ps()
            return ps
        groups = []
        while self.peek().text in ("(", "{"):
            opener = self.next()
            closer = ")" if opener.text == "(" else "}"
            first = self.expect_name()
            if self.peek().text == ":":
                self.next()
                ty = self.parse_ty(stop={closer})
                self.expect(closer)
                groups.append((first.text, ty, opener.line, opener.col))
            else:
                if groups or opener.text == "{":
                    raise ParseError(opener.line, opener.col,
                                     "pasting notation cannot follow bindings")
                # re-parse the whole group as pasting notation
                self.i -= 2
                return self.parse_ps()
        if not groups:
            t = self.peek()
            raise ParseError(t.line, t.col, f"found {t.text or 'end of file'!r}",
                             expected=("a context",))
        return BindCtx(tuple(groups), groups[0][2], groups[0][3])

    # -- types

    def parse_ty(self, stop=frozenset()):
        t = self.peek()
        if t.text == "*":
            self.next()
            return StarE(t.line, t.col)
        lhs = self.parse_tm(stop=stop | {"->", "=>"})
        arr = self.peek()
        if arr.text not in ("->", "=>"):
            raise ParseError(arr.line, arr.col,
                             f"found {arr.text or 'end of file'!r}",
                             expected=("->", "=>"))
        self.next()
        rhs = self.parse_tm(stop=stop)
        return ArrowE(lhs, rhs, t.line, t.col)

    # -- terms

    def parse_tm(self, stop=frozenset()):
        t = self.peek()
        head = self.parse_head()
        args = []
        while True:
            nxt = self.peek()
            if nxt.kind == "eof" or nxt.text in stop:
                break
            if nxt.kind == "name" and nxt.text not in KEYWORDS:
                args.append((NameE(nxt.text, nxt.line, nxt.col), False))
                self.next()
            elif nxt.text == "(":
                self.next()
                args.append((self.parse_tm(stop={")"}), False))
                self.expect(")")
            elif nxt.text == "{":
                self.next()
                args.append((self.parse_tm(stop={"}"}), True))
                self.expect("}")
            else:
                break
        if not args:
            return head
        return AppE(head, tuple(args), t.line, t.col)

    def parse_head(self):
        t = self.peek()
        if t.text == "coh":
            self.next()
            self.expect("(")
            tree, names = self.parse_ps_level()
            self.expect(":")
            ty = self.parse_ty(stop={")"})
            self.expect(")")
            return CohE(tree, names, ty, t.line, t.col)
        if t.text == "(":
            self.next()
            inner = self.parse_tm(stop={")"})
            self.expect(")")
            return inner
        name = self.expect_name()
        return NameE(name.text, name.line, name.col)


def parse(src: str) -> List[object]:
    return Parser(src).parse_file()
