"""Checks of the CLI's printed output against outcomes known by theorem.

A surface item's expected outcome is a dict:

    {"exit": 0 or 1,
     "out": one spec per stdout line,
     "err": [[line, kind], ...] for the stderr diagnostics, in order}

stdout specs are ``["verdict", line, "ok" | "FAIL"]`` for an ``eq`` run,
and ``["cell", depth, names]`` for a ``normalize`` run: the normal form
is ``depth`` nested identity cells around either the single variable
``names[0]`` or, for several names, the unbiased composite of that
1-dimensional chain of arrows in that order.  A coherence law of
dimension d+1 over composable arrows has this normal form with
depth d, since every bracketing of a composite normalizes to the
unbiased one and a coherence between equal cells is an identity.

The printed form is read with a small parser of its own, so the check
does not lean on the kernel's printer or names.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(->|[():]|[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_'][A-Za-z0-9_']*)*)")
_DIAG = re.compile(r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): (?P<kind>\w+): ")


def _tokens(s: str) -> list:
    out, pos = [], 0
    s = s.rstrip()
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read printed term at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, toks):
        self.toks, self.i = toks, 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def ps(self):
        """Paren pasting notation: returns (tree, innermost top name)."""
        top = self.take()
        kids = []
        while self.peek() == "(":
            self.take("(")
            kid, top = self.ps()
            self.take(")")
            kids.append(kid)
            self.take()
        return tuple(kids), top

    def term(self):
        """term := "coh" "(" ps ":" side "->" side ")" atom* | name."""
        tok = self.take()
        if tok != "coh":
            return tok
        self.take("(")
        tree, top = self.ps()
        self.take(":")
        depth, cell = 0, []
        while depth or self.peek() != ")":
            tok = self.take()
            depth += {"(": 1, ")": -1}.get(tok, 0)
            cell.append(tok)
        self.take(")")
        args = []
        while self.peek() is not None and self.peek() != ")":
            if self.peek() == "(":
                self.take("(")
                args.append(self.term())
                self.take(")")
            else:
                args.append(self.take())
        return ("coh", tree, top, cell, args)


def _is_identity(t) -> bool:
    if not isinstance(t, tuple) or len(t[4]) != 1:
        return False
    _, tree, top, cell, _ = t
    while tree:
        if len(tree) != 1:
            return False
        tree = tree[0]
    return cell == [top, "->", top]


def cell_matches(printed: str, depth: int, names: list) -> bool:
    try:
        r = _Reader(_tokens(printed))
        t = r.term()
        if r.peek() is not None:
            return False
    except ValueError:
        return False
    for _ in range(depth):
        if not _is_identity(t):
            return False
        t = t[4][0]
    if len(names) == 1:
        return t == names[0]
    if not isinstance(t, tuple):
        return False
    _, tree, _, cell, args = t
    chain = tree == tuple(() for _ in names)
    return chain and len(cell) == 3 and cell[1] == "->" and args == names


def check_surface(path: str, expected: dict, code: int, out: str, err: str) -> str:
    """Empty string when the run matches its expected outcome, else why not."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    got_err = []
    for line in err.splitlines():
        m = _DIAG.match(line)
        if m is None or m["path"] != path:
            return f"unexpected stderr line {line!r}"
        got_err.append([int(m["line"]), m["kind"]])
    if got_err != expected["err"]:
        return f"diagnostics {got_err}, expected {expected['err']}"
    lines = out.splitlines()
    if len(lines) != len(expected["out"]):
        return f"{len(lines)} output lines, expected {len(expected['out'])}"
    for line, spec in zip(lines, expected["out"]):
        if spec[0] == "verdict":
            want = f"{path}:{spec[1]}: {spec[2]}"
            if line != want:
                return f"printed {line!r}, expected {want!r}"
        elif not cell_matches(line, spec[1], spec[2]):
            return f"normal form {line!r} is not {spec[1]} identities on {spec[2]}"
    return ""
