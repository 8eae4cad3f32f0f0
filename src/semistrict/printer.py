"""Canonical pretty printer for the surface grammar.

Printing is deterministic: coherence heads render in the paren pasting
notation with generated names, and applications list only the locally
maximal arguments, which reparse through implicit argument inference
to a definitionally equal term.
"""

from __future__ import annotations

from .syntax import Arrow, Coh, KernelError, Star, Term, Type, Var
from .trees import Tree, point_positions, tree_to_ctx
from .insertion import locally_maximal_positions


def fmt_ps(tree: Tree, names) -> str:
    """Paren pasting notation, e.g. (x(f)y(g)z) for the two-arrow tree."""
    return "(" + _emit_ps(tree, 0, names) + ")"


def _emit_ps(t: Tree, offset: int, names) -> str:
    # a module function: a recursive closure would be a reference cycle
    if not t:
        return names[offset]
    pts = point_positions(t)
    out = names[offset + pts[0]]
    for i, child in enumerate(t):
        # the child's block starts one past the point that follows it
        out += "(" + _emit_ps(child, offset + pts[i + 1] + 1, names) + ")"
        out += names[offset + pts[i + 1]]
    return out


def fmt_term(t: Term, names) -> str:
    if isinstance(t, Var):
        return names[t.idx]
    if isinstance(t, Coh):
        head_ctx = tree_to_ctx(t.head)
        hnames = head_ctx.names
        ps = fmt_ps(t.head, hnames)
        ty = fmt_type(t.cell, hnames)
        args = [fmt_atom(t.args[i], names)
                for i in locally_maximal_positions(t.head)]
        body = f"coh ({ps[1:-1]} : {ty})"
        return " ".join([body] + args)
    raise KernelError(f"not a term: {t!r}")


def fmt_atom(t: Term, names) -> str:
    s = fmt_term(t, names)
    return s if " " not in s else "(" + s + ")"


def fmt_type(a: Type, names) -> str:
    if isinstance(a, Star):
        return "*"
    if isinstance(a, Arrow):
        return f"{fmt_term(a.src, names)} -> {fmt_term(a.tgt, names)}"
    raise KernelError(f"not a type: {a!r}")
