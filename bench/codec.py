"""Flat, JSON-safe encoding of kernel syntax.

Terms travel from the generator to a child process as a node table in post
order: each node refers to earlier nodes by index, so encoding and
decoding never recurse on term depth and a 400-deep chain costs no
stack.  Equal subterms share one node, which makes the table a
canonical form: two terms are equal exactly when their tables are.

Nodes:  ["v", i]  variable i          ["s"]  the base type *
        ["a", src, base, tgt]  arrow  ["c", head, cell, [args]]  coherence
"""

from __future__ import annotations

import hashlib
import json


def _tree(x) -> tuple:
    return tuple(_tree(c) for c in x)


def encode(roots, syntax):
    """Encode a list of terms and types into one table; returns (table, root indices)."""
    Var, Coh, Arrow = syntax.Var, syntax.Coh, syntax.Arrow
    index: dict = {}
    table: list = []

    def kids(x):
        if isinstance(x, Coh):
            return (x.cell,) + x.args
        if isinstance(x, Arrow):
            return (x.src, x.base, x.tgt)
        return ()

    for root in roots:
        stack = [(root, False)]
        while stack:
            x, expanded = stack.pop()
            if x in index:
                continue
            ks = kids(x)
            if ks and not expanded:
                stack.append((x, True))
                stack.extend((k, False) for k in reversed(ks))
                continue
            if isinstance(x, Var):
                node = ["v", x.idx]
            elif isinstance(x, Coh):
                node = ["c", x.head, index[x.cell], [index[a] for a in x.args]]
            elif isinstance(x, Arrow):
                node = ["a", index[x.src], index[x.base], index[x.tgt]]
            else:
                node = ["s"]
            index[x] = len(table)
            table.append(node)
    return table, [index[r] for r in roots]


def decode(table, syntax) -> list:
    """Rebuild every node of a table with the kernel's constructors."""
    Var, Coh, Arrow, STAR = syntax.Var, syntax.Coh, syntax.Arrow, syntax.STAR
    out: list = []
    for node in table:
        tag = node[0]
        if tag == "v":
            out.append(Var(node[1]))
        elif tag == "s":
            out.append(STAR)
        elif tag == "a":
            out.append(Arrow(out[node[1]], out[node[2]], out[node[3]]))
        elif tag == "c":
            out.append(Coh(_tree(node[1]), out[node[2]],
                           tuple(out[i] for i in node[3])))
        else:
            raise ValueError(f"unknown node tag {tag!r}")
    return out


def digest(roots, syntax) -> str:
    """Canonical fingerprint of terms and types, equal exactly when they are."""
    table, idx = encode(roots, syntax)
    blob = json.dumps([table, idx], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
