"""Core syntax: terms, types, contexts and substitutions.

Variables are positional references (de Bruijn style indices) into an
ordered context; display names live on the context and are ignored by
equality, so syntactic equality up to renaming is plain ``==``.  All
values are immutable and hashable, and every operation here is pure.

Terms are either variables or coherences ``Coh(head, cell, args)``
where ``head`` is a pasting tree (see trees.py), ``cell`` is a type
over the context generated by ``head``, and ``args`` is a dense
substitution into the ambient context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

# A planar rooted tree is a tuple of planar rooted trees (trees.py).
Tree = tuple


class KernelError(Exception):
    """Structural invariant broken inside the kernel: a bug, not user error."""


@lru_cache(maxsize=None)
def ctx_len(t: Tree) -> int:
    """Number of variables in the context a tree generates."""
    return len(t) + 1 + sum(ctx_len(c) for c in t)


class Term:
    __slots__ = ()


class Type:
    __slots__ = ()


class Var(Term):
    """Variable at a context position.

    ``Var(i)`` returns the same object for every call with the same
    ``i``, so equality and hashing are the identity-based ones of
    ``object``.
    """

    __slots__ = ("idx",)

    def __new__(cls, idx: int):
        if idx < 0:
            raise KernelError(f"variable position {idx} is negative")
        pool = _VARS if idx < len(_VARS) else _grow_vars(idx + 1)
        return pool[idx]

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def __delattr__(self, name):
        raise AttributeError("Var is immutable")

    def __reduce__(self):
        return Var, (self.idx,)

    def __repr__(self):
        return f"Var({self.idx})"


# the interned variables, Var(i) at index i
_VARS: tuple = ()


def _grow_vars(n: int) -> tuple:
    global _VARS
    fresh = []
    for i in range(len(_VARS), max(n, 2 * len(_VARS))):
        v = object.__new__(Var)
        object.__setattr__(v, "idx", i)
        fresh.append(v)
    _VARS += tuple(fresh)
    return _VARS


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Coh(Term):
    head: Tree
    cell: Type
    args: "Sub"
    _hash: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if len(self.args) != ctx_len(self.head):
            raise KernelError(f"coherence over {self.head} needs {ctx_len(self.head)} "
                              f"arguments, got {len(self.args)}")
        object.__setattr__(self, "_hash", hash((Coh, self.head, self.cell, self.args)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Coh):
            return NotImplemented
        return (self._hash == other._hash and self.head == other.head
                and self.cell == other.cell and self.args == other.args)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Coh({self.head!r}, {self.cell!r}, {self.args!r})"


@dataclass(frozen=True, slots=True)
class Star(Type):
    def __repr__(self):
        return "Star"


STAR = Star()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Arrow(Type):
    src: Term
    base: Type
    tgt: Term
    _hash: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((Arrow, self.src, self.base, self.tgt)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Arrow):
            return NotImplemented
        return (self._hash == other._hash and self.src == other.src
                and self.base == other.base and self.tgt == other.tgt)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Arrow({self.src!r}, {self.base!r}, {self.tgt!r})"


# Substitutions are dense positional vectors: entry i is the image of
# variable i of the source context.
Sub = tuple

Syntax = Union[Term, Type, Sub]


@dataclass(frozen=True, eq=False)
class Context:
    """Ordered telescope of (display name, type) entries.

    Equality and hashing ignore the display names.  The types and
    their hash are computed once, at construction.
    """

    entries: tuple
    types: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        types = tuple(t for _, t in self.entries)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "_hash", hash(types))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def name_of(self, i: int) -> str:
        return self.entries[i][0]

    def type_of(self, i: int) -> Type:
        return self.entries[i][1]

    @property
    def names(self):
        return tuple(n for n, _ in self.entries)

    def extended(self, name: str, ty: Type) -> "Context":
        return Context(self.entries + ((name, ty),))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Context):
            return NotImplemented
        return self._hash == other._hash and self.types == other.types

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Context({self.entries!r})"


def alpha_eq(a: Syntax, b: Syntax) -> bool:
    """Syntactic equality up to renaming; plain == in this encoding."""
    return a == b


# --- substitution action -------------------------------------------------

def apply_sub_term(t: Term, sub: Sub) -> Term:
    if isinstance(t, Var):
        if not 0 <= t.idx < len(sub):
            raise KernelError(f"substitution arity {len(sub)} too small for {t!r}")
        return sub[t.idx]
    if isinstance(t, Coh):
        # Substitution acts on the args component only; the head and its
        # cell type live over the head's own context.
        return Coh(t.head, t.cell, compose(t.args, sub))
    raise KernelError(f"not a term: {t!r}")


def apply_sub_type(a: Type, sub: Sub) -> Type:
    if isinstance(a, Star):
        return a
    if isinstance(a, Arrow):
        return Arrow(apply_sub_term(a.src, sub), apply_sub_type(a.base, sub),
                     apply_sub_term(a.tgt, sub))
    raise KernelError(f"not a type: {a!r}")


def compose(tau: Sub, sigma: Sub) -> Sub:
    """tau followed by sigma: entries of tau pushed through sigma."""
    return tuple(apply_sub_term(t, sigma) for t in tau)


def id_sub(n: int) -> Sub:
    return (_VARS if n <= len(_VARS) else _grow_vars(n))[:n]


# --- free variables, support, dimension ----------------------------------

def free_vars(x: Syntax) -> frozenset:
    if isinstance(x, Var):
        return frozenset((x.idx,))
    if isinstance(x, Coh):
        return free_vars(x.args)
    if isinstance(x, Star):
        return frozenset()
    if isinstance(x, Arrow):
        return free_vars(x.src) | free_vars(x.base) | free_vars(x.tgt)
    if isinstance(x, tuple):
        out = frozenset()
        for t in x:
            out |= free_vars(t)
        return out
    raise KernelError(f"not syntax: {x!r}")


def downward_close(ctx: Context, vs: frozenset) -> frozenset:
    """Close a variable set under free variables of member types."""
    seen = set()
    todo = list(vs)
    while todo:
        i = todo.pop()
        if i in seen:
            continue
        seen.add(i)
        todo.extend(free_vars(ctx.type_of(i)) - seen)
    return frozenset(seen)


def support(ctx: Context, x: Syntax) -> frozenset:
    return downward_close(ctx, free_vars(x))


def dim_type(a: Type) -> int:
    d = 0
    while isinstance(a, Arrow):
        d += 1
        a = a.base
    return d


def dim_term(ctx: Context, t: Term) -> int:
    if isinstance(t, Var):
        return dim_type(ctx.type_of(t.idx))
    if isinstance(t, Coh):
        return dim_type(t.cell)
    raise KernelError(f"not a term: {t!r}")


def dim_ctx(ctx: Context) -> int:
    return max((dim_type(ty) for _, ty in ctx.entries), default=0)
