"""Core syntax: terms, types, contexts and substitutions.

Variables are positional references (de Bruijn style indices) into an
ordered context; display names live on the context and are ignored by
equality.  All values are immutable and hashable, and every operation
here is pure.

Variables, coherences, arrows and ``STAR`` are hash-consed: each
constructor returns the one live object with the given components, so
syntactic equality up to renaming is identity, and ``==`` and ``hash``
are those of ``object``.  The intern tables are plain dicts that live
as long as the process: the kernel's memos hold their terms anyway, and
a plain lookup is the cheapest construction.  Building a term hashes and
compares its components, which are themselves interned, by identity.

Pasting trees are interned too (``Tree``): a tree is the one live tuple
of its interned subtrees, hashed by identity.  It carries its dimension
and context length, set once when it is made, and keeps the other facts
it fixes on its own once the function that owns each has built it.  A
tree is still a tuple and equals the plain tuple of the same shape, so
``Coh`` and the tree functions that take a tree from outside the kernel
intern a plain tuple they are given.

Since interned syntax is never freed, importing this module raises the
cycle collector's young-generation threshold from 700 to 20,000
allocations, so the collector does not keep rescanning that heap.  The
kernel makes no reference cycles (its recursive walks are module
functions, not closures), so a later collection leaves nothing behind.

Terms are either variables or coherences ``Coh(head, cell, args)``
where ``head`` is a pasting tree (see trees.py), ``cell`` is a type
over the context generated by ``head``, and ``args`` is a dense
substitution into the ambient context.
"""

from __future__ import annotations

import gc
from typing import Optional, Union


class KernelError(Exception):
    """Structural invariant broken inside the kernel: a bug, not user error."""


class Term:
    __slots__ = ()


class Type:
    __slots__ = ()


class Immutable:
    """Assigning or deleting an attribute raises ``AttributeError``; a
    constructor sets them through ``object.__setattr__`` or ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record:
    """A record whose fields are its ``__slots__``: equal to a record of
    its own class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Tree(Immutable, tuple):
    """A planar rooted tree (trees.py): the interned tuple of its subtrees,
    of dimension ``dim``, generating a context of ``size`` variables.
    Once built, it keeps its context ``ctx`` (``trees.tree_to_ctx``),
    its branch rows ``branches`` (``insertion.branch_table``) and its
    unbiased types by level, ``unbiased`` (``unbiased.unbiased_type``).

    ``Tree(x)`` is the live tree equal to ``x``, nested plain tuples or a
    tree; ``tree`` makes one from trees.  Unpickling rebuilds through it.
    """

    __hash__ = object.__hash__  # one live tree per shape

    def __new__(cls, x: tuple = ()):
        return x if x.__class__ is Tree else tree(tuple(map(Tree, x)))

    def __reduce__(self):
        return Tree, (tuple(self),)


# every tree made in this process, keyed by the hash of its subtrees'
# tuple, so no key copies a tree; a tree whose hash another tree holds
# is keyed by the tuple itself
_TREES: dict = {}


def tree(kids: tuple, dim: Optional[int] = None, size: Optional[int] = None) -> Tree:
    """The tree whose subtrees are ``kids``, a plain tuple of trees; its
    dimension and size are counted from them unless the caller knows them,
    as insertion does from its splice."""
    key = hash(kids)
    t = _TREES.get(key)
    if t is not None and t != kids:
        key = kids
        t = _TREES.get(key)
    if t is None:
        t = tuple.__new__(Tree, kids)
        if dim is None:
            dim = 1 + max([c.dim for c in kids]) if kids else 0
        if size is None:
            size = len(kids) + 1 + sum([c.size for c in kids])
        t.__dict__.update(dim=dim, size=size)
        _TREES[key] = t
    return t


class _Interned(Immutable):
    """Immutable syntax whose constructor returns the interned object.

    ``_fields`` names the components; pickling rebuilds through the
    constructor, so it yields the live object again.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{type(self).__name__}({args})"


class Var(Term, _Interned):
    """Variable at a context position; ``Var(i)`` is one object per ``i``."""

    _fields = ("idx",)
    __slots__ = _fields

    def __new__(cls, idx: int):
        if idx < 0:
            raise KernelError(f"variable position {idx} is negative")
        pool = _VARS if idx < len(_VARS) else _grow_vars(idx + 1)
        return pool[idx]


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


class Coh(Term, _Interned):
    """Coherence ``head`` with cell type ``cell``, applied to ``args``.

    The arity check runs only when a new object is made: a live one has
    passed it.  A plain tuple ``head`` is interned then too: the keys
    hold trees, hashed by identity, so its lookup misses.
    """

    _fields = ("head", "cell", "args")
    __slots__ = _fields

    def __new__(cls, head: Tree, cell: "Type", args: "Sub"):
        key = (head, cell, args)
        t = _COHS.get(key)
        if t is None:
            if head.__class__ is not Tree:
                return Coh(Tree(head), cell, args)
            if len(args) != head.size:
                raise KernelError(f"coherence over {head} needs {head.size} "
                                  f"arguments, got {len(args)}")
            t = object.__new__(Coh)
            object.__setattr__(t, "head", head)
            object.__setattr__(t, "cell", cell)
            object.__setattr__(t, "args", args)
            _COHS[key] = t
        return t


class Star(Type):
    """The type of points; ``Star()`` is the one object ``STAR``."""

    __slots__ = ()

    def __new__(cls):
        return STAR

    def __reduce__(self):
        return "STAR"

    def __repr__(self):
        return "Star"


STAR = object.__new__(Star)


class Arrow(Type, _Interned):
    """Arrow type ``src -> tgt`` over ``base``."""

    _fields = ("src", "base", "tgt")
    __slots__ = _fields

    def __new__(cls, src: Term, base: Type, tgt: Term):
        key = (src, base, tgt)
        a = _ARROWS.get(key)
        if a is None:
            a = object.__new__(Arrow)
            object.__setattr__(a, "src", src)
            object.__setattr__(a, "base", base)
            object.__setattr__(a, "tgt", tgt)
            _ARROWS[key] = a
        return a


# every coherence and arrow built in this process, keyed by its components
_COHS: dict = {}
_ARROWS: dict = {}

# Interned syntax is immutable, acyclic and immortal: no collection can
# free it, yet each one rescans it.  So collect the young generation
# after 20,000 net allocations, not 700, and leave the older thresholds,
# a higher one the host process set, and 0 (collection off) as they are.
_YOUNG_THRESHOLD = 20_000
_young, *_older = gc.get_threshold()
if 0 < _young < _YOUNG_THRESHOLD:
    gc.set_threshold(_YOUNG_THRESHOLD, *_older)


# Substitutions are dense positional vectors: entry i is the image of
# variable i of the source context.
Sub = tuple

Syntax = Union[Term, Type, Sub]


class Context(Immutable):
    """Ordered telescope of (display name, type) entries.

    Equality and hashing ignore the display names.  The names, the
    types and their hash are computed once, at construction; each
    name's first position, ``positions``, once, when names are first
    resolved, since most kernel contexts never are.
    """

    def __init__(self, entries: tuple):
        types = tuple(t for _, t in entries)
        self.__dict__.update(entries=entries, names=tuple(n for n, _ in entries),
                             types=types, _hash=hash(types))

    @property
    def positions(self) -> dict:
        # a property, not __getattr__, which would slow every attribute read;
        # filled from the end, so a repeated name keeps its first position
        out = self.__dict__.get("_positions")
        if out is None:
            out = self.__dict__["_positions"] = {
                n: i for i, n in reversed(tuple(enumerate(self.names)))}
        return out

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def name_of(self, i: int) -> str:
        return self.entries[i][0]

    def type_of(self, i: int) -> Type:
        return self.entries[i][1]

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


# --- substitution action -------------------------------------------------
#
# A term is a DAG: one interned subterm can occur many times.  So one
# call of these functions remembers each coherence and arrow it has
# pushed through ``sub`` in ``memo``, keyed by the interned object, and
# a caller that pushes several pieces through the same ``sub`` can pass
# them all one memo.  A memo belongs to one ``sub``.

def apply_sub_term(t: Term, sub: Sub, memo: Optional[dict] = None) -> Term:
    if isinstance(t, Var):
        if t.idx >= len(sub):
            raise KernelError(f"substitution arity {len(sub)} too small for {t!r}")
        return sub[t.idx]
    if isinstance(t, Coh):
        if memo is None:
            memo = {}
        else:
            out = memo.get(t)
            if out is not None:
                return out
        # Substitution acts on the args component only; the head and its
        # cell type live over the head's own context.
        out = memo[t] = Coh(t.head, t.cell, compose(t.args, sub, memo))
        return out
    raise KernelError(f"not a term: {t!r}")


def apply_sub_type(a: Type, sub: Sub, memo: Optional[dict] = None) -> Type:
    if isinstance(a, Star):
        return a
    if isinstance(a, Arrow):
        if memo is None:
            memo = {}
        else:
            out = memo.get(a)
            if out is not None:
                return out
        out = memo[a] = Arrow(apply_sub_term(a.src, sub, memo),
                              apply_sub_type(a.base, sub, memo),
                              apply_sub_term(a.tgt, sub, memo))
        return out
    raise KernelError(f"not a type: {a!r}")


def compose(tau: Sub, sigma: Sub, memo: Optional[dict] = None) -> Sub:
    """tau followed by sigma: entries of tau pushed through sigma.

    A loop, not a generator expression: two frames per nesting level.
    """
    if memo is None:
        memo = {}
    n = len(sigma)
    out = []
    for t in tau:
        if isinstance(t, Var):
            if t.idx >= n:
                raise KernelError(f"substitution arity {n} too small for {t!r}")
            out.append(sigma[t.idx])
        else:
            x = memo.get(t)
            out.append(apply_sub_term(t, sigma, memo) if x is None else x)
    return tuple(out)


def id_sub(n: int) -> Sub:
    return var_run(0, n)


def var_run(lo: int, hi: int) -> Sub:
    """The variables ``lo`` to ``hi - 1``: one slice of the interned ones."""
    return (_VARS if hi <= len(_VARS) else _grow_vars(hi))[lo:hi]


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

