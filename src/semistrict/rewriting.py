"""Reduction: disc removal, endo-coherence removal, insertion.

``head_steps`` states the rules and their priority at a head.
``normalize`` applies an innermost-first strategy, taking at each head
the first step ``head_steps`` gives; strong termination and confluence
make the strategy choice unobservable in results.  A normalization
given a step budget or a trace runs cold; any other shares the
process's normal forms.  ``normalize_first_step`` is the outermost
strategy, kept as the benchmark's answer oracle.  The enumeration of
every congruence-closed step (``one_step``) and the termination
measure, syntactic complexity, are in ``harness``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

from .syntax import (
    Arrow, Coh, Immutable, KernelError, Record, Star, Term, Type, Var,
    apply_sub_term, apply_sub_type,
)
from .trees import bracket, is_linear
from .unbiased import identity_term, is_identity, unbiased_type
from .insertion import (
    InsertionRedex, carry_redexes, exterior_sub, find_redexes, inserted_sub,
    inserted_tree,
)


# --- steps -------------------------------------------------------------------

class ReductionStep(Immutable, Record):
    """``rule`` took ``before`` to ``after`` at ``path``; ``result`` is the
    whole reduct of what the step was found in, ``after`` in a trace.
    ``before`` and ``after`` are over the context of ``head``: the head of
    the innermost coherence whose cell holds the step, None outside every
    cell."""

    __slots__ = ("rule", "path", "before", "after", "result", "detail", "head")

    def __init__(self, rule: str, path: tuple, before, after, result,
                 detail: str = "", head: Optional[tuple] = None):
        for f, v in zip(self.__slots__, (rule, path, before, after, result, detail, head)):
            object.__setattr__(self, f, v)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    def path_str(self) -> str:
        if not self.path:
            return "root"
        bits = []
        for part in self.path:
            if isinstance(part, tuple):
                bits.append(f"{part[0]}[{part[1]}]")
            else:
                bits.append(part)
        return ".".join(bits)


class StepBudgetExceeded(Exception):
    """A normalization ran past its step budget: a stated one, or the
    default one, which no term needs since reduction terminates."""


DEFAULT_BUDGET = 10 ** 6


def _exhausted(budget: Optional[int]) -> str:
    # only an overrun of the default budget (None) is a kernel bug
    return (f"step budget of {budget} exhausted" if budget is not None
            else "step budget exhausted; reduction should always terminate")


# --- the sua head rules -----------------------------------------------------

def disc_removal(t: Term) -> Optional[Term]:
    """Collapse a unary composite over a disc to its top argument."""
    if not isinstance(t, Coh) or not is_linear(t.head):
        return None
    n = t.head.dim
    if n < 1:
        return None
    if t.cell != unbiased_type(n, t.head):
        return None
    return t.args[-1]


def endo_coherence_removal(t: Term) -> Optional[Term]:
    """Collapse a coherence of endo type to the identity on its image."""
    if not isinstance(t, Coh):
        return None
    cell = t.cell
    if not isinstance(cell, Arrow) or cell.src != cell.tgt:
        return None
    if is_identity(t):
        return None
    memo = {}
    return identity_term(apply_sub_type(cell.base, t.args, memo),
                         apply_sub_term(cell.src, t.args, memo))


def apply_insertion(t: Coh, r: InsertionRedex) -> Term:
    # the reduct's tree and cell depend on (S, A, P, T) alone (r.at on S
    # and P), so each shape builds them once; a found redex's positions
    # need no trunk check, so it runs once per shape, in inserted_tree
    key = (r.S, t.cell, r.P, r.T)
    head = _HEADS.get(key)
    if head is None:
        head = _HEADS[key] = (inserted_tree(r.S, r.P, r.T),
                              exterior_sub(r.S, r.P, r.T, r.at, t.cell))
    return Coh(*head, inserted_sub(r.outer, r.inner, r.at))


def _insertion_detail(r: InsertionRedex) -> str:
    return (f"S={bracket(r.S)} P={list(r.P)} T={bracket(r.T)} "
            f"-> {bracket(inserted_tree(r.S, r.P, r.T))}")


def head_steps(t: Term, redexes: Optional[list] = None
               ) -> Iterator[Tuple[str, Term, Optional[list]]]:
    """(rule, reduct, redexes) for each head step of ``t``.

    Lazily, in rule priority order: disc removal, endo-coherence
    removal, then each insertion redex.  This is the one place that
    states the priority.  For an insertion, ``redexes`` are its redex
    and the ones after it in branch order, from which the reduct's are
    carried; for a removal, None.  Given ``redexes``, ``t``'s insertion
    redexes are those instead of a scan's, which runs only when no
    removal applies.
    """
    if not isinstance(t, Coh):
        return
    r = disc_removal(t)
    if r is not None:
        yield "disc-removal", r, None
    r = endo_coherence_removal(t)
    if r is not None:
        yield "endo-coherence-removal", r, None
    if redexes is None:
        redexes = find_redexes(t)
    for i, rdx in enumerate(redexes):
        yield "insertion", apply_insertion(t, rdx), redexes[i:]


# --- normalization -----------------------------------------------------------

TraceFn = Callable[[ReductionStep], None]

# normal forms are context independent, so they cache globally: one memo
# per table, held in a dict whose values bench/tracing.py sums over.  The
# term memo holds each term normalized, each head over normal parts and
# each insertion reduct met on the way, and each normal form, as its own.
# Only a normalization given neither a budget nor a trace uses them
_NF_TERMS: dict = {"sua": {}}
_NF_TYPES: dict = {"sua": {}}
# each insertion shape's reduct tree and cell, keyed by (S, A, P, T) in
# apply_insertion: a function of syntax, not a normal form, so cold runs
# share it too
_HEADS: dict = {}


def clear_caches():
    _NF_TERMS["sua"].clear()
    _NF_TYPES["sua"].clear()
    _HEADS.clear()


class Normalizer:
    """One normalization.  Given a ``budget`` or a ``trace``, it runs
    cold, over memos of its own, so its steps and its verdict on the
    budget depend on the term alone.  Given neither, it runs over the
    shared memos, its own steps held to ``DEFAULT_BUDGET``, which only a
    kernel bug reaches, since reduction terminates.

    Reduction is terminating and confluent, so a term's normal form
    depends only on the term.  After a term's arguments and cell are
    normalized, the head over them is looked up too: a head met again
    under other unnormalized syntax, or a normal form met again, takes
    no step and no redex scan.  A cold run, over empty memos, remembers
    heads the same way, so it takes each head's step once.
    """

    def __init__(self, budget: Optional[int] = None,
                 trace: Optional[TraceFn] = None):
        cold = budget is not None or trace is not None
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.stated = budget
        self.steps = 0
        self.trace = trace
        self.term_memo = {} if cold else _NF_TERMS["sua"]
        self.type_memo = {} if cold else _NF_TYPES["sua"]
        self.head = None  # the head whose cell is being normalized, as in steps

    def run(self, x):
        return self.term(x) if isinstance(x, (Var, Coh)) else self.type(x)

    def term(self, t: Term, path: tuple = ()) -> Term:
        if isinstance(t, Var):
            return t
        nf = self.term_memo.get(t)
        if nf is not None:
            return nf
        out = self._term(t, path)
        self.term_memo[t] = out
        return out

    def _term(self, t: Coh, path: tuple) -> Term:
        # a loop, not a generator expression: two frames per nesting level;
        # variables are normal, so only coherences need a call and a path
        args = []
        for i, a in enumerate(t.args):
            args.append(a if isinstance(a, Var) else self.term(a, path + (("arg", i),)))
        outer, self.head = self.head, t.head
        cell = self.type(t.cell, path + ("cell",))
        self.head = outer
        cur = Coh(t.head, cell, tuple(args))
        # each head over normal parts is looked up before it takes a step;
        # the first is scanned for insertion redexes, each later one's are
        # carried over from the head before
        nxt, redexes = t, None
        done = []  # heads and insertion reducts met on the way, all sharing the result
        while True:
            if cur is not nxt:
                hit = self.term_memo.get(cur)
                if hit is not None:
                    cur = hit
                    break
                done.append(cur)
            if redexes is not None:
                redexes = carry_redexes(redexes, cur)
            step = next(head_steps(cur, redexes), None)
            if step is None:
                break
            rule, nxt, redexes = step
            self.steps += 1
            if self.steps > self.budget:
                raise StepBudgetExceeded(_exhausted(self.stated))
            if self.trace is not None:
                detail = "" if redexes is None else _insertion_detail(redexes[0])
                self.trace(ReductionStep(rule, path, cur, nxt, nxt, detail, outer))
            if redexes is None:
                # a removal can expose further redexes anywhere in the result
                cur = self.term(nxt, path)
                break
            # the reduct's arguments are entries of two normal
            # substitutions, so only its cell can be unnormalized
            hit = self.term_memo.get(nxt)
            if hit is not None:
                cur = hit
                break
            done.append(nxt)
            self.head = nxt.head
            cell = self.type(nxt.cell, path + ("cell",))
            self.head = outer
            cur = nxt if cell is nxt.cell else Coh(nxt.head, cell, nxt.args)
        for r in done:
            self.term_memo[r] = cur
        return cur

    def type(self, a: Type, path: tuple = ()) -> Type:
        if not isinstance(a, Arrow):
            return a
        nf = self.type_memo.get(a)
        if nf is not None:
            return nf
        out = Arrow(self.term(a.src, path + ("src",)),
                    self.type(a.base, path + ("base",)),
                    self.term(a.tgt, path + ("tgt",)))
        self.type_memo[a] = out
        return out


def normalize(x, budget: Optional[int] = None,
              trace: Optional[TraceFn] = None):
    """The normal form of ``x``, cold given a budget or a trace (``Normalizer``)."""
    if not isinstance(x, (Var, Coh, Star, Arrow)):
        raise KernelError(f"not syntax: {x!r}")
    return Normalizer(budget, trace).run(x)


def normalize_first_step(x, budget: Optional[int] = None):
    """Outermost-leftmost strategy: take the first step ``harness.one_step``
    enumerates until none is left, at most ``budget`` (default
    ``DEFAULT_BUDGET``) of them."""
    limit = DEFAULT_BUDGET if budget is None else budget
    steps, nxt = 0, _first_step(x)
    while nxt is not None:
        steps += 1
        if steps > limit:
            raise StepBudgetExceeded(_exhausted(budget))
        x, nxt = nxt, _first_step(nxt)
    return x


def _first_step(x):
    """``x`` after its first step, or None if it is normal: at a coherence
    the first head step, else the first in its cell, then its arguments
    from the left; at an arrow the first in its source, base, target."""
    if isinstance(x, Coh):
        for _, reduct, _ in head_steps(x):
            return reduct
        parts = (x.cell,) + x.args
    elif isinstance(x, Arrow):
        parts = (x.src, x.base, x.tgt)
    else:
        return None
    for i, part in enumerate(parts):
        nxt = _first_step(part)
        if nxt is not None:
            parts = parts[:i] + (nxt,) + parts[i + 1:]
            return Coh(x.head, parts[0], parts[1:]) if isinstance(x, Coh) else Arrow(*parts)
    return None


def def_eq(a, b) -> bool:
    """Definitional equality: syntactic equality of normal forms.

    Terms and types are interned (syntax.py), so for them each ``==``
    here is one identity test.  Equal syntax is convertible without
    normalizing either side, since ``normalize`` is a function.  Each
    side is one run over the shared memos (``_NF_TERMS``, ``_NF_TYPES``),
    which keep each normal form for the life of the process, keyed by
    identity, under the term, under each head over normal parts met on
    the way and as its own, so normalizing one again is one lookup.
    """
    return a == b or normalize(a) == normalize(b)
