"""Reduction: disc removal, endo-coherence removal, insertion.

``one_step`` enumerates the congruence-closed single-step reducts of a
term, type or substitution.  ``normalize`` applies an innermost-first
strategy, taking at each head the first step ``head_steps`` gives;
strong termination and confluence make the strategy choice
unobservable in results.  The termination measure, syntactic
complexity, is in ``harness``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from .syntax import (
    Arrow, Coh, Immutable, KernelError, Record, Star, Sub, Term, Type, Var,
    apply_sub_term, apply_sub_type,
)
from .trees import bracket, is_linear, tree_dim
from .unbiased import identity_term, is_identity, unbiased_type
from .insertion import (
    InsertionRedex, carry_redexes, exterior_sub, find_redexes, inserted_sub,
    inserted_tree,
)


# --- steps -------------------------------------------------------------------

class ReductionStep(Immutable, Record):
    """``rule`` took ``before`` to ``after`` at ``path``; ``result`` is the
    full reduct at the level ``one_step`` was called on.  ``before`` and
    ``after`` are over the context of ``head``: the head of the innermost
    coherence whose cell holds the step, None outside every cell."""

    __slots__ = ("rule", "path", "before", "after", "result", "detail", "head")

    def __init__(self, rule: str, path: tuple, before, after, result,
                 detail: str = "", head: Optional[tuple] = None):
        for f, v in zip(self.__slots__, (rule, path, before, after, result, detail, head)):
            object.__setattr__(self, f, v)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    def under(self, part, result, head: Optional[tuple] = None) -> "ReductionStep":
        """This step seen one level up, inside ``part`` of syntax whose
        reduct is ``result``; ``head`` is the head whose cell ``part`` is."""
        return ReductionStep(self.rule, (part,) + self.path, self.before, self.after,
                             result, self.detail, head if self.head is None else self.head)

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
    """The normalizer ran past its step budget: a kernel bug by theorem."""


_EXHAUSTED = "step budget exhausted; reduction should always terminate"


DEFAULT_BUDGET = 10 ** 6


# --- the sua head rules -----------------------------------------------------

def disc_removal(t: Term) -> Optional[Term]:
    """Collapse a unary composite over a disc to its top argument."""
    if not isinstance(t, Coh) or not is_linear(t.head):
        return None
    n = tree_dim(t.head)
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
    # and P), so each shape builds them once; with a found redex's
    # positions the splices skip the trunk check, so it runs once per
    # shape, in inserted_tree
    key = (r.S, t.cell, r.P, r.T)
    head = _HEADS.get(key)
    if head is None:
        head = _HEADS[key] = (inserted_tree(r.S, r.P, r.T),
                              exterior_sub(r.S, r.P, r.T, r.at, t.cell))
    return Coh(*head, inserted_sub(r.outer, r.P, r.inner, r.S, r.T, r.at))


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


# --- one-step reduction ------------------------------------------------------

def one_step(x) -> List[ReductionStep]:
    if isinstance(x, (Var, Coh)):
        return one_step_term(x)
    if isinstance(x, (Star, Arrow)):
        return one_step_type(x)
    if isinstance(x, tuple):
        return one_step_sub(x)
    raise KernelError(f"not syntax: {x!r}")


def one_step_term(t: Term) -> List[ReductionStep]:
    if not isinstance(t, Coh):
        return []
    steps = [ReductionStep(rule, (), t, r, r,
                           "" if rdxs is None else _insertion_detail(rdxs[0]))
             for rule, r, rdxs in head_steps(t)]
    for st in one_step_type(t.cell):
        steps.append(st.under("cell", Coh(t.head, st.result, t.args), t.head))
    for i, a in enumerate(t.args):
        for st in one_step_term(a):
            new_args = t.args[:i] + (st.result,) + t.args[i + 1:]
            steps.append(st.under(("arg", i), Coh(t.head, t.cell, new_args)))
    return steps


def one_step_type(a: Type) -> List[ReductionStep]:
    steps: List[ReductionStep] = []
    if not isinstance(a, Arrow):
        return steps
    for st in one_step_term(a.src):
        steps.append(st.under("src", Arrow(st.result, a.base, a.tgt)))
    for st in one_step_type(a.base):
        steps.append(st.under("base", Arrow(a.src, st.result, a.tgt)))
    for st in one_step_term(a.tgt):
        steps.append(st.under("tgt", Arrow(a.src, a.base, st.result)))
    return steps


def one_step_sub(s: Sub) -> List[ReductionStep]:
    steps: List[ReductionStep] = []
    for i, t in enumerate(s):
        for st in one_step_term(t):
            steps.append(st.under(("entry", i), s[:i] + (st.result,) + s[i + 1:]))
    return steps


# --- normalization -----------------------------------------------------------

TraceFn = Callable[[ReductionStep], None]

# normal forms are context independent, so they cache globally: one memo
# per table, held in a dict whose values bench/tracing.py sums over.  The
# term memo holds each term normalized, each head over normal parts and
# each insertion reduct met on the way, and each normal form, as its own.
# _NF_STEPS counts the head steps taken over these memos, so it bounds
# the steps a shared run skips, and normalize keeps it back from the budget
_NF_TERMS: dict = {"sua": {}}
_NF_TYPES: dict = {"sua": {}}
_NF_STEPS = 0
# each insertion shape's reduct tree and cell, keyed by (S, A, P, T) in
# apply_insertion: a function of syntax, not a normal form, so cold runs
# share it too
_HEADS: dict = {}


def clear_caches():
    global _NF_STEPS
    _NF_TERMS["sua"].clear()
    _NF_TYPES["sua"].clear()
    _NF_STEPS = 0
    _HEADS.clear()


class Normalizer:
    """One normalization of at most ``budget`` head steps, over the shared
    memos or, cold, over memos of its own; ``normalize`` chooses which.

    Reduction is terminating and confluent, so a term's normal form
    depends only on the term.  After a term's arguments and cell are
    normalized, the head over them is looked up too: a head met again
    under other unnormalized syntax, or a normal form met again, takes
    no step and no redex scan.  A cold run, over empty memos, remembers
    heads the same way, so it takes each head's step once.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET,
                 trace: Optional[TraceFn] = None, shared: bool = False):
        self.budget = budget
        self.steps = 0
        self.trace = trace
        self.term_memo = _NF_TERMS["sua"] if shared else {}
        self.type_memo = _NF_TYPES["sua"] if shared else {}
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
                raise StepBudgetExceeded(_EXHAUSTED)
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


def normalize(x, budget: int = DEFAULT_BUDGET,
              trace: Optional[TraceFn] = None):
    """The normal form of ``x``, with a cold run's verdict on ``budget``.

    A traced call, or one whose budget is below ``_NF_STEPS``, is one
    cold run.  Any other runs over the shared memos with ``budget -
    _NF_STEPS`` steps, and is redone cold if those run out: a shared run
    that fits skipped at most ``_NF_STEPS`` steps, so a cold run fits too.
    """
    global _NF_STEPS
    if not isinstance(x, (Var, Coh, Star, Arrow)):
        raise KernelError(f"not syntax: {x!r}")
    if trace is not None or budget < _NF_STEPS:
        return Normalizer(budget, trace).run(x)
    nz = Normalizer(budget - _NF_STEPS, shared=True)
    try:
        return nz.run(x)
    except StepBudgetExceeded:
        return Normalizer(budget).run(x)
    finally:
        _NF_STEPS += nz.steps


def normalize_first_step(x, budget: int = DEFAULT_BUDGET):
    """Outermost strategy: repeatedly take the first enumerated step."""
    steps = 0
    while True:
        reducts = one_step(x)
        if not reducts:
            return x
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(_EXHAUSTED)
        x = reducts[0].result


def def_eq(a, b) -> bool:
    """Definitional equality: syntactic equality of normal forms.

    Terms and types are interned (syntax.py), so for them each ``==``
    here is one identity test.  Equal syntax is convertible without
    normalizing either side, since ``normalize`` is a function.  Normal
    forms themselves are remembered for the life of the process
    (``_NF_TERMS``, ``_NF_TYPES``), keyed by identity, under the term
    and under each head over normal parts its normalization met; a
    normal form is remembered as its own, so normalizing one again is
    one lookup.  The default budget is far above ``_NF_STEPS``, so every
    conversion is one run over the shared memos (``normalize``).
    """
    return a == b or normalize(a) == normalize(b)
