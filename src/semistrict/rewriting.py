"""Reduction: disc removal, endo-coherence removal, insertion.

``one_step`` enumerates the congruence-closed single-step reducts of a
term, type or substitution.  ``normalize`` applies an innermost-first
strategy with rule priority disc removal > endo-coherence removal >
insertion; strong termination and confluence make the strategy choice
unobservable in results.  Syntactic complexity, an ordinal below
omega^omega, strictly decreases along every step that does not pass
through a coherence's cell type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from .syntax import (
    Arrow, Coh, KernelError, Star, Sub, Term, Type, Var,
    apply_sub_term, apply_sub_type, dim_type,
)
from .trees import bracket, is_linear, tree_dim
from .unbiased import identity_term, is_identity, unbiased_type
from .insertion import (
    InsertionRedex, exterior_sub, find_redexes, inserted_sub, inserted_tree,
)


# --- ordinals below omega^omega -------------------------------------------

@dataclass(frozen=True, slots=True)
class OrdinalPoly:
    """Polynomial in omega: ((exponent, coefficient), ...) sorted descending."""

    terms: tuple = ()

    def __post_init__(self):
        es = [e for e, _ in self.terms]
        if es != sorted(es, reverse=True) or len(set(es)) != len(es):
            raise KernelError("ordinal terms must be sorted by exponent")
        if any(c <= 0 for _, c in self.terms):
            raise KernelError("ordinal coefficients must be positive")

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append("w" if c == 1 else f"{c}w")
            else:
                bits.append(f"w^{e}" if c == 1 else f"{c}w^{e}")
        return " + ".join(bits)


ORD_ZERO = OrdinalPoly()


def omega_pow(e: int, c: int = 1) -> OrdinalPoly:
    return OrdinalPoly(((e, c),)) if c else ORD_ZERO


def natural_sum(a: OrdinalPoly, b: OrdinalPoly) -> OrdinalPoly:
    coeffs = dict(a.terms)
    for e, c in b.terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return OrdinalPoly(tuple(sorted(coeffs.items(), reverse=True)))


def ord_lt(a: OrdinalPoly, b: OrdinalPoly) -> bool:
    """Lexicographic comparison from the highest exponent down."""
    ca, cb = dict(a.terms), dict(b.terms)
    for e in sorted(set(ca) | set(cb), reverse=True):
        x, y = ca.get(e, 0), cb.get(e, 0)
        if x != y:
            return x < y
    return False


def syntactic_complexity(x) -> OrdinalPoly:
    if isinstance(x, Var):
        return ORD_ZERO
    if isinstance(x, Coh):
        d = dim_type(x.cell)
        head = omega_pow(d, 1 if is_identity(x) else 2)
        return natural_sum(head, syntactic_complexity(x.args))
    if isinstance(x, tuple):
        acc = ORD_ZERO
        for t in x:
            acc = natural_sum(acc, syntactic_complexity(t))
        return acc
    raise KernelError(f"syntactic complexity undefined for {x!r}")


sc = syntactic_complexity


# --- rule set and steps ----------------------------------------------------

@dataclass(frozen=True)
class RuleSet:
    disc_removal: bool = True
    endo_coherence_removal: bool = True
    insertion: bool = True

    def disabled(self):
        out = []
        if not self.disc_removal:
            out.append("dr")
        if not self.endo_coherence_removal:
            out.append("ecr")
        if not self.insertion:
            out.append("ins")
        return out


SUA = RuleSet()


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    path: tuple
    before: object
    after: object
    result: object  # the full reduct at the level one_step was called on
    detail: str = ""

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
    return identity_term(apply_sub_type(cell.base, t.args),
                         apply_sub_term(cell.src, t.args))


def apply_insertion(t: Coh, r: InsertionRedex) -> Term:
    kappa = exterior_sub(r.S, r.P, r.T)
    return Coh(inserted_tree(r.S, r.P, r.T), apply_sub_type(t.cell, kappa),
               inserted_sub(r.outer, r.P, r.inner, r.S, r.T))


def insertion_step(t: Term) -> Optional[Term]:
    if not isinstance(t, Coh):
        return None
    redexes = find_redexes(t)
    if not redexes:
        return None
    return apply_insertion(t, redexes[0])


def _insertion_detail(r: InsertionRedex) -> str:
    return (f"S={bracket(r.S)} P={list(r.P)} T={bracket(r.T)} "
            f"-> {bracket(inserted_tree(r.S, r.P, r.T))}")


# --- one-step reduction ------------------------------------------------------

def one_step(x, rules: RuleSet = SUA) -> List[ReductionStep]:
    if isinstance(x, (Var, Coh)):
        return one_step_term(x, rules)
    if isinstance(x, (Star, Arrow)):
        return one_step_type(x, rules)
    if isinstance(x, tuple):
        return one_step_sub(x, rules)
    raise KernelError(f"not syntax: {x!r}")


def one_step_term(t: Term, rules: RuleSet = SUA) -> List[ReductionStep]:
    steps: List[ReductionStep] = []
    if not isinstance(t, Coh):
        return steps
    if rules.disc_removal:
        r = disc_removal(t)
        if r is not None:
            steps.append(ReductionStep("disc-removal", (), t, r, r))
    if rules.endo_coherence_removal:
        r = endo_coherence_removal(t)
        if r is not None:
            steps.append(ReductionStep("endo-coherence-removal", (), t, r, r))
    if rules.insertion:
        for rdx in find_redexes(t):
            out = apply_insertion(t, rdx)
            steps.append(ReductionStep("insertion", (), t, out, out,
                                       _insertion_detail(rdx)))
    for st in one_step_type(t.cell, rules):
        steps.append(replace(st, path=("cell",) + st.path,
                             result=Coh(t.head, st.result, t.args)))
    for i, a in enumerate(t.args):
        for st in one_step_term(a, rules):
            new_args = t.args[:i] + (st.result,) + t.args[i + 1:]
            steps.append(replace(st, path=(("arg", i),) + st.path,
                                 result=Coh(t.head, t.cell, new_args)))
    return steps


def one_step_type(a: Type, rules: RuleSet = SUA) -> List[ReductionStep]:
    steps: List[ReductionStep] = []
    if not isinstance(a, Arrow):
        return steps
    for st in one_step_term(a.src, rules):
        steps.append(replace(st, path=("src",) + st.path,
                             result=Arrow(st.result, a.base, a.tgt)))
    for st in one_step_type(a.base, rules):
        steps.append(replace(st, path=("base",) + st.path,
                             result=Arrow(a.src, st.result, a.tgt)))
    for st in one_step_term(a.tgt, rules):
        steps.append(replace(st, path=("tgt",) + st.path,
                             result=Arrow(a.src, a.base, st.result)))
    return steps


def one_step_sub(s: Sub, rules: RuleSet = SUA) -> List[ReductionStep]:
    steps: List[ReductionStep] = []
    for i, t in enumerate(s):
        for st in one_step_term(t, rules):
            steps.append(replace(st, path=(("entry", i),) + st.path,
                                 result=s[:i] + (st.result,) + s[i + 1:]))
    return steps


# --- normalization -----------------------------------------------------------

class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise StepBudgetExceeded(
                "step budget exhausted; reduction should always terminate")


TraceFn = Callable[[ReductionStep], None]

# normal forms are context independent, so they cache globally per rule set
_NF_TERMS: dict = {}
_NF_TYPES: dict = {}


def clear_caches():
    _NF_TERMS.clear()
    _NF_TYPES.clear()


class Normalizer:
    def __init__(self, rules: RuleSet = SUA, budget: int = DEFAULT_BUDGET,
                 trace: Optional[TraceFn] = None):
        self.rules = rules
        self.budget = _Budget(budget)
        self.trace = trace
        if trace is None:
            self.term_memo = _NF_TERMS.setdefault(rules, {})
            self.type_memo = _NF_TYPES.setdefault(rules, {})
        else:
            self.term_memo = {}
            self.type_memo = {}

    def term(self, t: Term, path: tuple = ()) -> Term:
        if isinstance(t, Var):
            return t
        hit = self.term_memo.get(t)
        if hit is not None:
            return hit
        out = self._term(t, path)
        self.term_memo[t] = out
        return out

    def _term(self, t: Coh, path: tuple) -> Term:
        args = tuple(self.term(a, path + (("arg", i),))
                     for i, a in enumerate(t.args))
        cell = self.type(t.cell, path + ("cell",))
        cur = Coh(t.head, cell, args)
        reducts = []  # insertion reducts met on the way, all sharing the result
        while True:
            rules = self.rules
            nxt = None
            rule = ""
            detail = ""
            if rules.disc_removal:
                nxt = disc_removal(cur)
                rule = "disc-removal"
            if nxt is None and rules.endo_coherence_removal:
                nxt = endo_coherence_removal(cur)
                rule = "endo-coherence-removal"
            if nxt is None and rules.insertion:
                redexes = find_redexes(cur)
                if redexes:
                    nxt = apply_insertion(cur, redexes[0])
                    rule = "insertion"
                    if self.trace is not None:
                        detail = _insertion_detail(redexes[0])
            if nxt is None:
                break
            self.budget.spend()
            if self.trace is not None:
                self.trace(ReductionStep(rule, path, cur, nxt, nxt, detail))
            if rule != "insertion":
                # a removal can expose further redexes anywhere in the result
                cur = self.term(nxt, path)
                break
            # the reduct's arguments are entries of two normal
            # substitutions, so only its cell can be unnormalized
            hit = self.term_memo.get(nxt)
            if hit is not None:
                cur = hit
                break
            reducts.append(nxt)
            cur = Coh(nxt.head, self.type(nxt.cell, path + ("cell",)), nxt.args)
        for r in reducts:
            self.term_memo[r] = cur
        return cur

    def type(self, a: Type, path: tuple = ()) -> Type:
        if not isinstance(a, Arrow):
            return a
        hit = self.type_memo.get(a)
        if hit is not None:
            return hit
        out = Arrow(self.term(a.src, path + ("src",)),
                    self.type(a.base, path + ("base",)),
                    self.term(a.tgt, path + ("tgt",)))
        self.type_memo[a] = out
        return out

    def sub(self, s: Sub, path: tuple = ()) -> Sub:
        return tuple(self.term(t, path + (("entry", i),))
                     for i, t in enumerate(s))


def normalize(x, rules: RuleSet = SUA, budget: int = DEFAULT_BUDGET,
              trace: Optional[TraceFn] = None):
    nz = Normalizer(rules, budget, trace)
    if isinstance(x, (Var, Coh)):
        return nz.term(x)
    if isinstance(x, (Star, Arrow)):
        return nz.type(x)
    if isinstance(x, tuple):
        return nz.sub(x)
    raise KernelError(f"not syntax: {x!r}")


def normalize_first_step(x, rules: RuleSet = SUA, budget: int = DEFAULT_BUDGET):
    """Outermost strategy: repeatedly take the first enumerated step."""
    b = _Budget(budget)
    while True:
        steps = one_step(x, rules)
        if not steps:
            return x
        b.spend()
        x = steps[0].result


def def_eq(a, b, rules: RuleSet = SUA, budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional equality: syntactic equality of normal forms."""
    return normalize(a, rules, budget) == normalize(b, rules, budget)
