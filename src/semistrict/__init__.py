"""Checker and normalizer for semistrict higher-categorical terms.

Definitional equality is decided by reduction to unique normal forms
under three rewrite rules: disc removal, endo-coherence removal, and
insertion.  See the README for the surface language and CLI.
"""

from .syntax import (
    Arrow, Coh, Context, KernelError, STAR, Star, Sub, Term, Tree, Type, Var,
    alpha_eq, apply_sub_term, apply_sub_type, compose, dim_ctx, dim_term,
    dim_type, free_vars, id_sub, support,
)
from .trees import (
    NotPastingError, bracket, ctx_to_tree, disc, is_linear, parse_bracket,
    suspend_ctx, suspend_sub, suspend_term, suspend_tree, suspend_type,
    tree_bd, tree_dim, tree_inc, tree_to_ctx, trunk_height,
)
from .unbiased import (
    disc_sub, identity_term, is_identity, is_unbiased_coh,
    is_unbiased_composite, match_disc_sub, unbiased_coh, unbiased_term,
    unbiased_type,
)
from .insertion import (
    HeightMismatch, InsertionPoint, InsertionRedex, NotRedex, exterior_sub,
    find_redexes, inserted_sub, inserted_tree, interior_sub,
)
from .rewriting import (
    OrdinalPoly, ReductionStep, StepBudgetExceeded, def_eq,
    natural_sum, normalize, omega_pow, one_step, ord_lt, sc,
    syntactic_complexity,
)
from .check import TypingError, check_ctx, check_type, decide_eq, infer_term

__version__ = "0.1.0"
