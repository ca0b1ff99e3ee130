"""Tuple relational calculus: AST, DSL, evaluation, analysis, rewrites."""

from . import ast, dsl
from .analysis import (
    Occurrence,
    free_range_names,
    free_tuple_vars,
    is_positive_in,
    occurrences_of,
    positivity_violations,
    range_occurrences,
)
from .evaluator import EvalStats, Evaluator, RangeValue, evaluate
from .pretty import render, render_pred, render_query, render_range, render_term
from .rewrite import (
    conjoin,
    conjuncts,
    eliminate_universals,
    negation_normal_form,
    nest_binding,
    nest_quantifier,
    simplify,
    unnest_query,
)
from .subst import (
    FreshNames,
    bound_vars,
    rename_vars,
    substitute_params,
    substitute_ranges,
    transform,
)

__all__ = [
    "EvalStats",
    "Evaluator",
    "FreshNames",
    "Occurrence",
    "RangeValue",
    "ast",
    "bound_vars",
    "conjoin",
    "conjuncts",
    "dsl",
    "eliminate_universals",
    "evaluate",
    "free_range_names",
    "free_tuple_vars",
    "is_positive_in",
    "negation_normal_form",
    "nest_binding",
    "nest_quantifier",
    "occurrences_of",
    "positivity_violations",
    "range_occurrences",
    "rename_vars",
    "render",
    "render_pred",
    "render_query",
    "render_range",
    "render_term",
    "simplify",
    "substitute_params",
    "substitute_ranges",
    "transform",
    "unnest_query",
]
