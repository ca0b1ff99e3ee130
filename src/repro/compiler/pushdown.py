"""Constraint propagation into constructor definitions (section 4, Cases 1-3).

"Propagating the constraints given by pred(r) into the constructor
definition may considerably reduce query evaluation costs."  For
applications of **non-recursive** constructors this module performs the
paper's case analysis at the AST level:

* **Case 1 (Selector)** — a single relational expression with a single
  free variable: rules N1-N3 apply directly (with a projection on the
  target attributes); the application inlines to a restricted range.
* **Case 2 (Join)** — a single expression, several variables: occurrences
  of ``r.f`` in the query predicate are substituted by the target term in
  position ``f`` of the constructor's target list.
* **Case 3 (Union)** — the definition is a union: each branch is treated
  separately and the result is the union of the branch values, valid
  because the restriction predicate is conjoined per branch (positivity
  of the outer predicate in the constructed range is required; the
  caller's predicate applies to the emitted tuple either way since we
  substitute into every branch).

Recursive applications are left in place — they are the business of the
fixpoint generators and of :mod:`repro.compiler.specialize`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calculus import ast
from ..calculus.rewrite import conjoin, simplify
from ..calculus.subst import (
    FreshNames,
    bound_vars,
    substitute_free,
    substitute_params,
    substitute_ranges,
)
from ..errors import EvaluationError
from ..relational import Database


def _resolve_constructor_body(db: Database, node: ast.Constructed) -> ast.Query | None:
    """The constructor's body with formals substituted, or None when the
    constructor is recursive (contains any application)."""
    constructor = db.constructor(node.constructor)
    if constructor.is_recursive():
        return None
    range_map: dict[str, ast.RangeExpr] = {constructor.formal_rel: node.base}
    scalar_map: dict[str, ast.Term] = {}
    for formal, actual in zip(constructor.params, node.args):
        if formal.is_relation:
            range_map[formal.name] = actual  # type: ignore[assignment]
        else:
            scalar_map[formal.name] = actual  # type: ignore[assignment]
    body = substitute_ranges(constructor.body, range_map)
    body = substitute_params(body, scalar_map)
    return body  # type: ignore[return-value]


def _attr_substitution(
    db: Database,
    node: ast.Constructed,
    body_branch: ast.Branch,
    var: str,
) -> dict[tuple[str, str], ast.Term]:
    """Map (var, result-attribute) -> replacement term for one body branch.

    This is the paper's Case 2 substitution: ``r.f`` is replaced by the
    term in position ``f`` of the constructor's target list.
    """
    constructor = db.constructor(node.constructor)
    result_attrs = constructor.result_type.element.attribute_names
    mapping: dict[tuple[str, str], ast.Term] = {}
    if body_branch.targets is None:
        inner_var = body_branch.bindings[0].var
        from ..calculus.evaluator import Evaluator

        schema = Evaluator(db).infer_schema(body_branch.bindings[0].range, {})
        for attr, inner_attr in zip(result_attrs, schema.attribute_names):
            mapping[(var, attr)] = ast.AttrRef(inner_var, inner_attr)
    else:
        for attr, target in zip(result_attrs, body_branch.targets):
            mapping[(var, attr)] = target
    return mapping


def inline_branch(
    db: Database, branch: ast.Branch, binding_index: int
) -> list[ast.Branch] | None:
    """Inline one non-recursive constructed binding of ``branch``.

    Returns the replacement branches (one per constructor-body branch —
    Case 3), or None when the binding is not an inlinable application.
    """
    binding = branch.bindings[binding_index]
    if not isinstance(binding.range, ast.Constructed):
        return None
    body = _resolve_constructor_body(db, binding.range)
    if body is None:
        return None

    out: list[ast.Branch] = []
    fresh = FreshNames(bound_vars(branch) | bound_vars(body))
    for body_branch in body.branches:
        # Standardize the body branch apart from the outer branch.
        renamed = fresh.freshen_all(body_branch)
        mapping = _attr_substitution(db, binding.range, renamed, binding.var)

        def swap(ref, mapping=mapping):
            return mapping.get((ref.var, getattr(ref, "attr", None)))

        new_pred = substitute_free(branch.pred, swap)
        new_targets = None
        if branch.targets is not None:
            new_targets = tuple(substitute_free(t, swap) for t in branch.targets)
        new_bindings = (
            branch.bindings[:binding_index]
            + renamed.bindings
            + branch.bindings[binding_index + 1 :]
        )
        combined = simplify(conjoin((renamed.pred, new_pred)))
        if branch.targets is None:
            # Identity over the application: the output tuple is whatever
            # the body branch emits (its own identity or target list).
            out.append(ast.Branch(new_bindings, combined, renamed.targets))
        else:
            out.append(ast.Branch(new_bindings, combined, new_targets))
    return out


@dataclass
class PushdownDecision:
    """One cost-gated inlining decision, kept for explain()."""

    application: str
    est_inline_cost: float
    est_materialize_cost: float
    inlined: bool

    def describe(self) -> str:
        verdict = "inline" if self.inlined else "materialize"
        return (
            f"{self.application}: {verdict} "
            f"(inline~{self.est_inline_cost:.1f} vs "
            f"materialize~{self.est_materialize_cost:.1f})"
        )


#: Inlining is accepted up to this cost ratio over materialization; the
#: slack stops estimate noise from blocking the (usually better) rewrite.
INLINE_MARGIN = 1.1


def cost_gated_inline(
    db: Database,
    query: ast.Query,
    cost_model=None,
    always_inline: bool = False,
    params: dict | None = None,
) -> tuple[ast.Query, list[PushdownDecision]]:
    """Inline non-recursive applications when the cost model approves.

    For every candidate application the estimated cost of the inlined
    (constraint-propagated) branches is compared against materializing
    the constructor's full value and filtering afterwards; the cheaper
    side wins.  Returns the rewritten query plus the decision log.
    With ``always_inline=True`` the gate is bypassed (and no estimation
    is performed): every inlinable application is inlined.

    Estimates flow through the shared :class:`~.plans.CostModel`, so a
    pushed-down *range* restriction is priced from the base column's
    equi-depth histogram exactly as it would be in the final plan — a
    selective range pushdown now wins the gate on its measured
    selectivity rather than on a blind constant.  ``params`` are the
    query's parameter bindings (a prepared shape's constant slots), so a
    parameterized restriction is priced like the literal it replaced.
    """
    from .plans import CostModel, estimate_branch, estimate_query

    if cost_model is None and not always_inline:
        cost_model = CostModel(db)
    decisions: list[PushdownDecision] = []
    rejected: set[ast.Constructed] = set()
    # The constructor-body estimate only depends on the application node,
    # not the referencing branch: memoize it across branches and passes.
    body_costs: dict[ast.Constructed, float] = {}

    changed = True
    branches = list(query.branches)
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 100:
            raise EvaluationError("constructor inlining did not terminate")
        next_branches: list[ast.Branch] = []
        for branch in branches:
            replaced = None
            for i, binding in enumerate(branch.bindings):
                if (
                    not isinstance(binding.range, ast.Constructed)
                    or binding.range in rejected
                ):
                    continue
                candidate = inline_branch(db, branch, i)
                if candidate is None:
                    continue
                if always_inline:
                    replaced = candidate
                    break
                if binding.range not in body_costs:
                    body = _resolve_constructor_body(db, binding.range)
                    body_costs[binding.range] = estimate_query(
                        db, body, cost_model=cost_model
                    )[0]
                materialize_cost = (
                    body_costs[binding.range]
                    + estimate_branch(db, branch, params, cost_model)[0]
                )
                inline_cost = sum(
                    estimate_branch(db, b, params, cost_model)[0]
                    for b in candidate
                )
                from ..calculus.pretty import render_range

                decision = PushdownDecision(
                    application=render_range(binding.range),
                    est_inline_cost=inline_cost,
                    est_materialize_cost=materialize_cost,
                    inlined=inline_cost <= materialize_cost * INLINE_MARGIN,
                )
                decisions.append(decision)
                if decision.inlined:
                    replaced = candidate
                    break
                rejected.add(binding.range)
            if replaced is None:
                next_branches.append(branch)
            else:
                next_branches.extend(replaced)
                changed = True
        branches = next_branches
    return ast.Query(tuple(branches)), decisions


def inline_nonrecursive(db: Database, query: ast.Query) -> ast.Query:
    """Exhaustively inline non-recursive constructor applications.

    The resulting query ranges only over base relations, selected
    relations, and *recursive* applications — exactly the normal form the
    paper's query compilation level hands to plan generation.  This
    entry point is unconditional; the cost-gated variant used by
    :func:`~repro.compiler.levels.compile_statement` is
    :func:`cost_gated_inline`.
    """
    rewritten, _decisions = cost_gated_inline(db, query, always_inline=True)
    return rewritten
