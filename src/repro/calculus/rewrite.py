"""Logical rewrites: negation normal form, quantifier duality, range nesting.

Three groups of transformations from the paper:

1. **Monotonicity lemma machinery (section 3.3).**  The proof sketch
   replaces range-coupled universal quantifiers by their one-sorted
   encoding (putting the range under NOT), then pushes negations inward
   with generalized deMorgan laws.  Over finite ranges the range-coupled
   duality ``NOT SOME r IN E (p) == ALL r IN E (NOT p)`` preserves both
   semantics and the NOT/ALL parity of every range occurrence, so
   :func:`negation_normal_form` works with the coupled forms directly.

2. **Range nesting N1–N3 ([JaKo 83], section 4).**

       N1: {EACH r IN R: p1 AND p2}      <==> {EACH r IN {EACH r' IN R: p1}: p2}
       N2: SOME r IN R (p1 AND p2)       <==> SOME r IN {EACH r' IN R: p1} (p2)
       N3: ALL r IN R (NOT(p1) OR p2)    <==> ALL r IN {EACH r' IN R: p1} (p2)

   ``unnest_query`` applies the <== direction exhaustively (understanding
   a query in terms of base relations); ``nest_binding`` and
   ``nest_quantifier`` apply the ==> direction for one variable, which is
   how the optimizer pushes restrictions into ranges (Case 1 of the
   constraint-propagation analysis).

3. **Simplification** — flattening AND/OR, unit laws for TRUE — used to
   keep rewritten trees small and comparable.
"""

from __future__ import annotations

import dataclasses

from . import ast
from .analysis import free_tuple_vars
from .subst import FreshNames, bound_vars, rename_vars, transform

_NEGATED_CMP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(pred: ast.Pred) -> ast.Pred:
    """Flatten AND/OR, apply TRUE unit laws, unwrap singletons."""

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.And):
            parts: list[ast.Pred] = []
            for p in n.parts:
                if isinstance(p, ast.And):
                    parts.extend(p.parts)
                elif isinstance(p, ast.TruePred):
                    continue
                else:
                    parts.append(p)
            if not parts:
                return ast.TRUE
            if len(parts) == 1:
                return parts[0]
            return ast.And(tuple(parts))
        if isinstance(n, ast.Or):
            parts = []
            for p in n.parts:
                if isinstance(p, ast.TruePred):
                    return ast.TRUE
                if isinstance(p, ast.Or):
                    parts.extend(p.parts)
                else:
                    parts.append(p)
            if len(parts) == 1:
                return parts[0]
            return ast.Or(tuple(parts))
        if isinstance(n, ast.Not) and isinstance(n.pred, ast.Not):
            return n.pred.pred
        return None

    return transform(pred, rule)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Negation normal form and quantifier duality
# ---------------------------------------------------------------------------


def negation_normal_form(pred: ast.Pred) -> ast.Pred:
    """Push negations inward until they sit on atoms only.

    Comparisons absorb the negation by operator flipping; negated
    memberships (``NOT (x IN R)``) and ``NOT TRUE`` remain as negated
    atoms.  Quantifiers flip by range-coupled duality, preserving the
    NOT+ALL parity of every range-name occurrence (tested property).
    """

    def pos(p: ast.Pred) -> ast.Pred:
        if isinstance(p, ast.Not):
            return neg(p.pred)
        if isinstance(p, ast.And):
            return ast.And(tuple(pos(q) for q in p.parts))
        if isinstance(p, ast.Or):
            return ast.Or(tuple(pos(q) for q in p.parts))
        if isinstance(p, ast.Some):
            return dataclasses.replace(p, pred=pos(p.pred))
        if isinstance(p, ast.All):
            return dataclasses.replace(p, pred=pos(p.pred))
        return p

    def neg(p: ast.Pred) -> ast.Pred:
        if isinstance(p, ast.Not):
            return pos(p.pred)
        if isinstance(p, ast.And):
            return ast.Or(tuple(neg(q) for q in p.parts))
        if isinstance(p, ast.Or):
            return ast.And(tuple(neg(q) for q in p.parts))
        if isinstance(p, ast.Some):
            return ast.All(p.vars, p.range, neg(p.pred))
        if isinstance(p, ast.All):
            return ast.Some(p.vars, p.range, neg(p.pred))
        if isinstance(p, ast.Cmp):
            return ast.Cmp(_NEGATED_CMP[p.op], p.left, p.right)
        # TruePred, InRel: keep a single NOT on the atom.
        return ast.Not(p)

    return pos(pred)


def membership_existential(pred: ast.InRel, attrs, var: str) -> ast.Pred:
    """``t IN R`` as ``SOME var IN R (var.a1 = t1 AND ...)``, ``attrs``
    being ``R``'s attribute names — ``NOT TRUE`` when the arities differ
    (a tuple of another width is never a member)."""
    element = pred.element
    items = element.items if isinstance(element, ast.TupleCons) else (element,)
    if len(items) != len(attrs):
        return ast.Not(ast.TRUE)
    body = [ast.Cmp("=", ast.AttrRef(var, a), t) for a, t in zip(attrs, items)]
    return ast.Some((var,), pred.range, conjoin(body))


def eliminate_universals(pred: ast.Pred) -> ast.Pred:
    """Rewrite every ``ALL vs IN E (p)`` as ``NOT SOME vs IN E (NOT p)``.

    This is the range-coupled counterpart of the paper's one-sorted
    encoding: the ALL disappears and its range moves under a NOT, so
    occurrence parities are unchanged.
    """

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.All):
            return ast.Not(ast.Some(n.vars, n.range, ast.Not(n.pred)))
        return None

    return transform(pred, rule)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Conjunct utilities
# ---------------------------------------------------------------------------


def conjuncts(pred: ast.Pred) -> tuple[ast.Pred, ...]:
    """The top-level conjuncts of ``pred`` (flattening nested ANDs)."""
    if isinstance(pred, ast.TruePred):
        return ()
    if isinstance(pred, ast.And):
        out: list[ast.Pred] = []
        for part in pred.parts:
            out.extend(conjuncts(part))
        return tuple(out)
    return (pred,)


def conjoin(parts: tuple[ast.Pred, ...] | list[ast.Pred]) -> ast.Pred:
    parts = tuple(parts)
    if not parts:
        return ast.TRUE
    if len(parts) == 1:
        return parts[0]
    return ast.And(parts)


# ---------------------------------------------------------------------------
# Range nesting: the <== direction (unnesting)
# ---------------------------------------------------------------------------


def _inlinable(query: ast.Query) -> ast.Branch | None:
    """A query usable for inlining: one identity branch, one binding."""
    if len(query.branches) != 1:
        return None
    branch = query.branches[0]
    if branch.targets is not None or len(branch.bindings) != 1:
        return None
    return branch


def unnest_query(query: ast.Query) -> ast.Query:
    """Exhaustively apply N1–N3 right-to-left, flattening nested ranges."""
    fresh = FreshNames(bound_vars(query) | free_tuple_vars(query))

    def unnest_range(rng: ast.RangeExpr) -> tuple[ast.RangeExpr, object]:
        """Returns (new range, predicate-maker) where the maker builds the
        residual predicate for a variable name, or None."""
        if isinstance(rng, ast.QueryRange):
            inner = _inlinable(unnest_query(rng.query))
            if inner is not None:
                base, maker = unnest_range(inner.bindings[0].range)
                inner_var = inner.bindings[0].var
                inner_pred = inner.pred

                def make(var: str, _iv=inner_var, _ip=inner_pred, _m=maker):
                    p = _ip
                    if _iv != var:
                        if var in bound_vars(p):  # keep ``var`` from being captured
                            p = rename_vars(p, {var: fresh.fresh(var)})
                        p = rename_vars(p, {_iv: var})
                    if _m is not None:
                        p = conjoin((_m(var), p))
                    return p

                return base, make
        return rng, None

    def unnest_pred(pred: ast.Pred) -> ast.Pred:
        if isinstance(pred, ast.And):
            return ast.And(tuple(unnest_pred(p) for p in pred.parts))
        if isinstance(pred, ast.Or):
            return ast.Or(tuple(unnest_pred(p) for p in pred.parts))
        if isinstance(pred, ast.Not):
            return ast.Not(unnest_pred(pred.pred))
        if isinstance(pred, ast.Some):
            base, maker = unnest_range(pred.range)
            inner = unnest_pred(pred.pred)
            if maker is None:
                return dataclasses.replace(pred, pred=inner)
            extra = conjoin(tuple(maker(v) for v in pred.vars))
            return ast.Some(pred.vars, base, simplify(conjoin((extra, inner))))
        if isinstance(pred, ast.All):
            base, maker = unnest_range(pred.range)
            inner = unnest_pred(pred.pred)
            if maker is None:
                return dataclasses.replace(pred, pred=inner)
            # N3: ALL r IN {EACH r' IN R: p1} (p2) ==> ALL r IN R (NOT p1 OR p2)
            extra = conjoin(tuple(maker(v) for v in pred.vars))
            return ast.All(pred.vars, base, simplify(ast.Or((ast.Not(extra), inner))))
        return pred

    new_branches: list[ast.Branch] = []
    for branch in query.branches:
        bindings: list[ast.Binding] = []
        extra_preds: list[ast.Pred] = []
        for binding in branch.bindings:
            base, maker = unnest_range(binding.range)
            bindings.append(ast.Binding(binding.var, base))
            if maker is not None:
                extra_preds.append(maker(binding.var))
        pred = unnest_pred(branch.pred)
        full = simplify(conjoin((*extra_preds, pred)))
        new_branches.append(ast.Branch(tuple(bindings), full, branch.targets))
    return ast.Query(tuple(new_branches))


# ---------------------------------------------------------------------------
# Range nesting: the ==> direction (nesting restrictions into ranges)
# ---------------------------------------------------------------------------


def nest_binding(branch: ast.Branch, var: str) -> ast.Branch:
    """N1 left-to-right for one binding: move the conjuncts of the branch
    predicate that mention only ``var`` into a nested range for ``var``.

    Conjuncts mentioning no binding variable at all (pure parameter or
    constant conditions) are also movable; they restrict the range to
    empty or keep it intact uniformly, which is semantically identical.
    """
    target_binding = None
    for binding in branch.bindings:
        if binding.var == var:
            target_binding = binding
    if target_binding is None:
        raise ValueError(f"branch does not bind {var!r}")

    movable: list[ast.Pred] = []
    residual: list[ast.Pred] = []
    binding_vars = {b.var for b in branch.bindings}
    for conj in conjuncts(branch.pred):
        refs = free_tuple_vars(conj) & binding_vars
        if refs <= {var}:
            movable.append(conj)
        else:
            residual.append(conj)
    if not movable:
        return branch

    fresh = FreshNames(bound_vars(branch) | free_tuple_vars(branch))
    inner_var = fresh.fresh(var)
    inner_pred = rename_vars(conjoin(tuple(movable)), {var: inner_var})
    nested = ast.QueryRange(
        ast.Query((ast.Branch((ast.Binding(inner_var, target_binding.range),), inner_pred),))
    )
    new_bindings = tuple(
        ast.Binding(b.var, nested) if b.var == var else b for b in branch.bindings
    )
    return ast.Branch(new_bindings, simplify(conjoin(tuple(residual))), branch.targets)


def nest_quantifier(pred: ast.Some | ast.All) -> ast.Pred:
    """N2/N3 left-to-right: push restrictions into the quantifier range.

    For SOME, conjuncts of the body that mention only the quantified
    variables move into the range.  For ALL, the body must have the shape
    ``NOT(p1) OR p2`` with p1 mentioning only the quantified variables;
    p1 then becomes the range restriction.
    """
    if isinstance(pred, ast.Some):
        movable: list[ast.Pred] = []
        residual: list[ast.Pred] = []
        qvars = set(pred.vars)
        for conj in conjuncts(pred.pred):
            if free_tuple_vars(conj) <= qvars:
                movable.append(conj)
            else:
                residual.append(conj)
        if not movable or len(pred.vars) != 1:
            return pred
        var = pred.vars[0]
        fresh = FreshNames(bound_vars(pred) | free_tuple_vars(pred) | qvars)
        inner_var = fresh.fresh(var)
        inner_pred = rename_vars(conjoin(tuple(movable)), {var: inner_var})
        nested = ast.QueryRange(
            ast.Query((ast.Branch((ast.Binding(inner_var, pred.range),), inner_pred),))
        )
        return ast.Some(pred.vars, nested, simplify(conjoin(tuple(residual))))

    if isinstance(pred, ast.All):
        body = pred.pred
        if not (isinstance(body, ast.Or) and len(body.parts) == 2):
            return pred
        negated, rest = body.parts
        if not isinstance(negated, ast.Not):
            negated, rest = rest, negated
        if not isinstance(negated, ast.Not):
            return pred
        p1 = negated.pred
        if not (free_tuple_vars(p1) <= set(pred.vars)) or len(pred.vars) != 1:
            return pred
        var = pred.vars[0]
        fresh = FreshNames(bound_vars(pred) | free_tuple_vars(pred) | set(pred.vars))
        inner_var = fresh.fresh(var)
        inner_pred = rename_vars(p1, {var: inner_var})
        nested = ast.QueryRange(
            ast.Query((ast.Branch((ast.Binding(inner_var, pred.range),), inner_pred),))
        )
        return ast.All(pred.vars, nested, rest)

    raise TypeError(f"expected SOME or ALL, got {pred!r}")
