"""Occurrence analysis: names under NOT and ALL, positivity (section 3.3).

The paper defines, for a DBPL expression ``f``:

* a name *appears under ALL* when it appears in the range ``exp`` of
  ``ALL r IN exp (p)``  — names appearing only in the inner predicate
  ``p`` are *not* under that ALL;
* a name *appears under NOT* when it appears inside a negated factor;
* ``f(Rel_1, ..., Rel_n)`` satisfies the **positivity constraint** when
  every occurrence of each ``Rel_i`` is under an *even* total number of
  NOTs and ALLs.

The accompanying lemma (each positive expression is monotone in all its
arguments) justifies :func:`is_positive_in` as the compiler's
monotonicity test; :mod:`repro.calculus.rewrite` provides the
transformation from the lemma's proof sketch, and the test suite checks
the two against each other.

Names here are either relation-variable names (``str`` from ``RelRef``)
or instantiated-application tokens (from ``ApplyVar``), so the same
analysis serves raw bodies and instantiated fixpoint systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast

#: A name is a relation identifier or an ApplyVar token.
Name = object


@dataclass(frozen=True)
class Occurrence:
    """One occurrence of a range name, with its negation/quantifier depth."""

    name: Name
    nots: int
    alls: int
    #: The AST node of the occurrence (span carrier for diagnostics);
    #: excluded from equality so occurrence sets still compare by content.
    node: object = field(default=None, compare=False, repr=False)

    @property
    def total(self) -> int:
        return self.nots + self.alls

    @property
    def positive(self) -> bool:
        return self.total % 2 == 0


def _range_names(rng: ast.RangeExpr) -> list[Name]:
    """Immediate name(s) denoted by a range expression head."""
    if isinstance(rng, ast.RelRef):
        return [rng.name]
    if isinstance(rng, ast.ApplyVar):
        return [rng.token]
    return []


def range_occurrences(node: ast.Node) -> list[Occurrence]:
    """All occurrences of range names in ``node`` with NOT/ALL depths.

    Counting rules (paper section 3.3):
    * ``NOT fact`` adds one NOT level to everything inside ``fact``;
    * ``ALL vs IN exp (p)`` adds one ALL level to names in ``exp`` only;
    * ``SOME`` adds nothing;
    * all other constructs are transparent.
    """
    out: list[Occurrence] = []

    def visit_range(rng: ast.RangeExpr, nots: int, alls: int) -> None:
        for name in _range_names(rng):
            out.append(Occurrence(name, nots, alls, rng))
        if isinstance(rng, (ast.Selected, ast.Constructed)):
            visit_range(rng.base, nots, alls)
            for arg in rng.args:
                if isinstance(
                    arg,
                    (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar),
                ):
                    visit_range(arg, nots, alls)
        elif isinstance(rng, ast.QueryRange):
            visit_query(rng.query, nots, alls)

    def visit_pred(pred: ast.Pred, nots: int, alls: int) -> None:
        if isinstance(pred, ast.Not):
            visit_pred(pred.pred, nots + 1, alls)
        elif isinstance(pred, (ast.And, ast.Or)):
            for part in pred.parts:
                visit_pred(part, nots, alls)
        elif isinstance(pred, ast.Some):
            visit_range(pred.range, nots, alls)
            visit_pred(pred.pred, nots, alls)
        elif isinstance(pred, ast.All):
            visit_range(pred.range, nots, alls + 1)
            visit_pred(pred.pred, nots, alls)
        elif isinstance(pred, ast.InRel):
            visit_range(pred.range, nots, alls)
        # TruePred / Cmp contain no range names.

    def visit_query(query: ast.Query, nots: int, alls: int) -> None:
        for branch in query.branches:
            for binding in branch.bindings:
                visit_range(binding.range, nots, alls)
            visit_pred(branch.pred, nots, alls)

    if isinstance(node, ast.Query):
        visit_query(node, 0, 0)
    elif isinstance(node, ast.Branch):
        visit_query(ast.Query((node,)), 0, 0)
    elif isinstance(
        node, (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar)
    ):
        visit_range(node, 0, 0)
    else:
        visit_pred(node, 0, 0)  # type: ignore[arg-type]
    return out


def occurrences_of(node: ast.Node, names: set[Name]) -> list[Occurrence]:
    return [occ for occ in range_occurrences(node) if occ.name in names]


def positivity_violations(node: ast.Node, names: set[Name]) -> list[Occurrence]:
    """Occurrences of ``names`` under an odd NOT+ALL total."""
    return [occ for occ in occurrences_of(node, names) if not occ.positive]


def is_positive_in(node: ast.Node, names: set[Name]) -> bool:
    """The paper's positivity constraint, restricted to ``names``."""
    return not positivity_violations(node, names)


def free_range_names(node: ast.Node) -> set[str]:
    """All relation-variable names referenced anywhere in ``node``."""
    return {
        occ.name for occ in range_occurrences(node) if isinstance(occ.name, str)
    }


def free_tuple_vars(node: ast.Node) -> set[str]:
    """Tuple variables referenced in ``node`` but not bound inside it."""
    free: set[str] = set()

    def visit(n: ast.Node, bound: frozenset[str]) -> None:
        if isinstance(n, ast.AttrRef):
            if n.var not in bound:
                free.add(n.var)
            return
        if isinstance(n, ast.VarRef):
            if n.var not in bound:
                free.add(n.var)
            return
        if isinstance(n, (ast.Some, ast.All)):
            visit(n.range, bound)
            visit(n.pred, bound | frozenset(n.vars))
            return
        if isinstance(n, ast.Branch):
            inner = bound | frozenset(b.var for b in n.bindings)
            for b in n.bindings:
                visit(b.range, bound)
            visit(n.pred, inner)
            if n.targets is not None:
                for t in n.targets:
                    visit(t, inner)
            return
        for child in ast.iter_children(n):
            visit(child, bound)

    visit(node, frozenset())
    return free
