"""Substitution and renaming over calculus ASTs.

Constructor/selector application instantiates a definition body by
replacing its formal names with actual arguments (section 3.2: "taking
the function f which corresponds to the constructor ... and replacing all
formal parameters by their actual values").  Three substitutions cover
everything the paper needs:

* :func:`substitute_ranges` — formal relation names -> actual range
  expressions (also used to splice fixpoint ApplyVars in);
* :func:`substitute_params` — scalar formal parameters -> terms;
* :func:`rename_vars` — alpha-renaming of tuple variables (fresh names
  avoid capture when bodies are inlined into surrounding queries);
* :func:`substitute_free` — the free references of tuple variables ->
  terms (constructor inlining, residual lifting).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from itertools import count

from . import ast


def map_children(node: ast.Node, fn: Callable[[ast.Node], ast.Node]) -> ast.Node:
    """Rebuild ``node`` with ``fn`` applied to every direct AST child."""
    changes: dict[str, object] = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if ast.is_node(value):
            new = fn(value)
            if new is not value:
                changes[field.name] = new
        elif isinstance(value, tuple) and any(ast.is_node(i) for i in value):
            new_items = tuple(fn(i) if ast.is_node(i) else i for i in value)
            if new_items != value:
                changes[field.name] = new_items
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


def transform(node: ast.Node, fn: Callable[[ast.Node], ast.Node | None]) -> ast.Node:
    """Bottom-up rewrite: apply ``fn`` to each node after its children.

    ``fn`` returns a replacement node or None to keep the rebuilt node.
    """

    def go(n: ast.Node) -> ast.Node:
        rebuilt = map_children(n, go)
        replacement = fn(rebuilt)
        return rebuilt if replacement is None else replacement

    return go(node)


def substitute_ranges(node: ast.Node, mapping: dict[str, ast.RangeExpr]) -> ast.Node:
    """Replace every ``RelRef(name)`` with ``mapping[name]`` where defined."""
    if not mapping:
        return node

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.RelRef) and n.name in mapping:
            return mapping[n.name]
        return None

    return transform(node, rule)


def substitute_params(node: ast.Node, mapping: dict[str, ast.Term]) -> ast.Node:
    """Replace every ``ParamRef(name)`` with ``mapping[name]`` where defined."""
    if not mapping:
        return node

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.ParamRef) and n.name in mapping:
            return mapping[n.name]
        return None

    return transform(node, rule)


def rename_vars(node: ast.Node, mapping: dict[str, str]) -> ast.Node:
    """Rename tuple variables (bindings, quantifiers, references)."""
    if not mapping:
        return node

    def rule(n: ast.Node) -> ast.Node | None:
        if isinstance(n, ast.AttrRef) and n.var in mapping:
            return ast.AttrRef(mapping[n.var], n.attr)
        if isinstance(n, ast.VarRef) and n.var in mapping:
            return ast.VarRef(mapping[n.var])
        if isinstance(n, ast.Binding) and n.var in mapping:
            return dataclasses.replace(n, var=mapping[n.var])
        if isinstance(n, (ast.Some, ast.All)) and any(v in mapping for v in n.vars):
            return dataclasses.replace(
                n, vars=tuple(mapping.get(v, v) for v in n.vars)
            )
        return None

    return transform(node, rule)


def substitute_free(node: ast.Node, replace: Callable[[ast.Node], ast.Node | None]) -> ast.Node:
    """Replace the *free* tuple-variable references of ``node``.

    ``replace(ref)`` receives every ``AttrRef``/``VarRef`` whose variable
    no quantifier or binding inside ``node`` rebinds, and returns its
    replacement term or None to keep it.
    """

    def go(n: ast.Node, bound: frozenset) -> ast.Node:
        cls = n.__class__
        if cls is ast.AttrRef or cls is ast.VarRef:
            new = None if n.var in bound else replace(n)
            return n if new is None else new
        if cls is ast.Some or cls is ast.All:
            return cls(n.vars, go(n.range, bound), go(n.pred, bound | set(n.vars)))
        if cls is ast.Branch:
            inner = bound | {b.var for b in n.bindings}
            return ast.Branch(
                tuple(ast.Binding(b.var, go(b.range, bound)) for b in n.bindings),
                go(n.pred, inner),
                None if n.targets is None else tuple(go(t, inner) for t in n.targets),
            )
        return map_children(n, lambda child: go(child, bound))

    return go(node, frozenset())


def bound_vars(node: ast.Node) -> set[str]:
    """All tuple-variable names bound anywhere inside ``node``."""
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Binding):
            names.add(n.var)
        elif isinstance(n, (ast.Some, ast.All)):
            names.update(n.vars)
    return names


class FreshNames:
    """A generator of variable names guaranteed fresh w.r.t. a seed set."""

    def __init__(self, taken: set[str] | None = None, prefix: str = "v") -> None:
        self._taken = set(taken or ())
        self._prefix = prefix
        self._counter = count(1)

    def fresh(self, hint: str | None = None) -> str:
        base = hint or self._prefix
        if base not in self._taken:
            self._taken.add(base)
            return base
        while True:
            candidate = f"{base}_{next(self._counter)}"
            if candidate not in self._taken:
                self._taken.add(candidate)
                return candidate

    def freshen_all(self, node: ast.Node) -> ast.Node:
        """Rename every bound variable of ``node`` to a fresh name."""
        mapping = {v: self.fresh(v) for v in sorted(bound_vars(node))}
        return rename_vars(node, mapping)
