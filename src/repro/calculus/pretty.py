"""Rendering calculus ASTs in the paper's concrete syntax.

``render(node)`` produces text such as

    {EACH r IN Infront: TRUE,
     <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front}

which is also (modulo whitespace) the syntax the DBPL surface parser
accepts, enabling render/parse round-trip tests.
"""

from __future__ import annotations

from . import ast


def render_term(term: ast.Term) -> str:
    if isinstance(term, ast.Const):
        value = term.value
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            return f'"{value}"'
        return repr(value)
    if isinstance(term, ast.AttrRef):
        return f"{term.var}.{term.attr}"
    if isinstance(term, ast.VarRef):
        return term.var
    if isinstance(term, ast.ParamRef):
        return term.name
    if isinstance(term, ast.Arith):
        op = term.op if term.op in ("+", "-", "*") else f" {term.op} "
        return f"({render_term(term.left)}{op}{render_term(term.right)})"
    if isinstance(term, ast.TupleCons):
        return "<" + ", ".join(render_term(i) for i in term.items) + ">"
    raise TypeError(f"not a term: {term!r}")


def render_range(rng: ast.RangeExpr) -> str:
    if isinstance(rng, ast.RelRef):
        return rng.name
    if isinstance(rng, ast.Selected):
        args = _render_args(rng.args)
        return f"{render_range(rng.base)}[{rng.selector}{args}]"
    if isinstance(rng, ast.Constructed):
        args = _render_args(rng.args)
        return f"{render_range(rng.base)}{{{rng.constructor}{args}}}"
    if isinstance(rng, ast.QueryRange):
        return render_query(rng.query)
    if isinstance(rng, ast.ApplyVar):
        # An instantiated application's key (duck-typed: layering) reads
        # as its constructor; a semi-naive variant token
        # ("__seminaive__", kind, key) as its state too: @Δtc, @new:tc.
        token, prefix = rng.token, ""
        if isinstance(token, tuple) and len(token) == 3 and token[0] == "__seminaive__":
            prefix = {"delta": "Δ", "new": "new:", "old": "old:"}.get(token[1], "")
            token = token[2]
        return f"@{prefix}{getattr(token, 'constructor', token)}"
    raise TypeError(f"not a range: {rng!r}")


def _render_args(args: tuple[ast.Argument, ...]) -> str:
    if not args:
        return ""
    rendered = []
    for arg in args:
        if isinstance(arg, (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar)):
            rendered.append(render_range(arg))
        else:
            rendered.append(render_term(arg))
    return "(" + ", ".join(rendered) + ")"


def render_pred(pred: ast.Pred, parenthesize: bool = False) -> str:
    text = _render_pred(pred)
    return f"({text})" if parenthesize else text


def _render_pred(pred: ast.Pred) -> str:
    if isinstance(pred, ast.TruePred):
        return "TRUE"
    if isinstance(pred, ast.Cmp):
        return f"{render_term(pred.left)} {pred.op} {render_term(pred.right)}"
    if isinstance(pred, ast.Not):
        return f"NOT ({_render_pred(pred.pred)})"
    if isinstance(pred, ast.And):
        return " AND ".join(_maybe_paren(p, (ast.Or,)) for p in pred.parts)
    if isinstance(pred, ast.Or):
        return " OR ".join(_maybe_paren(p, ()) for p in pred.parts)
    if isinstance(pred, ast.Some):
        names = ", ".join(pred.vars)
        return f"SOME {names} IN {render_range(pred.range)} ({_render_pred(pred.pred)})"
    if isinstance(pred, ast.All):
        names = ", ".join(pred.vars)
        return f"ALL {names} IN {render_range(pred.range)} ({_render_pred(pred.pred)})"
    if isinstance(pred, ast.InRel):
        return f"{render_term(pred.element)} IN {render_range(pred.range)}"
    raise TypeError(f"not a predicate: {pred!r}")


def _maybe_paren(pred: ast.Pred, wrap_types: tuple) -> str:
    text = _render_pred(pred)
    if isinstance(pred, wrap_types):
        return f"({text})"
    return text


def render_branch(branch: ast.Branch) -> str:
    bindings = ", ".join(f"EACH {b.var} IN {render_range(b.range)}" for b in branch.bindings)
    head = ""
    if branch.targets is not None:
        head = "<" + ", ".join(render_term(t) for t in branch.targets) + "> OF "
    return f"{head}{bindings}: {_render_pred(branch.pred)}"


def render_query(query: ast.Query) -> str:
    return "{" + ",\n ".join(render_branch(b) for b in query.branches) + "}"


def render(node: object) -> str:
    """Render any calculus AST node."""
    if isinstance(node, ast.Query):
        return render_query(node)
    if isinstance(node, ast.Branch):
        return render_branch(node)
    if isinstance(node, (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange, ast.ApplyVar)):
        return render_range(node)
    if isinstance(
        node, (ast.TruePred, ast.Cmp, ast.Not, ast.And, ast.Or, ast.Some, ast.All, ast.InRel)
    ):
        return render_pred(node)
    if isinstance(node, ast.Binding):
        return f"EACH {node.var} IN {render_range(node.range)}"
    return render_term(node)  # type: ignore[arg-type]
