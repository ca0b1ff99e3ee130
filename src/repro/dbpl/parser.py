"""Recursive-descent parser for the DBPL surface syntax.

The concrete syntax follows the paper's examples:

    TYPE parttype = STRING;
         infrontrel = RELATION ... OF RECORD front, back: parttype END;
    VAR Infront: infrontrel;

    SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
    BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

    CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
    BEGIN EACH r IN Rel: TRUE,
          <r.front, ah.tail> OF EACH r IN Rel,
               EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head
    END ahead;

Expressions parse directly into :mod:`repro.calculus.ast`.  The parser
tracks bound tuple variables, so a bare identifier becomes a
:class:`~repro.calculus.ast.VarRef` when bound and a
:class:`~repro.calculus.ast.ParamRef` otherwise; bare identifiers in
*argument* position parse as :class:`~repro.calculus.ast.RelRef` and the
binder rewrites those naming scalar formals into ParamRefs.
"""

from __future__ import annotations

from ..analysis.diagnostics import Span, set_span
from ..calculus import ast
from ..errors import DBPLSyntaxError
from .astnodes import (
    ConstructorDecl,
    EnumTypeExpr,
    FieldGroup,
    Module,
    ParamDecl,
    RangeTypeExpr,
    RecordTypeExpr,
    RelationTypeExpr,
    SelectorDecl,
    TypeDecl,
    TypeName,
    VarDecl,
)
from .lexer import Token, tokenize


class Parser:
    def __init__(self, source: str, tokens: list[Token] | None = None) -> None:
        """``tokens``, when given, is ``tokenize(source)`` already done."""
        self.tokens = tokenize(source) if tokens is None else tokens
        self.index = 0
        self.bound: list[set[str]] = [set()]

    # -- token plumbing --------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # ``next`` never moves past the closing eof token, so only a
        # lookahead can run off the end.
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def at(self, kind: str) -> bool:
        return self.tokens[self.index].kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise DBPLSyntaxError(
                f"expected {kind!r}, got {token.text!r}", token.line, token.column
            )
        return self.next()

    def error(self, message: str) -> DBPLSyntaxError:
        token = self.peek()
        return DBPLSyntaxError(message + f" (at {token.text!r})", token.line, token.column)

    def _mark(self, start: Token, node):
        """Attach the source span ``start`` .. last-consumed-token to ``node``.

        ``ast.TRUE`` is a shared singleton and must never carry a span.
        """
        if node is ast.TRUE:
            return node
        end = self.tokens[self.index - 1] if self.index else start
        set_span(
            node,
            Span(
                start.line,
                start.column,
                end.end_line or end.line,
                end.end_column or end.column,
            ),
        )
        return node

    # -- variable scopes ----------------------------------------------------------

    def _push_scope(self, names: set[str]) -> None:
        self.bound.append(self.bound[-1] | names)

    def _pop_scope(self) -> None:
        self.bound.pop()

    def _is_bound(self, name: str) -> bool:
        return name in self.bound[-1]

    # ======================================================================
    # Declarations
    # ======================================================================

    def parse_module(self) -> Module:
        if self.accept("MODULE"):
            name = self.expect("ident").text
            self.expect(";")
            decls = self.parse_declarations(until={"END"})
            self.expect("END")
            self.expect("ident")
            self.expect(".")
            return Module(name, tuple(decls))
        decls = self.parse_declarations(until={"eof"})
        return Module("anonymous", tuple(decls))

    def parse_declarations(self, until: set[str]) -> list[object]:
        decls: list[object] = []
        while self.peek().kind not in until:
            if self.accept("TYPE"):
                while self.at("ident") and self.peek(1).kind in ("=", "IS"):
                    decls.append(self.parse_type_decl())
            elif self.accept("VAR"):
                while self.at("ident") and self.peek(1).kind in (",", ":"):
                    decls.append(self.parse_var_decl())
            elif self.at("SELECTOR"):
                decls.append(self.parse_selector_decl())
            elif self.at("CONSTRUCTOR"):
                decls.append(self.parse_constructor_decl())
            else:
                raise self.error("expected a declaration")
        return decls

    def parse_type_decl(self) -> TypeDecl:
        start = self.peek()
        name = self.expect("ident").text
        if not (self.accept("=") or self.accept("IS")):
            raise self.error("expected '=' in type declaration")
        texpr = self.parse_type_expr()
        self.expect(";")
        return self._mark(start, TypeDecl(name, texpr))

    def parse_type_expr(self):
        start = self.peek()
        if self.accept("RANGE"):
            lo = int(self.expect("int").text)
            self.expect("..")
            hi = int(self.expect("int").text)
            return self._mark(start, RangeTypeExpr(lo, hi))
        if self.accept("("):
            labels = [self.expect("ident").text]
            while self.accept(","):
                labels.append(self.expect("ident").text)
            self.expect(")")
            return self._mark(start, EnumTypeExpr(tuple(labels)))
        if self.accept("RECORD"):
            groups = [self.parse_field_group()]
            while self.accept(";"):
                if self.at("END"):
                    break
                groups.append(self.parse_field_group())
            self.expect("END")
            return self._mark(start, RecordTypeExpr(tuple(groups)))
        if self.accept("RELATION"):
            key: list[str] = []
            if self.accept(".."):
                # "RELATION ... OF" — the lexer yields '..' '.' for "..."
                self.accept(".")
            else:
                key.append(self.expect("ident").text)
                while self.accept(","):
                    key.append(self.expect("ident").text)
            self.expect("OF")
            element = self.parse_type_expr()
            return self._mark(start, RelationTypeExpr(tuple(key), element))
        name = self.expect("ident").text
        return self._mark(start, TypeName(name))

    def parse_field_group(self) -> FieldGroup:
        start = self.peek()
        names = [self.expect("ident").text]
        while self.accept(","):
            names.append(self.expect("ident").text)
        self.expect(":")
        return self._mark(start, FieldGroup(tuple(names), self.parse_type_expr()))

    def parse_var_decl(self) -> VarDecl:
        start = self.peek()
        names = [self.expect("ident").text]
        while self.accept(","):
            names.append(self.expect("ident").text)
        self.expect(":")
        tstart = self.peek()
        tname = self.expect("ident").text
        type_name = self._mark(tstart, TypeName(tname))
        self.expect(";")
        return self._mark(start, VarDecl(tuple(names), type_name))

    def parse_params(self) -> tuple[ParamDecl, ...]:
        params: list[ParamDecl] = []
        if self.accept("("):
            while not self.accept(")"):
                pstart = self.peek()
                name = self.expect("ident").text
                self.expect(":")
                tstart = self.peek()
                tname = self.expect("ident").text
                type_name = self._mark(tstart, TypeName(tname))
                params.append(self._mark(pstart, ParamDecl(name, type_name)))
                if not self.at(")"):
                    if not (self.accept(";") or self.accept(",")):
                        raise self.error("expected ';' or ',' between parameters")
        return tuple(params)

    def parse_selector_decl(self) -> SelectorDecl:
        start = self.peek()
        self.expect("SELECTOR")
        name = self.expect("ident").text
        params = self.parse_params()
        self.expect("FOR")
        formal = self.expect("ident").text
        self.expect(":")
        rel_type = self.expect("ident").text
        if not params:
            params = self.parse_params()  # the trailing "()" variant
        self.expect(";")
        self.expect("BEGIN")
        self.expect("EACH")
        var = self.expect("ident").text
        self.expect("IN")
        range_name = self.expect("ident").text
        if range_name != formal:
            raise self.error(
                f"selector body must range over the formal relation {formal!r}"
            )
        self.expect(":")
        self._push_scope({var})
        pred = self.parse_pred()
        self._pop_scope()
        self.expect("END")
        end_name = self.expect("ident").text
        if end_name != name:
            raise self.error(f"END {end_name} does not match SELECTOR {name}")
        self.expect(";")
        return self._mark(
            start, SelectorDecl(name, params, formal, TypeName(rel_type), var, pred)
        )

    def parse_constructor_decl(self) -> ConstructorDecl:
        start = self.peek()
        self.expect("CONSTRUCTOR")
        name = self.expect("ident").text
        self.expect("FOR")
        formal = self.expect("ident").text
        self.expect(":")
        rel_type = self.expect("ident").text
        params = self.parse_params()
        self.expect(":")
        result_type = self.expect("ident").text
        self.expect(";")
        self.expect("BEGIN")
        branches = [self.parse_branch()]
        while self.accept(","):
            branches.append(self.parse_branch())
        self.expect("END")
        end_name = self.expect("ident").text
        if end_name != name:
            raise self.error(f"END {end_name} does not match CONSTRUCTOR {name}")
        self.expect(";")
        return self._mark(
            start,
            ConstructorDecl(
                name, formal, TypeName(rel_type), params, TypeName(result_type),
                ast.Query(tuple(branches)),
            ),
        )

    # ======================================================================
    # Queries, branches, ranges
    # ======================================================================

    def parse_branch(self) -> ast.Branch:
        start = self.peek()
        targets: list[ast.Term] | None = None
        target_tokens: int | None = None
        if self.accept("<"):
            target_start = self.index
            raw_targets: list = []
            # Targets may reference the branch's variables, which are not
            # bound yet; parse terms afterwards by re-visiting.  We first
            # skip to the closing '>' to find OF, collecting token span.
            depth = 0
            while not (self.at(">") and depth == 0):
                if self.at("(") or self.at("["):
                    depth += 1
                elif self.at(")") or self.at("]"):
                    depth -= 1
                if self.at("eof"):
                    raise self.error("unterminated target list")
                self.next()
            self.expect(">")
            target_tokens = (target_start, self.index - 1)
            self.expect("OF")

        bindings = [*self.parse_each_group()]
        while self.at(",") and self.peek(1).kind == "EACH":
            self.next()
            bindings.extend(self.parse_each_group())
        self.expect(":")
        names = {b.var for b in bindings}
        self._push_scope(names)
        if target_tokens is not None:
            saved = self.index
            self.index = target_tokens[0]
            targets = [self.parse_add_expr()]
            while self.accept(","):
                targets.append(self.parse_add_expr())
            self.index = saved
        pred = self.parse_pred()
        self._pop_scope()
        return self._mark(
            start, ast.Branch(tuple(bindings), pred, tuple(targets) if targets else None)
        )

    def parse_each_group(self) -> list[ast.Binding]:
        starts = [self.expect("EACH")]
        names = [self.expect("ident").text]
        while self.at(",") and self.peek(1).kind == "ident" and self.peek(2).kind in (",", "IN"):
            self.next()
            starts.append(self.peek())
            names.append(self.expect("ident").text)
        self.expect("IN")
        rng = self.parse_range()
        # The first binding's span opens at EACH; extra names at themselves.
        return [
            self._mark(starts[i], ast.Binding(n, rng)) for i, n in enumerate(names)
        ]

    def parse_range(self) -> ast.RangeExpr:
        start = self.peek()
        if self.at("{"):
            # inline set expression
            self.expect("{")
            branches = [self.parse_branch()]
            while self.accept(","):
                branches.append(self.parse_branch())
            self.expect("}")
            rng: ast.RangeExpr = self._mark(
                start, ast.QueryRange(self._mark(start, ast.Query(tuple(branches))))
            )
        else:
            name = self.expect("ident").text
            rng = self._mark(start, ast.RelRef(name))
        while self.at("[") or self.at("{"):
            if self.accept("["):
                sel = self.expect("ident").text
                args = self.parse_application_args()
                self.expect("]")
                rng = self._mark(start, ast.Selected(rng, sel, args))
            else:
                self.expect("{")
                con = self.expect("ident").text
                args = self.parse_application_args()
                self.expect("}")
                rng = self._mark(start, ast.Constructed(rng, con, args))
        return rng

    def parse_application_args(self) -> tuple[ast.Argument, ...]:
        args: list[ast.Argument] = []
        if self.accept("("):
            while not self.accept(")"):
                args.append(self.parse_argument())
                if not self.at(")"):
                    self.expect(",")
        return tuple(args)

    def parse_argument(self) -> ast.Argument:
        token = self.peek()
        if token.kind == "ident":
            if self.peek(1).kind in ("[", "{"):
                return self.parse_range()
            if self.peek(1).kind == ".":
                return self.parse_add_expr()  # correlated attribute argument
            name = self.next().text
            if self._is_bound(name):
                return self._mark(token, ast.VarRef(name))
            # Bare name: relation or scalar formal; the binder decides.
            return self._mark(token, ast.RelRef(name))
        return self.parse_add_expr()

    # ======================================================================
    # Predicates
    # ======================================================================

    def parse_pred(self) -> ast.Pred:
        start = self.peek()
        parts = [self.parse_conjunction()]
        while self.accept("OR"):
            parts.append(self.parse_conjunction())
        if len(parts) == 1:
            return parts[0]
        return self._mark(start, ast.Or(tuple(parts)))

    def parse_conjunction(self) -> ast.Pred:
        start = self.peek()
        parts = [self.parse_factor()]
        while self.accept("AND"):
            parts.append(self.parse_factor())
        if len(parts) == 1:
            return parts[0]
        return self._mark(start, ast.And(tuple(parts)))

    def parse_factor(self) -> ast.Pred:
        start = self.peek()
        if self.accept("NOT"):
            return self._mark(start, ast.Not(self.parse_factor()))
        if self.accept("TRUE"):
            return ast.TRUE
        if self.accept("FALSE"):
            return self._mark(start, ast.Not(ast.TRUE))
        if self.at("SOME") or self.at("ALL"):
            existential = self.next().kind == "SOME"
            names = [self.expect("ident").text]
            while self.accept(","):
                names.append(self.expect("ident").text)
            self.expect("IN")
            rng = self.parse_range()
            self.expect("(")
            self._push_scope(set(names))
            inner = self.parse_pred()
            self._pop_scope()
            self.expect(")")
            node = ast.Some if existential else ast.All
            return self._mark(start, node(tuple(names), rng, inner))
        if self.at("("):
            # Could be a parenthesized predicate or a parenthesized term;
            # try the predicate reading first and backtrack on failure.
            saved = self.index
            try:
                self.expect("(")
                pred = self.parse_pred()
                self.expect(")")
                return pred
            except DBPLSyntaxError:
                self.index = saved
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Pred:
        start = self.peek()
        left = self.parse_add_expr()
        if self.accept("IN"):
            rng = self.parse_range()
            return self._mark(start, ast.InRel(left, rng))
        token = self.peek()
        if token.kind in ("=", "<>", "<", "<=", ">", ">="):
            op = self.next().kind
            right = self.parse_add_expr()
            return self._mark(start, ast.Cmp(op, left, right))
        raise self.error("expected a comparison operator or IN")

    # ======================================================================
    # Scalar terms
    # ======================================================================

    def parse_add_expr(self) -> ast.Term:
        start = self.peek()
        left = self.parse_mul_expr()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            right = self.parse_mul_expr()
            left = self._mark(start, ast.Arith(op, left, right))
        return left

    def parse_mul_expr(self) -> ast.Term:
        start = self.peek()
        left = self.parse_unary()
        while self.at("*") or self.at("DIV") or self.at("MOD"):
            op = self.next().kind
            right = self.parse_unary()
            left = self._mark(start, ast.Arith(op, left, right))
        return left

    def parse_unary(self) -> ast.Term:
        token = self.peek()
        if token.kind == "int":
            self.next()
            return self._mark(token, ast.Const(int(token.text)))
        if token.kind == "string":
            self.next()
            return self._mark(token, ast.Const(token.text))
        if token.kind == "TRUE":
            self.next()
            return self._mark(token, ast.Const(True))
        if token.kind == "FALSE":
            self.next()
            return self._mark(token, ast.Const(False))
        if token.kind == "-":
            self.next()
            inner = self.parse_unary()
            return self._mark(token, ast.Arith("-", ast.Const(0), inner))
        if token.kind == "(":
            self.next()
            inner = self.parse_add_expr()
            self.expect(")")
            return inner
        if token.kind == "<":
            self.next()
            items = [self.parse_add_expr()]
            while self.accept(","):
                items.append(self.parse_add_expr())
            self.expect(">")
            return self._mark(token, ast.TupleCons(tuple(items)))
        if token.kind == "ident":
            name = self.next().text
            if self.accept("."):
                attr = self.expect("ident").text
                return self._mark(token, ast.AttrRef(name, attr))
            if self._is_bound(name):
                return self._mark(token, ast.VarRef(name))
            return self._mark(token, ast.ParamRef(name))
        raise self.error("expected a term")

    # ======================================================================
    # Top-level expression entry points
    # ======================================================================

    def parse_expression(self):
        """A query expression: set former, or a (suffixed) range."""
        start = self.peek()
        if self.at("{"):
            self.expect("{")
            branches = [self.parse_branch()]
            while self.accept(","):
                branches.append(self.parse_branch())
            self.expect("}")
            node: object = self._mark(start, ast.Query(tuple(branches)))
            # allow suffixes after a set former, e.g. {...}{ahead}
            if self.at("[") or self.at("{"):
                rng: ast.RangeExpr = self._mark(start, ast.QueryRange(node))  # type: ignore[arg-type]
                while self.at("[") or self.at("{"):
                    if self.accept("["):
                        sel = self.expect("ident").text
                        args = self.parse_application_args()
                        self.expect("]")
                        rng = self._mark(start, ast.Selected(rng, sel, args))
                    else:
                        self.expect("{")
                        con = self.expect("ident").text
                        args = self.parse_application_args()
                        self.expect("}")
                        rng = self._mark(start, ast.Constructed(rng, con, args))
                return rng
            return node
        return self.parse_range()


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def _parse_all(parser: Parser, rule):
    """``rule()`` over the whole token list; a text nested deeper than the
    interpreter's stack is a syntax error, not a ``RecursionError``."""
    try:
        node = rule()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    parser.expect("eof")
    return node


def parse_module(source: str) -> Module:
    parser = Parser(source)
    return _parse_all(parser, parser.parse_module)


def parse_declarations(source: str) -> list[object]:
    parser = Parser(source)
    return _parse_all(parser, lambda: parser.parse_declarations(until={"eof"}))


def parse_expression(source: str, tokens: list[Token] | None = None):
    parser = Parser(source, tokens)
    return _parse_all(parser, parser.parse_expression)
