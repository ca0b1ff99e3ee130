"""A small Datalog/PROLOG-clause parser.

Accepts the function-free fragment of section 3.4:

    ahead(X, Y) :- infront(X, Y).
    ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
    infront(table, chair).
    bigger(X, Y) :- size(X, SX), size(Y, SY), SX > SY.

Variables start with an upper-case letter or ``_``; constants are
lower-case symbols, ASCII ``[0-9]`` integers, or double-quoted strings.  ``%`` starts a
line comment.  Comparison operators use PROLOG spellings
(``=``, ``\\=``, ``<``, ``=<``, ``>``, ``>=``); ``\\+`` negates a body
atom (parsed for the static analyzer — the positive engines reject it).

The parser tracks line *and* column and attaches source spans to every
Atom/Comparison/Rule (see :mod:`repro.analysis.diagnostics`), so both
syntax errors and analyzer diagnostics point at real positions.
"""

from __future__ import annotations

import re

from ..analysis.diagnostics import Span, set_span
from ..errors import DBPLSyntaxError
from .ast import Atom, Comparison, Const, Literal, Program, Rule, Term, Var

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<implies>:-)
  | (?P<negate>\\\+)
  | (?P<cmp>=<|>=|\\=|<|>|=)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<number>-?[0-9]+)
  | (?P<string>"[^"]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

#: (kind, value, line, column) — 1-based position of the token start.
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DBPLSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        value = match.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = match.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> str:
        actual_kind, value, line, col = self.next()
        if actual_kind != kind:
            raise DBPLSyntaxError(f"expected {kind}, got {value!r}", line, col)
        return value

    def _mark(self, start: _Token, node):
        """Attach the span ``start`` .. last-consumed-token to ``node``."""
        end = self.tokens[self.index - 1] if self.index else start
        set_span(node, Span(start[2], start[3], end[2], end[3] + len(end[1])))
        return node

    # -- grammar --------------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        while self.peek()[0] != "eof":
            rules.append(self.clause())
        return Program(tuple(rules))

    def clause(self) -> Rule:
        start = self.peek()
        head = self.atom()
        kind = self.peek()[0]
        body: tuple[Literal, ...] = ()
        if kind == "implies":
            self.next()
            body = self.body()
        self.expect("dot")
        return self._mark(start, Rule(head, body))

    def body(self) -> tuple[Literal, ...]:
        literals = [self.literal()]
        while self.peek()[0] == "comma":
            self.next()
            literals.append(self.literal())
        return tuple(literals)

    def literal(self) -> Literal:
        # Negated atom, positive atom, or a comparison  term op term.
        start = self.peek()
        if start[0] == "negate":
            self.next()
            inner = self.atom()
            return self._mark(
                start, Atom(inner.pred, inner.terms, negated=True)
            )
        if start[0] == "name" and self.tokens[self.index + 1][0] == "lparen":
            return self.atom()
        left = self.term()
        op_kind, op, op_line, op_col = self.next()
        if op_kind != "cmp":
            raise DBPLSyntaxError(
                f"expected comparison operator, got {op!r}", op_line, op_col
            )
        right = self.term()
        return self._mark(start, Comparison(op, left, right))

    def atom(self) -> Atom:
        start = self.next()
        kind, name, line, col = start
        if kind != "name":
            raise DBPLSyntaxError(f"expected predicate name, got {name!r}", line, col)
        if name[0].isupper() or name[0] == "_":
            raise DBPLSyntaxError(
                f"predicate names must start lower-case: {name!r}", line, col
            )
        self.expect("lparen")
        terms = [self.term()]
        while self.peek()[0] == "comma":
            self.next()
            terms.append(self.term())
        self.expect("rparen")
        return self._mark(start, Atom(name, tuple(terms)))

    def term(self) -> Term:
        token = self.next()
        kind, value, line, col = token
        if kind == "number":
            try:  # more digits than sys.get_int_max_str_digits()
                number = int(value)
            except ValueError:
                raise DBPLSyntaxError("integer literal too long", line, col) from None
            return self._mark(token, Const(number))
        if kind == "string":
            return self._mark(token, Const(value[1:-1]))
        if kind == "name":
            if value[0].isupper() or value[0] == "_":
                return self._mark(token, Var(value))
            return self._mark(token, Const(value))
        raise DBPLSyntaxError(f"expected a term, got {value!r}", line, col)


def parse_program(text: str) -> Program:
    """Parse Datalog source text into a :class:`Program`."""
    return _Parser(text).program()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query goal ``ahead(table, X)``."""
    parser = _Parser(text.rstrip().rstrip(".") + " .")
    atom = parser.atom()
    parser.expect("dot")
    return atom
