"""Lexer for the DBPL surface syntax used in the paper.

Token kinds: keywords (upper-case reserved words), identifiers, integer
and string literals, and punctuation.  ``(* ... *)`` comments nest, as
in MODULA-2.

:func:`tokenize` is one compiled master expression (:data:`_TOKEN_RE`,
the idiom of the Datalog lexer) matched once per token; only a nested
comment is scanned by hand, since a regular expression cannot count its
depth.  Integers are ASCII ``[0-9]+``: any other ``str.isdigit()``
character (``²``, ``١``) is a :class:`~repro.errors.DBPLSyntaxError` at
its position, and so is a literal too long for ``int()`` to convert.
Identifiers start with an ``isalpha()`` character or ``_`` and continue
with ``isalnum()`` characters or ``_``.

The token list is also the session front door's cache key: a query
whose tokens equal a seen one up to its literal values is served from
the plan cache without parsing (:func:`repro.dbpl.serving.token_shape`).
A hit needs only that key, not positioned tokens, so the front door
first asks :func:`shape_of`, which computes the same key from one
``findall`` of :data:`_SHAPE_RE` (every match one token, trailing blanks
included) and builds no :class:`Token`.  It declines — returns None —
whatever only :func:`tokenize` can decide: non-ASCII text, a comment
opener, a character no token starts with (an unterminated string's
quote among them), or an int literal too long for ``int()``.  A miss
still tokenizes, since the parser and the cache entry need positions.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import DBPLSyntaxError

KEYWORDS = {
    "MODULE", "TYPE", "VAR", "SELECTOR", "CONSTRUCTOR", "FOR", "BEGIN", "END",
    "EACH", "IN", "SOME", "ALL", "NOT", "AND", "OR", "TRUE", "FALSE",
    "RECORD", "RELATION", "OF", "RANGE", "DIV", "MOD", "IS",
}

SYMBOLS = [
    "<=", ">=", "<>", "..", ":=",
    ";", ":", ",", ".", "(", ")", "[", "]", "{", "}",
    "<", ">", "=", "+", "-", "*",
]

# The token grammar's pieces, shared by both scanners.
_BLANK = r" \t\r\n"  # a regex character-class body
_COMMENT = r"\(\*"
_STRING_BODY = r'[^"]*'  # between the quotes
_INT = r"[0-9]+"
_SYMBOL = "|".join(re.escape(symbol) for symbol in SYMBOLS)  # longest first

_TOKEN_RE = re.compile(
    rf"""
    (?P<space>[{_BLANK}]+)
  | (?P<comment>{_COMMENT})
  | "(?P<string>{_STRING_BODY})"
  | (?P<int>{_INT})
  | (?P<word>[^\W\d]\w*)
  | (?P<symbol>{_SYMBOL})
    """,
    re.VERBOSE,
)

#: :func:`shape_of`'s scan: the same tokens, identifiers ASCII only.
#: Group 1 is a token's text; a comment opener or a character no token
#: starts with matches with group 1 empty, which no token is (a string
#: token keeps its quotes).  Blanks after a token belong to its match,
#: so trailing blanks are consumed, not skipped.
_SHAPE_RE = re.compile(
    rf"""(?:{_COMMENT}|("{_STRING_BODY}"|{_INT}|[A-Za-z_][A-Za-z0-9_]*|{_SYMBOL})|[^{_BLANK}])[{_BLANK}]*"""
)

#: A literal token's type by its first character: ``int`` / ``str``, as
#: :func:`repro.dbpl.serving.token_shape` abstracts it.
_LITERAL_TYPE = dict.fromkeys("0123456789", int)
_LITERAL_TYPE['"'] = str


class Token(NamedTuple):
    kind: str  # keyword name, "ident", "int", "string", symbol text, "eof"
    text: str
    line: int
    column: int
    end_line: int = 0  # position one past the token's raw text
    end_column: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.text!r} @{self.line}:{self.column})"


#: ``Token(...)`` runs a Python-level ``__new__``; building the tuple
#: directly halves the cost of a token.
_new_token = tuple.__new__


def _comment_end(source: str, start: int, line: int, column: int) -> int:
    """Offset one past the ``*)`` closing the comment opened at ``start``."""
    depth, pos = 1, start + 2
    while depth:
        close = source.find("*)", pos)
        if close < 0:
            raise DBPLSyntaxError("unterminated comment", line, column)
        # An opener that overlaps the closer's '*' ("(*)") opens.
        opener = source.find("(*", pos, close + 1)
        if opener >= 0:
            depth, pos = depth + 1, opener + 2
        else:
            depth, pos = depth - 1, close + 2
    return pos


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos, line, line_start = 0, 1, 0  # line_start: offset of the line's first char
    length = len(source)
    while pos < length:
        found = match(source, pos)
        column = pos - line_start + 1
        if found is None:
            if source[pos] == '"':
                raise DBPLSyntaxError("unterminated string literal", line, column)
            raise DBPLSyntaxError(f"unexpected character {source[pos]!r}", line, column)
        kind, end = found.lastgroup, found.end()
        if kind == "symbol" or kind == "word" or kind == "int":
            text = found.group()
            if kind == "symbol":
                kind = text
            elif kind == "word":
                # ``[^\W\d]`` also admits non-decimal digits and numerics
                # (``²``, ``½``), which cannot start an identifier.
                if not (text[0].isalpha() or text[0] == "_"):
                    raise DBPLSyntaxError(f"unexpected character {text[0]!r}", line, column)
                kind = text if text in KEYWORDS else "ident"
            else:
                try:  # more digits than sys.get_int_max_str_digits()
                    int(text)
                except ValueError:
                    raise DBPLSyntaxError("integer literal too long", line, column) from None
            append(_new_token(Token, (kind, text, line, column, line, column + end - pos)))
        else:
            if kind == "comment":
                end = _comment_end(source, pos, line, column)
            newlines = source.count("\n", pos, end)
            start_line = line
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            if kind == "string":
                append(_new_token(Token, (
                    "string", found.group("string"), start_line, column,
                    line, end - line_start + 1,
                )))
        pos = end
    column = pos - line_start + 1
    append(_new_token(Token, ("eof", "", line, column, line, column)))
    return tokens


def shape_of(source: str) -> tuple[tuple, list] | None:
    """``token_shape(tokenize(source))`` without building tokens, or None
    where only :func:`tokenize` can decide (see the module docstring).

    When it is not None, :func:`tokenize` accepts ``source``: every
    character is part of a token or a blank, and the tokens are those
    :func:`tokenize` would find.
    """
    if not source.isascii():
        return None
    found = _SHAPE_RE.findall(source)
    if "" in found:  # a comment opener or a character no token starts with
        return None
    literal_type = _LITERAL_TYPE
    shape = [literal_type.get(text[0], text) for text in found]
    shape.append("")  # the eof token
    try:  # more digits than sys.get_int_max_str_digits()
        literals = [
            text[1:-1] if text[0] == '"' else int(text)
            for text in found
            if text[0] in literal_type
        ]
    except ValueError:
        return None
    return tuple(shape), literals
