"""The character-at-a-time DBPL lexer, kept as a test oracle.

This is the lexer ``repro.dbpl.lexer.tokenize`` replaced with one compiled
regular expression.  ``tests/test_dbpl_fuzz.py`` checks that the two agree
token for token (kind, text, start and end positions) and fail at the same
position, except where this one lexed a non-ASCII ``str.isdigit()``
character as part of an integer (it raised a bare ``ValueError`` on ``²``
and read ``١٢`` as 12; the library rejects both with ``DBPLSyntaxError``),
and where an integer literal is too long for ``int()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DBPLSyntaxError

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


@dataclass(frozen=True)
class Token:
    kind: str  # keyword name, "ident", "int", "string", symbol text, "eof"
    text: str
    line: int
    column: int
    end_line: int = 0  # position one past the token's raw text
    end_column: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.text!r} @{self.line}:{self.column})"


def _end_of(line: int, col: int, raw: str) -> tuple[int, int]:
    newlines = raw.count("\n")
    if newlines:
        return line + newlines, len(raw) - raw.rfind("\n")
    return line, col + len(raw)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    length = len(source)

    def emit(kind: str, text: str, raw: str) -> None:
        end_line, end_col = _end_of(line, col, raw)
        tokens.append(Token(kind, text, line, col, end_line, end_col))

    def advance(text: str) -> None:
        nonlocal line, col
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)

    while pos < length:
        ch = source[pos]
        # whitespace
        if ch in " \t\r\n":
            end = pos
            while end < length and source[end] in " \t\r\n":
                end += 1
            advance(source[pos:end])
            pos = end
            continue
        # nesting comments (* ... *)
        if source.startswith("(*", pos):
            depth = 1
            end = pos + 2
            while end < length and depth:
                if source.startswith("(*", end):
                    depth += 1
                    end += 2
                elif source.startswith("*)", end):
                    depth -= 1
                    end += 2
                else:
                    end += 1
            if depth:
                raise DBPLSyntaxError("unterminated comment", line, col)
            advance(source[pos:end])
            pos = end
            continue
        # string literals
        if ch == '"':
            end = source.find('"', pos + 1)
            if end < 0:
                raise DBPLSyntaxError("unterminated string literal", line, col)
            text = source[pos : end + 1]
            emit("string", text[1:-1], text)
            advance(text)
            pos = end + 1
            continue
        # numbers
        if ch.isdigit():
            end = pos
            while end < length and source[end].isdigit():
                end += 1
            # do not swallow the '..' of RANGE bounds
            emit("int", source[pos:end], source[pos:end])
            advance(source[pos:end])
            pos = end
            continue
        # identifiers and keywords
        if ch.isalpha() or ch == "_":
            end = pos
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            word = source[pos:end]
            kind = word if word in KEYWORDS else "ident"
            emit(kind, word, word)
            advance(word)
            pos = end
            continue
        # symbols (longest first)
        for symbol in SYMBOLS:
            if source.startswith(symbol, pos):
                emit(symbol, symbol, symbol)
                advance(symbol)
                pos += len(symbol)
                break
        else:
            raise DBPLSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col, line, col))
    return tokens
