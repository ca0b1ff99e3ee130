"""Fuzzing the DBPL lexer and parsers.

The session front door keys its plan cache on the token list, so the
lexer is a trust boundary: a text must lex to exactly the tokens the
parser would have seen.  :func:`repro.dbpl.tokenize` is one compiled
regular expression; ``lexer_oracle`` is the character-at-a-time lexer it
replaced.  On any text the two produce the same tokens (all six fields)
or raise ``DBPLSyntaxError`` at the same position, except for the
non-ASCII digit fix: where the oracle lexed a non-ASCII ``isdigit()``
character into an integer (or crashed on it), the library rejects that
character.  (The library also rejects an integer literal too long for
``int()``, which the oracle passed on to the parser; no drawn text is
that long.)  Whatever the text, the parsers raise nothing but a
``DBPLError``, and ``Session.check`` reports instead of raising.

A plan-cache hit never tokenizes: :func:`repro.dbpl.lexer.shape_of`
finds the cache key in one regex scan.  On any text it either declines
(None) or returns exactly ``token_shape(tokenize(text))`` — and then
``tokenize`` accepts the text.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FRONT_DOOR_SCHEMA, FRONT_DOOR_TEMPLATES
from lexer_oracle import tokenize as oracle_tokenize
from repro.dbpl import Session, parse_expression, parse_module, tokenize
from repro.dbpl.lexer import KEYWORDS, SYMBOLS, shape_of
from repro.dbpl.serving import token_shape
from repro.errors import DBPLError, DBPLSyntaxError

FIELDS = ("kind", "text", "line", "column", "end_line", "end_column")


def lex(tokenizer, text: str):
    try:
        return [tuple(getattr(t, f) for f in FIELDS) for t in tokenizer(text)]
    except DBPLSyntaxError as exc:
        return ("DBPLSyntaxError", exc.line, exc.column)
    except ValueError:  # the oracle's int('²')
        return ("ValueError",)


def char_at(text: str, line: int, column: int) -> str:
    return text.split("\n")[line - 1][column - 1]


def assert_lexers_agree(text: str) -> None:
    got, want = lex(tokenize, text), lex(oracle_tokenize, text)
    if got == want:
        return
    # The one allowed difference: the library stops at a non-ASCII digit
    # the oracle lexed as (part of) an integer.
    assert got[0] == "DBPLSyntaxError", (text, got, want)
    bad = char_at(text, got[1], got[2])
    assert bad.isdigit() and not bad.isascii(), (text, got, want)


def assert_scan_agrees(text: str) -> None:
    """``shape_of`` declines or equals the token list's shape (and then
    ``tokenize`` raises nothing)."""
    scanned = shape_of(text)
    if scanned is not None:
        assert scanned == token_shape(tokenize(text)), text


def assert_parsers_raise_only_dbpl_errors(text: str) -> None:
    for parse in (parse_expression, parse_module):
        try:
            parse(text)
        except DBPLError:
            pass


CHECKER = Session()
CHECKER.execute(FRONT_DOOR_SCHEMA)


# -- text drawn from the DBPL token alphabet ---------------------------------

IDENTS = ["r", "Rel", "x_1", "_", "é", "x²", "ab١", "EACHx"]
INTS = ["0", "7", "42", "007"]
STRINGS = ['"a"', '""', '"two\nlines"', '"(* no comment *)"', '"x\r\ny"']
BLANKS = [" ", "\t", "\n", "\r\n", "\r"]
#: Characters the grammar has no token for, half-tokens, non-ASCII digits.
ODD = ['"', "(*", "*)", "²", "١", "½", "Ⅻ", "$", "\x0c", " ", "!"]

comments = st.recursive(
    st.sampled_from(["", "x", " ", "\n", '"', "*", "("]),
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "(*" + "".join(xs) + "*)"),
    max_leaves=8,
)
fragments = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + SYMBOLS + IDENTS + INTS + STRINGS + BLANKS),
    st.sampled_from(ODD),
    comments,
)
dbpl_text = st.lists(
    st.tuples(fragments, st.sampled_from(["", "", " ", "\n", "\r\n"])), max_size=40
).map(lambda parts: "".join(fragment + sep for fragment, sep in parts))


# -- near-valid text: token-level edits of real queries and declarations -----

SEEDS = [template.replace("%s", "n1") for template in FRONT_DOOR_TEMPLATES] + [
    FRONT_DOOR_SCHEMA,
    "MODULE m; TYPE w = RANGE 0..9; c = (red, green); END m.",
    "{<f.seq, g.w + 1> OF EACH f IN Fact, EACH g IN Dim: f.fk = g.k AND g.w >= -3}",
    "{EACH g IN Dim: ALL h IN Ann (g.grp = h.grp OR NOT (g.w DIV 2 < 100))}",
    '{EACH r IN R: <r.a, "x"> IN S{con(R, 3)}[sel("y")]}',
]


def token_texts(source: str) -> list[str]:
    return [
        f'"{t.text}"' if t.kind == "string" else t.text for t in tokenize(source)[:-1]
    ]


@st.composite
def mutated(draw):
    words = token_texts(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate", "swap"]))
        if edit == "insert" or not words:
            words.insert(at, draw(fragments))
        elif edit == "delete":
            del words[min(at, len(words) - 1)]
        elif edit == "duplicate":
            at = min(at, len(words) - 1)
            words.insert(at, words[at])
        else:
            other = draw(st.integers(0, len(words) - 1))
            at = min(at, len(words) - 1)
            words[at], words[other] = words[other], words[at]
    return " ".join(words)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_lexer_matches_the_oracle_on_arbitrary_text(text):
    assert_lexers_agree(text)


@settings(max_examples=400, deadline=None)
@given(dbpl_text)
def test_lexer_matches_the_oracle_on_the_token_alphabet(text):
    assert_lexers_agree(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), dbpl_text, mutated()))
def test_parsers_raise_only_dbpl_errors(text):
    assert_lexers_agree(text)
    assert_parsers_raise_only_dbpl_errors(text)
    CHECKER.check(text)


#: Any text, ASCII text (which the scan mostly accepts), the token
#: alphabet, and token-level edits of real queries.
SCANNED = st.one_of(
    st.text(), st.text(st.characters(max_codepoint=127)), dbpl_text, mutated()
)


@settings(max_examples=300, deadline=None)
@given(SCANNED)
def test_the_scan_declines_or_equals_the_token_shape(text):
    assert_scan_agrees(text)


@pytest.mark.property
@settings(max_examples=2000, deadline=None)
@given(SCANNED)
def test_the_scan_declines_or_equals_the_token_shape_at_length(text):
    assert_scan_agrees(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("", (("",), [])),
        ("r  \n\n", (("r", ""), [])),
        ('{EACH r IN R: r.a = ""} \r\n\t', (
            ("{", "EACH", "r", "IN", "R", ":", "r", ".", "a", "=", str, "}", ""), [""]
        )),
        ("*)", (("*", ")", ""), [])),
        ("12abc", ((int, "abc", ""), [12])),
        ("1..007", ((int, "..", int, ""), [1, 7])),
        ('"a(*b" x', ((str, "x", ""), ["a(*b"])),
        ("(*", None),
        ("x (* c *) = 1", None),
        ("\f", None),
        ("x²", None),
        ('r.a = "é"', None),
        ('r.a = "open', None),
        ("r.a = " + "9" * 5000, None),
    ],
)
def test_the_scan_on_edge_cases(text, want):
    assert shape_of(text) == want
    assert_scan_agrees(text)


@pytest.mark.parametrize("seed", SEEDS[: len(FRONT_DOOR_TEMPLATES)])
def test_the_scan_serves_every_front_door_template(seed):
    assert shape_of(seed) is not None
    assert_scan_agrees(seed)


@pytest.mark.parametrize(
    "text",
    [
        "(* a (* b *) c *) x",
        "(*)*) x",
        "(* (*) *)",
        '"a\r\nb" (* "not a string *) 1..2 ... <=>=<>:=',
        "x² ab١ _é",
        "1² 12١",
        "\r\n\t r",
        "",
    ],
)
def test_lexer_matches_the_oracle_on_edge_cases(text):
    assert_lexers_agree(text)


def test_deep_nesting_is_a_syntax_error():
    """A text nested deeper than the interpreter's stack is a
    ``DBPLSyntaxError``, not a ``RecursionError``."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        depth = 2000
        with pytest.raises(DBPLSyntaxError, match="nested too deeply"):
            parse_expression("{EACH r IN R: " + "(" * depth + "TRUE" + ")" * depth + "}")
        with pytest.raises(DBPLSyntaxError, match="nested too deeply"):
            parse_module("TYPE t = " + "RELATION ... OF " * depth + "x;")
    finally:
        sys.setrecursionlimit(limit)


def test_an_integer_too_long_to_convert_is_a_syntax_error():
    digits = "1" * 10_000
    with pytest.raises(DBPLSyntaxError, match="integer literal"):
        tokenize(f"r.x = {digits}")
    s = Session()
    s.execute(FRONT_DOOR_SCHEMA)
    assert s.check(f"{{EACH e IN E: e.src = {digits}}}").codes() == ["DBPL000"]
