"""Fuzzing the Datalog parser.

Datalog text reaches the engines from callers, so the parser is a trust
boundary like the DBPL one (``test_dbpl_fuzz.py``): whatever the text,
``parse_program`` and ``parse_atom`` raise nothing but a ``DBPLError``.
Integers are ASCII ``[0-9]+``; a non-ASCII ``isdigit()`` character
(``٣``, ``²``) is a ``DBPLSyntaxError`` at its own column, never a
constant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Const, parse_atom, parse_program
from repro.errors import DBPLError, DBPLSyntaxError

SEEDS = [
    "ahead(X, Y) :- infront(X, Y).\nahead(X, Y) :- infront(X, Z), ahead(Z, Y).",
    'size(box, 3). name(box, "The Box"). n(-12).',
    "big(X) :- size(X, S), S > 10, S =< 99, X \\= box.",
    "p(X) :- q(X), \\+ r(X). % trailing comment",
]
FRAGMENTS = [
    "p", "q(", ")", "(", ",", ".", ":-", "\\+", "X", "_", "_Y", "a1", "42", "-7",
    '"s"', '"', "=", "\\=", "<", "=<", ">", ">=", "%", "\n", " ", "٣", "²", "é", "$",
]

datalog_text = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(SEEDS)), max_size=30
).map(" ".join)


@st.composite
def mutated(draw):
    words = draw(st.sampled_from(SEEDS)).replace("(", " ( ").replace(")", " ) ").split(" ")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(words)))
        if draw(st.booleans()) or not words:
            words.insert(at, draw(st.sampled_from(FRAGMENTS)))
        else:
            del words[min(at, len(words) - 1)]
    return " ".join(words)


def parse_both(text: str) -> None:
    for parse in (parse_program, parse_atom):
        try:
            parse(text)
        except DBPLError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), datalog_text, mutated()))
def test_parsers_raise_only_dbpl_errors(text):
    parse_both(text)


@pytest.mark.parametrize("digit", ["٣", "²", "١", "߀", "३"])
def test_a_non_ascii_digit_is_a_syntax_error_at_its_column(digit):
    cases = ((f"n({digit}).", 3), (f"n(1{digit}).", 4), (f"p(X) :- n(X, {digit}).", 14))
    for text, column in cases:
        with pytest.raises(DBPLSyntaxError) as info:
            parse_program(text)
        assert (info.value.line, info.value.column) == (1, column), text
    with pytest.raises(DBPLSyntaxError) as info:
        parse_atom(f"n(a, {digit})")
    assert info.value.column == 6


def test_ascii_integers_still_parse():
    (rule,) = parse_program("n(-30, 7).").rules
    assert rule.head.terms == (Const(-30), Const(7))


def test_an_integer_too_long_to_convert_is_a_syntax_error():
    with pytest.raises(DBPLSyntaxError, match="integer literal"):
        parse_program(f"n({'1' * 10_000}).")
