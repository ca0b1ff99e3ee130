"""Datalog bridge: Horn-clause AST, parser, bottom-up engine, translators."""

from .ast import Atom, Comparison, Const, Literal, Program, Rule, Term, Var, mkatom
from .engine import DatalogEngine, DatalogStats
from .from_constructors import system_to_program
from .parser import parse_atom, parse_program
from .to_constructors import declare_program

__all__ = [
    "Atom",
    "Comparison",
    "Const",
    "DatalogEngine",
    "DatalogStats",
    "Literal",
    "Program",
    "Rule",
    "Term",
    "Var",
    "declare_program",
    "mkatom",
    "parse_atom",
    "parse_program",
    "system_to_program",
]
