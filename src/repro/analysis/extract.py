"""Extract embedded DBPL/Datalog source from Python files and analyze it.

Example scripts and test modules embed DBPL programs as string literals
passed to ``session.execute(...)`` / ``session.query(...)`` /
``session.prepare(...)`` / ``session.check(...)`` and Datalog programs
passed to ``parse_program(...)`` / ``parse_atom(...)``.  This module
walks a Python file with the stdlib ``ast`` module, pulls those literals
out together with their position, runs the static analyzer over each in
declaration order (so later queries see relations declared by earlier
``execute`` snippets), and re-anchors every diagnostic span to the
*host* file — which is what lets CI point at ``examples/dbpl_tour.py:40``
rather than "line 3 of some string".

Only plain string literals are extracted; formatted or concatenated
sources are skipped (their text is not statically known).
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field

from ..errors import DBPLError, DBPLSyntaxError
from .diagnostics import Diagnostic, Diagnostics, Span

#: Method names whose first string argument is DBPL source.
_DBPL_METHODS = {"execute", "query", "prepare", "check"}
#: Function names whose first string argument is Datalog source.
_DATALOG_FUNCS = {"parse_program", "parse_atom"}


@dataclass(frozen=True)
class Snippet:
    """One embedded program: its text and where it sits in the host file."""

    kind: str  # "dbpl" | "datalog"
    call: str  # the call that received it (execute, query, parse_program, ...)
    source: str
    line: int  # host-file line of the literal's first content character
    column: int  # host-file column of same (1-based)

    def shift(self, span: Span | None) -> Span | None:
        """Re-anchor a snippet-relative span into host-file coordinates."""
        if span is None or span.is_zero:
            return span
        return span.shifted(self.line - 1, self.column - 1)


def _content_offset(segment: str | None) -> int:
    """Columns past the literal's start where the content begins.

    ``segment`` is the literal as written: prefix letters plus the
    opening quote run (1 or 3 quote characters).  A triple-quoted
    literal opening with a newline needs no line adjustment — the
    snippet's own line counter already ticks past it.
    """
    if not segment:
        return 0
    i = 0
    while i < len(segment) and segment[i] not in "\"'":
        i += 1  # string prefix letters (r, b, f, u)
    run = 3 if segment[i : i + 3] in ('"""', "'''") else 1
    return i + run


def extract_snippets(text: str, filename: str = "<string>") -> list[Snippet]:
    """All embedded DBPL/Datalog literals in ``text``, in source order."""
    tree = pyast.parse(text, filename=filename)
    out: list[Snippet] = []
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.Call) or not node.args:
            continue
        func = node.func
        if isinstance(func, pyast.Attribute) and func.attr in _DBPL_METHODS:
            kind, call = "dbpl", func.attr
        else:
            name = func.attr if isinstance(func, pyast.Attribute) else (
                func.id if isinstance(func, pyast.Name) else None
            )
            if name not in _DATALOG_FUNCS:
                continue
            kind, call = "datalog", name
        arg = node.args[0]
        if not isinstance(arg, pyast.Constant) or not isinstance(arg.value, str):
            continue
        segment = pyast.get_source_segment(text, arg)
        col0 = _content_offset(segment)
        out.append(
            Snippet(kind, call, arg.value, arg.lineno, arg.col_offset + col0 + 1)
        )
    out.sort(key=lambda s: (s.line, s.column))
    return out


@dataclass
class FileReport:
    """Analyzer verdict for one host file."""

    path: str
    diagnostics: list[tuple[Snippet, Diagnostic]] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for _, d in self.diagnostics)

    def render(self) -> list[str]:
        lines = []
        for snippet, diag in self.diagnostics:
            span = snippet.shift(diag.span)
            where = f"{self.path}:{span}" if span else self.path
            lines.append(f"{where}: {diag.code} {diag.severity}: {diag.message}")
        return lines


def analyze_file(path: str, text: str | None = None) -> FileReport:
    """Extract and analyze every embedded program in one Python file.

    DBPL snippets run through a throwaway :class:`~repro.dbpl.session.Session`
    in lint mode, in order — ``execute`` snippets are also *bound* so the
    relations, selectors, and constructors they declare are in scope for
    the queries that follow, exactly as they are when the file runs.
    """
    from ..datalog.parser import parse_atom, parse_program
    from ..compiler.options import ExecOptions
    from ..dbpl.session import Session
    from .rules import analyze_datalog

    if text is None:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    report = FileReport(path)
    session = Session(options=ExecOptions(analysis="lint"))
    for snippet in extract_snippets(text, filename=path):
        if snippet.kind == "dbpl":
            diags = session.check(snippet.source)
            if snippet.call == "execute" and not diags.has_errors:
                try:
                    session.execute(snippet.source)
                except DBPLError:
                    pass  # binder-only failure; analysis already reported
        else:
            diags = Diagnostics()
            try:
                if snippet.call == "parse_atom":
                    parse_atom(snippet.source)
                else:
                    diags = analyze_datalog(parse_program(snippet.source))
            except DBPLSyntaxError as exc:
                diags.error(
                    "DBPL000",
                    f"syntax error: {exc}",
                    span=Span(exc.line, exc.column),
                )
        report.diagnostics.extend((snippet, diag) for diag in diags)
    return report


__all__ = ["Snippet", "FileReport", "extract_snippets", "analyze_file"]
