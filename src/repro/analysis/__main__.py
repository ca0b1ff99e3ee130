"""Command-line analyzer: ``python -m repro.analysis FILE [FILE ...]``.

Each argument is either a Python file with embedded DBPL/Datalog
literals (``.py`` — extracted via :mod:`repro.analysis.extract`), a
``.dbpl`` file of declarations, or a ``.dl`` Datalog program.  Prints
one line per diagnostic, anchored to the host file, and exits non-zero
iff any error-severity diagnostic was reported — warnings and hints are
informational, so a clean corpus stays clean under new lint rules.

    $ PYTHONPATH=src python -m repro.analysis examples/*.py
"""

from __future__ import annotations

import sys

from .extract import FileReport, Snippet, analyze_file


def _analyze_plain(path: str, kind: str) -> FileReport:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    from ..errors import DBPLSyntaxError
    from .diagnostics import Diagnostics, Span

    report = FileReport(path)
    snippet = Snippet(kind, "file", text, 1, 1)
    diags = Diagnostics()
    if kind == "datalog":
        from ..datalog.parser import parse_program
        from .rules import analyze_datalog

        try:
            diags = analyze_datalog(parse_program(text))
        except DBPLSyntaxError as exc:
            diags.error(
                "DBPL000", f"syntax error: {exc}", span=Span(exc.line, exc.column)
            )
    else:
        from ..compiler.options import ExecOptions
        from ..dbpl.session import Session

        diags = Session(options=ExecOptions(analysis="lint")).check(text)
    report.diagnostics.extend((snippet, diag) for diag in diags)
    return report


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    failed = False
    total = 0
    for path in paths:
        if path.endswith(".py"):
            report = analyze_file(path)
        elif path.endswith(".dl"):
            report = _analyze_plain(path, "datalog")
        else:
            report = _analyze_plain(path, "dbpl")
        for line in report.render():
            print(line)
        total += len(report.diagnostics)
        failed = failed or report.has_errors
    status = "FAIL" if failed else "OK"
    print(f"{status}: {len(paths)} file(s), {total} diagnostic(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
