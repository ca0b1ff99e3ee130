"""The static analyzer: rule catalog, spans, front-door gates, extraction.

Four layers of coverage:

* a table-driven catalog test — every rule code has a minimal triggering
  program with its expected severity and span, so diagnostics stay
  anchored to real source positions;
* golden runs over ``examples/`` and the paper transcription — valid
  programs produce zero error-level diagnostics (no false positives),
  and whatever they do produce carries a non-zero span;
* the serving front door — ``Session.query``/``prepare`` reject unsafe
  programs with a span-carrying :class:`AnalysisError` before any
  compilation, ``DatalogEngine`` does the same via
  :class:`DatalogAnalysisError`, and provably-empty branches are pruned
  for ``query`` but never for ``prepare``;
* the extraction CLI that CI runs over the example scripts.
"""

import glob
import os

import pytest

from repro.analysis import (
    AnalysisError,
    DatalogAnalysisError,
    Diagnostic,
    Diagnostics,
    Span,
    analyze_datalog,
)
from repro.analysis.extract import analyze_file, extract_snippets
from repro.datalog.engine import DatalogEngine
from repro.datalog.parser import parse_program
from repro.dbpl.parser import parse_expression
from repro.dbpl.session import Session
from repro.errors import BindingError, TranslationError
from repro.compiler.options import ExecOptions

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCHEMA = """
TYPE itemrec = RECORD name, kind: STRING; qty: INTEGER END;
     itemrel = RELATION name OF itemrec;
VAR Items: itemrel;

SELECTOR named (N: STRING) FOR Rel: itemrel;
BEGIN EACH r IN Rel: r.name = N END named;
"""


def lint_session() -> Session:
    s = Session(options=ExecOptions(analysis="lint"))
    s.execute(SCHEMA)
    return s


def strict_session(rows=()) -> Session:
    s = Session()
    s.execute(SCHEMA)
    if rows:
        s.insert("Items", rows)
    return s


# ---------------------------------------------------------------------------
# The rule catalog, one minimal trigger per code
# ---------------------------------------------------------------------------

#: (source, expected code, severity, span line, span column)
DBPL_CATALOG = [
    ("{EACH x IN Nope: TRUE}", "DBPL001", "error", 1, 12),
    ("Items[nosel()]", "DBPL002", "error", 1, 1),
    ("Items{nocon()}", "DBPL003", "error", 1, 1),
    ("Items[named()]", "DBPL004", "error", 1, 1),
    ('{EACH i IN Items: i.colour = "red"}', "DBPL005", "error", 1, 19),
    ("{EACH i IN Items: i.name = j.name}", "DBPL006", "error", 1, 28),
    ("{EACH i IN Items: i.name = 3}", "DBPL007", "error", 1, 19),
    ("{EACH i IN Items: <i.name> IN Items}", "DBPL008", "error", 1, 19),
    ("{EACH i, i IN Items: TRUE}", "DBPL009", "error", 1, 10),
    ("{EACH i IN Items: i.qty = 1 AND i.qty = 2}", "DBPL010", "warning", 1, 33),
    ("{EACH i IN Items: i.qty = i.qty}", "DBPL011", "hint", 1, 19),
    ("{EACH i IN Items: 1 = 2}", "DBPL012", "warning", 1, 2),
    ("{EACH a IN Items, EACH b IN Items: TRUE}", "DBPL013", "warning", 1, 2),
    ("{EACH i IN Items: SOME i IN Items (TRUE)}", "DBPL014", "warning", 1, 19),
    ("VAR X: mystery;", "DBPL015", "error", 1, 8),
    ("TYPE bad = RANGE 9..1;", "DBPL016", "error", 1, 12),
    (
        "TYPE pairrec = RECORD x, y: STRING END;\n"
        "     pairrel = RELATION ... OF pairrec;\n"
        "CONSTRUCTOR wide FOR Rel: itemrel (): pairrel;\n"
        "BEGIN <r.name> OF EACH r IN Rel: TRUE\n"
        "END wide;",
        "DBPL017", "error", 4, 7,
    ),
    (
        "TYPE pairrec = RECORD x, y: STRING END;\n"
        "     pairrel = RELATION ... OF pairrec;\n"
        "CONSTRUCTOR twoid FOR Rel: pairrel (): pairrel;\n"
        "BEGIN EACH a IN Rel, EACH b IN Rel: TRUE\n"
        "END twoid;",
        "DBPL018", "error", 4, 7,
    ),
    ("VAR Items: itemrel;", "DBPL019", "error", 1, 5),
    (
        "TYPE negrec = RECORD a: STRING END;\n"
        "     negrel = RELATION ... OF negrec;\n"
        "CONSTRUCTOR neg FOR Rel: negrel (): negrel;\n"
        "BEGIN EACH r IN Rel: NOT (r IN Rel{neg})\n"
        "END neg;",
        "DBPL020", "error", 4, 32,
    ),
    ("VAR n: INTEGER;", "DBPL021", "error", 1, 5),
    ("TYPE dup = RECORD a, a: STRING END;", "DBPL022", "error", 1, 19),
]

#: (source, edb, positive_only, code, severity, line, column)
DATALOG_CATALOG = [
    ("p(X, Y) :- q(X).", None, False, "DBPL101", "error", 1, 1),
    ("big(X) :- size(X), Y > 2.", None, False, "DBPL102", "warning", 1, 20),
    ("p(X) :- q(X).", set(), False, "DBPL103", "warning", 1, 9),
    (
        "p(X) :- q(X).\np(X, Y) :- q(X), q(Y).",
        None, False, "DBPL104", "warning", 2, 1,
    ),
    ("p(X) :- q(X), \\+ r(X).", None, True, "DBPL105", "error", 1, 15),
    ("p(X) :- q(X), \\+ p(X).", None, False, "DBPL106", "error", 1, 15),
    ("p(X) :- q(X), \\+ r(X, Y).", None, False, "DBPL107", "error", 1, 15),
    ("p(X) :- q(X, Z).", None, False, "DBPL108", "hint", 1, 1),
]


class TestRuleCatalog:
    @pytest.mark.parametrize(
        "source,code,severity,line,column",
        DBPL_CATALOG,
        ids=[c[1] for c in DBPL_CATALOG],
    )
    def test_dbpl_code_fires_with_span(self, source, code, severity, line, column):
        diags = lint_session().check(source)
        hits = diags.filter(code=code)
        assert hits, f"{code} did not fire; got {[d.render() for d in diags]}"
        diag = hits[0]
        assert diag.severity == severity
        assert diag.span is not None and not diag.span.is_zero
        assert (diag.span.line, diag.span.column) == (line, column)

    @pytest.mark.parametrize(
        "source,edb,positive_only,code,severity,line,column",
        DATALOG_CATALOG,
        ids=[c[3] for c in DATALOG_CATALOG],
    )
    def test_datalog_code_fires_with_span(
        self, source, edb, positive_only, code, severity, line, column
    ):
        diags = analyze_datalog(
            parse_program(source), edb_predicates=edb, positive_only=positive_only
        )
        hits = diags.filter(code=code)
        assert hits, f"{code} did not fire; got {[d.render() for d in diags]}"
        diag = hits[0]
        assert diag.severity == severity
        assert diag.span is not None and not diag.span.is_zero
        assert (diag.span.line, diag.span.column) == (line, column)

    def test_syntax_errors_become_dbpl000(self):
        diags = lint_session().check("{EACH i IN")
        assert diags.filter(code="DBPL000") and diags.has_errors
        assert diags[0].span is not None and not diags[0].span.is_zero

    def test_clean_query_has_no_diagnostics(self):
        assert not lint_session().check('{EACH i IN Items: i.name = "x"}')

    def test_mutually_recursive_constructors_accepted(self):
        # ahead references above before its declaration (the paper's CAD
        # module shape): the signature pre-pass must resolve it.
        source = (
            "TYPE arec = RECORD x, y: STRING END;\n"
            "     arel = RELATION ... OF arec;\n"
            "CONSTRUCTOR f FOR Rel: arel (): arel;\n"
            "BEGIN EACH r IN Rel: TRUE,\n"
            "      <r.x, s.y> OF EACH r IN Rel,\n"
            "           EACH s IN Rel{g}: r.y = s.x\n"
            "END f;\n"
            "CONSTRUCTOR g FOR Rel: arel (): arel;\n"
            "BEGIN EACH r IN Rel: TRUE,\n"
            "      <r.x, s.y> OF EACH r IN Rel,\n"
            "           EACH s IN Rel{f}: r.y = s.x\n"
            "END g;"
        )
        diags = lint_session().check(source)
        assert not diags.has_errors, [d.render() for d in diags]


# ---------------------------------------------------------------------------
# Diagnostics engine mechanics
# ---------------------------------------------------------------------------


class TestDiagnosticsEngine:
    def test_span_rendering_and_shift(self):
        span = Span(2, 5, 2, 9)
        assert str(span) == "2:5-9"
        moved = span.shifted(10, 3)
        assert (moved.line, moved.column) == (12, 5)  # column shift is line-1 only
        first_line = Span(1, 5, 3, 2).shifted(10, 3)
        assert (first_line.line, first_line.column) == (11, 8)
        assert (first_line.end_line, first_line.end_column) == (13, 2)

    def test_collector_ordering_and_filters(self):
        diags = Diagnostics()
        diags.warning("DBPL010", "later", span=Span(3, 1))
        diags.error("DBPL001", "earlier", span=Span(1, 2))
        diags.hint("DBPL011", "hint", span=Span(2, 1))
        assert diags.has_errors and len(diags) == 3
        assert [d.code for d in diags.sorted()] == ["DBPL001", "DBPL010", "DBPL011"]
        assert [d.code for d in diags.errors] == ["DBPL001"]
        assert diags.filter(severity="hint")[0].message == "hint"

    def test_raise_if_errors_carries_first_span_and_count(self):
        diags = Diagnostics()
        diags.error("DBPL001", "one", span=Span(1, 4))
        diags.error("DBPL002", "two", span=Span(2, 1))
        with pytest.raises(AnalysisError) as info:
            diags.raise_if_errors("rejected")
        err = info.value
        assert "(+1 more)" in str(err)
        assert (err.line, err.column) == (1, 4)
        assert err.diagnostics is diags

    def test_render_is_stable(self):
        diag = Diagnostic("DBPL007", "error", "bad compare", Span(1, 3, 1, 9))
        assert diag.render() == "DBPL007 error at 1:3-9: bad compare"


# ---------------------------------------------------------------------------
# The serving front door
# ---------------------------------------------------------------------------


class TestSessionFrontDoor:
    def test_strict_query_rejects_before_compilation(self):
        s = strict_session()
        with pytest.raises(AnalysisError) as info:
            s.query("{EACH x IN Nope: TRUE}")
        assert info.value.span is not None and info.value.span.line == 1
        assert info.value.diagnostics.has_errors

    def test_strict_prepare_rejects_with_span(self):
        s = strict_session()
        with pytest.raises(AnalysisError) as info:
            s.prepare('{EACH i IN Items: i.colour = "x"}')
        assert not info.value.span.is_zero

    def test_interpreted_mode_is_gated_too(self):
        with pytest.raises(AnalysisError):
            strict_session().query("{EACH x IN Nope: TRUE}", mode="interpreted")

    def test_lint_mode_reports_without_raising(self):
        s = Session(options=ExecOptions(analysis="lint"))
        s.execute(SCHEMA)
        diags = s.check("{EACH x IN Nope: TRUE}")
        assert diags.has_errors and s.last_diagnostics is diags

    def test_off_mode_skips_analysis(self):
        s = Session(options=ExecOptions(analysis="off"))
        s.execute(SCHEMA)
        s.insert("Items", [("a", "k", 1)])
        assert s.query('{EACH i IN Items: i.name = "a"}') == {("a", "k", 1)}
        assert not s.last_diagnostics

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Session(options=ExecOptions(analysis="pedantic"))

    def test_hook_sees_warnings_on_accepted_queries(self):
        seen = []
        s = Session(on_diagnostic=seen.append)
        s.execute(SCHEMA)
        s.query("{EACH i IN Items: i.qty = 1 AND i.qty = 2}")
        assert [d.code for d in seen] == ["DBPL010"]

    def test_unknown_constructor_in_prepare_is_gated(self):
        # A constructed range prepares like any other range, so an
        # unknown constructor is the analyzer's finding, as in query().
        s = strict_session()
        with pytest.raises(AnalysisError, match="DBPL003"):
            s.prepare("Items{anything()}")

    def test_execute_records_but_does_not_reject(self):
        # Binder errors stay authoritative for declarations.
        s = strict_session()
        with pytest.raises(BindingError, match="unknown type"):
            s.execute("VAR Y: mystery;")
        assert s.last_diagnostics.has_errors  # the analyzer saw it too

    def test_front_door_cache_hits_and_invalidates_on_declarations(self):
        """The verdict is cached with the plan, per token shape and scope
        stamp: a declaration moves the stamp, and a rejected text leaves
        no entry behind to be served once its names exist."""
        s = strict_session(rows=[("a", "k", 1)])
        src = '{EACH i IN Items: i.name = "a"}'
        s.query(src)
        assert (s.plan_cache.misses, s.plan_cache.hits) == (1, 0)
        s.query(src)
        assert (s.plan_cache.misses, s.plan_cache.hits) == (1, 1)
        s.execute("TYPE otherrec = RECORD z: STRING END;")
        s.query(src)  # new scope stamp -> miss
        assert (s.plan_cache.misses, s.plan_cache.hits) == (2, 1)
        later = '{EACH o IN Others: o.z = "b"}'
        with pytest.raises(AnalysisError, match="DBPL001"):
            s.query(later)
        s.execute("TYPE otherrel = RELATION z OF otherrec; VAR Others: otherrel;")
        s.insert("Others", [("b",)])
        assert s.query(later) == {("b",)}


class TestDeadBranchPruning:
    ROWS = [("a", "k", 1), ("b", "k", 2)]

    def test_contradictory_union_arm_is_pruned(self):
        s = strict_session(rows=self.ROWS)
        rows = s.query(
            '{EACH i IN Items: i.qty = 1, EACH i IN Items: i.qty = 2 AND i.qty = 3}'
        )
        assert rows == {("a", "k", 1)}

    def test_all_dead_query_still_executes(self):
        s = strict_session(rows=self.ROWS)
        assert s.query("{EACH i IN Items: i.qty = 2 AND i.qty = 3}") == set()

    def test_prepare_never_prunes_rebindable_branches(self):
        # The "contradiction" is between two rebindable constants: after
        # prepare, rebinding both to the same value must revive the branch.
        s = strict_session(rows=self.ROWS)
        prepared = s.prepare("{EACH i IN Items: i.qty = 2 AND i.qty = 3}")
        assert prepared.execute(2, 2) == {("b", "k", 2)}


class TestDatalogGate:
    def test_unsafe_rule_rejected_with_span(self):
        with pytest.raises(DatalogAnalysisError) as info:
            DatalogEngine(parse_program("p(X, Y) :- q(X)."))
        assert isinstance(info.value, TranslationError)
        assert not info.value.span.is_zero

    def test_negation_rejected_by_positive_engine(self):
        with pytest.raises(TranslationError, match="positive fragment"):
            DatalogEngine(parse_program("p(X) :- q(X), \\+ r(X)."))

    def test_warnings_survive_on_accepted_engine(self):
        engine = DatalogEngine(
            parse_program("big(X) :- size(X), Y > 2.\nsize(a)."),
        )
        assert "DBPL102" in engine.diagnostics.codes()
        with pytest.raises(TranslationError, match="unbound"):
            engine.solve()

    def test_clean_program_solves(self):
        engine = DatalogEngine(
            parse_program("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y)."),
            {"e": {(1, 2), (2, 3)}},
        )
        assert engine.solve()["tc"] == {(1, 2), (2, 3), (1, 3)}
        assert not engine.diagnostics.has_errors


# ---------------------------------------------------------------------------
# Golden runs: examples and the paper transcription stay clean
# ---------------------------------------------------------------------------


class TestGoldenCorpora:
    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(REPO, "examples", "*.py"))),
        ids=os.path.basename,
    )
    def test_examples_have_no_analyzer_errors(self, path):
        report = analyze_file(path)
        rendered = report.render()
        assert not report.has_errors, rendered
        for snippet, diag in report.diagnostics:
            assert diag.severity in ("warning", "hint"), rendered
            span = snippet.shift(diag.span)
            assert span is not None and not span.is_zero, rendered

    def test_paper_transcription_queries_are_clean(self):
        from repro import paper
        from repro.analysis.checks import Scope, analyze_query

        db = paper.cad_database(mutual=True)
        scope = Scope.from_db(db)
        for source in (
            "Infront[refint]",
            'Infront[hidden_by("table")]',
            "Infront{ahead(Ontop)}",
            "Ontop{above(Infront)}",
            'Infront[hidden_by("table")]{ahead(Ontop)}',
            '{EACH r IN Infront: r.back = "door"}',
        ):
            result = analyze_query(parse_expression(source), scope)
            assert not result.diagnostics.has_errors, (
                source,
                [d.render() for d in result.diagnostics],
            )
            for diag in result.diagnostics:
                assert diag.span is not None and not diag.span.is_zero


class TestExtraction:
    HOST = (
        "from repro.dbpl import Session\n"
        "s = Session()\n"
        's.execute("""\n'
        "TYPE r = RECORD a: STRING END;\n"
        "     rl = RELATION ... OF r;\n"
        "VAR R: rl;\n"
        '""")\n'
        'rows = s.query(\'{EACH x IN Nope: TRUE}\')\n'
    )

    def test_snippets_found_in_order_with_positions(self):
        snippets = extract_snippets(self.HOST)
        assert [s.call for s in snippets] == ["execute", "query"]
        assert snippets[0].line == 3  # opening quote line; content flows on
        assert snippets[1].line == 8

    def test_diagnostics_reanchor_to_host_lines(self):
        import tempfile

        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", delete=False
        ) as handle:
            handle.write(self.HOST)
            path = handle.name
        try:
            report = analyze_file(path)
        finally:
            os.unlink(path)
        assert report.has_errors
        (snippet, diag) = next(
            (s, d) for s, d in report.diagnostics if d.code == "DBPL001"
        )
        span = snippet.shift(diag.span)
        assert span.line == 8  # host-file line of the bad query literal
        assert span.column > snippet.column  # shifted past the call prefix

    def test_non_literal_arguments_are_skipped(self):
        text = "s.query(make_source())\ns.execute(PREFIX + body)\n"
        assert extract_snippets(text) == []
