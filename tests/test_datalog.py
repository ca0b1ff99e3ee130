"""Tests for the Datalog AST, parser, and bottom-up engine."""

import pytest

from repro.datalog import (
    Atom,
    Comparison,
    Const,
    DatalogEngine,
    DatalogStats,
    Program,
    Rule,
    Var,
    mkatom,
    parse_atom,
    parse_program,
)
from repro.analysis.diagnostics import span_of
from repro.compiler import ExecOptions
from repro.dbpl import Session
from repro.errors import DatalogAnalysisError, DBPLSyntaxError, SchemaError, TranslationError

TC_SOURCE = """
% transitive closure of infront
ahead(X, Y) :- infront(X, Y).
ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
"""

CHAIN = {("a", "b"), ("b", "c"), ("c", "d")}
CHAIN_TC = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d"), ("a", "d")}


class TestParser:
    def test_parse_rule_structure(self):
        program = parse_program(TC_SOURCE)
        assert len(program.rules) == 2
        head = program.rules[0].head
        assert head.pred == "ahead"
        assert head.terms == (Var("X"), Var("Y"))

    def test_parse_fact(self):
        program = parse_program("infront(table, chair).")
        (rule,) = program.rules
        assert rule.is_fact
        assert rule.head.terms == (Const("table"), Const("chair"))

    def test_parse_numbers_and_strings(self):
        program = parse_program('size(box, 3).  name(box, "The Box").')
        assert program.rules[0].head.terms[1] == Const(3)
        assert program.rules[1].head.terms[1] == Const("The Box")

    def test_parse_comparison(self):
        program = parse_program("big(X) :- size(X, S), S > 10.")
        (rule,) = program.rules
        assert isinstance(rule.body[1], Comparison)
        assert rule.body[1].op == ">"

    def test_comments_ignored(self):
        program = parse_program("% nothing here\np(a). % trailing\n")
        assert len(program.rules) == 1

    def test_parse_atom_helper(self):
        atom = parse_atom("ahead(table, X)")
        assert atom == Atom("ahead", (Const("table"), Var("X")))

    def test_missing_dot_raises(self):
        with pytest.raises(DBPLSyntaxError):
            parse_program("p(a)")

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(DBPLSyntaxError):
            parse_program("Pred(a).")

    def test_unexpected_character(self):
        with pytest.raises(DBPLSyntaxError):
            parse_program("p(a) & q(b).")

    def test_roundtrip_str(self):
        program = parse_program(TC_SOURCE)
        again = parse_program(str(program))
        assert again == program


class TestProgramStructure:
    def test_idb_edb_partition(self):
        program = parse_program(TC_SOURCE)
        assert program.idb_predicates() == {"ahead"}
        assert program.edb_predicates() == {"infront"}

    def test_range_restriction(self):
        safe = parse_program("p(X) :- e(X, Y).").rules[0]
        unsafe = Rule(mkatom("p", "X", "Y"), (mkatom("e", "X", "X"),))
        assert safe.is_range_restricted()
        assert not unsafe.is_range_restricted()

    def test_unsafe_program_rejected_by_engine(self):
        program = Program((Rule(mkatom("p", "X"), (Comparison("<", Var("X"), Const(3)),)),))
        with pytest.raises(TranslationError):
            DatalogEngine(program)


class TestEngineTC:
    def test_naive_chain(self):
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        assert engine.solve("naive")["ahead"] == CHAIN_TC

    def test_seminaive_chain(self):
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        assert engine.solve("seminaive")["ahead"] == CHAIN_TC

    def test_cycle_terminates(self):
        edges = {("a", "b"), ("b", "a")}
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": edges})
        result = engine.solve()["ahead"]
        assert result == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_inline_facts(self):
        src = TC_SOURCE + "infront(a, b). infront(b, c)."
        engine = DatalogEngine(parse_program(src))
        assert engine.solve()["ahead"] == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_query_with_constants(self):
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        assert engine.query(parse_atom("ahead(a, X)")) == {
            ("a", "b"), ("a", "c"), ("a", "d"),
        }

    def test_query_repeated_variable(self):
        edges = {("a", "b"), ("b", "a")}
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": edges})
        assert engine.query(parse_atom("ahead(X, X)")) == {("a", "a"), ("b", "b")}

    def test_stats_track_work(self):
        stats = DatalogStats()
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        engine.solve("seminaive", stats)
        assert stats.iterations >= 3
        assert stats.tuples_derived == len(CHAIN_TC)

    def test_seminaive_fewer_substitutions_than_naive(self):
        long_chain = {(f"n{i}", f"n{i+1}") for i in range(30)}
        s_naive, s_semi = DatalogStats(), DatalogStats()
        DatalogEngine(parse_program(TC_SOURCE), {"infront": long_chain}).solve("naive", s_naive)
        DatalogEngine(parse_program(TC_SOURCE), {"infront": long_chain}).solve("seminaive", s_semi)
        assert s_semi.substitutions < s_naive.substitutions


class TestEngineBeyondTC:
    def test_same_generation(self):
        src = """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        """
        edb = {
            "flat": {("a", "b")},
            "up": {("x", "a"), ("y", "b")},
            "down": {("a", "x2"), ("b", "y2")},
        }
        engine = DatalogEngine(parse_program(src), edb)
        result = engine.solve()["sg"]
        assert ("a", "b") in result
        assert ("x", "y2") in result

    def test_mutual_recursion(self):
        src = """
        even(X) :- zero(X).
        even(X) :- succ(Y, X), odd(Y).
        odd(X) :- succ(Y, X), even(Y).
        """
        edb = {
            "zero": {(0,)},
            "succ": {(i, i + 1) for i in range(6)},
        }
        engine = DatalogEngine(parse_program(src), edb)
        solution = engine.solve()
        assert solution["even"] == {(0,), (2,), (4,), (6,)}
        assert solution["odd"] == {(1,), (3,), (5,)}

    def test_comparison_literal(self):
        src = "adult(X) :- age(X, A), A >= 18."
        edb = {"age": {("kim", 20), ("lee", 12)}}
        engine = DatalogEngine(parse_program(src), edb)
        assert engine.solve()["adult"] == {("kim",)}

    def test_unbound_comparison_raises(self):
        src = "p(X) :- e(X, Y), Z > 3."
        # Z never bound: safety passes (head bound) but comparison fails.
        engine = DatalogEngine(parse_program(src), {"e": {("a", "b")}})
        with pytest.raises(TranslationError, match="unbound"):
            engine.solve()

    def test_constants_in_rule_body(self):
        src = "reach(Y) :- edge(start, Y).\nreach(Y) :- reach(X), edge(X, Y)."
        edb = {"edge": {("start", "m"), ("m", "n"), ("other", "z")}}
        engine = DatalogEngine(parse_program(src), edb)
        assert engine.solve()["reach"] == {("m",), ("n",)}


class TestEngineCompiled:
    """mode="compiled": Datalog routed through the constructor
    translation and the batched planner executor (section 3.4 both ways:
    same least models, different machinery)."""

    def _agree(self, src, edb=None, preds=None):
        reference = DatalogEngine(parse_program(src), edb).solve("seminaive")
        compiled = DatalogEngine(parse_program(src), edb).solve("compiled")
        for pred in preds or reference:
            assert compiled.get(pred) == reference.get(pred), pred

    def test_chain_tc(self):
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        assert engine.solve("compiled")["ahead"] == CHAIN_TC

    def test_cycle_terminates(self):
        self._agree(TC_SOURCE, {"infront": {("a", "b"), ("b", "a")}})

    def test_inline_facts_and_constants(self):
        self._agree(
            "reach(Y) :- edge(start, Y).\nreach(Y) :- reach(X), edge(X, Y).",
            {"edge": {("start", "m"), ("m", "n"), ("other", "z")}},
        )

    def test_mutual_recursion(self):
        src = """
        even(X) :- zero(X).
        even(X) :- succ(Y, X), odd(Y).
        odd(X) :- succ(Y, X), even(Y).
        """
        edb = {"zero": {(0,)}, "succ": {(i, i + 1) for i in range(6)}}
        self._agree(src, edb, preds=("even", "odd"))

    def test_nonlinear_same_generation(self):
        src = """
        sg(X, Y) :- sibling(X, Y).
        sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
        """
        edb = {
            "parent": {("a", "p"), ("b", "p"), ("c", "q"), ("d", "q"),
                       ("p", "g"), ("q", "g")},
            "sibling": {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")},
        }
        self._agree(src, edb, preds=("sg",))

    def test_comparison_literals(self):
        self._agree(
            "adult(X) :- age(X, A), A >= 18.",
            {"age": {("kim", 20), ("lee", 12)}},
        )

    def test_query_through_compiled_mode(self):
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        assert engine.query(parse_atom("ahead(a, X)"), mode="compiled") == {
            ("a", "b"), ("a", "c"), ("a", "d"),
        }

    def test_stats_report_compiled_mode(self):
        stats = DatalogStats()
        engine = DatalogEngine(parse_program(TC_SOURCE), {"infront": CHAIN})
        engine.solve("compiled", stats)
        assert stats.mode == "compiled"
        assert stats.iterations >= 3
        assert stats.tuples_derived >= len(CHAIN_TC)


MODES = ("naive", "seminaive", "compiled")
EDGE_SCHEMA = """
TYPE erec = RECORD src, dst: STRING END;
     erel = RELATION src, dst OF erec;
VAR edge: erel;
"""
PATH_SOURCE = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""


def edge_session(rows=(("a", "b"), ("b", "c"))) -> Session:
    session = Session()
    session.execute(EDGE_SCHEMA)
    session.insert("edge", list(rows))
    return session


class TestGoalChecks:
    """A goal is translated (and checked) the same way in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "text, code",
        [("path(X)", "DBPL104"), ("path(X, Y, Z)", "DBPL104"), ("nosuch(X)", "DBPL103")],
    )
    def test_wrong_arity_or_unknown_predicate(self, mode, text, code):
        engine = DatalogEngine(parse_program(PATH_SOURCE), {"edge": {("a", "b"), ("b", "c")}})
        goal = parse_atom(text)
        with pytest.raises(DatalogAnalysisError) as info:
            engine.query(goal, mode)
        assert [d.code for d in info.value.diagnostics.errors] == [code]
        assert (info.value.line, info.value.column) == (1, 1)
        assert info.value.span == span_of(goal)

    @pytest.mark.parametrize("mode", MODES)
    def test_ragged_facts_are_rejected_at_construction(self, mode):
        ragged = {"edge": [("a", "b"), ("b", "c", "d")]}
        with pytest.raises(DatalogAnalysisError, match="DBPL104.*edge") as info:
            DatalogEngine(parse_program(PATH_SOURCE), ragged).solve(mode)
        assert [d.code for d in info.value.diagnostics.errors] == ["DBPL104"]

    @pytest.mark.parametrize("mode", MODES)
    def test_query_takes_options(self, mode):
        engine = DatalogEngine(parse_program(PATH_SOURCE), {"edge": {("a", "b"), ("b", "c")}})
        for executor in ("batch", "tuple"):
            options = ExecOptions(executor=executor)
            got = engine.query(parse_atom("path(a, X)"), mode, options=options)
            assert got == {("a", "b"), ("a", "c")}


class TestDatabaseBoundEngine:
    """``DatalogEngine(program, session.db)``: the program's constructors
    live in the caller's database and its goals are held statements."""

    def test_edb_reads_the_relation_by_position(self):
        session = edge_session()
        engine = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        assert engine.fields["edge"] == ("src", "dst")
        for mode in MODES:
            assert engine.query(parse_atom("path(a, X)"), mode) == {("a", "b"), ("a", "c")}

    def test_held_goal_hits_resumes_and_recomputes(self):
        session = edge_session()
        engine = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        goal = parse_atom("path(X, Y)")
        (program,) = engine.statement(goal).fixpoints.values()

        def ask():
            got = engine.query(goal, "compiled")
            outcome = program.last
            assert got == engine.query(goal, "seminaive")
            # The front door reads the goal's program: a hit.
            assert got == session.query("path__base{c_path}")
            assert program.last == ("hit", 0)
            return got, outcome

        ask()
        assert ask()[1] == ("hit", 0)
        session.insert("edge", [("c", "d")])
        got, outcome = ask()
        assert ("a", "d") in got and outcome == ("resumed", 1)
        session.relation("edge").delete([("a", "b")])
        got, outcome = ask()
        assert ("a", "d") not in got and outcome == ("recomputed", 0)

    def test_front_door_serves_the_constructors(self):
        session = edge_session()
        engine = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        subscription = session.subscribe("path__base{c_path}")
        session.insert("edge", [("c", "d")])
        want = engine.query(parse_atom("path(X, Y)"), "compiled")
        assert subscription.rows() == want == session.query("path__base{c_path}")
        assert session.query('{EACH t IN path__base{c_path}: t.a0 = "a"}') == {
            row for row in want if row[0] == "a"
        }

    def test_a_mutual_clique_is_solved_once(self):
        src = """
        even(X) :- zero(X).
        even(X) :- succ(Y, X), odd(Y).
        odd(X) :- succ(Y, X), even(Y).
        """
        edb = {"zero": {(0,)}, "succ": {(i, i + 1) for i in range(6)}}
        stats = DatalogStats()
        solution = DatalogEngine(parse_program(src), edb).solve("compiled", stats)
        assert solution["even"] == {(0,), (2,), (4,), (6,)}
        assert solution["odd"] == {(1,), (3,), (5,)}
        # One system of two applications (even's), not one per member.
        assert stats.rule_firings == 2

    def test_redeclaring_reuses_and_conflicts_raise(self):
        session = edge_session()
        first = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        again = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        assert again.solve("compiled")["path"] == first.solve("seminaive")["path"]
        with pytest.raises(SchemaError, match="c_path"):
            DatalogEngine(parse_program("path(X, Y) :- edge(Y, X)."), session.db)

    def test_missing_relation_and_arity_mismatch(self):
        session = edge_session()
        with pytest.raises(DatalogAnalysisError, match="DBPL103") as info:
            DatalogEngine(parse_program("p(X) :- missing(X)."), session.db)
        assert info.value.column == 9
        with pytest.raises(DatalogAnalysisError, match="DBPL104") as info:
            DatalogEngine(parse_program("p(X) :- edge(X)."), session.db)
        assert info.value.column == 9

    def test_every_mode_reads_the_snapshot(self):
        session = edge_session([("a", "b")])
        engine = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        pinned = ExecOptions(snapshot=session.snapshot())
        session.insert("edge", [("b", "c")])
        goal = parse_atom("path(X, Y)")
        for mode in MODES:
            assert engine.query(goal, mode, options=pinned) == {("a", "b")}, mode
            assert engine.solve(mode, options=pinned)["path"] == {("a", "b")}, mode
            assert len(engine.query(goal, mode)) == 3, mode
            assert engine.solve(mode, options=pinned)["edge"] == {("a", "b")}, mode

    def test_a_snapshot_of_another_database_is_refused(self):
        other = ExecOptions(snapshot=edge_session().snapshot())
        facts = DatalogEngine(parse_program(PATH_SOURCE), {"edge": {("a", "b")}})
        bound = DatalogEngine(parse_program(PATH_SOURCE), edge_session().db)
        for engine in (facts, bound):
            for mode in MODES:
                with pytest.raises(ValueError, match="snapshot"):
                    engine.query(parse_atom("path(X, Y)"), mode, options=other)

    def test_bound_goals_share_one_statement_and_one_program(self):
        chain = [(f"n{i}", f"n{i + 1}") for i in range(60)]
        session = edge_session(chain)
        engine = DatalogEngine(parse_program(PATH_SOURCE), session.db)
        for k in range(60):
            goal = parse_atom(f'path("n{k}", Y)')
            want = engine.query(goal, "seminaive")
            assert engine.query(goal, "compiled") == want == {
                (f"n{k}", f"n{j}") for j in range(k + 1, 61)
            }
        assert len(engine._statements) == 1
        (program,) = engine.statement(parse_atom('path("n0", Y)')).programs
        assert set(session.db.programs.values()) == {program}
        assert (program.recomputes, program.hits) == (1, 59)
