"""Tests for the proof-oriented engines: SLD resolution and tabling."""

import sys

import pytest

from repro.datalog import parse_atom, parse_program
from repro.prolog import (
    DepthLimitExceeded,
    KnowledgeBase,
    SLDEngine,
    TabledEngine,
    unify_atoms,
    unify_terms,
)
from repro.datalog.ast import Const, Var, mkatom

TC_SOURCE = """
ahead(X, Y) :- infront(X, Y).
ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
"""

CHAIN = [("a", "b"), ("b", "c"), ("c", "d")]
CHAIN_TC = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d"), ("a", "d")}


def make_kb(edges=CHAIN) -> KnowledgeBase:
    return KnowledgeBase.from_program(parse_program(TC_SOURCE), {"infront": edges})


class TestUnification:
    def test_var_binds_const(self):
        subst = unify_terms(Var("X"), Const("a"), {})
        assert subst == {"X": Const("a")}

    def test_const_mismatch(self):
        assert unify_terms(Const("a"), Const("b"), {}) is None

    def test_var_var_aliasing(self):
        subst = unify_terms(Var("X"), Var("Y"), {})
        subst = unify_terms(Var("X"), Const("a"), subst)
        from repro.prolog import walk

        assert walk(Var("Y"), subst) == Const("a")

    def test_atom_unification(self):
        a = mkatom("p", "X", "b")
        b = mkatom("p", "a", "Y")
        subst = unify_atoms(a, b, {})
        assert subst is not None
        assert subst["X"] == Const("a")

    def test_atom_pred_mismatch(self):
        assert unify_atoms(mkatom("p", "X"), mkatom("q", "X"), {}) is None

    def test_input_subst_not_mutated(self):
        base: dict = {}
        unify_terms(Var("X"), Const("a"), base)
        assert base == {}


class TestSLD:
    def test_all_answers_tc(self):
        engine = SLDEngine(make_kb())
        assert engine.all_answers(parse_atom("ahead(X, Y)")) == CHAIN_TC

    def test_point_query(self):
        engine = SLDEngine(make_kb())
        assert engine.all_answers(parse_atom("ahead(b, Y)")) == {("b", "c"), ("b", "d")}

    def test_ground_query_prove(self):
        engine = SLDEngine(make_kb())
        assert engine.prove(parse_atom("ahead(a, d)"))
        assert not engine.prove(parse_atom("ahead(d, a)"))

    def test_cyclic_data_exceeds_depth(self):
        """The paper's termination point: SLD loops on cyclic data."""
        engine = SLDEngine(make_kb([("a", "b"), ("b", "a")]), max_depth=50)
        with pytest.raises(DepthLimitExceeded):
            engine.all_answers(parse_atom("ahead(X, Y)"))

    def test_stats_count_proof_effort(self):
        engine = SLDEngine(make_kb())
        engine.all_answers(parse_atom("ahead(X, Y)"))
        assert engine.stats.resolution_steps > 0
        assert engine.stats.answers == len(CHAIN_TC)

    def test_duplicate_proofs_single_answer(self):
        # diamond: two proofs of (a, d)
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        engine = SLDEngine(make_kb(edges))
        answers = engine.all_answers(parse_atom("ahead(a, d)"))
        assert answers == {("a", "d")}

    def test_comparison_goals(self):
        src = "pick(X) :- val(X, V), V > 2."
        kb = KnowledgeBase.from_program(
            parse_program(src), {"val": [("a", 1), ("b", 3)]}
        )
        engine = SLDEngine(kb)
        assert engine.all_answers(parse_atom("pick(X)")) == {("b",)}

    def test_redundant_recomputation_grows_with_depth(self):
        """Tuple-at-a-time proof search re-derives subgoals: resolution
        steps grow super-linearly on all-pairs queries over longer chains."""
        short = SLDEngine(make_kb([(f"n{i}", f"n{i+1}") for i in range(8)]))
        long = SLDEngine(make_kb([(f"n{i}", f"n{i+1}") for i in range(16)]))
        short.all_answers(parse_atom("ahead(X, Y)"))
        long.all_answers(parse_atom("ahead(X, Y)"))
        assert long.stats.resolution_steps > 3 * short.stats.resolution_steps


class TestTabled:
    def test_all_answers_tc(self):
        engine = TabledEngine(make_kb())
        assert engine.all_answers(parse_atom("ahead(X, Y)")) == CHAIN_TC

    def test_point_query(self):
        engine = TabledEngine(make_kb())
        assert engine.all_answers(parse_atom("ahead(a, Y)")) == {
            ("a", "b"), ("a", "c"), ("a", "d"),
        }

    def test_cyclic_data_terminates(self):
        """Tabling eliminates the endless loop SLD falls into."""
        engine = TabledEngine(make_kb([("a", "b"), ("b", "a")]))
        answers = engine.all_answers(parse_atom("ahead(X, Y)"))
        assert answers == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_repeated_goal_variable(self):
        engine = TabledEngine(make_kb([("a", "b"), ("b", "a")]))
        assert engine.all_answers(parse_atom("ahead(X, X)")) == {("a", "a"), ("b", "b")}

    def test_point_query_expands_fewer_subgoals_than_full(self):
        edges = [(f"n{i}", f"n{i+1}") for i in range(12)] + [("m0", "m1")]
        full = TabledEngine(make_kb(edges))
        full.all_answers(parse_atom("ahead(X, Y)"))
        point = TabledEngine(make_kb(edges))
        point.all_answers(parse_atom("ahead(n9, Y)"))
        assert point.stats.resolution_steps < full.stats.resolution_steps

    def test_mutual_recursion(self):
        src = """
        even(X) :- zero(X).
        even(X) :- succ(Y, X), odd(Y).
        odd(X) :- succ(Y, X), even(Y).
        """
        kb = KnowledgeBase.from_program(
            parse_program(src),
            {"zero": [(0,)], "succ": [(i, i + 1) for i in range(6)]},
        )
        engine = TabledEngine(kb)
        assert engine.all_answers(parse_atom("even(X)")) == {(0,), (2,), (4,), (6,)}

    def test_agrees_with_sld_on_acyclic(self):
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
        goal = parse_atom("ahead(X, Y)")
        assert TabledEngine(make_kb(edges)).all_answers(goal) == SLDEngine(
            make_kb(edges)
        ).all_answers(goal)


class TestRecursionLimit:
    """The engines deepen the interpreter stack only while they answer."""

    DEPTH = 400

    @pytest.mark.parametrize("engine_class", [SLDEngine, TabledEngine])
    def test_limit_is_restored_after_a_deep_chain(self, engine_class):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(self.DEPTH)]
        before = sys.getrecursionlimit()
        engine = engine_class(make_kb(edges))
        assert sys.getrecursionlimit() == before
        answers = engine.all_answers(parse_atom("ahead(n0, Y)"))
        assert len(answers) == self.DEPTH
        assert sys.getrecursionlimit() == before
        if engine_class is SLDEngine:
            assert engine.prove(parse_atom(f"ahead(n0, n{self.DEPTH})"))
            assert sys.getrecursionlimit() == before


class TestKnowledgeBase:
    def test_from_database(self):
        from repro import paper

        db = paper.cad_database(infront=CHAIN, mutual=False)
        kb = KnowledgeBase.from_database(db, parse_program(TC_SOURCE))
        engine = SLDEngine(kb)
        assert engine.all_answers(parse_atom("ahead(X, Y)")) == CHAIN_TC

    def test_duplicate_facts_deduplicated(self):
        kb = KnowledgeBase()
        kb.add_fact("p", ("a",))
        kb.add_fact("p", ("a",))
        assert kb.facts["p"] == [("a",)]

    def test_clause_order_preserved(self):
        program = parse_program("p(X) :- a(X).\np(X) :- b(X).")
        kb = KnowledgeBase.from_program(program)
        rules = kb.rules["p"]
        assert [r.body[0].pred for r in rules] == ["a", "b"]
