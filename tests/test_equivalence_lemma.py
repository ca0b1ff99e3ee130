"""Section 3.4 lemma: constructors ≡ function-free PROLOG (both directions).

Cross-checks FOUR independently implemented evaluators on the same
programs: constructor fixpoint engines, the bottom-up Datalog engine,
SLD resolution, and the tabled engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper
from repro.constructors import apply_constructor, construct, instantiate, solve_system
from repro.calculus import dsl as d
from repro.datalog import (
    DatalogEngine,
    declare_program,
    parse_atom,
    parse_program,
    system_to_program,
)
from repro.errors import TranslationError
from repro.relational import Database
from repro.prolog import KnowledgeBase, SLDEngine, TabledEngine

from helpers import SCENE_INFRONT, SCENE_ONTOP

TC_SOURCE = """
ahead(X, Y) :- infront(X, Y).
ahead(X, Y) :- infront(X, Z), ahead(Z, Y).
"""


class TestDatalogToConstructors:
    def test_tc_program(self):
        db = Database("datalog")
        apps = declare_program(
            db, parse_program(TC_SOURCE), {"infront": set(SCENE_INFRONT)}
        )
        result = construct(db, apps["ahead"])
        oracle = DatalogEngine(
            parse_program(TC_SOURCE), {"infront": set(SCENE_INFRONT)}
        ).solve()["ahead"]
        assert result.rows == oracle

    def test_same_generation(self):
        src = """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        """
        edb = {
            "flat": {("a", "b"), ("c", "c")},
            "up": {("x", "a"), ("y", "b"), ("z", "c")},
            "down": {("a", "p"), ("b", "q"), ("c", "z")},
        }
        db = Database("datalog")
        apps = declare_program(db, parse_program(src), edb)
        result = construct(db, apps["sg"])
        oracle = DatalogEngine(parse_program(src), edb).solve()["sg"]
        assert result.rows == oracle

    def test_mutual_recursion(self):
        src = """
        even(X) :- zero(X).
        even(X) :- succ(Y, X), odd(Y).
        odd(X) :- succ(Y, X), even(Y).
        """
        edb = {"zero": {(0,)}, "succ": {(i, i + 1) for i in range(8)}}
        db = Database("datalog")
        apps = declare_program(db, parse_program(src), edb)
        even = construct(db, apps["even"])
        odd = construct(db, apps["odd"])
        assert even.rows == {(0,), (2,), (4,), (6,), (8,)}
        assert odd.rows == {(1,), (3,), (5,), (7,)}

    def test_constants_and_comparisons(self):
        src = """
        tall(X) :- height(X, H), H >= 10.
        reach(Y) :- edge(a, Y).
        reach(Y) :- reach(X), edge(X, Y).
        """
        edb = {
            "height": {("t1", 12), ("t2", 3)},
            "edge": {("a", "b"), ("b", "c"), ("z", "w")},
        }
        db = Database("datalog")
        apps = declare_program(db, parse_program(src), edb)
        assert construct(db, apps["tall"]).rows == {("t1",)}
        assert construct(db, apps["reach"]).rows == {("b",), ("c",)}

    def test_idb_facts_seed_base(self):
        src = "p(X, Y) :- q(X, Y).\np(seed, seed)."
        db = Database("datalog")
        apps = declare_program(db, parse_program(src), {"q": {("a", "b")}})
        assert construct(db, apps["p"]).rows == {("a", "b"), ("seed", "seed")}

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(TranslationError, match="arities"):
            declare_program(Database("datalog"), parse_program("p(a).\np(a, b)."))


class TestConstructorsToDatalog:
    def _tc_system(self, infront):
        db = paper.cad_database(infront=infront, mutual=False)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        return db, system

    def test_tc_roundtrip(self):
        db, system = self._tc_system(SCENE_INFRONT)
        program, edb, root = system_to_program(db, system)
        oracle = DatalogEngine(program, edb).solve()[root]
        direct = solve_system(db, system)
        assert direct.rows == oracle

    def test_translated_program_is_safe(self):
        db, system = self._tc_system(SCENE_INFRONT)
        program, _edb, _root = system_to_program(db, system)
        assert all(rule.is_range_restricted() for rule in program.rules)

    def test_mutual_system_translates(self):
        db = paper.cad_database(
            infront=SCENE_INFRONT, ontop=SCENE_ONTOP, mutual=True
        )
        system = instantiate(db, d.constructed("Infront", "ahead", d.rel("Ontop")))
        program, edb, root = system_to_program(db, system)
        oracle = DatalogEngine(program, edb).solve()[root]
        assert solve_system(db, system).rows == oracle

    def test_nonpositive_body_rejected(self):
        db = paper.cad_database(infront=SCENE_INFRONT, mutual=False)
        from repro.relational import Database

        db2 = Database()
        db2.declare("Base", paper.CARDREL, [(i,) for i in range(4)])
        paper.define_strange(db2)
        system = instantiate(db2, d.constructed("Base", "strange"))
        with pytest.raises(TranslationError):
            system_to_program(db2, system)

    def test_or_branches_split_into_rules(self):
        from repro.constructors import define_constructor

        from repro.relational import Database

        db = Database()
        db.declare("E", paper.INFRONTREL, [("a", "b"), ("b", "c")])
        body = d.query(
            d.branch(
                d.each("r", "Rel"),
                pred=d.or_(d.eq(d.a("r", "front"), "a"), d.eq(d.a("r", "back"), "c")),
                targets=[d.a("r", "front"), d.a("r", "back")],
            )
        )
        define_constructor(db, "pick", "Rel", paper.INFRONTREL, paper.AHEADREL, body)
        system = instantiate(db, d.constructed("E", "pick"))
        program, edb, root = system_to_program(db, system)
        assert len(program.rules) == 2
        oracle = DatalogEngine(program, edb).solve()[root]
        assert oracle == solve_system(db, system).rows


class TestFourWayAgreement:
    """Constructor engines, Datalog engine, SLD, and tabling all agree."""

    nodes = st.sampled_from(["a", "b", "c", "d", "e"])
    # acyclic edge sets so plain SLD terminates
    edge_sets = st.sets(
        st.tuples(nodes, nodes).filter(lambda e: e[0] < e[1]), max_size=10
    )

    @settings(max_examples=25, deadline=None)
    @given(edge_sets)
    def test_transitive_closure_agreement(self, edges):
        # 1. constructor engine
        db = paper.cad_database(infront=edges, mutual=False)
        constructed = apply_constructor(db, "Infront", "ahead").rows
        # 2. bottom-up Datalog
        program = parse_program(TC_SOURCE)
        datalog = DatalogEngine(program, {"infront": edges}).solve().get(
            "ahead", frozenset()
        )
        # 3. SLD resolution
        kb = KnowledgeBase.from_program(program, {"infront": edges})
        sld = SLDEngine(kb).all_answers(parse_atom("ahead(X, Y)"))
        # 4. tabled top-down
        tabled = TabledEngine(kb).all_answers(parse_atom("ahead(X, Y)"))
        assert constructed == datalog == sld == tabled

    @settings(max_examples=15, deadline=None)
    @given(edge_sets)
    def test_point_query_agreement(self, edges):
        program = parse_program(TC_SOURCE)
        kb = KnowledgeBase.from_program(program, {"infront": edges})
        goal = parse_atom("ahead(a, Y)")
        sld = SLDEngine(kb).all_answers(goal)
        tabled = TabledEngine(kb).all_answers(goal)
        datalog = DatalogEngine(program, {"infront": edges}).query(goal)
        assert sld == tabled == datalog
