"""The cost-based planner: statistics, estimates, orders, explain().

Covers the stats layer (incremental cardinality/distinct maintenance,
selectivity estimates), the CostModel (join-order choice on skewed data,
cost-gated access paths, estimation quality), the pushdown gate, and an
explain() regression pinning the chosen plan for one BOM query.
"""

import gc
import random

import pytest

from helpers import INFRONTREL, make_cad_db
from repro.calculus import dsl as d
from repro.compiler import (
    CostModel,
    ExecutionContext,
    PlanStats,
    choose_access_path,
    compile_fixpoint,
    compile_query,
    compile_statement,
    cost_gated_inline,
    estimate_branch,
    run_query,
)
from repro.compiler.accesspath import LogicalAccessPath, PhysicalAccessPath
from repro.constructors import instantiate
from repro.compiler.fixpoint import HeldValue
from repro.relational import Database, TableStats
from repro.types import STRING, record, relation_type
from repro.workloads import bom_database, chain, generate_bom
from repro.compiler.options import ExecOptions


# ---------------------------------------------------------------------------
# Statistics layer
# ---------------------------------------------------------------------------


class TestTableStats:
    def test_from_rows_counts(self):
        stats = TableStats.from_rows([("a", "x"), ("b", "x"), ("c", "y")], 2)
        assert stats.row_count == 3
        assert stats.distinct(0) == 3
        assert stats.distinct(1) == 2
        # uniform column: blend equals 1/distinct exactly
        assert stats.eq_selectivity(0) == pytest.approx(1 / 3)
        # skewed column: blend of 1/distinct (0.5) and mcf (2/3)
        assert stats.eq_selectivity(1) == pytest.approx((0.5 + 2 / 3) / 2)

    def test_eq_selectivity_uniform_unchanged_by_blend(self):
        stats = TableStats.from_rows([(i,) for i in range(8)], 1)
        assert stats.eq_selectivity(0) == pytest.approx(1 / 8)

    def test_incremental_add_and_remove(self):
        stats = TableStats.from_rows([("a", "x"), ("b", "x")], 2)
        stats.add_rows([("c", "y")])
        assert stats.row_count == 3 and stats.distinct(1) == 2
        stats.remove_rows([("a", "x")])
        assert stats.row_count == 2
        assert stats.distinct(0) == 2  # "a" disappeared entirely
        assert stats.distinct(1) == 2  # one "x" remains

    def test_key_selectivity_floor(self):
        # 4 rows, both columns distinct: product would be 1/16, floored 1/4
        rows = [(i, i) for i in range(4)]
        stats = TableStats.from_rows(rows, 2)
        assert stats.key_selectivity((0, 1)) == pytest.approx(0.25)

    def test_skew_signal(self):
        rows = [("hub", f"x{i}") for i in range(9)] + [("solo", "y")]
        stats = TableStats.from_rows(rows, 2)
        assert stats.skew(0) == pytest.approx(0.9)

    def test_relation_maintains_stats_on_insert_delete(self):
        db = Database()
        rel = db.declare("Infront", INFRONTREL, [("a", "b"), ("b", "c")])
        stats = rel.stats()
        assert stats.row_count == 2
        rel.insert([("c", "d")])
        assert rel.stats().row_count == 3 and rel.stats().distinct(0) == 3
        rel.delete([("a", "b")])
        assert rel.stats().row_count == 2 and rel.stats().distinct(0) == 2
        # it is the same live object, updated in place
        assert rel.stats() is stats

    def test_delta_stats_absorb(self):
        """A held value's statistics are a view: built on first read,
        extended by the rows absorbed since (the same object), exact."""
        value = HeldValue(2)
        value.absorb({("a", "b"), ("a", "c")})
        stats = value.stats
        assert stats.row_count == 2 and stats.distinct(0) == 1
        value.absorb({("b", "c")})
        assert value.stats is stats
        assert stats.row_count == 3
        assert stats.distinct(0) == 2 and stats.distinct(1) == 2

    def test_catalog_records_fixpoint_observations(self):
        """The database records the program a statement reads, and the
        planner's observation of the application is the value it holds."""
        db = bom_database(generate_bom(assemblies=1, depth=3, seed=1))
        node = d.constructed("Contains", "explode")
        statement = compile_statement(db, d.query(d.branch(d.each("e", node))))
        (program,) = statement.programs
        assert list(db.programs.values()) == [program]
        rows = statement.run()
        assert CostModel(db).apply_cardinality(program.system.root) == len(rows)

    def test_catalog_observation_invalidated_by_base_mutation(self):
        """The observation follows the base relation: an insert grows the
        held value at the next read, and once no statement holds the
        program the planner is back to its heuristic."""
        db = bom_database(generate_bom(assemblies=1, depth=3, seed=1))
        node = d.constructed("Contains", "explode")
        statement = compile_statement(db, d.query(d.branch(d.each("e", node))))
        before = statement.run()
        db["Contains"].insert([("brand_new_part", "brand_new_sub")])
        after = statement.run()
        root = statement.programs[0].system.root
        assert len(after) == len(before) + 1
        assert CostModel(db).apply_cardinality(root) == len(after)
        del statement
        gc.collect()
        assert not db.programs
        guess = len(db["Contains"]) * CostModel.RECURSIVE_GROWTH
        assert CostModel(db).apply_cardinality(root) == guess


# ---------------------------------------------------------------------------
# Cost model estimates
# ---------------------------------------------------------------------------


def _skewed_db(seed: int = 3) -> Database:
    """Big low-selectivity relation + small high-selectivity relation."""
    rng = random.Random(seed)
    bigrec = record("bigrec", a=STRING, b=STRING)
    smallrec = record("smallrec", b=STRING, c=STRING)
    db = Database("skew")
    db.declare(
        "Big",
        relation_type("bigrel", bigrec),
        {(f"a{rng.randrange(500)}", f"b{rng.randrange(10)}") for _ in range(1200)},
    )
    db.declare(
        "Small",
        relation_type("smallrel", smallrec),
        [(f"b{i}", f"c{i % 4}") for i in range(10)],
    )
    return db


def _skew_query():
    return d.query(
        d.branch(
            d.each("x", "Big"), d.each("y", "Small"),
            pred=d.and_(
                d.eq(d.a("x", "b"), d.a("y", "b")), d.eq(d.a("y", "c"), "c0")
            ),
            targets=[d.a("x", "a"), d.a("y", "c")],
        )
    )


class TestCostModel:
    def test_relation_cardinality_is_exact(self):
        db = make_cad_db()
        model = CostModel(db)
        from repro.compiler.plans import Source

        assert model.source_cardinality(Source("relation", name="Infront")) == 3.0

    def test_key_selectivity_from_stats(self):
        db = make_cad_db()
        model = CostModel(db)
        from repro.compiler.plans import Source

        sel = model.key_selectivity(Source("relation", name="Infront"), (0,))
        assert sel == pytest.approx(1 / 3)

    def test_join_order_on_skewed_data(self):
        """Cost-based ordering starts from the small selective relation
        even though the big one is written first."""
        db = _skewed_db()
        plan_cost = compile_query(db, _skew_query(), options=ExecOptions(optimizer="cost"))
        plan_syn = compile_query(db, _skew_query(), options=ExecOptions(optimizer="syntactic"))
        assert [s.var for s in plan_cost.branches[0].steps] == ["y", "x"]
        assert [s.var for s in plan_syn.branches[0].steps] == ["x", "y"]
        # and it pays off: far fewer rows touched for identical answers
        stats_cost, stats_syn = PlanStats(), PlanStats()
        rows_cost = plan_cost.execute(ExecutionContext(db, stats=stats_cost))
        rows_syn = plan_syn.execute(ExecutionContext(db, stats=stats_syn))
        assert rows_cost == rows_syn
        assert stats_cost.rows_scanned < stats_syn.rows_scanned / 2

    def test_estimates_close_to_actuals(self):
        """Estimated output cardinality within 2x of actual on skew."""
        db = _skewed_db()
        plan = compile_query(db, _skew_query(), options=ExecOptions(optimizer="cost"))
        actual = len(plan.execute(ExecutionContext(db)))
        est = plan.branches[0].est_out
        assert est is not None and actual > 0
        assert actual / 2 <= est <= actual * 2

    def test_delta_estimated_smaller_than_full(self):
        db = bom_database(generate_bom(assemblies=2, depth=3, seed=5))
        root = instantiate(db, d.constructed("Contains", "explode")).root
        model = CostModel(db)
        delta = model.apply_cardinality(("__seminaive__", "delta", root))
        full = model.apply_cardinality(("__seminaive__", "new", root))
        assert delta == full**0.5 < full

    def test_differential_plan_driven_by_delta(self):
        db = bom_database(generate_bom(assemblies=2, depth=3, seed=5))
        system = instantiate(db, d.constructed("Contains", "explode"))
        program = compile_fixpoint(db, system)
        (diff_plan,) = (diff.plan for diff in program.diff_plans.values())
        first_step = diff_plan.branches[0].steps[0]
        assert first_step.source.kind == "apply"
        assert first_step.source.token[1] == "delta"

    def test_single_row_relation_scans(self):
        """Cost gate: a 1-row source with distinct=1 gains nothing from an
        index, so the equality runs as a filter instead."""
        db = Database()
        db.declare("One", INFRONTREL, [("a", "a")])
        q = d.query(
            d.branch(d.each("r", "One"), pred=d.eq(d.a("r", "front"), "a"))
        )
        plan = compile_query(db, q, options=ExecOptions(optimizer="cost"))
        assert plan.branches[0].steps[0].key_positions == ()
        assert run_query(db, q) == {("a", "a")}


class TestResidualPricing:
    """Memberships and quantifiers priced instead of the old un-priced
    fallback (the first ROADMAP planner follow-up)."""

    def _membership_db(self):
        from repro.types import record

        arec = record("arec", k=STRING, j=STRING)
        brec = record("brec", j=STRING, w=STRING)
        trec = record("trec", k=STRING)
        db = Database("member")
        db.declare("B", relation_type("brel", brec),
                   [(f"j{i}", f"w{i}") for i in range(300)])
        db.declare("A", relation_type("arel", arec),
                   [(f"k{i}", f"j{i}") for i in range(300)])
        db.declare("Tiny", relation_type("trel", trec),
                   [("k3",), ("k7",), ("k11",)])
        return db

    def _membership_query(self):
        return d.query(
            d.branch(
                d.each("x", "B"), d.each("y", "A"),
                pred=d.and_(
                    d.eq(d.a("x", "j"), d.a("y", "j")),
                    d.in_(d.a("y", "k"), "Tiny"),
                ),
                targets=[d.a("x", "w"), d.a("y", "k")],
            )
        )

    def test_membership_selectivity_from_stats(self):
        """|Tiny| = 3 over 300 distinct keys: selectivity 1%."""
        from repro.compiler.plans import Source

        db = self._membership_db()
        model = CostModel(db)
        sel = model.predicate_selectivity(
            d.in_(d.a("y", "k"), "Tiny"),
            Source("relation", name="A"),
            db["A"].element_type,
        )
        assert sel == pytest.approx(0.01)

    def test_membership_pins_chosen_plan(self):
        """The membership-restricted relation wins the outer position
        even though it is written second; the un-priced (syntactic)
        order starts from the big partner.  Answers agree."""
        db = self._membership_db()
        q = self._membership_query()
        plan_cost = compile_query(db, q, options=ExecOptions(optimizer="cost"))
        plan_syn = compile_query(db, q, options=ExecOptions(optimizer="syntactic"))
        assert [s.var for s in plan_cost.branches[0].steps] == ["y", "x"]
        assert [s.var for s in plan_syn.branches[0].steps] == ["x", "y"]
        rows_cost = plan_cost.execute(ExecutionContext(db))
        rows_syn = plan_syn.execute(ExecutionContext(db))
        assert rows_cost == rows_syn and len(rows_cost) == 3

    def test_quantifier_selectivities_ordered(self):
        """ALL over a big range is far more selective than SOME."""
        db = self._membership_db()
        model = CostModel(db)
        inner = d.eq(d.a("s", "j"), "j1")
        some_sel = model.predicate_selectivity(d.some("s", "B", inner))
        all_sel = model.predicate_selectivity(d.all_("s", "B", inner))
        assert 0.0 < all_sel < some_sel <= 0.95

    def test_unrecognized_residual_stays_neutral(self):
        db = self._membership_db()
        model = CostModel(db)
        assert model.predicate_selectivity(d.TRUE) == 1.0

    def test_group_set_priced_at_most_its_distinct_keys(self):
        """The bench's ``quant`` shape over parts with 2 kinds x 3
        weights: ~110 rows are estimated to reach the residual, but its
        group set ``<p.kind, p.wt>`` has at most 6 keys."""
        from repro.dbpl import Session

        s = Session()
        s.execute(
            "TYPE linkrec = RECORD parent, child: STRING END; linkrel = RELATION ... OF linkrec;"
            " partrec = RECORD pid, kind: STRING; wt: INTEGER END;"
            " partrel = RELATION ... OF partrec;"
            " rulerec = RECORD kind: STRING; wt: INTEGER END; rulerel = RELATION ... OF rulerec;"
            " VAR Links: linkrel; Parts: partrel; Rules: rulerel;"
        )
        parts = [(f"p{i}", f"k{i % 2}", 3 + i % 3) for i in range(3000)]
        links = [(f"a{i % 40}", f"p{i}") for i in range(3000)]
        rules = [("k0", 4), ("k1", 9)]
        s.insert("Parts", parts)
        s.insert("Links", links)
        s.insert("Rules", rules)
        text = (
            "{<l.parent, p.kind, p.wt> OF EACH l IN Links, EACH p IN Parts: "
            "l.child = p.pid AND p.wt >= 4 AND "
            "ALL r IN Rules (r.kind <> p.kind OR r.wt <= p.wt)}"
        )
        prepared = s.prepare(text)
        kept = {
            pid: (kind, wt) for pid, kind, wt in parts
            if wt >= 4 and all(rk != kind or rw <= wt for rk, rw in rules)
        }
        assert prepared.execute() == {
            (parent, *kept[child]) for parent, child in links if child in kept
        }
        stats = s.db["Parts"].stats()
        cap = stats.distinct(1) * stats.distinct(2)
        assert cap == 6
        (branch,) = prepared.plan.statement.top_plan.branches
        (parts_step,) = [step for step in branch.steps if step.var == "p"]
        assert parts_step.est_cumulative > cap  # the rows reaching the residual
        (residual,) = branch.residuals.values()
        (plan,) = residual.plans
        (groups,) = [
            step for step in plan.branches[0].steps
            if str(getattr(step.source, "token", "")).startswith("__groups")
        ]
        assert groups.est_source_rows == cap
        # The explained sub-plan: the group step's estimate within the cap.
        explain = prepared.explain()
        line = next(ln for ln in explain.splitlines() if "EACH g IN @__groups" in ln)
        assert float(line.split("[est=")[1].split()[0]) <= cap


class TestBulkLoad:
    def test_insert_many_matches_insert(self):
        db1, db2 = Database(), Database()
        rows = [(f"a{i}", f"b{i % 7}") for i in range(100)]
        r1 = db1.declare("X", INFRONTREL)
        r2 = db2.declare("Y", INFRONTREL)
        r1.stats()  # force live statistics before loading
        r2.stats()
        r1.insert(rows)
        r2.insert_many(rows)
        assert r1.rows() == r2.rows()
        s1, s2 = r1.stats(), r2.stats()
        assert s1.row_count == s2.row_count == 100
        assert [c.distinct for c in s1.columns] == [c.distinct for c in s2.columns]
        assert s1.eq_selectivity(1) == pytest.approx(s2.eq_selectivity(1))

    def test_insert_many_type_and_key_checked(self):
        from repro.errors import TypeMismatchError

        db = Database()
        rel = db.declare("X", INFRONTREL)
        with pytest.raises(TypeMismatchError):
            rel.insert_many([("ok", "ok"), ("bad",)])
        assert len(rel) == 0  # rejected load leaves the value unchanged

    def test_insert_many_updates_histogram_in_bulk(self):
        from repro.types import INTEGER, record

        rec = record("nrec", n=INTEGER)
        db = Database()
        rel = db.declare("N", relation_type("nrel", rec),
                         [(i,) for i in range(200)])
        stats = rel.stats()
        column = stats.columns[0]
        assert column.histogram() is not None
        builds = column.histogram_builds
        rel.insert_many([(i,) for i in range(200, 260)])
        # maintained incrementally: counts moved, no rebuild forced
        assert stats.row_count == 260
        assert column.histogram_builds == builds
        assert column.histogram().total == 260

    def test_assign_installs_stats_immediately(self):
        """The assign fix: the first post-assign plan is priced from
        real statistics, not a blind lazy rebuild."""
        db = Database()
        rel = db.declare("X", INFRONTREL)
        rel.assign([(f"a{i}", f"b{i % 5}") for i in range(50)])
        # stats are present without any probe having forced a build
        assert rel._stats is not None
        assert rel._stats.row_count == 50
        assert rel._stats.distinct(1) == 5


# ---------------------------------------------------------------------------
# Cost-gated pushdown and access paths
# ---------------------------------------------------------------------------


class TestCostGates:
    def test_pushdown_decisions_logged(self):
        db = make_cad_db()
        from repro import paper

        full = paper.cad_database(mutual=False)
        q = d.query(
            d.branch(
                d.each("r", d.constructed("Infront", "ahead2")),
                pred=d.eq(d.a("r", "head"), "table"),
            )
        )
        rewritten, decisions = cost_gated_inline(full, q)
        assert decisions and all(dec.inlined for dec in decisions)
        assert "inline" in decisions[0].describe()

    def test_choose_access_path_prefers_physical_for_heavy_use(self):
        db = _tc_db(chain(32))
        node = d.constructed("Infront", "ahead")
        light = choose_access_path(db, node, "head", expected_invocations=1)
        heavy = choose_access_path(
            db, node, "head", expected_invocations=500, allow_specialization=False
        )
        assert isinstance(light, LogicalAccessPath)
        assert isinstance(heavy, PhysicalAccessPath)
        assert heavy.lookup("n0") == light.lookup("n0")


def _tc_db(edges):
    from repro import paper

    return paper.cad_database(infront=edges, mutual=False)


# ---------------------------------------------------------------------------
# explain() regression: the BOM bound query
# ---------------------------------------------------------------------------


class TestExplainRegression:
    def test_bom_differential_plan_pinned(self):
        """Pin the chosen differential plan for the BOM explode query."""
        db = bom_database(generate_bom(assemblies=2, depth=3, fanout=3, seed=7))
        system = instantiate(db, d.constructed("Contains", "explode"))
        program = compile_fixpoint(db, system)
        values = program.run()
        text = program.explain()
        # the differential loop nest: delta outer, indexed Contains inner
        assert "EACH e IN @Δexplode via scan" in text
        assert "EACH c IN Contains via index[1]" in text
        # estimated and actual row counts are reported side by side
        assert "est=" in text and "act=" in text
        # and the actuals for the base plan are exact: the base branch
        # emits each Contains row exactly once
        base_plan = next(iter(program.base_plans.values()))
        assert base_plan.branches[0].actual_emitted == len(db["Contains"])

    def test_estimation_quality_reported(self):
        """A second statement over a held application prices its ApplyVar
        at the held size, and reads the first one's program."""
        db = bom_database(generate_bom(assemblies=2, depth=3, fanout=3, seed=7))
        node = d.constructed("Contains", "explode")
        first = compile_statement(db, d.query(d.branch(d.each("e", node))))
        rows = first.run()
        second = compile_statement(
            db,
            d.query(d.branch(
                d.each("e", node), pred=d.eq(d.a("e", "part"), "assembly0"),
                targets=[d.a("e", "sub")],
            )),
        )
        assert second.programs == first.programs
        (step,) = second.top_plan.branches[0].steps
        assert step.source.kind == "apply" and step.est_source_rows == len(rows)

    def test_estimate_branch_orders_of_magnitude(self):
        db = _skewed_db()
        q = _skew_query()
        cost, rows = estimate_branch(db, q.branches[0])
        assert 0 < cost < float("inf")
        assert rows > 0
