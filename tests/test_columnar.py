"""Columnar (struct-of-arrays) carries: fusion shapes, batched residuals.

The PR 4 safety net on top of the 50-seed equivalence suite in
``test_batched_executor.py``: plan-shape assertions that Project fuses
into the producing operator exactly when no residual follows, the
cost-gated probe-pushdown of selective filters, the per-batch
grouping of residual checks (regression test: a residual decides each
*distinct* read-attribute tuple once, not each row), and residual
quantifiers and memberships answered by compiled plans with no
evaluator call.
"""

import random

import pytest

from repro import paper
from repro.bench.experiments import e15_drift_edges
from repro.calculus import Evaluator, dsl as d
from repro.compiler import (
    BatchedResidualFilter,
    ExecutionContext,
    Filter,
    PlanStats,
    Project,
    compile_fixpoint,
    compile_query,
)
from repro.compiler.operators import lower_branch_columnar
from repro.constructors import instantiate
from repro.datalog import DatalogEngine, parse_program
from repro.relational import Database
from repro.types import INTEGER, STRING, record, relation_type
from repro.compiler.options import ExecOptions


def _wide_db(rows=250, keys=25, seed=9):
    rng = random.Random(seed)
    wide = record("w", a0=STRING, a1=INTEGER, a2=INTEGER, a7=STRING)
    db = Database("columnar")

    def rel(n, prefix):
        return {
            (
                f"{prefix}k{rng.randrange(keys)}",
                i,
                rng.randrange(1000),
                f"{chr(ord(prefix) + 1)}k{rng.randrange(keys)}",
            )
            for i in range(n)
        }

    db.declare("R1", relation_type("r1", wide), rel(rows, "a"))
    db.declare("R2", relation_type("r2", wide), rel(rows, "b"))
    return db


def _join_query(pred_extra=None, targets=None):
    pred = d.eq(d.a("x", "a7"), d.a("y", "a0"))
    if pred_extra is not None:
        pred = d.and_(pred, pred_extra)
    return d.query(
        d.branch(
            d.each("x", "R1"),
            d.each("y", "R2"),
            pred=pred,
            targets=targets or [d.a("x", "a1"), d.a("y", "a1")],
        )
    )


def _ops(plan, branch=0):
    return list(plan.branches[branch].lowered(lower_branch_columnar).operators())


class TestProjectFusion:
    def test_project_fused_when_no_residual(self):
        db = _wide_db()
        plan = compile_query(db, _join_query())
        ops = _ops(plan)
        assert not any(isinstance(op, Project) for op in ops)
        assert plan.branches[0].lowered(lower_branch_columnar).fused
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(_join_query())

    def test_project_standalone_when_residual_follows(self):
        db = _wide_db()
        # The quantifier reads both binding variables, so it can only run
        # after the final join — which blocks projection fusion.
        q = _join_query(
            pred_extra=d.some(
                "s",
                "R1",
                d.and_(
                    d.eq(d.a("s", "a0"), d.a("y", "a7")),
                    d.eq(d.a("s", "a1"), d.a("x", "a1")),
                ),
            )
        )
        plan = compile_query(db, q)
        ops = _ops(plan)
        assert any(isinstance(op, BatchedResidualFilter) for op in ops)
        assert isinstance(ops[-1], Project)
        assert not plan.branches[0].lowered(lower_branch_columnar).fused
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(q)

    def test_fused_filter_into_final_operator(self):
        """An unselective final-step filter folds into the fused emit:
        no standalone Filter, no Project, answers unchanged."""
        db = _wide_db()
        q = _join_query(pred_extra=d.gt(d.a("y", "a2"), 100))
        plan = compile_query(db, q, options=ExecOptions(optimizer="syntactic"))
        ops = _ops(plan)
        assert not any(isinstance(op, (Filter, Project)) for op in ops)
        rows = plan.execute(ExecutionContext(db), executor="batch")
        assert rows == plan.execute(ExecutionContext(db), executor="tuple")
        assert rows == Evaluator(db).eval_query(q)

    def test_fused_operator_actuals_match_emitted(self):
        db = _wide_db()
        plan = compile_query(db, _join_query())
        stats = PlanStats()
        rows = plan.execute(ExecutionContext(db, stats=stats))
        ops = _ops(plan)
        assert ops[-1].actual_rows >= len(rows)  # duplicates pre-dedup
        assert stats.tuples_emitted == ops[-1].actual_rows
        text = plan.explain()
        assert "est=" in text and "act=" in text and "DEDUP" in text

    def test_whole_row_target_fused(self):
        db = _wide_db()
        q = d.query(
            d.branch(d.each("x", "R1"), pred=d.gt(d.a("x", "a2"), 500))
        )
        plan = compile_query(db, q)
        assert not any(isinstance(op, Project) for op in _ops(plan))
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(q)


class TestFilterPushdownGate:
    def test_selective_filter_pushes_into_probe(self):
        db = _wide_db(rows=500, keys=20)
        q = _join_query(pred_extra=d.gt(d.a("y", "a2"), 950))
        plan = compile_query(db, q, options=ExecOptions(optimizer="syntactic"))
        text = plan.explain()
        assert "pushfilter" in text
        rows = plan.execute(ExecutionContext(db), executor="batch")
        assert rows == plan.execute(ExecutionContext(db), executor="rowbatch")
        assert rows == Evaluator(db).eval_query(q)

    def test_unselective_filter_stays_standalone(self):
        db = _wide_db(rows=200, keys=12)
        # y is joined mid-pipeline under the syntactic order; the filter
        # keeps ~80% of rows, so the gate refuses the pushdown.
        q = d.query(
            d.branch(
                d.each("x", "R1"),
                d.each("y", "R2"),
                pred=d.and_(
                    d.eq(d.a("x", "a7"), d.a("y", "a0")),
                    d.and_(
                        d.gt(d.a("y", "a2"), 200),
                        d.some("s", "R1", d.eq(d.a("s", "a0"), d.a("y", "a7"))),
                    ),
                ),
                targets=[d.a("x", "a1"), d.a("y", "a1")],
            )
        )
        plan = compile_query(db, q, options=ExecOptions(optimizer="syntactic"))
        text = plan.explain()
        assert "pushfilter" not in text
        ops = _ops(plan)
        assert any(isinstance(op, Filter) for op in ops)
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(q)


class TestPushFilterMemoIsolation:
    def test_memo_not_inherited_across_garbage_collected_operators(self):
        """Regression: the pushed-bucket memo is keyed by the operator
        *object*; a new HashJoin allocated into a freed operator's slot
        (recycled id) must never inherit the dead operator's filtered
        buckets on a reused context."""
        import gc

        db = _wide_db(rows=500, keys=20)
        ctx = ExecutionContext(db)

        def run(cut):
            q = _join_query(pred_extra=d.gt(d.a("y", "a2"), cut))
            plan = compile_query(db, q, options=ExecOptions(optimizer="syntactic"))
            assert "pushfilter" in plan.explain()
            rows = plan.execute(ctx, executor="batch")
            expected = plan.execute(ExecutionContext(db), executor="tuple")
            assert rows == expected, f"cut={cut}"
            return rows

        first = run(990)
        gc.collect()
        second = run(900)
        assert len(second) > len(first)


def _read_groups(db, *terms) -> set:
    """The distinct tuples of ``terms`` over the rows of the base join:
    the most groups a residual reading exactly ``terms`` may decide."""
    return Evaluator(db).eval_query(_join_query(targets=list(terms)))


def _run_grouped(db, q, **compile_kwargs):
    """Execute ``q`` on the batch pipeline; return (rows, stats) after
    checking the answer against the evaluator and that the residual
    never called it."""
    plan = compile_query(db, q, **compile_kwargs)
    stats = PlanStats()
    rows = plan.execute(ExecutionContext(db, stats=stats), executor="batch")
    assert rows == Evaluator(db).eval_query(q)
    assert stats.residual_evals == 0
    assert stats.residual_checks >= stats.residual_groups
    return rows, stats


class TestBatchedResiduals:
    """A residual is decided once per distinct group of what it reads,
    by compiled plans: answers match the evaluator, the evaluator is
    never called, and no residual decides more groups than there are
    distinct read-attribute tuples."""

    def test_memoization_regression(self):
        """Joins multiply rows but not groups: with ``y`` pinned onto
        the hash join its rows reach the universal repeated once per
        matching ``x`` row, and the residual still decides each distinct
        ``y.a7`` once."""
        db = _wide_db(rows=200, keys=8)  # heavy key duplication
        q = _join_query(
            pred_extra=d.all_(
                "s",
                "R2",
                d.or_(
                    d.ne(d.a("s", "a0"), d.a("y", "a7")),
                    d.ge(d.a("s", "a1"), 0),
                ),
            )
        )
        _rows, stats = _run_grouped(db, q, options=ExecOptions(optimizer="syntactic"))
        assert 0 < stats.residual_groups <= len(_read_groups(db, d.a("y", "a7")))
        assert stats.residual_checks > stats.residual_groups

    def test_some_residual_uses_grouped_probe(self):
        db = _wide_db()
        q = _join_query(
            pred_extra=d.some("s", "R1", d.eq(d.a("s", "a0"), d.a("y", "a7")))
        )
        _rows, stats = _run_grouped(db, q)
        assert stats.residual_groups <= len(_read_groups(db, d.a("y", "a7")))

    def test_inrel_and_negation_fast_path(self):
        db = _wide_db()
        element = (d.a("y", "a7"), d.a("y", "a1"), d.a("y", "a2"), d.a("y", "a0"))
        q = _join_query(pred_extra=d.not_(d.in_(d.tup(*element), "R2")))
        plan = compile_query(db, q)
        rows, stats = _run_grouped(db, q)
        assert stats.residual_groups <= len(_read_groups(db, *element))
        assert rows == plan.execute(ExecutionContext(db), executor="tuple")

    def test_all_quantifier_uses_complement_probe(self):
        """``ALL s (s.a <> outer.b)`` is the complement of one semi-join.
        s ranges over R2, whose a0 values share the "bk" domain with
        y.a0, and y itself is in R2: the universal can never hold, so
        the complement must filter everything, exactly as the reference
        evaluator says."""
        db = _wide_db()
        q = _join_query(
            pred_extra=d.all_("s", "R2", d.ne(d.a("s", "a0"), d.a("y", "a0")))
        )
        rows, stats = _run_grouped(db, q)
        assert rows == set()
        assert 0 < stats.residual_groups <= len(_read_groups(db, d.a("y", "a0")))

    def test_all_quantifier_probe_disjunction_and_negation(self):
        """OR-of-inequality bodies and negated-equality disjuncts, and
        NOT ALL around them: two outer attributes, one group each."""
        db = _wide_db()
        body = d.or_(
            d.not_(d.eq(d.a("s", "a0"), d.a("y", "a7"))),
            d.ne(d.a("s", "a1"), d.a("x", "a1")),
        )
        for wrap in (lambda p: p, d.not_):
            q = _join_query(pred_extra=wrap(d.all_("s", "R2", body)))
            _rows, stats = _run_grouped(db, q)
            reads = _read_groups(db, d.a("y", "a7"), d.a("x", "a1"))
            assert stats.residual_groups <= len(reads)

    def test_all_quantifier_range_body_compiles(self):
        """A universal whose body mixes a range comparison into the
        disjunction compiles like any other: its negation-normal-form
        complement is one semi-join with a comparison filter."""
        db = _wide_db(rows=120, keys=10)
        q = _join_query(
            pred_extra=d.all_("s", "R2", d.or_(
                d.ne(d.a("s", "a0"), d.a("y", "a7")),
                d.ge(d.a("s", "a1"), 0),
            ))
        )
        _rows, stats = _run_grouped(db, q)
        assert stats.residual_groups <= len(_read_groups(db, d.a("y", "a7")))

    def test_multi_variable_residual_compiles(self):
        """An existential correlated with two outer variables through an
        equality and an inequality: one group per (y.a7, x.a1)."""
        db = _wide_db(rows=120, keys=15)
        q = _join_query(
            pred_extra=d.some(
                "s",
                "R2",
                d.and_(
                    d.eq(d.a("s", "a0"), d.a("y", "a7")),
                    d.gt(d.a("s", "a1"), d.a("x", "a1")),
                ),
            )
        )
        _rows, stats = _run_grouped(db, q)
        assert stats.residual_groups <= len(_read_groups(db, d.a("y", "a7"), d.a("x", "a1")))

    def test_probe_sees_relation_mutation_on_reused_context(self):
        """Regression: the residual's semi-join must read the relation
        through its version-aware index cache, so re-executing on a
        *reused* ExecutionContext after an in-place insert sees the new
        rows (the grouped probe it replaced once served the
        pre-mutation index)."""
        db = _wide_db(rows=60, keys=6)
        q = _join_query(
            pred_extra=d.some("s", "R1", d.eq(d.a("s", "a0"), d.a("y", "a7")))
        )
        plan = compile_query(db, q)
        ctx = ExecutionContext(db)
        before = plan.execute(ctx, executor="batch")
        assert before == Evaluator(db).eval_query(q)
        db["R1"].insert([("ak999", 10_000, 5, "bk999")])
        db["R2"].insert([("bk123", 10_001, 6, "ak999")])
        after = plan.execute(ctx, executor="batch")
        assert after == Evaluator(db).eval_query(q)
        assert after == plan.execute(ExecutionContext(db), executor="tuple")

    def test_quantifier_over_delta_in_fixpoint(self):
        """Residual semi-joins over fixpoint variables read them per
        iteration (fresh execution context), so they never see stale
        delta values across iterations or re-plans."""
        edges = e15_drift_edges(comps=3, sources=10, leaves=10)
        db = paper.cad_database(infront=edges, mutual=False)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        columnar = compile_fixpoint(db, system, options=ExecOptions(executor="batch"))
        values = columnar.run()
        db2 = paper.cad_database(infront=edges, mutual=False)
        system2 = instantiate(db2, d.constructed("Infront", "ahead"))
        baseline = compile_fixpoint(db2, system2, options=ExecOptions(executor="rowbatch")).run()
        assert values[system.root] == baseline[system2.root]
        assert columnar.replans >= 1
        assert "replans" in columnar.explain()


class TestEdgeCases:
    def test_constant_targets(self):
        db = _wide_db(rows=50)
        q = d.query(
            d.branch(
                d.each("x", "R1"),
                pred=d.gt(d.a("x", "a2"), 500),
                targets=[d.const("hit"), d.a("x", "a1")],
            )
        )
        plan = compile_query(db, q)
        rows = plan.execute(ExecutionContext(db))
        assert rows == Evaluator(db).eval_query(q)

    def test_empty_relation(self):
        wide = record("w", a0=STRING, a1=INTEGER, a2=INTEGER, a7=STRING)
        db = Database("empty")
        db.declare("R1", relation_type("r1", wide), set())
        db.declare("R2", relation_type("r2", wide), set())
        plan = compile_query(db, _join_query())
        assert plan.execute(ExecutionContext(db)) == set()

    def test_arithmetic_keys_and_params(self):
        db = Database("arith")
        db.declare("Base", paper.CARDREL, [(i,) for i in range(30)])
        q = d.query(
            d.branch(
                d.each("r", "Base"),
                d.each("s", "Base"),
                pred=d.eq(
                    d.a("r", "number"),
                    d.plus(d.a("s", "number"), d.param("k")),
                ),
                targets=[d.a("r", "number"), d.a("s", "number")],
            )
        )
        plan = compile_query(db, q, params={"k": 3})
        rows = plan.execute(ExecutionContext(db, params={"k": 3}))
        assert rows == {(i + 3, i) for i in range(27)}

    def test_unknown_executor_rejected(self):
        db = _wide_db(rows=20)
        plan = compile_query(db, _join_query())
        with pytest.raises(ValueError, match="unknown executor"):
            plan.execute(ExecutionContext(db), executor="vectorized")


class TestDatalogInheritsExecutor:
    def test_solve_compiled_columnar_matches_seminaive(self):
        program = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            """
        )
        rng = random.Random(4)
        edges = {(f"n{rng.randrange(12)}", f"n{rng.randrange(12)}") for _ in range(30)}
        engine = DatalogEngine(program, {"edge": set(edges)})
        semi = engine.solve("seminaive")
        for executor in ("batch", "rowbatch", "tuple"):
            compiled = engine.solve("compiled", options=ExecOptions(executor=executor))
            assert compiled["path"] == semi["path"], executor


class TestGroupedProbeApi:
    def test_one_bucket_dict_keyed_in_the_index_form(self):
        from repro.relational import HashIndex

        rows = [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x")]
        one = HashIndex((0,), rows)  # one column: the bare value
        assert "a" in one.buckets and ("a",) not in one.buckets
        assert one.buckets.get("b") == [("b", 3, "x")]
        assert one.buckets.get("missing") is None and one.lookup("missing") == []
        two = HashIndex((0, 2), rows)  # wider: the value tuple
        assert two.lookup(("a", "y")) == [("a", 2, "y")]
        assert ("b", "y") not in two.buckets
        whole = HashIndex((), rows)  # no columns: one bucket, row order
        assert whole.buckets == {(): rows}


class TestExplainUnderReplans:
    def test_per_operator_actuals_survive_replan(self):
        edges = e15_drift_edges(comps=4, sources=20, leaves=20)
        db = paper.cad_database(infront=edges, mutual=False)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system, options=ExecOptions(executor="batch"))
        program.run()
        assert program.replans >= 1
        text = program.explain()
        assert "HASHJOIN" in text and "act=" in text
        assert "DELTAAPPLY" in text
