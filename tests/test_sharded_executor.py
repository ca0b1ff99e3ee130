"""The sharded parallel backend: partitioning, registry, and explain().

Backend-specific structure tests on top of the cross-executor property
suite (``test_executor_properties.py``): version-cached shard views on
relations, the executor registry's extension point, shard-count
policy, per-shard/merged explain accounting (the dedup regression),
and the fixpoint driver's per-iteration delta partitioning.
"""

import dataclasses
import random

import pytest

from helpers import forced_shard_config, transitive_closure
from repro import paper
from repro.calculus import Evaluator, dsl as d
from repro.compiler import executors as executors_mod
from repro.compiler import (
    ExecutionContext,
    ExecutorBackend,
    PlanStats,
    ShardConfig,
    compile_fixpoint,
    compile_query,
    get_backend,
    register_backend,
    shard_count,
)
from repro.constructors import instantiate
from repro.relational import Database, partition_rows, partition_views
from repro.types import INTEGER, STRING, record, relation_type
from repro.compiler.options import ExecOptions

#: Run as CI's property step (``-m property``), not in its tier-1 step.
pytestmark = pytest.mark.property

WREC = record("wrec", k=STRING, n=INTEGER)


def _db(rows):
    db = Database("sharddb")
    db.declare("R", relation_type("rrel", WREC), rows)
    db.declare("T", relation_type("trel", WREC), {(f"k{i % 7}", i) for i in range(40)})
    return db


class TestPartitions:
    def test_partition_rows_cover_and_align(self):
        rows = [(f"k{i % 5}", i) for i in range(50)]
        parts = partition_rows(rows, (0,), 4)
        assert sum(len(p) for p in parts) == 50
        # same key -> same partition
        home = {}
        for i, part in enumerate(parts):
            for row in part:
                assert home.setdefault(row[0], i) == i

    def test_partition_views_build_local_indexes(self):
        rows = [(f"k{i % 5}", i) for i in range(50)]
        views = partition_views(rows, (0,), 3)
        for view in views:
            index = view.index_on((0,))
            assert index is view.index_on((0,))  # cached per view
            assert sum(len(b) for b in index.buckets.values()) == len(view)

    def test_relation_partitions_version_cached(self):
        db = _db({(f"k{i % 5}", i) for i in range(50)})
        relation = db["R"]
        first = relation.partitions(("k",), 3)
        assert relation.partitions(("k",), 3) is first  # cached
        assert relation.partitions(("k",), 2) is not first  # per (key, k)
        relation.insert([("fresh", 999)])
        rebuilt = relation.partitions(("k",), 3)
        assert rebuilt is not first  # version bump invalidates
        assert sum(len(v) for v in rebuilt) == 51


class TestShardCountPolicy:
    def test_below_min_rows_runs_unsharded(self):
        config = ShardConfig(workers=8, min_rows=1000, rows_per_shard=10)
        assert shard_count(999, config) == 1
        assert shard_count(1000, config) > 1

    def test_clamped_to_workers_and_granularity(self):
        config = ShardConfig(workers=4, min_rows=0, rows_per_shard=100)
        assert shard_count(150, config) == 2  # ceil(150/100)
        assert shard_count(100_000, config) == 4  # clamped to workers
        assert shard_count(50, ShardConfig(workers=1, min_rows=0)) == 1


class TestRegistry:
    def test_custom_backend_pluggable(self):
        calls = []

        class Recording(ExecutorBackend):
            name = "batch"  # shadow, then restore

            def execute_branch(self, branch, ctx, out, dedup=None):
                calls.append(branch)
                branch.execute_tuple(ctx, out)

        original = get_backend("batch")
        try:
            register_backend(Recording())
            db = _db({(f"k{i % 3}", i) for i in range(9)})
            q = d.query(d.branch(d.each("x", "R"), targets=[d.a("x", "k")]))
            rows = compile_query(db, q).execute(ExecutionContext(db))
            assert calls and rows == Evaluator(db).eval_query(q)
        finally:
            register_backend(original)

    def test_sharded_backend_lazily_registered(self):
        backend = get_backend("sharded")
        assert backend.name == "sharded"


class TestExplainShardAccounting:
    def test_merged_counts_are_dedup_aware(self):
        """Regression: the SHARDS line must report the distinct merged
        count, not the sum of per-shard outputs — 30 rows that all
        project to one target tuple report produced=30, merged=1."""
        db = _db({("a", i) for i in range(30)})
        q = d.query(d.branch(d.each("x", "R"), targets=[d.a("x", "k")]))
        plan = compile_query(db, q)
        ctx = ExecutionContext(db)
        ctx.shard_config = forced_shard_config()
        rows = plan.execute(ctx, executor="sharded")
        assert rows == {("a",)}
        report = plan.branches[0].shards
        assert report is not None and report.executions == 1
        assert report.k == 3
        assert report.produced_total == 30  # every row emitted exactly once
        assert report.merged_total == 1  # dedup-aware: no double counting
        assert sum(report.produced) == 30
        assert plan.dedup.actual_rows == 1
        text = plan.explain()
        assert "SHARDS k=3" in text
        assert "merged=1.0" in text and "produced=30.0" in text

    def test_shard_actuals_match_unsharded_totals(self):
        rng = random.Random(3)
        rows = {(f"k{rng.randrange(6)}", i) for i in range(80)}
        db = _db(rows)
        q = d.query(
            d.branch(
                d.each("x", "R"), d.each("y", "T"),
                pred=d.eq(d.a("x", "k"), d.a("y", "k")),
                targets=[d.a("x", "n"), d.a("y", "n")],
            )
        )
        sharded_plan = compile_query(db, q)
        ctx = ExecutionContext(db, stats=PlanStats())
        ctx.shard_config = forced_shard_config()
        sharded_rows = sharded_plan.execute(ctx, executor="sharded")
        plain_plan = compile_query(db, q)
        plain_rows = plain_plan.execute(ExecutionContext(db), executor="batch")
        assert sharded_rows == plain_rows
        # Per-step actuals and emitted totals agree with the unsharded run.
        assert sharded_plan.branches[0].actual_rows == plain_plan.branches[0].actual_rows
        assert (
            sharded_plan.branches[0].actual_emitted
            == plain_plan.branches[0].actual_emitted
        )
        report = sharded_plan.branches[0].shards
        assert report.produced_total == sharded_plan.branches[0].actual_emitted
        assert report.merged_total == len(sharded_rows)

    def test_small_input_skips_shard_report(self):
        db = _db({("a", 1), ("b", 2)})
        q = d.query(d.branch(d.each("x", "R"), targets=[d.a("x", "k")]))
        plan = compile_query(db, q)
        ctx = ExecutionContext(db)
        ctx.shard_config = ShardConfig(workers=4, min_rows=1000)
        rows = plan.execute(ctx, executor="sharded")
        assert rows == {("a",), ("b",)}
        assert plan.branches[0].shards is None  # ran unsharded
        assert "SHARDS" not in plan.explain()


class TestShardedFixpoint:
    def test_delta_partitioned_per_iteration(self):
        """The sharded fixpoint: deltas are split per iteration, answers
        match the unsharded run, and the differential plans carry shard
        reports (multiple executions — one per iteration)."""
        rng = random.Random(5)
        edges = sorted(
            {(f"n{rng.randrange(20)}", f"n{rng.randrange(20)}") for _ in range(60)}
        )
        db = paper.cad_database(infront=edges, mutual=False)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(
            db, system, options=ExecOptions(executor="sharded", shard_config=forced_shard_config())
        )
        values = program.run()
        assert set(values[system.root]) == transitive_closure(edges)
        (diff_plan,) = (diff.plan for diff in program.diff_plans.values())
        reports = [b.shards for b in diff_plan.branches if b.shards is not None]
        assert reports and any(r.executions >= 1 for r in reports)
        assert "SHARDS" in program.explain()

    def test_sharded_survives_midfixpoint_replan(self):
        from repro.bench.experiments import e15_drift_edges

        edges = e15_drift_edges(comps=3, sources=12, leaves=12)
        db = paper.cad_database(infront=edges, mutual=False)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(
            db, system, options=ExecOptions(executor="sharded", shard_config=forced_shard_config())
        )
        values = program.run()
        db2 = paper.cad_database(infront=edges, mutual=False)
        system2 = instantiate(db2, d.constructed("Infront", "ahead"))
        baseline = compile_fixpoint(db2, system2, options=ExecOptions(executor="batch")).run()
        assert values[system.root] == baseline[system2.root]
        assert program.replans >= 1


class TestShardConfigSurface:
    """Four knobs, validated; one inner pipeline (the columnar one)."""

    def test_fields_are_exactly_the_four_knobs(self):
        names = [f.name for f in dataclasses.fields(ShardConfig)]
        assert names == ["workers", "pool", "min_rows", "rows_per_shard"]
        with pytest.raises(TypeError, match="inner"):
            ShardConfig(**{"inner": "vector"})

    def test_misspelt_pool_is_rejected(self):
        # Used to construct fine and run on threads without a word.
        with pytest.raises(ValueError, match="'thread' or 'process'"):
            ShardConfig(pool="proces")
        assert ShardConfig(pool="process").pool == "process"
        assert ShardConfig().pool == "thread"

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_sharded_never_lowers_a_vector_pipeline(self, monkeypatch, pool):
        lowered = []
        monkeypatch.setattr(
            executors_mod.VectorBackend, "lowering", staticmethod(lowered.append)
        )
        db = _db({(f"k{i % 5}", i) for i in range(60)})
        q = d.query(
            d.branch(
                d.each("x", "R"), d.each("y", "T"),
                pred=d.eq(d.a("x", "k"), d.a("y", "k")),
                targets=[d.a("x", "n"), d.a("y", "n")],
            )
        )
        plan = compile_query(db, q)
        ctx = ExecutionContext(db)
        ctx.shard_config = ShardConfig(
            workers=3, min_rows=0, rows_per_shard=1, pool=pool
        )
        rows = plan.execute(ctx, executor="sharded")
        assert rows == plan.execute(ExecutionContext(db), executor="batch")
        assert plan.branches[0].shards.k == 3
        assert lowered == []


class TestUnknownExecutor:
    def test_rejected_through_registry(self):
        db = _db({("a", 1)})
        q = d.query(d.branch(d.each("x", "R")))
        plan = compile_query(db, q)
        with pytest.raises(ValueError, match="unknown executor"):
            plan.execute(ExecutionContext(db), executor="distributed")
