"""Out-of-core columnar storage: format round-trips, scan-time pushdown,
partition pruning, persisted statistics, and the observable-degradation
satellite (DBPL902) that rode along with PR 10.  What a *damaged* store
does is the flat fault table of ``test_storage_faults.py``."""

import json
import os

import pytest

from repro.compiler import ExecutionContext, ShardConfig, compile_query
from repro.compiler.options import ExecOptions
from repro.dbpl import Session, parse_expression
from repro.errors import StorageError
from repro.relational import (
    Database,
    open_database,
)
from repro.types import INTEGER, STRING, record, relation_type

PERSON = record("person", name=STRING, age=INTEGER, city=STRING)
PEOPLE = relation_type("people", PERSON, key=("name",))

FRIEND = record("friend", a=STRING, b=STRING)
FRIENDS = relation_type("friends", FRIEND)


def make_people_db(n: int = 1000) -> Database:
    """Rows sorted by name at spill time, so name ranges cluster into
    partitions and predicate pushdown has something to prune."""
    db = Database("folk")
    db.declare(
        "People",
        PEOPLE,
        [(f"p{i:04d}", i % 37, f"c{i % 7}") for i in range(n)],
    )
    db.declare(
        "Friends",
        FRIENDS,
        [(f"p{i:04d}", f"p{(i * 7) % n:04d}") for i in range(0, n, 3)],
    )
    return db


@pytest.fixture
def spilled(tmp_path):
    """(warm db, spilled path) with 10 partitions of 100 People rows."""
    db = make_people_db()
    path = str(tmp_path / "folk")
    db.spill(path, rows_per_partition=100)
    return db, path


SELECTIVE = '{EACH p IN People: p.name >= "p0900"}'
PROJECTED = '{<p.name> OF EACH p IN People: p.name >= "p0900"}'
JOIN = (
    '{<p.name, f.b> OF EACH p IN People, EACH f IN Friends: '
    'p.name = f.a AND p.name >= "p0900"}'
)


class TestFormatRoundTrip:
    def test_reopened_rows_equal_spilled_rows(self, spilled):
        db, path = spilled
        cold = open_database(path)
        for name in ("People", "Friends"):
            assert set(cold.relation(name)) == set(db.relation(name))

    def test_reopen_answers_len_without_scanning(self, spilled):
        db, path = spilled
        cold = open_database(path)
        rel = cold.relation("People")
        assert len(rel) == len(db.relation("People"))
        assert not rel.is_empty()
        assert rel.is_cold  # len() came from the manifest, not a scan

    def test_non_database_directory_is_rejected(self, tmp_path):
        bogus = tmp_path / "not-a-db"
        bogus.mkdir()
        (bogus / "meta.json").write_text('{"format": "something-else"}')
        with pytest.raises(StorageError, match="not a repro-columnar"):
            open_database(str(bogus))

    def test_insert_stays_cold_and_queryable(self, spilled):
        db, path = spilled
        cold = open_database(path)
        rel = cold.relation("People")
        store = rel.cold_store
        rel.insert([("zz99", 99, "c0")])
        # The manifest's bounds exclude the key: no page is read and the
        # row waits in the in-memory tail.
        assert rel.is_cold
        assert store.counters.partitions_read == 0
        assert rel.cold_store is None  # pushdown turns off after writes
        assert ("zz99", 99, "c0") in rel
        assert len(rel) == len(db.relation("People")) + 1


class TestPushdown:
    def test_selective_scan_reads_one_partition(self, spilled):
        db, path = spilled
        cold = open_database(path)
        store = cold.relation("People").cold_store
        store.counters.reset()
        expected = Session(db).query(SELECTIVE)
        got = Session(cold).query(SELECTIVE)
        assert got == expected and len(got) == 100
        counters = store.counters.snapshot()
        assert counters["partitions_read"] == 1
        assert counters["partitions_pruned"] == 9
        assert cold.relation("People").is_cold

    def test_pushdown_beats_full_materialize_5x(self, spilled):
        db, path = spilled
        cold = open_database(path)
        store = cold.relation("People").cold_store
        store.counters.reset()
        Session(cold).query(PROJECTED)
        pushdown = store.counters.snapshot()
        store.counters.reset()
        cold.relation("People").rows()  # full materialization, all columns
        full = store.counters.snapshot()
        assert full["cells_decoded"] >= 5 * pushdown["cells_decoded"]
        assert full["rows_decoded"] >= 5 * pushdown["rows_decoded"]
        assert full["bytes_read"] >= 5 * pushdown["bytes_read"]

    def test_projection_skips_dead_columns(self, spilled):
        _db, path = spilled
        cold = open_database(path)
        store = cold.relation("People").cold_store
        store.counters.reset()
        got = Session(cold).query('{<p.city> OF EACH p IN People: TRUE}')
        assert got == {(f"c{i}",) for i in range(7)}
        counters = store.counters.snapshot()
        # Only the projected column decodes; the name/age pages are
        # seeked past entirely.
        assert counters["rows_decoded"] == 1000
        assert counters["cells_decoded"] == 1000

    def test_every_executor_agrees_on_the_cold_database(self, spilled):
        db, path = spilled
        expected = Session(db).query(JOIN)
        for executor in ("tuple", "rowbatch", "batch", "vector", "sharded"):
            cold = open_database(path)
            got = Session(cold).query(
                JOIN, options=ExecOptions(executor=executor)
            )
            assert got == expected, executor

    def test_parameterized_pushdown_resolves_per_execution(self, spilled):
        db, path = spilled
        cold = open_database(path)
        store = cold.relation("People").cold_store
        prepared = Session(cold).prepare(SELECTIVE)
        store.counters.reset()
        assert prepared.execute('p0900') == Session(db).query(SELECTIVE)
        assert store.counters.partitions_pruned == 9
        store.counters.reset()
        low = prepared.execute('p0000')
        assert len(low) == 1000  # rebound slot widens the scan again
        assert store.counters.partitions_pruned == 0

    def test_explain_reports_pushdown(self, spilled):
        _db, path = spilled
        cold = open_database(path)
        plan = compile_query(cold, parse_expression(PROJECTED))
        text = plan.explain()
        assert "pushdown[" in text

    def test_scan_cost_discount_prices_pruned_scans(self, spilled):
        _db, path = spilled
        cold = open_database(path)
        rel = cold.relation("People")
        fraction = rel.scan_cost_fraction(((0, ">=", "p0900"),))
        assert fraction == pytest.approx(0.1)
        assert rel.scan_cost_fraction(()) == 1.0


class TestPersistedStats:
    def test_reopened_stats_match_warm_stats(self, spilled):
        db, path = spilled
        warm = db.relation("People").stats()
        cold_rel = open_database(path).relation("People")
        cold = cold_rel.stats()
        assert cold.row_count == warm.row_count
        assert [c.distinct for c in cold.columns] == [
            c.distinct for c in warm.columns
        ]
        assert cold_rel.is_cold  # the stats.json summary, not a scan

    def test_reopened_database_plans_like_the_warm_one(self, spilled):
        # No pruning predicate here: partition pruning legitimately
        # re-orders joins (the discounted scan becomes the cheaper
        # lead), so plan-shape parity is only promised for queries
        # whose costs depend on the persisted statistics alone.
        db, path = spilled
        cold = open_database(path)
        query = parse_expression(
            '{<p.name, f.b> OF EACH p IN People, EACH f IN Friends: '
            'p.name = f.a}'
        )
        warm_plan = compile_query(db, query)
        cold_plan = compile_query(cold, query)

        def shape(plan):
            return [
                [
                    (step.source.describe(), tuple(step.key_positions))
                    for step in branch.steps
                ]
                for branch in plan.branches
            ]

        assert shape(cold_plan) == shape(warm_plan)
        assert cold.relation("People").is_cold
        assert cold.relation("Friends").is_cold

    def test_epoch_and_plan_cache_work_before_any_scan(self, spilled):
        _db, path = spilled
        cold = open_database(path)
        epoch = cold.stats.epoch()
        assert cold.stats.epoch() == epoch  # stable while nothing changes
        assert cold.relation("People").is_cold
        s = Session(cold)
        s.query(SELECTIVE)
        s.query(SELECTIVE)
        assert s.plan_cache.hits >= 1


class TestPageCodec:
    def test_non_bin_page_in_manifest_raises(self, spilled):
        # ``.bin`` is the only page codec: a manifest entry naming any
        # other page file is rejected by name, never opened or guessed at.
        _db, path = spilled
        meta_path = os.path.join(path, "People", "meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["partitions"][0]["file"] = "part-0000.parquet"
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        cold = open_database(path)
        with pytest.raises(StorageError, match=r"part-0000\.parquet.*\.bin"):
            cold.relation("People").rows()


class TestOneWalk:
    def test_encoded_table_is_encoded_scan_with_nothing_pushed(self, spilled):
        _db, path = spilled
        store = open_database(path).relation("People").cold_store
        table, scan = store.encoded_table(), store.encoded_scan()
        assert table.n == scan.n == 1000
        assert table.rows == scan.rows == store.scan()
        for left, right in zip(table.columns, scan.columns):
            assert left.ids == right.ids and left.ids.typecode == "q"

    def test_sharded_cold_lead_prunes_and_stays_cold(self, spilled):
        # The shard planner reads a cold lead through the same pushed-down
        # scan as any other backend: pruning composes with sharding.
        db, path = spilled
        cold = open_database(path)
        store = cold.relation("People").cold_store
        plan = compile_query(cold, parse_expression(SELECTIVE))
        expected = plan.execute(ExecutionContext(cold), executor="batch")
        assert expected == Session(db).query(SELECTIVE)
        store.counters.reset()
        ctx = ExecutionContext(cold)
        ctx.shard_config = ShardConfig(workers=3, min_rows=0, rows_per_shard=1)
        got = plan.execute(ctx, executor="sharded")
        assert got == expected
        assert store.counters.partitions_pruned == 9
        assert store.counters.partitions_read == 1
        assert cold.relation("People").is_cold
        assert "SHARDS k=3" in plan.explain()


class TestObservableDegradations:
    def test_process_pool_degrade_counts_with_dbpl902(self, monkeypatch):
        diags = []
        s = Session(make_people_db(), on_diagnostic=diags.append)
        config = ShardConfig(
            workers=3, min_rows=0, rows_per_shard=1, pool="process"
        )
        monkeypatch.delattr(os, "fork", raising=False)
        s.query(
            SELECTIVE,
            options=ExecOptions(executor="sharded", shard_config=config),
        )
        assert s.fallbacks["process_pool"] == 1
        assert [d.code for d in diags] == ["DBPL902"]

    def test_fallback_counters_cover_the_new_kinds(self):
        s = Session(make_people_db())
        assert s.fallbacks["process_pool"] == 0
