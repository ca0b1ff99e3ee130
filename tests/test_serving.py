"""Serving-layer tests: compiled session routing, prepared queries, the
plan cache, snapshot reads, and the writer/reader concurrency contract."""

import os
import threading

import pytest

from repro.compiler import EXECUTOR_NAMES, ShardConfig
from repro.dbpl import (
    DatabaseSnapshot,
    PlanCache,
    PreparedQuery,
    Session,
    parameterize,
    parse_expression,
)
from repro.errors import BindingError, TranslationError
from repro.relational.stats import PLAN_EPOCH_FLOOR
from repro.compiler.options import ExecOptions

SCHEMA = """
MODULE serving;

TYPE name       = STRING;
     factrec    = RECORD seq: INTEGER; fk: name; tag: name END;
     factrel    = RELATION seq OF factrec;
     dimrec     = RECORD k: name; grp: name; w: INTEGER END;
     dimrel     = RELATION k OF dimrec;
     annrec     = RECORD grp: name; note: name END;
     annrel     = RELATION grp, note OF annrec;

VAR Fact:  factrel;
    Dim:   dimrel;
    Ann:   annrel;

SELECTOR tagged (T: name) FOR Rel: factrel;
BEGIN EACH f IN Rel: f.tag = T END tagged;

END serving.
"""

JOIN3 = (
    "{<f.seq, g.w, h.note> OF EACH f IN Fact, EACH g IN Dim, EACH h IN Ann: "
    'f.fk = g.k AND g.grp = h.grp AND g.w >= 40}'
)


CLOSURE_SCHEMA = """
TYPE prec = RECORD front, back: STRING END;
     prel = RELATION front, back OF prec;
VAR Infront: prel;
CONSTRUCTOR ahead FOR Rel: prel (): prel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, a.back> OF EACH r IN Rel,
           EACH a IN Rel{ahead()}: r.back = a.front
END ahead;
CONSTRUCTOR hop FOR Rel: prel (): prel;
BEGIN <a.front, b.back> OF EACH a IN Rel, EACH b IN Rel: a.back = b.front
END hop;
"""

CLOSURE = {("table", "chair"), ("chair", "door"), ("table", "door")}


def closure_session() -> Session:
    s = Session()
    s.execute(CLOSURE_SCHEMA)
    s.insert("Infront", [("table", "chair"), ("chair", "door")])
    return s


def make_session(**kwargs) -> Session:
    s = Session(**kwargs)
    s.execute(SCHEMA)
    s.assign(
        "Fact",
        [(i, f"k{i % 7}", "hot" if i % 3 else "cold") for i in range(60)],
    )
    s.assign("Dim", [(f"k{j}", f"g{j % 3}", j * 20) for j in range(7)])
    s.assign("Ann", [(f"g{j}", f"note{j}") for j in range(3)])
    return s


class TestCompiledRouting:
    """Satellite 1: the front door runs the compiled executor pipeline."""

    def test_query_answers_match_interpreted_on_every_backend(self):
        s = make_session()
        sources = [
            JOIN3,
            '{EACH f IN Fact: f.tag = "hot"}',
            "{EACH g IN Dim: g.w > 40 AND g.w < 120}",
            "Fact",
            'Fact[tagged("cold")]',
        ]
        for source in sources:
            reference = s.query(source, mode="interpreted")
            for executor in EXECUTOR_NAMES:
                assert s.query(source, options=ExecOptions(executor=executor)) == reference, (
                    source,
                    executor,
                )

    def test_default_path_populates_the_plan_cache(self):
        s = make_session()
        s.query(JOIN3)
        assert s.plan_cache.misses == 1
        s.query(JOIN3)
        assert s.plan_cache.hits == 1

    def test_interpreted_mode_bypasses_the_cache(self):
        s = make_session()
        s.query(JOIN3, mode="interpreted")
        assert s.plan_cache.misses == 0 and len(s.plan_cache) == 0

    def test_session_level_executor_default(self):
        s = make_session(options=ExecOptions(executor="tuple"))
        assert s.query(JOIN3) == s.query(JOIN3, mode="interpreted")
        (key,) = s.plan_cache.keys()
        assert key[1] == "tuple"

    def test_unknown_executor_raises(self):
        s = make_session()
        with pytest.raises(ValueError):
            s.query(JOIN3, options=ExecOptions(executor="warp-drive"))

    def test_compile_fallback_keeps_answers(self):
        # ALL-quantified predicates exercise the residual-evaluation path;
        # whatever the compiler does with them, answers must match the
        # reference evaluator.
        s = make_session()
        source = "{EACH g IN Dim: ALL h IN Ann (g.grp = h.grp OR g.w > 100)}"
        assert s.query(source) == s.query(source, mode="interpreted")


class TestParameterize:
    def test_extracts_compared_constants_in_order(self):
        node = parse_expression(
            '{EACH f IN Fact: f.tag = "hot" AND f.seq >= 10}'
        )
        shape, constants = parameterize(node)
        assert constants == ("hot", 10)

    def test_shapes_share_across_constants(self):
        a = parse_expression('{EACH f IN Fact: f.tag = "hot"}')
        b = parse_expression('{EACH f IN Fact: f.tag = "cold"}')
        assert parameterize(a)[0] == parameterize(b)[0]

    def test_target_constants_stay_in_the_shape(self):
        a = parse_expression('{<f.seq, "x"> OF EACH f IN Fact: TRUE}')
        b = parse_expression('{<f.seq, "y"> OF EACH f IN Fact: TRUE}')
        assert parameterize(a)[0] != parameterize(b)[0]


class TestPreparedQueries:
    """Tentpole: compile once, rebind constants per execution."""

    def test_prepared_matches_interpreted(self):
        s = make_session()
        assert s.prepare(JOIN3).execute() == s.query(JOIN3, mode="interpreted")

    def test_repeat_execution_skips_recompilation(self):
        s = make_session()
        prepared = s.prepare(JOIN3)
        for _ in range(5):
            prepared.execute()
        assert prepared.executions == 5
        # Preparing the same shape again is a cache hit, same plan object.
        again = s.prepare(JOIN3)
        assert again.plan is prepared.plan
        assert s.plan_cache.hits >= 1 and s.plan_cache.misses == 1

    def test_rebinding_different_constants(self):
        s = make_session()
        prepared = s.prepare('{EACH f IN Fact: f.tag = "hot"}')
        hot = prepared.execute()
        cold = prepared.execute("cold")
        assert hot == s.query('{EACH f IN Fact: f.tag = "hot"}', mode="interpreted")
        assert cold == s.query('{EACH f IN Fact: f.tag = "cold"}', mode="interpreted")
        # No-arg execution reverts to the constants of the prepared text.
        assert prepared.execute() == hot

    def test_bind_returns_independent_handle_on_shared_plan(self):
        s = make_session()
        hot = s.prepare('{EACH f IN Fact: f.tag = "hot"}')
        cold = hot.bind("cold")
        assert isinstance(cold, PreparedQuery)
        assert cold.plan is hot.plan
        assert cold.execute() == s.query(
            '{EACH f IN Fact: f.tag = "cold"}', mode="interpreted"
        )
        assert hot.execute() == s.query(
            '{EACH f IN Fact: f.tag = "hot"}', mode="interpreted"
        )

    def test_wrong_arity_raises(self):
        s = make_session()
        prepared = s.prepare('{EACH f IN Fact: f.tag = "hot"}')
        with pytest.raises(BindingError):
            prepared.execute("a", "b")
        with pytest.raises(BindingError):
            prepared.bind()

    def test_prepare_bare_and_selected_ranges(self):
        s = make_session()
        assert s.prepare("Fact").execute() == s.query("Fact", mode="interpreted")
        assert s.prepare('Fact[tagged("hot")]').execute() == s.query(
            'Fact[tagged("hot")]', mode="interpreted"
        )

    def test_constructed_ranges_prepare_and_reexecute(self):
        s = closure_session()
        bare = s.prepare("Infront{ahead()}")
        assert bare.param_count == 0
        assert bare.execute() == s.query("Infront{ahead()}") == CLOSURE
        behind = s.prepare(
            '{<r.back> OF EACH r IN Infront{ahead()}: r.front = "table"}'
        )
        assert behind.execute() == {("chair",), ("door",)}
        assert behind.execute("chair") == {("door",)}  # rebound, same program
        assert behind.plan.statement.fixpoints
        # The cached program re-runs against live state: never stale.
        s.insert("Infront", [("door", "wall")])
        assert behind.execute("chair") == {("door",), ("wall",)}
        assert bare.execute() == s.query("Infront{ahead()}", mode="interpreted")
        assert bare.executions == 3 and not any(s.fallbacks.values())
        assert len(s.plan_cache) == 2  # one entry per shape


class TestPlanCache:
    """Satellite 4: hits, epoch invalidation, bounded eviction."""

    def test_hit_on_repeat_query(self):
        s = make_session()
        s.query(JOIN3)
        s.query(JOIN3)
        s.query(JOIN3)
        assert s.plan_cache.misses == 1 and s.plan_cache.hits == 2

    def test_constants_share_one_entry(self):
        s = make_session()
        s.query('{EACH f IN Fact: f.tag = "hot"}')
        s.query('{EACH f IN Fact: f.tag = "cold"}')
        assert len(s.plan_cache) == 1 and s.plan_cache.hits == 1

    def test_miss_after_stats_epoch_moves(self):
        s = make_session()
        s.query(JOIN3)
        assert s.plan_cache.misses == 1
        # Small writes must NOT invalidate...
        s.insert("Fact", [(1000, "k0", "hot")])
        s.query(JOIN3)
        assert s.plan_cache.hits == 1 and s.plan_cache.invalidations == 0
        # ...but drifting past the staleness floor must.
        s.insert(
            "Fact",
            [(2000 + i, "k1", "hot") for i in range(2 * PLAN_EPOCH_FLOOR)],
        )
        s.query(JOIN3)
        assert s.plan_cache.misses == 2
        assert s.plan_cache.invalidations >= 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), "plan-a", epoch=0)
        cache.put(("b",), "plan-b", epoch=0)
        assert cache.get(("a",), epoch=0) == "plan-a"  # refresh a
        cache.put(("c",), "plan-c", epoch=0)  # evicts b, the LRU entry
        assert cache.evictions == 1
        assert cache.get(("b",), epoch=0) is None
        assert cache.get(("a",), epoch=0) == "plan-a"
        assert cache.get(("c",), epoch=0) == "plan-c"

    def test_zero_capacity_disables_caching(self):
        s = make_session(plan_cache_size=0)
        s.query(JOIN3)
        s.query(JOIN3)
        assert s.plan_cache.hits == 0 and s.plan_cache.misses == 2
        assert len(s.plan_cache) == 0

    def test_first_store_wins_on_racing_compiles(self):
        cache = PlanCache(capacity=4)
        assert cache.put(("k",), "first", epoch=0) == "first"
        assert cache.put(("k",), "second", epoch=0) == "first"


class TestSnapshots:
    """Tentpole: version-stamped repeatable reads."""

    def test_snapshot_is_version_stamped(self):
        s = make_session()
        snap = s.snapshot()
        v = snap.version("Fact")
        s.insert("Fact", [(900, "k0", "hot")])
        assert s.relation("Fact").version == v + 1
        assert snap.version("Fact") == v

    def test_snapshot_query_ignores_later_writes(self):
        s = make_session()
        before = s.query(JOIN3)
        snap = s.snapshot()
        s.insert("Fact", [(901 + i, "k3", "hot") for i in range(50)])
        assert s.query(JOIN3, options=ExecOptions(snapshot=snap)) == before
        assert s.query(JOIN3) != before

    def test_snapshot_applies_to_prepared_queries(self):
        s = make_session()
        prepared = s.prepare('{EACH f IN Fact: f.tag = "hot"}')
        snap = s.snapshot()
        pinned = prepared.execute(snapshot=snap)
        s.insert("Fact", [(950, "k2", "hot")])
        assert prepared.execute(snapshot=snap) == pinned
        assert len(prepared.execute()) == len(pinned) + 1

    def test_snapshot_consistent_across_all_backends(self):
        s = make_session()
        snap = s.snapshot()
        expected = s.query(JOIN3, options=ExecOptions(snapshot=snap))
        s.insert("Fact", [(960 + i, "k1", "hot") for i in range(40)])
        for executor in EXECUTOR_NAMES:
            assert s.query(JOIN3, options=ExecOptions(executor=executor, snapshot=snap)) == expected

    @pytest.mark.parametrize(
        "pool",
        [
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not hasattr(os, "fork"), reason="no fork: threads + DBPL902"
                ),
            ),
        ],
    )
    def test_sharded_executor_shards_the_pinned_state(self, pool):
        """A snapshot execution under ``executor="sharded"`` shards, and
        the split lead, the aligned build side and the source no shard
        splits all read pinned rows only; it used to run unsharded and
        report a fallback."""
        join = (
            "{<f.seq, g.w, h.note> OF EACH f IN Fact, EACH g IN Dim, "
            "EACH h IN Ann: f.fk = g.k AND g.grp = h.grp}"
        )
        s = make_session()
        config = ShardConfig(workers=3, min_rows=0, rows_per_shard=1, pool=pool)
        prepared = s.prepare(
            join, options=ExecOptions(executor="sharded", shard_config=config)
        )
        batch = ExecOptions(executor="batch")
        before = s.query(join, options=batch)
        snap = s.snapshot()
        s.insert("Fact", [(900 + i, f"k{i % 9}", "hot") for i in range(100)])
        s.relation("Fact").delete([(0, "k0", "cold")])
        s.insert("Dim", [("k7", "g1", 140), ("k8", "g2", 160)])
        s.relation("Dim").delete([("k2", "g2", 40)])
        s.insert("Ann", [("g0", "extra")])
        s.relation("Ann").delete([("g1", "note1")])
        assert prepared.execute(snapshot=snap) == before
        live = prepared.execute()
        assert live == s.query(join, options=batch) and live != before
        assert prepared.execute(snapshot=snap) == before  # and again, after a live run
        assert "SHARDS k=3" in prepared.explain()
        assert not any(s.fallbacks.values()), s.fallbacks

    def test_snapshot_that_cannot_be_honoured_is_refused(self, monkeypatch):
        """Fixpoint programs and the interpreted paths read live state;
        they used to take the snapshot and answer from live rows."""
        s = closure_session()
        set_former = '{EACH r IN Infront: r.front <> "vase"}'
        snapshot = s.snapshot()
        pinned = ExecOptions(snapshot=snapshot)
        s.insert("Infront", [("door", "wall")])
        assert len(s.query(set_former, options=pinned)) == 2  # honoured
        # A statement that runs a fixpoint is refused on every spelling:
        # bare, inside a set former (it used to answer from live rows),
        # query() or a prepared handle.
        over_closure = '{EACH r IN Infront{ahead()}: r.front = "table"}'
        for source in ("Infront{ahead()}", over_closure):
            with pytest.raises(ValueError, match="snapshot"):
                s.query(source, options=pinned)
            with pytest.raises(ValueError, match="snapshot"):
                s.prepare(source).execute(snapshot=snapshot)
        # A non-recursive application inlined away leaves only scans.
        inlined = '{EACH r IN Infront{hop()}: r.front = "chair"}'
        assert s.query(inlined, options=pinned) == set()
        assert s.query(inlined) == {("chair", "wall")}
        assert s.prepare(inlined).execute(snapshot=snapshot) == set()
        with pytest.raises(ValueError, match="snapshot"):
            s.query(set_former, mode="interpreted", options=pinned)
        # ... and so is the interpreted *fallback* of a set former.
        def boom(node, options):
            raise TranslationError("untranslatable shape")

        monkeypatch.setattr(s, "_prepared_plan", boom)
        with pytest.raises(ValueError, match="snapshot"):
            s.query(set_former, options=pinned)
        assert len(s.query(set_former)) == 3  # unpinned: falls back as before
        assert s.fallbacks["interpreted"] == 1

    def test_snapshot_of_database_object(self):
        s = make_session()
        snap = DatabaseSnapshot(s.db)
        assert set(snap.views) == {"Fact", "Dim", "Ann"}
        assert len(snap.rows("Dim")) == 7


class TestTornReads:
    """Satellite 2: a writer mutating mid-iteration must never tear a
    reader — no exceptions, no phantom (uncommitted-state) rows."""

    N_ROWS = 400
    N_ROUNDS = 60

    def _stress(self, read_once):
        s = Session()
        s.execute(
            """
            MODULE torn;
            TYPE rec = RECORD a, b: INTEGER END;
                 rel = RELATION a OF rec;
            VAR R: rel;
            END torn.
            """
        )
        s.assign("R", [(i, 0) for i in range(self.N_ROWS)])
        stop = threading.Event()
        errors = []

        def writer():
            generation = 0
            while not stop.is_set():
                generation += 1
                # One atomic commit: every row moves to `generation`.
                s.assign("R", [(i, generation) for i in range(self.N_ROWS)])

        def reader():
            try:
                for _ in range(self.N_ROUNDS):
                    rows = read_once(s)
                    assert len(rows) == self.N_ROWS, "phantom or lost rows"
                    generations = {b for _, b in rows}
                    assert len(generations) == 1, (
                        f"torn read across commits: {sorted(generations)[:4]}"
                    )
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join()
        stop.set()
        threads[0].join()
        assert not errors, errors[0]

    def test_raw_list_iteration_is_never_torn(self):
        self._stress(lambda s: list(s.relation("R").raw_list()))

    def test_snapshot_reads_are_never_torn(self):
        def read(s):
            snap = s.snapshot()
            return snap.rows("R")

        self._stress(read)

    def test_compiled_snapshot_queries_under_writer_churn(self):
        def read(s):
            snap = s.snapshot()
            return list(s.query("{EACH r IN R: r.a >= 0}", options=ExecOptions(snapshot=snap)))

        self._stress(read)


class TestConcurrentServing:
    """CI stress: mixed prepared reads and writes from many threads."""

    def test_threaded_clients_share_the_plan_cache(self):
        s = make_session()
        reference = s.query(JOIN3, mode="interpreted")
        errors = []

        def client():
            try:
                prepared = s.prepare(JOIN3)
                for _ in range(8):
                    assert prepared.execute() is not None
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        # All clients converged on one compiled plan.
        assert len(s.plan_cache) == 1
        assert s.query(JOIN3) == reference

    def test_readers_survive_concurrent_inserts(self):
        s = make_session()
        stop = threading.Event()
        errors = []

        def writer():
            seq = 10_000
            while not stop.is_set():
                seq += 1
                s.insert("Fact", [(seq, f"k{seq % 7}", "hot")])

        def reader():
            try:
                prepared = s.prepare(JOIN3)
                snap_rows = None
                for i in range(40):
                    if i % 4 == 0:
                        snap = s.snapshot()
                        snap_rows = prepared.execute(snapshot=snap)
                        again = prepared.execute(snapshot=snap)
                        assert again == snap_rows, "snapshot not repeatable"
                    else:
                        prepared.execute()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join()
        stop.set()
        threads[0].join()
        assert not errors, errors[0]


class TestStatsEpoch:
    def test_epoch_stable_under_small_writes(self):
        s = make_session()
        e0 = s.db.stats.epoch()
        s.insert("Fact", [(5000, "k0", "hot")])
        assert s.db.stats.epoch() == e0

    def test_epoch_moves_past_staleness_threshold(self):
        s = make_session()
        e0 = s.db.stats.epoch()
        s.insert(
            "Fact",
            [(6000 + i, "k0", "hot") for i in range(2 * PLAN_EPOCH_FLOOR)],
        )
        assert s.db.stats.epoch() > e0

    def test_epoch_moves_when_relations_appear(self):
        s = make_session()
        e0 = s.db.stats.epoch()
        s.execute(
            """
            MODULE extra;
            TYPE xrec = RECORD x: INTEGER END;
                 xrel = RELATION x OF xrec;
            VAR Extra: xrel;
            END extra.
            """
        )
        assert s.db.stats.epoch() > e0

    def test_bump_epoch_forces_invalidation(self):
        s = make_session()
        s.query(JOIN3)
        s.db.stats.bump_epoch()
        s.query(JOIN3)
        assert s.plan_cache.misses == 2
