"""Serving-layer tests: compiled session routing, prepared queries, the
plan cache, snapshot reads, and the writer/reader concurrency contract."""

import os
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.checks as checks_module
import repro.compiler.plans as plans_module
import repro.dbpl.parser as parser_module
import repro.dbpl.session as session_module
from helpers import FRONT_DOOR_SCHEMA, FRONT_DOOR_TEMPLATES, random_front_door_session
from repro.compiler import EXECUTOR_NAMES, ShardConfig
from repro.dbpl import (
    DatabaseSnapshot,
    PlanCache,
    PreparedQuery,
    Session,
    parameterize,
    parse_expression,
    tokenize,
)
from repro.dbpl.serving import BARE_RANGES, range_query, token_shape
from repro.errors import BindingError
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


SNAPSHOT_SCHEMA = """
TYPE rrec = RECORD a, b: INTEGER END;
     rrel = RELATION ... OF rrec;
VAR R: rrel; S: rrel;
SELECTOR known FOR Rel: rrel;
BEGIN EACH t IN Rel: SOME u IN S (u.a = t.a) END known;
CONSTRUCTOR tc FOR Rel: rrel (): rrel;
BEGIN EACH r IN Rel: TRUE,
      <r.a, t.b> OF EACH r IN Rel, EACH t IN Rel{tc()}: r.b = t.a
END tc;
CONSTRUCTOR from FOR Rel: rrel (x: INTEGER): rrel;
BEGIN EACH r IN Rel: r.a = x,
      <t.a, r.b> OF EACH t IN Rel{from(x)}, EACH r IN Rel: t.b = r.a
END from;
"""


def _churn(s):
    """Deletes and inserts after the snapshot: S (1,10), (2,1) → (2,50)."""
    s.relation("S").delete([(1, 10), (2, 1)])
    s.insert("S", [(2, 50)])
    s.insert("R", [(3, 3)])


def _cut_path(s):
    s.relation("S").delete([(2, 3)])
    s.insert("R", [(3, 3)])


#: (query, initial S, the writes after the snapshot), one per reader a
#: snapshot read must pin; R starts as {(1,1), (2,2)}.
SNAPSHOT_SHAPES = (
    ("{EACH r IN R: SOME t IN S (t.a = r.a)}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN R: ALL t IN S (t.a <> r.a OR t.b > 100)}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN R: r.a IN {<t.a> OF EACH t IN S: TRUE}}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN R: SOME t IN S (t.a = r.a AND t.b > r.b)}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN R[known()]: TRUE}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN R: SOME t IN S{from(r.a)} (t.b = 3)}", [(1, 2), (2, 3)], _cut_path),
    ("S{tc()}", [(1, 10), (2, 1)], _churn),
    ("{EACH r IN S{tc()}: r.a = 1}", [(1, 10), (2, 1)], _churn),
)


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
        v = snap["Fact"].version
        s.insert("Fact", [(900, "k0", "hot")])
        assert s.relation("Fact").version == v + 1
        assert snap["Fact"].version == v

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

    def test_snapshot_pins_every_reader(self):
        """Every reader of a snapshot read sees the pinned state: scans,
        grouped and complement probes, memberships, the residual
        evaluator, selector predicates, open applications and fixpoint
        programs, on every executor and every door.  Residuals and
        selectors used to read live rows; fixpoints and the interpreted
        mode used to refuse the snapshot."""
        for shape, rows, write in SNAPSHOT_SHAPES:
            s = Session()
            s.execute(SNAPSHOT_SCHEMA)
            s.insert("R", [(1, 1), (2, 2)])
            s.insert("S", rows)
            expected = s.query(shape, mode="interpreted")
            snapshot = s.snapshot()
            pinned = ExecOptions(snapshot=snapshot)
            write(s)
            assert s.query(shape, mode="interpreted") != expected, shape
            assert s.query(shape, mode="interpreted", options=pinned) == expected, shape
            for executor in EXECUTOR_NAMES:
                options = ExecOptions(executor=executor)
                got = s.query(shape, options=pinned.over(options))
                assert got == expected, (shape, executor)
                got = s.prepare(shape, options=options).execute(snapshot=snapshot)
                assert got == expected, (shape, executor, "prepared")
                assert s.query(shape, options=options) != expected, (shape, executor)

    def test_held_value_follows_the_snapshot(self):
        """A snapshot read of a fixpoint statement goes through the held
        value's hit/resume/recompute rule: the snapshot's heads equal to
        the stamp hit, an older state runs from empty, and the next live
        read resumes from there."""
        s = Session()
        s.execute(FRONT_DOOR_SCHEMA)
        s.insert("E", [("a", "b"), ("b", "c")])
        prepared = s.prepare("E{tc()}")
        (program,) = prepared.plan.statement.fixpoints.values()
        at_snapshot = prepared.execute()
        snapshot = s.snapshot()
        s.insert("E", [("c", "d")])
        assert prepared.execute(snapshot=snapshot) == at_snapshot
        assert program.last == ("hit", 0)
        live = prepared.execute()
        assert program.last == ("resumed", 1) and live > at_snapshot
        assert prepared.execute(snapshot=snapshot) == at_snapshot
        assert program.last == ("recomputed", 0)
        assert prepared.execute() == live
        assert program.last == ("resumed", 1)

    def test_snapshot_of_a_closure_session(self):
        s = closure_session()
        set_former = '{EACH r IN Infront: r.front <> "vase"}'
        snapshot = s.snapshot()
        pinned = ExecOptions(snapshot=snapshot)
        s.insert("Infront", [("door", "wall")])
        assert len(s.query(set_former, options=pinned)) == 2
        # A statement that runs a fixpoint, bare or inside a set former,
        # through query() or a prepared handle.
        over_closure = '{EACH r IN Infront{ahead()}: r.front = "table"}'
        for source, answer in (
            ("Infront{ahead()}", CLOSURE),
            (over_closure, {r for r in CLOSURE if r[0] == "table"}),
        ):
            assert s.query(source, options=pinned) == answer
            assert s.prepare(source).execute(snapshot=snapshot) == answer
            assert s.query(source) != answer
        # A non-recursive application inlined away leaves only scans.
        inlined = '{EACH r IN Infront{hop()}: r.front = "chair"}'
        assert s.query(inlined, options=pinned) == set()
        assert s.query(inlined) == {("chair", "wall")}
        assert s.prepare(inlined).execute(snapshot=snapshot) == set()
        assert len(s.query(set_former, mode="interpreted", options=pinned)) == 2
        # Only subscriptions, which maintain live state, refuse one.
        with pytest.raises(ValueError, match="snapshot"):
            s.subscribe(set_former, options=pinned)

    def test_snapshot_of_database_object(self):
        s = make_session()
        snap = DatabaseSnapshot(s.db)
        assert set(snap.relations) == {"Fact", "Dim", "Ann"}
        assert len(snap["Dim"].raw_list()) == 7


class TestTornReads:
    """Satellite 2: a writer mutating mid-iteration must never tear a
    reader — no exceptions, no phantom (uncommitted-state) rows."""

    N_ROWS = 400
    N_ROUNDS = 60

    def _stress(self, read_once, rounds=N_ROUNDS):
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
                for _ in range(rounds):
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
            return snap["R"].raw_list()

        self._stress(read)

    @staticmethod
    def _snapshot_read(source):
        def read(s):
            snap = s.snapshot()
            return list(s.query(source, options=ExecOptions(snapshot=snap)))

        return read

    def test_compiled_snapshot_queries_under_writer_churn(self):
        self._stress(self._snapshot_read("{EACH r IN R: r.a >= 0}"))

    # A probe and a residual read the same snapshot as the scan: a later
    # generation's larger ``b`` would drop every row.

    def test_snapshot_grouped_probes_under_writer_churn(self):
        self._stress(
            self._snapshot_read("{EACH r IN R: SOME t IN R (t.a = r.a AND t.b = r.b)}")
        )

    def test_snapshot_residuals_under_writer_churn(self):
        # ``<=`` keeps the quantifier off the probe path: the residual
        # evaluator runs it, O(rows²) per read, hence fewer rounds.
        self._stress(
            self._snapshot_read("{EACH r IN R: SOME t IN R (t.a = r.a AND t.b <= r.b)}"),
            rounds=4,
        )


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


# -- the token-shape front door ----------------------------------------------

#: The ``serve_mixed`` benchmark's three read shapes (``bench/workloads.py``),
#: over this file's schema, which has the same attributes.
SERVE_POINT = '{<f.seq, f.tag> OF EACH f IN Fact: f.fk = "%s"}'
SERVE_JOIN2 = (
    "{<f.seq, g.grp, g.w> OF EACH f IN Fact, EACH g IN Dim: "
    'f.fk = g.k AND g.k = "%s"}'
)
SERVE_JOIN3 = (
    "{<f.seq, g.w, h.note, g2.k> OF "
    "EACH f IN Fact, EACH g IN Dim, EACH h IN Ann, EACH g2 IN Dim: "
    "f.fk = g.k AND g.grp = h.grp AND h.grp = g2.grp "
    'AND f.fk = "%s" AND g2.w < %s}'
)
#: A RANGE-typed attribute compared with a slot: a constant outside
#: 0..9 folds the comparison to false (DBPL010 + DBPL012).
GRADES = """
TYPE grade = RANGE 0..9;
     graderec = RECORD id: INTEGER; g: grade; ok: BOOLEAN END;
     graderel = RELATION id OF graderec;
VAR Grades: graderel;
"""
SERVE_GRADE = "{<x.id> OF EACH x IN Grades: x.g = %s}"
#: A ``TRUE`` operand is a parameter slot that no literal fills.
SERVE_FLAG = "{<x.id> OF EACH x IN Grades: x.ok = TRUE AND x.id > %s}"
#: A conjunction bounding one attribute twice: constant-sensitive too.
SERVE_RANGE = "{EACH g IN Dim: g.w > %s AND g.w < %s}"


def serve_session(**kwargs) -> Session:
    s = make_session(**kwargs)
    s.execute(GRADES)
    s.insert("Grades", [(i, i % 10, i % 3 == 0) for i in range(30)])
    return s


def front_door_session(**kwargs) -> Session:
    return random_front_door_session(random.Random(11), **kwargs)[0]


#: The front-door template that bounds one attribute twice.
TWO_BOUNDS = '{<r.dst> OF EACH r IN E{tc()}: r.src = "%s" AND r.src = "%s"}'
assert TWO_BOUNDS in FRONT_DOOR_TEMPLATES


def node_draws(template: str) -> list[tuple]:
    """Two constant tuples for a front-door template: all ``n1``, then
    ending in ``n3`` (so TWO_BOUNDS gets an equal and a differing pair)."""
    slots = template.count("%s")
    return [("n1",) * slots, ("n1",) * (slots - 1) + ("n3",) if slots else ()]


#: (session factory, template, two constant draws, served as a hit): a
#: template's texts are hits exactly when its analysis verdict cannot
#: depend on the constants.
FRONT_DOOR_CASES = [
    (serve_session, SERVE_POINT, [("k1",), ("k4",)], True),
    (serve_session, SERVE_JOIN2, [("k2",), ("nope",)], True),
    (serve_session, SERVE_JOIN3, [("k3", 60), ("k5", 0)], True),
    (serve_session, SERVE_GRADE, [(3,), (12,)], False),
    (serve_session, SERVE_FLAG, [(4,), (20,)], False),
    (serve_session, SERVE_RANGE, [(20, 100), (100, 20)], False),
] + [
    (front_door_session, template.replace("SEL", "n2"), node_draws(template),
     template != TWO_BOUNDS)
    for template in FRONT_DOOR_TEMPLATES
]


def rendered(text: str, gaps) -> str:
    """``text`` re-spelled token by token, with ``gaps`` (cycled) of
    whitespace and comments between the tokens."""
    words = [
        f'"{t.text}"' if t.kind == "string" else t.text for t in tokenize(text)[:-1]
    ]
    out = [words[0]]
    for i, word in enumerate(words[1:]):
        out.append(gaps[i % len(gaps)])
        out.append(word)
    return "".join(out)


def parameterized_shape(text: str):
    node = parse_expression(text)
    if isinstance(node, BARE_RANGES):
        node = range_query(node)
    return parameterize(node)[0]


class CallCounter:
    """Counts the front door's parse/analysis/parameterize calls, and
    with ``lex=True`` its ``tokenize`` calls too."""

    def __init__(self, monkeypatch, *, lex: bool = False) -> None:
        self.calls = Counter()
        calls = self.calls

        class CountingParser(parser_module.Parser):
            def __init__(self, *args, **kwargs):
                calls["Parser"] += 1
                super().__init__(*args, **kwargs)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(parser_module, "Parser", CountingParser)
        monkeypatch.setattr(
            checks_module, "analyze_query",
            counted("analyze_query", checks_module.analyze_query),
        )
        monkeypatch.setattr(
            session_module, "parameterize",
            counted("parameterize", session_module.parameterize),
        )
        if lex:
            monkeypatch.setattr(
                session_module, "tokenize", counted("tokenize", session_module.tokenize)
            )


GAPS = st.lists(
    st.sampled_from(
        [" ", "  ", "\n", "\t", "\r\n ", " (* c *) ", "(* (* nested *) \n *)", " \n(**)"]
    ),
    min_size=1,
    max_size=4,
)
WORDS = st.text(
    alphabet=st.characters(exclude_characters='"', exclude_categories=("Cs",)),
    max_size=6,
)


class TestTokenFrontDoor:
    """A repeated query shape is served from its tokens."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FRONT_DOOR_CASES), st.data(), GAPS, GAPS)
    def test_equal_token_shapes_have_equal_plan_shapes(self, case, data, g1, g2):
        """Two texts of one template (so equal fixed literals) whose token
        shapes are equal have equal ``parameterize`` shapes, whatever the
        compared constants, whitespace and comments."""
        _, template, draws, _ = case
        constants = st.tuples(
            *(st.integers(0, 10**6) if isinstance(c, int) else WORDS for c in draws[0])
        )
        one, two = data.draw(constants), data.draw(constants)
        a, b = rendered(template % one, g1), rendered(template % two, g2)
        assert token_shape(tokenize(a))[0] == token_shape(tokenize(b))[0], (a, b)
        assert parameterized_shape(a) == parameterized_shape(b), (a, b)

    @pytest.mark.parametrize(
        "factory, template, draws, hit", FRONT_DOOR_CASES,
        ids=[case[1][:48] for case in FRONT_DOOR_CASES],
    )
    def test_hit_equals_miss(self, factory, template, draws, hit, monkeypatch):
        """A warm session (the hit path, where the verdict allows it) and
        a compile-per-call session (always the miss path) agree on rows,
        ``last_diagnostics``, ``on_diagnostic`` and fallbacks."""
        warm_seen, cold_seen = [], []
        warm = factory(on_diagnostic=warm_seen.append)
        cold = factory(plan_cache_size=0, on_diagnostic=cold_seen.append)
        warm.query(template % draws[0])
        counter = CallCounter(monkeypatch)
        for constants in draws:
            text = template % constants
            del warm_seen[:], cold_seen[:]
            counter.calls.clear()
            rows = warm.query(text)
            assert (not counter.calls) == hit, (text, counter.calls)
            assert rows == cold.query(text), text
            assert list(warm.last_diagnostics) == list(cold.last_diagnostics), text
            assert warm_seen == cold_seen, text
            assert warm.fallbacks == cold.fallbacks, text
            assert rows == cold.query(text, mode="interpreted"), text
        if template == SERVE_GRADE:
            assert "DBPL010" in {d.code for d in cold_seen}  # 12 is outside 0..9

    def test_a_hit_parses_analyzes_and_parameterizes_nothing(self, monkeypatch):
        """Clock-free guard: once a shape is cached, a text of that shape
        — other constants, other whitespace and comments — constructs no
        Parser and calls neither ``analyze_query`` nor ``parameterize``,
        through ``query`` and through ``prepare``."""
        s = serve_session()
        text = SERVE_JOIN3 % ("k2", 60)
        reference = s.query(text, mode="interpreted")
        counter = CallCounter(monkeypatch)
        s.query(SERVE_JOIN3 % ("k1", 40))
        assert counter.calls == {"Parser": 1, "analyze_query": 1, "parameterize": 1}
        counter.calls.clear()
        assert s.query(text) == reference
        assert s.query(rendered(text, ["\n (* x *) "])) == reference
        assert s.prepare(SERVE_JOIN3 % ("k6", 20)).execute("k2", 60) == reference
        assert counter.calls == {}
        assert s.plan_cache.misses == 1 and len(s.plan_cache) == 1
        # A constant-sensitive shape is never served: every text is a miss
        # path (that reuses the cached plan, so it compiles once).
        for bounds in [(20, 100), (30, 90)]:
            s.query(SERVE_RANGE % bounds)
        assert counter.calls == {"Parser": 2, "analyze_query": 2, "parameterize": 2}
        assert s.plan_cache.misses == 2

    def test_a_hit_lexes_nothing(self, monkeypatch):
        """A hot ASCII text without a comment is looked up by the scan
        alone: no ``tokenize`` call, through ``query`` and ``prepare``.  A
        commented one is tokenized once for its shape and reaches the
        same entry; neither builds a Parser."""
        s = serve_session()
        text = SERVE_JOIN3 % ("k2", 60)
        reference = s.query(text, mode="interpreted")
        commented = rendered(text, ["\n (* x *) "])
        counter = CallCounter(monkeypatch, lex=True)
        s.query(SERVE_JOIN3 % ("k1", 40))
        assert counter.calls == {
            "tokenize": 1, "Parser": 1, "analyze_query": 1, "parameterize": 1
        }
        counter.calls.clear()
        assert s.query(text) == reference
        assert s.prepare(SERVE_JOIN3 % ("k6", 20)).execute("k2", 60) == reference
        assert counter.calls == {}
        assert s.query(commented) == reference
        assert counter.calls == {"tokenize": 1}
        assert s.prepare(commented).execute() == reference
        assert counter.calls == {"tokenize": 2}
        assert s.plan_cache.misses == 1 and s.plan_cache.hits == 4

    def test_a_hit_builds_no_evaluator(self, monkeypatch):
        """Only computed ranges and interpreted residuals read the
        context's evaluator, so a served point read builds none."""
        s = serve_session()
        s.query(SERVE_POINT % "k1")
        built = []

        class CountingEvaluator(plans_module.Evaluator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(plans_module, "Evaluator", CountingEvaluator)
        want = s.query(SERVE_POINT % "k2", mode="interpreted")
        assert s.query(SERVE_POINT % "k2") == want
        assert s.plan_cache.hits == 1 and built == []

    def test_a_changed_selector_argument_misses(self, monkeypatch):
        """``SEL`` is baked into the plan: the same token shape with
        another selector argument is another plan, never the cached one."""
        template = next(t for t in FRONT_DOOR_TEMPLATES if "SEL" in t)
        first = template.replace("SEL", "n1") % "n2"
        changed = template.replace("SEL", "n2") % "n2"
        oracle = front_door_session()
        want = {text: oracle.query(text, mode="interpreted") for text in (first, changed)}
        s = front_door_session()
        assert s.query(first) == want[first]
        counter = CallCounter(monkeypatch)
        assert s.query(changed) == want[changed]
        assert counter.calls["Parser"] == 1
        assert s.plan_cache.misses == 2
        assert s.query(first) == want[first]
