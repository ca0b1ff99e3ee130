"""The relation's versioned row log: O(delta) commits, key integrity from
the writer-owned key map, and the hit/extend/rebuild rule every cached
view follows (see the module docstring of ``repro.relational.relation``)."""

import copy
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import tracemalloc
from functools import partial

import pytest

import repro
from repro.errors import KeyConstraintError, TypeMismatchError
from repro.relational import Database, HashIndex, Relation, open_database
from repro.types import INTEGER, STRING, record, relation_type

PART = record("partrec", part=STRING, weight=INTEGER)
PARTS = relation_type("partsrel", PART, key=("part",))
SLOT = record("slotrec", shelf=STRING, pos=INTEGER, part=STRING)
SLOTS = relation_type("slotsrel", SLOT, key=("shelf", "pos"))
EDGE = record("edgerec", src=STRING, dst=STRING)
EDGES = relation_type("edgesrel", EDGE)
NUM = record("numrec", seq=INTEGER, tag=INTEGER)
NUMS = relation_type("numsrel", NUM, key=("seq",))


def conflict_text(rtype, stored, new):
    """The message ``RelationType.check_key`` gives for this conflict."""
    with pytest.raises(KeyConstraintError) as info:
        rtype.check_key([stored, new])
    return str(info.value)


def observables(rel, attrs):
    stats = rel.stats()
    return (
        rel.rows(),
        len(rel),
        rel.version,
        stats.row_count,
        tuple(stats.distinct(i) for i in range(stats.arity)),
        id(rel.index_on(attrs)),
    )


def decoded(table):
    return [
        tuple(col.dictionary.decode(col.ids[i]) for col in table.columns)
        for i in range(table.n)
    ]


class TestKeyIntegrity:
    def test_conflict_with_a_stored_row(self):
        rel = Relation("Parts", PARTS, [("table", 30), ("vase", 2)])
        index = rel.index_on(("part",))
        before = observables(rel, ("part",))
        with pytest.raises(KeyConstraintError) as info:
            rel.insert([("lamp", 1), ("table", 31)])
        assert str(info.value) == conflict_text(PARTS, ("table", 30), ("table", 31))
        # The paper's ELSE <exception>: nothing moved, "lamp" included.
        assert observables(rel, ("part",)) == before
        assert rel.index_on(("part",)) is index
        assert ("lamp", 1) not in rel

    def test_conflict_inside_one_batch(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        before = observables(rel, ("part",))
        with pytest.raises(KeyConstraintError) as info:
            rel.insert([("lamp", 1), ("lamp", 2)])
        assert str(info.value) == conflict_text(PARTS, ("lamp", 1), ("lamp", 2))
        assert observables(rel, ("part",)) == before

    def test_type_failure_is_a_no_op_too(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        before = observables(rel, ("part",))
        with pytest.raises(TypeMismatchError):
            rel.insert([("lamp", 1), ("vase", "heavy")])
        assert observables(rel, ("part",)) == before

    def test_identical_reinsert_is_accepted(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        rel.insert([("table", 30), ("lamp", 1), ("lamp", 1)])
        assert rel.rows() == {("table", 30), ("lamp", 1)}
        assert rel.raw_list() == [("table", 30), ("lamp", 1)]

    def test_delete_frees_the_key(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        rel.delete([("table", 30)])
        rel.insert([("table", 31)])
        assert rel.rows() == {("table", 31)}

    @pytest.mark.parametrize("reset", ["assign", "clear"])
    def test_key_map_is_rebuilt_after_assign_and_clear(self, reset):
        rel = Relation("Parts", PARTS, [("table", 30)])
        rel.insert([("lamp", 1)])  # builds the map over the old value
        if reset == "assign":
            rel.assign([("vase", 2)])
        else:
            rel.clear()
            rel.insert([("vase", 2)])
        rel.insert([("table", 99)])  # the old value's key is free again
        with pytest.raises(KeyConstraintError):
            rel.insert([("vase", 3)])
        assert rel.rows() == {("vase", 2), ("table", 99)}
        assert ("lamp", 1) not in rel

    def test_first_insert_on_a_cold_handle(self, tmp_path):
        db = Database("shop")
        db.declare("Parts", PARTS, [(f"p{i:03d}", i) for i in range(300)])
        path = str(tmp_path / "shop")
        db.spill(path, rows_per_partition=64)
        rel = open_database(path).relation("Parts")
        assert rel.is_cold
        with pytest.raises(KeyConstraintError) as info:
            rel.insert([("p007", 8)])
        assert str(info.value) == conflict_text(PARTS, ("p007", 7), ("p007", 8))
        assert rel.version == 0 and len(rel) == 300
        rel.insert([("p007", 7), ("q000", 1)])
        assert rel.version == 1 and len(rel) == 301
        assert rel.rows() == db.relation("Parts").rows() | {("q000", 1)}

    def test_multi_attribute_key(self):
        rel = Relation("Slots", SLOTS, [("a", 1, "table"), ("a", 2, "vase")])
        rel.insert([("b", 1, "table")])  # shares each key attribute, not both
        with pytest.raises(KeyConstraintError) as info:
            rel.insert([("a", 2, "lamp")])
        assert str(info.value) == conflict_text(
            SLOTS, ("a", 2, "vase"), ("a", 2, "lamp")
        )
        assert len(rel) == 3

    def test_keyless_relation_is_a_pure_set(self):
        rel = Relation("E", EDGES, [("a", "b")])
        rel.insert([("a", "c"), ("a", "b"), ("a", "c")])
        assert rel.raw_list() == [("a", "b"), ("a", "c")]
        rel.delete([("a", "b")])
        assert rel.rows() == {("a", "c")} and ("a", "b") not in rel

    def test_wrong_arity_probes_are_absent_not_errors(self):
        for rel in (
            Relation("Slots", SLOTS, [("a", 1, "table")]),
            Relation("E", EDGES, [("a", "b")]),
        ):
            version = rel.version
            for probe in [(), ("a",), ("a", 1, "table", 0), "a", 7]:
                assert probe not in rel
            rel.delete([(), ("a",), ("a", 1, "table", 0)])
            assert rel.version == version and len(rel) == 1


class TestGenerations:
    def build(self):
        rel = Relation("Nums", NUMS, [(i, i % 5) for i in range(40)])
        return rel, ("tag",)

    def held(self, rel, attrs):
        """Everything a reader may hold across a commit, plus a deep copy."""
        index = rel.index_on(attrs)
        objects = {
            "list": rel.raw_list(),
            "snapshot": rel.snapshot_view().raw_list(),
            "set": rel.raw(),
            "encoded rows": rel.encoded().rows,
            "encoded ids": [col.ids for col in rel.encoded().columns],
            "buckets": index.buckets,
        }
        return objects, copy.deepcopy(objects)

    def test_published_objects_survive_insert_and_delete(self):
        rel, attrs = self.build()
        objects, copies = self.held(rel, attrs)
        table = rel.encoded()
        views = (rel.raw_list, rel.raw, rel.encoded, partial(rel.index_on, attrs))
        rel.insert([(100, 0), (101, 9)])
        for view in views:
            view()  # extend every view past the held generation
        assert objects == copies
        assert table.n == 40 and rel.encoded().n == 42
        rel.delete([(3, 3), (100, 0)])
        for view in views:
            view()  # rebuild them on the new lineage
        assert objects == copies

    def test_insert_extends_the_index_bucket_by_bucket(self):
        rel, attrs = self.build()
        old = rel.index_on(attrs)
        rel.insert([(100, 0), (101, 9)])
        new = rel.index_on(attrs)
        assert new is not old
        for tag in (1, 2, 3, 4):  # untouched: shared, not copied
            assert new.buckets[tag] is old.buckets[tag]
        assert new.buckets[0] is not old.buckets[0]
        assert new.buckets[0][-1] == (100, 0) and len(old.buckets[0]) == 8
        assert 9 not in old.buckets and new.lookup(9) == [(101, 9)]
        fresh = HashIndex(new.positions, rel.raw_list())
        assert new.buckets == fresh.buckets
        assert new.selectivity() == fresh.selectivity()
        assert new.max_bucket_fraction() == fresh.max_bucket_fraction()
        assert rel.peek_index(new.positions) is new

    def test_peek_never_extends_and_misses_after_delete(self):
        rel, attrs = self.build()
        index = rel.index_on(attrs)
        assert rel.peek_index(index.positions) is index
        rel.insert([(100, 0)])
        assert rel.peek_index(index.positions) is None  # stale until a reader extends
        extended = rel.index_on(attrs)
        assert rel.peek_index(index.positions) is extended
        rel.delete([(100, 0)])
        assert rel.peek_index(index.positions) is None
        assert rel.index_on(attrs).buckets == index.buckets  # rebuilt, same value

    def test_snapshot_pinned_before_an_insert_keeps_a_private_past(self):
        rel, attrs = self.build()
        snap = rel.snapshot_view()
        rel.insert([(100, 0)])
        live = rel.index_on(attrs)
        pinned = snap.index_on(attrs)
        assert pinned is not live and pinned._total_rows == 40
        # The slot never steps back: the live generation is still published.
        assert rel.peek_index(live.positions) is live
        assert snap.index_on(attrs) is pinned

    def test_partitions_are_cached_per_version(self):
        rel, attrs = self.build()
        parts = rel.partitions(attrs, 3)
        assert rel.partitions(attrs, 3) is parts
        rel.insert([(100, 0)])
        assert sum(len(p) for p in rel.partitions(attrs, 3)) == 41
        assert sum(len(p) for p in parts) == 40


class TestModel:
    """Random insert/delete/assign/clear interleavings against a plain set."""

    @pytest.mark.parametrize("seed", range(50))
    def test_relation_equals_model(self, seed):
        rng = random.Random(seed)
        keyed = seed % 2 == 0
        rel = Relation("Nums", NUMS if keyed else relation_type("bag", NUM))
        model: set = set()
        attr_sets = [("tag",), ("seq",), ("seq", "tag")]

        def draw():
            return (rng.randrange(24), rng.randrange(3))

        def functional(rows):
            return len({seq for seq, _ in rows}) == len(rows)

        for _ in range(40):
            op = rng.choice(["insert"] * 3 + ["delete"] * 2 + ["assign", "clear"])
            batch = [draw() for _ in range(rng.randrange(5))]
            before = rel.version
            after = {
                "insert": model | set(batch),
                "delete": model - set(batch),
                "assign": set(batch),
                "clear": set(),
            }[op]
            call = rel.clear if op == "clear" else partial(getattr(rel, op), batch)
            if keyed and not functional(after):
                with pytest.raises(KeyConstraintError):
                    call()
                assert rel.version == before
            else:
                call()
                model = after
            assert rel.version >= before
            rows = rel.raw_list()
            assert rel.rows() == model and len(rel) == len(model) == len(rows)
            assert set(rows) == model and rel.raw() == model
            assert rel.is_empty() == (not model)
            for probe in [draw() for _ in range(4)]:
                assert (probe in rel) == (probe in model)
            for attrs in attr_sets[: 1 + seed % 3]:
                index = rel.index_on(attrs)
                # Positions covering the declared key index as a key → row map.
                unique = keyed and "seq" in attrs
                fresh = HashIndex(index.positions, rows, unique)
                assert index.unique == unique
                assert index.buckets == fresh.buckets
                assert index.max_bucket_fraction() == fresh.max_bucket_fraction()
            table = rel.encoded()
            assert decoded(table) == rows and table.rows == rows
            assert rel.stats().row_count == len(model)


class TestCommitOrder:
    """The log is the commit order: an assignment keeps its rows' first
    occurrences, inserts append, deletes keep the survivors' order, and
    no order depends on string hashing."""

    def test_assign_insert_delete_and_snapshot_keep_commit_order(self):
        rng = random.Random(7)
        rows = [(f"p{i}", i) for i in range(40)]
        drawn = rows + rng.sample(rows, 15)  # duplicates
        rng.shuffle(drawn)
        first_seen = list(dict.fromkeys(drawn))
        db = Database()
        rel = db.declare("Parts", PARTS)
        rel.assign(drawn)
        assert rel.raw_list() == first_seen
        assert [row.values for row in rel] == first_seen
        rel.insert([("q1", 1), ("q0", 0)])
        order = first_seen + [("q1", 1), ("q0", 0)]
        assert rel.raw_list() == order
        gone = set(rng.sample(order, 10))
        rel.delete(gone)
        order = [row for row in order if row not in gone]
        assert rel.raw_list() == order
        assert db.snapshot()["Parts"].raw_list() == order
        assert rel.snapshot().raw_list() == order
        rel.insert([("r", 2)])
        assert db.snapshot()["Parts"].raw_list() == order + [("r", 2)]

    SCRIPT = (
        "from repro.relational import Relation\n"
        "from repro.types import INTEGER, STRING, record, relation_type\n"
        "rtype = relation_type('r', record('rec', name=STRING, n=INTEGER), key=('name',))\n"
        "rel = Relation('R', rtype)\n"
        "rel.assign([(f'row{i % 97}', i % 97) for i in range(300)])\n"
        "print([row[0] for row in rel.raw_list()])\n"
    )

    def test_scan_order_does_not_depend_on_the_hash_seed(self):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        orders = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            result = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr[-2000:]
            orders.append(result.stdout)
        assert orders[0] == orders[1]
        assert orders[0].strip() == str([f"row{i}" for i in range(97)])


class TestConcurrentWriter:
    """One writer appending (and occasionally deleting the oldest batch)
    while readers loop over every lock-free view."""

    BATCH = 8

    def test_readers_only_ever_see_committed_states(self):
        rel = Relation("Nums", NUMS)
        rel.insert([(i, 0) for i in range(64)])  # commit order = argument order
        # version -> live seq range [lo, hi), recorded before it is visible.
        states = {rel.version: (0, 64)}
        spans = {(0, 64)}
        stop = threading.Event()
        errors: list = []

        def writer():
            lo, hi = 0, 64
            try:
                for step in range(400):
                    delete = step % 7 == 6
                    if delete:
                        batch, lo = range(lo, lo + self.BATCH), lo + self.BATCH
                    else:
                        batch, hi = range(hi, hi + self.BATCH), hi + self.BATCH
                    states[rel.version + 1] = (lo, hi)
                    spans.add((lo, hi))
                    (rel.delete if delete else rel.insert)([(i, 0) for i in batch])
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                stop.set()

        def span_of(rows):
            """The committed state ``rows`` is, checked row by row."""
            span = (rows[0][0], rows[0][0] + len(rows))
            assert [seq for seq, _ in rows] == list(range(*span)), "torn list"
            assert span in spans, "a state the writer never committed"
            return span

        def reader():
            try:
                while not stop.is_set():
                    view = rel.snapshot_view()
                    assert span_of(view.raw_list()) == states[view.version]
                    span_of(rel.raw_list())
                    index = rel.index_on(("tag",))
                    bucket = index.buckets[0]  # every row has tag 0
                    assert len(bucket) == index._total_rows
                    span_of(bucket)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        lo, hi = states[rel.version]
        assert rel.raw_list() == [(i, 0) for i in range(lo, hi)]


class TestWritePathScaling:
    """The write path performs no O(n) copy — measured as allocation, not
    wall-clock: the transient memory of a one-row insert must not grow
    with the relation (median, because ``list.extend`` and the key map
    occasionally reallocate)."""

    @staticmethod
    def median_insert_peak(n: int) -> float:
        rel = Relation("Nums", NUMS, [(i, i % 7) for i in range(n)])
        rel.insert([(-1, 0)])  # the key map is built once, outside the measurement
        peaks = []
        tracemalloc.start()
        try:
            for i in range(32):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                rel.insert([(n + i, 0)])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert len(rel) == n + 33
        return statistics.median(peaks)

    def test_insert_allocation_does_not_grow_with_the_relation(self):
        small = self.median_insert_peak(2_000)
        large = self.median_insert_peak(64_000)
        assert large <= 2 * small, (small, large)
