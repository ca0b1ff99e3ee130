"""Writing to a cold, store-backed relation without loading it.

A spilled relation reopened by :func:`~repro.relational.open_database`
stays cold under inserts: each key the in-memory tail lacks is looked up
through the manifest's per-partition bounds (a partition that cannot
hold it is never read, and when none can, neither are the dictionaries),
and the fresh rows become a tail over the stored pages.  Every reader —
each executor, the interpreter, the vector path's encoded table,
membership, snapshots, deletes and a second spill — must see exactly the
rows a warm database with the same writes holds.
"""

import os
import struct
import sys
import threading
import zlib

import pytest

from repro.compiler.executors import executor_names
from repro.compiler.options import ExecOptions
from repro.dbpl import Session
from repro.errors import KeyConstraintError, StorageError
from repro.relational import Database, open_database
from repro.relational.stats import TableStats
from repro.relational.storage import _PAGE_HEADER, RelationStore
from repro.relational.vectors import get_numpy
from repro.types import BOOLEAN, INTEGER, REAL, STRING, record, relation_type

PER_PARTITION = 20

PEOPLE = relation_type(
    "people", record("person", name=STRING, age=INTEGER, city=STRING), key=("name",)
)
SLOTS = relation_type(
    "slots", record("slot", shelf=STRING, pos=INTEGER, part=STRING), key=("shelf", "pos")
)
EDGES = relation_type("edges", record("edge", src=STRING, dst=STRING))
FLAGS = relation_type("flags", record("flag", on=BOOLEAN, note=STRING), key=("on",))
#: A REAL key holding ints and floats: no partition gets bounds on it.
MIXED = relation_type("mixed", record("mix", x=REAL, tag=STRING), key=("x",))

TABLES = {
    "People": (PEOPLE, [(f"p{i:04d}", i % 37, f"c{i % 7}") for i in range(200)]),
    "Slots": (SLOTS, [(f"s{i // 10}", i % 10, f"part{i}") for i in range(100)]),
    "Edges": (EDGES, [(f"n{i:03d}", f"n{(i * 7) % 90:03d}") for i in range(90)]),
    "Flags": (FLAGS, [(True, "yes"), (False, "no")]),
    "Mixed": (MIXED, [(i if i % 2 else i + 0.5, f"t{i}") for i in range(60)]),
}

#: Per relation: rows whose keys every partition's bounds exclude, rows
#: with fresh keys inside the bounds, and rows already stored.
INSERTS = {
    "People": [("z0001", 40, "c9"), ("p0100x", 41, "c1"), ("p0007", 7, "c0")],
    "Slots": [("zz", 1, "partz"), ("s3", 10, "part310"), ("s2", 4, "part24")],
    "Edges": [("z", "z"), ("n005", "n006"), ("n001", "n007")],
    "Flags": [(True, "yes")],
    "Mixed": [(1000, "big"), (2.25, "mid"), (3, "t3")],
}

QUERIES = [
    '{EACH p IN People: p.name >= "p0150"}',
    '{<p.city> OF EACH p IN People: p.name >= "p0100"}',
    "{<p.name> OF EACH p IN People: p.age >= 30}",
    "People",
    '{<s.part> OF EACH s IN Slots: s.shelf = "s3"}',
    "{<a.src, b.dst> OF EACH a IN Edges, EACH b IN Edges: a.dst = b.src}",
    '{<p.name, e.dst> OF EACH p IN People, EACH e IN Edges: p.name >= "p0080" AND p.city = "c1"}',
    "{EACH m IN Mixed: m.x >= 2}",
]


def warm_database() -> Database:
    db = Database("cold-writes")
    for name, (rtype, rows) in TABLES.items():
        db.declare(name, rtype, rows)
    return db


@pytest.fixture
def spilled(tmp_path):
    """(warm db holding the INSERTS too, spilled path of the db without them)."""
    db = warm_database()
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    for name, rows in INSERTS.items():
        db.relation(name).insert(rows)
    return db, path


def cold_with_inserts(path: str) -> Database:
    """A fresh handle on ``path`` with every INSERTS batch applied: still cold."""
    cold = open_database(path)
    for name, rows in INSERTS.items():
        cold.relation(name).insert(rows)
        assert cold.relation(name).is_cold, name
    return cold


def same_stats(got: TableStats, rows, arity: int) -> bool:
    exact = TableStats.from_rows(rows, arity)
    return got.row_count == exact.row_count and [c.multiset() for c in got.columns] == [
        c.counts for c in exact.columns
    ]


@pytest.fixture
def read_whole(monkeypatch):
    """The files a store reads whole (``RelationStore._read_file``), in order."""
    seen: list[str] = []
    read_file = RelationStore._read_file

    def recording(store, filename):
        seen.append(filename)
        return read_file(store, filename)

    monkeypatch.setattr(RelationStore, "_read_file", recording)
    return seen


class TestColdKeyChecks:
    @pytest.mark.parametrize(
        "name, row",
        [
            ("People", ("z0001", 40, "c9")),
            ("Slots", ("zz", 1, "partz")),
            ("Edges", ("z", "z")),
        ],
    )
    def test_an_excluded_key_reads_nothing_and_stays_cold(self, spilled, read_whole, name, row):
        _db, path = spilled
        rel = open_database(path).relation(name)
        store = rel.cold_store
        del read_whole[:]
        rel.insert([row])
        assert rel.is_cold
        assert store.counters.partitions_read == 0
        assert store.counters.partitions_pruned == len(store.meta["partitions"])
        assert read_whole == []  # no value page, no stats.json
        assert row in rel and len(rel) == store.row_count + 1
        assert store.counters.partitions_read == 0  # the tail answered `in`

    @pytest.mark.parametrize(
        "name, row, admitted",
        [
            ("People", ("p0150", 1, "cX"), 1),
            ("Slots", ("s3", 4, "other"), 1),
            ("Flags", (True, "other"), 1),  # a bool column records no bounds
        ],
    )
    def test_a_conflict_reads_only_admitting_partitions(self, spilled, name, row, admitted):
        _db, path = spilled
        warm = warm_database().relation(name)
        with pytest.raises(KeyConstraintError) as want:
            warm.insert([row])
        rel = open_database(path).relation(name)
        store = rel.cold_store
        with pytest.raises(KeyConstraintError) as got:
            rel.insert([row])
        assert str(got.value) == str(want.value)
        assert store.counters.partitions_read == admitted
        assert rel.is_cold and rel.version == 0 and len(rel) == store.row_count

    def test_a_key_column_without_bounds_reads_every_partition(self, spilled):
        _db, path = spilled
        rel = open_database(path).relation("Mixed")
        store = rel.cold_store
        assert all("0" not in part["minmax"] for part in store.meta["partitions"])
        with pytest.raises(KeyConstraintError):
            rel.insert([(4.5, "clash")])
        assert store.counters.partitions_read == len(store.meta["partitions"])
        assert store.counters.partitions_pruned == 0

    def test_a_stored_row_is_not_inserted_again(self, spilled):
        _db, path = spilled
        rel = open_database(path).relation("Edges")
        rel.insert([("n001", "n007"), ("n001", "n007")])
        assert rel.version == 0 and rel.is_cold and rel.cold_store is not None

    def test_keys_are_checked_against_the_tail_and_the_batch(self, spilled):
        _db, path = spilled
        rel = open_database(path).relation("People")
        rel.insert([("z1", 1, "a")])
        with pytest.raises(KeyConstraintError):
            rel.insert([("z1", 2, "a")])
        with pytest.raises(KeyConstraintError):
            rel.insert([("z2", 1, "a"), ("z2", 2, "a")])
        rel.insert([("z1", 1, "a")])
        assert rel.version == 1 and len(rel) == 201 and rel.is_cold


    def test_a_partition_a_key_check_read_is_not_read_again(self, spilled):
        _db, path = spilled
        rel = open_database(path).relation("People")
        store = rel.cold_store
        parts = len(store.meta["partitions"])
        for i in range(5):  # fresh keys, all inside the first partition's bounds
            rel.insert([(f"p0000{i}", i, "c1")])
            assert (f"p0000{i}", i, "c1") in rel
        assert store.counters.partitions_read == 1
        rel.insert([(f"p{i * PER_PARTITION:04d}x", 1, "c1") for i in range(parts)])
        assert store.counters.partitions_read == parts
        with pytest.raises(KeyConstraintError):
            rel.insert([("p0150", 1, "cX")])
        rel.insert([("p0151x", 1, "c1")])
        assert ("p0003", 3, "c3") in rel and ("p0003", 4, "c3") not in rel
        assert store.counters.partitions_read == parts  # the key map has them all
        assert rel.is_cold and len(rel) == store.row_count + 5 + parts + 1


class TestReadersSeeTheTail:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("executor", [*executor_names(), "interpreted"])
    def test_every_executor_answers_like_the_warm_database(self, spilled, executor, query):
        db, path = spilled
        session = Session(cold_with_inserts(path))
        if executor == "interpreted":
            got = session.query(query, mode="interpreted")
        else:
            got = session.query(query, options=ExecOptions(executor=executor))
        assert got == Session(db).query(query)

    def test_the_encoded_table_is_the_stored_pages_plus_the_tail(self, spilled):
        db, path = spilled
        cold = cold_with_inserts(path)
        for name in TABLES:
            rel = cold.relation(name)
            table = rel.encoded()
            assert rel.is_cold, name
            decoded = {
                tuple(col.dictionary.values[col.ids[i]] for col in table.columns)
                for i in range(table.n)
            }
            assert decoded == set(table.rows) == db.relation(name).rows(), name
            assert table.n == len(rel)
            assert set(rel.raw_list()) == db.relation(name).rows()  # keeps the decode

    def test_the_encoded_table_extends_by_each_cold_insert(self, spilled):
        db, path = spilled
        rel = open_database(path).relation("People")
        store = rel.cold_store
        fresh = [(f"z1{i}", i, f"new{i}") for i in range(3)]
        rel.insert([("z0001", 40, "c9")])
        first = rel.encoded()
        read = store.counters.partitions_read
        for row in fresh:
            rel.insert([row])
            table = rel.encoded()
        assert store.counters.partitions_read == read  # extended, never re-read
        assert table is not first and table.n == len(rel) == store.row_count + 4
        decoded = {
            tuple(col.dictionary.values[col.ids[i]] for col in table.columns)
            for i in range(table.n)
        }
        live = {*TABLES["People"][1], ("z0001", 40, "c9"), *fresh}
        assert decoded == set(table.rows) == live

    def test_an_id_the_store_never_issued_stays_invalid(self, spilled):
        """Encoding the tail grows the adopted dictionaries; a page citing a
        grown id is still damaged."""
        _db, path = spilled
        rel = open_database(path).relation("People")
        store = rel.cold_store
        issued = len(store.load_dictionaries()[2])
        rel.insert([("z0001", 40, "c-fresh")])
        rel.encoded()
        assert len(store.load_dictionaries()[2]) == issued + 1
        page, column = os.path.join(path, "People", "part-0000.bin"), 8 * PER_PARTITION
        with open(page, "r+b") as fh:
            fh.seek(_PAGE_HEADER.size + 2 * column)
            fh.write(struct.pack("<q", issued))
            fh.seek(_PAGE_HEADER.size + 2 * column)
            # Re-stamp the checksum: the page is intact but for that id.
            crc = store.meta["partitions"][0]["crc"]
            store.meta["partitions"][0]["crc"] = crc[:16] + f"{zlib.crc32(fh.read(column)):08x}"
        with pytest.raises(StorageError, match="column 2 never issued"):
            store.scan()
        with pytest.raises(StorageError, match="column 2 never issued"):
            rel.insert([("p0000x", 1, "c1")])  # a key check reading that page

    @pytest.mark.skipif(get_numpy() is None, reason="vector needs numpy")
    def test_the_vector_path_reads_the_encoded_tail(self, spilled):
        db, path = spilled
        query = "{<a.src, b.dst> OF EACH a IN Edges, EACH b IN Edges: a.dst = b.src}"
        cold = cold_with_inserts(path)
        got = Session(cold).query(query, options=ExecOptions(executor="vector"))
        assert got == Session(db).query(query)

    def test_membership_snapshot_and_stats(self, spilled):
        db, path = spilled
        cold = cold_with_inserts(path)
        for name, (rtype, rows) in TABLES.items():
            rel, warm = cold.relation(name), db.relation(name)
            arity = len(rtype.element.attribute_names)
            probes = [*rows[:3], *INSERTS[name], tuple("?" * arity), ("short",)]
            assert [row in rel for row in probes] == [row in warm for row in probes]
            assert same_stats(rel.stats(), warm.rows(), arity), name
            assert rel.is_cold, name
            assert rel.snapshot().rows() == warm.rows()
            assert rel.snapshot_view().rows() == warm.rows()

    def test_a_delete_after_a_cold_insert(self, spilled):
        db, path = spilled
        cold = cold_with_inserts(path)
        for name in TABLES:
            rel, warm = cold.relation(name), db.relation(name)
            gone = [TABLES[name][1][1], INSERTS[name][0]]
            rel.delete(gone)
            warm.delete(gone)
            assert rel.rows() == warm.rows(), name
            arity = len(rel.rtype.element.attribute_names)
            assert same_stats(rel.stats(), warm.rows(), arity), name
            rel.insert([INSERTS[name][0]])
            warm.insert([INSERTS[name][0]])
            assert rel.rows() == warm.rows(), name

    def test_spilling_again_keeps_the_tail(self, spilled, tmp_path):
        db, path = spilled
        again = str(tmp_path / "again")
        cold_with_inserts(path).spill(again, rows_per_partition=PER_PARTITION)
        reopened = open_database(again)
        for name, (rtype, _rows) in TABLES.items():
            rel = reopened.relation(name)
            stats = rel.stats()  # the spilled ones: loaded, not counted
            assert rel.is_cold, name
            assert rel.rows() == db.relation(name).rows(), name
            assert same_stats(stats, rel.rows(), len(rtype.element.attribute_names)), name
        for query in QUERIES:
            assert Session(open_database(again)).query(query) == Session(db).query(query)


def test_a_lazy_statistics_load_races_cold_inserts(tmp_path):
    """The first ``stats()`` of a cold relation loads the persisted
    statistics and absorbs the tail while a writer keeps inserting: the
    load and each commit's absorption are published under one lock, so
    no committed row is missed or counted twice."""
    db = warm_database()
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    errors: list = []

    def trial(k: int) -> None:
        rel = open_database(path).relation("People")
        fresh = [(f"z{k}-{i:03d}", i % 90, f"c{i % 5}") for i in range(60)]
        started, done = threading.Event(), threading.Event()

        def writer():
            try:
                for i, row in enumerate(fresh):
                    rel.insert([row])
                    if i == 4:  # the first load lands among commits
                        started.set()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                started.set()
                done.set()

        def reader():
            try:
                started.wait()
                while not done.is_set():
                    rel.stats()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert rel.is_cold
        final = [*TABLES["People"][1], *fresh]
        assert same_stats(rel.stats(), final, 3), f"trial {k}"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(120):
            trial(k)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]


def test_readers_loading_a_cold_head_lose_no_insert(tmp_path):
    """Readers load a cold relation's rows (``raw_list``, a query, the
    encoded table) while a writer keeps inserting, statistics already
    loaded: every commit lands on the head the load published, so no
    committed row is lost and the version never goes back."""
    db = warm_database()
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    errors: list = []

    def trial(k: int) -> None:
        cold = open_database(path)
        rel = cold.relation("People")
        rel.stats()
        fresh = [(f"z{k}-{i:03d}", i % 90, f"c{i % 5}") for i in range(40)]
        started, done = threading.Event(), threading.Event()

        def writer():
            try:
                for i, row in enumerate(fresh):
                    rel.insert([row])
                    if i == 2:
                        started.set()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                started.set()
                done.set()

        def reader(read):
            try:
                started.wait()
                read()
                versions = []
                while not done.is_set():
                    versions.append(rel.version)
                assert versions == sorted(versions), versions
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        reads = [rel.raw_list, lambda: Session(cold).query("People"), rel.encoded]
        threads = [threading.Thread(target=reader, args=(read,)) for read in reads]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        final = {*TABLES["People"][1], *fresh}
        assert rel.version == len(fresh) and len(rel) == len(final), f"trial {k}"
        assert set(rel.raw_list()) == final and Session(cold).query("People") == final
        assert same_stats(rel.stats(), final, 3), f"trial {k}"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(60):
            trial(k)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
