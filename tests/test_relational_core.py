"""Unit tests for rows, relations, and the database scope."""

import threading

import pytest

from repro.errors import (
    KeyConstraintError,
    NameResolutionError,
    SchemaError,
    TypeMismatchError,
)
from repro.relational import Database, Relation, Row
from repro.types import INTEGER, STRING, record, relation_type

PART = record("partrec", part=STRING, weight=INTEGER)
PARTS = relation_type("partsrel", PART, key=("part",))
EDGE = record("edgerec", src=STRING, dst=STRING)
EDGES = relation_type("edgesrel", EDGE)


class TestRow:
    def setup_method(self):
        self.row = Row(PART, ("table", 30))

    def test_item_access(self):
        assert self.row["part"] == "table"

    def test_attribute_access(self):
        assert self.row.weight == 30

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _ = self.row.colour

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.row.part = "vase"

    def test_as_dict(self):
        assert self.row.as_dict() == {"part": "table", "weight": 30}

    def test_equality_with_tuple(self):
        assert self.row == ("table", 30)

    def test_equality_structural(self):
        same_shape = record("partrec2", part=STRING, weight=INTEGER)
        assert self.row == Row(same_shape, ("table", 30))

    def test_inequality_on_names(self):
        other = record("other", name=STRING, weight=INTEGER)
        assert self.row != Row(other, ("table", 30))

    def test_hash_matches_tuple_hash(self):
        assert hash(self.row) == hash(("table", 30))

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Row(PART, ("table",))


class TestRelationAssignment:
    def test_assign_and_len(self):
        rel = Relation("Parts", PARTS)
        rel.assign([("table", 30), ("vase", 2)])
        assert len(rel) == 2

    def test_assign_key_violation_keeps_old_value(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        with pytest.raises(KeyConstraintError):
            rel.assign([("a", 1), ("a", 2)])
        assert rel.rows() == frozenset({("table", 30)})

    def test_assign_type_violation(self):
        rel = Relation("Parts", PARTS)
        with pytest.raises(TypeMismatchError):
            rel.assign([("table", "heavy")])

    def test_insert_checks_key_against_existing(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        with pytest.raises(KeyConstraintError):
            rel.insert([("table", 31)])
        assert len(rel) == 1

    def test_insert_idempotent_tuple(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        rel.insert([("table", 30)])
        assert len(rel) == 1

    def test_delete_ignores_absent(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        rel.delete([("vase", 2)])
        assert len(rel) == 1

    def test_rows_accepts_row_objects(self):
        rel = Relation("Parts", PARTS)
        rel.assign([Row(PART, ("table", 30))])
        assert ("table", 30) in rel

    def test_membership_of_row_view(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        assert Row(PART, ("table", 30)) in rel

    def test_iteration_yields_rows(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        (row,) = list(rel)
        assert isinstance(row, Row)
        assert row.part == "table"

    def test_version_bumps_on_mutation(self):
        rel = Relation("Parts", PARTS)
        v0 = rel.version
        rel.assign([("table", 30)])
        assert rel.version > v0

    def test_snapshot_is_independent(self):
        rel = Relation("Parts", PARTS, [("table", 30)])
        snap = rel.snapshot()
        rel.insert([("vase", 2)])
        assert len(snap) == 1
        assert len(rel) == 2

    def test_coerce_rejects_scalars(self):
        rel = Relation("Parts", PARTS)
        with pytest.raises(TypeMismatchError):
            rel.assign(["table"])


class TestRelationIndexes:
    def test_index_lookup(self):
        rel = Relation("E", EDGES, [("a", "b"), ("a", "c"), ("b", "c")])
        idx = rel.index_on(("src",))
        assert sorted(idx.lookup("a")) == [("a", "b"), ("a", "c")]
        assert idx.lookup("z") == []

    def test_index_cache_reused_until_mutation(self):
        rel = Relation("E", EDGES, [("a", "b")])
        idx1 = rel.index_on(("src",))
        idx2 = rel.index_on(("src",))
        assert idx1 is idx2
        rel.insert([("b", "c")])
        idx3 = rel.index_on(("src",))
        assert idx3 is not idx1
        assert idx3.lookup("b") == [("b", "c")]

    def test_multi_attribute_index(self):
        rel = Relation("E", EDGES, [("a", "b"), ("a", "c")])
        idx = rel.index_on(("src", "dst"))
        assert idx.lookup(("a", "b")) == [("a", "b")]

    def test_snapshot_view_shares_the_live_index_generation(self):
        rel = Relation("E", EDGES, [("a", "b"), ("a", "c")])
        early = rel.snapshot_view()  # pinned before any index exists
        live = rel.index_on(("src",))
        late = rel.snapshot_view()
        assert early.index_on(("src",)) is live
        assert late.index_on(("src",)) is live
        rel.insert([("a", "d")])
        assert rel.index_on(("src",)) is not live
        # The snapshot keeps answering the pinned rows from the same object.
        assert late.index_on(("src",)) is live
        assert sorted(late.index_on(("src",)).lookup("a")) == [("a", "b"), ("a", "c")]
        assert sorted(late.raw_list()) == [("a", "b"), ("a", "c")]


class TestWritesThatChangeNothing:
    """An insert of present rows or a delete of absent ones is not a new
    version: no cache is dropped and nothing is reported to a sink."""

    def setup_method(self):
        self.rel = Relation("Parts", PARTS, [("a", 1), ("b", 2)])
        self.emitted = []
        self.rel._sink = self  # duck-typed write-capture sink
        self.lock = threading.Lock()
        self.held = (
            self.rel.version,
            self.rel.index_on(("part",)),
            self.rel.raw_list(),
            self.rel.encoded(),
        )

    def emit(self, relation, inserted, deleted):
        self.emitted.append((list(inserted), list(deleted)))

    def assert_untouched(self):
        version, index, rows, table = self.held
        assert self.rel.version == version
        assert self.rel.index_on(("part",)) is index
        assert self.rel.raw_list() is rows
        assert self.rel.encoded() is table
        assert self.emitted == []

    def test_reinserting_present_rows(self):
        self.rel.insert([("a", 1), ("b", 2), ("a", 1)])
        self.assert_untouched()

    def test_deleting_absent_rows(self):
        self.rel.delete([("zz", 9), ("a", 2)])
        self.assert_untouched()

    def test_mixed_batch_is_one_version_with_a_suffix_of_one(self):
        version, index, rows, _table = self.held
        self.rel.insert([("a", 1), ("c", 3)])
        assert self.rel.version == version + 1
        assert self.rel.raw_list() == rows + [("c", 3)]
        assert self.emitted == [([("c", 3)], [])]
        assert self.rel.index_on(("part",)) is not index


class TestDatabase:
    def test_declare_and_lookup(self):
        db = Database("cad")
        rel = db.declare("Parts", PARTS)
        assert db["Parts"] is rel
        assert "Parts" in db

    def test_double_declare_rejected(self):
        db = Database()
        db.declare("Parts", PARTS)
        with pytest.raises(SchemaError):
            db.declare("Parts", PARTS)

    def test_unknown_relation_lists_known(self):
        db = Database()
        db.declare("Parts", PARTS)
        with pytest.raises(NameResolutionError, match="Parts"):
            db.relation("Nope")

    def test_declare_with_rows(self):
        db = Database()
        rel = db.declare("E", EDGES, [("a", "b")])
        assert len(rel) == 1
