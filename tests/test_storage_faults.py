"""What a damaged store does: one flat fault table.

Stored bytes are outside input.  Every row of ``FAULTS`` damages one file
of a freshly spilled 10-row relation (two partitions of 5) and the same
query is then driven through ``batch``, ``vector`` and ``sharded``: the
only acceptable outcome is a :class:`StorageError` whose message names
the damaged file — never rows (a wrong row least of all), never a bare
builtin exception.  New damage is one more row of the table.  Rows whose
damage a checksum would catch first re-stamp it (``restamped``), so the
check behind the checksum is the one they exercise.
"""

import json
import os
import re
import struct
import zlib

import pytest

from repro.compiler import ShardConfig
from repro.compiler.options import ExecOptions
from repro.dbpl import Session
from repro.errors import StorageError
from repro.relational import Database, open_database
from repro.relational.storage import _FORMAT_VERSION, _PAGE_HEADER, _VALUE_HEADER
from repro.relational.vectors import get_numpy
from repro.types import INTEGER, STRING, record, relation_type

ROWS = [(i, f"v{i}") for i in range(10)]
PER_PARTITION = 5
QUERY = "{EACH r IN R: r.a >= 0}"

PAGE = os.path.join("R", "part-0000.bin")
MANIFEST = os.path.join("R", "meta.json")
VALUES = os.path.join("R", "dict-1.bin")  # column b's strings
STATS = os.path.join("R", "stats.json")
SCHEMA = os.path.join("R", "schema.pkl")
TOP_MANIFEST = os.path.join("store", "meta.json")


def poke(offset: int, data: bytes):
    """Overwrite ``data`` at ``offset`` of the first partition page."""

    def mutate(path: str) -> None:
        with open(os.path.join(path, PAGE), "r+b") as fh:
            fh.seek(offset)
            fh.write(data)

    return mutate


def poke_id(value: int, column: int = 1, row: int = 0):
    offset = _PAGE_HEADER.size + column * 8 * PER_PARTITION + 8 * row
    return poke(offset, struct.pack("<q", value))


def flip_bit(relative: str, offset: int, bit: int = 0):
    """Flip one bit of the file at ``relative`` (a negative offset counts from its end)."""

    def mutate(path: str) -> None:
        filename = os.path.join(path, relative)
        with open(filename, "r+b") as fh:
            fh.seek(offset, os.SEEK_SET if offset >= 0 else os.SEEK_END)
            byte = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte ^ (1 << bit)]))

    return mutate


def restamped(mutate):
    """``mutate``, then the checksums recomputed over the damaged bytes:
    the first partition's id pages in the manifest, column b's value page
    in its header."""

    def stamp(path: str) -> None:
        mutate(path)
        with open(os.path.join(path, PAGE), "rb") as fh:
            body = fh.read()[_PAGE_HEADER.size :]
        page = 8 * PER_PARTITION
        crcs = "".join(f"{zlib.crc32(body[i : i + page]):08x}" for i in range(0, len(body), page))
        edit(MANIFEST, lambda meta: meta["partitions"][0].update(crc=crcs))(path)
        with open(os.path.join(path, VALUES), "r+b") as fh:
            data = fh.read()
            fields = _VALUE_HEADER.unpack_from(data)[:-1]
            fh.seek(0)
            fh.write(_VALUE_HEADER.pack(*fields, zlib.crc32(data[_VALUE_HEADER.size :])))

    return stamp


def cut(to: int | None = None, by: int = 0, relative: str = PAGE):
    def mutate(path: str) -> None:
        page = os.path.join(path, relative)
        os.truncate(page, to if to is not None else os.path.getsize(page) - by)

    return mutate


def empty(relative: str):
    return lambda path: os.truncate(os.path.join(path, relative), 0)


def edit(relative: str, change):
    """Apply ``change(meta)`` to the JSON manifest at ``relative``."""

    def mutate(path: str) -> None:
        filename = os.path.join(path, relative)
        with open(filename, encoding="utf-8") as fh:
            meta = json.load(fh)
        change(meta)
        with open(filename, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    return mutate


def flip_string(relative: str = VALUES, text: str = "v1"):
    """Overwrite the first byte of the stored string ``text`` (in a value
    page's blob, right after ``v0``) with 0xff: no longer UTF-8."""

    def mutate(path: str) -> None:
        filename = os.path.join(path, relative)
        with open(filename, "rb") as fh:
            at = fh.read().index(b"v0" + text.encode()) + 2
        with open(filename, "r+b") as fh:
            fh.seek(at)
            fh.write(b"\xff")

    return mutate


def names(relative: str, detail: str) -> str:
    """A pattern: the message names ``relative`` and then says ``detail``."""
    return re.escape(relative) + ".*" + detail


#: (name, mutate(spilled dir), regex the StorageError must match)
FAULTS = [
    ("id_negative", restamped(poke_id(-1)), names(PAGE, "column 1 never issued")),
    ("id_past_its_dictionary", restamped(poke_id(10**6)), names(PAGE, "column 1 never issued")),
    (
        "id_bit_flipped_onto_a_valid_id",  # id 0 of column 1 becomes id 1
        flip_bit(PAGE, _PAGE_HEADER.size + 8 * PER_PARTITION),
        "checksum mismatch.*" + names(PAGE, "column 1"),
    ),
    ("page_cut_to_5_bytes", cut(to=5), "truncated page header.*" + names(PAGE, "")),
    ("page_cut_by_3_bytes", cut(by=3), "truncated id page.*" + names(PAGE, "column 1")),
    ("value_page_emptied", empty(VALUES), "truncated value page header.*" + names(VALUES, "")),
    ("value_page_blob_bit_flipped", flip_bit(VALUES, -1, 3), "checksum mismatch.*" + names(VALUES, "")),
    ("value_page_cut_by_3_bytes", cut(by=3, relative=VALUES), names(VALUES, "")),
    ("value_page_string_not_utf8", restamped(flip_string()), names(VALUES, "UnicodeDecodeError")),
    ("schema_emptied", empty(SCHEMA), names(SCHEMA, "")),
    (
        "manifest_partition_without_crc",
        edit(MANIFEST, lambda meta: meta["partitions"][0].pop("crc")),
        "checksum mismatch.*" + names(PAGE, "manifest entry's crc"),
    ),
    (
        "manifest_crc_not_a_string",
        edit(MANIFEST, lambda meta: meta["partitions"][0].update(crc=7)),
        "checksum mismatch.*" + names(PAGE, "manifest entry's crc"),
    ),
    (
        "database_of_format_version_1",
        edit("meta.json", lambda meta: meta.update(version=1)),
        names(TOP_MANIFEST, "format version 1"),
    ),
    (
        "manifest_partition_without_minmax",
        edit(MANIFEST, lambda meta: meta["partitions"][1].pop("minmax")),
        names(MANIFEST, "minmax"),
    ),
    (
        "manifest_without_partitions",
        edit(MANIFEST, lambda meta: meta.pop("partitions")),
        names(MANIFEST, "partitions"),
    ),
    (
        "manifest_without_row_count",
        edit(MANIFEST, lambda meta: meta.pop("row_count")),
        names(MANIFEST, "row_count"),
    ),
    (
        "database_manifest_without_relations",
        edit("meta.json", lambda meta: meta.pop("relations")),
        names(TOP_MANIFEST, "relations"),
    ),
    (
        "database_manifest_without_row_counts",
        edit("meta.json", lambda meta: meta.pop("rows")),
        names(TOP_MANIFEST, "row count per relation"),
    ),
    (
        "database_manifest_row_count_disagrees",
        edit("meta.json", lambda meta: meta["rows"].update(R=7)),
        names(MANIFEST, "database manifest says 7"),
    ),
    (
        "manifest_row_count_is_not_the_partition_sum",
        edit(MANIFEST, lambda meta: meta.update(row_count=7)),
        names(MANIFEST, "row_count 7"),
    ),
    ("page_magic_flipped", poke(0, b"XPC1"), names(PAGE, "magic b'XPC1'")),
    (
        "page_and_manifest_disagree_on_rows",
        poke(0, _PAGE_HEADER.pack(b"RPC1", _FORMAT_VERSION, 2, 4)),
        names(PAGE, "holds 4 rows"),
    ),
]

EXECUTORS = [
    pytest.param(ExecOptions(executor="batch"), id="batch"),
    pytest.param(
        ExecOptions(executor="vector"),
        id="vector",
        marks=pytest.mark.skipif(get_numpy() is None, reason="vector needs numpy"),
    ),
    pytest.param(
        ExecOptions(
            executor="sharded",
            shard_config=ShardConfig(workers=3, min_rows=0, rows_per_shard=1),
        ),
        id="sharded",
    ),
]


@pytest.mark.parametrize("options", EXECUTORS)
@pytest.mark.parametrize(
    "mutate, pattern", [fault[1:] for fault in FAULTS], ids=[fault[0] for fault in FAULTS]
)
def test_damage_is_a_storage_error_naming_the_file(tmp_path, mutate, pattern, options):
    db = Database("faults")
    db.declare("R", relation_type("rs", record("r", a=INTEGER, b=STRING), key=("a",)), ROWS)
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    assert Session(open_database(path), options=options).query(QUERY) == set(ROWS)
    mutate(path)
    with pytest.raises(StorageError, match=pattern):
        Session(open_database(path), options=options).query(QUERY)


def summary_edit(change):
    return edit(STATS, change)


#: Damage to stats.json: (name, mutate(spilled dir)).
STATS_DAMAGE = [
    ("cut_in_half", lambda path: os.truncate(
        os.path.join(path, STATS), os.path.getsize(os.path.join(path, STATS)) // 2)),
    ("bit_flipped", flip_bit(STATS, 2)),
    ("not_an_object", lambda path: open(os.path.join(path, STATS), "w").write("[1, 2]")),
    ("row_count_disagrees", summary_edit(lambda s: s.update(row_count=7))),
    ("a_column_missing", summary_edit(lambda s: s["columns"].pop())),
    ("distinct_not_a_number", summary_edit(lambda s: s["columns"][0].update(distinct="x"))),
    ("histogram_without_depths", summary_edit(lambda s: s["columns"][0]["histogram"].pop("depths"))),
    ("histogram_depths_short", summary_edit(lambda s: s["columns"][1]["histogram"]["depths"].pop())),
]


@pytest.mark.parametrize("options", EXECUTORS)
@pytest.mark.parametrize(
    "mutate", [d[1] for d in STATS_DAMAGE], ids=[d[0] for d in STATS_DAMAGE]
)
def test_damaged_statistics_only_cost_the_persisted_statistics(tmp_path, mutate, options):
    # stats.json is optional: damage there means "no persisted statistics",
    # so the first planning counts the stored rows and answers stay exact.
    db = Database("faults")
    db.declare("R", relation_type("rs", record("r", a=INTEGER, b=STRING), key=("a",)), ROWS)
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    mutate(path)
    cold = open_database(path)
    assert Session(cold, options=options).query(QUERY) == Session(db).query(QUERY)
    stats = cold.relation("R").stats()
    assert stats.row_count == len(ROWS) and stats.describe() == db.relation("R").stats().describe()
