"""What a damaged store does: one flat fault table.

Stored bytes are outside input.  Every row of ``FAULTS`` damages one file
of a freshly spilled 10-row relation (two partitions of 5) and the same
query is then driven through ``batch``, ``vector`` and ``sharded``: the
only acceptable outcome is a :class:`StorageError` whose message names
the damaged file — never rows (a wrong row least of all), never a bare
builtin exception.  New damage is one more row of the table.
"""

import json
import os
import re
import struct

import pytest

from repro.compiler import ShardConfig
from repro.compiler.options import ExecOptions
from repro.dbpl import Session
from repro.errors import StorageError
from repro.relational import Database, open_database
from repro.relational.storage import _PAGE_HEADER
from repro.relational.vectors import get_numpy
from repro.types import INTEGER, STRING, record, relation_type

ROWS = [(i, f"v{i}") for i in range(10)]
PER_PARTITION = 5
QUERY = "{EACH r IN R: r.a >= 0}"

PAGE = os.path.join("R", "part-0000.bin")
MANIFEST = os.path.join("R", "meta.json")
DICTS = os.path.join("R", "dicts.pkl")
STATS = os.path.join("R", "stats.pkl")
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


def cut(to: int | None = None, by: int = 0):
    def mutate(path: str) -> None:
        page = os.path.join(path, PAGE)
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


def flip_string(relative: str, text: str = "v1"):
    """Overwrite the first byte of the pickled string ``text`` in the
    pickle at ``relative`` with 0xff: no longer UTF-8, so ``pickle.load``
    raises ``UnicodeDecodeError``, which it is not documented to raise."""

    def mutate(path: str) -> None:
        filename = os.path.join(path, relative)
        with open(filename, "rb") as fh:
            data = fh.read()
        opcode = b"\x8c" + bytes([len(text)]) + text.encode()  # SHORT_BINUNICODE
        at = data.index(opcode) + 2
        with open(filename, "r+b") as fh:
            fh.seek(at)
            fh.write(b"\xff")

    return mutate


def names(relative: str, detail: str) -> str:
    """A pattern: the message names ``relative`` and then says ``detail``."""
    return re.escape(relative) + ".*" + detail


#: (name, mutate(spilled dir), regex the StorageError must match)
FAULTS = [
    ("id_negative", poke_id(-1), names(PAGE, "column 1 never issued")),
    ("id_past_its_dictionary", poke_id(10**6), names(PAGE, "column 1 never issued")),
    ("page_cut_to_5_bytes", cut(to=5), "truncated page header.*" + names(PAGE, "")),
    ("page_cut_by_3_bytes", cut(by=3), "truncated id page.*" + names(PAGE, "column 1")),
    ("dictionaries_emptied", empty(DICTS), names(DICTS, "")),
    ("dictionaries_string_byte_flipped", flip_string(DICTS), names(DICTS, "UnicodeDecodeError")),
    ("schema_emptied", empty(SCHEMA), names(SCHEMA, "")),
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
        "manifest_row_count_is_not_the_partition_sum",
        edit(MANIFEST, lambda meta: meta.update(row_count=7)),
        names(MANIFEST, "row_count 7"),
    ),
    ("page_magic_flipped", poke(0, b"XPC1"), names(PAGE, "magic b'XPC1'")),
    (
        "page_and_manifest_disagree_on_rows",
        poke(0, _PAGE_HEADER.pack(b"RPC1", 1, 2, 4)),
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


@pytest.mark.parametrize("options", EXECUTORS)
def test_damaged_statistics_only_cost_the_persisted_statistics(tmp_path, options):
    # stats.pkl is optional: damage there means "no persisted statistics",
    # so the first planning counts the stored rows and answers stay exact.
    db = Database("faults")
    db.declare("R", relation_type("rs", record("r", a=INTEGER, b=STRING), key=("a",)), ROWS)
    path = str(tmp_path / "store")
    db.spill(path, rows_per_partition=PER_PARTITION)
    flip_string(STATS)(path)
    cold = open_database(path)
    assert Session(cold, options=options).query(QUERY) == Session(db).query(QUERY)
    assert cold.relation("R").stats().row_count == len(ROWS)
