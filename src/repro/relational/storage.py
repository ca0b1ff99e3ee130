"""Out-of-core columnar storage: partitioned, self-describing relation files.

The paper assumes database-resident relations; everything above this
module so far assumed *memory*-resident ones.  This module closes the
gap with a deliberately small on-disk format that reuses the PR 8
encoding verbatim: each relation directory persists its per-column
:class:`~repro.relational.vectors.Dictionary` values once (the value
pages) and its rows as fixed-width ``array('q')`` id pages, split into
partitions of ``rows_per_partition`` rows.

Layout of a spilled database directory::

    <db>/meta.json                  format magic, version, relation names
    <db>/<relation>/meta.json       arity, row count, partition manifest
                                    (per partition: file, rows, per-column
                                    min/max for pruning and id-page CRC32)
    <db>/<relation>/schema.pkl      pickled RelationType (self-description)
    <db>/<relation>/dict-<pos>.bin  column ``pos``'s value page
    <db>/<relation>/stats.json      statistics summary (optional)
    <db>/<relation>/part-NNNN.bin   one id page per column, seekable

A partition file is a 17-byte header (``RPC1`` magic, format version,
column count, row count) followed by one little-endian int64 id buffer
per column, each exactly ``8 * rows`` bytes.  Fixed-width pages are the
whole point: the reader computes the byte offset of any column and
**seeks past dead columns**, so a projection-pushdown scan performs I/O
proportional to the live columns of the *matching* partitions only.
Predicate pushdown prunes whole partitions against the manifest's
per-column min/max before any page is read, then decides each pushed
conjunct once per distinct id of the surviving pages.  A value page
(``RPV2`` magic, format version, kind, count, CRC32 of the body) holds
int64 values as one ``array('q')``, and strings (kind ``s``) or tagged
scalars (kind ``t``: bool, int of any size, float, None) as an offsets
array plus a blob; a store decodes only the ids its walks cite, once.
``stats.json`` holds the row count and per column the distinct count,
the heavy-hitter count and the equi-depth histogram, so a fresh handle
plans without counting; exact multisets are recounted from the id pages
when a write first needs them.

One private walk (:meth:`RelationStore._walk`) does all of that
and every reader consumes it: ``scan`` keeps the rows, ``encoded_scan``
the id buffers too, ``encoded_table`` is ``encoded_scan`` unpushed, and
``lookup`` (a cold insert's key check) walks the partitions a key fits.

Stored bytes are outside input: a damaged store is a
:class:`~repro.errors.StorageError` naming the file, never a wrong row
or a bare builtin exception.  Manifests are validated once, where they
load (format version, keys, partition entries, ``row_count`` = Σ
partition rows), the schema pickle on load, page headers, lengths and
CRC32s where a page is read (``.bin`` is the only page codec), ids
against their value page's count in the walk.  A damaged ``stats.json``
reads as no statistics: the planner counts the stored rows instead.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import sys
import threading
import zlib
from array import array
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import eq, ge, gt, itemgetter, le, lt, ne

from ..errors import StorageError

__all__ = [
    "RelationStore",
    "open_database",
    "spill_database",
]

#: Database-level format magic recorded in the top ``meta.json``.
_FORMAT = "repro-columnar"
_FORMAT_VERSION = 2

#: Partition page header: magic, format version, columns, rows.
_PAGE_MAGIC = b"RPC1"
_PAGE_HEADER = struct.Struct("<4sBIQ")

#: Value page header: magic, format version, kind, count, CRC32 of the body.
_VALUE_MAGIC = b"RPV2"
_VALUE_HEADER = struct.Struct("<4sBcQI")


# ---------------------------------------------------------------------------
# Value pages: what an id means, decoded id by id
# ---------------------------------------------------------------------------


def _ints(data, typecode: str = "q") -> array:
    """A little-endian int64 buffer as an array (native byte order)."""
    out = array(typecode)
    out.frombytes(data)
    if sys.byteorder != "little":
        out.byteswap()
    return out


def _le(values: array) -> bytes:
    if sys.byteorder != "little":
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _tag(value) -> str:
    """A mixed column's scalar as a tag letter plus text (ints in hex: no digit limit)."""
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value:x}"
    if isinstance(value, float):
        return "f" + value.hex()
    if isinstance(value, str):
        return "s" + value
    if value is None:
        return "n"
    raise StorageError(f"a {type(value).__name__} value has no stored form")


_UNTAG = {"b": "1".__eq__, "i": lambda text: int(text, 16), "f": float.fromhex, "s": str,
          "n": lambda text: None}


def _untag(text: str):
    return _UNTAG[text[0]](text[1:])


def _value_page(values: list) -> bytes:
    """A column's value page: its header, then the values as int64s (kind
    ``q``), or the character offsets and UTF-8 text of strings (kind
    ``s``) or of tagged scalars (kind ``t``)."""
    if all(type(v) is int and -(2**63) <= v < 2**63 for v in values):
        kind, body = b"q", _le(array("q", values))
    else:
        kind = b"s" if all(type(v) is str for v in values) else b"t"
        items = values if kind == b"s" else [_tag(v) for v in values]
        offsets = array("q", accumulate(map(len, items), initial=0))
        body = _le(offsets) + "".join(items).encode("utf-8", "surrogatepass")
    crc = zlib.crc32(body)
    return _VALUE_HEADER.pack(_VALUE_MAGIC, _FORMAT_VERSION, kind, len(values), crc) + body


class _ValuePage:
    """One column's persisted values, decoded only where a walk cites them.

    ``values`` maps each id :meth:`cite` saw to its value, and the page
    keeps what it decoded for its store's lifetime: a dict while partly
    decoded (ints to strings only, so the collector stops traversing it,
    and a dead handle that read one partition frees that partition's
    values, not a slot per id), a list once every id is decoded (by
    :meth:`cite` or :meth:`all`), the ``array`` itself for an int64 page.
    """

    __slots__ = ("filename", "count", "values", "_offsets", "_text", "_item",
                 "_counters", "_lock")

    def __init__(self, filename: str, data: bytes, counters) -> None:
        if len(data) < _VALUE_HEADER.size:
            raise StorageError(f"truncated value page header in {filename!r}")
        magic, version, kind, count, crc = _VALUE_HEADER.unpack_from(data)
        if magic != _VALUE_MAGIC or version != _FORMAT_VERSION or kind not in b"qst":
            raise StorageError(
                f"bad value page header in {filename!r}: magic {magic!r}, "
                f"version {version}, kind {kind!r}"
            )
        body = data[_VALUE_HEADER.size :]
        if zlib.crc32(body) != crc:
            raise StorageError(f"checksum mismatch in value page {filename!r}")
        self.filename, self.count, self._counters = filename, count, counters
        self._lock = threading.Lock()
        if kind == b"q":
            if len(body) != 8 * count:
                raise StorageError(f"truncated value page {filename!r}")
            self.values, self._text = _ints(body), None
            return
        head = 8 * (count + 1)
        try:
            offsets, text = _ints(body[:head]), body[head:].decode("utf-8", "surrogatepass")
        except ValueError as exc:  # a cut offsets array, or bytes that are not UTF-8
            raise StorageError(f"undecodable value page {filename!r}: {exc!r}") from None
        if len(offsets) != count + 1 or offsets[0] != 0 or offsets[-1] != len(text):
            raise StorageError(f"truncated value page {filename!r}")
        self.values, self._offsets, self._text = {}, offsets, text
        self._item = None if kind == b"s" else _untag

    def cite(self, ids):
        """``values`` with every id of ``ids`` (all below ``count``) decoded."""
        if self._text is None:  # ``_text`` first: :meth:`all` sets ``values`` before it
            return self.values
        with self._lock:
            values, text = self.values, self._text
            if text is None:  # another thread decoded the page whole
                return values
            missing = set(ids).difference(values)  # empty once another thread completed it
            offsets, item = self._offsets, self._item
            if item is None:
                for i in missing:
                    values[i] = text[offsets[i] : offsets[i + 1]]
            else:
                try:
                    for i in missing:
                        values[i] = item(text[offsets[i] : offsets[i + 1]])
                except (ValueError, KeyError, IndexError) as exc:
                    raise StorageError(
                        f"undecodable value in {self.filename!r}: {exc!r}"
                    ) from None
            self._counters.values_decoded += len(missing)
            if len(values) == self.count:
                # Every id decoded: nothing left to cite, and a list holds the
                # values in a slot per id, not a dict entry plus an int key.
                self.values = values = list(map(values.__getitem__, range(self.count)))
                self._offsets = self._text = None
        return values

    def all(self) -> list:
        """Every value, in id order: a page not yet decoded whole is
        decoded in one pass over its offsets, and kept like cited ids."""
        with self._lock:
            values, text = self.values, self._text
            if text is None:  # an int64 page, or every id decoded
                return list(values)
            offsets, item = self._offsets, self._item
            decoded = [text[start:end] for start, end in zip(offsets, offsets[1:])]
            if item is not None:
                try:
                    decoded = [item(value) for value in decoded]
                except (ValueError, KeyError, IndexError) as exc:
                    raise StorageError(
                        f"undecodable value in {self.filename!r}: {exc!r}"
                    ) from None
            self._counters.values_decoded += self.count - len(values)
            self.values, self._offsets, self._text = decoded, None, None
            return decoded[:]


# ---------------------------------------------------------------------------
# Pruning: conservative partition elimination against per-column min/max
# ---------------------------------------------------------------------------

#: JSON-faithful scalar types: values of these types survive the
#: ``meta.json`` round trip unchanged, so their min/max are safe to
#: compare against query constants.  Anything else (or a mixed-type
#: column chunk) records no min/max and is never pruned on.
_MINMAX_TYPES = (int, float, str)


def _chunk_minmax(values) -> list | None:
    """``[lo, hi]`` for one partition's column values, or None.

    Conservative: only homogeneous int/float/str chunks (bool excluded —
    it is an int subtype but semantically distinct) get bounds; any
    comparison surprise keeps the partition scannable forever.
    """
    lo = hi = None
    for v in values:
        if type(v) not in _MINMAX_TYPES:
            return None
        if lo is None:
            lo = hi = v
        else:
            try:
                if v < lo:
                    lo = v
                elif v > hi:
                    hi = v
            except TypeError:
                return None
    if lo is None or type(lo) is not type(hi):
        return None
    return [lo, hi]


def _partition_matches(minmax: dict, pos: int, op: str, value) -> bool:
    """Can any row of the partition satisfy ``column[pos] <op> value``?

    Answers True (keep the partition) on every doubt: missing bounds,
    cross-type comparisons, unknown operators.
    """
    bounds = minmax.get(str(pos))
    if bounds is None:
        return True
    lo, hi = bounds
    try:
        if op == "=":
            return not (value < lo or value > hi)
        if op == "<":
            return lo < value
        if op == "<=":
            return lo <= value
        if op == ">":
            return hi > value
        if op == ">=":
            return hi >= value
        if op == "<>":
            return not (lo == hi == value)
        if op == "in":
            return any(not (v < lo or v > hi) for v in value)
    except TypeError:
        return True
    return True


def _may_match(part: dict, restrictions) -> bool:
    """The pruning test: can ``part`` hold a row meeting every ``(pos, op, value)``?"""
    return all(
        _partition_matches(part["minmax"], pos, op, value)
        for pos, op, value in restrictions
    )


def _resolve_selection(selection, params) -> list:
    """``(pos, op, value)`` triples from symbolic pushdown specs.

    A spec's value is ``("const", v)`` (compile-time constant) or
    ``("param", name)`` (prepared-plan slot resolved per execution).
    Unresolvable conjuncts are dropped — the compiled plan's own filters
    re-check every pushed predicate, so the reader-side filter is a pure
    pre-filter and dropping one is always safe.
    """
    resolved = []
    for pos, op, spec in selection or ():
        kind, payload = spec
        if kind == "const":
            resolved.append((pos, op, payload))
        elif kind == "param" and params is not None:
            try:
                resolved.append((pos, op, params[payload]))
            except KeyError:
                continue
    return resolved


_CMP = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _load_manifest(filename: str, required: tuple = ()) -> dict:
    """Parse a ``meta.json``: a JSON object carrying ``required`` keys."""
    try:
        with open(filename, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StorageError(f"unreadable manifest {filename!r}: {exc}") from exc
    if not isinstance(meta, dict):
        raise StorageError(f"manifest {filename!r} is not a JSON object")
    missing = [key for key in required if key not in meta]
    if missing:
        raise StorageError(f"manifest {filename!r} lacks {missing}")
    return meta


class StoreCounters:
    """Observability for scans: what the readers actually touched.

    ``rows_decoded``/``cells_decoded`` count the rows and cells of the id
    pages read (the work pushdown exists to avoid); ``bytes_read`` counts
    id-page bytes pulled off disk.  E22 and the pushdown tests assert on
    the ratios.  ``values_decoded`` counts the strings and tagged scalars
    built from value pages, each at most once per store (an int64 page is
    read by index).
    """

    __slots__ = (
        "partitions_read",
        "partitions_pruned",
        "rows_decoded",
        "cells_decoded",
        "bytes_read",
        "values_decoded",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class RelationStore:
    """Lazy reader over one spilled relation directory.

    Everything heavy loads on first demand.  A database opens its stores
    with the row counts of its own manifest and the schema pickles, which
    is what lets a reopened database answer ``len(rel)`` before any scan
    (so ``row_count`` must equal what the scan returns); the per-relation
    ``meta.json`` is read and validated on first use (a store constructed
    on its own reads it at once).  The statistics summary loads when the
    relation is first priced, a column's value page when a walk first
    reads that column, and each page decodes only the ids walks cite.
    """

    __slots__ = (
        "path",
        "_meta",
        "_rows",
        "counters",
        "_pages",
        "_dicts",
        "_stats",
        "_rtype",
        "_lock",
    )

    def __init__(self, path: str, row_count: int | None = None) -> None:
        self.path = path
        self._meta, self._rows = None, row_count
        self.counters = StoreCounters()
        self._pages: dict = {}
        self._dicts = None
        self._stats = False  # tri-state: False=unloaded, None=absent
        self._rtype = None
        self._lock = threading.Lock()
        if row_count is None:
            self._load_meta()

    @property
    def meta(self) -> dict:
        """The relation's validated ``meta.json``, read on first use."""
        meta = self._meta
        return self._load_meta() if meta is None else meta

    def _load_meta(self) -> dict:
        manifest = os.path.join(self.path, "meta.json")
        meta = _load_manifest(manifest, ("name", "arity", "row_count", "partitions"))
        parts = meta["partitions"]
        well_formed = isinstance(meta["arity"], int) and isinstance(parts, list) and all(
            isinstance(part, dict)
            and isinstance(part.get("file"), str)
            and isinstance(part.get("rows"), int)
            and isinstance(part.get("minmax"), dict)
            for part in parts
        )
        if not well_formed:
            raise StorageError(
                f"manifest {manifest!r} needs an integer arity and a file, "
                "rows and minmax in every partition entry"
            )
        if sum(part["rows"] for part in parts) != meta["row_count"]:
            raise StorageError(
                f"manifest {manifest!r}: row_count {meta['row_count']!r} is not "
                "the sum of its partitions' rows"
            )
        if self._rows not in (None, meta["row_count"]):
            raise StorageError(
                f"manifest {manifest!r}: row_count {meta['row_count']!r}, but the "
                f"database manifest says {self._rows!r}"
            )
        self._rows, self._meta = meta["row_count"], meta
        return meta

    # -- self-description ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.meta["name"]

    @property
    def arity(self) -> int:
        return self.meta["arity"]

    @property
    def row_count(self) -> int:
        return self._rows

    def relation_type(self):
        rtype = self._rtype
        if rtype is None:
            data = self._read_file("schema.pkl")
            try:
                rtype = self._rtype = pickle.loads(data)
            except Exception as exc:  # damaged bytes make pickle.loads raise anything
                raise StorageError(
                    f"unreadable {os.path.join(self.path, 'schema.pkl')!r}: {exc!r}"
                ) from exc
        return rtype

    def _read_file(self, filename: str) -> bytes:
        """The whole of one of the relation's files."""
        filename = os.path.join(self.path, filename)
        try:
            with open(filename, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise StorageError(f"unreadable {filename!r}: {exc}") from exc

    def _values(self, pos: int) -> _ValuePage:
        """Column ``pos``'s value page, read and checked once per store."""
        page = self._pages.get(pos)
        if page is None:
            name = f"dict-{pos}.bin"
            page = _ValuePage(os.path.join(self.path, name), self._read_file(name), self.counters)
            page = self._pages.setdefault(pos, page)
        return page

    def load_dictionaries(self) -> tuple:
        """One full :class:`~repro.relational.vectors.Dictionary` per column:
        what encoding needs (``encoded_scan``, a cold relation's
        ``dictionaries()`` and its tail); reading rows never builds one."""
        from .vectors import Dictionary

        dicts = self._dicts
        if dicts is None:
            with self._lock:
                dicts = self._dicts
                if dicts is None:
                    dicts = self._dicts = tuple(
                        Dictionary.of(self._values(pos).all()) for pos in range(self.arity)
                    )
        return dicts

    def load_stats(self):
        """The persisted statistics summary as a TableStats, or None when
        the spill had none or it no longer reads (it is optional: the
        planner recounts).  Exact multisets load on a write's first need."""
        from .stats import TableStats

        stats = self._stats
        if stats is False:
            try:
                summary = json.loads(self._read_file("stats.json"))
                stats = TableStats.from_summary(summary, self.arity, self.column_counts)
                if stats.row_count != self.row_count:
                    raise ValueError("the summary counts other rows")
            except (StorageError, ValueError):
                stats = None
            self._stats = stats
        return stats

    def column_counts(self, pos: int) -> Counter:
        """The exact multiset of column ``pos``'s stored values, recounted
        from its id pages (one ``Counter`` per page, one decode per id)."""
        ids = Counter()
        for part in self.meta["partitions"]:
            ids.update(self._read_columns(part, (pos,))[0][pos])
        values = self._values(pos).cite(ids)
        return Counter({values[i]: n for i, n in ids.items()})

    # -- page reading -------------------------------------------------------

    def _read_columns(self, part: dict, live: tuple) -> tuple[dict, dict]:
        """``({pos: array('Q')}, {pos: value page})`` of the partition's
        live columns, every id below its value page's count (one C-level
        ``max`` per page).  Read *unsigned*: a valid id reads the same
        either way and a negative one becomes too large for any page.
        """
        filename = os.path.join(self.path, part["file"])
        if not filename.endswith(".bin"):
            raise StorageError(
                f"partition page {filename!r} is not a .bin id page "
                "(the only page codec)"
            )
        nrows = part["rows"]
        crcs = part.get("crc") if isinstance(part.get("crc"), str) else ""
        out = {}
        try:
            with open(filename, "rb") as fh:
                header = fh.read(_PAGE_HEADER.size)
                if len(header) != _PAGE_HEADER.size:
                    raise StorageError(f"truncated page header in {filename!r}")
                magic, version, ncols, hrows = _PAGE_HEADER.unpack(header)
                if magic != _PAGE_MAGIC or version != _FORMAT_VERSION:
                    raise StorageError(
                        f"bad partition page header in {filename!r}: "
                        f"magic {magic!r}, version {version}"
                    )
                if hrows != nrows or ncols != self.arity:
                    raise StorageError(
                        f"partition page {filename!r} holds {hrows} rows x {ncols} "
                        f"columns, its manifest says {nrows} x {self.arity}"
                    )
                page = 8 * nrows
                for pos in live:
                    fh.seek(_PAGE_HEADER.size + pos * page)
                    body = fh.read(page)
                    if len(body) != page:
                        raise StorageError(
                            f"truncated id page in {filename!r} (column {pos})"
                        )
                    if f"{zlib.crc32(body):08x}" != crcs[8 * pos : 8 * pos + 8]:
                        raise StorageError(
                            f"checksum mismatch in id page {filename!r} (column {pos}) "
                            "against its manifest entry's crc"
                        )
                    out[pos] = _ints(body, "Q")
        except OSError as exc:
            raise StorageError(f"unreadable partition page {filename!r}: {exc}") from exc
        self.counters.partitions_read += 1
        self.counters.rows_decoded += nrows
        self.counters.cells_decoded += nrows * len(live)
        self.counters.bytes_read += _PAGE_HEADER.size + 8 * nrows * len(live)
        pages = {pos: self._values(pos) for pos in live}
        for pos, ids in out.items():
            if ids and max(ids) >= pages[pos].count:
                raise StorageError(
                    f"id page {filename!r} holds an id the dictionary of "
                    f"column {pos} never issued"
                )
        return out, pages

    # -- scanning -----------------------------------------------------------

    def _walk(self, projection, selection, params, buffers=None, parts=None) -> list:
        """The one partition walk behind every reader: the matching rows.

        ``projection`` is a tuple of column positions the caller will
        read (None → all); ``selection`` a tuple of symbolic
        ``(pos, op, spec)`` pushdown predicates.  Each partition the
        manifest cannot prune is read (live columns only) and checked —
        an id its value page never issued is a :class:`StorageError`
        here, before any row or table exists.  Each pushed conjunct is
        decided once per distinct id on the page, and only the kept
        rows' ids are decoded, column by column.  Rows are always
        full-width: dead columns hold None, safe exactly because the
        pushdown compiler proved nothing reads them.  With ``buffers``
        (``encoded_scan``) the surviving ids of each live column are
        appended to ``buffers[pos]`` as well; with ``parts`` only those
        manifest partitions are walked.
        """
        resolved = _resolve_selection(selection, params)
        arity = self.arity
        if projection is None:
            live = tuple(range(arity))
        else:
            live = tuple(sorted({*projection, *(pos for pos, _, _ in resolved)}))
        # One output list, no per-partition pieces handed back: every extra
        # live container per partition moves cold reads' full-GC cadence
        # (ROADMAP item 6 has the measurement).
        rows: list = []
        for part in self.meta["partitions"] if parts is None else parts:
            if not _may_match(part, resolved):
                self.counters.partitions_pruned += 1
                continue
            columns, pages = self._read_columns(part, live)
            keep = None  # every row of the partition
            for pos, op, value in resolved:
                ids, cmp = columns[pos], _CMP.get(op)
                if cmp is None:
                    continue  # the compiled filters re-check every conjunct
                cited = set(ids) if keep is None else set(map(ids.__getitem__, keep))
                values = pages[pos].cite(cited)
                try:
                    ok = {i for i in cited if cmp(values[i], value)}
                except TypeError:
                    continue  # a surprise comparison: left to them as well
                if keep is None:
                    keep = list(compress(range(part["rows"]), map(ok.__contains__, ids)))
                else:
                    keep = [r for r in keep if ids[r] in ok]
            if keep is not None:
                columns = {
                    pos: array("Q", map(ids.__getitem__, keep)) for pos, ids in columns.items()
                }
            if buffers is not None:
                for pos, ids in columns.items():
                    buffers.setdefault(pos, array("q")).frombytes(ids.tobytes())
            if not live:  # nothing read, nothing pushed: every row, all None
                rows.extend(repeat((None,) * arity, part["rows"]))
                continue
            cols = [repeat(None)] * arity
            for pos, ids in columns.items():
                cols[pos] = map(pages[pos].cite(ids).__getitem__, ids)
            rows.extend(zip(*cols))
        return rows

    def scan(self, projection=None, selection=(), params=None) -> list:
        """Materialize matching rows, decoding only the live columns."""
        return self._walk(projection, selection, params)

    def lookup(self, positions, rows, read: set) -> list:
        """A cold relation's key check: every row of the partitions not in
        ``read`` (manifest indices, which they then join) whose bounds admit,
        on each of ``positions``, some row of ``rows``.  The others are never
        read, and when none admits neither are the value pages."""
        keys = [(pos, "in", {row[pos] for row in rows}) for pos in positions]
        parts = self.meta["partitions"]
        fresh = [i for i, p in enumerate(parts) if i not in read and _may_match(p, keys)]
        found = self._walk(None, (), None, parts=[parts[i] for i in fresh])
        self.counters.partitions_pruned += len(parts) - len(read) - len(fresh)
        read.update(fresh)
        return found

    def encoded_scan(self, projection=None, selection=(), params=None):
        """An EncodedTable of the matching rows, straight from id pages.

        The persisted dictionaries produced the persisted ids, so the
        surviving ids concatenate into valid column vectors without any
        re-encoding.  Dead columns are zero-fill placeholders (and None
        in the aligned ``rows``), for the reason :meth:`_walk` gives.
        """
        from .vectors import ColumnVector, EncodedTable

        dicts = self.load_dictionaries()
        buffers: dict = {}
        rows = self._walk(projection, selection, params, buffers)
        n = len(rows)
        zero = array("q", bytes(8 * n))
        columns = tuple(
            ColumnVector(buffers.get(pos, zero), dicts[pos]) for pos in range(self.arity)
        )
        return EncodedTable(columns, rows, n)

    def encoded_table(self):
        """The whole relation: :meth:`encoded_scan` with nothing pushed, so
        a cold ``Relation.encoded()`` costs pure I/O plus one decode pass."""
        return self.encoded_scan()

    def prune_fraction(self, restrictions) -> float:
        """Fraction of stored rows in partitions surviving ``restrictions``.

        ``restrictions`` are concrete ``(pos, op, value)`` triples (the
        cost model resolves constants at pricing time).  1.0 when the
        manifest carries no usable bounds — pruning never makes a plan
        *look* cheaper than an honest full scan without evidence.
        """
        total = self.row_count
        if not total or not restrictions:
            return 1.0
        parts = self.meta["partitions"]
        return sum(p["rows"] for p in parts if _may_match(p, restrictions)) / total


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _write_partition(path: str, chunk: list, dicts: tuple) -> dict:
    """Write one partition's id pages; return its manifest entry."""
    nrows = len(chunk)
    ncols = len(dicts)
    pages = [
        _le(d.encode_batch(map(itemgetter(pos), chunk))) for pos, d in enumerate(dicts)
    ]
    minmax = {}
    for pos in range(ncols):
        bounds = _chunk_minmax(map(itemgetter(pos), chunk))
        if bounds is not None:
            minmax[str(pos)] = bounds
    filename = path + ".bin"
    with open(filename, "wb") as fh:
        fh.write(_PAGE_HEADER.pack(_PAGE_MAGIC, _FORMAT_VERSION, ncols, nrows))
        for page in pages:
            fh.write(page)
    return {
        "file": os.path.basename(filename),
        "rows": nrows,
        "minmax": minmax,
        # One string, eight hex digits per column: no container per entry.
        "crc": "".join(f"{zlib.crc32(page):08x}" for page in pages),
    }


def spill_relation(rel, path: str, rows_per_partition: int = 4096) -> RelationStore:
    """Persist one relation into ``path`` and return a reader over it."""
    if rows_per_partition < 1:
        raise StorageError("rows_per_partition must be at least 1")
    os.makedirs(path, exist_ok=True)
    # Deterministic partitioning: sorted rows spill identically across
    # runs, and sorting clusters values so per-partition min/max prune.
    try:
        rows = rel.sorted_rows()
    except TypeError:
        rows = rel.raw_list()
    dicts = rel.dictionaries()
    partitions = []
    for start in range(0, len(rows), rows_per_partition):
        chunk = rows[start : start + rows_per_partition]
        entry = _write_partition(
            os.path.join(path, f"part-{len(partitions):04d}"),
            chunk,
            dicts,
        )
        partitions.append(entry)
    element = rel.rtype.element
    meta = {
        "name": rel.name,
        "arity": len(element.attribute_names),
        "attributes": list(element.attribute_names),
        "key": list(rel.rtype.key),
        "row_count": len(rows),
        "codec": "bin",
        "partitions": partitions,
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    with open(os.path.join(path, "schema.pkl"), "wb") as fh:
        pickle.dump(rel.rtype, fh)
    for pos, d in enumerate(dicts):
        with open(os.path.join(path, f"dict-{pos}.bin"), "wb") as fh:
            fh.write(_value_page(d.values[:]))
    with open(os.path.join(path, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(rel.stats().summary(), fh)
    return RelationStore(path)


def spill_database(db, path: str, rows_per_partition: int = 4096) -> None:
    """Persist every relation of ``db`` into the directory ``path``.

    Statistics spill alongside the data, so :func:`open_database` plans
    as well as the warm database did — before its first scan.
    """
    os.makedirs(path, exist_ok=True)
    names = sorted(db.relations)
    rows = {
        name: spill_relation(
            db.relations[name], os.path.join(path, name), rows_per_partition
        ).row_count
        for name in names
    }
    meta = {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        "name": db.name,
        "relations": names,
        "rows": rows,  # what opening needs: relation manifests load on first use
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def open_database(path: str):
    """Open a spilled directory as a database of cold, store-backed relations.

    Every relation knows its cardinality and statistics from the
    manifest, so planning, plan caching, and ``StatsCatalog.epoch()``
    work immediately; rows materialize lazily — and scans with pushdown
    may answer queries without ever materializing the full relation.
    """
    from .database import Database
    from .relation import Relation

    manifest = os.path.join(path, "meta.json")
    meta = _load_manifest(manifest)
    if meta.get("format") != _FORMAT:
        raise StorageError(
            f"{path!r} is not a {_FORMAT} database directory"
        )
    if meta.get("version") != _FORMAT_VERSION:
        raise StorageError(
            f"manifest {manifest!r} has format version {meta.get('version')!r}; "
            f"this reader reads version {_FORMAT_VERSION} only"
        )
    rows = meta.get("rows")
    if not isinstance(meta.get("relations"), list):
        raise StorageError(f"manifest {manifest!r} lacks ['relations']")
    if not (isinstance(rows, dict) and all(type(rows.get(n)) is int for n in meta["relations"])):
        raise StorageError(f"manifest {manifest!r} lacks a row count per relation")
    db = Database(meta.get("name", "db"))
    for name in meta["relations"]:
        store = RelationStore(os.path.join(path, name), rows[name])
        rel = Relation.from_store(name, store.relation_type(), store)
        rel._sink = db.subscriptions
        db.relations[name] = rel
    return db
