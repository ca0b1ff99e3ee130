"""Out-of-core columnar storage: partitioned, self-describing relation files.

The paper assumes database-resident relations; everything above this
module so far assumed *memory*-resident ones.  This module closes the
gap with a deliberately small on-disk format that reuses the PR 8
encoding verbatim: each relation directory persists its per-column
:class:`~repro.relational.vectors.Dictionary` objects once (the
dictionary pages) and its rows as fixed-width ``array('q')`` id pages,
split into partitions of ``rows_per_partition`` rows.

Layout of a spilled database directory::

    <db>/meta.json                  format magic + relation names
    <db>/<relation>/meta.json       arity, row count, partition manifest
                                    (per partition: file, rows, per-column
                                    min/max for pruning)
    <db>/<relation>/schema.pkl      pickled RelationType (self-description)
    <db>/<relation>/dicts.pkl       pickled per-column dictionaries
    <db>/<relation>/stats.pkl       pickled TableStats (optional)
    <db>/<relation>/part-NNNN.bin   one id page per column, seekable

A partition file is a 17-byte header (``RPC1`` magic, format version,
column count, row count) followed by one little-endian int64 id buffer
per column, each exactly ``8 * rows`` bytes.  Fixed-width pages are the
whole point: the reader computes the byte offset of any column and
**seeks past dead columns**, so a projection-pushdown scan performs I/O
and decoding proportional to the live columns of the *matching*
partitions only.  Predicate pushdown prunes whole partitions against
the manifest's per-column min/max before any page is read, then filters
the surviving partitions' decoded values row by row.

One private walk (:meth:`RelationStore._walk`) does all of that
and every reader consumes it: ``scan`` keeps the rows, ``encoded_scan``
the id buffers too, ``encoded_table`` is ``encoded_scan`` unpushed, and
``lookup`` (a cold insert's key check) walks the partitions a key fits.

Stored bytes are outside input: a damaged store is a
:class:`~repro.errors.StorageError` naming the file, never a wrong row
or a bare builtin exception.  Manifests are validated once, where they
load (keys, partition entries, ``row_count`` = Σ partition rows), pickles
on load (whatever ``pickle.load`` raises; damaged optional statistics
read as none), page headers and lengths in ``_read_columns`` (``.bin``
is the only page codec), ids in the walk's decode.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import sys
import threading
from array import array
from operator import itemgetter

from ..errors import StorageError

__all__ = [
    "RelationStore",
    "open_database",
    "spill_database",
]

#: Database-level format magic recorded in the top ``meta.json``.
_FORMAT = "repro-columnar"
_FORMAT_VERSION = 1

#: Partition page header: magic, format version, columns, rows.
_PAGE_MAGIC = b"RPC1"
_PAGE_HEADER = struct.Struct("<4sBIQ")


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


_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


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

    ``rows_decoded``/``cells_decoded`` count id→value decodes (the work
    pushdown exists to avoid); ``bytes_read`` counts page bytes pulled
    off disk.  E22 and the pushdown tests assert on the ratios.
    """

    __slots__ = (
        "partitions_read",
        "partitions_pruned",
        "rows_decoded",
        "cells_decoded",
        "bytes_read",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.partitions_read = 0
        self.partitions_pruned = 0
        self.rows_decoded = 0
        self.cells_decoded = 0
        self.bytes_read = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class RelationStore:
    """Lazy reader over one spilled relation directory.

    Everything heavy loads on first demand.  Constructing a store reads
    and validates only the small per-relation ``meta.json`` (opening a
    database adds the schema pickle), which is what lets a reopened
    database answer ``len(rel)`` before any scan (so ``row_count`` must
    equal what the scan returns).  The statistics load when the relation
    is first priced, the dictionaries when a walk first decodes a page.
    """

    __slots__ = (
        "path",
        "meta",
        "counters",
        "_dicts",
        "_issued",
        "_stats",
        "_rtype",
        "_lock",
    )

    def __init__(self, path: str) -> None:
        self.path = path
        manifest = os.path.join(path, "meta.json")
        self.meta = meta = _load_manifest(manifest, ("name", "arity", "row_count", "partitions"))
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
        self.counters = StoreCounters()
        self._dicts = self._issued = None
        self._stats = False  # tri-state: False=unloaded, None=absent
        self._rtype = None
        self._lock = threading.Lock()

    # -- self-description ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.meta["name"]

    @property
    def arity(self) -> int:
        return self.meta["arity"]

    @property
    def row_count(self) -> int:
        return self.meta["row_count"]

    def relation_type(self):
        rtype = self._rtype
        if rtype is None:
            rtype = self._rtype = self._unpickle("schema.pkl")
        return rtype

    def load_dictionaries(self) -> tuple:
        dicts = self._dicts
        if dicts is None:
            with self._lock:
                dicts = self._dicts
                if dicts is None:
                    dicts = self._unpickle("dicts.pkl")
                    self._issued = tuple(map(len, dicts))  # what the pages may cite
                    self._dicts = dicts
        return dicts

    def load_stats(self):
        """The persisted TableStats, or None when the spill had none or
        they no longer read (they are optional: the planner recomputes)."""
        stats = self._stats
        if stats is False:
            try:
                stats = self._unpickle("stats.pkl")
            except StorageError:
                stats = None
            self._stats = stats
        return stats

    def _unpickle(self, filename: str):
        filename = os.path.join(self.path, filename)
        try:
            with open(filename, "rb") as fh:
                return pickle.load(fh)
        except Exception as exc:  # damaged bytes make pickle.load raise anything
            raise StorageError(f"unreadable {filename!r}: {exc!r}") from exc

    # -- page reading -------------------------------------------------------

    def _read_columns(self, part: dict, live: tuple) -> dict:
        """``{pos: array('Q')}`` of the partition's live id pages.

        Read *unsigned*: a valid id reads the same either way and a
        negative one becomes too large for any dictionary, so the walk's
        decode rejects both with the bounds check it performs anyway.
        """
        filename = os.path.join(self.path, part["file"])
        if not filename.endswith(".bin"):
            raise StorageError(
                f"partition page {filename!r} is not a .bin id page "
                "(the only page codec)"
            )
        nrows = part["rows"]
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
                    ids = array("Q")
                    ids.frombytes(body)
                    if sys.byteorder != "little":
                        ids.byteswap()
                    out[pos] = ids
        except OSError as exc:
            raise StorageError(f"unreadable partition page {filename!r}: {exc}") from exc
        self.counters.partitions_read += 1
        self.counters.rows_decoded += nrows
        self.counters.cells_decoded += nrows * len(live)
        self.counters.bytes_read += _PAGE_HEADER.size + 8 * nrows * len(live)
        return out

    # -- scanning -----------------------------------------------------------

    def _walk(self, projection, selection, params, buffers=None, parts=None) -> list:
        """The one partition walk behind every reader: the matching rows.

        ``projection`` is a tuple of column positions the caller will
        read (None → all); ``selection`` a tuple of symbolic
        ``(pos, op, spec)`` pushdown predicates.  Each partition the
        manifest cannot prune is read (live columns only), decoded — an
        id its dictionary never issued is a :class:`StorageError` here,
        before any row or table exists — and pre-filtered on the pushed
        predicates.  Rows are always full-width: dead columns hold None,
        safe exactly because the pushdown compiler proved nothing reads
        them.  With ``buffers`` (``encoded_scan``) the surviving ids of
        each live column are appended to ``buffers[pos]`` as well; with
        ``parts`` only those manifest partitions are walked.
        """
        resolved = _resolve_selection(selection, params)
        arity = self.arity
        if projection is None:
            live = tuple(range(arity))
        else:
            live = tuple(sorted({*projection, *(pos for pos, _, _ in resolved)}))
        values = None  # the dictionaries load once some partition survives
        # One output list, no per-partition pieces handed back: every extra
        # live container per partition moves cold reads' full-GC cadence
        # (ROADMAP item 6 has the measurement).
        rows: list = []
        template = [None] * arity
        for part in self.meta["partitions"] if parts is None else parts:
            if not _may_match(part, resolved):
                self.counters.partitions_pruned += 1
                continue
            if values is None:  # ids past the persisted ones (a tail's) are damage too
                values = [d.values if len(d) == n else d.values[:n]
                          for d, n in zip(self.load_dictionaries(), self._issued)]
            columns = self._read_columns(part, live)
            decoded = {}
            for pos, ids in columns.items():
                try:
                    decoded[pos] = [values[pos][i] for i in ids]
                except IndexError:
                    raise StorageError(
                        f"id page {os.path.join(self.path, part['file'])!r} holds an "
                        f"id the dictionary of column {pos} never issued"
                    ) from None
            keep = range(part["rows"])
            if resolved:
                try:
                    keep = [
                        i
                        for i in keep
                        if all(
                            _CMP[op](decoded[pos][i], value)
                            for pos, op, value in resolved
                        )
                    ]
                except (TypeError, KeyError):
                    # A surprise comparison: hand the whole partition
                    # downstream, where the compiled filters re-check.
                    keep = range(part["rows"])
            if buffers is not None:
                for pos, ids in columns.items():
                    buf = buffers.setdefault(pos, array("q"))
                    if len(keep) == len(ids):
                        buf.frombytes(ids.tobytes())
                    else:
                        buf.extend([ids[i] for i in keep])
            for i in keep:
                row = template[:]
                for pos in live:
                    row[pos] = decoded[pos][i]
                rows.append(tuple(row))
        return rows

    def scan(self, projection=None, selection=(), params=None) -> list:
        """Materialize matching rows, decoding only the live columns."""
        return self._walk(projection, selection, params)

    def lookup(self, positions, rows, read: set) -> list:
        """A cold relation's key check: every row of the partitions not in
        ``read`` (manifest indices, which they then join) whose bounds admit,
        on each of ``positions``, some row of ``rows``.  The others are never
        read, and when none admits neither are the dictionaries."""
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
        d.encode_batch(map(itemgetter(pos), chunk)) for pos, d in enumerate(dicts)
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
            if sys.byteorder != "little":
                page = array("q", page)
                page.byteswap()
            fh.write(page.tobytes())
    return {
        "file": os.path.basename(filename),
        "rows": nrows,
        "minmax": minmax,
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
    with open(os.path.join(path, "dicts.pkl"), "wb") as fh:
        pickle.dump(dicts, fh)
    with open(os.path.join(path, "stats.pkl"), "wb") as fh:
        pickle.dump(rel.stats(), fh)
    return RelationStore(path)


def spill_database(db, path: str, rows_per_partition: int = 4096) -> None:
    """Persist every relation of ``db`` into the directory ``path``.

    Statistics spill alongside the data, so :func:`open_database` plans
    as well as the warm database did — before its first scan.
    """
    os.makedirs(path, exist_ok=True)
    names = sorted(db.relations)
    for name in names:
        spill_relation(
            db.relations[name], os.path.join(path, name), rows_per_partition
        )
    meta = {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        "name": db.name,
        "relations": names,
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
    if meta.get("version", 0) > _FORMAT_VERSION:
        raise StorageError(
            f"{path!r} uses format version {meta['version']}, "
            f"newer than this reader ({_FORMAT_VERSION})"
        )
    if not isinstance(meta.get("relations"), list):
        raise StorageError(f"manifest {manifest!r} lacks ['relations']")
    db = Database(meta.get("name", "db"))
    for name in meta["relations"]:
        store = RelationStore(os.path.join(path, name))
        rel = Relation.from_store(name, store.relation_type(), store)
        rel._sink = db.subscriptions
        db.relations[name] = rel
    return db
