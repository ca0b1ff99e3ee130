"""Typed column vectors: dictionary encoding over compact int-id buffers.

The columnar executor of PR 4 still carries Python object rows: every
hash probe hashes a full value tuple, every filter compares boxed
values, and every dedup hashes tuples of objects.  This module gives
each relation column a :class:`Dictionary` — an append-only bijection
between attribute values and dense int ids — and backs the encoded
columns with ``array('q')`` buffers (:class:`ColumnVector`), so the hot
operator kernels become integer work: equality joins probe dense
id-indexed tables, range and inequality filters compare against
per-dictionary lookup tables, and duplicate elimination reduces to
id-tuple set operations.

Encoding properties the executor relies on:

* **Ids are stable.**  A dictionary only ever appends; a value keeps
  its id across relation mutations, so encoded views of two versions of
  the same relation (or a snapshot and the live value) are directly
  comparable, and translation tables between two columns' dictionaries
  can be cached and extended instead of rebuilt.
* **Id tuples biject with value tuples.**  Deduplicating encoded rows
  and then decoding the distinct id tuples yields exactly the distinct
  value tuples.
* **Buffers are immutable once built.**  An :class:`EncodedTable` is
  version-stamped by its owning relation and never mutated afterwards —
  growth builds a new table (copy + extend, see
  :meth:`EncodedTable.extended`), so concurrent readers and zero-copy
  numpy views stay safe.

numpy is an optional accelerator, not a dependency: :func:`get_numpy`
answers the one question — the module when it is importable, else None
— and the vector executor backend hands its branches to ``batch`` when
the answer is None (see ``VectorBackend.pipeline_for``).  The encoding
itself (dictionaries, ``array('q')`` buffers, translation tables,
pickling, the on-disk format) never needs numpy.
"""

from __future__ import annotations

import threading
from array import array
from operator import itemgetter

__all__ = [
    "ColumnVector",
    "Dictionary",
    "EncodedTable",
    "get_numpy",
    "translation",
]

#: Lazily imported numpy module, or False once the import failed.
_NUMPY_MODULE = None


def get_numpy():
    """The numpy module when it is importable, else None."""
    global _NUMPY_MODULE
    if _NUMPY_MODULE is None:
        try:
            import numpy
        except ImportError:
            numpy = False
        _NUMPY_MODULE = numpy
    return _NUMPY_MODULE or None


class Dictionary:
    """An append-only bijection between column values and dense int ids.

    ``ids[value]`` is the value's id, ``values[id]`` the id's value; ids
    are assigned in first-encounter order and never reused or removed,
    so every id handed out stays valid forever (deleted rows leave their
    values registered — harmless, and what keeps snapshot views and
    cached translation tables comparable across relation versions).

    Encoding serializes on a private lock (two threads racing to encode
    a fresh value must agree on its id); lookups and decodes are
    lock-free reads of append-only structures.
    """

    __slots__ = ("ids", "values", "_lock")

    def __init__(self) -> None:
        self.ids: dict = {}
        self.values: list = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: list) -> "Dictionary":
        """The dictionary whose ``values`` are ``values`` (ids are positions)."""
        d = cls()
        d.values, d.ids = values, dict(zip(values, range(len(values))))
        return d

    def encode_batch(self, column) -> array:
        """Encode an iterable of values, registering fresh ones: once each,
        in first-encounter order, then one C-level pass over the column."""
        column = column if isinstance(column, list) else list(column)
        ids = self.ids
        fresh = [value for value in dict.fromkeys(column) if value not in ids]
        if fresh:
            with self._lock:
                values = self.values
                for value in fresh:
                    if value not in ids:
                        ids[value] = len(values)
                        values.append(value)
        return array("q", map(ids.__getitem__, column))

    def encode(self, value) -> int:
        """The value's id, registering it when unseen."""
        i = self.ids.get(value)
        if i is not None:
            return i
        with self._lock:
            i = self.ids.get(value)
            if i is None:
                i = self.ids[value] = len(self.values)
                self.values.append(value)
        return i

    def lookup(self, value) -> int:
        """The value's id, or -1 when the value was never encoded."""
        i = self.ids.get(value)
        return -1 if i is None else i

    def decode(self, i: int):
        return self.values[i]

    # Locks do not pickle; an unpickled dictionary gets a private one.  (A
    # spilled store keeps no pickled dictionary: it writes value pages, see
    # repro.relational.storage, and ``Dictionary.of`` rebuilds one.)
    def __getstate__(self):
        return (self.ids, self.values)

    def __setstate__(self, state) -> None:
        self.ids, self.values = state
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<Dictionary {len(self.values)} values>"


class ColumnVector:
    """One encoded column: an ``array('q')`` of ids plus its dictionary.

    The buffer is immutable once the vector is built (growth copies, see
    :meth:`EncodedTable.extended`), which makes the lazily created numpy
    view (:meth:`np_ids` — ``frombuffer``, zero copy) safe to cache.
    """

    __slots__ = ("ids", "dictionary", "_np")

    def __init__(self, ids: array, dictionary: Dictionary) -> None:
        self.ids = ids
        self.dictionary = dictionary
        self._np = None

    def __len__(self) -> int:
        return len(self.ids)

    def np_ids(self):
        """The ids as a zero-copy int64 numpy view (requires numpy)."""
        view = self._np
        if view is None:
            np = get_numpy()
            view = self._np = np.frombuffer(self.ids, dtype=np.int64)
        return view

    def nbytes(self) -> int:
        return len(self.ids) * self.ids.itemsize


class EncodedTable:
    """All columns of one committed relation state, dictionary-encoded.

    ``rows`` is the aligned raw row list the table was encoded from
    (row ``i``'s value tuple — late materialization and residual
    fallbacks read it).

    The per-column probe structure the int-id hash joins read (``csr``:
    stable argsort order + per-id starts and counts) is built lazily
    and cached.  Benign build races only waste work — assignment of the
    finished structure is atomic.
    """

    __slots__ = ("columns", "rows", "n", "_csr")

    def __init__(self, columns: tuple, rows: list | None, n: int) -> None:
        self.columns = columns
        self.rows = rows
        self.n = n
        self._csr: dict = {}

    @classmethod
    def from_rows(cls, rows: list, dictionaries: tuple) -> "EncodedTable":
        rows = rows if isinstance(rows, list) else list(rows)
        columns = tuple(
            ColumnVector(d.encode_batch(map(itemgetter(j), rows)), d)
            for j, d in enumerate(dictionaries)
        )
        return cls(columns, rows, len(rows))

    def extended(self, fresh_rows: list, all_rows: list) -> "EncodedTable":
        """A new table appending ``fresh_rows``: copy buffers + encode.

        The incremental-maintenance path of ``Relation.insert`` — a
        memcpy of the existing id buffers plus one dictionary pass over
        the new rows, instead of re-encoding the whole relation.
        """
        columns = []
        for j, col in enumerate(self.columns):
            ids = array("q", col.ids)
            ids.extend(col.dictionary.encode_batch(map(itemgetter(j), fresh_rows)))
            columns.append(ColumnVector(ids, col.dictionary))
        return EncodedTable(tuple(columns), all_rows, len(all_rows))

    def column(self, pos: int) -> ColumnVector:
        return self.columns[pos]

    def csr(self, pos: int):
        """Numpy probe table ``(order, starts, counts)`` for column ``pos``.

        ``order`` is a stable argsort of the ids; the rows matching id
        ``g`` are ``order[starts[g] : starts[g] + counts[g]]``.  Requires
        numpy (only the vector kernels call it).
        """
        entry = self._csr.get(pos)
        if entry is None:
            np = get_numpy()
            col = self.columns[pos]
            ids = col.np_ids()
            counts = np.bincount(ids, minlength=len(col.dictionary))
            starts = counts.cumsum() - counts
            order = np.argsort(ids, kind="stable")
            entry = self._csr[pos] = (order, starts, counts)
        return entry

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<EncodedTable {self.n} x {len(self.columns)} cols>"


def translation(src: Dictionary, dst: Dictionary) -> array | None:
    """Id-translation table from ``src``'s id space into ``dst``'s.

    ``translation(src, dst)[src_id]`` is the dst id encoding the same
    value, or -1 when dst never saw it (a join probe miss).  Returns
    None when both columns share one dictionary (a self-join on the
    same column — ids already agree).  Cost is one lookup per *distinct*
    src value; callers cache per execution keyed by the dictionary pair
    (both dictionaries only append, so a cached table is only ever too
    short, never wrong — see ``ExecutionContext.vector_cache`` users).
    """
    if src is dst:
        return None
    get = dst.ids.get
    return array("q", (get(v, -1) for v in src.values))
