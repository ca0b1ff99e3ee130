"""Hash indexes over relation contents.

The paper's runtime level (section 4) generates *physical access paths*
— materialized partitions of a relation keyed by the constant values a
query restricts on.  :class:`HashIndex` is the underlying mechanism: one
dict from key to the matching rows.  The key form is decided here and
nowhere else (:func:`key_getter`): a one-column key is the bare value, a
wider key the value tuple, and an index on no columns keeps every row in
one bucket under ``()``.  Probers — the generated join kernels,
constant-key lookups, the tuple-at-a-time engine, the algebra's
equi-join — build their keys in that same form.

An index has one of two forms, fixed when it is built: the **bucket**
form maps a key to the list of its rows, in row order; the **unique**
form maps a key to its one row, and is built exactly when the indexed
positions cover the declared key of the rows' relation
(:func:`covers_key`).  The relation's type decides — in the relation's
index view (which also serves pinned readers and loaded cold relations)
and its :class:`ShardView` partitions — and the compiler decides the
same way from the same type (``LoopStep.unique``), so a generated probe
loop is written for the form it meets.  Everything else — fixpoint
values, deltas, computed ranges, residual group sets — is indexed in
the bucket form.

An index is **immutable once published**: a relation caches one
generation per attribute positions under its hit/extend/rebuild rule
(``Relation._view``), and growth is :meth:`HashIndex.extended` — a *new*
index that is copy-on-write at bucket granularity, sharing every
untouched bucket list with its predecessor — so a reader (or a relation
pinned at an older head) keeps probing exactly the committed state its
index was built for while appends cost O(delta + distinct keys), not a
rebuild.  This module holds no cache and no version logic of its own.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter


def key_getter(positions: tuple[int, ...]) -> Callable[[tuple], object]:
    """The key of a row for an index on ``positions``: the bare value of
    one position, the value tuple of several, ``()`` for none."""
    if len(positions) == 1:
        return itemgetter(positions[0])
    if positions:
        return itemgetter(*positions)
    return _no_key


def _no_key(row: tuple) -> tuple:
    return ()


def covers_key(key: tuple[int, ...] | None, positions: tuple[int, ...]) -> bool:
    """Whether an index on ``positions`` over rows whose relation declares
    the key ``key`` (None: no declared key) holds at most one row per key."""
    return key is not None and set(key) <= set(positions)


class HashIndex:
    """A hash partition of a row set on a tuple of attribute positions;
    ``unique`` selects the form (``buckets`` then maps a key to its row)."""

    __slots__ = ("positions", "unique", "buckets", "_total_rows", "_max_bucket_rows")

    def __init__(
        self, positions: tuple[int, ...], rows: Iterable[tuple], unique: bool = False
    ) -> None:
        self.positions = positions
        self.unique = unique
        key_of = key_getter(positions)
        if unique:
            rows = rows if isinstance(rows, list) else list(rows)
            self.buckets: dict = dict(zip(map(key_of, rows), rows))
            return
        # The factory is dropped after the build, so a missing key reads
        # like a plain dict's.
        buckets: defaultdict = defaultdict(list)
        for row in rows:
            buckets[key_of(row)].append(row)
        buckets.default_factory = None
        self.buckets = buckets
        # Buckets are immutable after build (growth is a new index, see
        # :meth:`extended`), so the planner's skew probe is O(1).
        self._total_rows = sum(map(len, buckets.values()))
        self._max_bucket_rows = max(map(len, buckets.values()), default=0)

    def extended(self, rows: Iterable[tuple]) -> "HashIndex":
        """A new index over this one's rows followed by ``rows``.

        Copy-on-write: the dict is copied shallowly and only the keys
        ``rows`` touch are replaced (by ``old + new`` lists; the unique
        form only gains pairs) — equal to a fresh build over the
        concatenation, with ``self`` left untouched.
        """
        new = HashIndex(self.positions, rows, self.unique)
        merged = self.buckets.copy()
        if self.unique:
            merged.update(new.buckets)
            new.buckets = merged
            return new
        heaviest = self._max_bucket_rows
        for key, added in new.buckets.items():
            old = merged.get(key)
            bucket = merged[key] = old + added if old else added
            if len(bucket) > heaviest:
                heaviest = len(bucket)
        new.buckets = merged
        new._total_rows += self._total_rows
        new._max_bucket_rows = heaviest
        return new

    def lookup(self, key) -> Sequence[tuple]:
        """All rows whose key (in :func:`key_getter`'s form) is ``key``:
        a bucket, or in the unique form ``(row,)`` or ``()``."""
        if self.unique:
            row = self.buckets.get(key)
            return () if row is None else (row,)
        return self.buckets.get(key, _EMPTY)

    # -- planner statistics -------------------------------------------------

    def selectivity(self) -> float:
        """Average fraction of the rows one key lookup returns.

        This is the *measured* equality selectivity of the indexed key —
        exactly ``1 / distinct_keys`` — which the cost model prefers over
        the independence-assumption product when an index already exists.
        """
        return 1.0 / len(self.buckets) if self.buckets else 1.0

    def max_bucket_fraction(self) -> float:
        """Fraction of all rows sitting in the heaviest bucket.

        The skew signal of the indexed key: probes in a join tend to land
        on heavy values more often than the uniform ``1/distinct``
        average predicts, so the cost model blends this in exactly as
        :meth:`~repro.relational.stats.TableStats.eq_selectivity` does
        for un-indexed columns.
        """
        if self.unique:
            return 1.0 / len(self.buckets) if self.buckets else 0.0
        if self._total_rows <= 0:
            return 0.0
        return self._max_bucket_rows / self._total_rows


_EMPTY: list[tuple] = []


class ShardView:
    """One hash partition of a row set: the rows plus lazy local indexes.

    The sharded executor hands each worker a view of its partition; a
    view builds hash indexes over *its own rows only* (so a partitioned
    build side costs ``rows/k`` per shard, not a full-relation index),
    lazily and cached for the view's lifetime.  Views are immutable
    after construction — the owning relation rebuilds them wholesale
    when its version moves.  ``key`` is the declared key positions of the
    relation the rows come from (None for other rows): it decides each
    index's form, as the relation's own index view does.
    """

    __slots__ = ("rows", "key", "_indexes")

    def __init__(self, rows: list[tuple], key: tuple[int, ...] | None = None) -> None:
        self.rows = rows
        self.key = key
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = HashIndex(positions, self.rows, covers_key(self.key, positions))
            self._indexes[positions] = index
        return index

    def __len__(self) -> int:
        return len(self.rows)


def partition_rows(
    rows: Iterable[tuple], positions: tuple[int, ...], k: int
) -> list[list[tuple]]:
    """Hash-partition ``rows`` into ``k`` lists on the key ``positions``.

    Empty ``positions`` partition on the whole row.  The same key always
    lands in the same partition (within one process — tuple hashing is
    seeded per interpreter), which is what lets the sharded executor
    partition a join's build and probe sides compatibly.
    """
    if k <= 1:
        return [list(rows)]
    shards: list[list[tuple]] = [[] for _ in range(k)]
    key_of = key_getter(positions) if positions else _whole_row
    for row in rows:
        shards[hash(key_of(row)) % k].append(row)
    return shards


def _whole_row(row: tuple) -> tuple:
    return row


def partition_views(
    rows: Iterable[tuple], positions: tuple[int, ...], k: int, key=None
) -> tuple[ShardView, ...]:
    """``k`` :class:`ShardView`s over a hash partition of ``rows``, whose
    relation declares ``key`` (see :class:`ShardView`)."""
    return tuple(ShardView(part, key) for part in partition_rows(rows, positions, k))
