"""Hash indexes over relation contents.

The paper's runtime level (section 4) generates *physical access paths*
— materialized partitions of a relation keyed by the constant values a
query restricts on.  :class:`HashIndex` is the underlying mechanism: a
dict from key projection to the list of matching rows, in row order.

An index is **immutable once published**: a relation caches one
generation per attribute positions under its hit/extend/rebuild rule
(``Relation._view``), and growth is :meth:`HashIndex.extended` — a *new*
index that is copy-on-write at bucket granularity, sharing every
untouched bucket list with its predecessor — so a reader (or a pinned
:class:`SnapshotView`) keeps probing exactly the committed state its
index was built for while appends cost O(delta + distinct keys), not a
rebuild.  This module holds no cache and no version logic of its own.
"""

from __future__ import annotations

from collections.abc import Iterable


class HashIndex:
    """A hash partition of a row set on a tuple of attribute positions."""

    __slots__ = (
        "positions",
        "buckets",
        "_total_rows",
        "_max_bucket_rows",
        "_scalar",
    )

    def __init__(self, positions: tuple[int, ...], rows: Iterable[tuple]) -> None:
        self.positions = positions
        buckets: dict[tuple, list[tuple]] = {}
        total = 0
        heaviest = 0
        for row in rows:
            key = tuple(row[i] for i in positions)
            bucket = buckets.setdefault(key, [])
            bucket.append(row)
            total += 1
            if len(bucket) > heaviest:
                heaviest = len(bucket)
        self.buckets = buckets
        # Buckets are immutable after build (growth is a new index, see
        # :meth:`extended`), so the planner's skew probe is O(1).
        self._total_rows = total
        self._max_bucket_rows = heaviest
        self._scalar: dict | None = None

    def extended(self, rows: Iterable[tuple]) -> "HashIndex":
        """A new index over this one's rows followed by ``rows``.

        Copy-on-write at bucket granularity: the bucket dict is copied
        shallowly, only the buckets ``rows`` touch are replaced (by
        ``old + new`` lists), and the counters and an already-built
        scalar view are carried forward the same way — equal to a fresh
        build over the concatenation, with ``self`` left untouched.
        """
        new = HashIndex(self.positions, rows)
        merged = self.buckets.copy()
        scalar = None if self._scalar is None else self._scalar.copy()
        heaviest = self._max_bucket_rows
        for key, added in new.buckets.items():
            old = merged.get(key)
            bucket = merged[key] = old + added if old else added
            if scalar is not None:
                scalar[key[0]] = bucket
            if len(bucket) > heaviest:
                heaviest = len(bucket)
        new.buckets, new._scalar = merged, scalar
        new._total_rows += self._total_rows
        new._max_bucket_rows = heaviest
        return new

    def lookup(self, key: tuple) -> list[tuple]:
        """All rows whose projection on ``positions`` equals ``key``."""
        return self.buckets.get(key, _EMPTY)

    def scalar_buckets(self) -> dict:
        """Buckets keyed by the bare value of a single-position key.

        The batched executor probes this view so a one-column join needs
        no key-tuple allocation per probe; built lazily, once per index.
        """
        if self._scalar is None:
            self._scalar = {key[0]: rows for key, rows in self.buckets.items()}
        return self._scalar

    def probe_table(self, scalar: bool = False) -> dict:
        """The grouped-probe view of the index: a bucket dict fetched
        once per batch and then tested per distinct key (``key in
        probe_table`` for semi-join verdicts, ``probe_table.get`` for
        the generated join kernels' C-level ``map`` probes).
        ``scalar=True`` answers with the bare-value view of a
        single-position index."""
        return self.scalar_buckets() if scalar else self.buckets

    def keys(self) -> Iterable[tuple]:
        return self.buckets.keys()

    def __len__(self) -> int:
        return len(self.buckets)

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
    when its version moves.
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = HashIndex(positions, self.rows)
            self._indexes[positions] = index
        return index

    def __len__(self) -> int:
        return len(self.rows)


class SnapshotView(ShardView):
    """A pinned view of a whole relation at one committed head.

    Snapshot reads and compiled fixpoints hand plans these views through
    ``ExecutionContext.source_overrides`` — the ``rows`` + ``index_on``
    contract :class:`ShardView` already implements for partitions — so a
    reader keeps scanning (and index-probing) the rows that existed when
    the view was taken, no matter how many writers commit meanwhile.
    The pinned list is one immutable generation of the relation's row
    log; ``head`` is the relation's ``(version, log, n)`` it was taken
    at; ``index_source`` (``positions -> HashIndex``) and
    ``encoded_source`` (``() -> EncodedTable``) resolve exactly that
    state, sharing the relation's own immutable generations instead of
    rebuilding them per view.
    """

    __slots__ = ("name", "head", "_index_source", "_encoded_source")

    def __init__(
        self, rows: list[tuple], name: str, head: tuple, index_source, encoded_source
    ) -> None:
        super().__init__(rows)
        self.name = name
        self.head = head
        self._index_source = index_source
        self._encoded_source = encoded_source

    @property
    def version(self) -> int:
        return self.head[0]

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = self._index_source(positions)
        return index

    def encoded(self):
        """The pinned rows as the relation's dictionary-encoded table."""
        return self._encoded_source()

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<SnapshotView {self.name}@v{self.version}: {len(self.rows)} rows>"


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
    if positions:
        if len(positions) == 1:
            pos = positions[0]
            for row in rows:
                shards[hash(row[pos]) % k].append(row)
        else:
            for row in rows:
                shards[hash(tuple(row[i] for i in positions)) % k].append(row)
    else:
        for row in rows:
            shards[hash(row) % k].append(row)
    return shards


def partition_views(
    rows: Iterable[tuple], positions: tuple[int, ...], k: int
) -> tuple[ShardView, ...]:
    """``k`` :class:`ShardView`s over a hash partition of ``rows``."""
    return tuple(ShardView(part) for part in partition_rows(rows, positions, k))
