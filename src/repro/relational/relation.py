"""Relation variables: typed, key-enforcing sets of tuples.

A :class:`Relation` is the runtime object behind a DBPL ``VAR`` of a
relation type.  Every state change goes through the checked-assignment
discipline of section 2.2: element typing and the key functional
dependency are verified before the variable's value changes, otherwise
a :class:`~repro.errors.KeyConstraintError` or
:class:`~repro.errors.TypeMismatchError` is raised and the old value is
kept (the paper's ``ELSE <exception>``).

The paper defines ``rel :+ rex`` by what must *hold* afterwards, not by
re-proving the key dependency over tuples that were already checked, so
a commit costs O(delta), and readers never take a lock.  Four
invariants carry that contract:

1. **One head.**  The committed state is one tuple ``_head = (version,
   log, n)`` swapped by a single reference store.  ``log`` lists the
   live rows in commit order; writers (serialized on ``_write_lock``)
   only ever ``extend`` it past ``n`` or install a *new* list object, so
   ``log[:n]`` is immutable for as long as anyone holds that head — a
   version *is* a length prefix.
2. **Immutable generations.**  Every derived view (row list, frozenset,
   hash index per positions, encoded table, shard partitions) lives in a
   slot holding ``(head, payload)``, and :meth:`Relation._view` is the
   one rule they all follow: slot at the reader's head → hit; slot on a
   shorter prefix of the same log → *extend* into a new payload;
   anything else → rebuild from ``log[:n]``.  A published payload is
   never mutated and a slot never steps back to an older generation:
   whatever a reader was handed corresponds to exactly one committed
   state forever, and a stale cache is only ever too short, never wrong.
3. **Writer-owned key map.**  ``_members`` maps key → row (row → row
   for ``RELATION ... OF``) and answers key integrity and membership.
   It is built lazily from the log on the first insert/delete/``in``
   after a load, touched only under ``_write_lock`` and never handed to
   a reader; read-only relations never pay for it.
4. **Validate, then mutate.**  A batch is checked whole — against the
   map and against rows staged earlier in the same batch — before
   anything changes, so a failed write is a no-op on every observable,
   and a write that changes nothing publishes no new head.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from operator import itemgetter

from ..errors import TypeMismatchError
from ..types import RelationType, check_relation_assignment
from .indexes import HashIndex, ShardView, partition_views
from .rows import Row
from .stats import TableStats
from .vectors import Dictionary, EncodedTable

#: The five view kinds of :meth:`Relation._view`.  A slot is ``(kind,
#: *args)``; ``build(rel, head, *args)`` makes its payload from scratch,
#: ``extend(rel, head, old, fresh)`` — where the kind has one — from a
#: payload of an earlier head of the same log and the rows appended since.
_ROWS, _SET, _ENCODED = ("rows",), ("set",), ("encoded",)


def _encode(rel, head):
    if head[1] is None:  # cold: the stored id pages *are* the encoding
        return rel._store.encoded_table()
    return EncodedTable.from_rows(rel._view(_ROWS, head), rel.dictionaries())


_VIEW_KINDS = {
    # A slice, never an extension: extending the last list copies as much.
    "rows": (lambda rel, head: head[1][: head[2]], None),
    "set": (
        lambda rel, head: frozenset(head[1][: head[2]]),
        lambda rel, head, old, fresh: old.union(fresh),
    ),
    "index": (
        lambda rel, head, positions: HashIndex(positions, rel._view(_ROWS, head)),
        lambda rel, head, old, fresh: old.extended(fresh),
    ),
    "encoded": (
        _encode,
        lambda rel, head, old, fresh: old.extended(fresh, rel._view(_ROWS, head)),
    ),
    # ``sharded`` is on trial (ROADMAP item 5a): partitions simply rebuild.
    "shards": (
        lambda rel, head, positions, k: partition_views(rel._view(_ROWS, head), positions, k),
        None,
    ),
}


class Relation:
    """A mutable relation variable holding a set of raw value tuples."""

    __slots__ = (
        "name",
        "rtype",
        "_head",
        "_members",
        "_key_of",
        "_views",
        "_publish_lock",
        "_stats",
        "_dicts",
        "_write_lock",
        "_sink",
        "_store",
    )

    def __init__(
        self,
        name: str,
        rtype: RelationType,
        rows: Iterable[tuple] = (),
    ) -> None:
        self.name = name
        self.rtype = rtype
        #: (version, log, n): the committed state (invariant 1).  ``log``
        #: is None while a store-backed relation is still cold.
        self._head: tuple[int, list[tuple] | None, int] = (0, [], 0)
        #: key → row, writer-owned (invariant 3); None until first needed.
        self._members: dict | None = None
        key = tuple(rtype.element.index_of(a) for a in rtype.key)
        #: Row → its key: the bare value for a one-attribute key (no key
        #: tuple per row); the row itself (``tuple(row) is row``) when keyless.
        self._key_of = itemgetter(*key) if key else tuple
        #: slot → (head, payload) generations (invariant 2).  Replaced by
        #: a fresh dict whenever a new log is installed, so views of a
        #: dead lineage are dropped with it.
        self._views: dict = {}
        self._publish_lock = threading.Lock()
        self._stats: TableStats | None = None
        #: Per-column dictionaries (created on first encode, then kept
        #: forever — append-only, so ids stay stable across versions).
        self._dicts: tuple[Dictionary, ...] | None = None
        #: Writers serialize here; readers never take it (reentrant, so
        #: an ``on_change`` callback may test membership mid-commit).
        self._write_lock = threading.RLock()
        #: Write-capture sink (duck-typed: ``lock``/``emit``): the
        #: database's SubscriptionRegistry once anything subscribes, else
        #: None.  Wired by :meth:`repro.relational.Database.attach_sink`;
        #: this module stays ignorant of the serving layer above it.
        self._sink = None
        #: Storage backend (repro.relational.storage.RelationStore) when
        #: this relation was opened from a spilled database, else None.
        self._store = None
        rows = tuple(rows)
        if rows:
            self.assign(rows)

    @classmethod
    def from_store(cls, name: str, rtype: RelationType, store) -> "Relation":
        """A cold relation backed by a spilled store (no rows in memory).

        Cardinality and statistics come from the store's manifest, so
        the planner and ``StatsCatalog.epoch()`` work without a scan; the
        first operation that needs the rows loads them (:meth:`_materialize`),
        after which the relation is a warm one — mutations included.
        """
        rel = cls(name, rtype)
        rel._store = store
        rel._head = (0, None, store.row_count)
        rel._stats = store.load_stats()
        return rel

    # -- value access -------------------------------------------------------

    @property
    def element_type(self):
        return self.rtype.element

    @property
    def is_cold(self) -> bool:
        """True while a store-backed relation has not materialized rows."""
        return self._head[1] is None

    def _materialize(self) -> tuple[int, list[tuple], int]:
        """The committed head, loading the log from the store on first need.

        Materialization is *not* a mutation: the version stays put and no
        delta is emitted — the rows were always logically present.
        """
        head = self._head
        if head[1] is None:
            with self._write_lock:
                head = self._head
                if head[1] is None:
                    # A cold encoded() already decoded every row: keep its
                    # table and aligned list (published, so the log is a
                    # copy of it) instead of reading the pages again.
                    cold = self._views.get(_ENCODED)
                    log = self._store.scan() if cold is None else cold[1].rows[:]
                    head = (head[0], log, len(log))
                    self._views = {} if cold is None else {
                        _ROWS: (head, cold[1].rows),
                        _ENCODED: (head, cold[1]),
                    }
                    self._head = head
        return head

    def _view(self, slot: tuple, head=None):
        """The payload of view ``slot`` at ``head`` (default: the current
        one): hit, extend or rebuild — the one rule of invariant 2.

        A built or extended payload is a new object, published unless the
        slot already moved past ``head`` — a reader pinned to an older
        state keeps its private copy.
        """
        if head is None:
            head = self._head
            if head[1] is None:
                head = self._materialize()
        views = self._views
        held = views.get(slot)
        if held is not None and held[0] is head:
            return held[1]
        build, extend = _VIEW_KINDS[slot[0]]
        fresh = None
        if held is not None and extend is not None:
            fresh = self.appended_since(held[0], head)
        if fresh is not None:
            payload = extend(self, head, held[1], fresh)
        else:
            payload = build(self, head, *slot[1:])
        with self._publish_lock:
            held = views.get(slot)
            if held is None or held[0][0] <= head[0]:
                views[slot] = (head, payload)
        return payload

    def appended_since(self, then: tuple, now: tuple) -> list[tuple] | None:
        """The rows committed after head ``then`` up to head ``now``, or
        None when the log was replaced in between (a delete, an assign, a
        cold materialization).

        Invariant 1 in one place: on the same log object ``log[:n]`` never
        changes, so what was inserted since a head is a slice of it.
        """
        if now[1] is None or then[1] is not now[1] or then[2] > now[2]:
            return None
        return now[1][then[2] : now[2]]

    def rows(self) -> frozenset[tuple]:
        """The current value as an immutable set of raw tuples — what the
        interpreted readers range over; cached per version like every
        view (the compiled paths read :meth:`raw_list` instead)."""
        return self._view(_SET)

    raw = rows

    def raw_list(self) -> list[tuple]:
        """The current rows as a list in commit order, cached per version.

        The columnar kernels make several aligned passes over a scan's
        rows, which needs a stable sequence; repeated executions —
        fixpoint iterations especially — share one list per version.
        Callers must not mutate it; writers never do, so it stays a
        snapshot of one committed state.  After an insert it ends with
        the fresh rows in argument order.
        """
        return self._view(_ROWS)

    @property
    def version(self) -> int:
        """Monotone stamp, bumped on every mutation that changes the value
        (inserting present rows or deleting absent ones does not)."""
        return self._head[0]

    def __iter__(self) -> Iterator[Row]:
        schema = self.rtype.element
        for values in self.raw_list():
            yield Row(schema, values)

    def __len__(self) -> int:
        # A cold head carries the manifest's count: epoch computation
        # and plan caching must never force a scan just to count.
        return self._head[2]

    def __contains__(self, item: object) -> bool:
        row = item.values if isinstance(item, Row) else item
        with self._write_lock:
            return self._holds(self._key_map(), row)

    def is_empty(self) -> bool:
        return not self._head[2]

    def sorted_rows(self) -> list[tuple]:
        """Deterministically ordered contents, for display and tests."""
        return sorted(self.raw_list())

    # -- checked mutation ----------------------------------------------------

    def _key_map(self) -> dict:
        """``_members``, built from the log on first need (write lock held)."""
        members = self._members
        if members is None:
            log = self._materialize()[1]
            members = self._members = dict(zip(map(self._key_of, log), log))
        return members

    def _holds(self, members: dict, row: object) -> bool:
        """Whether ``row`` is stored (a wrong-arity probe is simply absent)."""
        if not isinstance(row, tuple) or len(row) != len(self.rtype.element.attribute_names):
            return False
        return members.get(self._key_of(row)) == row

    def _install(self, log: list[tuple]) -> None:
        """Commit ``log`` as a new lineage: no view of the old one can be
        extended, so they are dropped and rebuild on next use."""
        self._views = {}
        self._head = (self._head[0] + 1, log, len(log))

    def _delta_guard(self, changed=True):
        """(lock-or-null context, sink-or-None) for one mutation's commit.

        Once a subscription registry is attached to the database, every
        mutation that changes this relation commits *inside* the registry
        lock and reports its delta batch — commit + maintenance is one
        atomic step, so two relations can never interleave commits and
        emissions (which would double-count derivations joining both
        deltas), and a concurrent ``subscribe`` (which materializes under
        the same lock) sees the commit or receives the delta, never
        neither.  Lock order is always relation ``_write_lock`` →
        registry lock; the registry only *reads* other relations
        (lock-free), so the order cannot invert.  Unchanged values and
        databases without subscriptions skip the lock entirely.
        """
        sink = self._sink
        if sink is not None and changed:
            return sink.lock, sink
        return nullcontext(), None

    def assign(self, rows: Iterable[object]) -> None:
        """``rel := rex`` with full type and key checking.

        The assignment's pass over the new value also installs fresh
        table statistics (one batched absorption), so the first
        post-assign compilation is priced from real numbers.  The old
        value is only read (a cold one only loaded) when a sink wants
        the delta.
        """
        raw = tuple(self._coerce(r) for r in rows)
        checked = check_relation_assignment(self.rtype, raw)
        with self._write_lock:
            new_rows = set(checked)
            inserted = deleted = ()
            if self._sink is not None:
                old_rows = self._view(_SET)
                inserted = [r for r in new_rows if r not in old_rows]
                deleted = [r for r in old_rows if r not in new_rows]
            guard, sink = self._delta_guard(inserted or deleted)
            with guard:
                stats = TableStats(len(self.rtype.element.attribute_names))
                stats.add_rows_batch(new_rows)
                self._stats = stats
                self._members = None
                self._install(list(new_rows))
                if sink is not None:
                    sink.emit(self, inserted, deleted)

    def insert(self, rows: Iterable[object]) -> None:
        """``rel :+ rex`` — add tuples, keeping typing and key integrity.

        One type sweep, one key check of the *batch* (stored rows were
        checked when they were committed) and one batched statistics
        absorption; then the key map and the log grow by the fresh rows
        and a new head is published.  Nothing is proportional to
        ``len(self)``, and nothing is mutated when a check fails.
        """
        raw = [self._coerce(r) for r in rows]
        element = self.rtype.element
        for row in raw:
            if not element.contains(row):
                raise TypeMismatchError(
                    f"tuple {row!r} is not of element type {element.name} "
                    f"(insert into {self.name})"
                )
        with self._write_lock:
            version, log, n = self._materialize()
            members = self._key_map()
            key_of = self._key_of
            staged: dict = {}
            for row in raw:
                key = key_of(row)
                other = staged.get(key)
                if other is None:
                    other = members.get(key)
                if other is None:
                    staged[key] = row
                elif other != row:
                    raise self.rtype.key_conflict(other, row)
            if not staged:
                return
            fresh = list(staged.values())
            if self._stats is not None:
                self._stats.add_rows_batch(fresh)
            guard, sink = self._delta_guard()
            with guard:
                members.update(staged)
                log.extend(fresh)
                self._head = (version + 1, log, n + len(fresh))
                if sink is not None:
                    sink.emit(self, fresh, ())

    def insert_many(self, rows: Iterable[object]) -> None:
        """Bulk ``rel :+ rex``: :meth:`insert` under the name loaders
        mean (it already absorbs its whole argument in one batch)."""
        self.insert(rows)

    def delete(self, rows: Iterable[object]) -> None:
        """``rel :- rex`` — remove tuples (absent tuples are ignored).

        The keys leave the map in O(delta); the surviving rows — the
        map's values, still in commit order — become a new log.
        """
        raw = {self._coerce(r) for r in rows}
        with self._write_lock:
            members = self._key_map()
            removed = [row for row in raw if self._holds(members, row)]
            if not removed:
                return
            guard, sink = self._delta_guard()
            with guard:
                if self._stats is not None:
                    self._stats.remove_rows(removed)
                for row in removed:
                    del members[self._key_of(row)]
                self._install(list(members.values()))
                if sink is not None:
                    sink.emit(self, (), removed)

    def clear(self) -> None:
        with self._write_lock:
            old_rows = self.raw_list() if self._sink is not None else ()
            guard, sink = self._delta_guard(old_rows)
            with guard:
                self._stats = None
                self._members = None
                self._install([])
                if sink is not None:
                    sink.emit(self, (), old_rows)

    @staticmethod
    def _coerce(item: object) -> tuple:
        if isinstance(item, Row):
            return item.values
        if isinstance(item, tuple):
            return item
        if isinstance(item, list):
            return tuple(item)
        raise TypeMismatchError(
            f"relation elements must be tuples or Rows, got {type(item).__name__}"
        )

    # -- indexes ------------------------------------------------------------

    def index_on(self, attrs: tuple[str, ...]) -> HashIndex:
        """A (cached) hash index on the named attributes.

        Appends extend the previous generation into a new index (see
        :meth:`HashIndex.extended`); other mutations rebuild.
        """
        positions = tuple(self.rtype.element.index_of(a) for a in attrs)
        return self._view(("index", positions))

    def peek_index(self, positions: tuple[int, ...]) -> HashIndex | None:
        """An index on ``positions`` already built for the current
        version, or None — never builds or extends one, so the cost model
        can consult measured selectivities for free."""
        held = self._views.get(("index", positions))
        return held[1] if held is not None and held[0] is self._head else None

    def partitions(self, key: tuple[str, ...], k: int) -> tuple[ShardView, ...]:
        """``k`` hash partitions of the rows on the named key attributes.

        The shard views (rows plus their lazily-built local indexes) are
        cached per version and ``(key, k)`` like every view, so the
        sharded executor pays the partition pass once per mutation.  An
        empty ``key`` partitions on the whole row.
        """
        positions = tuple(self.rtype.element.index_of(a) for a in key)
        return self._view(("shards", positions, k))

    # -- encoded vectors ------------------------------------------------------

    def dictionaries(self) -> tuple[Dictionary, ...]:
        """One append-only value↔id :class:`Dictionary` per column.

        Created on first use and kept for the relation's lifetime —
        dictionaries never shrink, so ids stay stable across every
        mutation and version-stamped encoded views remain mutually
        comparable (the vector executor's join translation tables and
        snapshot encodings rely on this).
        """
        dicts = self._dicts
        if dicts is None:
            with self._write_lock:
                dicts = self._dicts
                if dicts is None:
                    if self._store is not None:
                        # The persisted dictionaries produced the stored
                        # id pages; adopting them keeps those pages valid
                        # (dictionaries only append) across later use.
                        dicts = self._store.load_dictionaries()
                    else:
                        dicts = tuple(
                            Dictionary() for _ in self.rtype.element.attribute_names
                        )
                    self._dicts = dicts
        return dicts

    def encoded(self) -> EncodedTable:
        """The current rows as dictionary-encoded column vectors.

        Cached per version next to :meth:`raw_list`; appends extend the
        previous table (buffer memcpy + one dictionary pass over the
        fresh rows), other mutations re-encode against the persistent
        dictionaries.  While cold, the stored id pages *are* the
        encoding: they are concatenated without materializing the log.
        """
        return self._view(_ENCODED, self._head)

    # -- statistics ---------------------------------------------------------

    def stats(self) -> TableStats:
        """Table statistics: maintained incrementally, rebuilt lazily.

        Inserts and deletes update the live object in place (see
        :meth:`insert`/:meth:`delete`); a wholesale :meth:`assign`
        installs fresh statistics computed during the assignment itself.
        """
        if self._stats is None:
            self._stats = TableStats.from_rows(
                self.raw_list(), len(self.rtype.element.attribute_names)
            )
        return self._stats

    # -- storage pushdown ----------------------------------------------------

    @property
    def cold_store(self):
        """The backing RelationStore while cold (pushdown-capable), else None.

        Once the relation materializes (any whole-set read or mutation),
        in-memory rows are authoritative and pushdown turns itself off —
        the store keeps describing the spilled state, not the live one.
        """
        return self._store if self.is_cold else None

    def scan_pushdown(self, projection, selection, params=None):
        """Rows via the store's projection/predicate-pushdown reader.

        Returns a full-width row list (dead columns None) when the
        relation is cold and store-backed, else None — the caller falls
        back to :meth:`raw_list` and its own filters.  The pushed
        predicates are re-checked downstream, so this is a pure
        pre-filter: dropping any of them is always safe.
        """
        store = self.cold_store
        if store is None:
            return None
        return store.scan(projection, selection, params)

    def scan_cost_fraction(self, restrictions) -> float:
        """Fraction of rows a pushdown scan would decode under
        ``restrictions`` (concrete ``(pos, op, value)`` triples) — the
        cost model's partition-pruning discount.  1.0 when warm."""
        store = self.cold_store
        if store is None:
            return 1.0
        return store.prune_fraction(restrictions)

    # -- misc ------------------------------------------------------------

    def snapshot(self, name: str | None = None) -> "Relation":
        """An independent copy (used by the paper's REPEAT-loop programs)."""
        copy = Relation(name or self.name, self.rtype)
        _, log, n = self._materialize()
        copy._head = (1, log[:n], n)
        return copy

    def snapshot_view(self) -> "PinnedRelation":
        """The relation's read API pinned at the current committed head:
        what a :class:`~repro.relational.database.DatabaseSnapshot`
        answers for it (snapshot reads, compiled fixpoints' base
        relations).  A cold relation materializes first."""
        return PinnedRelation(self, self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<Relation {self.name}: {len(self)} x {self.rtype.element.name}>"


class PinnedRelation:
    """A relation's read API at one committed head.

    Every read is :meth:`Relation._view` at ``head`` — the relation's own
    generation while its version stands, a private one once writers have
    moved on (kept here, so a pinned reader rebuilds it once) — so
    whatever reads through it scans, probes and encodes one committed
    state.  A pinned head is materialized: there is no cold store to
    push scans down to.  Nothing writes through it.
    """

    __slots__ = ("_rel", "head", "name", "element_type", "_held")

    cold_store = None

    def __init__(self, rel: Relation, head: tuple) -> None:
        self._rel = rel
        self.head = head
        self.name = rel.name
        self.element_type = rel.rtype.element
        self._held: dict = {}

    def _view(self, slot: tuple):
        payload = self._held.get(slot)
        if payload is None:
            payload = self._held[slot] = self._rel._view(slot, self.head)
        return payload

    @property
    def version(self) -> int:
        return self.head[0]

    def __len__(self) -> int:
        return self.head[2]

    def raw_list(self) -> list[tuple]:
        return self._view(_ROWS)

    def rows(self) -> frozenset[tuple]:
        return self._view(_SET)

    raw = rows

    def index_on(self, attrs: tuple[str, ...]) -> HashIndex:
        positions = tuple(self.element_type.index_of(a) for a in attrs)
        return self._view(("index", positions))

    def partitions(self, key: tuple[str, ...], k: int) -> tuple[ShardView, ...]:
        positions = tuple(self.element_type.index_of(a) for a in key)
        return self._view(("shards", positions, k))

    def encoded(self) -> EncodedTable:
        return self._view(_ENCODED)

    def stats(self) -> TableStats:  # the live relation's: estimates only
        return self._rel.stats()

    def scan_pushdown(self, projection, selection, params=None):
        return None

    def snapshot_view(self) -> "PinnedRelation":
        return self
