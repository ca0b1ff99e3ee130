"""The database: a named scope of relation variables and rule definitions.

A :class:`Database` plays the role of the DBPL module scope in the paper:
it owns relation variables (section 2.2) and registers the selector and
selector/constructor abstractions defined over them (sections 2.3 and 3).
Selectors and constructors are *defined* in their own subpackages; the
database only stores and resolves them by name so that query evaluation,
compilation, and the surface-language binder share one name space —
as does a :class:`DatabaseSnapshot` of it, its relations pinned.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable

from ..errors import NameResolutionError, SchemaError
from ..types import RelationType
from .relation import PinnedRelation, Relation
from .stats import StatsCatalog


class _Scope:
    """Name resolution shared by a database and its snapshots."""

    def relation(self, name: str):
        try:
            return self.relations[name]
        except KeyError:
            known = ", ".join(sorted(self.relations)) or "<none>"
            raise NameResolutionError(
                f"unknown relation {name!r}; declared relations: {known}"
            ) from None

    def __getitem__(self, name: str):
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def selector(self, name: str):
        try:
            return self.selectors[name]
        except KeyError:
            raise NameResolutionError(f"unknown selector {name!r}") from None

    def constructor(self, name: str):
        try:
            return self.constructors[name]
        except KeyError:
            raise NameResolutionError(f"unknown constructor {name!r}") from None

    def snapshot(self, names: Iterable[str] | None = None) -> "DatabaseSnapshot":
        """The relations ``names`` (default: all) pinned at their current
        committed heads; the others, the rule registries and the
        statistics answer as here."""
        return DatabaseSnapshot(self, names)


class Database(_Scope):
    """A scope of relation variables plus selector/constructor registries."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.relations: dict[str, Relation] = {}
        # Populated by repro.selectors / repro.constructors definitions.
        self.selectors: dict[str, object] = {}
        self.constructors: dict[str, object] = {}
        #: Planner statistics: base-table stats resolved by name (see
        #: repro.relational.stats).
        self.stats = StatsCatalog(self)
        #: ``(application key, options.cache_key())`` → the one compiled
        #: fixpoint program holding that application's value, weakly: a
        #: program lives as long as some statement references it (see
        #: ``repro.compiler.fixpoint.held_program``, which creates the
        #: table on first use — a database that never compiles a closed
        #: application allocates none).
        self.programs: weakref.WeakValueDictionary | None = None
        #: The write-capture sink mutations report deltas to (a
        #: ``repro.dbpl.subscriptions.SubscriptionRegistry`` once anything
        #: subscribes; None until then).  Held here, not imported: the
        #: relational layer stays below the serving layer.
        self.subscriptions = None

    # -- relation variables ------------------------------------------------

    def declare(
        self,
        name: str,
        rtype: RelationType,
        rows: Iterable[tuple] = (),
    ) -> Relation:
        """``VAR name: rtype`` — declare (and optionally initialize) a variable."""
        if name in self.relations:
            raise SchemaError(f"relation variable {name!r} is already declared")
        rel = Relation(name, rtype, rows)
        rel._sink = self.subscriptions
        self.relations[name] = rel
        return rel

    def attach_sink(self, registry) -> None:
        """Install ``registry`` as the write-capture sink of every
        relation (current and future).  Idempotent for the same object;
        a database has at most one registry for its lifetime."""
        if self.subscriptions is not None and self.subscriptions is not registry:
            raise SchemaError(
                f"database {self.name!r} already has a subscription registry"
            )
        self.subscriptions = registry
        for rel in self.relations.values():
            rel._sink = registry

    # -- storage -------------------------------------------------------------

    def spill(self, path: str, rows_per_partition: int = 4096) -> None:
        """Persist every relation (rows, dictionaries, statistics) into
        the directory ``path`` — see :mod:`repro.relational.storage`."""
        from .storage import spill_database

        spill_database(self, path, rows_per_partition)

    @classmethod
    def open(cls, path: str) -> "Database":
        """Open a spilled directory as a database of cold, store-backed
        relations that materialize (and scan with pushdown) lazily."""
        from .storage import open_database

        return open_database(path)

    # -- rule registries -----------------------------------------------------

    def register_selector(self, selector) -> None:
        if selector.name in self.selectors:
            raise SchemaError(f"selector {selector.name!r} is already defined")
        self.selectors[selector.name] = selector

    def register_constructor(self, constructor) -> None:
        if constructor.name in self.constructors:
            raise SchemaError(
                f"constructor {constructor.name!r} is already defined"
            )
        self.constructors[constructor.name] = constructor

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"<Database {self.name}: {len(self.relations)} relations, "
            f"{len(self.selectors)} selectors, {len(self.constructors)} constructors>"
        )


class DatabaseSnapshot(_Scope):
    """A read-only database whose relations are pinned at one committed
    head each (:class:`~repro.relational.relation.PinnedRelation`; taken
    relation by relation, without a global write freeze).

    Every reader resolves relations through the database it is handed,
    so a read run against a snapshot — ``ExecutionContext(snapshot,
    ...)``, ``Evaluator(snapshot)``, ``ExecOptions(snapshot=...)`` at the
    front door — is pinned whole: scans, probes, residuals, selectors,
    nested ranges, constructor applications, fixpoints.
    """

    def __init__(self, db: _Scope, names: Iterable[str] | None = None) -> None:
        relations = dict(db.relations)
        for name in relations if names is None else names:
            relations[name] = db.relation(name).snapshot_view()
        self.relations: dict[str, Relation | PinnedRelation] = relations
        self.name = db.name
        self.selectors = db.selectors
        self.constructors = db.constructors
        self.stats = db.stats
