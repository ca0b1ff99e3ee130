"""Standing queries: incrementally maintained session query results.

``Session.subscribe(source)`` materializes a query once and keeps the
result set current as base relations mutate — the serving-side
counterpart of the paper's view of relations and rules as one algebra:
a subscription is a derived relation whose extension tracks its
defining expression continuously instead of being recomputed on demand.

Every subscription compiles its query through the one
query-compilation level (:func:`~repro.compiler.levels.compile_statement`,
with the requested options, so its fixpoint programs run on the
requested executor) and is a client of the one fixpoint resume path
(:meth:`~repro.compiler.fixpoint.CompiledFixpoint.advance`).  One
maintenance rule, chosen by the compiled statement rather than by the
query's syntax:

* A statement whose answer **is** a fixpoint value (its
  :attr:`~repro.compiler.levels.CompiledStatement.identity`:
  ``Rel{con}``, bare or spelled ``{EACH r IN Rel{con}: TRUE}``) holds
  that value as its rows.  A commit advances it (a resume from the
  appended rows after inserts — sound because every compiled system is
  positive, hence monotone — and a run from empty after a delete), and
  the change feed reports the held log's suffix since the last event,
  or the difference of the two values after a run from empty.  Every
  positive constructor is maintained this way, a recursive occurrence
  under ``SOME`` included; a non-positive one is refused at subscribe
  time (:class:`~repro.errors.PositivityError`).

* Any other statement uses counting-based incremental view
  maintenance.  The subscription keeps the *number of derivations* of
  every result row (a bag, evaluated by running the compiled branch
  plans without the final duplicate elimination, on a bag-safe
  executor).  Each committed insert/delete batch on a base relation is
  pushed through the occurrence-split differential of the top query
  with respect to that relation — the same differential the fixpoint
  seeds use, with the changed relation's new/delta/old states bound as
  apply values — and the produced derivations adjust the counts.  A
  row enters the result when its count becomes positive and leaves
  when it returns to zero, which is exact for select-project-join-union
  under set semantics.  A batch on a relation a held value depends on
  advances the value and recounts the top plan over it.

Either way the deltas arrive from the write path: once a
:class:`SubscriptionRegistry` is attached (`Database.attach_sink`),
every effective mutation commits inside the registry lock and reports
its insert/delete batch (see ``Relation._delta_guard``), so maintenance
is atomic with the commit and two relations can never interleave.
Mid-stream re-planning carries over: fixpoint resumption inherits the
drift-triggered re-optimization of the compiled engine, and the
counting path re-prices a relation's differential plan when observed
batch sizes drift past the same threshold.

Queries whose occurrences of a relation are not all direct binding
ranges (e.g. a relation referenced inside a membership predicate) fall
back to full recomputation for that relation's batches — results stay
exact, only the incremental speedup is lost.  ``on_change`` callbacks
run synchronously inside the commit and must not mutate relations.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass

from ..calculus import ast
from ..compiler.executors import get_backend
from ..compiler.fixpoint import REPLAN_DRIFT, _ivm_token, relation_differential
from ..compiler.levels import compile_statement
from ..compiler.options import ExecOptions
from ..compiler.plans import CostModel, ExecutionContext, PlanStats, compile_query
from ..constructors.engines import _variant_token


# ---------------------------------------------------------------------------
# Bag (multiset) evaluation of compiled plans
# ---------------------------------------------------------------------------


class _Bag:
    """Multiset sink: ``BranchPlan.execute_tuple`` only ever calls
    ``out.add``, so appending instead of set-inserting turns the tuple
    interpreter into a bag evaluator."""

    __slots__ = ("rows",)

    def __init__(self, rows: list) -> None:
        self.rows = rows

    def add(self, row) -> None:
        self.rows.append(row)


#: Maintenance executor per requested executor.  Counting needs every
#: derivation, and only the single-threaded pipelines are bag-safe:
#: the vector backend's dictionary domains and the sharded backend's
#: dedup-merging shard protocol both assume set semantics, so they
#: run their set-former subscriptions on the columnar batch pipeline.
_BAG_EXECUTORS = {
    "batch": "batch",
    "vector": "batch",
    "sharded": "batch",
    "rowbatch": "rowbatch",
    "tuple": "tuple",
}


def _execute_bag(plan, ctx: ExecutionContext, executor: str) -> list:
    """Run a compiled query plan under multiset semantics: the
    concatenated projected batches of every branch, duplicates kept
    (``execute_batch`` returns the pre-dedup batch by contract)."""
    out: list = []
    backend = get_backend(executor)
    for branch in plan.branches:
        pipeline = backend.pipeline_for(branch, ctx)
        if pipeline is not None:
            out.extend(branch.execute_batch(ctx, pipeline))
        else:
            branch.execute_tuple(ctx, _Bag(out))
    return out


# ---------------------------------------------------------------------------
# Delta batches
# ---------------------------------------------------------------------------


class _DeltaState:
    """One committed mutation of one relation, in all three states the
    occurrence-split differential binds: ``old`` (before the batch),
    ``mid`` (after deletions, before insertions) and ``live`` (after).
    Built once per commit and shared by every watching subscription."""

    __slots__ = ("name", "live", "ins", "dels", "mid", "old")

    def __init__(self, name, live, ins, dels, mid, old) -> None:
        self.name = name
        self.live = live
        self.ins = ins
        self.dels = dels
        self.mid = mid
        self.old = old

    @classmethod
    def build(cls, relation, inserted, deleted) -> "_DeltaState":
        live = relation.raw_list()
        ins = list(inserted)
        dels = list(deleted)
        if not ins:
            mid = live
        else:
            n, k = len(live), len(ins)
            if k <= n and live[n - k :] == ins:
                # Fast path: insert() extends the cached list view in
                # order, so the pre-insert state is a prefix slice.
                mid = live[: n - k]
            else:
                fresh = set(ins)
                mid = [row for row in live if row not in fresh]
        # Deleted rows are disjoint from mid (they left the live set and
        # inserted rows were fresh), so the union is a concatenation.
        old = mid + dels if dels else mid
        return cls(relation.name, live, ins, dels, mid, old)


@dataclass(frozen=True)
class ChangeEvent:
    """One net change to a subscription's result set."""

    #: The base relation whose mutation caused the change.
    relation: str
    inserted: frozenset
    deleted: frozenset


#: Handler sentinel: this relation's batches recompute the whole result.
_RECOMPUTE = object()


class _DeltaHandler:
    """A compiled differential plan plus the delta estimate it was
    priced with (drift against it triggers a re-plan)."""

    __slots__ = ("plan", "delta_est")

    def __init__(self, plan, delta_est: float) -> None:
        self.plan = plan
        self.delta_est = delta_est


# ---------------------------------------------------------------------------
# Subscriptions
# ---------------------------------------------------------------------------


class Subscription:
    """A standing query handle: current rows, a change feed, a callback.

    Holds the query's :class:`~repro.compiler.levels.CompiledStatement`
    and maintains its answer under the rule the statement picks (see the
    module docstring).  All state is guarded by the registry lock —
    maintenance already runs under it, readers take it briefly.
    """

    def __init__(
        self, registry, node: ast.Query, source: str, options, on_change,
        on_fallback=None,
    ) -> None:
        self.registry = registry
        self.source = source
        self.options = options
        #: Called synchronously (inside the committing write) with each
        #: :class:`ChangeEvent`.  Must not mutate relations: the write
        #: lock and registry lock are both held.
        self.on_change = on_change
        self.active = True
        #: Maintenance counters: incrementally applied batches vs. full
        #: recomputations (deletions on fixpoints, ineligible shapes).
        self.delta_batches = 0
        self.recomputes = 0
        self.replans = 0
        self.plan_stats = PlanStats()
        self._pending: deque[ChangeEvent] = deque()
        db = registry.db
        self._on_fallback = on_fallback
        self._optimizer = options.resolved_optimizer
        # get_backend rejects unknown names, as at every other door.
        self._executor = _BAG_EXECUTORS.get(
            get_backend(options.resolved_executor).name, "batch"
        )
        #: Compiled with the requested options: its programs hold the
        #: applications' values, its top plan ranges over them.
        statement = self._statement = compile_statement(db, node, options=options)
        self._node = statement.top
        self._plan = statement.top_plan
        #: Relations the applications' values depend on: their batches
        #: advance the values (and recount the top plan over them).
        self._fixed: frozenset[str] = frozenset().union(
            *(p.bases for p in statement.fixpoints.values())
        )
        read = {
            n.name
            for n in ast.walk(statement.top)
            if isinstance(n, ast.RelRef) and n.name in db.relations
        }
        #: Base relations whose mutations this subscription watches.
        self.watched: tuple[str, ...] = tuple(sorted(read | self._fixed))
        #: Per-relation differential handler, built on first batch:
        #: a _DeltaHandler, or _RECOMPUTE when ineligible.
        self._handlers: dict[str, object] = {}
        #: The applications' values (plain and "new" tokens) as of the
        #: last advance.
        self._values = self._solve()
        if statement.identity is not None:
            #: The held value that *is* the answer, and how much of its
            #: log the change feed has reported.
            self._held = self._values[statement.identity]
            self._reported = len(self._held.log)
        else:
            #: Derivation counts; result rows are exactly the keys (every
            #: stored count is positive).
            self._counts: Counter = Counter(self._execute(self._plan))

    # -- user surface -----------------------------------------------------

    def rows(self) -> frozenset:
        """The current result set (always equal to a fresh ``query()``)."""
        with self.registry.lock:
            return self._rows()

    def changes(self):
        """Drain queued :class:`ChangeEvent` batches (oldest first).

        A non-blocking iterator: it stops when the queue is empty, and
        events accumulated later are picked up by the next call.
        """
        while True:
            with self.registry.lock:
                if not self._pending:
                    return
                event = self._pending.popleft()
            yield event

    def close(self) -> None:
        """Stop maintenance and detach from the registry."""
        self.registry.unregister(self)

    def __repr__(self) -> str:  # pragma: no cover - display only
        state = "active" if self.active else "closed"
        return f"<Subscription {self.source!r} [{state}] {len(self.rows())} rows>"

    # -- maintenance plumbing --------------------------------------------

    def _notify(self, relation_name: str, inserted, deleted) -> None:
        if not inserted and not deleted:
            return
        event = ChangeEvent(relation_name, frozenset(inserted), frozenset(deleted))
        self._pending.append(event)
        if self.on_change is not None:
            self.on_change(event)

    def _rows(self) -> frozenset:
        if self._statement.identity is not None:
            return frozenset(self._held)
        return frozenset(self._counts)

    def _solve(self) -> dict:
        """Advance the statement's fixpoint values to the current state."""
        values = self._statement.solve(self._on_fallback)
        for token, rows in list(values.items()):
            values[_variant_token(token, "new")] = rows
        return values

    def _execute(self, plan, deltas=None) -> list:
        """Run ``plan`` as a bag over the held values plus ``deltas``."""
        apply_values = {**self._values, **(deltas or {})}
        ctx = ExecutionContext(
            self.registry.db, apply_values=apply_values, stats=self.plan_stats
        )
        ctx.on_fallback = self._on_fallback
        return _execute_bag(plan, ctx, self._executor)

    # -- differential plans ----------------------------------------------

    def _compile_delta(self, name: str, delta_est: float) -> object:
        """Compile the occurrence-split differential w.r.t. ``name``,
        priced with the given delta estimate; _RECOMPUTE if ineligible
        (or if a held value depends on ``name``)."""
        if name in self._fixed:
            return _RECOMPUTE
        db = self.registry.db
        variants = relation_differential(
            self._node, name, db.relation(name).element_type
        )
        if variants is None:
            return _RECOMPUTE
        full = float(max(1, len(db.relation(name))))
        estimates = {
            _ivm_token(name, "delta"): delta_est,
            _ivm_token(name, "new"): full,
            _ivm_token(name, "old"): full,
        }
        plan = compile_query(
            db,
            ast.Query(tuple(variants)),
            cost_model=CostModel(db, estimates),
            options=ExecOptions(optimizer=self._optimizer, executor=self._executor),
        )
        return _DeltaHandler(plan, delta_est)

    def _handler(self, state: _DeltaState) -> object:
        observed = float(max(len(state.ins), len(state.dels), 1))
        handler = self._handlers.get(state.name)
        if handler is None:
            handler = self._compile_delta(state.name, observed)
            self._handlers[state.name] = handler
        elif (
            handler is not _RECOMPUTE
            and self._optimizer == "cost"
            and observed / handler.delta_est > REPLAN_DRIFT
        ):
            # Mid-stream re-plan: batches outgrew the priced estimate
            # enough that the chosen join orders may be stale.
            handler = self._compile_delta(state.name, observed)
            self._handlers[state.name] = handler
            self.replans += 1
        return handler

    # -- maintenance ------------------------------------------------------

    def _apply(self, state: _DeltaState) -> None:
        if self._statement.identity is not None:
            self._advance_held(state.name)
            return
        handler = self._handler(state)
        if handler is _RECOMPUTE:
            self._recompute(state.name)
            return
        name = state.name
        inserted_net: list = []
        deleted_net: list = []
        if state.dels:
            # Delete phase: the relation went old -> mid.
            removed = self._execute(
                handler.plan,
                {
                    _ivm_token(name, "new"): state.mid,
                    _ivm_token(name, "delta"): state.dels,
                    _ivm_token(name, "old"): state.old,
                },
            )
            self._fold(removed, -1, inserted_net, deleted_net)
        if state.ins:
            # Insert phase: the relation went mid -> live.
            added = self._execute(
                handler.plan,
                {
                    _ivm_token(name, "new"): state.live,
                    _ivm_token(name, "delta"): state.ins,
                    _ivm_token(name, "old"): state.mid,
                },
            )
            self._fold(added, +1, inserted_net, deleted_net)
        if inserted_net and deleted_net:
            # A row deleted and re-derived within one batch is no net
            # change (delete() then insert() folded into one assign()).
            churn = set(inserted_net) & set(deleted_net)
            if churn:
                inserted_net = [r for r in inserted_net if r not in churn]
                deleted_net = [r for r in deleted_net if r not in churn]
        self.delta_batches += 1
        self._notify(name, inserted_net, deleted_net)

    def _fold(self, derivations, sign: int, inserted_net, deleted_net) -> None:
        counts = self._counts
        for row in derivations:
            count = counts.get(row, 0) + sign
            if count <= 0:
                if counts.pop(row, 0) > 0:
                    deleted_net.append(row)
            else:
                counts[row] = count
                if sign > 0 and count == 1:
                    inserted_net.append(row)

    def _recompute(self, relation_name: str) -> None:
        before = self._counts
        self._values = self._solve()
        self._counts = Counter(self._execute(self._plan))
        self.recomputes += 1
        self._notify(
            relation_name,
            self._counts.keys() - before.keys(),
            before.keys() - self._counts.keys(),
        )

    def _advance_held(self, relation_name: str) -> None:
        """An identity statement's commit: advance the held value."""
        before = self._held
        self._values = self._solve()
        value = self._held = self._values[self._statement.identity]
        if value is before:
            # Resumed: the rows it gained are the log's suffix.
            inserted, deleted = value.log[self._reported :], ()
            self.delta_batches += 1
        else:
            # Ran from empty: a new value, diffed against the old one.
            inserted, deleted = value - before, before - value
            self.recomputes += 1
        self._reported = len(value.log)
        self._notify(relation_name, inserted, deleted)


# ---------------------------------------------------------------------------
# The registry (the write-capture sink)
# ---------------------------------------------------------------------------


class SubscriptionRegistry:
    """Per-database fan-out from committed write batches to subscriptions.

    Installed as the database's write-capture sink
    (:meth:`~repro.relational.Database.attach_sink`): every effective
    mutation commits while holding :attr:`lock` and calls :meth:`emit`
    with its insert/delete batch before releasing it, so maintenance is
    atomic with the commit.  Subscriptions also materialize under the
    lock, closing the subscribe-vs-write race — attach the registry
    before concurrent writers start.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.lock = threading.RLock()
        self.subscriptions: list[Subscription] = []
        self._by_relation: dict[str, list[Subscription]] = {}
        #: Committed write batches seen (whether or not anybody watched).
        self.emits = 0

    @classmethod
    def ensure(cls, db) -> "SubscriptionRegistry":
        """The database's registry, attaching a fresh one on first use."""
        if db.subscriptions is None:
            db.attach_sink(cls(db))
        return db.subscriptions

    # -- registration -----------------------------------------------------

    def subscribe(
        self, node, source, options, on_change, on_fallback=None
    ) -> Subscription:
        """Materialize and register a maintained subscription to the
        set former ``node``.

        ``on_fallback(kind, detail)`` observes executor degradations of
        the initial run and of every maintenance batch.
        """
        with self.lock:
            sub = Subscription(self, node, source, options, on_change, on_fallback)
            self._register(sub)
        return sub

    def _register(self, sub: Subscription) -> None:
        self.subscriptions.append(sub)
        for name in sub.watched:
            self._by_relation.setdefault(name, []).append(sub)

    def unregister(self, sub: Subscription) -> None:
        with self.lock:
            if sub in self.subscriptions:
                self.subscriptions.remove(sub)
            for name in sub.watched:
                watchers = self._by_relation.get(name)
                if watchers and sub in watchers:
                    watchers.remove(sub)
                    if not watchers:
                        del self._by_relation[name]
            sub.active = False

    # -- the sink protocol (called by Relation mutations) -----------------

    def emit(self, relation, inserted, deleted) -> None:
        """Maintain every watching subscription for one committed batch.

        Called by the mutating relation with its write lock and
        :attr:`lock` both held, after the commit is visible.
        """
        self.emits += 1
        watchers = self._by_relation.get(relation.name)
        if not watchers:
            return
        state = _DeltaState.build(relation, inserted, deleted)
        for sub in list(watchers):
            sub._apply(state)
