"""Standing queries: incrementally maintained session query results.

``Session.subscribe(source)`` materializes a query once and keeps the
result set current as base relations mutate — the serving-side
counterpart of the paper's view of relations and rules as one algebra:
a subscription is a derived relation whose extension tracks its
defining expression continuously instead of being recomputed on demand.

**Families.**  Subscriptions are maintained per *shape*, not per
subscriber.  Each subscription's query is lifted by
:func:`~repro.dbpl.serving.parameterize`: every constant compared in a
branch predicate (under ``SOME``/``ALL``/``NOT`` too, but not inside a
range expression) becomes an attribute ``__sub.cᵢ`` of a **parameter
relation** ``(sub_id, c₀…cₖ)``.  Subscriptions whose lifted shapes,
plan-relevant options and fallback hooks agree form one family — the
paper's move of turning a scalar constructor parameter into a
relation-valued one.  A family holds

* one :class:`~repro.compiler.levels.CompiledStatement` of the lifted
  query with ``EACH __sub IN <parameter relation>`` bound first in every
  branch and ``__sub.sub_id`` emitted ahead of the row, compiled through
  the one query-compilation level with the requested options (its
  fixpoint programs run on the requested executor and hold values every
  member shares);
* the parameter relation itself, one row per member, bound as an apply
  value and replaced (copy-on-write, indexes rebuilt lazily) when a
  member joins or leaves;
* per changed relation, one differential plan, priced with the observed
  delta and parameter-relation sizes and re-planned when either drifts.

A singleton is a family of one.  A new member's rows are the family's
top plan over a one-row parameter relation: subscribing compiles
nothing once its family exists.  The statement picks the maintenance:

* A statement whose answer **is** a fixpoint value (``Rel{con}``, bare
  or spelled ``{EACH r IN Rel{con}: TRUE}``) holds that value as every
  member's rows.  A commit advances it (a resume from the appended rows
  after inserts — sound because every compiled system is positive,
  hence monotone — and a run from empty after a delete), and each
  member's change feed reports the held log's suffix since its own last
  event, or the difference of the two values after a run from empty.  A
  non-positive constructor is refused at subscribe time
  (:class:`~repro.errors.PositivityError`).

* Any other statement uses counting-based incremental view
  maintenance.  Each member keeps the *number of derivations* of every
  result row (a bag, evaluated by running the compiled branch plans
  without the final duplicate elimination, on a bag-safe executor).
  Each committed insert/delete batch on a base relation is pushed
  through the family's occurrence-split differential of the lifted top
  query with respect to that relation — the same differential the
  fixpoint seeds use, with the changed relation's new/delta/old states
  bound as apply values — once per phase for the whole family; an
  equality slot is a hash join against the parameter relation, a range
  slot the planner's filter over the delta × parameter product.  The
  produced ``(sub_id, row)`` derivations are split by member and adjust
  that member's counts: a row enters its result when the count becomes
  positive and leaves when it returns to zero, which is exact for
  select-project-join-union under set semantics.  A batch on a relation
  a held value depends on advances the value and recounts the top plan
  once for the family.

Either way the deltas arrive from the write path: once a
:class:`SubscriptionRegistry` is attached (`Database.attach_sink`),
every effective mutation commits inside the registry lock and reports
its insert/delete batch (see ``Relation._delta_guard``), so maintenance
is atomic with the commit and two relations can never interleave.

**Isolation.**  A commit first maintains every watching family and
queues every member's event; only then do the ``on_change`` callbacks
run.  A family whose maintenance raises drops its half-folded counts
and recounts whole at its next commit; every callback runs whatever
another raised.  The first maintenance error, else the first callback
error, is re-raised once all have run — the commit stands, and no
member is left stale by another family or callback.  Callbacks run
synchronously inside the commit and must not mutate relations.

Queries whose occurrences of a relation are not all direct binding
ranges (e.g. a relation referenced inside a membership predicate) fall
back to full recomputation for that relation's batches — results stay
exact, only the incremental speedup is lost.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from itertools import count

from ..calculus import ast
from ..compiler.executors import get_backend
from ..compiler.fixpoint import REPLAN_DRIFT, _ivm_token, relation_differential
from ..compiler.levels import compile_statement
from ..compiler.options import ExecOptions
from ..compiler.plans import CostModel, ExecutionContext, compile_query
from ..constructors.engines import _variant_token
from ..relational import HashIndex
from ..types import ANY, INTEGER, Field, RecordType
from .serving import parameterize

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


def _by_member(derivations) -> dict[int, list]:
    """Split ``(sub_id, row)`` derivations into each member's rows."""
    split: dict[int, list] = {}
    for sub_id, row in derivations:
        rows = split.get(sub_id)
        if rows is None:
            split[sub_id] = [row]
        else:
            rows.append(row)
    return split


# ---------------------------------------------------------------------------
# Delta batches
# ---------------------------------------------------------------------------


class _DeltaState:
    """One committed mutation of one relation, in all three states the
    occurrence-split differential binds: ``old`` (before the batch),
    ``mid`` (after deletions, before insertions) and ``live`` (after).
    Built once per commit and shared by every watching family."""

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

    def phases(self):
        """``(sign, new, delta, old)`` per non-empty phase: the delete
        phase (old → mid), then the insert phase (mid → live)."""
        if self.dels:
            yield -1, self.mid, self.dels, self.old
        if self.ins:
            yield +1, self.live, self.ins, self.mid


@dataclass(frozen=True)
class ChangeEvent:
    """One net change to a subscription's result set."""

    #: The base relation whose mutation caused the change.
    relation: str
    inserted: frozenset
    deleted: frozenset


# ---------------------------------------------------------------------------
# Families: one lifted shape, its parameter relation, its plans
# ---------------------------------------------------------------------------

#: The tuple variable every family branch binds to its parameter relation.
_SUB = "__sub"
_SUB_ID = ast.AttrRef(_SUB, "sub_id")


def _slot(i: int) -> ast.AttrRef:
    return ast.AttrRef(_SUB, f"c{i}")


class _Params(list):
    """A family's parameter relation: one ``(sub_id, c₀…cₖ)`` row per
    member.  Replaced, never mutated, when a member joins or leaves, so
    the hash indexes an equality slot probes are built once per
    membership (``ExecutionContext.index_rows`` asks ``index_on``)."""

    __slots__ = ("_indexes",)

    def __init__(self, rows=()) -> None:
        super().__init__(rows)
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = HashIndex(positions, self)
        return index


def _family_query(shape: ast.Query, token: str, slots: int) -> ast.Query:
    """``shape`` with every branch ranging over the parameter relation
    first and emitting ``(__sub.sub_id, row)``."""
    schema = RecordType(
        "params",
        (Field("sub_id", INTEGER),) + tuple(Field(f"c{i}", ANY) for i in range(slots)),
    )
    head = ast.Binding(_SUB, ast.ApplyVar(token, schema))
    branches = []
    for branch in shape.branches:
        if branch.targets is None:
            row = ast.VarRef(branch.bindings[0].var)
        else:
            row = ast.TupleCons(branch.targets)
        branches.append(
            ast.Branch((head,) + branch.bindings, branch.pred, (_SUB_ID, row))
        )
    return ast.Query(tuple(branches))


def _held_answer(top: ast.Query):
    """The apply token whose value *is* the answer of the family query
    ``top`` (one branch ``EACH v IN <apply>: TRUE`` before lifting), or
    None."""
    if len(top.branches) != 1:
        return None
    (branch,) = top.branches
    if branch.pred != ast.TRUE or len(branch.bindings) != 2:
        return None
    binding = branch.bindings[1]
    if isinstance(binding.range, ast.ApplyVar) and branch.targets[1] == ast.VarRef(
        binding.var
    ):
        return binding.range.token
    return None


#: A relation whose batches recompute the family's answer.
_RECOMPUTE = object()


class _Differential:
    """A compiled differential plan plus the sizes it was priced with
    (drift against either triggers a re-plan)."""

    __slots__ = ("plan", "delta_est", "params_est")

    def __init__(self, plan, delta_est: float, params_est: float) -> None:
        self.plan = plan
        self.delta_est = delta_est
        self.params_est = params_est


class _Family:
    """Every subscription of one lifted shape.

    Holds the family's compiled statement, its parameter relation and its
    per-relation differential plans; maintains every member's rows under
    the rule the statement picks (see the module docstring).
    """

    def __init__(
        self, db, key, shape: ast.Query, slots: int, options, on_fallback, serial: int
    ) -> None:
        self.db = db
        self.key = key
        #: The parameter relation's apply token, and the variant the
        #: differentials read (they read every apply value as "new").
        self.token = f"__params{serial}"
        self.new_token = _variant_token(self.token, "new")
        self.on_fallback = on_fallback
        self.optimizer = options.resolved_optimizer
        # get_backend rejects unknown names, as at every other door.
        self.executor = _BAG_EXECUTORS.get(
            get_backend(options.resolved_executor).name, "batch"
        )
        #: Compiled with the requested options and priced for the one-row
        #: parameter relation a joining member's rows are counted over.
        statement = self.statement = compile_statement(
            db,
            _family_query(shape, self.token, slots),
            options=options,
            estimates={self.token: 1.0},
        )
        #: Relations the applications' values depend on: their batches
        #: advance the values (and recount the top plan over them).
        self.fixed: frozenset[str] = frozenset().union(
            *(p.bases for p in statement.fixpoints.values())
        )
        read = {
            n.name
            for n in ast.walk(statement.top)
            if isinstance(n, ast.RelRef) and n.name in db.relations
        }
        #: Base relations whose mutations this family watches.
        self.watched: tuple[str, ...] = tuple(sorted(read | self.fixed))
        #: The held value's token when it *is* every member's answer.
        self.identity = _held_answer(statement.top)
        self.members: dict[int, Subscription] = {}
        self.params = _Params()
        #: Per-relation differential, built on first batch: a
        #: _Differential, or _RECOMPUTE when ineligible.
        self.plans: dict[str, object] = {}
        self.replans = 0
        #: Set when a commit's maintenance raised (:meth:`fail`): the
        #: next commit recounts whole.
        self.stale = False
        #: The applications' values (plain and "new" tokens) as of the
        #: last advance.
        self.values = self._solve()
        if self.identity is not None:
            self.held = self.values[self.identity]

    # -- membership -------------------------------------------------------

    def join(self, sub: "Subscription", constants: tuple) -> None:
        row = (sub.sub_id,) + constants
        if self.identity is not None:
            sub._reported = len(self.held.log)
        else:
            counted = self._count(_Params([row]))
            sub._counts = counted.get(sub.sub_id, Counter())
        self.members[sub.sub_id] = sub
        self.params = _Params([*self.params, row])

    def leave(self, sub: "Subscription") -> None:
        del self.members[sub.sub_id]
        self.params = _Params([row for row in self.params if row[0] != sub.sub_id])

    # -- evaluation -------------------------------------------------------

    def _solve(self) -> dict:
        """Advance the statement's fixpoint values to the current state."""
        values = self.statement.solve(self.on_fallback)
        for token, rows in list(values.items()):
            values[_variant_token(token, "new")] = rows
        return values

    def _count(self, params: _Params) -> dict[int, Counter]:
        """Each member's derivation counts of the top plan over ``params``."""
        ctx = ExecutionContext(
            self.db, apply_values={**self.values, self.token: params}
        )
        ctx.on_fallback = self.on_fallback
        derivations = _execute_bag(self.statement.top_plan, ctx, self.executor)
        return {
            sub_id: Counter(rows) for sub_id, rows in _by_member(derivations).items()
        }

    # -- maintenance ------------------------------------------------------

    def differential(self, state: _DeltaState):
        """The plan that maintains this family under ``state``, or None
        when the commit is maintained whole (:meth:`refresh`)."""
        name = state.name
        if self.stale or self.identity is not None or name in self.fixed:
            return None
        observed = float(max(len(state.ins), len(state.dels), 1))
        members = float(len(self.members))
        current = self.plans.get(name)
        if current is None:
            current = self.plans[name] = self._compile_differential(
                name, observed, members
            )
        elif (
            current is not _RECOMPUTE
            and self.optimizer == "cost"
            and max(observed / current.delta_est, members / current.params_est)
            > REPLAN_DRIFT
        ):
            # Mid-stream re-plan: batches or membership outgrew the
            # priced estimates enough that the join orders may be stale.
            current = self.plans[name] = self._compile_differential(
                name, observed, members
            )
            self.replans += 1
        return None if current is _RECOMPUTE else current.plan

    def _compile_differential(self, name: str, delta_est: float, params_est: float):
        """The occurrence-split differential of the lifted top w.r.t.
        ``name``; _RECOMPUTE if ineligible."""
        db = self.db
        variants = relation_differential(
            self.statement.top, name, db.relation(name).element_type
        )
        if variants is None:
            return _RECOMPUTE
        full = float(max(1, len(db.relation(name))))
        estimates = {
            _ivm_token(name, "delta"): delta_est,
            _ivm_token(name, "new"): full,
            _ivm_token(name, "old"): full,
            self.new_token: params_est,
        }
        plan = compile_query(
            db,
            ast.Query(tuple(variants)),
            cost_model=CostModel(db, estimates),
            options=ExecOptions(optimizer=self.optimizer, executor=self.executor),
        )
        return _Differential(plan, delta_est, params_est)

    def fold(self, derivations, sign: int) -> None:
        """Fold one phase's ``(sub_id, row)`` derivations into the
        members' counts, noting the rows that enter or leave a member's
        result."""
        members = self.members
        for sub_id, row in derivations:
            member = members[sub_id]
            counts = member._counts
            count = counts.get(row, 0) + sign
            if count > 0:
                counts[row] = count
                if count == 1 and sign > 0:
                    member._entered.append(row)
            elif counts.pop(row, 0) > 0:
                member._left.append(row)

    def settle(self, relation_name: str, events: list) -> None:
        """Queue each member's net change of one differential commit."""
        for member in self.members.values():
            member.delta_batches += 1
            inserted, deleted = member._entered, member._left
            if not inserted and not deleted:
                continue
            member._entered, member._left = [], []
            if inserted and deleted:
                # A row deleted and re-derived within one batch is no net
                # change (delete() then insert() folded into one assign()).
                churn = set(inserted) & set(deleted)
                if churn:
                    inserted = [r for r in inserted if r not in churn]
                    deleted = [r for r in deleted if r not in churn]
            member._queue(relation_name, inserted, deleted, events)

    def fail(self) -> None:
        """Drop a raising commit's half-folded counts: each member's rows
        revert to its last settled result (deletes fold before inserts,
        so that is the rows now, less those that entered, plus those that
        left), and the next commit recounts whole."""
        self.stale = True
        for member in self.members.values():
            if member._counts is not None:
                rows = (member._counts.keys() - set(member._entered)) | set(member._left)
                member._counts = Counter(dict.fromkeys(rows, 1))
            member._entered, member._left = [], []

    def refresh(self, relation_name: str, events: list) -> None:
        """Maintain a commit whole: advance the held value, or recount."""
        self.stale = False
        if self.identity is not None:
            self._advance_held(relation_name, events)
            return
        self.values = self._solve()
        fresh = self._count(self.params)
        for sub_id, member in self.members.items():
            before = member._counts
            after = member._counts = fresh.get(sub_id, Counter())
            member.recomputes += 1
            member._queue(
                relation_name,
                after.keys() - before.keys(),
                before.keys() - after.keys(),
                events,
            )

    def _advance_held(self, relation_name: str, events: list) -> None:
        """An identity family's commit: advance the shared held value."""
        before = self.held
        self.values = self._solve()
        value = self.held = self.values[self.identity]
        resumed = value is before
        if not resumed:
            # Ran from empty: a new value, diffed against the old one.
            inserted, deleted = value - before, before - value
        for member in self.members.values():
            if resumed:
                # The rows it gained since this member's last event are
                # the log's suffix.
                member.delta_batches += 1
                member._queue(relation_name, value.log[member._reported :], (), events)
            else:
                member.recomputes += 1
                member._queue(relation_name, inserted, deleted, events)
            member._reported = len(value.log)


# ---------------------------------------------------------------------------
# Subscriptions
# ---------------------------------------------------------------------------


class Subscription:
    """A standing query handle: current rows, a change feed, a callback.

    A member of its :class:`_Family`, which maintains its answer (see the
    module docstring).  All state is guarded by the registry lock —
    maintenance already runs under it, readers take it briefly.
    """

    def __init__(self, registry, family: _Family, sub_id: int, source, options, on_change) -> None:
        self.registry = registry
        self.family = family
        #: This member's row id in its family's parameter relation.
        self.sub_id = sub_id
        self.source = source
        self.options = options
        #: Called synchronously (inside the committing write, after every
        #: watching family is maintained) with each :class:`ChangeEvent`.
        #: Must not mutate relations: the write lock and registry lock
        #: are both held.
        self.on_change = on_change
        self.active = True
        #: Maintenance counters: incrementally applied batches vs. full
        #: recomputations (deletions on fixpoints, ineligible shapes).
        self.delta_batches = 0
        self.recomputes = 0
        self._pending: deque[ChangeEvent] = deque()
        #: Derivation counts (a counting family; result rows are exactly
        #: the keys, every stored count positive), or how much of the
        #: shared held value's log this member's feed has reported.
        self._counts: Counter | None = None
        self._reported = 0
        #: Rows that entered and left the result in the commit being
        #: maintained (:meth:`_Family.fold`, drained by ``settle``).
        self._entered: list = []
        self._left: list = []
        #: The rows at close, kept once the family stops maintaining them.
        self._closed_rows: frozenset | None = None

    @property
    def watched(self) -> tuple[str, ...]:
        """Base relations whose mutations this subscription watches."""
        return self.family.watched

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

    def _rows(self) -> frozenset:
        if self._closed_rows is not None:
            return self._closed_rows
        if self._counts is None:
            return frozenset(self.family.held)
        return frozenset(self._counts)

    def _queue(self, relation_name: str, inserted, deleted, events: list) -> None:
        """Queue a net change; its callback runs once the commit's
        maintenance is done (:meth:`SubscriptionRegistry.emit`)."""
        if not inserted and not deleted:
            return
        event = ChangeEvent(relation_name, frozenset(inserted), frozenset(deleted))
        self._pending.append(event)
        if self.on_change is not None:
            events.append((self.on_change, event))


# ---------------------------------------------------------------------------
# The registry (the write-capture sink)
# ---------------------------------------------------------------------------


class SubscriptionRegistry:
    """Per-database fan-out from committed write batches to families.

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
        #: Family key -> family: ``(lifted shape, options.cache_key(),
        #: on_fallback hook, constant types)``.
        self.families: dict[tuple, _Family] = {}
        self._by_relation: dict[str, list[_Family]] = {}
        self._ids = count()
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
        set former ``node``, as a member of the family of its shape.

        ``on_fallback(kind, detail)`` observes executor degradations of
        the initial run and of every maintenance batch.
        """
        shape, constants = parameterize(node, slot=_slot)
        # Constant types are part of the key: one member's comparison
        # must never raise on another member's constant.
        key = (
            shape,
            options.cache_key(),
            on_fallback,
            tuple(type(c) for c in constants),
        )
        with self.lock:
            family = self.families.get(key)
            fresh = family is None
            if fresh:
                family = _Family(
                    self.db, key, shape, len(constants), options, on_fallback,
                    next(self._ids),
                )
            sub = Subscription(
                self, family, next(self._ids), source, options, on_change
            )
            family.join(sub, constants)
            if fresh:
                self.families[key] = family
                for name in family.watched:
                    self._by_relation.setdefault(name, []).append(family)
            self.subscriptions.append(sub)
        return sub

    def unregister(self, sub: Subscription) -> None:
        with self.lock:
            if sub not in self.subscriptions:
                return
            self.subscriptions.remove(sub)
            sub._closed_rows = sub._rows()
            sub.active = False
            family = sub.family
            family.leave(sub)
            if family.members:
                return
            # The family's last member: drop the family.
            del self.families[family.key]
            for name in family.watched:
                watchers = self._by_relation[name]
                watchers.remove(family)
                if not watchers:
                    del self._by_relation[name]

    # -- the sink protocol (called by Relation mutations) -----------------

    def emit(self, relation, inserted, deleted) -> None:
        """Maintain every watching family for one committed batch, then
        run the members' callbacks.

        Called by the mutating relation with its write lock and
        :attr:`lock` both held, after the commit is visible.  Each
        differential runs once per family and phase, every family's in
        one shared :class:`~repro.compiler.plans.ExecutionContext` per
        phase.
        """
        self.emits += 1
        families = self._by_relation.get(relation.name)
        if not families:
            return
        state = _DeltaState.build(relation, inserted, deleted)
        name = state.name
        events: list = []
        failed: list = []
        counted = []
        for family in families:
            try:
                plan = family.differential(state)
                if plan is None:
                    family.refresh(name, events)
                else:
                    counted.append((family, plan))
            except Exception as exc:  # isolated: other families still run
                family.fail()
                failed.append(exc)
        for sign, new, delta, old in state.phases():
            if not counted:
                break
            values = {
                _ivm_token(name, "new"): new,
                _ivm_token(name, "delta"): delta,
                _ivm_token(name, "old"): old,
            }
            for family, _ in counted:
                values.update(family.values)
                values[family.new_token] = family.params
            ctx = ExecutionContext(self.db, apply_values=values)
            for family, plan in counted:
                ctx.on_fallback = family.on_fallback
                try:
                    family.fold(_execute_bag(plan, ctx, family.executor), sign)
                except Exception as exc:
                    family.fail()
                    failed.append(exc)
            counted = [entry for entry in counted if not entry[0].stale]
        for family, _ in counted:
            family.settle(name, events)
        raised = []
        for callback, event in events:
            try:
                callback(event)
            except Exception as exc:  # isolated: later callbacks still run
                raised.append(exc)
        errors = failed + raised
        if errors:
            if len(errors) > 1:
                more = "error(s) raised" if failed else "on_change callback(s) raised"
                errors[0].add_note(f"{len(errors) - 1} more {more}")
            raise errors[0]
