"""Compiled semi-naive fixpoint execution.

The query compilation level of section 4 generates "an appropriate
version of the fixed point algorithm" for each recursive cycle.  This
module is that generated program: the branch bodies of an instantiated
constructor system are compiled to indexed :class:`~.plans.QueryPlan`s
(base branches once, differential variants per recursive occurrence),
and a driver iterates deltas to the least fixpoint.

Functionally identical to ``repro.constructors.engines.seminaive_fixpoint``
(asserted by tests); the difference is execution speed — batched
physical-operator pipelines (deltas as pre-built hash-join sides, see
:mod:`repro.compiler.operators`) instead of interpreted nested loops —
which benchmarks E12 and E16 measure.  Each per-iteration result is
applied through a :class:`~repro.compiler.operators.DeltaApply`
operator whose counters surface in :meth:`CompiledFixpoint.explain`.

**A program holds its value.**  The converged value of every fixpoint
variable stays on the program between executions as a
:class:`HeldValue` (an append-only row log, its membership set, and
views over the log — hash indexes and statistics — grown the way
:meth:`~repro.relational.Relation._view` grows a relation's), stamped
with the ``(version, log, n)`` head of every base relation it is the
least fixpoint over.  Plans run against the database pinned at those
heads (``db.snapshot(bases)``), so the stamp is exact even while
writers commit.  :meth:`CompiledFixpoint.advance` brings the value up
to the live state or a caller's snapshot — an unchanged stamp is a
*hit* and runs no plan; base relations that were only appended to seed
deltas from their log suffixes through the occurrence-split
differential of every equation w.r.t. each changed relation, and
:meth:`CompiledFixpoint.resume` continues semi-naive iteration from the
held value (sound because every compiled system is positive: old rows
stay derivable, the seeds cover every new one-step derivation, values
are sets); anything else — a replaced log (delete, assign, cold
materialization), an older snapshot — runs from empty.  That is the one
resume path: the statement compiler's runtime level and both
subscription kinds call it.  :meth:`CompiledFixpoint.run` keeps its
run-from-empty meaning.

**A database holds each program once** (:func:`held_program`), weakly,
under every application of its system: ``Ontop{above(Infront)}`` reads
the program ``Infront{ahead(Ontop)}`` compiled, and every statement over
``Cyc{tc}`` reads one value, under the program's lock
(:meth:`~repro.compiler.levels.CompiledStatement.solve`).  The planner
prices a fixpoint variable from that value — its size and its
statistics view (:func:`~.plans.held_value`).

**Every positive system compiles.**  Positivity is
:func:`compile_fixpoint`'s own gate: a non-positive system is a
:class:`~repro.errors.PositivityError` (section 3.3) at every door.  A
branch whose fixpoint variables all occur as binding ranges gets the
occurrence-split differential; a branch with one anywhere else (the
``SOME`` of a reachability query, a membership test, an ``ALL`` body)
fires whole each round against the current values, which the lemma of
section 3.3 makes monotone.  :func:`compile_application` is the one way
from a constructor application to its program (instantiate →
:func:`compile_fixpoint`): the statement compiler
(:func:`~repro.compiler.levels.compile_statement`, i.e. the session
front door), :func:`construct_compiled` and fixpoint subscriptions all
come through it.

The default ``executor="batch"`` runs the **columnar** pipelines: each
iteration's delta sets are hashed once per execution context and probed
through C-level column kernels, residual quantifiers are decided once
per distinct group by compiled sub-plans, and the differential
projections fuse into their producing joins.  ``executor="rowbatch"``
(the PR 3 row-major batches) and ``executor="tuple"`` (the original
interpreter) are by-name measurement baselines (benchmarks E16/E17);
the executor is preserved across re-plans.

**One way to price and re-plan a differential.**  Every differential
plan — the rounds of a fixpoint, the seeds of a resume, a standing
query's maintenance (:mod:`repro.dbpl.subscriptions`) — is a
:class:`Differential`: the compiled plan and the apply sizes its cost
model priced it with.  Before it runs, :meth:`Differential.plan_for`
compares those prices with the sizes observed now; once one exceeds its
price by more than :data:`REPLAN_DRIFT`, the join orders are
re-enumerated at the observed sizes and statistics, which become the
new prices.  Only an underestimate re-plans: deltas shrinking toward
convergence are the normal life of a fixpoint, and re-planning on them
would recompile every round near the end for no possible order change.
So the prices are a ratchet: once sizes outgrow them, they follow the
sizes up and stay there.  The ``replans`` counter (rounds that
re-planned) is surfaced by :meth:`CompiledFixpoint.explain` and
:class:`~repro.constructors.engines.FixpointStats`; benchmark E15
measures what a re-plan saves on delta-drifting workloads.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..calculus import ast
from ..constructors.api import ConstructionResult
from ..constructors.engines import (
    FixpointStats,
    _variant_token,
    as_new,
    is_fixpoint_variable,
    occurrence_positions,
    split_occurrences,
    variant,
)
from ..constructors.instantiate import (
    AppKey,
    InstantiatedSystem,
    base_relation_names,
    instantiate,
)
from ..constructors.positivity import is_system_positive
from ..errors import ConvergenceError, PositivityError
from ..relational import Database, HashIndex, TableStats
from .operators import DeltaApply
from .options import DEFAULT_OPTIONS, ExecOptions
from .plans import (
    DEFAULT_EXECUTOR,
    DEFAULT_OPTIMIZER,
    CostModel,
    ExecutionContext,
    PlanStats,
    QueryPlan,
    compile_query,
)

#: Re-plan a differential once an observed apply size (a delta, a full
#: value, a base relation's appended rows) exceeds the size its plan was
#: priced with by more than this factor.  Overestimates never re-plan.
REPLAN_DRIFT = 4.0


# ---------------------------------------------------------------------------
# Differentials w.r.t. a base relation (fixpoint seeds and counting IVM)
# ---------------------------------------------------------------------------


def _ivm_token(name: str, kind: str) -> tuple:
    """Apply-value token for one state of base relation ``name``.

    Shaped like a fixpoint variant token (``("__seminaive__", kind,
    key)``) so the planner's delta-preference pricing and tiebreaks
    apply to differential plans over base relations unchanged.
    """
    return _variant_token(("__ivm__", name), kind)


def relation_differential(
    query: ast.Query, name: str, schema
) -> list[ast.Branch] | None:
    """The occurrence-split differential of ``query`` w.r.t. base relation
    ``name``, whose new/delta/old states are bound as :func:`_ivm_token`
    apply values; fixpoint variables read their "new" variant (the held
    value, for fixpoint seeds and for set formers over a constructed
    range).  None when a branch reads ``name`` outside a binding range."""

    def occurs(node: ast.Node) -> bool:
        return isinstance(node, ast.RelRef) and node.name == name

    def state(_rng: ast.RangeExpr, kind: str) -> ast.ApplyVar:
        return ast.ApplyVar(_ivm_token(name, kind), schema)

    variants: list[ast.Branch] = []
    for branch in query.branches:
        positions = occurrence_positions(branch, occurs)
        if positions is None:
            return None
        variants.extend(split_occurrences(branch, positions, state))
    return variants


class Differential:
    """One differential plan and the apply sizes its cost model priced.

    A fixpoint's rounds, a resume's seeds and a standing query's
    maintenance all hold these.  ``estimates`` price the tokens the model
    cannot size (base-relation states, parameter relations); the rest
    are :meth:`~.plans.CostModel.apply_cardinality`'s.  ``held`` seeds
    the model's held-value memo with a program's own values.  Only the
    cost optimizer reads prices, so only it re-plans — at drifted sizes,
    or once a relation it priced as scanning through its store no
    longer does (:attr:`~repro.relational.Relation.scan_store`), where
    an index now costs no load.
    """

    __slots__ = ("db", "query", "options", "replan_drift", "priced", "plan", "pushed")

    def __init__(
        self,
        db: Database,
        query: ast.Query,
        options: ExecOptions,
        estimates: dict | None = None,
        replan_drift: float | None = REPLAN_DRIFT,
        held: dict | None = None,
    ) -> None:
        self.db = db
        self.query = query
        self.options = options
        cost = options.resolved_optimizer == "cost"
        self.replan_drift = replan_drift if cost else None
        self._compile(estimates or {}, held)

    def _compile(self, estimates: dict, held: dict | None) -> None:
        model = CostModel(
            self.db, {t: max(1.0, float(n)) for t, n in estimates.items()}, held=held
        )
        #: The relations priced as scanning through their stores.
        self.pushed = [r for r in self.db.relations.values() if r.scan_store is not None]
        self.plan = compile_query(self.db, self.query, cost_model=model, options=self.options)
        tokens = {n.token for n in ast.walk(self.query) if isinstance(n, ast.ApplyVar)}
        #: Apply token → the size the current plan was priced with.
        self.priced = {token: model.apply_cardinality(token) for token in tokens}

    def plan_for(self, observed: dict, held: dict | None = None) -> QueryPlan:
        """The plan to run over apply values of the ``observed`` sizes
        (token → rows): re-planned at those sizes, and ``held``'s
        statistics, once one exceeds its price by more than
        :attr:`replan_drift`."""
        drift = self.replan_drift
        priced = self.priced
        if drift is not None and (
            any(
                max(1.0, n) > drift * max(1.0, priced[t])
                for t, n in observed.items()
                if t in priced
            )
            or (self.pushed and any(r.scan_store is None for r in self.pushed))
        ):
            self._compile({**priced, **observed}, held)
        return self.plan


# ---------------------------------------------------------------------------
# Held values
# ---------------------------------------------------------------------------

#: Serializes extending held statistics in place (two planners may read
#: one value).
_STATS_LOCK = threading.Lock()


def _extend_stats(stats: TableStats, rows: list) -> TableStats:
    stats.add_rows_batch(rows)
    return stats


class HeldValue(set):
    """The value of one fixpoint variable, held between executions.

    A set of rows — what plans scan, what the semi-naive ``produced -
    known`` tests against, what a reader copies — over an append-only
    ``log`` of the same rows in derivation order.  Its views follow
    :meth:`~repro.relational.Relation._view`'s rule (:meth:`_view`): a
    view built at the current log length is a hit, an older one is
    extended by the rows appended since, so reading a value that grew by
    a resume costs the growth, not a rebuild.  The views are hash
    indexes (:meth:`index_on`, extended copy-on-write by
    :meth:`HashIndex.extended`) and the value's :attr:`stats`.  Only
    :meth:`absorb` grows it; a run from empty starts a new one.
    """

    __slots__ = ("log", "arity", "_views")

    def __init__(self, arity: int) -> None:
        super().__init__()
        self.log: list[tuple] = []
        self.arity = arity
        #: slot -> (log length it covers, view)
        self._views: dict[object, tuple[int, object]] = {}

    def absorb(self, fresh: set) -> None:
        """Add ``fresh`` — rows not in the value yet."""
        self.update(fresh)
        self.log.extend(fresh)

    def _view(self, slot, build, extend):
        """The view in ``slot`` over the first ``n`` logged rows, ``n``
        the log's length now (it may grow meanwhile): held, else
        ``extend``-ed by the rows appended since, else ``build``-t."""
        n = len(self.log)
        held = self._views.get(slot)
        if held is None:
            view = build(self.log[:n])
        elif held[0] == n:
            return held[1]
        else:
            view = extend(held[1], self.log[held[0] : n])
        self._views[slot] = (n, view)
        return view

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        return self._view(
            positions, lambda log: HashIndex(positions, log), HashIndex.extended
        )

    @property
    def stats(self) -> TableStats:
        """The value's statistics: built on first read, then extended in
        place by the rows appended since — exact at every read."""
        with _STATS_LOCK:
            return self._view(
                "stats", lambda log: TableStats.from_rows(log, self.arity), _extend_stats
            )


@dataclass(eq=False)
class CompiledFixpoint:
    """The compiled fixpoint program for one instantiated system, and
    the value it last converged to."""

    db: Database
    system: InstantiatedSystem
    base_plans: dict[AppKey, QueryPlan]
    #: The differential of every equation, run each round.
    diff_plans: dict[AppKey, Differential] = field(default_factory=dict)
    optimizer: str = DEFAULT_OPTIMIZER
    #: Which executor backend runs the compiled plans ("batch" columnar
    #: pipelines by default; "rowbatch"/"tuple" for measurement;
    #: "sharded" for hash-partitioned parallel execution — see
    #: :mod:`repro.compiler.executors`).
    executor: str = DEFAULT_EXECUTOR
    #: Sharded-backend tuning carried onto every per-iteration execution
    #: context (None → the module defaults of repro.compiler.sharded).
    shard_config: object | None = None
    #: Observable-fallback hook ``callable(kind, detail)``, carried onto
    #: the same contexts (``Session`` wires its counters here).  One
    #: run()/advance() reports each kind once, however many iterations
    #: and branches degraded.
    on_fallback: object | None = None
    #: Drift factor that triggers a re-plan; None disables re-planning.
    replan_drift: float | None = REPLAN_DRIFT
    #: Rounds (seed waves included) in which some differential re-planned.
    replans: int = 0
    plan_stats: PlanStats = field(default_factory=PlanStats)
    #: The semi-naive ``produced - known`` operators, one per fixpoint
    #: variable; their actual counts are the fresh tuples per variable.
    delta_ops: dict[AppKey, DeltaApply] = field(default_factory=dict)
    #: The value of every fixpoint variable as of :attr:`stamp` (empty
    #: until the first execution).
    held: dict[AppKey, HeldValue] = field(default_factory=dict)
    #: Base relation name → the head ``held`` is the least fixpoint over.
    stamp: dict[str, tuple] = field(default_factory=dict)
    #: Base relation name → the seed differential per fixpoint variable,
    #: compiled on its first append; None when an equation reads it
    #: outside a binding range (its appends run from empty).
    seed_plans: dict[str, dict[AppKey, Differential] | None] = field(default_factory=dict)
    #: Executions by outcome: the stamp still held, a resume from the
    #: appended rows, a run from empty.
    hits: int = 0
    resumes: int = 0
    recomputes: int = 0
    #: The last execution's outcome ("hit" | "resumed" | "recomputed")
    #: and the number of appended base rows it seeded from.
    last: tuple[str, int] = ("", 0)
    #: Executor degradations (kind → detail) the held values were
    #: computed under; a hit reports them again, so every read of a
    #: degraded value is counted.
    degraded: dict[str, str] = field(default_factory=dict)
    #: The stored relations the system reads (the stamp's scope).
    bases: frozenset[str] = field(init=False, repr=False)
    #: Held by every statement reading the values, from ``advance`` on.
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self) -> None:
        self.bases = base_relation_names(self.db, self.system)

    def held_line(self) -> str:
        """One line on the held value, rendered from the fields."""
        if not self.held:
            return "held: nothing yet"
        stamp = ", ".join(
            f"{name}@v{head[0]}" for name, head in sorted(self.stamp.items())
        )
        outcome, seeded = self.last
        last = f"resumed from {seeded} rows" if outcome == "resumed" else outcome
        return (
            f"held at {stamp or 'no base relation'}, "
            f"{len(self.held[self.system.root])} rows; last: {last} "
            f"(hits={self.hits} resumes={self.resumes} "
            f"recomputes={self.recomputes})"
        )

    def explain(self) -> str:
        lines = [self.held_line()]
        if self.replan_drift is not None:
            lines.append(
                f"replans: {self.replans} (drift threshold "
                f"{self.replan_drift:g}x)"
            )
        else:
            lines.append(f"replans: {self.replans} (re-planning disabled)")
        for key in self.system.apps:
            lines.append(f"== {key.describe()} ==")
            value = self.held.get(key)
            if value is not None:
                lines.append(f"value stats: {value.stats.describe()}")
            lines.append("base:")
            lines.append(self.base_plans[key].explain())
            lines.append("differential:")
            lines.append(self.diff_plans[key].plan.explain())
            for name, seeds in sorted(self.seed_plans.items()):
                if seeds and key in seeds:
                    lines.append(f"seed w.r.t. {name}:")
                    lines.append(seeds[key].plan.explain())
            delta_op = self.delta_ops.get(key)
            if delta_op is not None and delta_op.executions:
                lines.append(delta_op.explain_line())
        return "\n".join(lines)

    # -- re-planning ------------------------------------------------------------

    def _differential(self, query: ast.Query, estimates: dict | None = None) -> Differential:
        return Differential(
            self.db,
            query,
            ExecOptions(optimizer=self.optimizer, executor=self.executor),
            estimates,
            self.replan_drift,
            self.held,
        )

    def _plans(self, differentials: dict, observed: dict) -> dict[AppKey, QueryPlan]:
        """Every differential's plan for the ``observed`` apply sizes
        (:meth:`Differential.plan_for`); a round in which any of them
        re-plans counts once in :attr:`replans`."""
        before = [d.plan for d in differentials.values()]
        plans = {key: d.plan_for(observed, self.held) for key, d in differentials.items()}
        if any(p is not q for p, q in zip(plans.values(), before)):
            self.replans += 1
        return plans

    def _context(self, note, pinned, apply_values=None) -> ExecutionContext:
        ctx = ExecutionContext(pinned, apply_values=apply_values, stats=self.plan_stats)
        ctx.shard_config = self.shard_config
        ctx.on_fallback = note
        return ctx

    def _note_once(self):
        """:attr:`on_fallback` narrowed to one report per kind, each kind
        also recorded in :attr:`degraded`."""
        hook = self.on_fallback
        degraded = self.degraded
        seen: set = set()

        def note(kind: str, detail: str) -> None:
            degraded.setdefault(kind, detail)
            if kind not in seen:
                seen.add(kind)
                if hook is not None:
                    hook(kind, detail)

        return note

    # -- execution ------------------------------------------------------------

    def _heads(self, pinned) -> dict[str, tuple]:
        """The head every base relation is pinned at in ``pinned``."""
        return {name: pinned.relation(name).head for name in self.bases}

    def _current(self) -> dict[object, object]:
        """Every fixpoint variable's "new" token bound to its held value."""
        return {_variant_token(key, "new"): value for key, value in self.held.items()}

    @contextmanager
    def _advancing(self, pinned, stats: FixpointStats):
        """Around one run or resume: yields the fallback note; stamps the
        held values with the pinned heads on success (and counts the
        rounds that re-planned into ``stats``) and drops them on failure
        — a half-propagated value must never be resumed."""
        replans = self.replans
        try:
            yield self._note_once()
        except BaseException:
            self.held, self.stamp = {}, {}
            raise
        self.stamp = self._heads(pinned)
        stats.replans += self.replans - replans

    def run(
        self,
        max_iterations: int = 100_000,
        stats: FixpointStats | None = None,
        db=None,
    ) -> dict[AppKey, HeldValue]:
        """Run from empty against ``db`` (default: the live database),
        pinned at its current heads: the held values start over, and are
        returned as by :meth:`advance`."""
        stats = stats if stats is not None else FixpointStats()
        stats.mode = "compiled-seminaive"
        pinned = (self.db if db is None else db).snapshot(self.bases)
        with self._advancing(pinned, stats) as note:
            self.degraded.clear()
            self.held = {
                key: HeldValue(len(app.element_type.attribute_names))
                for key, app in self.system.apps.items()
            }
            # Whole-firing branches read the (still empty) "new" values.
            ctx = self._context(note, pinned, self._current())
            produced = {
                key: plan.execute(ctx, executor=self.executor)
                for key, plan in self.base_plans.items()
            }
            self.recomputes += 1
            self.last = ("recomputed", 0)
            self._converge(pinned, produced, max_iterations, stats, note)
        return self.held

    def advance(
        self,
        max_iterations: int = 100_000,
        stats: FixpointStats | None = None,
        db=None,
    ) -> dict[AppKey, HeldValue]:
        """Bring the held values up to ``db``'s state (default: the live
        database; a :class:`~repro.relational.DatabaseSnapshot` may pin
        an older one) and return them.

        ``db``'s heads equal to the stamp → a hit, no plan runs.  Every
        base relation that moved still has its stamped log, only longer
        → :meth:`resume` from the appended rows.  Anything else (nothing
        held yet, a replaced log, an older state, a relation an equation
        reads outside a binding range) → :meth:`run` from empty.  The
        values are live: valid until the next advance, so a caller
        copies what it keeps.
        """
        stats = stats if stats is not None else FixpointStats()
        pinned = (self.db if db is None else db).snapshot(self.bases)
        heads = self._heads(pinned)
        if self.held and all(heads[name] is self.stamp[name] for name in heads):
            self.hits += 1
            self.last = ("hit", 0)
            stats.mode = "compiled-hit"
            if self.on_fallback is not None:
                for kind, detail in self.degraded.items():
                    self.on_fallback(kind, detail)
            return self.held
        appended = self._appended(heads)
        if appended is None:
            return self.run(max_iterations, stats, pinned)
        self.resume(pinned, appended, max_iterations, stats)
        return self.held

    def _appended(self, heads: dict) -> dict[str, list] | None:
        """Per moved base relation, the rows appended between the stamp
        and ``heads`` — None when any of them cannot seed a resume."""
        if not self.held:
            return None
        appended: dict[str, list] = {}
        for name, head in heads.items():
            then = self.stamp[name]
            if head is then:
                continue
            fresh = self.db.relation(name).appended_since(then, head)
            if fresh is None or self._seeds(name) is None:
                return None
            appended[name] = fresh
        return appended

    def _seeds(self, name: str) -> dict[AppKey, Differential] | None:
        """The occurrence-split differential of every equation w.r.t.
        base relation ``name`` (compiled on first need), its appended
        rows priced at √ of the relation."""
        if name not in self.seed_plans:
            relation = self.db.relation(name)
            full = len(relation)
            estimates = {
                _ivm_token(name, "new"): full,
                _ivm_token(name, "old"): full,
                _ivm_token(name, "delta"): full**0.5,
            }
            seeds: dict[AppKey, Differential] | None = {}
            for key, app in self.system.apps.items():
                variants = relation_differential(app.body, name, relation.element_type)
                if variants is None:
                    seeds = None
                    break
                if variants:
                    seeds[key] = self._differential(ast.Query(tuple(variants)), estimates)
            self.seed_plans[name] = seeds
        return self.seed_plans[name]

    def resume(
        self,
        pinned,
        appended: dict[str, list],
        max_iterations: int = 100_000,
        stats: FixpointStats | None = None,
    ) -> None:
        """Continue semi-naive iteration from the held values after base
        relations were appended to.

        ``appended`` maps each moved base relation to the rows committed
        since the stamp; ``pinned`` is the database at the new heads.
        Each moved relation's seed plans run with one occurrence bound to
        its appended rows, its other occurrences and every other
        relation — moved ones included — at the new heads, and fixpoint
        variables to the held values.  The seeds cover every derivation
        through an appended row, which is sound because every compiled
        system is positive (monotone), and values are sets, so a
        derivation seeded twice is absorbed once.  The seeded rows are
        the first wave; a seed priced for fewer appended rows than
        arrived re-plans first (:meth:`Differential.plan_for`).
        """
        stats = stats if stats is not None else FixpointStats()
        stats.mode = "compiled-seminaive-resume"
        with self._advancing(pinned, stats) as note:
            produced: dict[AppKey, set] = {key: set() for key in self.system.apps}
            for name, fresh in appended.items():
                apply_values: dict[object, object] = self._current()
                apply_values[_ivm_token(name, "delta")] = fresh
                # Later occurrences read the new state too: a superset of
                # the stamped one, so only derivations that hold now, and
                # a derivation found twice is absorbed once.
                live = pinned.relation(name).raw_list()
                apply_values[_ivm_token(name, "new")] = live
                apply_values[_ivm_token(name, "old")] = live
                observed = {token: len(rows) for token, rows in apply_values.items()}
                plans = self._plans(self._seeds(name), observed)
                ctx = self._context(note, pinned, apply_values)
                for key, plan in plans.items():
                    produced[key] |= plan.execute(ctx, executor=self.executor)
            self.resumes += 1
            self.last = ("resumed", sum(len(rows) for rows in appended.values()))
            self._converge(pinned, produced, max_iterations, stats, note)

    def _converge(
        self,
        pinned,
        produced: dict[AppKey, set],
        max_iterations: int,
        stats: FixpointStats,
        note,
    ) -> None:
        """Absorb the first wave ``produced`` (base branches or seeds)
        and iterate deltas to the least fixpoint — the shared tail of a
        run from empty and :meth:`resume`."""
        system = self.system
        executor = self.executor
        held = self.held
        plans = {key: diff.plan for key, diff in self.diff_plans.items()}
        self.delta_ops = {key: DeltaApply(key.describe()) for key in system.apps}
        deltas = {
            key: self.delta_ops[key].apply(rows, held[key])
            for key, rows in produced.items()
        }
        for key, delta in deltas.items():
            held[key].absorb(delta)
        stats.iterations = 1
        stats.tuples_derived = sum(len(d) for d in deltas.values())
        stats.peak_delta = stats.tuples_derived

        # "old" (V - delta) is only needed by non-linear rules; computing it
        # unconditionally would make linear chains quadratic.
        old_tokens_used = {
            step.source.token
            for qp in plans.values()
            for branch_plan in qp.branches
            for step in branch_plan.steps
            if step.source.kind == "apply"
            and isinstance(step.source.token, tuple)
            and step.source.token[1] == "old"
        }

        while any(deltas.values()):
            if stats.iterations >= max_iterations:
                raise ConvergenceError(
                    f"compiled fixpoint for {system.root.describe()} did not "
                    f"converge within {max_iterations} iterations"
                )
            apply_values = self._current()
            for key in system.apps:
                apply_values[_variant_token(key, "delta")] = deltas[key]
                old_token = _variant_token(key, "old")
                if old_token in old_tokens_used:
                    apply_values[old_token] = held[key] - deltas[key]
            ctx = self._context(note, pinned, apply_values)
            new_deltas: dict[AppKey, set] = {}
            for key in system.apps:
                produced_rows = plans[key].execute(ctx, executor=executor)
                new_deltas[key] = self.delta_ops[key].apply(produced_rows, held[key])
            for key, delta in new_deltas.items():
                held[key].absorb(delta)
            deltas = new_deltas
            stats.iterations += 1
            grown = sum(len(d) for d in deltas.values())
            stats.tuples_derived += grown
            stats.peak_delta = max(stats.peak_delta, grown)
            if grown:
                observed = {}
                for key, value in held.items():
                    observed[_variant_token(key, "delta")] = len(deltas[key])
                    observed[_variant_token(key, "new")] = len(value)
                    observed[_variant_token(key, "old")] = len(value)
                plans = self._plans(self.diff_plans, observed)

        stats.final_sizes = {k.describe(): len(v) for k, v in held.items()}
        self.plan_stats.iterations = stats.iterations


def compile_fixpoint(
    db: Database,
    system: InstantiatedSystem,
    replan_drift: float | None = REPLAN_DRIFT,
    *,
    options: ExecOptions | None = None,
) -> CompiledFixpoint:
    """Compile base and differential plans for every equation of a
    positive system (anything else is the section 3.3
    :class:`PositivityError`).

    A branch whose fixpoint variables all occur as binding ranges is
    split into its semi-naive differential variants.  A branch with one
    anywhere else — under ``SOME``, ``IN``, ``OR``, ``NOT ALL``, inside
    an ``ALL`` body — has no differential to bind it, so it *fires
    whole*: rebound to the "new" values, it joins both the base and the
    differential plan and runs each round against the current values.
    Positivity makes it monotone, so the iteration still reaches the
    least fixpoint, and every positive system compiles.

    Base branches see only stored relations; each differential is a
    :class:`Differential`, its deltas priced small (√ of the full value),
    which drives the loop nests off the delta side.  ``replan_drift``
    tunes when a round re-plans (None never does).

    Execution knobs arrive on ``options``.  ``replan_drift`` stays a
    separate argument — it tunes the fixpoint driver, not execution.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    optimizer = options.resolved_optimizer
    if not is_system_positive(system):
        raise PositivityError(
            f"instantiated system for {system.root.describe()} is not positive"
        )
    base_model = CostModel(db)
    base_plans: dict[AppKey, QueryPlan] = {}
    diff_queries: dict[AppKey, ast.Query] = {}
    for key, app in system.apps.items():
        base_branches: list[ast.Branch] = []
        differential: list[ast.Branch] = []
        for branch in app.body.branches:
            positions = occurrence_positions(branch, is_fixpoint_variable)
            if positions is None:
                whole: ast.Branch = as_new(branch)  # type: ignore[assignment]
                base_branches.append(whole)
                differential.append(whole)
            elif positions:
                differential.extend(split_occurrences(branch, positions, variant))
            else:
                base_branches.append(branch)
        base_plans[key] = compile_query(
            db, ast.Query(tuple(base_branches)), cost_model=base_model,
            options=ExecOptions(optimizer=optimizer),
        )
        diff_queries[key] = ast.Query(tuple(differential))
    program = CompiledFixpoint(
        db,
        system,
        base_plans,
        optimizer=optimizer,
        executor=options.resolved_executor,
        shard_config=options.shard_config,
        replan_drift=replan_drift if optimizer == "cost" else None,
    )
    program.diff_plans = {
        key: program._differential(query) for key, query in diff_queries.items()
    }
    return program


def compile_application(
    db: Database,
    application: ast.Constructed,
    replan_drift: float | None = REPLAN_DRIFT,
    *,
    options: ExecOptions | None = None,
    on_fallback=None,
) -> CompiledFixpoint:
    """One constructor application → its compiled fixpoint program.

    The one copy of instantiate → :func:`compile_fixpoint` (the statement
    compiler, :func:`construct_compiled` and fixpoint subscriptions all
    come through here); a non-positive system is
    :func:`compile_fixpoint`'s :class:`PositivityError`.  ``on_fallback``
    is installed as the program's :attr:`CompiledFixpoint.on_fallback`
    hook.
    """
    program = compile_fixpoint(
        db, instantiate(db, application), replan_drift, options=options
    )
    program.on_fallback = on_fallback
    return program


def held_program(
    db: Database, application: ast.Constructed, options: ExecOptions
) -> tuple[CompiledFixpoint, AppKey]:
    """The program of the closed ``application`` under ``options`` — one
    per ``(key, options.cache_key())`` in ``db.programs``, registered
    under every application of its system — and the application's key."""
    programs = db.programs
    if programs is None:
        programs = db.programs = weakref.WeakValueDictionary()
    options_key = options.cache_key()
    key = AppKey(application.constructor, application.base, application.args)
    program = programs.get((key, options_key))
    if program is None:
        program = compile_application(db, application, options=options)
        key = program.system.root
        # A program a racing compile registered first is the one held.
        program = programs.setdefault((key, options_key), program)
        for app in program.system.apps:
            programs.setdefault((app, options_key), program)
    return program, key


def construct_compiled(
    db: Database,
    application: ast.Constructed,
    max_iterations: int = 100_000,
    replan_drift: float | None = REPLAN_DRIFT,
    *,
    options: ExecOptions | None = None,
    on_fallback=None,
):
    """Compiled counterpart of :func:`repro.constructors.construct`:
    :func:`compile_application`, then one run from empty."""
    program = compile_application(
        db, application, replan_drift, options=options, on_fallback=on_fallback
    )
    stats = FixpointStats()
    values = {
        key: frozenset(rows) for key, rows in program.run(max_iterations, stats).items()
    }
    system = program.system
    return ConstructionResult(
        rows=values[system.root],
        result_type=system.apps[system.root].result_type,
        stats=stats,
        system=system,
        values=values,
    )
