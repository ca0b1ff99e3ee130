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
:class:`HeldValue` (an append-only row log, its membership set, hash
indexes grown the way :meth:`~repro.relational.Relation._view` grows a
relation's, and its statistics), stamped with the ``(version, log, n)``
head of every base relation it is the least fixpoint over.  Plans run
against the database pinned at those heads (``db.snapshot(bases)``), so
the stamp is exact even while writers commit.
:meth:`CompiledFixpoint.advance` brings the value up to the live state
or a caller's snapshot — an unchanged stamp is a *hit* and runs no
plan; base relations that were only appended to seed deltas from their
log suffixes through the occurrence-split differential of every
equation w.r.t. each changed relation, and :meth:`CompiledFixpoint.resume`
continues semi-naive iteration from the held value (sound because every
compiled system is positive: old rows stay derivable, the seeds cover
every new one-step derivation, values are sets); anything else — a
replaced log (delete, assign, cold materialization), an older snapshot
— runs from empty.  That is the one resume path: the statement
compiler's runtime level and both subscription kinds call it.
:meth:`CompiledFixpoint.run` keeps its run-from-empty meaning.

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
the executor is preserved across mid-fixpoint re-plans.

Differential plans are additionally **re-optimized mid-fixpoint**: the
delta cardinalities a plan was priced with are compared against the
deltas actually observed after every iteration, and once they drift
beyond :data:`REPLAN_DRIFT` (in either direction) the join orders are
re-enumerated with the live numbers and the new plans swapped in.  The
``replans`` counter is surfaced by :meth:`CompiledFixpoint.explain` and
:class:`~repro.constructors.engines.FixpointStats`; benchmark E15
measures what a re-plan saves on delta-drifting workloads.
"""

from __future__ import annotations

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
from ..relational import Database, DeltaStats, HashIndex
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

#: Re-optimize the differential plans once an observed delta (or full
#: value) cardinality drifts beyond this factor — in either direction —
#: from the estimate the current plans were priced with.
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


# ---------------------------------------------------------------------------
# Held values
# ---------------------------------------------------------------------------


class HeldValue(set):
    """The value of one fixpoint variable, held between executions.

    A set of rows — what plans scan, what the semi-naive ``produced -
    known`` tests against, what a reader copies — over an append-only
    ``log`` of the same rows in derivation order.  Hash indexes follow
    :meth:`~repro.relational.Relation._view`'s rule: an index built at
    the current log length is a hit, an older one is extended by the
    rows appended since (:meth:`HashIndex.extended`), so probing a value
    that grew by a resume costs the growth, not a rebuild.  ``stats``
    are the value's statistics, absorbed delta by delta.  Only
    :meth:`absorb` grows it; a run from empty starts a new one.
    """

    __slots__ = ("log", "stats", "_indexes")

    def __init__(self, arity: int) -> None:
        super().__init__()
        self.log: list[tuple] = []
        self.stats = DeltaStats(arity)
        #: positions -> (log length it covers, index)
        self._indexes: dict[tuple[int, ...], tuple[int, HashIndex]] = {}

    def absorb(self, fresh: set) -> None:
        """Add ``fresh`` — rows not in the value yet."""
        self.update(fresh)
        self.log.extend(fresh)
        self.stats.absorb(fresh)

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        n = len(self.log)
        held = self._indexes.get(positions)
        if held is None:
            index = HashIndex(positions, self.log)
        elif held[0] == n:
            return held[1]
        else:
            index = held[1].extended(self.log[held[0] :])
        self._indexes[positions] = (n, index)
        return index


@dataclass
class CompiledFixpoint:
    """The compiled fixpoint program for one instantiated system, and
    the value it last converged to."""

    db: Database
    system: InstantiatedSystem
    base_plans: dict[AppKey, QueryPlan]
    diff_plans: dict[AppKey, QueryPlan]
    #: The differential branch bodies, kept for mid-fixpoint re-planning.
    diff_branches: dict[AppKey, ast.Query] = field(default_factory=dict)
    #: The per-token cardinality estimates the current ``diff_plans``
    #: were priced with; drift is measured against these.
    diff_estimates: dict[object, float] = field(default_factory=dict)
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
    #: How many times run() swapped in re-optimized differential plans.
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
    #: Base relation name → seed plans per fixpoint variable, compiled on
    #: its first append; None when an equation reads it outside a
    #: binding range (its appends run from empty).
    seed_plans: dict[str, dict[AppKey, QueryPlan] | None] = field(default_factory=dict)
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
            lines.append(self.diff_plans[key].explain())
            delta_op = self.delta_ops.get(key)
            if delta_op is not None and delta_op.executions:
                lines.append(delta_op.explain_line())
        return "\n".join(lines)

    # -- mid-fixpoint re-optimization ---------------------------------------

    def _max_drift(self, deltas: dict) -> float:
        """Worst observed/estimated cardinality underestimate ratio.

        Only *under*estimates trigger a re-plan: deltas shrinking toward
        convergence is the normal life of a fixpoint, not drift, and
        re-planning on it would recompile every differential plan per
        iteration near the end for no possible order change.  The priced
        estimates are a ratchet — once a wave of deltas has exploded
        past them, the estimates follow it up and stay there.
        """
        worst = 1.0
        for key in self.system.apps:
            comparisons = (
                (_variant_token(key, "delta"), len(deltas[key])),
                (_variant_token(key, "new"), len(self.held[key])),
            )
            for token, observed in comparisons:
                estimated = self.diff_estimates.get(token)
                if estimated is None:
                    continue
                obs = max(1.0, float(observed))
                est = max(1.0, float(estimated))
                worst = max(worst, obs / est)
        return worst

    def _replan(self, deltas: dict) -> None:
        """Re-enumerate differential join orders with live cardinalities.

        Besides the observed sizes, the live per-column statistics
        absorbed so far (distinct counts, histograms over the held
        values) are threaded into the cost model, replacing the
        sqrt-distinct heuristic for fixpoint variables with measured
        selectivities.
        """
        estimates = dict(self.diff_estimates)
        for key in self.system.apps:
            full = max(1.0, float(len(self.held[key])))
            delta = max(1.0, float(len(deltas[key])))
            estimates[key] = full
            estimates[_variant_token(key, "new")] = full
            estimates[_variant_token(key, "old")] = full
            estimates[_variant_token(key, "delta")] = delta
        live_tables = {
            key: value.stats.table
            for key, value in self.held.items()
            if value.stats.table.row_count > 0
        }
        model = CostModel(self.db, estimates, apply_tables=live_tables)
        for key, query in self.diff_branches.items():
            # Re-lowered plans keep the driver's executor: columnar
            # pipelines (delta hash sides, fused projection) are rebuilt
            # against the re-enumerated join orders mid-fixpoint.
            self.diff_plans[key] = compile_query(
                self.db, query, cost_model=model,
                options=ExecOptions(optimizer=self.optimizer, executor=self.executor),
            )
        self.diff_estimates = estimates
        self.replans += 1

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
    def _advancing(self, pinned):
        """Around one run or resume: yields the fallback note; stamps the
        held values with the pinned heads on success and drops them on
        failure — a half-propagated value must never be resumed."""
        try:
            yield self._note_once()
        except BaseException:
            self.held, self.stamp = {}, {}
            raise
        self.stamp = self._heads(pinned)

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
        with self._advancing(pinned) as note:
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
            if fresh is None or self._seed_plans(name) is None:
                return None
            appended[name] = fresh
        return appended

    def _seed_plans(self, name: str) -> dict[AppKey, QueryPlan] | None:
        """The occurrence-split differential of every equation w.r.t.
        base relation ``name`` (compiled on first need)."""
        if name in self.seed_plans:
            return self.seed_plans[name]
        db = self.db
        schema = db.relation(name).element_type
        estimates = {
            _variant_token(key, "new"): float(max(1, len(value)))
            for key, value in self.held.items()
        }
        full = float(max(1, len(db.relation(name))))
        estimates[_ivm_token(name, "new")] = full
        estimates[_ivm_token(name, "old")] = full
        estimates[_ivm_token(name, "delta")] = max(1.0, full**0.5)
        model = CostModel(db, estimates)
        plans: dict[AppKey, QueryPlan] | None = {}
        for key, app in self.system.apps.items():
            variants = relation_differential(app.body, name, schema)
            if variants is None:
                plans = None
                break
            if variants:
                plans[key] = compile_query(
                    db,
                    ast.Query(tuple(variants)),
                    cost_model=model,
                    options=ExecOptions(optimizer=self.optimizer, executor=self.executor),
                )
        self.seed_plans[name] = plans
        return plans

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
        derivation seeded twice is absorbed once.  Only the seeded rows
        are absorbed into the held statistics.
        """
        stats = stats if stats is not None else FixpointStats()
        stats.mode = "compiled-seminaive-resume"
        with self._advancing(pinned) as note:
            produced: dict[AppKey, set] = {key: set() for key in self.system.apps}
            for name, fresh in appended.items():
                plans = self._seed_plans(name)
                apply_values: dict[object, object] = self._current()
                apply_values[_ivm_token(name, "delta")] = fresh
                # Later occurrences read the new state too: a superset of
                # the stamped one, so only derivations that hold now, and
                # a derivation found twice is absorbed once.
                apply_values[_ivm_token(name, "new")] = apply_values[
                    _ivm_token(name, "old")
                ] = pinned.relation(name).raw_list()
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
        replans_before = self.replans
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
            for qp in self.diff_plans.values()
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
                produced_rows = self.diff_plans[key].execute(ctx, executor=executor)
                new_deltas[key] = self.delta_ops[key].apply(produced_rows, held[key])
            for key, delta in new_deltas.items():
                held[key].absorb(delta)
            deltas = new_deltas
            stats.iterations += 1
            grown = sum(len(d) for d in deltas.values())
            stats.tuples_derived += grown
            stats.peak_delta = max(stats.peak_delta, grown)
            # Mid-fixpoint re-optimization: when the observed cardinalities
            # drift too far from what the current differential plans were
            # priced with, re-enumerate join orders with the live numbers.
            if (
                self.replan_drift is not None
                and any(deltas.values())
                and self._max_drift(deltas) > self.replan_drift
            ):
                self._replan(deltas)

        stats.final_sizes = {k.describe(): len(v) for k, v in held.items()}
        stats.replans += self.replans - replans_before
        self.plan_stats.iterations = stats.iterations
        # Stats hook: remember the converged sizes (with exact per-column
        # distinct counts and histograms from the absorbed deltas) so later
        # compilations of the same application start from measured
        # cardinalities.  Observations are scoped to the base relations the
        # system actually reads: only their mutations invalidate them.
        catalog = getattr(self.db, "stats", None)
        if catalog is not None:
            for key, value in held.items():
                tracked = value.stats.table
                distinct = tuple(c.distinct for c in tracked.columns)
                catalog.record_fixpoint(
                    key,
                    len(value),
                    distinct,
                    relations=self.bases,
                    table=tracked,
                )


def fixpoint_apply_estimates(
    db: Database, system: InstantiatedSystem
) -> dict[object, float]:
    """Cardinality estimates for every fixpoint-variable token.

    Full values ("new"/"old" variants and the plain key, as referenced by
    top plans) are priced from catalog observations of previous runs when
    available, and from total base size times an assumed growth factor
    otherwise.  Deltas are priced separately — and much smaller — which
    is what makes the cost model drive differential loop nests off the
    delta side.
    """
    catalog = getattr(db, "stats", None)
    base_total = sum(len(r) for r in db.relations.values()) or 8
    estimates: dict[object, float] = {}
    for key in system.apps:
        observed = catalog.constructed_estimate(key) if catalog is not None else None
        full = observed if observed is not None else base_total * CostModel.RECURSIVE_GROWTH
        delta = max(1.0, full ** 0.5)
        estimates[key] = full
        estimates[_variant_token(key, "new")] = full
        estimates[_variant_token(key, "old")] = full
        estimates[_variant_token(key, "delta")] = delta
    return estimates


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

    Base and differential variants are priced through separate cost
    models: base branches see only stored relations, while differential
    branches join against fixpoint variables whose (small) delta
    estimates come from :func:`fixpoint_apply_estimates`.  Those
    estimates are retained on the result so :meth:`CompiledFixpoint.run`
    can detect drift and re-optimize mid-fixpoint; ``replan_drift``
    tunes the trigger (None disables it).  Re-planning only makes sense
    for the cost-based optimizer — the legacy orders ignore estimates —
    so it is disabled for the others.

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
    estimates = fixpoint_apply_estimates(db, system)
    base_model = CostModel(db)
    diff_model = CostModel(db, estimates)
    base_plans: dict[AppKey, QueryPlan] = {}
    diff_plans: dict[AppKey, QueryPlan] = {}
    diff_queries: dict[AppKey, ast.Query] = {}
    for key, app in system.apps.items():
        base_branches: list[ast.Branch] = []
        diff_branches: list[ast.Branch] = []
        for branch in app.body.branches:
            positions = occurrence_positions(branch, is_fixpoint_variable)
            if positions is None:
                whole: ast.Branch = as_new(branch)  # type: ignore[assignment]
                base_branches.append(whole)
                diff_branches.append(whole)
            elif positions:
                diff_branches.extend(split_occurrences(branch, positions, variant))
            else:
                base_branches.append(branch)
        base_plans[key] = compile_query(
            db, ast.Query(tuple(base_branches)), cost_model=base_model,
            options=ExecOptions(optimizer=optimizer),
        )
        diff_queries[key] = ast.Query(tuple(diff_branches))
        diff_plans[key] = compile_query(
            db, diff_queries[key], cost_model=diff_model,
            options=ExecOptions(optimizer=optimizer),
        )
    if optimizer != "cost":
        replan_drift = None
    return CompiledFixpoint(
        db,
        system,
        base_plans,
        diff_plans,
        diff_branches=diff_queries,
        diff_estimates=estimates,
        optimizer=optimizer,
        executor=options.resolved_executor,
        shard_config=options.shard_config,
        replan_drift=replan_drift,
    )


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
