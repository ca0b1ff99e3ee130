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

:func:`compile_application` is the one way from a constructor
application to its program (instantiate → positivity →
:func:`compile_fixpoint`): the statement compiler
(:func:`~repro.compiler.levels.compile_statement`, i.e. the session
front door), :func:`construct_compiled` and fixpoint subscriptions all
come through it.  A non-positive system is a
:class:`~repro.errors.PositivityError` (section 3.3); a positive one
whose fixpoint variables occur outside binding ranges is a
:class:`~repro.errors.TranslationError` — outside the compilable
fragment, which the statement compiler answers with the interpreted
engine (observably: DBPL901) and subscriptions refuse.

The default ``executor="batch"`` runs the **columnar** pipelines: each
iteration's delta sets are hashed once per execution context and probed
through C-level column kernels, residual quantifiers are checked once
per distinct binding (grouped index probes), and the differential
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

from dataclasses import dataclass, field

from ..calculus import ast
from ..constructors.api import ConstructionResult
from ..constructors.engines import (
    FixpointStats,
    _branch_apply_positions,
    _differential_branches,
    _variant_token,
    seminaive_eligible,
)
from ..constructors.instantiate import (
    AppKey,
    InstantiatedSystem,
    base_relation_names,
    instantiate,
)
from ..constructors.positivity import is_system_positive
from ..errors import ConvergenceError, PositivityError, TranslationError
from ..relational import Database, DeltaStats
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


@dataclass
class CompiledFixpoint:
    """The compiled fixpoint program for one instantiated system."""

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
    #: run()/resume() reports each kind once, however many iterations
    #: and branches degraded.
    on_fallback: object | None = None
    #: Drift factor that triggers a re-plan; None disables re-planning.
    replan_drift: float | None = REPLAN_DRIFT
    #: How many times run() swapped in re-optimized differential plans.
    replans: int = 0
    plan_stats: PlanStats = field(default_factory=PlanStats)
    #: Incremental statistics over the accumulated value of each fixpoint
    #: variable, absorbed delta by delta during run().
    delta_stats: dict[AppKey, DeltaStats] = field(default_factory=dict)
    #: The semi-naive ``produced - known`` operators, one per fixpoint
    #: variable; their actual counts are the fresh tuples per variable.
    delta_ops: dict[AppKey, DeltaApply] = field(default_factory=dict)

    def explain(self) -> str:
        lines = []
        if self.replan_drift is not None:
            lines.append(
                f"replans: {self.replans} (drift threshold "
                f"{self.replan_drift:g}x)"
            )
        else:
            lines.append(f"replans: {self.replans} (re-planning disabled)")
        for key in self.system.apps:
            lines.append(f"== {key.describe()} ==")
            tracked = self.delta_stats.get(key)
            if tracked is not None:
                lines.append(f"value stats: {tracked.describe()}")
            lines.append("base:")
            lines.append(self.base_plans[key].explain())
            lines.append("differential:")
            lines.append(self.diff_plans[key].explain())
            delta_op = self.delta_ops.get(key)
            if delta_op is not None and delta_op.executions:
                lines.append(delta_op.explain_line())
        return "\n".join(lines)

    # -- mid-fixpoint re-optimization ---------------------------------------

    def _max_drift(self, values: dict, deltas: dict) -> float:
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
                (_variant_token(key, "new"), len(values[key])),
            )
            for token, observed in comparisons:
                estimated = self.diff_estimates.get(token)
                if estimated is None:
                    continue
                obs = max(1.0, float(observed))
                est = max(1.0, float(estimated))
                worst = max(worst, obs / est)
        return worst

    def _replan(self, values: dict, deltas: dict) -> None:
        """Re-enumerate differential join orders with live cardinalities.

        Besides the observed sizes, the live per-column statistics
        absorbed so far (distinct counts, histograms over the value
        accumulated by :attr:`delta_stats`) are threaded into the cost
        model, replacing the sqrt-distinct heuristic for fixpoint
        variables with measured selectivities.
        """
        estimates = dict(self.diff_estimates)
        for key in self.system.apps:
            full = max(1.0, float(len(values[key])))
            delta = max(1.0, float(len(deltas[key])))
            estimates[key] = full
            estimates[_variant_token(key, "new")] = full
            estimates[_variant_token(key, "old")] = full
            estimates[_variant_token(key, "delta")] = delta
        live_tables = {
            key: tracked.table
            for key, tracked in self.delta_stats.items()
            if tracked.table.row_count > 0
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

    def _context(self, note, apply_values=None) -> ExecutionContext:
        ctx = ExecutionContext(
            self.db, apply_values=apply_values, stats=self.plan_stats
        )
        ctx.shard_config = self.shard_config
        ctx.on_fallback = note
        return ctx

    def _note_once(self):
        """:attr:`on_fallback` narrowed to one report per kind."""
        hook = self.on_fallback
        if hook is None:
            return None
        seen: set = set()

        def note(kind: str, detail: str) -> None:
            if kind not in seen:
                seen.add(kind)
                hook(kind, detail)

        return note

    def run(
        self, max_iterations: int = 100_000, stats: FixpointStats | None = None
    ) -> dict[AppKey, frozenset]:
        stats = stats if stats is not None else FixpointStats()
        stats.mode = "compiled-seminaive"
        system = self.system

        self.delta_stats = {
            key: DeltaStats(len(app.element_type.attribute_names))
            for key, app in system.apps.items()
        }
        self.delta_ops = {
            key: DeltaApply(key.describe()) for key in system.apps
        }
        note = self._note_once()
        ctx = self._context(note)
        values: dict[AppKey, set] = {
            key: self.base_plans[key].execute(ctx, executor=self.executor)
            for key in system.apps
        }
        deltas: dict[AppKey, set] = {
            key: self.delta_ops[key].apply(values[key], frozenset())
            for key in system.apps
        }
        for key, delta in deltas.items():
            self.delta_stats[key].absorb(delta)
        stats.iterations = 1
        stats.tuples_derived = sum(len(d) for d in deltas.values())
        stats.peak_delta = stats.tuples_derived
        return self._converge(values, deltas, max_iterations, stats, note)

    def resume(
        self,
        values: dict[AppKey, set],
        deltas: dict[AppKey, set],
        max_iterations: int = 100_000,
        stats: FixpointStats | None = None,
    ) -> dict[AppKey, frozenset]:
        """Continue semi-naive iteration from mid-stream state.

        ``values`` is a consistent partial model (every row derivable and
        already propagated except through ``deltas``); ``deltas`` are the
        not-yet-propagated fresh rows per fixpoint variable.  Used by
        incremental view maintenance: after an insert-only base-relation
        change, the subscription seeds deltas from the differential of
        the changed relation and resumes here instead of re-running the
        whole fixpoint — sound for the positive (monotone) systems the
        compiled engine accepts, because every old row stays derivable
        and seeded deltas cover all new one-step derivations.
        """
        stats = stats if stats is not None else FixpointStats()
        stats.mode = "compiled-seminaive-resume"
        system = self.system
        self.delta_stats = {
            key: DeltaStats(len(app.element_type.attribute_names))
            for key, app in system.apps.items()
        }
        self.delta_ops = {
            key: DeltaApply(key.describe()) for key in system.apps
        }
        for key in system.apps:
            # Prime the live statistics with the accumulated value so a
            # mid-resume re-plan prices fixpoint variables from real
            # distributions, exactly as a full run would have.
            self.delta_stats[key].absorb(values[key])
        stats.iterations = 1
        stats.tuples_derived = sum(len(d) for d in deltas.values())
        stats.peak_delta = stats.tuples_derived
        return self._converge(
            values, deltas, max_iterations, stats, self._note_once()
        )

    def _converge(
        self,
        values: dict[AppKey, set],
        deltas: dict[AppKey, set],
        max_iterations: int,
        stats: FixpointStats,
        note,
    ) -> dict[AppKey, frozenset]:
        """Drive ``(values, deltas)`` to the least fixpoint (shared tail
        of :meth:`run` and :meth:`resume`)."""
        system = self.system
        executor = self.executor
        replans_before = self.replans

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
            apply_values: dict[object, set] = {}
            for key in system.apps:
                apply_values[_variant_token(key, "new")] = values[key]
                apply_values[_variant_token(key, "delta")] = deltas[key]
                old_token = _variant_token(key, "old")
                if old_token in old_tokens_used:
                    apply_values[old_token] = values[key] - deltas[key]
            ctx = self._context(note, apply_values)
            new_deltas: dict[AppKey, set] = {}
            for key in system.apps:
                produced = self.diff_plans[key].execute(ctx, executor=executor)
                new_deltas[key] = self.delta_ops[key].apply(produced, values[key])
            for key in system.apps:
                values[key] |= new_deltas[key]
                self.delta_stats[key].absorb(new_deltas[key])
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
                and self._max_drift(values, deltas) > self.replan_drift
            ):
                self._replan(values, deltas)

        frozen = {key: frozenset(rows) for key, rows in values.items()}
        stats.final_sizes = {k.describe(): len(v) for k, v in frozen.items()}
        stats.replans += self.replans - replans_before
        self.plan_stats.iterations = stats.iterations
        # Stats hook: remember the converged sizes (with exact per-column
        # distinct counts and histograms from the absorbed deltas) so later
        # compilations of the same application start from measured
        # cardinalities.  Observations are scoped to the base relations the
        # system actually reads: only their mutations invalidate them.
        catalog = getattr(self.db, "stats", None)
        if catalog is not None:
            read_relations = base_relation_names(self.db, system)
            for key, rows in frozen.items():
                tracked = self.delta_stats[key].table
                distinct = tuple(c.distinct for c in tracked.columns)
                catalog.record_fixpoint(
                    key,
                    len(rows),
                    distinct,
                    relations=read_relations,
                    table=tracked,
                )
        return frozen


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
    """Compile base and differential plans for every equation.

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
    if not seminaive_eligible(system):
        raise TranslationError(
            "outside the compilable fragment: a fixpoint variable occurs "
            "outside a binding range"
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
            positions = _branch_apply_positions(branch)
            assert positions is not None
            if positions:
                diff_branches.extend(_differential_branches(branch, positions))
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

    The one copy of instantiate → positivity → :func:`compile_fixpoint`
    (the statement compiler, :func:`construct_compiled` and fixpoint
    subscriptions all come through here): a non-positive system is the
    section 3.3 rejection (:class:`PositivityError`), a positive one
    outside the compilable fragment a :class:`TranslationError`.
    ``on_fallback`` is installed as the program's
    :attr:`CompiledFixpoint.on_fallback` hook.
    """
    system = instantiate(db, application)
    if not is_system_positive(system):
        raise PositivityError(
            f"instantiated system for {system.root.describe()} is not positive"
        )
    program = compile_fixpoint(db, system, replan_drift, options=options)
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
    values = program.run(max_iterations, stats)
    system = program.system
    return ConstructionResult(
        rows=values[system.root],
        result_type=system.apps[system.root].result_type,
        stats=stats,
        system=system,
        values=values,
    )
