"""The sharded parallel executor backend (``executor="sharded"``).

Partitioned execution of the columnar operator pipelines of
:mod:`repro.compiler.operators` across a ``concurrent.futures`` worker
pool.  The backend plugs into the :mod:`repro.compiler.executors`
registry, so every entry point — ``compile_query``, the fixpoint driver,
``compile_statement`` and so a compiled Datalog goal — inherits it by
passing ``options=ExecOptions(executor="sharded")``.

How a branch is sharded
-----------------------

The leading step's input rows — read once, the way the step's own
access path reads them, so a cold store-backed lead is pruned and
projected by the same pushed-down scan as under any other backend — are
split into ``k`` shards and the *whole* lowered pipeline runs once per
shard, each worker under its own :class:`~.plans.ExecutionContext`
(private operation counters, pushdown memos and residual group sets; the
residual sub-plans' counts come back with the shard's) over the
context's ``db`` — a snapshot read's pinned database stays in force —
with a per-shard **source override map**: the leading source answers with
the shard's rows, and — when the first downstream hash join keys purely
on the leading variable — lead rows are hashed on that key and the
join's *build side* is hash-partitioned on the same key, so each worker
builds an index over ``rows/k`` build rows instead of all of them
(without such a join the lead rows are simply dealt).
Stored relations answer build-side partitions from
:meth:`~repro.relational.relation.Relation.partitions` (version-cached
shard views, at the pinned head under a snapshot); fixpoint variables
are partitioned once per iteration, so each iteration's delta is split
exactly once and every shard probes its own slice.  Every other step
sees its full source, which keeps the decomposition correct for
arbitrary downstream joins, filters, and residual predicates: each
output tuple derives from exactly one leading row, hence from exactly
one shard.

Shard outputs are merged with a **dedup-aware union**: the per-shard
result batches (which may repeat tuples *across* shards) are unioned
into one set before the owning plan's Dedup/DeltaApply sees them, so
``explain()`` reports per-shard produced counts *and* the merged
distinct count without double-counting — and the fixpoint driver's
semi-naive ``produced - known`` subtraction stays deterministic across
mid-fixpoint re-plans (the merged set is order-independent).

Partition count and pools
-------------------------

The partition count comes from the leading source's table statistics
(:class:`~repro.relational.stats.TableStats` row counts — the same
numbers ``db.stats`` feeds the planner), clamped to the configured
worker count, which falls back to ``os.cpu_count()``.  Small inputs
(``min_rows``) run unsharded through the plain columnar backend.
Workers run in threads by default (zero setup cost; C-level kernels
still interleave under the GIL) — a fork-based **process pool** is the
opt-in knob for true multi-core scaling (:class:`ShardConfig.pool`
``= "process"``), falling back to threads where ``fork`` is
unavailable.

The configuration is per execution (``ExecOptions.shard_config``);
:data:`DEFAULT_CONFIG` is what a context without one gets.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from ..calculus.analysis import free_tuple_vars
from ..errors import DBPLError
from ..relational.indexes import ShardView, partition_views
from .executors import BatchBackend, register_backend
from .operators import run_pipeline
from .plans import ExecutionContext, _compile_value


@dataclass(frozen=True)
class ShardConfig:
    """Tuning knobs of the sharded backend.

    ``workers=None`` falls back to ``os.cpu_count()``.  ``pool`` selects
    the worker pool: ``"thread"`` (default) or ``"process"`` (fork-based
    — the multi-core option; runs on threads, reported as DBPL902, where
    fork is unavailable); any other value is a ``ValueError``.  Branches
    whose leading source holds fewer than ``min_rows`` rows run
    unsharded; above that, one shard is created per ``rows_per_shard``
    leading rows, clamped to the worker count.
    """

    workers: int | None = None
    pool: str = "thread"
    min_rows: int = 4096
    rows_per_shard: int = 2048

    def __post_init__(self) -> None:
        if self.pool not in ("thread", "process"):
            raise ValueError(
                f"pool must be 'thread' or 'process', got {self.pool!r}"
            )

    def effective_workers(self) -> int:
        return self.workers if self.workers else (os.cpu_count() or 1)


#: The module default, used when the execution context carries no
#: ``shard_config`` of its own.
DEFAULT_CONFIG = ShardConfig()


def shard_count(n_rows: float, config: ShardConfig) -> int:
    """How many shards a leading input of ``n_rows`` rows gets."""
    workers = config.effective_workers()
    if workers <= 1 or n_rows < max(config.min_rows, 2):
        return 1
    per_shard = max(1, config.rows_per_shard)
    wanted = -(-int(n_rows) // per_shard)  # ceil division
    return max(1, min(workers, wanted))


class ShardReport:
    """Per-branch shard accounting, surfaced by ``explain()``.

    ``produced`` are the per-shard batch sizes of the most recent
    execution (duplicates included — what each worker handed back);
    ``merged_total`` accumulates the *distinct* union size per
    execution, so the reported merged actuals never double-count a
    tuple two shards both produced.
    """

    __slots__ = (
        "k",
        "produced",
        "produced_total",
        "merged_total",
        "executions",
        "notes",
    )

    def __init__(self) -> None:
        self.k = 0
        self.produced: tuple[int, ...] = ()
        self.produced_total = 0
        self.merged_total = 0
        self.executions = 0
        #: Degradation tags ("pool=threads") — the explain() face of the
        #: ``note_fallback`` counters, so a downgraded execution is
        #: visible in the plan report.
        self.notes: tuple[str, ...] = ()

    def record(self, produced_counts, merged: int) -> None:
        self.k = len(produced_counts)
        self.produced = tuple(produced_counts)
        self.produced_total += sum(produced_counts)
        self.merged_total += merged
        self.executions += 1

    def note(self, tag: str) -> None:
        if tag not in self.notes:
            self.notes = (*self.notes, tag)

    def explain_line(self) -> str:
        per = self.executions or 1
        line = (
            f"SHARDS k={self.k} produced={list(self.produced)} "
            f"[produced={self.produced_total / per:.1f} "
            f"merged={self.merged_total / per:.1f}]"
        )
        if self.notes:
            line += f" notes=[{' '.join(self.notes)}]"
        return line


# ---------------------------------------------------------------------------
# Shard planning: pick the partition key and build the override maps
# ---------------------------------------------------------------------------


def _alignment(branch):
    """The first downstream hash join keyed purely on the leading variable.

    Returns ``(step, key_value_fns)`` — the step whose build side can be
    partitioned compatibly with the leading rows, and one compiled value
    extractor per key term (evaluated against ``{lead_var: row}``) — or
    None when no such join exists (the lead rows are then dealt).
    """
    steps = branch.steps
    lead_var = steps[0].var
    for step in steps[1:]:
        if not step.key_positions:
            continue
        if not any(free_tuple_vars(term) for term in step.key_terms):
            continue  # constant-key lookup: nothing to align
        if not all(free_tuple_vars(term) <= {lead_var} for term in step.key_terms):
            break  # first real join reads later bindings: no alignment
        fns = [
            _compile_value(term, branch.schemas, branch.params)
            for term in step.key_terms
        ]
        if any(fn is None for fn in fns):
            break
        return step, fns
    return None


def _partition_leading(rows, lead_var: str, align, k: int):
    """Split the leading rows into ``k`` disjoint lists.

    With an aligned join the split key is the join key computed from
    each leading row (so probe rows land with their build partition);
    without one no build side has to land with its probe rows, any
    disjoint cover is a correct sharding, and the rows are simply dealt.
    """
    if align is None:
        rows = rows if isinstance(rows, list) else list(rows)
        return [rows[i::k] for i in range(k)]
    shards: list[list] = [[] for _ in range(k)]
    _step, fns = align
    env: dict = {}
    if len(fns) == 1:
        fn = fns[0]
        for row in rows:
            env[lead_var] = row
            shards[hash(fn(env)) % k].append(row)
    else:
        for row in rows:
            env[lead_var] = row
            shards[hash(tuple(fn(env) for fn in fns)) % k].append(row)
    return shards


def _build_partitions(ctx: ExecutionContext, step, k: int):
    """Shard views of an aligned join's build side: version-cached for
    stored relations, computed per execution for fixpoint deltas."""
    source = step.source
    if source.kind == "relation":
        relation = ctx.db.relation(source.name)
        attrs = tuple(
            relation.element_type.attribute_names[i] for i in step.key_positions
        )
        return relation.partitions(attrs, k)
    rows, _provider = source.rows_and_indexable(ctx)
    return partition_views(rows, step.key_positions, k)


def _prewarm(branch, pipeline, ctx: ExecutionContext, skip_sources) -> None:
    """Build shared relation indexes in the calling thread before fan-out.

    Worker threads would otherwise race to lazily build the same
    relation index; the races are benign (every build sees the same
    immutable rows) but wasteful, so the structures that live on the
    :class:`~repro.relational.relation.Relation` itself — its
    version-cached indexes and ``raw_list`` — are materialized once up
    front.  Only relation sources warm: apply/computed sources
    cache their indexes on the *execution context*, and every shard
    worker runs under its own context, so warming them here would build
    an index no worker ever sees.  Sources in ``skip_sources`` are
    overridden per shard and need no shared index.
    """
    for step in branch.steps:
        if step.source.kind != "relation" or id(step.source) in skip_sources:
            continue
        _rows, provider = step.source.rows_and_indexable(ctx)
        if step.key_positions:
            provider(step.key_positions)


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


def _sub_branches(pipeline):
    """``(branch, pipeline)`` of every residual sub-plan branch under
    ``pipeline``: a shard reports their counts by position in this list,
    which survives the process pool's pickling."""
    for op in pipeline.operators():
        for plan in getattr(getattr(op, "program", None), "plans", ()):
            for branch in plan.branches:
                sub = op.backend.pipeline_for(branch)
                yield branch, sub
                yield from _sub_branches(sub)


def _run_shard(pipeline, subs, db, params, apply_values, overrides):
    """Run one shard's pipeline under a private execution context.

    Returns ``(batch, step_counts, op_counts, stats, deferred)`` — the
    produced rows plus the per-step / per-operator actual counts, the
    shard's private :class:`~.plans.PlanStats` and the counts of the
    residual sub-plans it ran (keyed by position in ``subs``), merged
    serially by the caller so shared operator counters are never
    mutated from worker threads.
    """
    ctx = ExecutionContext(db, params, apply_values)
    ctx.source_overrides = overrides
    ctx.deferred = []
    batch, step_counts, op_counts = run_pipeline(pipeline, ctx)
    position = {id(branch): i for i, (branch, _sub) in reversed(list(enumerate(subs)))}
    deferred = [(position[id(branch)], *counts) for branch, _sub, *counts in ctx.deferred]
    return batch, step_counts, op_counts, ctx.stats, deferred


#: Fork-inherited task table for the per-call process pool (set
#: pre-fork, read by workers through :func:`_fork_call`; only shard
#: indexes cross the pipe).  Guarded by :data:`_FORK_LOCK` across the
#: whole set → fork → map → reset window, so two concurrent
#: process-pool executions can never fork against each other's task
#: table.  Columnar pipelines (generated closures, database handles)
#: cannot pickle, so they must inherit state at fork time — which is
#: why this path pays pool setup per call.
_FORK_TASKS = None
_FORK_LOCK = threading.Lock()


def _fork_call(i: int):
    return _FORK_TASKS[i]()


_THREAD_POOLS: dict[int, ThreadPoolExecutor] = {}


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    pool = _THREAD_POOLS.get(workers)
    if pool is None:
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )
        _THREAD_POOLS[workers] = pool
    return pool


def _run_tasks(tasks, config: ShardConfig, ctx: ExecutionContext | None = None):
    """Run shard tasks on the configured pool, preserving task order.

    A requested process pool that cannot fork degrades to threads — but
    never silently: the degradation is reported through the context's
    ``note_fallback`` hook (surfaced as a counter and a DBPL hint by the
    serving layer) on every affected execution.
    """
    workers = min(config.effective_workers(), len(tasks))
    if config.pool == "process" and len(tasks) > 1:
        if hasattr(os, "fork"):
            import multiprocessing

            global _FORK_TASKS
            with _FORK_LOCK:
                _FORK_TASKS = tasks
                try:
                    fork = multiprocessing.get_context("fork")
                    with fork.Pool(processes=workers) as pool:
                        return pool.map(_fork_call, range(len(tasks)))
                finally:
                    _FORK_TASKS = None
        elif ctx is not None:
            ctx.note_fallback(
                "process_pool",
                "ShardConfig(pool='process') ran shards on threads: "
                "fork is unavailable on this platform",
            )
    if workers <= 1:
        return [task() for task in tasks]
    return list(_thread_pool(workers).map(lambda task: task(), tasks))


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ShardedBackend(BatchBackend):
    """Partitioned parallel execution of the columnar pipelines.

    Runs the plain (unsharded) batch path when the leading input is
    below the sharding threshold, or when only one shard would be
    created.
    """

    name = "sharded"

    def execute_branch(self, branch, ctx, out: set, dedup) -> None:
        config = ctx.shard_config or DEFAULT_CONFIG
        pipeline = self.pipeline_for(branch, ctx)
        shard_overrides = self._plan_shards(branch, ctx, config)
        if shard_overrides is None:
            self.run_on(branch, ctx, pipeline, out, dedup)
            return
        _prewarm(branch, pipeline, ctx, skip_sources=set(shard_overrides[0]))
        subs = list(_sub_branches(pipeline))
        tasks = [
            partial(_run_shard, pipeline, subs, ctx.db, ctx.params, ctx.apply_values, overrides)
            for overrides in shard_overrides
        ]
        results = _run_tasks(tasks, config, ctx)
        self._merge(branch, pipeline, subs, ctx, results, out, dedup)
        if config.pool == "process" and not hasattr(os, "fork"):
            branch.shards.note("pool=threads")

    # -- planning ------------------------------------------------------------

    def _plan_shards(self, branch, ctx, config: ShardConfig):
        """Per-shard source-override maps, or None (run unsharded).

        A keyless lead is read through ``Source.scan_rows`` with the
        step's pushdown: a cold store-backed lead hands over its pruned,
        projected rows and stays cold; with nothing to push it
        materializes the relation exactly as ``batch``'s scan of it does
        (the partition-file planner deleted in PR 19 was the one place
        that did not).  A keyed lead reads ``rows_and_indexable``.
        """
        steps = branch.steps
        if not steps:
            return None
        lead = steps[0]
        source = lead.source
        try:
            # A relation is sized by the stats layer before it is read (an
            # unsharded run reads nothing twice); anything else by its rows.
            stored = source.kind == "relation"
            n = ctx.db.relation(source.name).stats().row_count if stored else 0
            if n and shard_count(n, config) <= 1:
                return None
            if lead.key_positions:
                rows = source.rows_and_indexable(ctx)[0]
            else:
                rows = source.scan_rows(ctx, lead.pushdown)
        except DBPLError:
            # An unresolvable lead range (unknown name, unbound fixpoint
            # variable, ...): run unsharded and let execution surface it.
            return None
        k = shard_count(n or len(rows), config)
        if k <= 1:
            return None
        align = _alignment(branch)
        lead_parts = _partition_leading(rows, lead.var, align, k)
        build_views = None
        if align is not None:
            build_views = _build_partitions(ctx, align[0], k)
        # A keyed lead's local indexes take the form the lowering chose.
        key = ctx.db.relation(source.name).key if stored else None
        overrides: list[dict[int, ShardView]] = []
        for i in range(k):
            per_shard = {id(source): ShardView(lead_parts[i], key)}
            if build_views is not None:
                per_shard[id(align[0].source)] = build_views[i]
            overrides.append(per_shard)
        return overrides

    # -- merging -------------------------------------------------------------

    def _merge(self, branch, pipeline, subs, ctx, results, out: set, dedup) -> None:
        produced: set = set()
        produced_counts: list[int] = []
        for batch, _steps, _ops, shard_stats, deferred in results:
            produced.update(batch)
            produced_counts.append(len(batch))
            ctx.stats.add(shard_stats)
            for i, *counts in deferred:
                sub_branch, sub_pipeline = subs[i]
                sub_branch.tally(sub_pipeline, *counts)
        step_counts = [sum(c) for c in zip(*(r[1] for r in results))]
        op_counts = [sum(c) for c in zip(*(r[2] for r in results))]
        branch.tally(pipeline, step_counts, op_counts, sum(produced_counts))
        if branch.shards is None:
            branch.shards = ShardReport()
        branch.shards.record(produced_counts, len(produced))
        dedup.absorb(produced, out)


register_backend(ShardedBackend())
