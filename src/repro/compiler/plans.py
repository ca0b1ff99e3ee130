"""Compiled query plans: the set-oriented execution engine of section 4.

The reference evaluator interprets ASTs tuple variable by tuple variable;
this module *compiles* a query instead, which is what the paper's query
compilation level produces for non-recursive (sub)queries and for the
branch bodies inside generated fixpoint programs:

* each branch becomes a :class:`BranchPlan` — an ordered loop nest whose
  steps use **hash-index lookups** whenever an equality conjunct links
  the step's variable to already-bound variables or constants, and scan
  otherwise;
* the loop-nest order and the index-vs-scan choice are made by a
  :class:`CostModel` over table statistics (cardinalities, distinct
  counts, index selectivities — see :mod:`repro.relational.stats`):
  exact dynamic programming over join orders for narrow branches,
  greedy cheapest-next for wide ones.  ``optimizer="syntactic"`` keeps
  the written binding order instead, so the benchmarks (E14) can
  measure what the statistics buy;
* equality conjuncts on constants and on bound variables are consumed by
  the access path and comparisons become filters; every remaining
  conjunct (quantifiers, memberships, ``OR``/``NOT``) is a *residual*,
  compiled as a query over its groups — the distinct tuples of what it
  reads — into generated tests and semi-join plans
  (:func:`compile_residual`);
* targets compile to positional extractors.

Executing a plan needs an :class:`ExecutionContext` carrying the
database, parameters, and the current fixpoint-variable values; the
context also owns per-execution hash indexes over those values and the
operation counters the benchmarks report (rows scanned, index lookups,
tuples emitted).  Every plan's :meth:`~BranchPlan.explain` reports the
optimizer's *estimated* row counts next to the *actual* counts observed
during execution, so estimation quality is testable.

Plans *execute* through the batched physical-operator pipelines of
:mod:`repro.compiler.operators`, dispatched by name through the
:mod:`repro.compiler.executors` backend registry.  Each backend names
one lowering function, and a :class:`BranchPlan` keeps what each
lowering produced in one memo (:meth:`BranchPlan.lowered`).  The
default (``executor="batch"``) lowers each branch into **columnar
struct-of-arrays** pipelines — aligned per-variable row slots expanded
by C-level kernels, residuals decided per group by their sub-plans, and
projection fused into the producing join or filter — cost-gated by the
:class:`CostModel`; ``executor="vector"`` lowers through the same step
walk onto dictionary-encoded id-space kernels.  ``executor="sharded"``
runs the columnar pipelines hash-partitioned across a worker pool
(:mod:`repro.compiler.sharded`, benchmark E18).  Every branch lowers
into a columnar pipeline; the tuple-at-a-time interpreter
(``executor="tuple"``) and ``executor="rowbatch"`` (the PR 3 row-major
batched pipelines) run only when asked for by name: they are the
oracle and the baselines benchmarks E16/E17 measure each layer against
on identical plans.  ``explain()`` shows the pipelines that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations, count

from ..calculus import ast
from ..calculus.analysis import free_tuple_vars
from ..calculus.evaluator import Evaluator
from ..calculus.pretty import render_pred, render_range, render_term
from ..calculus.rewrite import (
    conjoin, conjuncts, membership_existential, negation_normal_form, unnest_query,
)
from ..calculus.subst import FreshNames, bound_vars, substitute_free
from ..errors import DBPLError, EvaluationError, NameResolutionError, SchemaError
from ..relational import Database, HashIndex
from ..relational.indexes import covers_key
from ..types import ANY, Field, RecordType
from .executors import EXECUTOR_NAMES, get_backend
from .options import (
    DEFAULT_EXECUTOR,
    DEFAULT_OPTIMIZER,
    DEFAULT_OPTIONS,
    ExecOptions,
)
from .operators import (
    Dedup, GroupEvaluated, GroupLogic, GroupResidual, GroupSemiJoin, GroupTest, _ColGen,
    run_pipeline,
)

#: Join orders are enumerated exactly (Selinger-style subset DP) up to
#: this many bindings per branch; wider branches fall back to greedy
#: cheapest-next-step ordering.
DP_LIMIT = 6

#: The execution defaults live in :mod:`repro.compiler.options` (the
#: canonical knob surface); re-exported here for the many importers.

#: Every accepted executor mode (see :mod:`repro.compiler.executors`).
EXECUTORS = EXECUTOR_NAMES

@dataclass
class PlanStats:
    """Operation counters for compiled execution.

    ``residual_checks`` counts rows that reached a residual predicate;
    ``residual_groups`` the distinct groups (read-attribute tuples) the
    columnar residuals decided for them; ``residual_evals`` actual
    reference-evaluator invocations — one per row under the ``tuple``
    and ``rowbatch`` executors, and under the columnar ones only for the
    ranges no plan can bind (``GroupEvaluated``), once per group.
    """

    rows_scanned: int = 0
    index_lookups: int = 0
    residual_checks: int = 0
    residual_groups: int = 0
    residual_evals: int = 0
    tuples_emitted: int = 0
    iterations: int = 0

    def add(self, other: "PlanStats") -> None:
        """Add ``other``'s counters to these (a shard worker's, merged)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class ExecutionContext:
    """Everything a plan needs at run time."""

    def __init__(
        self,
        db: Database,
        params: dict[str, object] | None = None,
        apply_values: dict[object, set] | None = None,
        stats: PlanStats | None = None,
    ) -> None:
        self.db = db
        self.params = dict(params or {})
        self.apply_values = dict(apply_values or {})
        self.stats = stats if stats is not None else PlanStats()
        self._indexes: dict[tuple, tuple[object, HashIndex]] = {}
        #: Per-operator memos of build-side-filtered buckets — the
        #: cost-gated probe-pushdown cache of the columnar executor.
        #: Keyed by the HashJoin operator object itself (a recycled id
        #: must never inherit another operator's filter); values are
        #: (buckets, memo) pairs with the bucket dict held and
        #: identity-checked so a rebuilt index restarts the memo.
        self.pushed_buckets: dict[object, tuple[dict, dict]] = {}
        #: The sharded backend's per-shard partition map: Source id →
        #: :class:`~repro.relational.indexes.ShardView` (``rows`` +
        #: ``index_on(positions)``), read by generated pipelines in place
        #: of the source.  Nothing else overrides a source: a pinned read
        #: runs against a pinned ``db`` (a DatabaseSnapshot).
        self.source_overrides: dict[int, object] | None = None
        #: Per-execution-context cache of the vector kernels: encoded
        #: fixpoint-variable tables, dictionary translation arrays, and
        #: filter verdict tables (see repro.compiler.operators._encoded_table).
        self.vector_cache: dict = {}
        #: Sharded-executor tuning for plans run under this context
        #: (None → the module defaults of repro.compiler.sharded).
        self.shard_config = None
        #: Observable-fallback hook: callable(kind, detail) installed by
        #: the serving layer (see ``Session._note_fallback``) so silent
        #: executor degradations — process pool falling back to threads,
        #: ``vector`` running without numpy — surface as counters and
        #: DBPL9xx hints.
        self.on_fallback = None
        #: In a shard worker: the residual sub-plans' counts, as
        #: ``(branch, pipeline, *counts)``, tallied after the workers finish.
        self.deferred: list | None = None
        self._evaluator: Evaluator | None = None

    @property
    def evaluator(self) -> Evaluator:
        """The reference evaluator over this context's params and apply
        values, built on first use: only computed ranges and the residual
        shapes still interpreted read it.  Nothing writes ``params``, and
        the one apply-value write before a first use (a semi-join binding
        its group set) binds a token only that semi-join's sub-plan
        reads, so a late build sees what an eager one would."""
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = self._evaluator = Evaluator(self.db, self.params, self.apply_values)
        return evaluator

    def note_fallback(self, kind: str, detail: str) -> None:
        """Report a silent-degradation event to the installed hook."""
        hook = self.on_fallback
        if hook is not None:
            hook(kind, detail)

    def index_rows(self, token: object, rows, positions: tuple[int, ...]) -> HashIndex:
        """A hash index over a materialized row set: a fixpoint variable's
        value, a computed range, a residual's group set.

        A held fixpoint value (:class:`~repro.compiler.fixpoint.HeldValue`)
        answers with its own index, extended across executions.  Anything
        else is indexed once per execution, keyed by ``token`` (an apply
        token or a hashable range node) with ``rows`` held and
        identity-checked, so a freed row set can never hand its index to
        another one, and per-iteration fixpoint values rebuild cleanly.
        Stored relations do not come through here — their sources use
        the relation's version-aware index cache.
        """
        index_on = getattr(rows, "index_on", None)
        if index_on is not None:
            return index_on(positions)
        key = (token, positions)
        entry = self._indexes.get(key)
        if entry is None or entry[0] is not rows:
            entry = self._indexes[key] = (rows, HashIndex(positions, rows))
        return entry[1]


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPushdown:
    """What a scan may push down to a storage-backed relation's reader.

    ``projection`` — column positions the branch provably reads (None →
    all columns; derived conservatively from the branch AST, so any
    whole-row use or name shadowing keeps the full width).
    ``selection`` — symbolic ``(pos, op, spec)`` single-variable
    comparisons, with ``spec`` either ``("const", value)`` or
    ``("param", name)`` so prepared plans resolve per execution.

    Pushdown is advisory and idempotent: the compiled filters re-check
    every pushed predicate, and dead columns are only ever positions the
    plan never touches, so a reader is free to ignore any part of it.
    """

    projection: tuple | None = None
    selection: tuple = ()

    def describe(self) -> str:
        parts = []
        if self.projection is not None:
            parts.append(f"cols={list(self.projection)}")
        if self.selection:
            parts.append(f"preds={len(self.selection)}")
        return " ".join(parts)


@dataclass
class Source:
    """Where a loop step's rows come from."""

    kind: str  # "relation" | "apply" | "computed"
    name: str = ""
    token: object = None
    rexpr: ast.RangeExpr | None = None
    schema: RecordType | None = None
    #: A relation's declared key positions: they decide its index forms.
    key: tuple[int, ...] | None = None

    def rows_and_indexable(self, ctx: ExecutionContext):
        """Returns (rows, index_provider) where index_provider(positions)
        yields a HashIndex or None."""
        overrides = ctx.source_overrides
        if overrides is not None:
            view = overrides.get(id(self))
            if view is not None:
                return view.rows, view.index_on
        if self.kind == "relation":
            relation = ctx.db.relation(self.name)
            # raw_list(): a per-version cached list view — the columnar
            # kernels make several aligned passes over a scan's rows.
            return relation.raw_list(), lambda pos: relation.index_on(
                tuple(relation.element_type.attribute_names[i] for i in pos)
            )
        if self.kind == "apply":
            rows = ctx.apply_values.get(self.token)
            if rows is None:
                raise EvaluationError(f"unbound fixpoint variable {self.token!r}")
            return rows, lambda pos: ctx.index_rows(self.token, rows, pos)
        # "computed": selected ranges, inline queries — resolved through
        # the reference evaluator once per execution (they are static).
        value = ctx.evaluator.resolve_range(self.rexpr, {})
        rows = value.rows if isinstance(value.rows, (set, frozenset)) else set(value.rows)
        return rows, lambda pos: ctx.index_rows(self.rexpr, rows, pos)

    def scan_rows(self, ctx: ExecutionContext, pushdown=None):
        """Rows for a full-scan access path, honoring storage pushdown.

        Shard overrides win (their rows are already materialized and
        partitioned); then a cold, store-backed relation scans through
        its partition reader — decoding only the live columns of the
        partitions matching the pushed predicates — and everything else
        falls back to :meth:`rows_and_indexable`.
        """
        overrides = ctx.source_overrides
        if overrides is not None and overrides.get(id(self)) is not None:
            return overrides[id(self)].rows
        if pushdown is not None and self.kind == "relation":
            rows = ctx.db.relation(self.name).scan_pushdown(
                pushdown.projection, pushdown.selection, ctx.params
            )
            if rows is not None:
                return rows
        return self.rows_and_indexable(ctx)[0]

    def describe(self) -> str:
        if self.kind == "relation":
            return self.name
        if self.kind == "apply":
            return render_range(ast.ApplyVar(self.token, self.schema))
        return render_range(self.rexpr)


def _source_for(db: Database, rexpr: ast.RangeExpr, params: dict) -> Source:
    if isinstance(rexpr, ast.RelRef):
        name = rexpr.name
        if name in params or name in db:
            # Parameters bound to Relations are resolved at run time via
            # the computed path so rebinding works; plain relations scan.
            if name in db:
                rel = db[name]
                return Source("relation", name=name, schema=rel.element_type, key=rel.key)
        return Source("computed", rexpr=rexpr)
    if isinstance(rexpr, ast.ApplyVar):
        return Source("apply", token=rexpr.token, schema=rexpr.schema)
    return Source("computed", rexpr=rexpr)


def _variant(token: object) -> tuple[str | None, object]:
    """``(kind, key)`` of a semi-naive variant token ``("__seminaive__",
    kind, key)``; ``(None, token)`` for any other apply token."""
    if isinstance(token, tuple) and len(token) == 3 and token[0] == "__seminaive__":
        return token[1], token[2]
    return None, token


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


def held_value(db, key: object):
    """The value of application ``key`` that a program registered on
    ``db`` holds (:func:`~.fixpoint.held_program`), or None."""
    programs = getattr(db, "programs", None)
    if not programs:
        return None
    # The backing dict's items, copied in one step: another thread may
    # register or drop a program meanwhile.
    for (app, _), ref in list(programs.data.items()):
        program = ref()
        if program is not None and app == key:
            value = program.held.get(key)
            if value is not None:
                return value
    return None


class CostModel:
    """Prices loop-nest steps from table statistics.

    Cardinalities come straight from the live :class:`TableStats` of the
    relations involved (exact row counts, exact distinct-value counts);
    equality selectivity of an indexed key is read off an already-built
    hash index when one exists, and otherwise computed as the
    independence product of per-column ``1/distinct`` estimates.  Range
    comparisons against constants (``<``, ``<=``, ``>``, ``>=``) are
    priced from per-column **equi-depth histograms** instead of a blind
    constant; ``use_histograms=False`` restores the constant (for
    measuring what the histograms buy — see benchmark E15).  An apply
    source (a fixpoint variable, a bound row set) is priced from
    ``apply_estimates`` when it has one, else from the value a
    registered fixpoint program holds (:func:`held_value`: its size and
    its statistics view), else from the growth heuristic — and a delta
    at √ of the full value, small, which is what keeps deltas driving
    the differential loop nests.  ``held`` seeds the held-value memo: a
    re-plan (:class:`~.fixpoint.Differential`) prices its program's own
    values.
    """

    #: Rows assumed for a computed range nobody has statistics for.
    DEFAULT_COMPUTED_ROWS = 32.0
    #: Assumed output growth of a recursive application over its base.
    RECURSIVE_GROWTH = 4.0
    #: Cost charged once for building a hash index over a source.
    INDEX_BUILD_WEIGHT = 0.25
    #: Selectivity of a range comparison when no histogram is available
    #: (the classic System-R constant).
    DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
    #: Selectivity of ``<>`` when no statistics are available.
    DEFAULT_NEQ_SELECTIVITY = 0.9
    #: Selectivity of a membership (``t IN R``) nobody has statistics for.
    DEFAULT_MEMBERSHIP_SELECTIVITY = 0.25
    #: Assumed per-element probability that a quantifier body holds.
    QUANTIFIER_MATCH = 1.0 / 3.0

    def __init__(
        self,
        db: Database,
        apply_estimates: dict[object, float] | None = None,
        use_histograms: bool = True,
        held: dict | None = None,
    ) -> None:
        self.db = db
        self.apply_estimates = dict(apply_estimates or {})
        self.use_histograms = use_histograms
        #: key → :func:`held_value`, looked up once per model.
        self.held: dict = dict(held or {})

    # -- cardinalities -------------------------------------------------------

    def source_cardinality(self, source: Source) -> float:
        if source.kind == "relation":
            return float(len(self.db[source.name]))
        if source.kind == "apply":
            return self.apply_cardinality(source.token)
        return self.range_cardinality(source.rexpr)

    def apply_cardinality(self, token: object) -> float:
        if token in self.apply_estimates:
            return self.apply_estimates[token]
        kind, key = _variant(token)
        value = self.held_value(key)
        if value is None:
            base_total = sum(len(r) for r in self.db.relations.values()) or 8
            observed = base_total * self.RECURSIVE_GROWTH
        else:
            observed = float(len(value))
        if kind == "delta":
            # Deltas shrink toward convergence; sqrt of the full value is
            # a deliberately small estimate so deltas drive loop nests.
            return max(1.0, observed ** 0.5)
        return float(observed)

    def range_cardinality(self, rexpr: ast.RangeExpr | None, depth: int = 0) -> float:
        if isinstance(rexpr, ast.RelRef) and rexpr.name in self.db:
            return float(len(self.db[rexpr.name]))
        if isinstance(rexpr, ast.ApplyVar):
            return self.apply_cardinality(rexpr.token)
        if isinstance(rexpr, ast.Selected) and depth < 4:
            # A selector keeps a restricted subset of its base.
            return max(1.0, 0.5 * self.range_cardinality(rexpr.base, depth + 1))
        if isinstance(rexpr, ast.Constructed) and depth < 4:
            base = self.range_cardinality(rexpr.base, depth + 1)
            try:
                recursive = self.db.constructor(rexpr.constructor).is_recursive()
            except NameResolutionError:
                recursive = True  # unknown constructor: price pessimistically
            return max(1.0, base * (self.RECURSIVE_GROWTH if recursive else 2.0))
        return self.DEFAULT_COMPUTED_ROWS

    # -- selectivities -------------------------------------------------------

    def source_table(self, source: Source):
        """The :class:`TableStats` describing a source, when one exists.

        Relations answer with their live stats; fixpoint variables answer
        with the statistics view of their held value, which carries
        distinct counts *and* histograms for the constructed columns.
        """
        if source.kind == "relation":
            return self.db[source.name].stats()
        if source.kind == "apply":
            value = self.held_value(_variant(source.token)[1])
            if value is not None:
                return value.stats
        return None

    def held_value(self, key: object):
        """:func:`held_value` of ``key``, memoized for this model."""
        if key not in self.held:
            self.held[key] = held_value(self.db, key)
        return self.held[key]

    def key_selectivity(self, source: Source, positions: tuple[int, ...]) -> float:
        if not positions:
            return 1.0
        if source.kind == "relation":
            relation = self.db[source.name]
            index = relation.peek_index(positions)
            if index is not None:
                # Measured distincts, blended with the measured bucket
                # skew — the same uniform/heavy-value blend the stats
                # layer applies, so an already-built index and a cold
                # column price consistently (probes favour heavy keys).
                return (index.selectivity() + index.max_bucket_fraction()) / 2.0
            return relation.stats().key_selectivity(positions)
        table = self.source_table(source)
        if table is not None and table.row_count > 0:
            # Per-column selectivity fractions of the observed value
            # transfer to its deltas (same value domain).
            return table.key_selectivity(positions)
        # Unknown distribution: assume sqrt(N) distinct values per column.
        card = self.source_cardinality(source)
        if card <= 1:
            return 1.0
        sel = 1.0
        for _ in positions:
            sel *= 1.0 / max(1.0, card ** 0.5)
        return max(sel, 1.0 / card)

    def restriction_selectivity(
        self, source: Source, restrictions: tuple
    ) -> float:
        """Combined selectivity of single-variable comparison filters.

        ``restrictions`` are ``(pos, op, value)`` triples — range and
        inequality comparisons of one column against a constant, the
        conjuncts that previously ran as *unpriced* filters.  Histograms
        price the range operators; independence is assumed across
        conjuncts.
        """
        if not restrictions:
            return 1.0
        table = self.source_table(source)
        sel = 1.0
        for pos, op, value in restrictions:
            sel *= self._one_restriction(table, source, pos, op, value)
        return min(max(sel, 0.0), 1.0)

    def _one_restriction(self, table, source: Source, pos: int, op: str, value) -> float:
        if op == "=":
            if table is not None:
                return table.eq_selectivity(pos)
            card = self.source_cardinality(source)
            return 1.0 / max(1.0, card ** 0.5)
        fallback = (
            self.DEFAULT_NEQ_SELECTIVITY
            if op == "<>"
            else self.DEFAULT_RANGE_SELECTIVITY
        )
        if not self.use_histograms and op != "<>":
            return fallback
        if table is not None:
            estimated = table.range_selectivity(pos, op, value)
            if estimated is not None:
                return estimated
        return fallback

    # -- residual predicates -------------------------------------------------

    def predicate_selectivity(
        self, pred: ast.Pred, source: Source | None = None, schema=None
    ) -> float:
        """Selectivity of a residual predicate anchored on one binding.

        Memberships and quantifiers used to run as *un-priced* filters;
        this prices the common single-variable forms so the join order
        can exploit a restrictive membership the same way it exploits a
        histogram-priced range filter.  Anything unrecognized stays
        neutral (1.0).
        """
        if isinstance(pred, ast.Not):
            inner = self.predicate_selectivity(pred.pred, source, schema)
            if inner >= 1.0:
                return 1.0  # negation of an un-priced predicate stays neutral
            return min(max(1.0 - inner, 0.01), 1.0)
        if isinstance(pred, ast.InRel):
            return self._membership_selectivity(pred, source, schema)
        if isinstance(pred, (ast.Some, ast.All)):
            # Existential: one of n range elements matching suffices, so
            # big ranges are barely selective; universal: every element
            # must match, so big ranges are very selective.  The
            # per-element match probability is the System-R constant.
            n = min(self.range_cardinality(pred.range), 64.0)
            p = self.QUANTIFIER_MATCH
            if isinstance(pred, ast.Some):
                return min(max(1.0 - (1.0 - p) ** n, 0.05), 0.95)
            return min(max(p ** n, 0.01), 0.95)
        return 1.0

    def _membership_selectivity(
        self, pred: ast.InRel, source: Source | None, schema
    ) -> float:
        """``elem IN R``: containment says the matched fraction is the
        distinct values of ``R`` over the distinct values of ``elem``."""
        member_rows = self.range_cardinality(pred.range)
        element = pred.element
        if (
            isinstance(element, ast.AttrRef)
            and source is not None
            and schema is not None
        ):
            table = self.source_table(source)
            if table is not None and table.row_count > 0:
                try:
                    pos = schema.index_of(element.attr)
                except SchemaError:
                    pos = None
                if pos is not None:
                    distinct = table.distinct(pos)
                    if distinct > 0:
                        return min(1.0, member_rows / float(distinct))
        return self.DEFAULT_MEMBERSHIP_SELECTIVITY

    # -- step pricing --------------------------------------------------------

    def price_step(
        self,
        source: Source,
        key_positions: tuple[int, ...],
        restrictions: tuple = (),
        residual_sel: float = 1.0,
        invocations: float = 1.0,
        key_constants: tuple = (),
    ) -> "StepEstimate":
        """Price one loop step given the key positions usable as an index,
        the single-variable comparison filters that run at the step, the
        combined selectivity of priced residual predicates anchored on
        the step's variable (memberships, quantifiers), how many times
        the step runs (the rows bound before it), and the keys compared
        to a constant, as ``(pos, "=", value)`` triples."""
        card = self.source_cardinality(source)
        filter_sel = self.restriction_selectivity(source, restrictions) * residual_sel
        # A relation whose scans push down to its store (a cold one) reads
        # only the partitions its manifest cannot prune under the step's
        # restrictions and constant keys; any other scan reads every row,
        # so pricing is unchanged for every in-memory plan.
        store = self.db[source.name].scan_store if source.kind == "relation" else None
        scan_rows = card
        if store is not None and (restrictions or key_constants):
            scan_rows *= store.prune_fraction(restrictions + key_constants)
        scan_rows = max(scan_rows, 1.0)
        matched = card
        if key_positions:
            matched = card * self.key_selectivity(source, key_positions)
            # Cost-gated access path: an index pays off when a lookup is
            # expected to return strictly fewer rows than a full scan.
            build_cost = card * self.INDEX_BUILD_WEIGHT
            if store is not None:
                # The build reads and decodes the whole relation first,
                # so over the step's runs it must beat the pushed-down
                # scan, which reads only the partitions the bounds admit.
                build_cost += card
            if matched < card and (
                store is None
                or build_cost + invocations * (1.0 + matched) < invocations * scan_rows
            ):
                return StepEstimate(
                    source_rows=card,
                    out_rows=matched * filter_sel,
                    per_invocation=1.0 + matched,
                    build_cost=build_cost,
                    use_index=True,
                )
        # A key the scan declined still filters: its equalities run at
        # the step.
        return StepEstimate(
            source_rows=card,
            out_rows=matched * filter_sel,
            per_invocation=scan_rows,
            build_cost=0.0,
            use_index=False,
        )


@dataclass(frozen=True)
class StepEstimate:
    """The cost model's verdict on one candidate loop step."""

    source_rows: float
    out_rows: float
    per_invocation: float
    build_cost: float
    use_index: bool


# ---------------------------------------------------------------------------
# Terms compiled against an environment of raw rows
# ---------------------------------------------------------------------------


def _compile_value(term: ast.Term, schemas: dict[str, RecordType], params: dict):
    """term -> callable(env: dict[var, row]) -> value, or None if dynamic."""
    if isinstance(term, ast.Const):
        value = term.value
        return lambda env: value
    if isinstance(term, ast.ParamRef):
        name = term.name
        return lambda env: params[name]
    if isinstance(term, ast.AttrRef):
        schema = schemas.get(term.var)
        if schema is None:
            return None
        idx = schema.index_of(term.attr)
        var = term.var
        return lambda env: env[var][idx]
    if isinstance(term, ast.VarRef):
        if term.var not in schemas:
            return None
        var = term.var
        return lambda env: env[var]
    if isinstance(term, ast.Arith):
        left = _compile_value(term.left, schemas, params)
        right = _compile_value(term.right, schemas, params)
        if left is None or right is None:
            return None
        op = term.op
        if op == "+":
            return lambda env: left(env) + right(env)
        if op == "-":
            return lambda env: left(env) - right(env)
        if op == "*":
            return lambda env: left(env) * right(env)
        if op == "DIV":
            return lambda env: left(env) // right(env)
        if op == "MOD":
            return lambda env: left(env) % right(env)
    if isinstance(term, ast.TupleCons):
        items = [_compile_value(i, schemas, params) for i in term.items]
        if any(i is None for i in items):
            return None
        return lambda env: tuple(fn(env) for fn in items)
    return None


def _term_vars(term: ast.Term) -> set[str]:
    return free_tuple_vars(term)


#: Comparison operators a storage reader can evaluate row-wise, mapped to
#: their mirror image (for when the attribute is on the right).
_FLIPPED_OP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<=", "<>": "<>"}


def _scan_restriction_spec(conj: ast.Cmp, schemas: dict, params: dict):
    """``(var, pos, op, spec)`` when ``conj`` compares one attribute of a
    single binding variable against a constant/parameter expression, or
    None — the one normaliser for a reader-pushable comparison.

    *Symbolic*: the value side becomes ``("const", v)`` when it evaluates
    now, or ``("param", name)`` for a bare parameter slot — prepared
    plans rebind parameters per execution, so the reader must resolve
    the value at scan time, never here.
    """
    if conj.op not in _FLIPPED_OP:
        return None
    for attr_side, other, op in (
        (conj.left, conj.right, conj.op),
        (conj.right, conj.left, _FLIPPED_OP[conj.op]),
    ):
        if (
            isinstance(attr_side, ast.AttrRef)
            and attr_side.var in schemas
            and not _term_vars(other)
        ):
            pos = schemas[attr_side.var].index_of(attr_side.attr)
            if isinstance(other, ast.ParamRef):
                return (attr_side.var, pos, op, ("param", other.name))
            value_fn = _compile_value(other, schemas, params)
            if value_fn is None:
                continue
            try:
                value = value_fn({})
            except (KeyError, TypeError, ZeroDivisionError):
                continue  # e.g. a parameter not bound at compile time
            return (attr_side.var, pos, op, ("const", value))
    return None


def _restriction_of(conj: ast.Cmp, schemas: dict, params: dict):
    """``(var, pos, op, value)`` — the pushed form resolved now — for a
    comparison of one attribute against a constant, or None.  An
    unbound parameter yields no restriction.  The cost model prices the
    other operators from histograms instead of treating them as free
    filters; an equality it prices as a key, and its constant only
    prunes a cold scan's partitions."""
    spec = _scan_restriction_spec(conj, schemas, params)
    if spec is None:
        return None
    var, pos, op, (kind, payload) = spec
    if kind == "param":
        if payload not in params:
            return None
        payload = params[payload]
    return (var, pos, op, payload)


def _derive_projection(branch: ast.Branch, var: str, schema) -> tuple | None:
    """Column positions of ``var`` the branch provably reads, or None.

    None means "all columns" — returned on any whole-row use
    (``VarRef``, an implicit whole-tuple emit) and whenever the name is
    rebound anywhere in the branch (quantifier variables, nested query
    bindings): a shadowed name makes attribute attribution ambiguous, so
    the projection stays conservative.  Collecting attributes of *inner*
    same-named variables can only widen the result, never narrow it, so
    a plain AST walk is sound.
    """
    if branch.targets is None and branch.bindings and branch.bindings[0].var == var:
        return None
    used: set[int] = set()
    bindings_seen = 0
    for node in ast.walk(branch):
        if isinstance(node, ast.VarRef) and node.var == var:
            return None
        if isinstance(node, (ast.Some, ast.All)) and var in node.vars:
            return None
        if isinstance(node, ast.Binding) and node.var == var:
            bindings_seen += 1
            if bindings_seen > 1:
                return None
        if isinstance(node, ast.AttrRef) and node.var == var:
            try:
                used.add(schema.index_of(node.attr))
            except SchemaError:
                return None
    if len(used) >= len(schema.attribute_names):
        return None
    return tuple(sorted(used))


# ---------------------------------------------------------------------------
# Branch compilation
# ---------------------------------------------------------------------------


@dataclass
class LoopStep:
    """One level of the loop nest."""

    var: str
    source: Source
    schema: RecordType
    # Index access: attribute positions in this step's rows, paired with
    # value closures over the already-bound environment (and the source
    # terms they were compiled from, for lowering to batch operators).
    key_positions: tuple[int, ...] = ()
    key_values: tuple = ()
    key_terms: tuple = ()
    # Cheap compiled filters evaluated on (env incl. this var), plus the
    # comparison ASTs they came from (recompiled against batch slots).
    filters: tuple = ()
    filter_descs: tuple[str, ...] = ()
    filter_conjs: tuple = ()
    # Residual predicates anchored on this variable alone (memberships,
    # quantifiers): checked as soon as the variable binds, so the priced
    # selectivity matches where the filtering actually happens.
    residual_preds: tuple = ()
    # Cost-model estimates, recorded for explain().
    est_source_rows: float | None = None
    est_out_rows: float | None = None
    est_cumulative: float | None = None
    # Priced selectivity of this step's single-variable comparison
    # filters — the columnar lowering's G2 gate (probe pushdown) reads it.
    est_filter_sel: float | None = None
    #: Storage pushdown for scan access paths (a ScanPushdown, or None):
    #: the projection/selection a cold store-backed relation's partition
    #: reader may apply so only live columns of matching partitions are
    #: ever decoded.  Advisory — warm relations ignore it.
    pushdown: object | None = None

    @property
    def unique(self) -> bool:
        """Whether this step probes a stored relation's index on positions
        covering its declared key: a key → row map (``HashIndex.unique``)."""
        return covers_key(self.source.key, self.key_positions)

    def describe(self) -> str:
        access = "scan"
        if self.key_positions:
            access = f"index{list(self.key_positions)}"
        filters = f" filter[{', '.join(self.filter_descs)}]" if self.filters else ""
        residual = (
            f" residual[{', '.join(map(render_pred, self.residual_preds))}]"
            if self.residual_preds
            else ""
        )
        pushed = ""
        if self.pushdown is not None and not self.key_positions:
            pushed = f" pushdown[{self.pushdown.describe()}]"
        return (
            f"EACH {self.var} IN {self.source.describe()} via "
            f"{access}{filters}{residual}{pushed}"
        )


@dataclass
class BranchPlan:
    steps: list[LoopStep]
    residual: ast.Pred
    target_fn: object
    target_desc: str
    schemas: dict[str, RecordType]
    optimizer: str = DEFAULT_OPTIMIZER
    est_cost: float | None = None
    est_out: float | None = None
    #: Inputs for lazy lowering (the pushdown gate compiles plans purely
    #: to price them, so operator codegen is deferred to first use).
    target_terms: tuple | None = None
    params: dict = field(default_factory=dict)
    #: Residual conjunct (a step's or the leaf's) -> its compiled
    #: :class:`~repro.compiler.operators.GroupResidual`.
    residuals: dict = field(default_factory=dict)
    #: The lowered physical-operator pipelines, keyed by the lowering
    #: function each backend names: a BranchPipeline, or None when the
    #: vector lowering does not cover the branch.  Filled only by
    #: :meth:`lowered`, on first use.
    pipelines: dict = field(default_factory=dict)
    # Actual per-step binding counts, accumulated over every execution of
    # this plan; explain() divides by `executions` so the reported actuals
    # stay commensurable with the per-execution estimates.
    actual_rows: list[int] = field(default_factory=list)
    actual_emitted: int = 0
    executions: int = 0
    #: Filled by the sharded backend: per-shard produced counts and the
    #: dedup-aware merged count (see repro.compiler.sharded.ShardReport).
    shards: object | None = None

    def lowered(self, lowering):
        """This branch's pipeline from ``lowering``, memoized (None when
        the vector lowering does not cover the branch)."""
        pipelines = self.pipelines
        if lowering not in pipelines:
            pipelines[lowering] = lowering(
                self.steps,
                self.residual,
                self.schemas,
                self.target_terms,
                self.target_desc,
                self.params,
                est_out=self.est_out,
                residuals=self.residuals,
            )
        return pipelines[lowering]

    def execute_batch(self, ctx: ExecutionContext, pipeline) -> list:
        """Run a lowered operator pipeline, returning the projected batch
        (duplicates included — the caller's Dedup/union eliminates them,
        exactly as the tuple interpreter's ``out.add`` does).  Under a
        shard worker's context the counts are deferred to
        ``ctx.deferred``."""
        batch, step_counts, op_counts = run_pipeline(pipeline, ctx)
        if ctx.deferred is None:
            self.tally(pipeline, step_counts, op_counts, len(batch))
        else:
            ctx.deferred.append((self, pipeline, step_counts, op_counts, len(batch)))
        return batch

    def tally(self, pipeline, step_counts, op_counts, emitted: int) -> None:
        """Add one run's counts to this branch's and its operators'."""
        if len(self.actual_rows) != len(self.steps):
            self.actual_rows = [0] * len(self.steps)
        self.executions += 1
        self.actual_rows = [a + c for a, c in zip(self.actual_rows, step_counts)]
        for op, count in zip(pipeline.operators(), op_counts):
            op.executions += 1
            op.actual_rows += count
        self.actual_emitted += emitted

    def execute_tuple(self, ctx: ExecutionContext, out: set) -> None:
        """The original tuple-at-a-time interpreted loop nest."""
        stats = ctx.stats
        leaf_residuals = conjuncts(self.residual)
        schemas = self.schemas
        eval_pred = ctx.evaluator.eval_pred
        if len(self.actual_rows) != len(self.steps):
            self.actual_rows = [0] * len(self.steps)
        self.executions += 1
        actual = self.actual_rows

        def holds(preds, env: dict) -> bool:
            stats.residual_checks += 1
            stats.residual_evals += 1
            rich_env = {v: (row, schemas[v]) for v, row in env.items()}
            return all(eval_pred(pred, rich_env) for pred in preds)

        def run(depth: int, env: dict) -> None:
            if depth == len(self.steps):
                if leaf_residuals and not holds(leaf_residuals, env):
                    return
                out.add(self.target_fn(env))
                stats.tuples_emitted += 1
                self.actual_emitted += 1
                return
            step = self.steps[depth]
            if step.key_positions:
                _rows, index_provider = step.source.rows_and_indexable(ctx)
                key = tuple(fn(env) for fn in step.key_values)
                index = index_provider(step.key_positions)
                candidates = index.lookup(key[0] if len(key) == 1 else key)
                stats.index_lookups += 1
            else:
                candidates = step.source.scan_rows(ctx, step.pushdown)
            var = step.var
            step_residuals = step.residual_preds
            for row in candidates:
                stats.rows_scanned += 1
                ok = True
                env[var] = row
                for flt in step.filters:
                    if not flt(env):
                        ok = False
                        break
                if ok and step_residuals:
                    ok = holds(step_residuals, env)
                if ok:
                    actual[depth] += 1
                    run(depth + 1, env)
            env.pop(var, None)

        run(0, {})

    def explain(self, indent: str = "", executor: str | None = None) -> str:
        """The loop nest with est/act rows, then the operators: every
        pipeline that has run, or before any run the one ``executor``
        would run (lowering nothing else).

        Estimates model ONE execution; actuals are accumulated across all
        executions (e.g. fixpoint iterations), so the per-execution
        average is reported next to the estimate.
        """
        lines = []
        have_actuals = self.executions > 0 and len(self.actual_rows) == len(self.steps)

        def per_run(total: int) -> str:
            return f"{total / self.executions:.1f}" if have_actuals else "-"

        for i, step in enumerate(self.steps):
            suffix = ""
            if step.est_cumulative is not None:
                act = per_run(self.actual_rows[i]) if have_actuals else "-"
                suffix = f"  [est={step.est_cumulative:.1f} act={act}]"
            lines.append(f"{indent}{step.describe()}{suffix}")
        if not isinstance(self.residual, ast.TruePred):
            lines.append(f"{indent}RESIDUAL {render_pred(self.residual)}")
        emit = f"{indent}EMIT {self.target_desc}"
        if self.est_out is not None:
            emit += f"  [est={self.est_out:.1f} act={per_run(self.actual_emitted)}]"
        lines.append(emit)
        if self.shards is not None and self.shards.executions:
            lines.append(f"{indent}{self.shards.explain_line()}")
        ran = [p for p in self.pipelines.values() if p is not None and p.executions]
        if not ran:
            backend = get_backend(DEFAULT_EXECUTOR if executor is None else executor)
            pipeline = backend.pipeline_for(self)
            ran = [] if pipeline is None else [pipeline]
        for pipeline in ran:
            lines.append(f"{indent}operators:")
            lines.append(pipeline.explain(indent + "  "))
        return "\n".join(lines)


@dataclass
class QueryPlan:
    """Union of branch plans with duplicate elimination (set semantics)."""

    branches: list[BranchPlan]
    optimizer: str = DEFAULT_OPTIMIZER
    executor: str = DEFAULT_EXECUTOR
    #: The union's duplicate-elimination operator (batched path); its
    #: actual count is the number of distinct tuples the plan added.
    dedup: Dedup = field(default_factory=Dedup)
    #: The executor the last :meth:`execute` ran on (None before any
    #: run): the one :meth:`explain` names by default.
    ran_executor: str | None = None

    def execute(
        self, ctx: ExecutionContext, executor: str | None = None
    ) -> set[tuple]:
        executor = self.executor if executor is None else executor
        backend = get_backend(executor)
        out: set[tuple] = set()
        for branch in self.branches:
            backend.execute_branch(branch, ctx, out, dedup=self.dedup)
        self.ran_executor = executor
        return out

    @property
    def est_cost(self) -> float:
        return sum(b.est_cost or 0.0 for b in self.branches)

    def explain(self, executor: str | None = None) -> str:
        """The plan as ``executor`` runs it — by default the executor it
        last ran on, else its own; a residual's sub-plan names the
        backend of the pipeline it is in."""
        if executor is None:
            executor = self.ran_executor or self.executor
        parts = [f"PLAN [optimizer={self.optimizer} executor={executor}]"]
        for i, branch in enumerate(self.branches):
            parts.append(f"BRANCH {i}:")
            parts.append(branch.explain("  ", executor))
        if self.dedup.executions:
            parts.append(self.dedup.explain_line())
        return "\n".join(parts)


def _static_schema_of(db: Database, rexpr: ast.RangeExpr, params: dict) -> RecordType:
    evaluator = Evaluator(db, params)
    return evaluator.infer_schema(rexpr, {})


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


def _available_keys(
    var: str,
    bound: frozenset,
    equalities: list[tuple[int, str, int, ast.Term]],
) -> list[tuple[int, int, ast.Term]]:
    """Equality entries (group, pos, other) usable as index keys for
    ``var`` once ``bound`` variables are in scope — one per group."""
    keys: list[tuple[int, int, ast.Term]] = []
    seen_groups: set[int] = set()
    for group, v, pos, other in equalities:
        if v != var or group in seen_groups:
            continue
        if _term_vars(other) <= bound:
            seen_groups.add(group)
            keys.append((group, pos, other))
    return keys


def _delta_rank(source: Source) -> int:
    """Tiebreak preference: deltas first, then other fixpoint variables."""
    if source.kind != "apply":
        return 2
    return 0 if _variant(source.token)[0] == "delta" else 1


def _order_cost_based(
    binding_vars: list[str],
    sources: dict[str, Source],
    equalities: list[tuple[int, str, int, ast.Term]],
    cost_model: CostModel,
    restrictions: dict[str, tuple] | None = None,
    residual_sels: dict[str, float] | None = None,
    key_constants: dict[str, tuple] | None = None,
) -> list[str]:
    """Pick the loop-nest order minimizing estimated cost.

    Exact subset DP (Selinger) up to :data:`DP_LIMIT` bindings; greedy
    cheapest-next-step beyond that.  Ties prefer delta-driven orders and
    then the syntactic order, keeping plans deterministic.  Per-variable
    ``restrictions`` (histogram-priced range/inequality filters) and
    ``residual_sels`` (priced memberships/quantifiers) shrink a step's
    output cardinality, which is what lets a restricted scan of a big
    table win the outer position; ``key_constants`` (keys compared to a
    constant) prune a cold scan.
    """
    position = {v: i for i, v in enumerate(binding_vars)}
    restrictions = restrictions or {}
    residual_sels = residual_sels or {}
    key_constants = key_constants or {}

    def transition(var: str, bound: frozenset, invocations: float) -> StepEstimate:
        keys = _available_keys(var, bound, equalities)
        return cost_model.price_step(
            sources[var],
            tuple(pos for (_g, pos, _o) in keys),
            restrictions.get(var, ()),
            residual_sels.get(var, 1.0),
            invocations,
            key_constants.get(var, ()),
        )

    def tiebreak(order: tuple[str, ...]) -> tuple:
        return tuple((_delta_rank(sources[v]), position[v]) for v in order)

    n = len(binding_vars)
    if n <= 1:
        return list(binding_vars)

    if n <= DP_LIMIT:
        # best[subset] = (cost, out_card, order)
        best: dict[frozenset, tuple[float, float, tuple[str, ...]]] = {
            frozenset(): (0.0, 1.0, ())
        }
        for size in range(1, n + 1):
            for combo in combinations(binding_vars, size):
                subset = frozenset(combo)
                champion = None
                for var in combo:
                    prev = subset - {var}
                    prev_cost, prev_card, prev_order = best[prev]
                    est = transition(var, prev, prev_card)
                    cost = prev_cost + est.build_cost + prev_card * est.per_invocation
                    card = prev_card * est.out_rows
                    order = prev_order + (var,)
                    candidate = (cost, card, order)
                    if champion is None or (
                        cost,
                        card,
                        tiebreak(order),
                    ) < (champion[0], champion[1], tiebreak(champion[2])):
                        champion = candidate
                best[subset] = champion
        return list(best[frozenset(binding_vars)][2])

    # Greedy: repeatedly take the cheapest next step.
    ordered: list[str] = []
    remaining = list(binding_vars)
    card = 1.0
    while remaining:
        bound = frozenset(ordered)
        best_var = None
        best_key = None
        for var in remaining:
            est = transition(var, bound, card)
            key = (
                est.build_cost + card * est.per_invocation,
                card * est.out_rows,
                _delta_rank(sources[var]),
                position[var],
            )
            if best_key is None or key < best_key:
                best_var, best_key = var, key
        est = transition(best_var, bound, card)
        card *= est.out_rows
        ordered.append(best_var)
        remaining.remove(best_var)
    return ordered


def compile_branch(
    db: Database,
    branch: ast.Branch,
    params: dict | None = None,
    optimizer: str = DEFAULT_OPTIMIZER,
    cost_model: CostModel | None = None,
) -> BranchPlan:
    params = params or {}
    if cost_model is None:
        cost_model = CostModel(db)
    schemas: dict[str, RecordType] = {}
    sources: dict[str, Source] = {}
    for binding in branch.bindings:
        schema = _static_schema_of(db, binding.range, params)
        schemas[binding.var] = schema
        source = _source_for(db, binding.range, params)
        source.schema = schema
        sources[binding.var] = source

    binding_vars = [b.var for b in branch.bindings]
    # Split conjuncts into: equalities usable for index access, cheap
    # compiled filters, and residual predicates.  Attribute-to-attribute
    # equalities are recorded in both orientations under one group id, so
    # whichever side gets bound later can serve as the index key.
    equalities: list[tuple[int, str, int, ast.Term]] = []  # (group, var, pos, other)
    cheap: list[tuple[set[str], object, str, ast.Cmp]] = []
    residual: list[ast.Pred] = []
    # var -> ((pos, op, value), ...): priced single-variable comparisons,
    # and the keys compared to a constant.
    restrictions: dict[str, tuple] = {}
    key_constants: dict[str, tuple] = {}
    for group, conj in enumerate(conjuncts(branch.pred)):
        handled = False
        if isinstance(conj, ast.Cmp) and conj.op == "=":
            for left, right in ((conj.left, conj.right), (conj.right, conj.left)):
                if (
                    isinstance(left, ast.AttrRef)
                    and left.var in schemas
                    and not (_term_vars(right) - set(binding_vars))
                ):
                    pos = schemas[left.var].index_of(left.attr)
                    equalities.append((group, left.var, pos, right))
                    handled = True
        if handled:
            restriction = _restriction_of(conj, schemas, params)
            if restriction is not None:
                var, pos, op, value = restriction
                key_constants[var] = key_constants.get(var, ()) + ((pos, op, value),)
            continue
        vars_needed = _term_vars(conj)
        # A comparison that reads no binding has no step to filter at:
        # it is a residual over one constant group.
        if vars_needed and vars_needed <= set(binding_vars) and isinstance(conj, ast.Cmp):
            fn = _compile_cmp(conj, schemas, params)
            if fn is not None:
                cheap.append((vars_needed, fn, render_pred(conj), conj))
                restriction = _restriction_of(conj, schemas, params)
                if restriction is not None:
                    var, pos, op, value = restriction
                    restrictions[var] = restrictions.get(var, ()) + ((pos, op, value),)
                continue
        residual.append(conj)

    # Residual predicates anchored on exactly one binding variable
    # (memberships, quantifiers) are pulled out of the leaf residual:
    # they run at the step where their variable binds, and the cost model
    # prices their selectivity into that step, so the join order can
    # exploit them and the estimates describe where the filtering
    # actually happens.
    anchored_residuals: dict[str, list] = {}
    leftover: list[ast.Pred] = []
    for conj in residual:
        vars_needed = _term_vars(conj)
        if len(vars_needed) == 1 and next(iter(vars_needed)) in binding_vars:
            anchored_residuals.setdefault(next(iter(vars_needed)), []).append(conj)
        else:
            leftover.append(conj)
    residual = leftover
    residual_sels: dict[str, float] = {}
    for var, conjs in anchored_residuals.items():
        for conj in conjs:
            sel = cost_model.predicate_selectivity(conj, sources[var], schemas[var])
            if sel < 1.0:
                residual_sels[var] = residual_sels.get(var, 1.0) * sel

    # Pick the loop-nest order.
    if optimizer == "syntactic":
        ordered = list(binding_vars)
    elif optimizer == "cost":
        ordered = _order_cost_based(
            binding_vars, sources, equalities, cost_model, restrictions,
            residual_sels, key_constants,
        )
    else:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected 'cost' or 'syntactic'"
        )

    # Reader-pushable specs per variable: every single-variable comparison
    # against a constant/parameter expression, kept symbolic so prepared
    # plans resolve parameter slots at scan time.  Collected over the raw
    # conjuncts independently of how access paths consume them — pushdown
    # is a pre-filter the compiled filters re-check.
    scan_specs: dict[str, tuple] = {}
    for conj in conjuncts(branch.pred):
        if isinstance(conj, ast.Cmp):
            spec = _scan_restriction_spec(conj, schemas, params)
            if spec is not None:
                spec_var, pos, op, payload = spec
                scan_specs[spec_var] = scan_specs.get(spec_var, ()) + (
                    (pos, op, payload),
                )

    steps: list[LoopStep] = []
    consumed: set[int] = set()  # consumed group ids
    est_cost = 0.0
    est_card = 1.0
    for var in ordered:
        bound_before = frozenset(ordered[: ordered.index(var)])
        available = _available_keys(var, bound_before, equalities)
        var_restrictions = restrictions.get(var, ())
        # The cost model gates the access path: keys are consumed as an
        # index only when the estimated lookup beats a scan (the
        # syntactic baseline always consumes them).
        var_residual_sel = residual_sels.get(var, 1.0)
        var_key_constants = key_constants.get(var, ())
        estimate = cost_model.price_step(
            sources[var],
            tuple(pos for (_g, pos, _o) in available),
            var_restrictions,
            var_residual_sel,
            est_card,
            var_key_constants,
        )
        use_keys = estimate.use_index or optimizer == "syntactic"
        key_positions: list[int] = []
        key_values: list = []
        key_terms: list = []
        step_filters: list = []
        step_descs: list[str] = []
        step_conjs: list = []
        if use_keys:
            for group, pos, other in available:
                value_fn = _compile_value(other, schemas, params)
                if value_fn is not None:
                    key_positions.append(pos)
                    key_values.append(value_fn)
                    key_terms.append(other)
                    consumed.add(group)
        # cheap filters whose variables are all bound once var is bound
        for needed, fn, desc, conj in cheap:
            if var in needed and needed <= bound_before | {var}:
                step_filters.append(fn)
                step_descs.append(desc)
                step_conjs.append(conj)
        final = estimate  # declined keys still filter at the step
        if use_keys:
            final = cost_model.price_step(
                sources[var], tuple(key_positions), var_restrictions, var_residual_sel,
                est_card, var_key_constants,
            )
        est_cost += final.build_cost + est_card * final.per_invocation
        est_card *= final.out_rows
        step_residuals = tuple(anchored_residuals.get(var, ()))
        step_pushdown = None
        if sources[var].kind == "relation":
            projection = _derive_projection(branch, var, schemas[var])
            selection = scan_specs.get(var, ())
            if projection is not None or selection:
                step_pushdown = ScanPushdown(projection, selection)
        steps.append(
            LoopStep(
                var=var,
                source=sources[var],
                schema=schemas[var],
                key_positions=tuple(key_positions),
                key_values=tuple(key_values),
                key_terms=tuple(key_terms),
                filters=tuple(step_filters),
                filter_descs=tuple(step_descs),
                filter_conjs=tuple(step_conjs),
                residual_preds=step_residuals,
                est_source_rows=final.source_rows,
                est_out_rows=final.out_rows,
                est_cumulative=est_card,
                est_filter_sel=cost_model.restriction_selectivity(
                    sources[var], var_restrictions
                ),
                pushdown=step_pushdown,
            )
        )

    # Equalities not consumed as keys become cheap filters at the first step
    # where both sides are bound.  Only one orientation per group is placed.
    placed_groups: set[int] = set()
    for group, v, pos, other in equalities:
        if group in consumed or group in placed_groups:
            continue
        placed_groups.add(group)
        conj = ast.Cmp("=", ast.AttrRef(v, schemas[v].attribute_names[pos]), other)
        fn = _compile_cmp(conj, schemas, params)
        if fn is None:
            residual.append(conj)
            continue
        needed = {v} | _term_vars(other)
        placed = False
        # place at the first step where all needed variables are bound
        for i, step in enumerate(steps):
            bound = {s.var for s in steps[: i + 1]}
            if needed <= bound:
                step.filters = step.filters + (fn,)
                step.filter_descs = step.filter_descs + (render_pred(conj),)
                step.filter_conjs = step.filter_conjs + (conj,)
                placed = True
                break
        if not placed:
            residual.append(conj)

    # Every residual conjunct, a step's or the leaf's, compiles as a
    # query over its groups.
    residual_pred = conjoin(tuple(residual))
    at_steps = [(p, step.est_cumulative) for step in steps for p in step.residual_preds]
    residuals = {
        p: compile_residual(db, p, schemas, params, optimizer, cost_model, est, sources)
        for p, est in at_steps + [(p, est_card) for p in conjuncts(residual_pred)]
    }

    # Targets
    if branch.targets is None:
        var = branch.bindings[0].var
        target_fn = lambda env: env[var]
        target_desc = var
    else:
        extractors = [_compile_value(t, schemas, params) for t in branch.targets]
        if any(e is None for e in extractors):
            raise EvaluationError("untranslatable target term in branch")
        target_fn = lambda env: tuple(fn(env) for fn in extractors)
        target_desc = "<" + ", ".join(render_term(t) for t in branch.targets) + ">"

    # The operator pipeline is lowered lazily (first execute/explain):
    # the pushdown gate compiles branches purely to price them, and
    # those plans should not pay for operator code generation.
    return BranchPlan(
        steps=steps,
        residual=residual_pred,
        target_fn=target_fn,
        target_desc=target_desc,
        schemas=schemas,
        optimizer=optimizer,
        est_cost=est_cost,
        est_out=est_card,
        target_terms=branch.targets,
        params=params,
        residuals=residuals,
    )


def _compile_cmp(conj: ast.Cmp, schemas, params):
    left = _compile_value(conj.left, schemas, params)
    right = _compile_value(conj.right, schemas, params)
    if left is None or right is None:
        return None
    op = conj.op
    if op == "=":
        return lambda env: left(env) == right(env)
    if op == "<>":
        return lambda env: left(env) != right(env)
    if op == "<":
        return lambda env: left(env) < right(env)
    if op == "<=":
        return lambda env: left(env) <= right(env)
    if op == ">":
        return lambda env: left(env) > right(env)
    if op == ">=":
        return lambda env: left(env) >= right(env)
    return None


# ---------------------------------------------------------------------------
# Residuals: a query over the groups
# ---------------------------------------------------------------------------


#: Apply tokens of the residuals' group sets (``@__groups<n>``).
_GROUP_TOKENS = count()


def compile_residual(
    db: Database, pred: ast.Pred, schemas: dict, params: dict, optimizer: str,
    cost_model: CostModel, est_groups: float | None, sources: dict,
) -> GroupResidual:
    """Compile one residual conjunct as a query over its groups.

    The group key is what ``pred`` reads of the branch's bindings: ``v.a``,
    or every attribute of ``v`` where it uses ``v`` whole.  ``pred`` is
    lifted onto one variable ranging over the distinct keys — the apply
    value of a fresh token, priced at ``est_groups`` rows but never more
    than the product of the key attributes' distinct counts in their
    ``sources``' statistics — and compiled into its set algebra:

    * ``AND`` restricts, ``OR`` takes the union, ``NOT`` the complement;
    * the quantifier-free parts of an ``AND``/``OR`` are one generated
      test over the key;
    * ``SOME x IN R (Q)`` is one compiled semi-join ``{<g> OF EACH g IN
      @groups, EACH x IN R: Q}``, inline-query ranges unnested first
      (N1/N2); a quantifier inside ``Q`` is a residual of that plan, so
      it recurses through this rule;
    * ``ALL x IN R (Q)`` is ``NOT SOME x IN R (NOT Q)`` in negation normal
      form, ``t IN R`` is ``SOME x IN R (x.a1 = t1 AND ...)`` (never, when
      the arities differ);
    * a range no plan can bind — still correlated once unnested — is
      decided by the evaluator, once per group (``GroupEvaluated``).
    """
    fresh = FreshNames(bound_vars(pred) | free_tuple_vars(pred))
    var = fresh.fresh("g")
    slots: dict = {}  # (v, a) -> its key position i, lifted as var.k<i>

    def lift(ref):
        if ref.var not in schemas:
            return None
        whole = ref.__class__ is ast.VarRef
        attrs = schemas[ref.var].attribute_names if whole else (ref.attr,)
        keys = [ast.AttrRef(var, f"k{slots.setdefault((ref.var, a), len(slots))}") for a in attrs]
        return ast.TupleCons(tuple(keys)) if whole else keys[0]

    lifted = substitute_free(pred, lift)
    # A predicate that reads no binding still has one (constant) key column.
    schema = RecordType("groups", tuple(Field(f"k{i}", ANY) for i in range(max(1, len(slots)))))
    token = f"__groups{next(_GROUP_TOKENS)}"
    est, cap = max(1.0, est_groups or 1.0), 1.0
    for v, a in slots:
        table = cost_model.source_table(sources[v]) if v in sources else None
        if table is None or table.row_count <= 0:
            break
        cap *= max(1, table.distinct(schemas[v].index_of(a)))
    else:
        est = min(est, cap)
    estimates = {**cost_model.apply_estimates, token: est}
    model = CostModel(db, estimates, cost_model.use_histograms, cost_model.held)
    plans: list[QueryPlan] = []

    def evaluated(p: ast.Pred) -> GroupEvaluated:
        return GroupEvaluated(render_pred(p), p, var, schema)

    def semijoin(some: ast.Some):
        head = ast.Binding(var, ast.ApplyVar(token, schema))
        bindings = (head, *(ast.Binding(v, some.range) for v in some.vars))
        query = ast.Query((ast.Branch(bindings, some.pred, (ast.VarRef(var),)),))
        (branch,) = unnest_query(query).branches
        if any(free_tuple_vars(b.range) for b in branch.bindings):
            return None
        plans.append(QueryPlan([compile_branch(db, branch, params, optimizer, model)], optimizer))
        return GroupSemiJoin(f"SEMIJOIN {render_pred(some)}", plans[-1], token)

    def node(p: ast.Pred):
        if _quantifier_free(p):
            gen = _ColGen({var: schema}, params)
            src = _pred_src(p, gen, {var: "k"})
            test = f"    return {{k for k in groups if {src}}}\n"
            return GroupTest(render_pred(p), gen.define("_test", "groups", test))
        if isinstance(p, (ast.And, ast.Or)):
            free = [q for q in p.parts if _quantifier_free(q)]
            parts = [node(q) for q in p.parts if not _quantifier_free(q)]
            if free:
                parts.insert(0, node(free[0] if len(free) == 1 else type(p)(tuple(free))))
            if len(parts) == 1:
                return parts[0]
            return GroupLogic(type(p).__name__.upper(), tuple(parts))
        if isinstance(p, ast.Not):
            return GroupLogic("NOT", (node(p.pred),))
        if isinstance(p, ast.All):
            semi = semijoin(ast.Some(p.vars, p.range, negation_normal_form(ast.Not(p.pred))))
            return evaluated(p) if semi is None else GroupLogic("NOT", (semi,))
        if isinstance(p, ast.Some):
            return semijoin(p) or evaluated(p)
        try:
            names = _static_schema_of(db, p.range, params).attribute_names
        except DBPLError:
            return evaluated(p)
        return node(membership_existential(p, names, fresh.fresh("m")))

    root = node(lifted)  # fills ``plans``
    return GroupResidual(pred, tuple(slots), root, tuple(plans))


def _quantifier_free(pred: ast.Pred) -> bool:
    return not any(isinstance(n, (ast.Some, ast.All, ast.InRel)) for n in ast.walk(pred))


def _pred_src(pred: ast.Pred, gen, names: dict) -> str:
    """Python source for a quantifier-free predicate."""
    if isinstance(pred, ast.TruePred):
        return "True"
    if isinstance(pred, ast.Cmp):
        return gen.cmp_expr(pred, names)
    if isinstance(pred, ast.Not):
        return f"(not {_pred_src(pred.pred, gen, names)})"
    parts = [_pred_src(p, gen, names) for p in pred.parts]
    return "(" + (" and " if isinstance(pred, ast.And) else " or ").join(parts) + ")"


def estimate_branch(
    db: Database,
    branch: ast.Branch,
    params: dict | None = None,
    cost_model: CostModel | None = None,
) -> tuple[float, float]:
    """(estimated cost, estimated output rows) of one branch.

    Used by the pushdown gate to compare rewrites without executing
    anything; estimation failures degrade to pessimistic defaults rather
    than raising.
    """
    try:
        plan = compile_branch(db, branch, params, cost_model=cost_model)
    except DBPLError:
        return (float("inf"), CostModel.DEFAULT_COMPUTED_ROWS)
    return (plan.est_cost or 0.0, plan.est_out or 0.0)


def estimate_query(
    db: Database,
    query: ast.Query,
    params: dict | None = None,
    cost_model: CostModel | None = None,
) -> tuple[float, float]:
    """(estimated cost, estimated output rows) of a whole query."""
    total_cost = 0.0
    total_rows = 0.0
    for branch in query.branches:
        cost, rows = estimate_branch(db, branch, params, cost_model)
        total_cost += cost
        total_rows += rows
    return (total_cost, total_rows)


def compile_query(
    db: Database,
    query: ast.Query,
    params: dict | None = None,
    cost_model: CostModel | None = None,
    *,
    options: ExecOptions | None = None,
) -> QueryPlan:
    """Compile every branch of a query into an executable plan.

    Execution knobs arrive on ``options`` (an
    :class:`~repro.compiler.options.ExecOptions`).  ``cost_model`` stays
    a separate argument — it is compiler plumbing (estimate reuse across
    related compilations), not a client-facing knob.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    if cost_model is None:
        cost_model = CostModel(db)
    optimizer = options.resolved_optimizer
    return QueryPlan(
        [
            compile_branch(db, branch, params, optimizer, cost_model)
            for branch in query.branches
        ],
        optimizer=optimizer,
        executor=options.resolved_executor,
    )


def run_query(
    db: Database,
    query: ast.Query,
    params: dict | None = None,
    apply_values: dict | None = None,
    stats: PlanStats | None = None,
    cost_model: CostModel | None = None,
    *,
    options: ExecOptions | None = None,
) -> set[tuple]:
    """Compile and execute a query in one call."""
    if options is None:
        options = DEFAULT_OPTIONS
    plan = compile_query(db, query, params, cost_model=cost_model, options=options)
    ctx = ExecutionContext(db, params, apply_values, stats)
    ctx.shard_config = options.shard_config
    return plan.execute(ctx)
