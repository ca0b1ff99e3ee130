"""Batched physical operators: the set-at-a-time execution layer.

The planner (:mod:`repro.compiler.plans`) picks a join order and an
access path per binding; this module is what those choices *run as*.
Instead of interpreting the loop nest tuple variable by tuple variable —
a recursive call, an environment-dict mutation, and several counter
increments per binding — each :class:`~repro.compiler.plans.BranchPlan`
is lowered once into a linear pipeline of physical operators that pass
**batches of rows** between them:

* :class:`Scan` — the whole source as one batch (doubles as the
  cross-product step when a binding has no usable key);
* :class:`IndexLookup` — a single hash probe with a constant key,
  shared by the entire batch;
* :class:`HashJoin` — the step's source hashed *once* on the key
  positions (relations reuse their version-cached indexes, fixpoint
  deltas are built once per iteration), then probed per batch row;
* :class:`Filter` — compiled comparison conjuncts over the batch;
* :class:`BatchedResidualFilter` — a leftover predicate (quantifiers,
  memberships, ``OR``/``NOT``) decided once per distinct *group* of what
  it reads by its :class:`GroupResidual`: generated tests and compiled
  semi-join plans over the groups;
* :class:`Project` — positional target extraction;
* :class:`Dedup` — the per-query union with duplicate elimination;
* :class:`DeltaApply` — the semi-naive ``produced - known`` subtraction
  the fixpoint driver applies per iteration.

The columnar and vector pipelines come out of **one step walk**
(:func:`_step_walk`) with pluggable kernels.  The walk decides what
they share: the entries (access, filter, step residual, one per
residual conjunct, project), whether the projection fuses, backward
liveness — each entry's slot layout before and after, at variable
granularity, so values are never copied between operators — where the
residual filters sit, and the est-row attachment.  A kernel set turns
one entry at one layout into one operator:

1. **Row-slot kernels** (:class:`_ColumnarKernels`; ``executor="batch"``
   through :func:`lower_branch_columnar`).  A batch is ``(n, slots)``:
   one aligned list of *source rows* per live binding variable.
   Generated kernels compose C-level primitives: ``map``/``itemgetter``
   column slices feed the hash probes, ``chain``/``repeat`` expand
   surviving slots, ``compress`` applies filter masks — and the
   projection **fuses into the producing HashJoin / Scan / Filter**
   whenever no residual predicate follows, so result tuples are
   materialized exactly once.  A prelude gates
   selective single-variable filters (priced selectivity ≤
   :data:`FILTER_PUSH_SEL`) into the join's probe as per-distinct-key
   build-side filtering.

2. **Id-space kernels** (:class:`_VectorKernels`; ``executor="vector"``
   through :func:`lower_branch_vector`, which first checks its coverage
   rules).  Slots carry int64 row indexes into dictionary-encoded
   tables; the walk runs unfused, and at the first residual entry it
   appends a :class:`VectorMaterialize` and finishes on the row-slot
   kernels (residual filters, then the row-space projection).

Row-major flat carries — PR 3's layout — stay a separate lowering,
:func:`lower_branch`, kept as ``executor="rowbatch"`` so benchmark E17
can measure what the columnar conversion buys; its item-level liveness
is its own (a batch row is a flat tuple of exactly the live values),
and its :class:`ResidualFilter` calls the reference evaluator per row.

Every lowering runs lazily, once per branch (``BranchPlan.lowered``),
and lowers its residuals' sub-plans with it.  The columnar and
row-major lowerings are total: they return a pipeline for every branch
— one with no bindings too — and a term no generated code can express
(a variable bound nowhere, an unknown operator) raises the
:class:`~repro.errors.EvaluationError` the reference evaluator raises
for it.  Only the vector lowering declines branches (its coverage
rules; ``executor="vector"`` then runs them on ``batch``), and the
tuple-at-a-time interpreter (``executor="tuple"``, benchmark E16's
baseline) runs only when named.

Every operator accumulates the **actual row count** it produced, which
``explain()`` reports next to the optimizer's estimates — the batched
counterpart of the per-step est-vs-actual report of the tuple
interpreter.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress, repeat
from operator import ge, gt, is_not, itemgetter, le, lt

from ..calculus import ast
from ..calculus.analysis import free_tuple_vars
from ..calculus.pretty import render_pred
from ..calculus.rewrite import conjoin, conjuncts
from ..errors import EvaluationError
from ..relational.vectors import Dictionary, EncodedTable, get_numpy, translation

#: Shared empty bucket for missed hash probes inside generated loops.
_EMPTY: tuple = ()

#: G2 fusion gate: a single-variable comparison filter is pushed into the
#: probe side of its HashJoin (per-distinct-key build-side filtering)
#: when the cost model estimates it keeps at most this fraction of rows.
#: Unselective filters stay as standalone compress-based Filter passes,
#: where one C-level sweep beats re-filtering every probed bucket.
FILTER_PUSH_SEL = 0.25


def _batch_len(batch) -> int:
    """Row count of a batch in either carry layout.

    Row-major batches are plain lists of carry tuples; columnar batches
    are ``(n, slots)`` pairs (slots are parallel per-step row lists); a
    finished pipeline's output is the plain result list.
    """
    return batch[0] if type(batch) is tuple else len(batch)

#: Arithmetic / comparison operators as Python source fragments.
_ARITH_SRC = {"+": "+", "-": "-", "*": "*", "DIV": "//", "MOD": "%"}
_CMP_SRC = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class Operator:
    """One node of a branch's physical pipeline.

    ``actual_rows`` accumulates the operator's output cardinality over
    every execution of the owning plan; ``explain()`` divides by the
    execution count so the reported actuals stay commensurable with the
    per-execution estimates.
    """

    __slots__ = ("label", "est_rows", "actual_rows", "executions")

    def __init__(self, label: str, est_rows: float | None = None) -> None:
        self.label = label
        self.est_rows = est_rows
        self.actual_rows = 0
        self.executions = 0

    def describe(self) -> str:
        return self.label

    def explain_line(self, per: int | None = None) -> str:
        """``LABEL [est=.. act=..]``; ``per`` overrides the divisor for
        the accumulated actuals (defaults to this operator's own runs)."""
        runs = per if per is not None else self.executions
        act = f"{self.actual_rows / runs:.1f}" if runs else "-"
        if self.est_rows is not None:
            return f"{self.describe()}  [est={self.est_rows:.1f} act={act}]"
        return f"{self.describe()}  [act={act}]"


class Scan(Operator):
    """Emit every source row once per incoming batch row.

    As the leading operator (batch ``[()]``) this is a plain scan;
    mid-pipeline it is the cross-product fallback for a binding with no
    usable equality key.  ``fn(rows, batch)`` is generated code emitting
    the step's carry layout.
    """

    __slots__ = ("source", "fn", "pushdown")

    def __init__(self, source, fn, pushdown=None) -> None:
        super().__init__(f"SCAN {source.describe()}")
        self.source = source
        self.fn = fn
        #: Storage pushdown (plans.ScanPushdown or None): a cold
        #: store-backed relation decodes only live columns of matching
        #: partitions; every other source ignores it.
        self.pushdown = pushdown

    def run(self, ctx, batch):
        if not batch:
            return batch
        rows = self.source.scan_rows(ctx, self.pushdown)
        ctx.stats.rows_scanned += len(rows) * _batch_len(batch)
        return self.fn(rows, batch)


class IndexLookup(Operator):
    """One hash probe with an environment-independent (constant) key.

    The bucket is fetched once and shared by the whole batch — the
    batched form of a constant-restricted scan.
    """

    __slots__ = ("source", "positions", "key_fn", "fn")

    def __init__(self, source, positions: tuple[int, ...], key_fn, fn) -> None:
        super().__init__(f"INDEXLOOKUP {source.describe()}{list(positions)}")
        self.source = source
        self.positions = positions
        self.key_fn = key_fn
        self.fn = fn

    def run(self, ctx, batch):
        if not batch:
            return batch
        _rows, index_provider = self.source.rows_and_indexable(ctx)
        index = index_provider(self.positions)
        bucket = index.lookup(self.key_fn())
        ctx.stats.index_lookups += 1
        ctx.stats.rows_scanned += len(bucket) * _batch_len(batch)
        return self.fn(bucket, batch)


class HashJoin(Operator):
    """Hash the step's whole source on the key positions, probe per row.

    The build side is the *entire* input: stored relations answer with
    their version-cached hash indexes, fixpoint variables (deltas, new
    values) are hashed once per execution context — there is no
    per-tuple index maintenance anywhere in the loop.  ``fn`` is the
    generated probe loop over the index's one dict, building each key in
    the index's own form (a one-column key is the bare value, so a probe
    allocates no key tuple).  A loop generated for a unique index
    (``LoopStep.unique``) takes ``get(key)`` as a row or None.

    When the cost model gates a selective single-variable filter into
    the join (``push_fn``), the probe goes through a per-execution
    memo of *filtered* buckets: each distinct key's bucket is filtered
    once per execution, so repeated probes (and every downstream slot
    expansion) see only surviving rows.
    """

    __slots__ = ("source", "positions", "fn", "push_fn")

    def __init__(
        self, source, positions: tuple[int, ...], fn, push_fn=None, push_desc: str = ""
    ) -> None:
        label = f"HASHJOIN {source.describe()} build{list(positions)}"
        if push_fn is not None:
            label += f" pushfilter[{push_desc}]"
        super().__init__(label)
        self.source = source
        self.positions = positions
        self.fn = fn
        self.push_fn = push_fn

    def run(self, ctx, batch):
        if not batch:
            return batch
        _rows, index_provider = self.source.rows_and_indexable(ctx)
        index = index_provider(self.positions)
        get = index.buckets.get
        if self.push_fn is not None:
            get = self._pushed_get(ctx, index)
        stats = ctx.stats
        stats.index_lookups += _batch_len(batch)
        out = self.fn(get, batch, _EMPTY)
        stats.rows_scanned += _batch_len(out)
        return out

    def _pushed_get(self, ctx, index):
        """A ``get`` over ``index``'s filtered buckets (or, in its unique
        form, rows), memoized per distinct key.

        The memo lives on the execution context keyed by this operator
        *object* (not its id — a recycled id after garbage collection
        must never inherit another operator's filter), holding a strong
        reference to the bucket dict it was filtered from and checked by
        identity — so an index rebuilt after a relation mutation (or a
        fresh per-iteration delta index) starts a fresh memo, while
        repeated executions against the same index pay the filter once
        per key.
        """
        buckets = index.buckets
        entry = ctx.pushed_buckets.get(self)
        if entry is None or entry[0] is not buckets:
            memo: dict = {}
            ctx.pushed_buckets[self] = (buckets, memo)
        else:
            memo = entry[1]
        keep = self.push_fn
        raw_get = buckets.get
        memo_get = memo.get

        if index.unique:

            def get_row(key):
                row = memo_get(key, memo)  # the memo itself marks "not seen"
                if row is memo:
                    row = raw_get(key)
                    row = memo[key] = row if row is not None and keep(row) else None
                return row

            return get_row

        def get(key, default):
            bucket = memo_get(key)
            if bucket is None:
                raw = raw_get(key)
                bucket = memo[key] = (
                    [r for r in raw if keep(r)] if raw else default
                )
            return bucket

        return get


class Filter(Operator):
    """Generated comparison conjuncts applied over the whole batch."""

    __slots__ = ("fn",)

    def __init__(self, descs: tuple[str, ...], fn) -> None:
        super().__init__(f"FILTER [{', '.join(descs)}]")
        self.fn = fn

    def run(self, ctx, batch: list) -> list:
        if not batch:
            return batch
        return self.fn(batch)


class ResidualFilter(Operator):
    """The row-major residual: the reference evaluator, once per row
    (``executor="rowbatch"``); the carry keeps whole rows for exactly
    the variables the predicate reads."""

    __slots__ = ("pred", "var_rows")

    def __init__(self, pred: ast.Pred, var_rows) -> None:
        super().__init__(f"RESIDUAL {render_pred(pred)}")
        #: (var, schema, carry position of the var's whole row) triples.
        self.var_rows = tuple(var_rows)

        self.pred = pred

    def run(self, ctx, batch: list) -> list:
        if not batch:
            return batch
        ctx.stats.residual_checks += len(batch)
        ctx.stats.residual_evals += len(batch)  # one evaluator call per row
        evaluator = ctx.evaluator
        pred = self.pred
        var_rows = self.var_rows
        out = []
        append = out.append
        for envt in batch:
            env = {var: (envt[pos], schema) for var, schema, pos in var_rows}
            if evaluator.eval_pred(pred, env):
                append(envt)
        return out


class BatchedResidualFilter(ResidualFilter):
    """Columnar residual: each row is keyed by what the predicate reads,
    the distinct keys (the *groups*) are decided at once by the compiled
    :class:`GroupResidual`, and survivors are compressed out of every
    live slot.  ``backend`` runs the sub-plans: ``batch`` under the
    columnar and sharded pipelines, ``vector`` under a vector tail."""

    __slots__ = ("program", "key_fn", "keep_slots", "backend")

    def __init__(self, program, key_fn, keep_slots, backend) -> None:
        super().__init__(program.pred, ())
        self.label += f"  per group <{', '.join(f'{v}.{a}' for v, a in program.items)}>"
        self.program = program
        self.key_fn = key_fn
        self.keep_slots = tuple(keep_slots)
        self.backend = backend

    def explain_line(self, per: int | None = None) -> str:
        lines = self.program.root.explain_lines("  ", self.backend.name)
        return "\n".join([super().explain_line(per), *lines])

    def run(self, ctx, batch):
        n, slots = batch
        keep = self.keep_slots
        if n == 0:
            return (0, [slots[i] for i in keep])
        keys = self.key_fn(n, slots)
        groups = set(keys)
        ctx.stats.residual_checks += n
        ctx.stats.residual_groups += len(groups)
        hits = self.program.root.run(ctx, groups, self.backend)
        if len(hits) == len(groups):
            return (n, [slots[i] for i in keep])
        mask = list(map(hits.__contains__, keys))
        kept = [list(compress(slots[i], mask)) for i in keep]
        return (len(kept[0]) if kept else sum(mask), kept)


GroupResidual = namedtuple("GroupResidual", "pred items root plans")
GroupResidual.__doc__ = """A residual conjunct compiled as a query over its groups (by
:func:`repro.compiler.plans.compile_residual`): ``items`` are the ``(var,
attr)`` pairs of the group key (none: one constant column), ``root`` the
set algebra deciding a set of keys, ``plans`` its compiled semi-joins."""


class _GroupNode:
    """A node of a residual's set algebra: ``run(ctx, groups, backend)``
    is the subset of the key tuples ``groups`` that satisfies it."""

    __slots__ = ("label", "parts", "plan")

    def __init__(self, label: str, parts: tuple = (), plan=None) -> None:
        self.label = label
        self.parts = parts
        self.plan = plan

    def explain_lines(self, indent: str, executor: str) -> list[str]:
        """This node and its sub-plans, headed by the ``executor`` they run on."""
        lines = [f"{indent}{self.label}"]
        if self.plan is not None:
            lines.extend(f"{indent}  {line}" for line in self.plan.explain(executor).splitlines())
        for part in self.parts:
            lines.extend(part.explain_lines(indent + "  ", executor))
        return lines


class GroupTest(_GroupNode):
    """The quantifier-free part: one generated predicate over the key."""

    __slots__ = ("fn",)

    def __init__(self, desc: str, fn) -> None:
        super().__init__(f"TEST {desc}")
        self.fn = fn

    def run(self, ctx, groups: set, backend) -> set:
        return self.fn(groups)


class GroupLogic(_GroupNode):
    """``AND`` restricts (a part decides its predecessor's survivors),
    ``OR`` is the union (a part decides the groups not yet in it),
    ``NOT`` the complement."""

    __slots__ = ()

    def run(self, ctx, groups: set, backend) -> set:
        if self.label == "NOT":
            return groups - self.parts[0].run(ctx, groups, backend) if groups else groups
        accepted: set = set()
        for part in self.parts:
            hit = part.run(ctx, groups, backend) if groups else groups
            if self.label == "AND":
                groups = hit
            else:
                accepted |= hit
                groups = groups - hit
        return groups if self.label == "AND" else accepted


class GroupSemiJoin(_GroupNode):
    """``SOME x IN R (Q)`` as the compiled plan ``{<g> OF EACH g IN
    @groups, EACH x IN R: Q}``, the group set bound as the apply value
    ``token`` on the parent's context (its db or snapshot, params and
    fixpoint values)."""

    __slots__ = ("token",)

    def __init__(self, label: str, plan, token) -> None:
        super().__init__(label, plan=plan)
        self.token = token

    def run(self, ctx, groups: set, backend) -> set:
        if not groups:
            return groups
        ctx.apply_values[self.token] = groups
        out: set = set()
        for branch in self.plan.branches:
            out.update(row[0] for row in branch.execute_batch(ctx, backend.pipeline_for(branch)))
        return out


class GroupEvaluated(_GroupNode):
    """The one residual shape still interpreted: a range no plan can
    bind, still correlated with the row once inline queries are unnested
    (an open constructor application, a selector with a correlated
    argument, an inline query with a target list), decided by the
    reference evaluator once per group."""

    __slots__ = ("pred", "var", "schema")

    def __init__(self, label: str, pred: ast.Pred, var: str, schema) -> None:
        super().__init__(f"EVALUATED {label}  (per group)")
        self.pred = pred
        self.var = var
        self.schema = schema

    def run(self, ctx, groups: set, backend) -> set:
        ctx.stats.residual_evals += len(groups)
        eval_pred, pred, var, schema = ctx.evaluator.eval_pred, self.pred, self.var, self.schema
        return {key for key in groups if eval_pred(pred, {var: (key, schema)})}


class Project(Operator):
    """Positional target extraction (or the identity branch's one row).

    When liveness has already reduced the carry to exactly the target
    tuple, the projection is the identity and the batch passes through
    untouched.
    """

    __slots__ = ("fn",)

    def __init__(self, desc: str, fn) -> None:
        super().__init__(f"PROJECT {desc}")
        self.fn = fn  # None => identity

    def run(self, ctx, batch: list) -> list:
        out = batch if self.fn is None else self.fn(batch)
        ctx.stats.tuples_emitted += len(out)
        return out


class Dedup(Operator):
    """Union with duplicate elimination: set semantics over the branches."""

    def __init__(self) -> None:
        super().__init__("DEDUP")

    def absorb(self, batch: list, out: set) -> None:
        before = len(out)
        out.update(batch)
        self.actual_rows += len(out) - before
        self.executions += 1


class DeltaApply(Operator):
    """``produced - known``: the semi-naive differential application.

    The fixpoint driver routes every per-iteration result through one of
    these per fixpoint variable, so the explain report shows how many
    genuinely fresh tuples each iteration wave contributed.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"DELTAAPPLY {label}")

    def apply(self, produced: set, known) -> set:
        fresh = produced - known
        self.actual_rows += len(fresh)
        self.executions += 1
        return fresh


# ---------------------------------------------------------------------------
# Row-major lowering (rowbatch): priced loop steps -> flat-carry pipeline
# ---------------------------------------------------------------------------
#
# Carry layouts are tuples of *items*: ("attr", var, idx) carries one
# attribute value, ("row", var) carries a whole bound row (needed only
# by residual predicates and VarRef targets).  An attr item is dropped
# from a layout whenever the same variable's whole row is live there.


def _bound_schema(schemas, var: str):
    """``var``'s schema: a variable bound nowhere is the evaluator's error."""
    schema = schemas.get(var)
    if schema is None:
        raise EvaluationError(f"unbound tuple variable {var!r}")
    return schema


def _op_src(table: dict, op: str, kind: str) -> str:
    """An operator's source fragment; an unknown one is the evaluator's error."""
    src = table.get(op)
    if src is None:
        raise EvaluationError(f"unknown {kind} operator {op!r}")
    return src


def _term_items(term: ast.Term, schemas) -> list:
    """The carry items a term reads."""
    if isinstance(term, (ast.Const, ast.ParamRef)):
        return []
    if isinstance(term, ast.AttrRef):
        return [("attr", term.var, _bound_schema(schemas, term.var).index_of(term.attr))]
    if isinstance(term, ast.VarRef):
        _bound_schema(schemas, term.var)
        return [("row", term.var)]
    if isinstance(term, ast.Arith):
        return _term_items(term.left, schemas) + _term_items(term.right, schemas)
    if isinstance(term, ast.TupleCons):
        return [item for sub in term.items for item in _term_items(sub, schemas)]
    raise EvaluationError(f"not a term: {term!r}")


class _CodeGen:
    """Generates operator inner loops against flat carry layouts.

    Every term compiles: a variable bound nowhere, an unknown operator
    or a non-term raises the :class:`~repro.errors.EvaluationError` the
    reference evaluator raises for it.  ``env`` tells :meth:`attr_expr`
    and :meth:`row_expr` where bound variables live — here carry
    positions, in :class:`_ColGen` slot loop names.
    """

    def __init__(self, schemas, params: dict) -> None:
        self.schemas = schemas
        self.ns: dict = {"_params": params}
        self._n = 0
        #: Parameter name → the local a generated function reads it into.
        self._param_locals: dict[str, str] = {}

    def const(self, value) -> str:
        """Bind a constant into the namespace (no repr round-trips)."""
        name = f"_c{self._n}"
        self._n += 1
        self.ns[name] = value
        return name

    def define(self, name: str, args: str, body: str):
        """``def name(args):`` over ``body`` (indented source lines).  A
        parameter the body reads (its ``_pN_`` local, a name no other
        generated identifier contains) is fetched once per call, not per row."""
        reads = "".join(
            f"    {local} = _params[{param!r}]\n"
            for param, local in self._param_locals.items() if local in body
        )
        exec(f"def {name}({args}):\n{reads}{body}", self.ns)  # noqa: S102 - own AST only
        return self.ns[name]

    # -- expressions --------------------------------------------------------

    def term_expr(self, term: ast.Term, env: dict, cur_var: str | None) -> str:
        """Python source for a term; ``cur_var``'s row is ``r``."""
        if isinstance(term, ast.Const):
            return self.const(term.value)
        if isinstance(term, ast.ParamRef):
            locals_ = self._param_locals  # "_p1_" is no part of "_p10_"
            return locals_.setdefault(term.name, f"_p{len(locals_)}_")
        if isinstance(term, ast.AttrRef):
            idx = _bound_schema(self.schemas, term.var).index_of(term.attr)
            return self.attr_expr(term.var, idx, env, cur_var)
        if isinstance(term, ast.VarRef):
            return self.row_expr(term.var, env, cur_var)
        if isinstance(term, ast.Arith):
            left = self.term_expr(term.left, env, cur_var)
            right = self.term_expr(term.right, env, cur_var)
            return f"({left} {_op_src(_ARITH_SRC, term.op, 'arithmetic')} {right})"
        if isinstance(term, ast.TupleCons):
            return _tuple_src([self.term_expr(i, env, cur_var) for i in term.items])
        raise EvaluationError(f"not a term: {term!r}")

    def attr_expr(self, var: str, idx: int, pos_of: dict, cur_var: str | None) -> str:
        if var == cur_var:
            return f"r[{idx}]"
        pos = pos_of.get(("attr", var, idx))
        if pos is not None:
            return f"e[{pos}]"
        return f"{self.row_expr(var, pos_of, None)}[{idx}]"

    def row_expr(self, var: str, pos_of: dict, cur_var: str | None) -> str:
        if var == cur_var:
            return "r"
        pos = pos_of.get(("row", var))
        if pos is None:
            raise EvaluationError(f"unbound tuple variable {var!r}")
        return f"e[{pos}]"

    def item_expr(self, item, pos_of: dict, cur_var: str | None) -> str:
        if item[0] == "row":
            return self.row_expr(item[1], pos_of, cur_var)
        return self.attr_expr(item[1], item[2], pos_of, cur_var)

    def cmp_expr(self, conj: ast.Cmp, env: dict, cur_var: str | None = None) -> str:
        left = self.term_expr(conj.left, env, cur_var)
        right = self.term_expr(conj.right, env, cur_var)
        return f"({left} {_op_src(_CMP_SRC, conj.op, 'comparison')} {right})"


def _tuple_src(exprs: list[str]) -> str:
    if not exprs:
        return "()"
    return "(" + ", ".join(exprs) + ",)"


def _key_src(exprs: list[str]) -> str:
    """A hash-index key in :func:`~repro.relational.indexes.key_getter`'s
    form: the bare value of one expression, the tuple of several."""
    return exprs[0] if len(exprs) == 1 else _tuple_src(exprs)


class BranchPipeline:
    """The lowered physical form of one branch plan.

    ``step_ops[i]`` holds the access operator (plus optional filter) of
    the ``i``-th binding step, so the executor can keep the per-step
    actual binding counts the tuple interpreter reports; ``tail_ops``
    are the residual filter (when present) and the projection.

    ``columnar`` marks pipelines whose carries are struct-of-arrays
    slots; ``fused`` marks pipelines whose final access/filter operator
    emits the projected result directly (no standalone Project pass).
    """

    __slots__ = ("step_ops", "tail_ops", "columnar", "fused")

    def __init__(self, step_ops, tail_ops, columnar=False, fused=False) -> None:
        self.step_ops = step_ops
        self.tail_ops = tail_ops
        self.columnar = columnar
        self.fused = fused

    @property
    def executions(self) -> int:
        """Runs so far (the leading operator runs on every one)."""
        return next(self.operators()).executions

    def operators(self):
        for ops in self.step_ops:
            yield from ops
        yield from self.tail_ops

    def explain(self, indent: str = "") -> str:
        return "\n".join(
            f"{indent}{line}"
            for op in self.operators()
            for line in op.explain_line().splitlines()
        )


def run_pipeline(pipeline: BranchPipeline, ctx) -> tuple[list, list[int], list[int]]:
    """Run a lowered pipeline: ``(batch, step_counts, op_counts)``, the
    counts for the caller to tally (``BranchPlan.tally``) — at once, or
    serially after a shard worker finishes."""
    step_counts: list[int] = []
    op_counts: list[int] = []
    batch = (1, []) if pipeline.columnar else [()]
    for ops in pipeline.step_ops:
        for op in ops:
            batch = op.run(ctx, batch)
            op_counts.append(_batch_len(batch))
        step_counts.append(_batch_len(batch))
    for op in pipeline.tail_ops:
        batch = op.run(ctx, batch)
        op_counts.append(_batch_len(batch))
    if pipeline.fused:
        # The fused final operator emitted the projection itself.
        ctx.stats.tuples_emitted += len(batch)
    return batch, step_counts, op_counts


def lower_branch(
    steps,
    residual: ast.Pred,
    schemas,
    target_terms,
    target_desc: str,
    params: dict,
    est_out: float | None = None,
    residuals: dict | None = None,
) -> BranchPipeline:
    """Lower priced loop steps into the row-major operator pipeline.

    Compiled ``residuals`` go unused: :class:`ResidualFilter` interprets.
    """
    gen = _CodeGen(schemas, params)
    has_residual = not isinstance(residual, ast.TruePred)

    # The pipeline's entries, each with the carry items it reads.
    entries: list[tuple[str, object]] = []
    entry_items: list[list] = []
    access_entry: dict[int, int] = {}
    for s, step in enumerate(steps):
        access_entry[s] = len(entries)
        entries.append(("access", step))
        entry_items.append([i for term in step.key_terms for i in _term_items(term, schemas)])
        if step.filter_conjs:
            entries.append(("filter", step))
            entry_items.append([
                i
                for conj in step.filter_conjs
                for i in _term_items(conj.left, schemas) + _term_items(conj.right, schemas)
            ])
        if step.residual_preds:
            # Single-variable residuals (memberships, quantifiers) run
            # right after their step binds; they read the whole row.
            entries.append(("step_residual", step))
            entry_items.append([("row", step.var)])
    if has_residual:
        entries.append(("residual", residual))
        entry_items.append(
            [("row", v) for v in sorted(free_tuple_vars(residual)) if v in schemas]
        )
    if target_terms is None:
        project_items = [("row", steps[0].var)]
    else:
        project_items = [i for term in target_terms for i in _term_items(term, schemas)]
    entries.append(("project", target_terms))
    entry_items.append(project_items)

    # Liveness: the carry layout after step s holds every item some
    # later entry reads, restricted to variables already bound; whole
    # rows subsume their attribute items.
    bound_rank = {step.var: s for s, step in enumerate(steps)}
    layouts: list[tuple] = []
    for s in range(len(steps)):
        k = access_entry[s]
        ordered: dict = {}
        for j in range(k + 1, len(entries)):
            for item in entry_items[j]:
                if bound_rank.get(item[1], len(steps)) <= s:
                    ordered.setdefault(item, None)
        rows_live = {item[1] for item in ordered if item[0] == "row"}
        layouts.append(
            tuple(
                item
                for item in ordered
                if item[0] == "row" or item[1] not in rows_live
            )
        )

    def positions(layout: tuple) -> dict:
        return {item: pos for pos, item in enumerate(layout)}

    # Generate one operator per entry.
    step_ops: list[list[Operator]] = []
    tail_ops: list[Operator] = []
    prev_pos: dict = {}
    current: list[Operator] = []
    for (kind, payload), _items in zip(entries, entry_items):
        if kind == "access":
            step = payload
            s = bound_rank[step.var]
            layout = layouts[s]
            emits = [gen.item_expr(item, prev_pos, step.var) for item in layout]
            arity = len(step.schema.attribute_names)
            identity = emits == [f"r[{i}]" for i in range(arity)]
            emit_src = "r" if identity else _tuple_src(emits)
            if step.key_positions:
                key_exprs = [
                    gen.term_expr(term, prev_pos, None) for term in step.key_terms
                ]
                if all(not free_tuple_vars(term) for term in step.key_terms):
                    # Constant key: one lookup shared by the batch.
                    key_fn = gen.define("_key", "", f"    return {_key_src(key_exprs)}\n")
                    fn = gen.define(
                        "_lookup",
                        "bucket, batch",
                        f"    return [{emit_src} for e in batch for r in bucket]\n",
                    )
                    op: Operator = IndexLookup(
                        step.source, step.key_positions, key_fn, fn
                    )
                else:
                    key = _key_src(key_exprs)
                    probe = f"get({key}, EMPTY)"
                    if step.unique:  # a row or None: bind it, no bucket loop
                        probe = f"[get({key})] if r is not None"
                    fn = gen.define(
                        "_join",
                        "get, batch, EMPTY",
                        f"    return [{emit_src} for e in batch for r in {probe}]\n",
                    )
                    op = HashJoin(step.source, step.key_positions, fn)
            else:
                body = f"    return [{emit_src} for e in batch for r in rows]\n"
                if identity:
                    # The common leading scan copies nothing.
                    body = (
                        "    if len(batch) == 1:\n"
                        "        return list(rows)\n" + body
                    )
                fn = gen.define("_scan", "rows, batch", body)
                op = Scan(step.source, fn, step.pushdown)
            current = [op]
            step_ops.append(current)
            prev_pos = positions(layout)
        elif kind == "filter":
            step = payload
            conds = [gen.cmp_expr(conj, prev_pos) for conj in step.filter_conjs]
            fn = gen.define(
                "_filter",
                "batch",
                f"    return [e for e in batch if {' and '.join(conds)}]\n",
            )
            current.append(Filter(step.filter_descs, fn))
        elif kind in ("step_residual", "residual"):
            pred = conjoin(payload.residual_preds) if kind == "step_residual" else payload
            reads = [v for v in sorted(free_tuple_vars(pred)) if v in schemas]
            op = ResidualFilter(pred, [(v, schemas[v], prev_pos[("row", v)]) for v in reads])
            (current if kind == "step_residual" else tail_ops).append(op)
        else:  # project
            single = target_terms is None
            if single:
                exprs = [gen.row_expr(steps[0].var, prev_pos, None)]
            else:
                exprs = [gen.term_expr(term, prev_pos, None) for term in target_terms]
            identity = (
                not single
                and len(exprs) == len(prev_pos)
                and exprs == [f"e[{i}]" for i in range(len(exprs))]
            )
            if identity:
                fn = None
            else:
                out_src = exprs[0] if single else _tuple_src(exprs)
                fn = gen.define(
                    "_project",
                    "batch",
                    f"    return [{out_src} for e in batch]\n",
                )
            tail_ops.append(Project(target_desc, fn))

    # Attach the optimizer's cumulative estimates for explain().
    for s, ops in enumerate(step_ops):
        ops[-1].est_rows = steps[s].est_cumulative
    tail_ops[-1].est_rows = est_out
    return BranchPipeline(step_ops, tail_ops)


# ---------------------------------------------------------------------------
# The step walk and its row-slot kernels: struct-of-arrays carries
# ---------------------------------------------------------------------------
#
# A columnar batch is ``(n, slots)``: ``n`` is the row count and each
# slot is a list of *source rows* (one slot per still-live binding
# variable, in binding order), all aligned — slot_i[t] is the row the
# t-th carry binds for that variable.  This is a late-materialized
# struct-of-arrays layout: no attribute value is copied between
# operators; a join expands each live slot with C-level kernels
# (map/itemgetter column slices, chain/repeat expansion, compress
# filtering) and only the final projection materializes result tuples —
# fused into the producing access or filter operator whenever no
# residual predicate follows it.

#: C-level kernels shared by every generated columnar function.
_COLUMNAR_NS = {
    "_fi": chain.from_iterable,
    "_rep": repeat,
    "_cmp": compress,
    "_ig": itemgetter,
    "_isnot": is_not,
    "_len": len,
    "_list": list,
    "_map": map,
    "_zip": zip,
    "_range": range,
    "_sum": sum,
}


class _ColGen(_CodeGen):
    """Generates columnar kernels over slot-of-rows carries.

    ``touched`` accumulates the bound variables whose slot expressions
    the generated source actually referenced — the fused-emit pass
    resets it, generates its target/condition sources, and zips exactly
    the touched slots (structural liveness, no source re-parsing).
    """

    def __init__(self, schemas, params: dict) -> None:
        super().__init__(schemas, params)
        self.ns.update(_COLUMNAR_NS)
        self.touched: set[str] = set()

    def attr_expr(self, var: str, idx: int, names: dict, cur_var: str | None) -> str:
        return f"r[{idx}]" if var == cur_var else f"{self.row_expr(var, names, None)}[{idx}]"

    def row_expr(self, var: str, names: dict, cur_var: str | None) -> str:
        """Bound rows are reachable through ``names[var]`` (loop
        variables or group-key subscripts), the current step's source
        row through ``r``."""
        if var == cur_var:
            return "r"
        base = names.get(var)
        if base is None:
            raise EvaluationError(f"unbound tuple variable {var!r}")
        self.touched.add(var)
        return base


def _unpack_src(indices) -> str:
    return "".join(f"    s{i} = slots[{i}]\n" for i in sorted(set(indices)))


def _per_row_src(expr: str, read) -> str:
    """``return`` one ``expr`` per carry, reading slots ``read`` as ``e<j>``."""
    if not read:
        return f"    return [{expr}] * n\n"
    unp = ", ".join(f"e{j}" for j in sorted(read))
    srcs = ", ".join(f"slots[{j}]" for j in sorted(read))
    return f"    return [{expr} for {unp} in {srcs if len(read) == 1 else f'_zip({srcs})'}]\n"


class _ColumnarKernels:
    """The row-slot kernel set: generated C-level list code over
    ``(n, slots)`` carries of source rows.

    Every entry of ``executor="batch"``, and the residual filters and
    row-space projection of a vector pipeline after its
    :class:`VectorMaterialize` boundary.  ``step_conjs`` holds each
    step's Filter conjuncts; ``step_push`` its G2-pushed ones.
    """

    #: Row slots are the end of the line: no boundary to cross.
    tail = None

    def __init__(
        self, gen, steps, target_terms, target_desc, step_conjs, step_push, residuals, backend
    ):
        self.gen = gen
        self.steps = steps
        self.target_terms = target_terms
        self.target_desc = target_desc
        self.step_conjs = step_conjs
        self.step_push = step_push
        #: Residual conjunct -> its GroupResidual (BranchPlan.residuals).
        self.residuals = residuals
        #: The backend residual sub-plans are lowered for and run on.
        self.backend = backend

    def _key_columns(self, step, slot_of, names):
        """Source expressions for the probe-key columns."""
        gen = self.gen
        schemas = gen.schemas
        cols = []
        for term in step.key_terms:
            vars_ = free_tuple_vars(term)
            if (
                isinstance(term, ast.AttrRef)
                and term.var in slot_of
                and schemas.get(term.var) is not None
            ):
                idx = schemas[term.var].index_of(term.attr)
                cols.append(f"_map(_ig({idx}), s{slot_of[term.var]})")
            elif not vars_:
                cols.append(f"_rep({gen.term_expr(term, {}, None)})")
            else:
                expr = gen.term_expr(term, names, None)
                read = sorted(vars_, key=slot_of.get)
                if len(read) == 1:
                    j = slot_of[read[0]]
                    cols.append(f"[{expr} for e{j} in s{j}]")
                else:
                    unp = ", ".join(f"e{slot_of[v]}" for v in read)
                    srcs = ", ".join(f"s{slot_of[v]}" for v in read)
                    cols.append(f"[{expr} for {unp} in _zip({srcs})]")
        return cols

    def _emit_comprehension(self, step, slot_of, names, conds_pairs, arg_rows: str, n_known):
        """The fused final pass: access + filter + project in one loop."""
        gen = self.gen
        var = step.var
        gen.touched = set()
        if self.target_terms is None:
            target = gen.row_expr(self.steps[0].var, names, var)
        else:
            target = _tuple_src([gen.term_expr(t, names, var) for t in self.target_terms])
        cond_srcs = [gen.cmp_expr(conj, names, var) for conj, _desc in conds_pairs]
        cond = f" if {' and '.join(cond_srcs)}" if cond_srcs else ""
        read = [v for v in sorted(slot_of, key=slot_of.get) if v in gen.touched]
        unp = ", ".join(f"e{slot_of[v]}" for v in read)
        srcs = ", ".join(f"s{slot_of[v]}" for v in read)
        if arg_rows == "_r":  # unique-index probes: a row or None per carry
            cond = " if " + " and ".join(["r is not None", *cond_srcs])
            if read:
                return f"    return [{target} for {unp}, r in _zip({srcs}, _r){cond}]\n"
            return f"    return [{target} for r in _r{cond}]\n"
        if arg_rows == "_b":  # hash-join buckets aligned with the batch
            if read:
                return (
                    f"    return [{target} for {unp}, _bk in _zip({srcs}, _b) "
                    f"for r in _bk{cond}]\n"
                )
            return f"    return [{target} for _bk in _b for r in _bk{cond}]\n"
        # scan / constant-key bucket: one shared row source
        if read:
            if len(read) == 1:
                j = slot_of[read[0]]
                return (
                    f"    return [{target} for e{j} in s{j} "
                    f"for r in {arg_rows}{cond}]\n"
                )
            return (
                f"    return [{target} for {unp} in _zip({srcs}) "
                f"for r in {arg_rows}{cond}]\n"
            )
        if n_known:  # leading step: exactly one incoming carry
            if target == "r" and not cond and arg_rows == "rows":
                return "    return rows if type(rows) is list else _list(rows)\n"
            return f"    return [{target} for r in {arg_rows}{cond}]\n"
        return (
            f"    return [{target} for _t in _range(n) for r in {arg_rows}{cond}]\n"
        )

    def access(self, s, layout_before, layout_after, final):
        gen = self.gen
        step = self.steps[s]
        var = step.var
        slot_of = {v: i for i, v in enumerate(layout_before)}
        names = {v: f"e{slot_of[v]}" for v in slot_of}
        const_key = bool(step.key_positions) and all(
            not free_tuple_vars(t) for t in step.key_terms
        )
        is_join = bool(step.key_positions) and not const_key
        # A fused final access applies the last step's filter itself.
        conds_pairs = self.step_conjs[s] if final else []
        body = "    n, slots = batch\n" + _unpack_src(slot_of.values())

        if is_join:
            cols = self._key_columns(step, slot_of, names)
            key = cols[0] if len(cols) == 1 else f"_zip({', '.join(cols)})"
            # A unique index maps a key to its row: one get per carry and a
            # None test, no bucket to expand.
            if step.unique and final:
                body += f"    _r = _map(get, {key})\n"
                body += self._emit_comprehension(step, slot_of, names, conds_pairs, "_r", False)
            elif step.unique:
                body += f"    _r = _list(_map(get, {key}))\n"
                kept = [j for j in map(slot_of.get, layout_after) if j is not None]
                body += "    if None in _r:\n"
                body += "        _m = _list(_map(_isnot, _r, _rep(None)))\n"
                body += "        _r = _list(_cmp(_r, _m))\n"
                body += "".join(f"        s{j} = _list(_cmp(s{j}, _m))\n" for j in kept)
                outs = ["_r" if v == var else f"s{slot_of[v]}" for v in layout_after]
                body += f"    return (_len(_r), [{', '.join(outs)}])\n"
            elif final:
                body += f"    _b = _map(get, {key}, _rep(EMPTY))\n"
                body += self._emit_comprehension(step, slot_of, names, conds_pairs, "_b", False)
            else:
                body += f"    _b = _list(_map(get, {key}, _rep(EMPTY)))\n"
                body += "    _c = _list(_map(_len, _b))\n"
                outs = []
                for v in layout_after:
                    if v == var:
                        body += "    on = _list(_fi(_b))\n"
                        outs.append("on")
                    else:
                        j = slot_of[v]
                        body += f"    o{j} = _list(_fi(_map(_rep, s{j}, _c)))\n"
                        outs.append(f"o{j}")
                if outs:
                    body += f"    return (_len({outs[0]}), [{', '.join(outs)}])\n"
                else:
                    body += "    return (_sum(_c), [])\n"
            fn = gen.define("_join", "get, batch, EMPTY", body)
            push_fn, push_desc = self.step_push.get(s, (None, ""))
            return HashJoin(step.source, step.key_positions, fn, push_fn, push_desc)

        # Scan or constant-key IndexLookup: one shared row source.
        arg = "bucket" if const_key else "rows"
        leading = s == 0
        if final:
            body += self._emit_comprehension(step, slot_of, names, conds_pairs, arg, leading)
        elif leading:
            if var in layout_after:
                body += (
                    f"    {arg} = {arg} if type({arg}) is list else _list({arg})\n"
                    f"    return (_len({arg}), [{arg}])\n"
                )
            else:
                body += f"    return (_len({arg}), [])\n"
        else:
            body += f"    {arg} = {arg} if type({arg}) is list else _list({arg})\n"
            body += f"    _nr = _len({arg})\n"
            outs = []
            for v in layout_after:
                if v == var:
                    body += f"    on = {arg} * n\n"
                    outs.append("on")
                else:
                    j = slot_of[v]
                    body += f"    o{j} = _list(_fi(_map(_rep, s{j}, _rep(_nr))))\n"
                    outs.append(f"o{j}")
            body += f"    return (n * _nr, [{', '.join(outs)}])\n"
        if const_key:
            key_exprs = [gen.term_expr(t, {}, None) for t in step.key_terms]
            key_fn = gen.define(
                "_key", "", f"    return {_key_src(key_exprs)}\n"
            )
            fn = gen.define("_lookup", "bucket, batch", body)
            return IndexLookup(step.source, step.key_positions, key_fn, fn)
        fn = gen.define("_scan", "rows, batch", body)
        return Scan(step.source, fn, step.pushdown)

    def filter(self, s, layout_before, layout_after):
        slot_of = {v: i for i, v in enumerate(layout_before)}
        names = {v: f"e{slot_of[v]}" for v in slot_of}
        conds = []
        read: set = set()
        descs = []
        for conj, desc in self.step_conjs[s]:
            conds.append(self.gen.cmp_expr(conj, names))
            read |= free_tuple_vars(conj.left) | free_tuple_vars(conj.right)
            descs.append(desc)
        keep = [slot_of[v] for v in layout_after]
        cond = " and ".join(conds)
        body = "    n, slots = batch\n"
        read_idx = sorted(slot_of[v] for v in read if v in slot_of)
        body += _unpack_src(set(read_idx) | {slot_of[v] for v in layout_after})
        if not read_idx:
            kept = ", ".join(f"s{j}" for j in keep)
            body += (
                f"    if {cond}:\n        return (n, [{kept}])\n"
                f"    return (0, [{', '.join('[]' for _ in keep) }])\n"
            )
        else:
            if len(read_idx) == 1:
                j = read_idx[0]
                body += f"    _m = [{cond} for e{j} in s{j}]\n"
            else:
                unp = ", ".join(f"e{j}" for j in read_idx)
                srcs = ", ".join(f"s{j}" for j in read_idx)
                body += f"    _m = [{cond} for {unp} in _zip({srcs})]\n"
            outs = []
            for j in keep:
                body += f"    o{j} = _list(_cmp(s{j}, _m))\n"
                outs.append(f"o{j}")
            if outs:
                body += f"    return (_len({outs[0]}), [{', '.join(outs)}])\n"
            else:
                body += "    return (_sum(_m), [])\n"
        fn = self.gen.define("_filter", "batch", body)
        return Filter(tuple(descs), fn)

    def residual(self, pred, read_vars, layout_before, layout_after):
        program = self.residuals[pred]
        slot_of = {v: i for i, v in enumerate(layout_before)}
        # The sub-plans are lowered now, with their parent: no lowering is
        # left for a shard worker.
        for plan in program.plans:
            for branch in plan.branches:
                self.backend.pipeline_for(branch)
        schemas = self.gen.schemas
        key = _tuple_src(
            [f"e{slot_of[v]}[{schemas[v].index_of(a)}]" for v, a in program.items] or ["None"]
        )
        body = _per_row_src(key, {slot_of[v] for v, _a in program.items})
        key_fn = self.gen.define("_rkey", "n, slots", body)
        keep_slots = [slot_of[v] for v in layout_after]
        return BatchedResidualFilter(program, key_fn, keep_slots, self.backend)

    def project(self, layout_before):
        slot_of = {v: i for i, v in enumerate(layout_before)}
        names = {v: f"e{slot_of[v]}" for v in slot_of}
        body = "    n, slots = batch\n"
        if self.target_terms is None:
            body += f"    return slots[{slot_of[self.steps[0].var]}]\n"
        else:
            exprs = [self.gen.term_expr(t, names, None) for t in self.target_terms]
            read = {slot_of[v] for t in self.target_terms for v in free_tuple_vars(t)}
            body += _per_row_src(_tuple_src(exprs), read)
        fn = self.gen.define("_project", "batch", body)
        return Project(self.target_desc, fn)


def _step_walk(steps, residual, target_terms, step_conjs, kernels, fusable, est_out):
    """Lower priced loop steps through one kernel set.

    The walk decides everything the batch and vector lowerings share:
    the entries (access, filter, step residual, one per residual
    conjunct, project) with the variables each reads, whether Project
    (and the final step's filter) fuses into the last access — only
    when ``fusable`` and no residual follows — backward liveness and so
    each entry's slot layout before and after, where residual filters
    sit, and the est-row attachment.  ``kernels`` turns one entry at
    one layout into one operator.  An id-space kernel set names a
    ``tail`` set: the walk appends ``kernels.materialize(layout)``
    before the first residual entry and runs every later entry on the
    tail's kernels.  ``step_conjs[s]`` holds the ``(conj, desc)`` pairs
    step ``s``'s Filter entry applies.
    """
    bound_rank = {step.var: s for s, step in enumerate(steps)}

    def vars_of(terms) -> set:
        # A variable bound nowhere here fails in the kernel that reads it.
        return {v for term in terms for v in free_tuple_vars(term)}

    # --- the pipeline's entries, each with the variables it reads ---
    last = len(steps) - 1
    entries: list[tuple] = []
    for s, step in enumerate(steps):
        entries.append(("access", s, vars_of(step.key_terms)))
        if step_conjs[s]:
            sides = [side for conj, _desc in step_conjs[s] for side in (conj.left, conj.right)]
            entries.append(("filter", s, vars_of(sides)))
        for pred in step.residual_preds:
            entries.append(("step_residual", (s, pred), {step.var}))
    has_residual = not isinstance(residual, ast.TruePred)
    if has_residual:
        for conj in conjuncts(residual):
            entries.append(("residual", (last, conj), vars_of([conj]) & bound_rank.keys()))
    proj_reads = {steps[0].var} if target_terms is None else vars_of(target_terms)
    entries.append(("project", None, proj_reads))

    # --- fusion: Project (and the final step's filter) folds into the
    # producing access operator exactly when no residual follows it ---
    fuse = fusable and bool(steps) and not has_residual and not steps[last].residual_preds
    if fuse:
        # The folded entries are the trailing ones: no residual follows.
        folded = [e for e in entries if e[0] == "project" or e[:2] == ("filter", last)]
        entries = entries[: len(entries) - len(folded)]
        kind, payload, reads = entries[-1]
        entries[-1] = (kind, payload, reads.union(*(e[2] for e in folded)))

    # --- liveness: after entry k a slot survives iff some later entry
    # reads its variable ---
    n_entries = len(entries)
    after: list[set] = [set()] * n_entries
    running: set = set()
    for k in range(n_entries - 1, -1, -1):
        after[k] = set(running)
        running |= entries[k][2]

    # --- generation: one kernel call per entry ---
    step_ops: list[list[Operator]] = []
    tail_ops: list[Operator] = []
    layout: list[str] = []
    current: list[Operator] = []
    for k, (kind, payload, reads) in enumerate(entries):
        if kind == "project":  # standalone: a residual precedes it, or no fusion
            tail_ops.append(kernels.project(layout))
            continue
        s = payload if kind in ("access", "filter") else payload[0]
        final = kind == "access" and fuse and s == last
        layout_after = [] if final else [st.var for st in steps[: s + 1] if st.var in after[k]]
        if kind == "access":
            current = [kernels.access(s, layout, layout_after, final)]
            step_ops.append(current)
        elif kind == "filter":
            current.append(kernels.filter(s, layout, layout_after))
        else:
            if kernels.tail is not None:
                current.append(kernels.materialize(layout))
                kernels = kernels.tail
            read_vars = sorted(reads, key=bound_rank.get)
            op = kernels.residual(payload[1], read_vars, layout, layout_after)
            (current if kind == "step_residual" else tail_ops).append(op)
        layout = layout_after

    for s, ops in enumerate(step_ops):
        ops[-1].est_rows = steps[s].est_cumulative
    if tail_ops:
        tail_ops[-1].est_rows = est_out
    else:
        step_ops[-1][-1].est_rows = est_out
    return BranchPipeline(step_ops, tail_ops, columnar=True, fused=fuse)


def lower_branch_columnar(
    steps,
    residual: ast.Pred,
    schemas,
    target_terms,
    target_desc: str,
    params: dict,
    est_out: float | None = None,
    residuals: dict | None = None,
) -> BranchPipeline:
    """Lower priced loop steps into the columnar operator pipeline.

    The G2 pushdown prelude, then the step walk on the row-slot
    kernels, the ``residuals``' sub-plans lowered for ``batch``.
    """
    from .executors import get_backend  # executors imports this module

    gen = _ColGen(schemas, params)

    # --- G2: cost-gated pushdown of selective single-variable filters ---
    # A HashJoin step whose priced filter selectivity clears the
    # FILTER_PUSH_SEL gate filters its buckets per distinct key at probe
    # time; the conjuncts leave the Filter operator entirely.
    step_conjs: dict[int, list] = {}
    step_push: dict[int, tuple] = {}
    for s, step in enumerate(steps):
        kept: list = []
        push_srcs: list[str] = []
        push_descs: list[str] = []
        sel = getattr(step, "est_filter_sel", None)
        hash_join = bool(step.key_positions) and any(
            free_tuple_vars(t) for t in step.key_terms
        )
        allow = hash_join and sel is not None and sel <= FILTER_PUSH_SEL
        for conj, desc in zip(step.filter_conjs, step.filter_descs):
            if allow and (
                free_tuple_vars(conj.left) | free_tuple_vars(conj.right)
            ) <= {step.var}:
                push_srcs.append(gen.cmp_expr(conj, {}, step.var))
                push_descs.append(desc)
            else:
                kept.append((conj, desc))
        step_conjs[s] = kept
        if push_srcs:
            fn = gen.define(
                "_push", "r", "    return " + " and ".join(push_srcs) + "\n"
            )
            step_push[s] = (fn, ", ".join(push_descs))

    kernels = _ColumnarKernels(
        gen, steps, target_terms, target_desc, step_conjs, step_push,
        residuals or {}, get_backend("batch"),
    )
    return _step_walk(steps, residual, target_terms, step_conjs, kernels, True, est_out)


# ---------------------------------------------------------------------------
# Vector kernels: dictionary-encoded columns, int-id carries
# ---------------------------------------------------------------------------
#
# Vector batches are ``(n, islots)`` pairs whose slots carry **row
# indexes** — int64 numpy arrays — into per-step encoded tables, instead
# of lists of Python row objects; ``.tolist()`` happens only where
# indexes turn back into rows or values (:class:`VectorMaterialize`,
# the decode in :class:`VectorProject`).  There is one kernel set and it
# needs numpy: ``VectorBackend.pipeline_for`` never hands a branch to
# these operators in a process where numpy does not import.
# Every kernel works on dense int ids: equality joins probe the build
# column's CSR layout (through a cached translation array when the two
# columns' dictionaries differ), comparison filters evaluate one
# verdict per *dictionary value* rather than per row, and projection
# deduplicates id tuples before decoding only the distinct survivors.
#
# Shapes the vector lowering does not cover fall back per branch to the
# columnar pipeline; residual predicates run past a
# :class:`VectorMaterialize` boundary on the row-slot kernels.

#: Ordered comparisons evaluated per dictionary value (see _filter_lut);
#: = and <> compare ids directly and never build a table.
_CMP_FNS = {"<": lt, "<=": le, ">": gt, ">=": ge}

#: Normalizing ``const OP attr`` to ``attr OP' const``.
_SWAPPED_CMP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class SourceRef:
    """A vector operator's handle to one binding step's source.

    ``key`` is the step's index in the branch, which names the step's
    encoded table in the per-execution ``ctx.vector_cache``.
    """

    __slots__ = ("key", "source", "pushdown")

    def __init__(self, key: int, source) -> None:
        self.key = key
        self.source = source
        #: Storage pushdown for scan-access steps (plans.ScanPushdown or
        #: None): a cold store-backed relation resolves to a partial
        #: encoded table holding only matching partitions' live columns.
        self.pushdown = None


def _encode_apply(rows, schema) -> EncodedTable:
    """Encode a fixpoint variable's rows with per-execution dictionaries.

    Fixpoint values have no stored :class:`Relation` whose persistent
    dictionaries they could borrow, so each (rows, ref) pair encodes
    with fresh ones; joins against stored relations bridge through the
    usual id-translation tables, which hash decoded values.
    """
    rows = rows if isinstance(rows, list) else list(rows)
    dicts = tuple(Dictionary() for _ in schema.attribute_names)
    return EncodedTable.from_rows(rows, dicts)


def _encoded_table(ctx, ref: SourceRef) -> EncodedTable:
    """Resolve the encoded table a vector operator reads.

    Resolution order: fixpoint variables (encoded per delta), then a
    cold relation's pushed-down partition scan, then the relation's own
    version-cached encoded view — at its pinned head when ``ctx.db`` is
    a snapshot.  Shard overrides never reach vector kernels.
    """
    source = ref.source
    if source.kind == "apply":
        rows = ctx.apply_values.get(source.token)
        if rows is None:
            raise EvaluationError(f"unbound fixpoint variable {source.token!r}")
        cache = ctx.vector_cache
        key = ("apply", ref.key)
        entry = cache.get(key)
        if entry is None or entry[0] is not rows:
            entry = (rows, _encode_apply(rows, source.schema))
            cache[key] = entry
        return entry[1]
    relation = ctx.db.relation(source.name)
    pushdown = ref.pushdown
    if pushdown is not None:
        # Scan-access pushdown: a partial encoded table holding only the
        # matching partitions' rows, dead columns left undecoded.  Decided
        # once per execution and cached per ref identity (two branches
        # share step indexes, not refs) with the ref held against id()
        # reuse, so every operator of the step reads the same table even
        # when the scan that fills it spends the relation's pushdown
        # budget (``Relation.scan_store``).
        cache = ctx.vector_cache
        key = ("pscan", id(ref))
        entry = cache.get(key)
        if entry is None or entry[0] is not ref:
            store = relation.scan_store
            table = None
            if store is not None:
                table = store.encoded_scan(
                    pushdown.projection, pushdown.selection, ctx.params
                )
            entry = (ref, table)
            cache[key] = entry
        if entry[1] is not None:
            return entry[1]
    return relation.encoded()


def _translation(ctx, src, dst):
    """Per-execution cached id-translation table between dictionaries.

    Both dictionaries only ever append, so a cached table can only be
    stale by being too short; the length stamps force a rebuild after
    either side grows, and the identity checks guard against ``id()``
    reuse after garbage collection.
    """
    cache = ctx.vector_cache
    key = ("xl", id(src), id(dst))
    entry = cache.get(key)
    if (
        entry is None
        or entry[0] is not src
        or entry[1] is not dst
        or entry[2] != len(src.values)
        or entry[3] != len(dst.values)
    ):
        entry = (src, dst, len(src.values), len(dst.values), translation(src, dst))
        cache[key] = entry
    return entry[4]


def _filter_lut(ctx, dictionary, op: str, value) -> bytearray:
    """One comparison verdict per dictionary value, cached per execution.

    The bytearray doubles as a numpy bool buffer (``frombuffer`` is zero
    copy), so the filter kernel gathers verdicts by id.  Rebuilt when the
    dictionary has grown since the cached build — never wrong in
    between, because ids are append-only.
    """
    cache = ctx.vector_cache
    key = ("lut", id(dictionary), op, value)
    entry = cache.get(key)
    if (
        entry is None
        or entry[0] is not dictionary
        or entry[1] != len(dictionary.values)
    ):
        cmp = _CMP_FNS[op]
        lut = bytearray(cmp(v, value) for v in dictionary.values)
        entry = (dictionary, len(lut), lut)
        cache[key] = entry
    return entry[2]


def _spec_value(spec, ctx):
    """Resolve a ``("const", v)`` / ``("param", name)`` value spec."""
    return spec[1] if spec[0] == "const" else ctx.params[spec[1]]


class VectorScan(Operator):
    """Leading scan over an encoded table: every row index, once."""

    __slots__ = ("ref", "keep")

    def __init__(self, ref: SourceRef, desc: str, keep: bool) -> None:
        super().__init__(f"VSCAN {desc}")
        self.ref = ref
        self.keep = keep

    def run(self, ctx, batch):
        table = _encoded_table(ctx, self.ref)
        ctx.stats.rows_scanned += table.n
        if not self.keep:
            return (table.n, [])
        np = get_numpy()
        return (table.n, [np.arange(table.n, dtype=np.int64)])


class VectorConstLookup(Operator):
    """Constant/parameter key access: one dense-id bucket for the batch.

    The key value resolves to an id through the column's dictionary
    (unseen value → id -1 → empty bucket, no scan at all); the bucket is
    a slice of the build table's probe structure shared by every
    incoming carry row.
    """

    __slots__ = ("ref", "position", "spec", "out_plan")

    def __init__(self, ref, desc, position, spec, out_plan) -> None:
        super().__init__(f"VLOOKUP {desc}[{position}]")
        self.ref = ref
        self.position = position
        self.spec = spec
        #: Output slot plan: -1 emits this step's matches, ``j >= 0``
        #: expands the incoming slot ``j`` alongside them.
        self.out_plan = out_plan

    def run(self, ctx, batch):
        n, slots = batch
        table = _encoded_table(ctx, self.ref)
        ctx.stats.index_lookups += 1
        vid = table.columns[self.position].dictionary.lookup(
            _spec_value(self.spec, ctx)
        )
        np = get_numpy()
        order, starts, counts = table.csr(self.position)
        if 0 <= vid < len(counts):
            start = starts[vid]
            bucket = order[start : start + counts[vid]]
        else:
            bucket = order[:0]
        m = len(bucket)
        ctx.stats.rows_scanned += m * n
        outs = []
        for item in self.out_plan:
            if item < 0:
                outs.append(bucket if n == 1 else np.tile(bucket, n))
            else:
                outs.append(np.repeat(slots[item], m))
        return (n * m, outs)


class VectorHashJoin(Operator):
    """Equality join as an int-id probe into the build side's CSR table.

    Probe-side ids translate into the build column's id space through a
    cached per-dictionary-pair translation array (None when both sides
    share one dictionary — a self-join column, where ids already agree);
    misses are -1 and fall out of the bounds check for free.  Matches
    expand with repeat/cumsum arithmetic over the CSR layout — no
    per-row Python at all.
    """

    __slots__ = (
        "ref",
        "build_pos",
        "probe_ref",
        "probe_pos",
        "probe_slot",
        "out_plan",
    )

    def __init__(
        self, ref, desc, build_pos, probe_ref, probe_pos, probe_slot, out_plan
    ) -> None:
        super().__init__(f"VJOIN {desc}[{build_pos}]")
        self.ref = ref
        self.build_pos = build_pos
        self.probe_ref = probe_ref
        self.probe_pos = probe_pos
        self.probe_slot = probe_slot
        self.out_plan = out_plan

    def run(self, ctx, batch):
        n, slots = batch
        build = _encoded_table(ctx, self.ref)
        probe = _encoded_table(ctx, self.probe_ref)
        ctx.stats.index_lookups += n
        pcol = probe.columns[self.probe_pos]
        pdict, bdict = pcol.dictionary, build.columns[self.build_pos].dictionary
        np = get_numpy()
        order, starts, counts = build.csr(self.build_pos)
        ng = len(counts)
        slot = slots[self.probe_slot]
        if ng == 0 or len(slot) == 0:
            empty = np.empty(0, dtype=np.int64)
            return (0, [empty for _ in self.out_plan])
        keys = pcol.np_ids()[slot]
        if pdict is not bdict:
            keys = np.frombuffer(_translation(ctx, pdict, bdict), dtype=np.int64)[keys]
            valid = (keys >= 0) & (keys < ng)
        else:
            # Ids are non-negative; the shared dictionary may still
            # have grown past this build table's probe structure.
            valid = keys < ng
        safe = np.where(valid, keys, 0)
        c = np.where(valid, counts[safe], 0)
        total = int(c.sum())
        ctx.stats.rows_scanned += total
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return (0, [empty for _ in self.out_plan])
        base = np.repeat(starts[safe], c)
        csum = np.cumsum(c)
        offs = np.arange(total, dtype=np.int64) - np.repeat(csum - c, c)
        self_idx = order[base + offs]
        outs = []
        for item in self.out_plan:
            if item < 0:
                outs.append(self_idx)
            else:
                outs.append(np.repeat(slots[item], c))
        return (total, outs)


class VectorFilter(Operator):
    """Single-column comparisons evaluated in id space.

    Equality and inequality compare ids directly — one dictionary lookup
    per batch, with id -1 meaning "value never encoded", which matches
    nothing (``=``) or everything (``<>``).  Ordered comparisons gather
    from a cached per-dictionary verdict table (:func:`_filter_lut`):
    one comparison per distinct value, not per row.
    """

    __slots__ = ("conds", "keep_plan")

    def __init__(self, conds, keep_plan, descs) -> None:
        super().__init__(f"VFILTER [{', '.join(descs)}]")
        #: (slot, ref, column position, op, value spec) per conjunct.
        self.conds = conds
        self.keep_plan = keep_plan

    def run(self, ctx, batch):
        n, slots = batch
        np = get_numpy()
        mask = None
        for slot_idx, ref, position, op, spec in self.conds:
            col = _encoded_table(ctx, ref).columns[position]
            ids = col.np_ids()[slots[slot_idx]]
            value = _spec_value(spec, ctx)
            if op == "=":
                m = ids == col.dictionary.lookup(value)
            elif op == "<>":
                m = ids != col.dictionary.lookup(value)
            else:
                lut = _filter_lut(ctx, col.dictionary, op, value)
                m = np.frombuffer(lut, dtype=np.bool_)[ids]
            mask = m if mask is None else mask & m
        outs = [slots[j][mask] for j in self.keep_plan]
        return (int(mask.sum()), outs)


class VectorMaterialize(Operator):
    """Boundary to the row-slot kernels: index slots become row slots.

    Emits the columnar carry — parallel lists of raw source rows — on
    which the step walk runs the remaining entries: residual filters
    and the row-space projection.
    """

    __slots__ = ("specs",)

    def __init__(self, specs) -> None:
        super().__init__("VMATERIALIZE")
        #: (index slot, ref) pairs in output slot order.
        self.specs = specs

    def run(self, ctx, batch):
        n, slots = batch
        outs = []
        for slot_idx, ref in self.specs:
            rows = _encoded_table(ctx, ref).rows
            outs.append([rows[i] for i in slots[slot_idx].tolist()])
        return (n, outs)


class VectorProject(Operator):
    """Projection with duplicate elimination in id space.

    Target tuples are gathered as id tuples, deduplicated as ints —
    multi-column ids pack into a single int64 key when the dictionary
    widths fit, then ``np.unique`` — and only the distinct survivors
    are decoded back to values.  Dedup cost becomes
    proportional to the distinct count, not the join fan-out.
    """

    __slots__ = ("terms", "single")

    def __init__(self, desc: str, terms, single: bool) -> None:
        super().__init__(f"VPROJECT {desc}  (id dedup)")
        #: ("col", slot, ref, position) | ("row", slot, ref) |
        #: ("const", value spec), in target order.
        self.terms = terms
        self.single = single

    def run(self, ctx, batch):
        n, slots = batch
        if self.single:
            _kind, slot_idx, ref = self.terms[0]
            rows = _encoded_table(ctx, ref).rows
            out = list({rows[i] for i in slots[slot_idx].tolist()})
            ctx.stats.tuples_emitted += len(out)
            return out
        proto: list = [None] * len(self.terms)
        dyn: list = []  # (target position, slot, decode list, id keys)
        for pos, term in enumerate(self.terms):
            kind = term[0]
            if kind == "const":
                proto[pos] = _spec_value(term[1], ctx)
            elif kind == "col":
                _k, slot_idx, ref, cpos = term
                col = _encoded_table(ctx, ref).columns[cpos]
                dyn.append((pos, slot_idx, col.dictionary.values, col))
            else:  # "row": dedup by row index, decode through raw rows
                _k, slot_idx, ref = term
                dyn.append((pos, slot_idx, _encoded_table(ctx, ref).rows, None))
        if not dyn:
            out = [tuple(proto)] if n else []
            ctx.stats.tuples_emitted += len(out)
            return out
        arrs = []
        for _pos, slot_idx, _dec, col in dyn:
            slot = slots[slot_idx]
            arrs.append(slot if col is None else col.np_ids()[slot])
        id_cols = self._distinct_np(get_numpy(), arrs, dyn)
        if id_cols is None:
            distinct = set(zip(*(a.tolist() for a in arrs)))
        else:
            distinct = zip(*(a.tolist() for a in id_cols))
        decoders = [(pos, dec) for pos, _slot, dec, _col in dyn]
        out = []
        append = out.append
        for gs in distinct:
            for (pos, dec), g in zip(decoders, gs):
                proto[pos] = dec[g]
            append(tuple(proto))
        ctx.stats.tuples_emitted += len(out)
        return out

    @staticmethod
    def _distinct_np(np, arrs, dyn):
        """Distinct id rows as per-term arrays, or None when the packed
        key would overflow int64 (caller hashes id tuples instead)."""
        if len(arrs) == 1:
            return [np.unique(arrs[0])]
        bits = []
        for (_pos, _slot, dec, _col), _a in zip(dyn, arrs):
            width = max(len(dec), 1)
            bits.append((width - 1).bit_length())
        if sum(bits) > 62:
            return None
        key = arrs[0].astype(np.int64, copy=True)
        for a, b in zip(arrs[1:], bits[1:]):
            key <<= b
            key |= a
        distinct = np.unique(key)
        cols = []
        rem = distinct
        for b in reversed(bits[1:]):
            cols.append(rem & ((1 << b) - 1))
            rem = rem >> b
        cols.append(rem)
        cols.reverse()
        return cols


def _const_spec(term, params):
    """``("const", v)`` / ``("param", name)`` for an environment-free term."""
    if isinstance(term, ast.Const):
        return ("const", term.value)
    if isinstance(term, ast.ParamRef):
        return ("param", term.name)
    return None


def _vector_cond(conj, bound_rank, s, schemas, params):
    """Normalize a filter conjunct to ``(var, position, op, spec)``.

    Accepts single-column ``attr OP const/param`` comparisons with the
    attribute on either side (the operator is mirrored when the constant
    is on the left); anything else returns None and the branch keeps the
    columnar kernels.
    """
    if not isinstance(conj, ast.Cmp) or conj.op not in _SWAPPED_CMP:
        return None
    for attr_side, other, op in (
        (conj.left, conj.right, conj.op),
        (conj.right, conj.left, _SWAPPED_CMP[conj.op]),
    ):
        if isinstance(attr_side, ast.AttrRef):
            rank = bound_rank.get(attr_side.var)
            schema = schemas.get(attr_side.var)
            if rank is None or rank > s or schema is None:
                continue
            spec = _const_spec(other, params)
            if spec is None:
                continue
            return (attr_side.var, schema.index_of(attr_side.attr), op, spec)
    return None


class _VectorKernels:
    """The id-space kernel set: numpy operators over ``(n, islots)``
    carries of int64 row indexes into each step's encoded table.

    Access, filter and the deduplicating projection are theirs; residual
    entries are not — the walk crosses to ``tail`` (the row-slot
    kernels) through :meth:`materialize` just before the first one.
    ``accesses``, ``filters`` and ``proj`` are the coverage prelude's
    normalized per-step access, filter conditions and target terms.
    """

    def __init__(self, steps, refs, accesses, filters, proj, single, target_desc, tail):
        self.steps = steps
        self.refs = refs
        self.accesses = accesses
        self.filters = filters
        #: ("col", var, position) | ("row", var) | ("const", value spec).
        self.proj = proj
        self.single = single
        self.target_desc = target_desc
        self.tail = tail
        self.rank = {step.var: s for s, step in enumerate(steps)}

    def _ref(self, var):
        return self.refs[self.rank[var]]

    def access(self, s, layout_before, layout_after, final):
        step = self.steps[s]
        acc = self.accesses[s]
        desc = step.source.describe()
        if acc[0] == "scan":
            return VectorScan(self.refs[s], desc, keep=step.var in layout_after)
        slot_of = {v: i for i, v in enumerate(layout_before)}
        out_plan = tuple(-1 if v == step.var else slot_of[v] for v in layout_after)
        if acc[0] == "const":
            return VectorConstLookup(self.refs[s], desc, acc[1], acc[2], out_plan)
        _j, pos, pvar, ppos = acc
        return VectorHashJoin(
            self.refs[s], desc, pos, self._ref(pvar), ppos, slot_of[pvar], out_plan
        )

    def filter(self, s, layout_before, layout_after):
        slot_of = {v: i for i, v in enumerate(layout_before)}
        conds = tuple(
            (slot_of[var], self._ref(var), pos, op, spec)
            for var, pos, op, spec, _desc in self.filters[s]
        )
        descs = [c[-1] for c in self.filters[s]]
        return VectorFilter(conds, tuple(slot_of[v] for v in layout_after), descs)

    def materialize(self, layout):
        return VectorMaterialize(tuple((i, self._ref(v)) for i, v in enumerate(layout)))

    def project(self, layout_before):
        slot_of = {v: i for i, v in enumerate(layout_before)}
        terms = tuple(
            item if item[0] == "const"
            else (item[0], slot_of[item[1]], self._ref(item[1]), *item[2:])
            for item in self.proj
        )
        return VectorProject(self.target_desc, terms, single=self.single)


def lower_branch_vector(
    steps,
    residual: ast.Pred,
    schemas,
    target_terms,
    target_desc: str,
    params: dict,
    est_out: float | None = None,
    residuals: dict | None = None,
) -> BranchPipeline | None:
    """Lower priced loop steps into the vector (int-id) pipeline.

    The coverage prelude, then the step walk (no fusion) on the
    id-space kernels, crossing to the row-slot kernels at the first
    residual.  Coverage rules — anything outside them returns None and
    the branch runs on the columnar pipeline instead:

    * the branch binds at least one variable;
    * every step reads a stored relation, except that a fixpoint
      variable may supply the *leading scan* (its delta rows encode per
      execution); apply sources anywhere else — and computed ranges
      anywhere — keep the columnar kernels;
    * accesses are a leading scan, a single-column constant/parameter
      key, or a single-column equality join keyed on one attribute of
      an earlier binding;
    * step filters are single-column ``attr OP const/param`` comparisons;
    * residual predicates (step-level ones only on the last step) run on
      the columnar side of a :class:`VectorMaterialize` boundary, their
      sub-plans on ``vector``;
    * targets are attributes, constants, parameters, or whole rows.
    """
    from .executors import get_backend  # executors imports this module

    if not steps:
        return None
    bound_rank = {step.var: s for s, step in enumerate(steps)}

    refs = [SourceRef(s, step.source) for s, step in enumerate(steps)]
    accesses: list[tuple] = []
    filters: list[list] = []
    last = len(steps) - 1
    for s, step in enumerate(steps):
        source = step.source
        if source.kind != "relation" and not (
            source.kind == "apply"
            and s == 0
            and not step.key_positions
            and source.schema is not None
        ):
            return None
        kp = step.key_positions
        if not kp:
            if s != 0:
                return None  # mid-pipeline cross product: keep columnar
            # The leading scan is the one access whose whole-table read a
            # storage backend can narrow: hand its pushdown to the ref so
            # every operator of this step resolves the same partial table.
            refs[s].pushdown = step.pushdown
            accesses.append(("scan",))
        elif len(kp) == 1:
            term = step.key_terms[0]
            if isinstance(term, ast.AttrRef):
                prank = bound_rank.get(term.var)
                pschema = schemas.get(term.var)
                if prank is None or prank >= s or pschema is None:
                    return None
                accesses.append(
                    ("join", kp[0], term.var, pschema.index_of(term.attr))
                )
            else:
                spec = _const_spec(term, params)
                if spec is None:
                    return None
                accesses.append(("const", kp[0], spec))
        else:
            return None
        conds = []
        for conj, desc in zip(step.filter_conjs, step.filter_descs):
            norm = _vector_cond(conj, bound_rank, s, schemas, params)
            if norm is None:
                return None
            conds.append((*norm, desc))
        filters.append(conds)
        if step.residual_preds and s != last:
            return None

    # --- targets --------------------------------------------------------
    single = target_terms is None
    proj: list = [("row", steps[0].var)] if single else []
    for term in target_terms or ():
        if isinstance(term, ast.AttrRef):
            schema = schemas.get(term.var)
            if term.var not in bound_rank or schema is None:
                return None
            proj.append(("col", term.var, schema.index_of(term.attr)))
        elif isinstance(term, ast.VarRef):
            if term.var not in bound_rank:
                return None
            proj.append(("row", term.var))
        else:
            spec = _const_spec(term, params)
            if spec is None:
                return None
            proj.append(("const", spec))

    step_conjs = {
        s: list(zip(step.filter_conjs, step.filter_descs))
        for s, step in enumerate(steps)
    }
    tail = _ColumnarKernels(
        _ColGen(schemas, params), steps, target_terms, target_desc, step_conjs, {},
        residuals or {}, get_backend("vector"),
    )
    kernels = _VectorKernels(
        steps, refs, accesses, filters, proj, single, target_desc, tail
    )
    return _step_walk(steps, residual, target_terms, step_conjs, kernels, False, est_out)
