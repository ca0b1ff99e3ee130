"""The serving layer: prepared queries, the plan cache, snapshot reads.

Five PRs of planner/executor work (cost-based ordering, columnar
pipelines, the executor-backend registry, sharding) are only worth
anything if the front door reaches them — and a served workload repeats
the *same* queries with *different* constants thousands of times, so it
must not re-parse, re-bind, and re-optimize per call either.  This
module is the parse-once/bind-per-message split:

* :func:`token_shape` abstracts a query's *token list*: every int and
  string literal becomes its type, and the literal values ride
  alongside.  The session front door keys its plan cache on that shape,
  so a text whose tokens it has seen (up to literal values) is served
  without parsing: a :class:`FrontDoorEntry` records which literal fills
  which parameter slot, which literals must match verbatim, and the
  analysis verdict.
* :func:`parameterize` normalizes a parsed query into a **plan shape**:
  every constant compared in a predicate is replaced by a positional
  parameter slot, and the extracted constants ride alongside.  Two
  textually different queries that differ only in those constants share
  one shape — and therefore one compiled plan.
* :class:`PreparedPlan` compiles a shape once, through the paper's one
  query-compilation level (:func:`repro.compiler.compile_statement`,
  whose fixpoint programs are the database's one program per closed
  application, kept alive by the plans that reference them), and
  executes it many times through the one runtime level
  (:meth:`~repro.compiler.levels.CompiledStatement.run`), rebinding the
  constant slots in place — the generated kernels read parameter values
  at run time, so a rebind costs a dict update, not a recompilation.
* :class:`PlanCache` is a bounded LRU over **plan fingerprints**
  ``(shape,) + ExecOptions.cache_key()`` (the session's shape is the
  token shape plus its scope stamp) scoped to the statistics epoch of
  :meth:`repro.relational.stats.StatsCatalog.epoch`: when the catalog
  decides the data has drifted enough that the cost model would price
  plans differently, the epoch moves and every cached plan is dropped
  (re-optimization on next use).  Small writes do not move the epoch —
  a cache invalidated per insert would never hit under mixed
  read/write traffic.
* A snapshot read is a read against a
  :class:`~repro.relational.DatabaseSnapshot` — the database with every
  relation pinned at one committed head.  :class:`PreparedPlan` hands it
  to the runtime level as the database the whole statement reads, so
  every reader — scans and index probes, residual predicates, selectors,
  nested ranges, open constructor applications, vector encodings and
  shard partitions — sees one committed state while writers keep
  committing, under every executor.  A statement's held fixpoint values
  follow the snapshot by their hit/resume/recompute rule
  (:meth:`~repro.compiler.fixpoint.CompiledFixpoint.advance`) — shared
  ones too, under their programs' locks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

from ..analysis.diagnostics import Diagnostics, span_of
from ..calculus import ast
from ..calculus.subst import map_children
from ..compiler import compile_statement
from ..compiler.executors import get_backend
from ..compiler.options import DEFAULT_OPTIONS, ExecOptions
from ..compiler.plans import PlanStats
from ..errors import BindingError
from ..relational import Database, DatabaseSnapshot
from .lexer import Token

#: Default bound of the session plan cache (entries, LRU-evicted).
DEFAULT_PLAN_CACHE_SIZE = 128

#: Name prefix of the auto-generated constant slots.  Parser-produced
#: parameter names are plain identifiers, so the dunder prefix cannot
#: collide with user parameters.
_SLOT_PREFIX = "__bind_"

#: The bare ranges the front door accepts as queries (:func:`range_query`
#: desugars them).
BARE_RANGES = (ast.RelRef, ast.Selected, ast.Constructed, ast.QueryRange)

_RANGES = frozenset(BARE_RANGES + (ast.ApplyVar,))


# ---------------------------------------------------------------------------
# Shape normalization
# ---------------------------------------------------------------------------


def parameterize(
    query: ast.Query, operands: list | None = None, *, slot=None
) -> tuple[ast.Query, tuple]:
    """``query`` → (normalized shape, extracted constants).

    Every :class:`~repro.calculus.ast.Const` operand of a comparison is
    replaced — in deterministic traversal order — by a
    :class:`~repro.calculus.ast.ParamRef` slot, and its value collected.
    Comparisons are exactly the positions the compiler consumes constants
    from (index keys, priced restrictions, cheap filters), so this is
    where parameterization both enables plan sharing and keeps the plan
    shape honest.  Constants anywhere else (target lists, selector and
    constructor arguments, arithmetic sub-terms) stay baked in: they
    change what the plan *computes*, so they stay part of the shape and
    queries differing there simply do not share a cache entry.

    When ``operands`` (an empty list) is given, the replaced
    :class:`~repro.calculus.ast.Const` nodes are appended to it in slot
    order: their parser spans say which source literal fills each slot.

    ``slot(i)`` (a term) replaces slot ``i`` instead of a ParamRef, and
    then only the comparisons of the branch predicates are lifted — under
    ``SOME``/``ALL``/``NOT`` too, but not inside a range expression (a
    nested set former, a selector or constructor argument), so every
    closed application stays closed.  A standing-query family lifts its
    constants this way into attributes of its parameter relation
    (:mod:`repro.dbpl.subscriptions`).
    """
    replaced: list = [] if operands is None else operands
    if slot is None:
        make, into_ranges = (lambda i: ast.ParamRef(f"{_SLOT_PREFIX}{i}")), True
    else:
        make, into_ranges = slot, False

    def lift(node):
        if node.__class__ is ast.Cmp:
            left, right = node.left, node.right
            if left.__class__ is ast.Const:
                left = make(len(replaced))
                replaced.append(node.left)
            if right.__class__ is ast.Const:
                right = make(len(replaced))
                replaced.append(node.right)
            if left is node.left and right is node.right:
                return node
            return ast.Cmp(node.op, left, right)
        if not into_ranges and node.__class__ in _RANGES:
            return node
        return map_children(node, lift)

    shape = lift(query)
    return shape, tuple(const.value for const in replaced)


def token_shape(tokens: list[Token]) -> tuple[tuple, list]:
    """``tokens`` → (token shape, literal values).

    The shape is the tokens' texts with every int and string literal
    replaced by its type (``int`` / ``str``, which no keyword, identifier
    or symbol text equals); the literal values, in source order and as
    the parser reads them, ride alongside.  Whitespace and comments are
    not tokens, so texts that differ only there share a shape.

    The session front door looks a text up by
    :func:`repro.dbpl.lexer.shape_of`, the same pair computed from the
    text without building tokens; it calls this only for a text that
    scan declines (a comment, a non-ASCII character).
    """
    shape: list = []
    literals: list = []
    for token in tokens:
        kind = token[0]
        if kind == "int":
            shape.append(int)
            literals.append(int(token[1]))
        elif kind == "string":
            shape.append(str)
            literals.append(token[1])
        else:
            shape.append(token[1])
    return tuple(shape), literals


def range_query(rexpr: ast.RangeExpr) -> ast.Query:
    """Desugar a bare range into the one-branch query that scans it.

    ``Infront``, ``Infront[hidden_by("x")]`` or ``Infront{ahead()}``
    become ``{EACH __row IN <range>: TRUE}``, so the whole session front
    door — not just set formers — runs through the one query-compilation
    level.
    """
    if isinstance(rexpr, ast.QueryRange):
        return rexpr.query
    return ast.Query((ast.Branch((ast.Binding("__row", rexpr),), ast.TRUE),))


class FrontDoorEntry(NamedTuple):
    """What the session front door caches per token shape.

    ``slots[i]`` is the index of the literal (in the text's
    :func:`token_shape` literals) that fills parameter slot ``i`` of
    ``plan``.  ``fixed`` lists the ``(literal index, value)`` pairs baked
    into ``plan`` (selector and constructor arguments, target-list and
    arithmetic constants): a text differing there is another plan.
    ``verdict`` is the (empty) diagnostics a hit reports, or None when
    the text must take the miss path every time: analysis was off, found
    something, or could find something for other constants
    (:attr:`repro.analysis.checks.AnalysisResult.constant_sensitive`), or
    a slot is a ``TRUE``/``FALSE`` operand rather than a literal.
    """

    plan: "PreparedPlan"
    slots: tuple[int | None, ...]
    fixed: tuple[tuple[int, object], ...]
    verdict: Diagnostics | None

    @classmethod
    def build(
        cls,
        plan: "PreparedPlan",
        tokens: list[Token],
        literals: list,
        operands: list,
        verdict: Diagnostics | None,
    ) -> "FrontDoorEntry":
        """The entry for ``plan``, compiled from the text lexed as
        ``tokens`` (whose :func:`token_shape` literals are ``literals``);
        ``operands`` are the Const nodes :func:`parameterize` replaced,
        which the parser stamped with the span of their token."""
        literal_at = {
            (token.line, token.column): index
            for index, token in enumerate(
                t for t in tokens if t.kind == "int" or t.kind == "string"
            )
        }
        slots = []
        for const in operands:
            span = span_of(const)
            slots.append(None if span is None else literal_at.get((span.line, span.column)))
        if None in slots:
            verdict = None  # a TRUE/FALSE operand: no literal fills that slot
        used = set(slots)
        fixed = tuple(
            (index, value) for index, value in enumerate(literals) if index not in used
        )
        return cls(plan, tuple(slots), fixed, verdict)

    def constants(self, literals: list) -> tuple | None:
        """The slot values for a text whose literals are ``literals``, or
        None when this entry cannot serve it (a fixed literal differs)."""
        for index, value in self.fixed:
            if literals[index] != value:
                return None
        return tuple([literals[i] for i in self.slots])


# ---------------------------------------------------------------------------
# Prepared plans and the user-facing handle
# ---------------------------------------------------------------------------


class PreparedPlan:
    """One compiled plan shape, executable with rebound constants.

    The compiled kernels capture the parameter dict by reference and read
    slot values at run time, so executing with different constants is an
    in-place dict update — no re-lowering, no re-optimization.  The plan
    was *priced* with the constants seen at compile time (histogram
    restrictions, index-vs-scan gates); rebinding keeps that join order,
    the classic prepared-statement trade.  One thing re-plans it: a
    relation whose scans pushed down to its store when the plan was
    priced (a cold one, on which an index costs a whole load) no longer
    does — it was loaded, or its scans have read it whole already
    (:attr:`~repro.relational.Relation.scan_store`) — so the next
    execution compiles the shape again and an index may serve it.

    Every shape compiles through :func:`repro.compiler.compile_statement`
    (the paper's query compilation level), and every execution is
    ``statement.run``: it advances the fixpoints' held values (if any)
    to the live database and runs the top plan over them.

    Executions serialize on a per-plan lock that keeps only the slot
    rebind: the kernels read the slots until the run ends, so a rebind
    waits for it.  Held values are guarded by their programs' own locks
    (:meth:`~repro.compiler.levels.CompiledStatement.solve`), which every
    statement over them takes.
    """

    __slots__ = (
        "db",
        "shape",
        "param_names",
        "options",
        "epoch",
        "statement",
        "executions",
        "on_fallback",
        "_params",
        "_lock",
        "_pushed",
    )

    def __init__(
        self,
        db: Database,
        shape: ast.Query,
        constants: tuple,
        epoch: int | None = None,
        *,
        options: ExecOptions | None = None,
    ) -> None:
        if options is None:
            options = DEFAULT_OPTIONS
        self.options = options
        # Validate the executor name before paying for a compile.
        get_backend(options.resolved_executor)
        self.db = db
        self.shape = shape
        self.param_names = tuple(
            f"{_SLOT_PREFIX}{i}" for i in range(len(constants))
        )
        self.epoch = epoch
        self.executions = 0
        #: Observable-degradation hook (``Session`` wires its fallback
        #: counters here): called with ``(kind, detail)`` whenever an
        #: execution silently downgrades — shard pools degrading to
        #: threads, "vector" without numpy.
        self.on_fallback = None
        self._params = dict(zip(self.param_names, constants))
        self._lock = threading.Lock()
        self._compile()

    def _compile(self) -> None:
        db = self.db
        #: The relations priced as scanning through their stores.
        self._pushed = [rel for rel in db.relations.values() if rel.scan_store is not None]
        self.statement = compile_statement(db, self.shape, self._params, options=self.options)

    def run(
        self,
        constants: tuple,
        snapshot: DatabaseSnapshot | None = None,
        stats: PlanStats | None = None,
    ) -> set[tuple]:
        """Execute with ``constants`` bound into the plan's slots."""
        if len(constants) != len(self.param_names):
            raise BindingError(
                f"prepared query takes {len(self.param_names)} constant(s), "
                f"got {len(constants)}"
            )
        with self._lock:
            params = self._params
            for name, value in zip(self.param_names, constants):
                params[name] = value
            pushed = self._pushed
            if pushed and any(rel.scan_store is None for rel in pushed):
                self._compile()
            rows = self.statement.run(
                params, snapshot=snapshot, stats=stats, on_fallback=self.on_fallback
            )
            self.executions += 1
            return rows

    def explain(self) -> str:
        return self.statement.explain()


class PreparedQuery:
    """The ``Session.prepare()`` handle: a plan plus its bound constants.

    Handles are cheap — many handles (one per client, say) can share one
    cached :class:`PreparedPlan`.  ``execute()`` runs with the constants
    extracted from the prepared source text; ``execute(*constants)``
    rebinds the slots positionally, in the order the constants appeared
    in the query text.
    """

    __slots__ = ("source", "_plan", "_constants")

    def __init__(
        self, plan: PreparedPlan, constants: tuple, source: str | None = None
    ) -> None:
        self._plan = plan
        self._constants = constants
        self.source = source

    @property
    def param_count(self) -> int:
        return len(self._plan.param_names)

    @property
    def constants(self) -> tuple:
        return self._constants

    @property
    def plan(self) -> PreparedPlan:
        return self._plan

    @property
    def executions(self) -> int:
        return self._plan.executions

    def execute(
        self,
        *constants,
        snapshot: DatabaseSnapshot | None = None,
        stats: PlanStats | None = None,
    ) -> set[tuple]:
        """Run the prepared plan; positional ``constants`` rebind slots."""
        bound = constants if constants else self._constants
        return self._plan.run(tuple(bound), snapshot=snapshot, stats=stats)

    def bind(self, *constants) -> "PreparedQuery":
        """A new handle over the same plan with different default constants."""
        if len(constants) != self.param_count:
            raise BindingError(
                f"prepared query takes {self.param_count} constant(s), "
                f"got {len(constants)}"
            )
        return PreparedQuery(self._plan, tuple(constants), self.source)

    def explain(self) -> str:
        return self._plan.explain()

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"<PreparedQuery slots={self.param_count} "
            f"executor={self._plan.options.resolved_executor!r} "
            f"runs={self._plan.executions}>"
        )


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """A bounded LRU of compiled plans keyed by plan fingerprint.

    The fingerprint is ``(shape,) + ExecOptions.cache_key()`` — the
    query with constants abstracted away (a :class:`Session`'s shape is
    its token shape and scope stamp, and its entries are
    :class:`FrontDoorEntry` records around a :class:`PreparedPlan`), plus
    the normalized execution options (executor, optimizer, shard
    config): everything that changes what ``compile_statement`` would
    produce or how its pipelines run.  Two calls that resolve to the
    same options (an explicit default and an unset field, say) share
    one plan.  Entries
    are scoped to one statistics epoch: when :meth:`StatsCatalog.epoch`
    moves, the whole cache is invalidated at the next touch (the cost
    model would price the plans differently now, so they must all
    re-optimize).

    ``capacity <= 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the compile-per-call baseline of benchmark E19.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: OrderedDict[tuple, PreparedPlan] = OrderedDict()
        self._epoch: int | None = None
        self._lock = threading.Lock()

    def _sync_epoch(self, epoch: int) -> None:
        if self._epoch != epoch:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._epoch = epoch

    def get(self, key: tuple, epoch: int) -> PreparedPlan | None:
        with self._lock:
            self._sync_epoch(epoch)
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: tuple, plan: PreparedPlan, epoch: int) -> PreparedPlan:
        """Install ``plan``; returns the winning entry (first store wins,
        so two racing compilations converge on one shared plan)."""
        with self._lock:
            self._sync_epoch(epoch)
            if self.capacity <= 0:
                return plan
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return plan

    def replace(self, key: tuple, plan, epoch: int) -> None:
        """Store ``plan`` over the entry :meth:`get` just returned for
        ``key``, which the caller could not use and has recompiled; that
        lookup is re-counted as a miss (a miss is a compile)."""
        with self._lock:
            self._sync_epoch(epoch)
            self.hits -= 1
            self.misses += 1
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        """Fingerprints currently cached, LRU-first (for tests)."""
        with self._lock:
            return list(self._entries.keys())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def info(self) -> dict[str, float]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }
