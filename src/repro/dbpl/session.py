"""DBPL sessions: bind parsed declarations to library objects and run queries.

A :class:`Session` owns a :class:`~repro.relational.Database` and a type
environment seeded with the built-in scalar types.  ``execute`` accepts
DBPL source text (TYPE/VAR/SELECTOR/CONSTRUCTOR declarations, optionally
wrapped in a MODULE); ``query`` evaluates a query expression — a set
former or a selected/constructed range — and returns the raw rows;
``assign`` performs (possibly selector-checked) assignment.

This is the programmer-facing surface of the reproduction: the paper's
examples run verbatim (see ``examples/dbpl_tour.py``).

Every read takes one path from text to rows: a bare range desugars to
the set former that scans it, the paper's one query-compilation level
(:func:`repro.compiler.compile_statement`, plus the executor-backend
registry) turns it into a
:class:`~repro.compiler.levels.CompiledStatement`, and the one runtime
level (:meth:`~repro.compiler.levels.CompiledStatement.run`) runs it.
``query`` and ``prepare`` do this behind a per-session
:class:`~repro.dbpl.serving.PlanCache`: repeated queries that differ
only in compared constants share one compiled statement, rebinding
constants per call.  They lex the text once and look its
:func:`~repro.dbpl.serving.token_shape` up in that cache: a hit goes
tokens → constants → statement run, with no parse, analysis, pruning
or parameterization; a miss parses the same tokens and does all of
that, then installs a :class:`~repro.dbpl.serving.FrontDoorEntry`.  A
constructed range ``Rel{con(args)}`` is a range like any other, bare
or inside a set former: non-recursive applications inline,
the rest become compiled fixpoint programs cached with the plan, each
holding its value and advancing it to the live state per execution
(:meth:`~repro.compiler.fixpoint.CompiledFixpoint.advance`).
:meth:`Session.subscribe` compiles the same statement, and the
statement — not the query's syntax — picks its maintenance.  The
knobs:

* ``query(..., mode="interpreted")`` forces the reference tuple-at-a-time
  evaluator (the semantic baseline every backend is tested against);
  ``mode`` is ``"auto"`` or ``"interpreted"``, anything else a
  ``ValueError`` (``construct(db, node, mode=...)`` is the library API
  for choosing an interpreted fixpoint engine).
* ``options=ExecOptions(executor=...)`` on ``Session(...)`` or a single
  ``query``/``prepare``/``subscribe`` call selects a registered backend
  (``batch``, ``vector``, ``sharded``; ``tuple``/``rowbatch`` baselines).
* ``prepare(source)`` compiles once and returns a
  :class:`~repro.dbpl.serving.PreparedQuery` handle for repeated
  execution with rebound constants.
* ``snapshot()`` pins the current committed state of every relation;
  pass it as ``ExecOptions(snapshot=...)`` to ``query`` — either mode —
  or to ``PreparedQuery.execute`` for repeatable reads under concurrent
  writers.

There is no interpreted fallback: every query the analyzer accepts
compiles, and a compile-time error (an unknown relation, attribute or
identifier) propagates as the typed error the interpreter would raise.
Every positive constructor compiles, so a closed constructed range never
leaves the compiled path; a non-positive one is a
:class:`~repro.errors.PositivityError`.  What *is* counted in
``Session.fallbacks`` and hinted (DBPL9xx) are the executors' runtime
degradations.

Every query and declaration also passes through the static analyzer
(:mod:`repro.analysis`) before touching the planner — a plan-cache hit
replays the verdict cached with its plan, which is served only when it
is empty and no other constants could change it.  ``Session.check``
returns the diagnostics for a source string without executing it; the
``ExecOptions.analysis`` knob picks the gate policy (``"strict"`` rejects
error-level diagnostics with a span-carrying
:class:`~repro.errors.AnalysisError`, ``"lint"`` reports without
rejecting, ``"off"`` skips analysis); ``on_diagnostic`` observes every
non-fatal diagnostic; ``last_diagnostics`` keeps the most recent batch.
Branches the analyzer proves empty (contradictory or type-dead
predicates) are pruned before the planner costs them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..analysis.diagnostics import Diagnostic, Diagnostics, Span
from ..calculus import ast
from ..calculus.evaluator import Evaluator
from ..compiler.options import DEFAULT_OPTIONS, ExecOptions
from ..constructors.definition import Constructor
from ..errors import AnalysisError, BindingError, DBPLSyntaxError, EvaluationError
from ..relational import Database, DatabaseSnapshot
from ..selectors import Parameter, SelectedRelation, Selector
from ..types import (
    ATOMIC_TYPES,
    EnumType,
    Field,
    RangeType,
    RecordType,
    RelationType,
    Type,
)
from .astnodes import (
    ConstructorDecl,
    EnumTypeExpr,
    Module,
    RangeTypeExpr,
    RecordTypeExpr,
    RelationTypeExpr,
    SelectorDecl,
    TypeDecl,
    TypeName,
    VarDecl,
)
from .lexer import Token, tokenize
from .parser import parse_expression, parse_module
from .serving import (
    BARE_RANGES,
    DEFAULT_PLAN_CACHE_SIZE,
    FrontDoorEntry,
    PlanCache,
    PreparedPlan,
    PreparedQuery,
    parameterize,
    range_query,
    token_shape,
)
from .subscriptions import SubscriptionRegistry

if TYPE_CHECKING:
    from ..analysis.checks import AnalysisResult


def _checks():
    """The static-analyzer module, imported on first use.

    ``analysis.checks`` imports this package for the parser's AST nodes,
    so an eager import here would make ``import repro.analysis.checks``
    order-dependent — whichever side loads first would see the other
    half-initialized.  Deferring to call time breaks the cycle in both
    directions.
    """
    from ..analysis import checks

    return checks


#: Declarations start with one of these; used by :meth:`Session.check` to
#: decide between the module and expression grammars.
_DECL_KEYWORDS = ("MODULE", "TYPE", "VAR", "SELECTOR", "CONSTRUCTOR")

#: ``Session.query(mode=)``: the compiled front door, or the oracle.
_QUERY_MODES = ("auto", "interpreted")

#: Every way execution can leave the requested path, and the hint code
#: that reports it: runtime degradations the executors report through
#: ``ExecutionContext.note_fallback`` — the compiled path was kept, but
#: not the requested physical strategy.  Two kinds.  Codes are never
#: renumbered; a gap is a retired degradation — five so far, 900 (a
#: compile-time error re-ran the query on the interpreted evaluator;
#: every accepted query compiles now), 901 (a positive system outside
#: the compiled fixpoint fragment ran on the interpreted engine; every
#: positive system compiles now), 903 (a shipped-buffer inner executor),
#: 904 (snapshots ran unsharded; shards now plan over the pinned rows)
#: and 905 (a branch with no generated pipeline ran on the tuple
#: interpreter; the columnar and row-major lowerings are total now).
_FALLBACK_CODES = {
    # ShardConfig(pool="process") ran on threads (no fork)
    "process_pool": "DBPL902",
    # executor="vector" ran on the batch pipeline: numpy does not import
    "vector_numpy": "DBPL906",
}


class _Lookup(NamedTuple):
    """One front-door plan-cache lookup: what a miss needs to install."""

    tokens: list[Token]
    literals: list
    key: tuple
    epoch: int
    entry: FrontDoorEntry | None


class Session:
    """An interactive DBPL scope over one database."""

    def __init__(
        self,
        db: Database | None = None,
        name: str = "session",
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        on_diagnostic=None,
        *,
        options: ExecOptions | None = None,
    ) -> None:
        if options is None:
            options = DEFAULT_OPTIONS
        if options.analysis is None:
            options = options.replace(analysis="strict")
        #: Session-level execution defaults; per-call options layer over
        #: these (set fields on the call side win).
        self.options = options
        self.db = db if db is not None else Database(name)
        self.types: dict[str, Type] = dict(ATOMIC_TYPES)
        self.plan_cache = PlanCache(plan_cache_size)
        self.on_diagnostic = on_diagnostic
        self.last_diagnostics = Diagnostics()
        #: How many times execution left the requested path, per kind of
        #: ``_FALLBACK_CODES``.  Each increment also emits that kind's
        #: DBPL90x hint to ``on_diagnostic``.
        self.fallbacks = dict.fromkeys(_FALLBACK_CODES, 0)
        self._anon = 0

    # -- static analysis ------------------------------------------------------

    def check(self, source: str) -> Diagnostics:
        """Statically analyze ``source`` without executing it.

        Accepts either DBPL declarations (module grammar) or a query
        expression; syntax errors come back as ``DBPL000`` diagnostics
        rather than raising, so editors and CI can report everything in
        one pass.  The result is also stored on ``last_diagnostics``.
        """
        try:
            if source.lstrip().startswith(_DECL_KEYWORDS):
                module = parse_module(source)
                checks = _checks()
                diags = checks.analyze_module(
                    module, checks.Scope.from_session(self)
                ).diagnostics
            else:
                checks = _checks()
                diags = checks.analyze_query(
                    parse_expression(source), checks.Scope.from_session(self)
                ).diagnostics
        except DBPLSyntaxError as exc:
            diags = Diagnostics()
            diags.error(
                "DBPL000",
                f"syntax error: {exc}",
                span=Span(exc.line, exc.column),
            )
        self.last_diagnostics = diags
        return diags

    def _gate(self, node, mode: str) -> AnalysisResult | None:
        """The analyzer front gate for :meth:`query` and :meth:`prepare`.

        strict — error diagnostics raise :class:`AnalysisError` (with the
        first error's span) before any compilation; lint — everything is
        reported but nothing raises; off — returns None untouched.
        Diagnostics that do not raise go to the ``on_diagnostic`` hook.
        ``mode`` is the call's resolved ``ExecOptions.analysis`` (the
        session policy unless query/prepare/subscribe overrode it).
        """
        if mode == "off":
            return None
        checks = _checks()
        result = checks.analyze_query(node, checks.Scope.from_session(self))
        self.last_diagnostics = result.diagnostics
        if mode == "strict":
            result.diagnostics.raise_if_errors(
                "query rejected by static analysis", cls=AnalysisError
            )
        if self.on_diagnostic is not None:
            for diag in result.diagnostics:
                self.on_diagnostic(diag)
        return result

    def _note_fallback(self, kind: str, detail: str, **data) -> None:
        """Count a departure from the requested path and hint about it.

        The one sink for every kind in ``_FALLBACK_CODES``, installed as
        the ``on_fallback`` hook of prepared plans and subscriptions
        (and through their statements, of every fixpoint program): the
        executors' runtime degradations.  No result changes; a kind
        outside the table is a bug in whoever reported it
        (``KeyError``).
        """
        code = _FALLBACK_CODES[kind]
        self.fallbacks[kind] += 1
        if self.on_diagnostic is not None:
            self.on_diagnostic(
                Diagnostic(code, "hint", detail, data={"kind": kind, **data})
            )

    # -- declarations ---------------------------------------------------------

    def execute(self, source: str) -> Module:
        """Parse and bind DBPL declarations.

        Declarations are analyzed first (populating ``last_diagnostics``
        and the ``on_diagnostic`` hook), but the binder's own errors
        stay authoritative — analysis never rejects a declaration the
        binder accepts.
        """
        module = parse_module(source)
        if self.options.analysis != "off":
            checks = _checks()
            diags = checks.analyze_module(
                module, checks.Scope.from_session(self)
            ).diagnostics
            self.last_diagnostics = diags
            if self.on_diagnostic is not None:
                for diag in diags:
                    self.on_diagnostic(diag)
        for decl in module.declarations:
            self._bind(decl)
        return module

    def _bind(self, decl) -> None:
        if isinstance(decl, TypeDecl):
            self.types[decl.name] = self._resolve_type(decl.type, decl.name)
        elif isinstance(decl, VarDecl):
            rtype = self._named_type(decl.type.name)
            if not isinstance(rtype, RelationType):
                raise BindingError(
                    f"VAR {', '.join(decl.names)}: only relation-typed "
                    f"variables are supported, got {rtype.name}"
                )
            for name in decl.names:
                self.db.declare(name, rtype)
        elif isinstance(decl, SelectorDecl):
            self._bind_selector(decl)
        elif isinstance(decl, ConstructorDecl):
            self._bind_constructor(decl)
        else:
            raise BindingError(f"unsupported declaration {decl!r}")

    def _named_type(self, name: str) -> Type:
        try:
            return self.types[name]
        except KeyError:
            raise BindingError(f"unknown type {name!r}") from None

    def _resolve_type(self, texpr, name: str) -> Type:
        if isinstance(texpr, TypeName):
            return self._named_type(texpr.name)
        if isinstance(texpr, RangeTypeExpr):
            return RangeType(name, texpr.lo, texpr.hi)
        if isinstance(texpr, EnumTypeExpr):
            return EnumType(name, texpr.labels)
        if isinstance(texpr, RecordTypeExpr):
            fields = []
            for group in texpr.fields:
                ftype = self._resolve_type(group.type, f"{name}_field")
                for fname in group.names:
                    fields.append(Field(fname, ftype))
            return RecordType(name, tuple(fields))
        if isinstance(texpr, RelationTypeExpr):
            element = self._resolve_type(texpr.element, f"{name}_rec")
            if not isinstance(element, RecordType):
                raise BindingError(
                    f"relation type {name}: element must be a record type"
                )
            return RelationType(name, element, texpr.key)
        raise BindingError(f"unsupported type expression {texpr!r}")

    def _bind_params(self, decls) -> tuple[Parameter, ...]:
        return tuple(Parameter(p.name, self._named_type(p.type.name)) for p in decls)

    def _scalar_param_fixup(self, node, params: tuple[Parameter, ...]):
        """Rewrite RelRefs naming scalar formals into ParamRefs."""
        scalars = {p.name for p in params if not p.is_relation}
        if not scalars:
            return node
        from ..calculus.subst import transform

        def rule(n):
            if isinstance(n, ast.RelRef) and n.name in scalars:
                return ast.ParamRef(n.name)
            return None

        return transform(node, rule)

    def _bind_selector(self, decl: SelectorDecl) -> None:
        rel_type = self._named_type(decl.rel_type.name)
        if not isinstance(rel_type, RelationType):
            raise BindingError(f"selector {decl.name}: FOR type must be a relation")
        params = self._bind_params(decl.params)
        pred = self._scalar_param_fixup(decl.pred, params)
        selector = Selector(
            decl.name, decl.formal_rel, rel_type, decl.var, pred, params
        )
        self.db.register_selector(selector)

    def _bind_constructor(self, decl: ConstructorDecl) -> None:
        rel_type = self._named_type(decl.rel_type.name)
        result_type = self._named_type(decl.result_type.name)
        if not isinstance(rel_type, RelationType) or not isinstance(
            result_type, RelationType
        ):
            raise BindingError(
                f"constructor {decl.name}: FOR and result types must be relations"
            )
        params = self._bind_params(decl.params)
        body = self._scalar_param_fixup(decl.body, params)
        constructor = Constructor(
            decl.name, decl.formal_rel, rel_type, result_type, body, params
        )
        self.db.register_constructor(constructor)

    # -- queries and statements ------------------------------------------------------

    def _call_options(self, options: ExecOptions | None) -> ExecOptions:
        """One call's options layered over the session's (set fields win)."""
        return self.options if options is None else options.over(self.options)

    def query(
        self,
        source: str,
        mode: str = "auto",
        *,
        options: ExecOptions | None = None,
    ) -> set[tuple]:
        """Evaluate a query expression; returns the raw row set.

        The default path (``mode="auto"``) compiles the query (through
        the session plan cache) and runs it on a registered executor
        backend; ``mode="interpreted"`` forces the reference evaluator
        instead; any other mode is a ``ValueError``.  Execution knobs
        arrive on ``options`` (layered over the session's own); a
        snapshot (see :meth:`snapshot`) is the database the query reads,
        in either mode — fixpoints included.

        Every positive constructor compiles (a recursive occurrence
        under ``SOME`` included); a non-positive one is the section 3.3
        :class:`PositivityError` on every spelling.  Any other error —
        at compile time or mid-execution — propagates as the typed error
        it is; executor degradations are counted in :attr:`fallbacks`
        and hinted to ``on_diagnostic``.
        """
        if mode not in _QUERY_MODES:
            raise ValueError(f"mode must be one of {_QUERY_MODES}, got {mode!r}")
        options = self._call_options(options)
        tokens = tokenize(source)
        if mode == "interpreted":
            node = parse_expression(source, tokens)
            self._gate(node, options.analysis)
            return self._query_interpreted(node, source, options.snapshot or self.db)
        lookup = self._lookup(tokens, options)
        constants = self._hit(lookup, options.analysis)
        if constants is None:
            # Branches the analyzer proved empty never reach the planner.
            # Safe here (constants are fixed for this call); prepare()
            # skips this because rebinding could revive them.
            node, analysis = self._statement_node(source, tokens, options, prune=True)
            plan, constants = self._prepared_plan(node, options, lookup, analysis)
        else:
            plan = lookup.entry.plan
        return plan.run(constants, snapshot=options.snapshot)

    def _statement_node(
        self, source: str, tokens: list[Token], options: ExecOptions, *, prune: bool
    ) -> tuple[ast.Query, AnalysisResult | None]:
        """The set former a front-door verb compiles for ``source`` (lexed
        as ``tokens``), and the gate's verdict on it.

        A bare range desugars to the set former that scans it.  The
        parser reads an unknown bare identifier as a parameter reference
        and no front-door query has parameters, so one is the oracle's
        :class:`EvaluationError`, raised before anything compiles (under
        ``analysis="strict"`` the gate's DBPL006 comes first).  ``prune``
        drops the branches the analyzer proved empty.
        """
        node = parse_expression(source, tokens)
        analysis = self._gate(node, options.analysis)
        if isinstance(node, BARE_RANGES):
            node = range_query(node)
        if not isinstance(node, ast.Query):
            raise BindingError(f"not a query expression: {source!r}")
        unbound = ast.find(node, ast.ParamRef)
        if unbound is not None:
            raise EvaluationError(f"unbound parameter {unbound.name!r}")
        if prune and analysis is not None:
            node = analysis.prune(node)
        return node, analysis

    def _query_interpreted(self, node, source: str, db) -> set[tuple]:
        """The reference path over ``db``: tuple-at-a-time, no compiler
        involved."""
        if isinstance(node, ast.Query):
            return Evaluator(db).eval_query(node)
        if isinstance(node, BARE_RANGES):
            value = Evaluator(db).resolve_range(node, {})
            return set(value.rows)
        raise BindingError(f"not a query expression: {source!r}")

    def _lookup(self, tokens: list[Token], options: ExecOptions) -> _Lookup:
        """Look the token shape of ``tokens`` up in the plan cache.

        Keys are ``((token shape, scope stamp),) + options.cache_key()``:
        declarations only accumulate, so the stamp's counts (those of
        :meth:`repro.analysis.checks.Scope.stamp`) identify the names a
        cached verdict and plan resolved against, and the normalized
        options keep per-execution fields (snapshot, analysis) from
        fragmenting the cache.
        """
        shape, literals = token_shape(tokens)
        db = self.db
        stamp = (
            len(db.relations), len(db.selectors), len(db.constructors), len(self.types)
        )
        key = ((shape, stamp),) + options.cache_key()
        epoch = db.stats.epoch()
        return _Lookup(tokens, literals, key, epoch, self.plan_cache.get(key, epoch))

    def _hit(self, lookup: _Lookup, mode: str) -> tuple | None:
        """The slot constants when the entry ``lookup`` found serves this
        text, else None (the miss path).

        A hit parses, analyzes, prunes and parameterizes nothing: the
        entry's verdict is the empty diagnostics its analysis found, which
        no other constants could change, so the gate would pass and report
        nothing — bar setting ``last_diagnostics``.
        """
        entry = lookup.entry
        if entry is None or entry.verdict is None:
            return None
        constants = entry.constants(lookup.literals)
        if constants is not None and mode != "off":
            self.last_diagnostics = entry.verdict
        return constants

    def _prepared_plan(
        self,
        node: ast.Query,
        options: ExecOptions,
        lookup: _Lookup,
        analysis: AnalysisResult | None,
    ) -> tuple[PreparedPlan, tuple]:
        """The miss path's plan for ``node``, the gated parse of
        ``lookup.tokens``.

        The entry the lookup found is reused when its plan has this shape
        (a text whose verdict is not cached takes this path every time);
        otherwise the shape compiles and its entry is installed — in place
        of the found one, which could not serve this text (another fixed
        literal, or another pruning).
        """
        operands: list = []
        shape, constants = parameterize(node, operands)
        entry = lookup.entry
        if entry is not None and entry.plan.shape == shape:
            plan = entry.plan
        else:
            if options.snapshot is not None:
                options = options.replace(snapshot=None)  # a cached plan pins none
            plan = PreparedPlan(
                self.db, shape, constants, epoch=lookup.epoch, options=options
            )
            plan.on_fallback = self._note_fallback
            verdict = None
            if analysis is not None and not (
                analysis.diagnostics or analysis.constant_sensitive
            ):
                verdict = analysis.diagnostics
            fresh = FrontDoorEntry.build(
                plan, lookup.tokens, lookup.literals, operands, verdict
            )
            if entry is not None:
                self.plan_cache.replace(lookup.key, fresh, lookup.epoch)
            else:
                winner = self.plan_cache.put(lookup.key, fresh, lookup.epoch)
                if winner.plan.shape == shape:
                    plan = winner.plan  # a racing compile of this shape won
        return plan, constants

    def prepare(
        self,
        source: str,
        *,
        options: ExecOptions | None = None,
    ) -> PreparedQuery:
        """Compile ``source`` once for repeated parameterized execution.

        Constants compared in predicates become rebindable slots:
        ``prepare('{EACH r IN R: r.x = "a"}').execute("b")`` runs the
        same plan with ``"b"`` bound.  Plans come from (and populate)
        the session plan cache, so preparing an already-hot shape is
        free.  Constructed ranges prepare like any other range: the
        handle holds the compiled fixpoint programs and every
        ``execute`` advances their held values to the live state.
        """
        options = self._call_options(options)
        lookup = self._lookup(tokenize(source), options)
        constants = self._hit(lookup, options.analysis)
        if constants is not None:
            return PreparedQuery(lookup.entry.plan, constants, source)
        node, analysis = self._statement_node(
            source, lookup.tokens, options, prune=False
        )
        plan, constants = self._prepared_plan(node, options, lookup, analysis)
        return PreparedQuery(plan, constants, source)

    def subscribe(
        self,
        source: str,
        on_change=None,
        *,
        options: ExecOptions | None = None,
    ):
        """Materialize ``source`` once and keep the result maintained.

        Returns a :class:`~repro.dbpl.subscriptions.Subscription` whose
        :meth:`~repro.dbpl.subscriptions.Subscription.rows` always equal
        a fresh :meth:`query` of the same source.  The source compiles
        to the statement :meth:`query` runs with its compared constants
        lifted into a parameter relation, shared by every subscription of
        the same shape (a *family*, maintained as one standing query),
        and the statement picks the maintenance: one whose answer is a
        held fixpoint value (``Rel{con}``, spelled bare or as a set
        former) reports that value's growth, resumed on inserts (deletes
        run from empty); any other is maintained incrementally by
        derivation counting.  ``on_change`` observes each net change (it
        runs inside the committing write, after every family is
        maintained — do not mutate relations from it);
        :meth:`~repro.dbpl.subscriptions.Subscription.changes` drains
        the same events as an iterator.

        Subscriptions read live state, so ``snapshot`` does not apply.
        """
        options = self._call_options(options)
        if options.snapshot is not None:
            raise ValueError(
                "subscriptions maintain live state; snapshot= does not apply"
            )
        node, _ = self._statement_node(source, tokenize(source), options, prune=True)
        return SubscriptionRegistry.ensure(self.db).subscribe(
            node, source, options, on_change, self._note_fallback
        )

    def snapshot(self) -> DatabaseSnapshot:
        """Pin the current committed state of every relation.

        Pass the returned snapshot to :meth:`query` or
        ``PreparedQuery.execute`` for repeatable reads: everything the
        query reads sees exactly the pinned versions, regardless of
        concurrent writers.
        """
        return self.db.snapshot()

    def assign(self, target: str, rows) -> None:
        """``Target := rows`` or ``Target[sel(args)] := rows``."""
        node = parse_expression(target)
        rows = [tuple(r) for r in rows]
        if isinstance(node, ast.RelRef):
            self.db.relation(node.name).assign(rows)
            return
        if isinstance(node, ast.Selected) and isinstance(node.base, ast.RelRef):
            selector = self.db.selector(node.selector)
            args = tuple(
                a.value if isinstance(a, ast.Const) else self._arg_value(a)
                for a in node.args
            )
            view = SelectedRelation(
                self.db, self.db.relation(node.base.name), selector, args
            )
            view.assign(rows)
            return
        raise BindingError(f"not an assignable target: {target!r}")

    def _arg_value(self, arg):
        if isinstance(arg, ast.RelRef):
            return self.db.relation(arg.name)
        raise BindingError(f"unsupported selector argument {arg!r}")

    def insert(self, relation: str, rows) -> None:
        self.db.relation(relation).insert([tuple(r) for r in rows])

    def relation(self, name: str):
        return self.db.relation(name)
