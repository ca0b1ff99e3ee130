"""The three-level compilation and optimization framework (section 4).

The paper distributes optimization effort over the phases of a database
programming language compiler:

1. **Type-checking level** (:func:`type_check_level`) — per-definition
   analysis: positivity of every constructor, rough dependency graph over
   constructor/relation *names*, preliminary partitioning into
   disconnected components (stepwise refinable).

2. **Query compilation level** (:func:`compile_statement`) — per query
   form: inline non-recursive applications (Cases 1–3), instantiate the
   remaining closed applications into fixpoint systems, detect recursive
   cycles on the clause-interconnectivity structure, generate compiled
   fixpoint programs plus a compiled top query plan, and — when a
   bound-argument special case is detected — note the goal-directed
   specialization (detected and explained, not executed).  Every closed
   application of a positive constructor compiles, whatever its
   recursive occurrences look like
   (:func:`~repro.compiler.fixpoint.compile_fixpoint`), so a
   closed application has one evaluation path.  A shape with no
   application is a statement too, at ``compile_query``'s cost: its top
   plan is the whole program.  Every front-door verb compiles through
   this level — each :class:`~repro.dbpl.serving.PreparedPlan` and
   each subscription holds a :class:`CompiledStatement`.

3. **Runtime support level** (:meth:`CompiledStatement.run`, the one
   runtime of every compiled read) — bring the generated fixpoint
   programs' values up to the current database state, or a snapshot's
   (:meth:`CompiledStatement.solve`), bind them as the top plan's apply
   values, execute the top plan; an ``identity`` statement's answer is
   the value itself.  A compiled program *holds* its value between
   executions and advances it (:meth:`CompiledFixpoint.advance`): a
   read with no intervening write runs no plan, a read after inserts
   resumes from the appended rows, a read after a delete runs from
   empty.  ``Edge{tc}``'s value is a relation's value in this respect
   too — it keeps its rows and its hash indexes across reads.  The
   database holds each closed application's program once
   (:func:`~repro.compiler.fixpoint.held_program`): every statement over
   it — plan-cache entries, prepared handles, subscription families,
   Datalog goals — reads one value, which lives as long as one of them
   does.  A statement reads it under the program's lock
   (:meth:`CompiledStatement.solve`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from types import MappingProxyType

from ..calculus import ast
from ..calculus.analysis import free_range_names, free_tuple_vars
from ..calculus.subst import map_children
from ..constructors.instantiate import AppKey
from ..constructors.positivity import definition_violations
from ..relational import Database
from .fixpoint import CompiledFixpoint, held_program
from .graphutils import Digraph, connected_components, recursive_nodes
from .options import DEFAULT_OPTIONS, ExecOptions
from .plans import (
    CostModel,
    ExecutionContext,
    PlanStats,
    QueryPlan,
    compile_query,
)
from .pushdown import PushdownDecision, cost_gated_inline
from .quantgraph import QuantGraph, build_interconnectivity_graph
from .specialize import LinearTC, detect_linear_tc

#: The fixpoints and specializations of every plain statement.
_NOTHING = MappingProxyType({})


# ---------------------------------------------------------------------------
# Level 1: type checking
# ---------------------------------------------------------------------------


@dataclass
class TypeCheckReport:
    """Output of the type-checking level."""

    positivity: dict[str, bool]
    dependency_graph: Digraph
    partitions: list[set[str]]
    recursive_constructors: set[str]
    interconnectivity: QuantGraph

    def describe(self) -> str:
        lines = ["type-checking level:"]
        for name, ok in sorted(self.positivity.items()):
            lines.append(f"  constructor {name}: {'positive' if ok else 'NOT positive'}")
        lines.append(f"  partitions: {[sorted(p) for p in self.partitions]}")
        lines.append(f"  recursive: {sorted(self.recursive_constructors)}")
        return "\n".join(lines)


def type_check_level(db: Database) -> TypeCheckReport:
    """Analyze every registered constructor (level 1)."""
    positivity: dict[str, bool] = {}
    graph = Digraph()
    for name, constructor in db.constructors.items():
        positivity[name] = not definition_violations(constructor)
        graph.add_node(name)
        for application in constructor.applications_in_body():
            graph.add_edge(name, application.constructor)
        # Rough version: relation names the body mentions also connect
        # definitions (stepwise refinement starts from names only).
        for rel_name in free_range_names(constructor.body):
            graph.add_node(f"rel:{rel_name}")
            graph.add_edge(name, f"rel:{rel_name}")
    partitions = [
        {n for n in component if not str(n).startswith("rel:")}
        for component in connected_components(graph.nodes, graph.edges())
    ]
    partitions = [p for p in partitions if p]
    recursive = {
        n for n in recursive_nodes(graph) if not str(n).startswith("rel:")
    }
    interconnectivity = build_interconnectivity_graph(db, db.constructors.values())
    return TypeCheckReport(positivity, graph, partitions, recursive, interconnectivity)


# ---------------------------------------------------------------------------
# Level 2: query compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledStatement:
    """A fully compiled query form, ready for the runtime level."""

    db: Database
    original: ast.Query
    #: The query the top plan is compiled from: non-recursive
    #: applications inlined, the rest replaced by their apply variables.
    top: ast.Query
    fixpoints: Mapping[AppKey, CompiledFixpoint]
    specializations: Mapping[AppKey, LinearTC]
    top_plan: QueryPlan
    pushdown_decisions: Sequence[PushdownDecision] = field(default_factory=list)
    #: The apply token when the top query is ``{EACH v IN <apply>: TRUE}``
    #: — its answer *is* that value, no scan or dedup needed.
    identity: object | None = None
    shard_config: object | None = None
    #: The distinct programs of :attr:`fixpoints`, in the one order every
    #: statement takes their locks in.
    programs: tuple[CompiledFixpoint, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.programs = tuple(sorted(set(self.fixpoints.values()), key=id))

    def explain(self) -> str:
        lines = ["query compilation level:"]
        for decision in self.pushdown_decisions:
            lines.append(f"  pushdown: {decision.describe()}")
        for key, shape in self.specializations.items():
            lines.append(f"  specializable: {key.describe()} as {shape.describe()}")
        for key, program in self.fixpoints.items():
            lines.append(f"  fixpoint program for {key.describe()}:")
            for line in program.explain().splitlines():
                lines.append(f"    {line}")
        lines.append("  top plan:")
        for line in self.top_plan.explain().splitlines():
            lines.append(f"    {line}")
        return "\n".join(lines)

    # -- Level 3: runtime ---------------------------------------------------------

    @contextmanager
    def solve(self, db=None, on_fallback=None, stats=None):
        """Every fixpoint variable's value against ``db`` (default: live),
        for the duration of the ``with`` block.

        Each program is locked (in :attr:`programs` order, so statements
        sharing programs never deadlock) and advances its held values (a
        hit, a resume from the appended rows, or a run from empty); no
        other statement can move them until the block exits.  Callers
        copy what they keep.  ``on_fallback(kind, detail)`` observes the
        programs' executor degradations; ``stats`` (a ``FixpointStats``)
        receives the advances' counters.
        """
        with ExitStack() as locks:
            apply_values: dict[object, set] = {}
            for program in self.programs:
                locks.enter_context(program.lock)
                program.on_fallback = on_fallback
                apply_values.update(program.advance(stats=stats, db=db))
            yield apply_values

    def run(
        self,
        params: dict | None = None,
        *,
        snapshot=None,
        stats: PlanStats | None = None,
        on_fallback=None,
    ) -> set[tuple]:
        """Execute: fixpoints first (bottom-up), then the top plan.

        ``snapshot`` (a :class:`~repro.relational.DatabaseSnapshot`) is
        the database the whole statement reads — the fixpoints' held
        values follow it by their hit/resume/recompute rule, and the top
        plan runs against it.  ``stats`` collects the top plan's
        counters, and ``on_fallback(kind, detail)`` observes every
        executor degradation, the fixpoints' included.
        """
        db = self.db if snapshot is None else snapshot
        # A statement with nothing held skips the lock-taking path.
        with self.solve(db, on_fallback) if self.programs else nullcontext({}) as apply_values:
            if self.identity is not None:
                return set(apply_values[self.identity])
            ctx = ExecutionContext(db, params, apply_values, stats)
            ctx.shard_config = self.shard_config
            ctx.on_fallback = on_fallback
            return self.top_plan.execute(ctx)


def _is_closed(application: ast.Constructed) -> bool:
    """True when neither base nor arguments mention an enclosing tuple
    variable or a parameter slot — the value is the same for every row
    and every rebinding, so one fixpoint program computes it."""
    return not free_tuple_vars(application) and not any(
        isinstance(n, ast.ParamRef) for n in ast.walk(application)
    )


def compile_statement(
    db: Database,
    query: ast.Query,
    params: dict | None = None,
    *,
    options: ExecOptions | None = None,
    estimates: Mapping[object, float] | None = None,
) -> CompiledStatement:
    """Level 2: produce an executable program for one query form.

    Non-recursive applications are inlined where the cost gate approves;
    every remaining **closed** application — binding range, quantifier
    range or nested — becomes a fixpoint variable read from the
    database's one program for it (:func:`~.fixpoint.held_program`; a
    non-positive one is a :class:`PositivityError`).  An open
    application stays in the query: one over a parameter slot is a
    computed range, one correlated with an enclosing tuple variable is
    the residual's one interpreted shape, decided by the evaluator once
    per group (:func:`~.plans.compile_residual`).  ``options`` reach the
    fixpoint programs and the top plan alike.  ``estimates`` price the
    top plan's ApplyVars that the caller binds itself (a standing-query
    family's parameter relation).
    """
    if options is None:
        options = DEFAULT_OPTIONS
    if ast.find(query, ast.Constructed, ast.RANGE_FREE) is None:
        # Nothing to inline or hold: the top plan is the whole program,
        # and the statement allocates nothing else.
        return CompiledStatement(
            db=db,
            original=query,
            top=query,
            fixpoints=_NOTHING,
            specializations=_NOTHING,
            top_plan=compile_query(
                db, query, params, CostModel(db, estimates) if estimates else None,
                options=options,
            ),
            pushdown_decisions=(),
            shard_config=options.shard_config,
        )
    inlined, pushdown_decisions = cost_gated_inline(db, query, params=params)

    fixpoints: dict[AppKey, CompiledFixpoint] = {}
    specializations: dict[AppKey, LinearTC] = {}
    interned: dict[ast.Constructed, ast.ApplyVar] = {}

    def intern(n: ast.Constructed) -> ast.ApplyVar:
        program, key = held_program(db, n, options)
        system = program.system
        fixpoints[key] = program
        shape = detect_linear_tc(db, system)
        if shape is not None:
            specializations[system.root] = shape
        return ast.ApplyVar(key, system.apps[key].result_type.element)

    def rewrite(n: ast.Node) -> ast.Node:
        # Outermost first: a nested application belongs to its parent's
        # system, and an open one keeps its whole subtree.
        if not isinstance(n, ast.Constructed):
            return map_children(n, rewrite)
        if not _is_closed(n):
            return n
        if n not in interned:
            interned[n] = intern(n)
        return interned[n]

    rewritten: ast.Query = rewrite(inlined)  # type: ignore[assignment]
    identity = None
    if len(rewritten.branches) == 1:
        (branch,) = rewritten.branches
        if (
            branch.targets is None
            and branch.pred == ast.TRUE
            and len(branch.bindings) == 1
            and isinstance(branch.bindings[0].range, ast.ApplyVar)
        ):
            identity = branch.bindings[0].range.token

    # The top plan joins against the held fixpoint values: the cost model
    # prices those ApplyVars from the values (or the growth heuristic).
    top_plan = compile_query(
        db, rewritten, params, cost_model=CostModel(db, estimates),
        options=options,
    )
    return CompiledStatement(
        db=db,
        original=query,
        top=rewritten,
        fixpoints=fixpoints,
        specializations=specializations,
        top_plan=top_plan,
        pushdown_decisions=pushdown_decisions,
        identity=identity,
        shard_config=options.shard_config,
    )
