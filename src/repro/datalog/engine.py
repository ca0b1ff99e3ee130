"""Bottom-up Datalog evaluation: naive, semi-naive, and compiled.

The naive and semi-naive modes are deliberately *independent* of the
constructor machinery — they evaluate rules by substitution over fact
sets — so the test suite can cross-check three separately-implemented
evaluators (constructor fixpoints, this engine, and SLD resolution)
against each other, which is the strongest correctness evidence a
reproduction can offer.

``mode="compiled"`` takes the program for what the section 3.4 lemma
says it is, constructor declarations over a database
(:func:`~repro.datalog.to_constructors.declare_program`), and compiles
each goal *shape* once into a :class:`~repro.dbpl.serving.PreparedPlan`
— the one runtime every compiled read has (held values, every executor)
— with the goal's constants as its slots: ``path(a, Y)`` and
``path(b, Y)`` are one statement over the database's one held value of
``path``.  The substitution engines remain the semantic baseline.

Every mode reads the database's current state, or the snapshot an
``ExecOptions(snapshot=...)`` names.

Only positive programs (no negation) with optional comparison literals
are supported, matching the section 3.4 fragment.  Rules must be range
restricted (safe); violations raise :class:`~repro.errors.TranslationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import Diagnostics
from ..compiler.levels import CompiledStatement
from ..compiler.options import DEFAULT_OPTIONS, ExecOptions
from ..constructors.engines import FixpointStats
from ..dbpl.serving import PreparedPlan, parameterize
from ..errors import DatalogAnalysisError, TranslationError
from ..relational import Database, DatabaseSnapshot
from .ast import Atom, Comparison, Const, Program, Rule, Var
from .to_constructors import declare_program, goal_query, program_facts, program_fields

Bindings = dict[str, object]
Facts = dict[str, set[tuple]]


@dataclass
class DatalogStats:
    """Operation counters for bottom-up evaluation."""

    mode: str = "seminaive"
    iterations: int = 0
    rule_firings: int = 0
    substitutions: int = 0
    tuples_derived: int = 0


_CMP = {
    "=": lambda a, b: a == b,
    "\\=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "=<": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _analysis_gate(program: Program) -> Diagnostics:
    """Run the static analyzer over ``program`` and reject on errors.

    Errors (unsafe rules, negation outside the positive fragment,
    non-stratifiable programs) raise :class:`DatalogAnalysisError`, a
    span-carrying subclass of :class:`TranslationError`, so existing
    callers that catch the latter are unaffected.  Warnings and hints
    are returned for the engine to keep on ``self.diagnostics``.
    """
    # Imported here: repro.analysis.rules walks the Datalog AST, so a
    # module-level import would be circular through the package __init__.
    from ..analysis.rules import analyze_datalog

    diags = analyze_datalog(program, positive_only=True)
    diags.raise_if_errors("datalog program rejected", cls=DatalogAnalysisError)
    return diags


def _match_atom(
    atom: Atom, fact: tuple, bindings: Bindings
) -> Bindings | None:
    """Extend ``bindings`` so that atom matches fact, or None."""
    out = bindings
    copied = False
    for term, value in zip(atom.terms, fact):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = out.get(term.name, _UNSET)
            if bound is _UNSET:
                if not copied:
                    out = dict(out)
                    copied = True
                out[term.name] = value
            elif bound != value:
                return None
    return out if copied else dict(out)


_UNSET = object()


class DatalogEngine:
    """Evaluates a positive Datalog program over extensional facts:
    a fact dict, declared into a database of the engine's own on first
    compiled use, or a :class:`~repro.relational.Database` the program
    is declared into at once — every mode then reads its current state.
    """

    def __init__(self, program: Program, edb: Facts | Database | None = None) -> None:
        self.diagnostics = _analysis_gate(program)
        self.program = program
        self.idb_rules = [r for r in program.rules if not r.is_fact]
        self.idb_preds = {r.head.pred for r in self.idb_rules}
        self.db = edb if isinstance(edb, Database) else None
        # Facts written inline in the program join the EDB.
        facts = program_facts(program, None if self.db is not None else edb)
        self._facts = facts if self.db is None else None
        self.fields = program_fields(program, facts, self.db)
        if self.db is not None:
            declare_program(self.db, program)
        #: Compiled goal plans, by goal shape, constant types and options.
        self._statements: dict[tuple, PreparedPlan] = {}

    def edb(self, snapshot: DatabaseSnapshot | None = None) -> Facts:
        """The extensional facts (and IDB seed facts) the rules start
        from, as of ``snapshot`` (default: now)."""
        if snapshot is None and self._facts is not None:
            return self._facts
        db = self.db if snapshot is None else snapshot
        return {
            pred: db[f"{pred}__base" if pred in self.idb_preds else pred].rows()
            for pred in self.fields
        }

    def _snapshot(self, options: ExecOptions | None) -> DatabaseSnapshot | None:
        """``options.snapshot``, which must be of the engine's database."""
        snapshot = options.snapshot if options is not None else None
        # A snapshot answers with its database's statistics catalog.
        if snapshot is not None and (self.db is None or snapshot.stats is not self.db.stats):
            raise ValueError("the snapshot is not of this engine's database")
        return snapshot

    # -- rule application ---------------------------------------------------

    def _facts_for(
        self, pred: str, totals: Facts, overrides: dict[str, set[tuple]] | None
    ) -> set[tuple]:
        if overrides is not None and pred in overrides:
            return overrides[pred]
        return totals.get(pred, set())

    def _fire(
        self,
        rule: Rule,
        totals: Facts,
        stats: DatalogStats,
        overrides_per_atom: list[dict[str, set[tuple]] | None] | None = None,
    ) -> set[tuple]:
        """All head tuples derivable from ``rule`` under ``totals``.

        ``overrides_per_atom`` optionally substitutes the fact set seen by
        individual body-atom positions (used by the semi-naive split).
        """
        stats.rule_firings += 1
        derived: set[tuple] = set()
        atoms = [i for i, lit in enumerate(rule.body) if isinstance(lit, Atom)]
        comparisons = [
            (i, lit) for i, lit in enumerate(rule.body) if isinstance(lit, Comparison)
        ]

        def emit(bindings: Bindings) -> None:
            values = []
            for term in rule.head.terms:
                if isinstance(term, Const):
                    values.append(term.value)
                else:
                    values.append(bindings[term.name])
            derived.add(tuple(values))

        def comparisons_ok(bindings: Bindings) -> bool:
            for _i, cmp in comparisons:
                left = cmp.left.value if isinstance(cmp.left, Const) else bindings.get(cmp.left.name, _UNSET)
                right = cmp.right.value if isinstance(cmp.right, Const) else bindings.get(cmp.right.name, _UNSET)
                if left is _UNSET or right is _UNSET:
                    raise TranslationError(
                        f"comparison {cmp} has unbound variables in rule {rule}"
                    )
                if not _CMP[cmp.op](left, right):
                    return False
            return True

        def join(index: int, bindings: Bindings) -> None:
            if index == len(atoms):
                if comparisons_ok(bindings):
                    emit(bindings)
                return
            atom_pos = atoms[index]
            atom: Atom = rule.body[atom_pos]  # type: ignore[assignment]
            overrides = (
                overrides_per_atom[index] if overrides_per_atom is not None else None
            )
            for fact in self._facts_for(atom.pred, totals, overrides):
                stats.substitutions += 1
                extended = _match_atom(atom, fact, bindings)
                if extended is not None:
                    join(index + 1, extended)

        join(0, {})
        return derived

    # -- naive evaluation ---------------------------------------------------------

    def solve_naive(
        self, stats: DatalogStats | None = None, snapshot: DatabaseSnapshot | None = None
    ) -> dict[str, frozenset]:
        stats = stats if stats is not None else DatalogStats()
        stats.mode = "naive"
        totals: Facts = {p: set(rows) for p, rows in self.edb(snapshot).items()}
        while True:
            stats.iterations += 1
            new: Facts = {}
            for rule in self.idb_rules:
                new.setdefault(rule.head.pred, set()).update(
                    self._fire(rule, totals, stats)
                )
            changed = False
            for pred, rows in new.items():
                current = totals.setdefault(pred, set())
                fresh = rows - current
                if fresh:
                    stats.tuples_derived += len(fresh)
                    current |= fresh
                    changed = True
            if not changed:
                return {p: frozenset(rows) for p, rows in totals.items()}

    # -- semi-naive evaluation -------------------------------------------------------

    def solve_seminaive(
        self, stats: DatalogStats | None = None, snapshot: DatabaseSnapshot | None = None
    ) -> dict[str, frozenset]:
        stats = stats if stats is not None else DatalogStats()
        stats.mode = "seminaive"
        totals: Facts = {p: set(rows) for p, rows in self.edb(snapshot).items()}

        # Round 1: every rule fires once against the EDB state.
        deltas: Facts = {p: set() for p in self.idb_preds}
        stats.iterations = 1
        for rule in self.idb_rules:
            produced = self._fire(rule, totals, stats)
            current = totals.setdefault(rule.head.pred, set())
            fresh = produced - current
            deltas[rule.head.pred] |= fresh
        for pred in self.idb_preds:
            totals.setdefault(pred, set()).update(deltas[pred])
            stats.tuples_derived += len(deltas[pred])

        while any(deltas.values()):
            stats.iterations += 1
            new_deltas: Facts = {p: set() for p in self.idb_preds}
            old: Facts = {
                p: totals.get(p, set()) - deltas.get(p, set()) for p in self.idb_preds
            }
            for rule in self.idb_rules:
                atoms = [lit for lit in rule.body if isinstance(lit, Atom)]
                rec_positions = [
                    i for i, a in enumerate(atoms) if a.pred in self.idb_preds
                ]
                for _k, rec_pos in enumerate(rec_positions):
                    overrides: list[dict[str, set[tuple]] | None] = []
                    for i, atom in enumerate(atoms):
                        if atom.pred not in self.idb_preds:
                            overrides.append(None)
                            continue
                        if i < rec_pos:
                            overrides.append({atom.pred: totals.get(atom.pred, set())})
                        elif i == rec_pos:
                            overrides.append({atom.pred: deltas.get(atom.pred, set())})
                        else:
                            overrides.append({atom.pred: old.get(atom.pred, set())})
                    produced = self._fire(rule, totals, stats, overrides)
                    new_deltas[rule.head.pred] |= produced
            for pred in self.idb_preds:
                new_deltas[pred] -= totals.get(pred, set())
                totals.setdefault(pred, set()).update(new_deltas[pred])
                stats.tuples_derived += len(new_deltas[pred])
            deltas = new_deltas
        return {p: frozenset(rows) for p, rows in totals.items()}

    # -- compiled evaluation ----------------------------------------------------

    def _plan(
        self, goal: Atom, options: ExecOptions | None
    ) -> tuple[PreparedPlan, tuple]:
        """The plan of ``goal``'s shape, compiled once per shape, constant
        types and options, and the goal's constants to bind into it.  An
        unknown predicate is DBPL103, a wrong arity DBPL104."""
        shape, constants = parameterize(goal_query(goal, self.idb_preds, self.fields))
        options = options if options is not None else DEFAULT_OPTIONS
        key = (shape, tuple(map(type, constants)), options.cache_key())
        plan = self._statements.get(key)
        if plan is None:
            if self.db is None:
                self.db = Database("datalog")
                # A predicate without facts is empty.
                facts = dict.fromkeys(self.fields, ()) | self._facts
                declare_program(self.db, self.program, facts)
            plan = self._statements[key] = PreparedPlan(
                self.db, shape, constants, options=options
            )
        return plan, constants

    def statement(
        self, goal: Atom, options: ExecOptions | None = None
    ) -> CompiledStatement:
        """The statement whose rows are ``goal``'s ground instances: one
        per goal shape and options, so a re-asked goal — or one differing
        only in its constants — advances the same held values."""
        return self._plan(goal, options)[0].statement

    def solve(
        self,
        mode: str = "seminaive",
        stats: DatalogStats | None = None,
        *,
        options: ExecOptions | None = None,
    ) -> dict[str, frozenset]:
        """Every predicate's value, EDB predicates included; ``options``
        reach the plans of ``compiled`` mode (see :meth:`statement`), and
        their ``snapshot`` is the state every mode reads."""
        snapshot = self._snapshot(options)
        if mode == "naive":
            return self.solve_naive(stats, snapshot)
        if mode == "seminaive":
            return self.solve_seminaive(stats, snapshot)
        if mode != "compiled":
            raise ValueError(f"unknown mode {mode!r}")
        stats = stats if stats is not None else DatalogStats()
        stats.mode = "compiled"
        totals = {pred: frozenset(rows) for pred, rows in self.edb(snapshot).items()}
        solved: set[str] = set()
        for pred in sorted(self.idb_preds):  # a clique is solved once
            if pred in solved:
                continue
            goal = Atom(pred, tuple(Var(f"X{i}") for i in range(len(self.fields[pred]))))
            plan, _ = self._plan(goal, options)
            statement = plan.statement
            fixpoint_stats = FixpointStats()
            with statement.solve(snapshot, stats=fixpoint_stats) as values:
                for key, rows in values.items():
                    totals[key.constructor[2:]] = frozenset(rows)
                    solved.add(key.constructor[2:])
            stats.iterations += fixpoint_stats.iterations
            stats.tuples_derived += fixpoint_stats.tuples_derived
            stats.rule_firings += sum(len(p.system.apps) for p in statement.programs)
            if pred not in solved:  # inlined: the top plan computes it
                totals[pred] = frozenset(plan.run((), snapshot))
        return totals

    def query(
        self,
        goal: Atom,
        mode: str = "seminaive",
        stats: DatalogStats | None = None,
        *,
        options: ExecOptions | None = None,
    ) -> set[tuple]:
        """All ground instances of ``goal`` entailed by the program
        (``stats`` counts the substitution modes' work)."""
        if mode == "compiled":
            plan, constants = self._plan(goal, options)
            return plan.run(constants, self._snapshot(options))
        goal_query(goal, self.idb_preds, self.fields)  # DBPL103/104 as compiled
        solution = self.solve(mode, stats, options=options)
        rows = solution.get(goal.pred, frozenset())
        out: set[tuple] = set()
        for fact in rows:
            bindings = _match_atom(goal, fact, {})
            if bindings is not None:
                out.add(fact)
        return out
