"""Bottom-up Datalog evaluation: naive, semi-naive, and compiled.

The naive and semi-naive modes are deliberately *independent* of the
constructor machinery — they evaluate rules by substitution over fact
sets — so the test suite can cross-check three separately-implemented
evaluators (constructor fixpoints, this engine, and SLD resolution)
against each other, which is the strongest correctness evidence a
reproduction can offer.

``mode="compiled"`` routes the program through the section 3.4
translation (:mod:`repro.datalog.to_constructors`) into constructor
systems and runs the planner's batched fixpoint executor on them —
Datalog queries get cost-based join ordering, hash-join access paths,
and set-at-a-time execution for free, while the substitution engines
remain the semantic baseline.

Only positive programs (no negation) with optional comparison literals
are supported, matching the section 3.4 fragment.  Rules must be range
restricted (safe); violations raise :class:`~repro.errors.TranslationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import Diagnostics
from ..compiler.options import ExecOptions
from ..errors import DatalogAnalysisError, TranslationError
from .ast import Atom, Comparison, Const, Program, Rule

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
    """Evaluates a positive Datalog program over extensional facts."""

    def __init__(self, program: Program, edb: Facts | None = None) -> None:
        self.diagnostics = _analysis_gate(program)
        self.program = program
        self.edb: Facts = {p: set(rows) for p, rows in (edb or {}).items()}
        # Facts written inline in the program join the EDB.
        for rule in program.rules:
            if rule.is_fact:
                self.edb.setdefault(rule.head.pred, set()).add(
                    tuple(t.value for t in rule.head.terms)  # type: ignore[union-attr]
                )
        self.idb_rules = [r for r in program.rules if not r.is_fact]
        self.idb_preds = {r.head.pred for r in self.idb_rules}

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

    def solve_naive(self, stats: DatalogStats | None = None) -> dict[str, frozenset]:
        stats = stats if stats is not None else DatalogStats()
        stats.mode = "naive"
        totals: Facts = {p: set(rows) for p, rows in self.edb.items()}
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
        self, stats: DatalogStats | None = None
    ) -> dict[str, frozenset]:
        stats = stats if stats is not None else DatalogStats()
        stats.mode = "seminaive"
        totals: Facts = {p: set(rows) for p, rows in self.edb.items()}

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

    def solve_compiled(
        self,
        stats: DatalogStats | None = None,
        *,
        options: ExecOptions | None = None,
    ) -> dict[str, frozenset]:
        """Evaluate through the constructor translation and the batched
        fixpoint executor (see :mod:`repro.compiler`).

        Each IDB predicate's least model is the value of its translated
        constructor application; mutually recursive predicates share one
        instantiated system, so every strongly connected component is
        solved exactly once.  ``options.executor`` names a backend in
        the :mod:`repro.compiler.executors` registry — ``"batch"``
        (columnar struct-of-arrays pipelines, the default), ``"vector"``,
        ``"sharded"`` (hash-partitioned parallel execution;
        ``options.shard_config`` tunes its worker pool), or the
        ``"tuple"``/``"rowbatch"`` baselines — so Datalog programs
        inherit every executor improvement unchanged.
        """
        from ..compiler.fixpoint import construct_compiled
        from .to_constructors import datalog_to_database

        stats = stats if stats is not None else DatalogStats()
        stats.mode = "compiled"
        db, applications = datalog_to_database(self.program, self.edb)
        totals: dict[str, frozenset] = {
            pred: frozenset(rows) for pred, rows in self.edb.items()
        }
        solved: set[str] = set()
        for pred, application in applications.items():
            if pred in solved:
                continue
            result = construct_compiled(db, application, options=options)
            # Harvest every application of the instantiated system: a
            # mutually recursive clique is computed once, not per root.
            for key, rows in result.values.items():
                name = key.constructor
                if name.startswith("c_") and name[2:] in applications:
                    totals[name[2:]] = frozenset(rows)
                    solved.add(name[2:])
            stats.iterations += result.stats.iterations
            stats.tuples_derived += result.stats.tuples_derived
            stats.rule_firings += len(result.system.apps)
        return totals

    def solve(
        self,
        mode: str = "seminaive",
        stats: DatalogStats | None = None,
        *,
        options: ExecOptions | None = None,
    ) -> dict[str, frozenset]:
        if mode == "naive":
            return self.solve_naive(stats)
        if mode == "seminaive":
            return self.solve_seminaive(stats)
        if mode == "compiled":
            return self.solve_compiled(stats, options=options)
        raise ValueError(f"unknown mode {mode!r}")

    def query(
        self, goal: Atom, mode: str = "seminaive", stats: DatalogStats | None = None
    ) -> set[tuple]:
        """All ground instances of ``goal`` entailed by the program."""
        solution = self.solve(mode, stats)
        rows = solution.get(goal.pred, frozenset())
        out: set[tuple] = set()
        for fact in rows:
            bindings = _match_atom(goal, fact, {})
            if bindings is not None:
                out.add(fact)
        return out
