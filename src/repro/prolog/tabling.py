"""Tabled (memoized) top-down evaluation: QSQ-style "tuple-at-a-time cycling".

The paper's section 4 lists, among the evaluation options for recursive
cycles, "a tuple-at-a-time cycling [McSh 81]" — top-down proof search
that records answers per subgoal and iterates until the answer tables
stabilize.  This engine implements that idea:

* subgoals are canonicalized to *binding patterns* — constants in bound
  argument positions, None elsewhere — so proof effort is shared across
  identical calls and restricted to goal-relevant facts (the same
  relevance property magic-set rewriting gives bottom-up engines);
* within one round a subgoal is expanded once; recursive calls read the
  current table; an outer cycling loop repeats rounds until no table
  grows, guaranteeing termination on cyclic data where plain SLD loops.

It is the strongest proof-oriented baseline in the benchmark suite:
goal-directed like SLD, terminating like the fixpoint engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from ..datalog.ast import Atom, Comparison, Const, Var
from ..errors import ConvergenceError, EvaluationError
from .kb import KnowledgeBase
from .sld import _CMP, recursion_limit
from .unify import Subst, ground_tuple, rename_apart, unify_atoms, walk

#: A binding pattern: constants where the call is bound, None where free.
Pattern = tuple


@dataclass
class TabledStats:
    """Effort counters for the tabled engine."""

    rounds: int = 0
    subgoals: int = 0
    expansions: int = 0
    resolution_steps: int = 0
    table_hits: int = 0
    answers: int = 0


class TabledEngine:
    """Memoized top-down evaluation over a knowledge base."""

    def __init__(self, kb: KnowledgeBase, max_rounds: int = 10_000) -> None:
        self.kb = kb
        self.max_rounds = max_rounds
        self.stats = TabledStats()
        self.tables: dict[tuple[str, Pattern], set[tuple]] = {}
        self._rename = count()

    # -- pattern handling ------------------------------------------------------

    @staticmethod
    def _pattern_of(atom: Atom, subst: Subst) -> Pattern:
        values = []
        for term in atom.terms:
            term = walk(term, subst)
            values.append(term.value if isinstance(term, Const) else None)
        return tuple(values)

    @staticmethod
    def _matches(row: tuple, pattern: Pattern) -> bool:
        return all(p is None or p == v for p, v in zip(pattern, row))

    # -- evaluation ---------------------------------------------------------------

    def all_answers(self, goal: Atom) -> set[tuple]:
        """All ground instances of ``goal``, computed with tabling."""
        pattern = self._pattern_of(goal, {})
        subgoal = (goal.pred, pattern)
        # Subgoal expansion recurses one Python frame per distinct subgoal
        # along a derivation chain; deep chains need a deep stack.
        with recursion_limit(100_000):
            for _ in range(self.max_rounds):
                self.stats.rounds += 1
                self._changed = False
                self._expanded: set[tuple[str, Pattern]] = set()
                self._in_progress: set[tuple[str, Pattern]] = set()
                self._expand(subgoal)
                if not self._changed:
                    break
            else:
                raise ConvergenceError(
                    f"tabled evaluation did not stabilize in {self.max_rounds} rounds"
                )
        answers = self.tables.get(subgoal, set())
        # Post-filter for repeated variables in the goal (p(X, X)).
        out: set[tuple] = set()
        for row in answers:
            subst = unify_atoms(goal, Atom(goal.pred, tuple(Const(v) for v in row)), {})
            if subst is not None:
                out.add(row)
        self.stats.answers = len(out)
        return out

    def _expand(self, subgoal: tuple[str, Pattern]) -> None:
        if subgoal in self._in_progress or subgoal in self._expanded:
            self.stats.table_hits += 1
            return
        if subgoal not in self.tables:
            self.tables[subgoal] = set()
            self.stats.subgoals += 1
        self._expanded.add(subgoal)
        self._in_progress.add(subgoal)
        self.stats.expansions += 1
        pred, pattern = subgoal
        table = self.tables[subgoal]

        facts, rules = self.kb.clauses_for(pred)
        for row in facts:
            if self._matches(row, pattern):
                if row not in table:
                    table.add(row)
                    self._changed = True

        call_atom = Atom(
            pred,
            tuple(Const(v) if v is not None else Var(f"_A{i}") for i, v in enumerate(pattern)),
        )
        for rule in rules:
            renamed = rename_apart(rule, str(next(self._rename)))
            subst = unify_atoms(call_atom, renamed.head, {})
            if subst is None:
                continue
            self._solve_body(renamed.head, renamed.body, subst, table)
        self._in_progress.discard(subgoal)

    def _solve_body(
        self, head: Atom, body: tuple, subst: Subst, table: set[tuple]
    ) -> None:
        self.stats.resolution_steps += 1
        if not body:
            row = ground_tuple(head, subst)
            if row is None:
                raise EvaluationError(
                    f"tabled answer for {head} is not ground (unsafe rule?)"
                )
            if row not in table:
                table.add(row)
                self._changed = True
            return
        lit, rest = body[0], body[1:]
        if isinstance(lit, Comparison):
            left = walk(lit.left, subst)
            right = walk(lit.right, subst)
            if not (isinstance(left, Const) and isinstance(right, Const)):
                raise EvaluationError(f"comparison {lit} with unbound variables")
            if _CMP[lit.op](left.value, right.value):
                self._solve_body(head, rest, subst, table)
            return
        sub_pattern = self._pattern_of(lit, subst)
        subgoal = (lit.pred, sub_pattern)
        if lit.pred in self.kb.rules:
            self._expand(subgoal)
            answers = self.tables.get(subgoal, set())
        else:
            # Pure EDB predicate: read the facts directly.
            answers = {
                row
                for row in self.kb.facts.get(lit.pred, [])
                if self._matches(row, sub_pattern)
            }
        for row in answers:
            extended = unify_atoms(
                lit, Atom(lit.pred, tuple(Const(v) for v in row)), subst
            )
            if extended is not None:
                self._solve_body(head, rest, extended, table)
