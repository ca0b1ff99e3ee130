"""SLD resolution: the tuple-at-a-time, proof-oriented comparator.

This is the evaluation model the paper positions constructors *against*:
depth-first, left-to-right, clause-order resolution — PROLOG's strategy
(without cut/fail/negation, per the section 3.4 fragment).  Two
era-faithful properties matter for the experiments:

* on recursive queries it re-derives the same subgoals over and over
  (no memoization), which is what the set-oriented engines avoid;
* on **cyclic** data a recursive program does not terminate; the engine
  enforces a depth budget and raises :class:`DepthLimitExceeded`,
  reproducing the paper's observation that the fixpoint approach
  "seems to be more practical because the problem of endless loops is
  eliminated".

``solve`` enumerates answer substitutions lazily; ``all_answers``
collects the ground instances of a goal.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count

from ..datalog.ast import Atom, Comparison, Const, Literal
from ..errors import DBPLError, EvaluationError
from .kb import KnowledgeBase
from .unify import Subst, ground_tuple, rename_apart, unify_atoms, walk

DEFAULT_MAX_DEPTH = 10_000


class DepthLimitExceeded(DBPLError):
    """SLD resolution exceeded its depth budget (probable endless loop)."""


@dataclass
class SLDStats:
    """Proof-effort counters: the tuple-at-a-time cost the paper contrasts
    with set-oriented evaluation."""

    resolution_steps: int = 0
    unifications: int = 0
    fact_matches: int = 0
    answers: int = 0
    max_depth_seen: int = 0


@contextmanager
def recursion_limit(needed: int):
    """At least ``needed`` as the interpreter's recursion limit, for the
    block only: a process-wide limit would outlive the engine."""
    old = sys.getrecursionlimit()
    if old < needed:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


_CMP = {
    "=": lambda a, b: a == b,
    "\\=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "=<": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class SLDEngine:
    """A minimal PROLOG machine over a knowledge base."""

    def __init__(
        self, kb: KnowledgeBase, max_depth: int = DEFAULT_MAX_DEPTH
    ) -> None:
        self.kb = kb
        self.max_depth = max_depth
        self.stats = SLDStats()
        self._rename = count()
        #: Resolution recurses one Python frame per goal; the interpreter's
        #: limit must not be hit before our own depth budget.
        self._stack = max_depth * 6 + 1000

    # -- resolution -----------------------------------------------------------

    def solve(
        self, goals: tuple[Literal, ...], subst: Subst | None = None, depth: int = 0
    ) -> Iterator[Subst]:
        """Enumerate substitutions proving all ``goals`` (left to right)."""
        subst = subst or {}
        if depth > self.stats.max_depth_seen:
            self.stats.max_depth_seen = depth
        if depth > self.max_depth:
            raise DepthLimitExceeded(
                f"SLD resolution exceeded depth {self.max_depth}; the goal "
                f"probably loops (cyclic data under a recursive program)"
            )
        if not goals:
            yield subst
            return
        goal, rest = goals[0], goals[1:]
        self.stats.resolution_steps += 1

        if isinstance(goal, Comparison):
            left = walk(goal.left, subst)
            right = walk(goal.right, subst)
            if not (isinstance(left, Const) and isinstance(right, Const)):
                raise EvaluationError(
                    f"comparison {goal} reached with unbound variables"
                )
            if _CMP[goal.op](left.value, right.value):
                yield from self.solve(rest, subst, depth)
            return

        facts, rules = self.kb.clauses_for(goal.pred)
        # PROLOG order: facts (unit clauses) in assertion order, then rules.
        for fact in facts:
            self.stats.fact_matches += 1
            candidate = unify_atoms(
                goal, Atom(goal.pred, tuple(Const(v) for v in fact)), subst
            )
            self.stats.unifications += 1
            if candidate is not None:
                yield from self.solve(rest, candidate, depth)
        for rule in rules:
            renamed = rename_apart(rule, str(next(self._rename)))
            self.stats.unifications += 1
            candidate = unify_atoms(goal, renamed.head, subst)
            if candidate is not None:
                yield from self.solve(renamed.body + rest, candidate, depth + 1)

    # -- convenience ---------------------------------------------------------------

    def all_answers(self, goal: Atom) -> set[tuple]:
        """All ground instances of ``goal`` provable from the KB."""
        out: set[tuple] = set()
        try:
            with recursion_limit(self._stack):
                for subst in self.solve((goal,)):
                    row = ground_tuple(goal, subst)
                    if row is None:
                        raise EvaluationError(
                            f"answer to {goal} is not ground "
                            f"(non-range-restricted rule?)"
                        )
                    out.add(row)
                    self.stats.answers += 1
        except RecursionError:
            raise DepthLimitExceeded(
                "SLD resolution exhausted the interpreter stack; the goal "
                "probably loops (cyclic data under a recursive program)"
            ) from None
        return out

    def prove(self, goal: Atom) -> bool:
        """True when at least one proof of ``goal`` exists."""
        with recursion_limit(self._stack):
            return next(self.solve((goal,)), None) is not None
