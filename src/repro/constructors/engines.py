"""Fixpoint engines: naive, semi-naive, and guarded non-monotone iteration.

Section 3.2 defines the value of a constructor application as the limit
of the simultaneous iteration

    apply_i^0     = {}
    apply_i^(k+1) = g_i(apply_0^k, ..., apply_l^k)

reached after finitely many steps whenever the g_i are monotone (which
positivity guarantees).  Three engines implement this:

* :func:`naive_fixpoint` — the literal iteration; also the vehicle for
  the guarded *non-monotone* mode (``history_detection=True``), which
  recognizes genuine oscillation (the paper's ``nonsense`` constructor)
  by revisiting an earlier, non-consecutive state and raises
  :class:`~repro.errors.ConvergenceError`, while still finding the limit
  of convergent non-monotone definitions such as ``strange``.

* :func:`seminaive_fixpoint` — the set-oriented differential evaluation
  the paper's efficiency claim rests on: from the second iteration on,
  recursive branches join only against the *delta* of the previous
  iteration.  Applicable when every fixpoint variable occurs only as a
  direct binding range (checked by :func:`seminaive_eligible`); the
  engine wrapper falls back to naive otherwise.

Both engines return the same mapping ``AppKey -> frozenset(rows)`` and
are cross-checked in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace as dc_replace

from ..calculus import ast
from ..calculus.evaluator import EvalStats, Evaluator
from ..calculus.subst import map_children
from ..errors import ConvergenceError, PositivityError
from ..relational import Database
from .instantiate import AppKey, InstantiatedSystem

DEFAULT_MAX_ITERATIONS = 100_000


@dataclass
class FixpointStats:
    """Operation counters for one fixpoint computation."""

    mode: str = "naive"
    iterations: int = 0
    tuples_derived: int = 0
    peak_delta: int = 0
    #: Mid-fixpoint re-optimizations performed (compiled engine only).
    replans: int = 0
    final_sizes: dict[str, int] = field(default_factory=dict)
    eval_stats: EvalStats = field(default_factory=EvalStats)

    @property
    def total_tuples(self) -> int:
        return sum(self.final_sizes.values())


Values = dict[AppKey, frozenset]


# ---------------------------------------------------------------------------
# Naive iteration
# ---------------------------------------------------------------------------


def naive_fixpoint(
    db: Database,
    system: InstantiatedSystem,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    history_detection: bool = False,
    stats: FixpointStats | None = None,
) -> Values:
    """The literal apply^(k+1) = g(apply^k) iteration of section 3.2."""
    stats = stats if stats is not None else FixpointStats()
    stats.mode = "naive"
    values: Values = {key: frozenset() for key in system.apps}
    seen_states: set[frozenset] = set()
    if history_detection:
        seen_states.add(_state_token(values))

    for _ in range(max_iterations):
        evaluator = Evaluator(db, apply_values=values, stats=stats.eval_stats)
        new: Values = {
            key: frozenset(evaluator.eval_query(app.body))
            for key, app in system.apps.items()
        }
        stats.iterations += 1
        grown = sum(len(new[k] - values[k]) for k in new)
        stats.tuples_derived += grown
        stats.peak_delta = max(stats.peak_delta, grown)
        if new == values:
            stats.final_sizes = {k.describe(): len(v) for k, v in values.items()}
            return values
        if history_detection:
            token = _state_token(new)
            if token in seen_states:
                raise ConvergenceError(
                    f"fixpoint iteration for {system.root.describe()} oscillates: "
                    f"state of iteration {stats.iterations} was seen before "
                    f"without being a fixpoint"
                )
            seen_states.add(token)
        values = new
    raise ConvergenceError(
        f"fixpoint iteration for {system.root.describe()} did not converge "
        f"within {max_iterations} iterations"
    )


def _state_token(values: Values) -> frozenset:
    return frozenset((key, rows) for key, rows in values.items())


def iterate_steps(
    db: Database,
    system: InstantiatedSystem,
    steps: int,
    stats: FixpointStats | None = None,
) -> Values:
    """apply^steps — the bounded sequence of section 3.1 (ahead_n).

    Returns the state after exactly ``steps`` applications of the
    simultaneous operator (or earlier if a fixpoint is reached).
    """
    stats = stats if stats is not None else FixpointStats()
    stats.mode = f"bounded({steps})"
    values: Values = {key: frozenset() for key in system.apps}
    for _ in range(steps):
        evaluator = Evaluator(db, apply_values=values, stats=stats.eval_stats)
        new: Values = {
            key: frozenset(evaluator.eval_query(app.body))
            for key, app in system.apps.items()
        }
        stats.iterations += 1
        if new == values:
            return values
        values = new
    return values


# ---------------------------------------------------------------------------
# Semi-naive (differential) iteration
# ---------------------------------------------------------------------------


def is_fixpoint_variable(node: ast.Node) -> bool:
    return isinstance(node, ast.ApplyVar)


def occurrence_positions(
    branch: ast.Branch, occurs: Callable[[ast.Node], bool]
) -> list[int] | None:
    """Binding positions whose range is an occurrence (``occurs(range)``),
    or None when one occurs anywhere else — inside predicates, targets,
    nested ranges — where no differential can bind it.

    ``occurs`` is :func:`is_fixpoint_variable` for the recursive
    differential, or a test for one base relation's ``RelRef`` for
    differentials w.r.t. that relation.  walk() visits one occurrence per
    structural position, so comparing counts is robust even when node
    objects are aliased.
    """
    positions = [i for i, b in enumerate(branch.bindings) if occurs(b.range)]
    total = sum(1 for node in ast.walk(branch) if occurs(node))
    return positions if total == len(positions) else None


def seminaive_eligible(system: InstantiatedSystem) -> bool:
    """True when every equation confines ApplyVars to binding ranges."""
    return all(
        occurrence_positions(branch, is_fixpoint_variable) is not None
        for app in system.apps.values()
        for branch in app.body.branches
    )


def _variant_token(key: AppKey, kind: str) -> tuple:
    return ("__seminaive__", kind, key)


def variant(rng: ast.ApplyVar, kind: str) -> ast.ApplyVar:
    """Fixpoint variable ``rng`` in one state: "new", "delta" or "old"."""
    return ast.ApplyVar(_variant_token(rng.token, kind), rng.schema)


def as_new(node: ast.Node) -> ast.Node:
    """``node`` with every fixpoint variable rebound to its "new" variant
    (its current value): how a branch reads the fixpoint variables it is
    not differentiated by."""
    if isinstance(node, ast.ApplyVar):
        return variant(node, "new")
    return map_children(node, as_new)


def split_occurrences(
    branch: ast.Branch,
    positions: list[int],
    state: Callable[[ast.RangeExpr, str], ast.RangeExpr],
) -> list[ast.Branch]:
    """The occurrence-split differential variants of one branch.

    For occurrences o_1..o_m at binding ``positions`` (as found by
    :func:`occurrence_positions`), variant i binds o_i to the delta,
    occurrences before i to the *new* full value, and occurrences after i
    to the *old* full value — the standard non-linear differential.
    ``state(range, kind)`` is the range an occurrence reads in that
    state; every other fixpoint variable in the branch reads its new
    value (:func:`as_new`).
    """
    rest: ast.Branch = as_new(branch)  # type: ignore[assignment]
    variants: list[ast.Branch] = []
    for i in range(len(positions)):
        bindings = list(rest.bindings)
        for j, p in enumerate(positions):
            kind = "new" if j < i else "delta" if j == i else "old"
            binding = branch.bindings[p]
            bindings[p] = ast.Binding(binding.var, state(binding.range, kind))
        variants.append(dc_replace(rest, bindings=tuple(bindings)))
    return variants


def seminaive_fixpoint(
    db: Database,
    system: InstantiatedSystem,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    stats: FixpointStats | None = None,
) -> Values:
    """Differential fixpoint evaluation (requires eligibility)."""
    if not seminaive_eligible(system):
        raise PositivityError(
            "semi-naive evaluation requires fixpoint variables to occur "
            "only as direct binding ranges; use the naive engine"
        )
    stats = stats if stats is not None else FixpointStats()
    stats.mode = "seminaive"

    base_queries: dict[AppKey, ast.Query] = {}
    diff_queries: dict[AppKey, ast.Query] = {}
    for key, app in system.apps.items():
        base_branches: list[ast.Branch] = []
        differential: list[ast.Branch] = []
        for branch in app.body.branches:
            positions = occurrence_positions(branch, is_fixpoint_variable)
            assert positions is not None  # guaranteed by eligibility check
            if positions:
                differential.extend(split_occurrences(branch, positions, variant))
            else:
                base_branches.append(branch)
        base_queries[key] = ast.Query(tuple(base_branches))
        diff_queries[key] = ast.Query(tuple(differential))

    # "old" values (V - delta) are only needed by non-linear rules; for the
    # common linear case computing them every iteration would be quadratic.
    old_tokens_used = {
        node.token
        for query in diff_queries.values()
        for node in ast.walk(query)
        if isinstance(node, ast.ApplyVar)
        and isinstance(node.token, tuple)
        and node.token[1] == "old"
    }

    # Iteration 1: the non-recursive branches seed the computation.
    evaluator = Evaluator(db, stats=stats.eval_stats)
    values: dict[AppKey, set] = {
        key: set(evaluator.eval_query(base_queries[key])) for key in system.apps
    }
    deltas: dict[AppKey, set] = {key: set(values[key]) for key in system.apps}
    stats.iterations = 1
    stats.tuples_derived = sum(len(d) for d in deltas.values())
    stats.peak_delta = stats.tuples_derived

    while any(deltas.values()):
        if stats.iterations >= max_iterations:
            raise ConvergenceError(
                f"semi-naive iteration for {system.root.describe()} did not "
                f"converge within {max_iterations} iterations"
            )
        apply_values: dict[object, set] = {}
        for key in system.apps:
            apply_values[_variant_token(key, "new")] = values[key]
            apply_values[_variant_token(key, "delta")] = deltas[key]
            old_token = _variant_token(key, "old")
            if old_token in old_tokens_used:
                apply_values[old_token] = values[key] - deltas[key]
        evaluator = Evaluator(db, apply_values=apply_values, stats=stats.eval_stats)
        new_deltas: dict[AppKey, set] = {}
        for key in system.apps:
            produced = evaluator.eval_query(diff_queries[key])
            new_deltas[key] = produced - values[key]
        for key in system.apps:
            values[key] |= new_deltas[key]
        deltas = new_deltas
        stats.iterations += 1
        grown = sum(len(d) for d in deltas.values())
        stats.tuples_derived += grown
        stats.peak_delta = max(stats.peak_delta, grown)

    frozen = {key: frozenset(rows) for key, rows in values.items()}
    stats.final_sizes = {k.describe(): len(v) for k, v in frozen.items()}
    return frozen
