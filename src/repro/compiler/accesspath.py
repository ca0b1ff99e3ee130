"""Logical and physical access paths (section 4, runtime level).

For parameterized selector/constructor queries the paper distinguishes:

* a **logical access path** — "a compiled procedure with dummy constants"
  [HeNa 84]: the query is compiled once with the parameter left open, and
  each invocation runs the compiled form with the constant plugged in;

* a **physical access path** — the relation corresponding to the query
  with the constants treated as variables is *materialized* and
  "partitioned according to the different constant values"; invocations
  become hash lookups.  "Obviously, a physical access path would be
  generated only in case of heavy query usage" — benchmark E11 measures
  exactly that break-even.

Both paths answer the same request: *the rows of a constructed relation
restricted on one attribute = constant* (the ``Infront{ahead}`` with
``head = Obj`` pattern).  Physical paths must be refreshed after base
updates (maintenance per [ShTZ 84] is out of scope and explicit here).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calculus import ast
from ..constructors.instantiate import instantiate
from ..errors import EvaluationError
from ..relational import Database
from .fixpoint import compile_fixpoint
from .plans import CostModel
from .specialize import SpecializedStats, bound_query, detect_linear_tc


@dataclass
class AccessPathStats:
    invocations: int = 0
    recomputations: int = 0
    partition_lookups: int = 0


class LogicalAccessPath:
    """Compiled once; each call evaluates goal-directedly (or re-runs the
    compiled fixpoint when the shape does not specialize)."""

    def __init__(
        self,
        db: Database,
        application: ast.Constructed,
        attr: str,
        allow_specialization: bool = True,
    ) -> None:
        self.db = db
        self.application = application
        self.attr = attr
        self.system = instantiate(db, application)
        result_schema = self.system.apps[self.system.root].result_type.element
        self.attr_index = result_schema.index_of(attr)
        self.shape = detect_linear_tc(db, self.system) if allow_specialization else None
        self._compiled = None if self.shape is not None else compile_fixpoint(db, self.system)
        self.stats = AccessPathStats()

    def lookup(self, value: object) -> set[tuple]:
        self.stats.invocations += 1
        self.stats.recomputations += 1
        if self.shape is not None:
            bound = "head" if self.attr_index == 0 else "tail"
            return bound_query(self.db, self.shape, bound, value, SpecializedStats())
        values = self._compiled.run()
        rows = values[self.system.root]
        return {r for r in rows if r[self.attr_index] == value}


class PhysicalAccessPath:
    """Materialized and partitioned by the parameter attribute."""

    def __init__(self, db: Database, application: ast.Constructed, attr: str) -> None:
        self.db = db
        self.application = application
        self.attr = attr
        self.system = instantiate(db, application)
        result_schema = self.system.apps[self.system.root].result_type.element
        self.attr_index = result_schema.index_of(attr)
        self._compiled = compile_fixpoint(db, self.system)
        self.stats = AccessPathStats()
        self._partitions: dict[object, set[tuple]] | None = None
        self._base_versions: dict[str, int] = {}

    def _snapshot_versions(self) -> dict[str, int]:
        return {name: rel.version for name, rel in self.db.relations.items()}

    def materialize(self) -> None:
        """(Re)compute the full constructed relation and partition it."""
        self.stats.recomputations += 1
        values = self._compiled.run()
        rows = values[self.system.root]
        partitions: dict[object, set[tuple]] = {}
        for row in rows:
            partitions.setdefault(row[self.attr_index], set()).add(row)
        self._partitions = partitions
        self._base_versions = self._snapshot_versions()

    def is_stale(self) -> bool:
        return self._partitions is None or self._base_versions != self._snapshot_versions()

    def lookup(self, value: object) -> set[tuple]:
        self.stats.invocations += 1
        if self._partitions is None:
            self.materialize()
        elif self.is_stale():
            raise EvaluationError(
                "physical access path is stale: a base relation changed; "
                "call materialize() to refresh"
            )
        self.stats.partition_lookups += 1
        return set(self._partitions.get(value, set()))


def choose_access_path(
    db: Database,
    application: ast.Constructed,
    attr: str,
    expected_invocations: int = 1,
    allow_specialization: bool = True,
) -> "LogicalAccessPath | PhysicalAccessPath":
    """Cost-gated choice between a logical and a physical access path.

    "Obviously, a physical access path would be generated only in case of
    heavy query usage" — this function decides what counts as heavy from
    table statistics: the estimated size of the constructed relation
    (the value a registered program holds, when one does), whether a
    goal-directed specialization exists (which makes logical invocations
    cheap), and the caller's expected invocation count.
    """
    system = instantiate(db, application)
    model = CostModel(db)
    est_full = model.apply_cardinality(system.root)

    shape = detect_linear_tc(db, system) if allow_specialization else None
    if shape is not None:
        # A seeded traversal touches roughly the reachable fragment.
        logical_per_call = max(1.0, est_full ** 0.5)
    else:
        # A full fixpoint recomputation per call: value size times the
        # (estimated) iteration count.
        logical_per_call = est_full * 2.0

    # Per-lookup partition size: the statistics of the value a registered
    # program holds (skew-blended equality selectivity over the partition
    # attribute — heavy partitions are probed more often), else the sqrt
    # heuristic.
    held = model.held_value(system.root)
    pos = system.apps[system.root].result_type.element.index_of(attr)
    if held is not None and held.stats.row_count > 0:
        partition_rows = est_full * held.stats.eq_selectivity(pos)
    else:
        partition_rows = max(1.0, est_full ** 0.5)

    physical_total = est_full * 2.0 + expected_invocations * partition_rows
    logical_total = expected_invocations * logical_per_call
    if physical_total < logical_total:
        return PhysicalAccessPath(db, application, attr)
    return LogicalAccessPath(db, application, attr, allow_specialization)
