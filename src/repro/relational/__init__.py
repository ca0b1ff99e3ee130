"""Relational substrate: rows, relation variables, databases, algebra."""

from .algebra import (
    antijoin,
    cartesian,
    difference,
    equijoin,
    intersection,
    project,
    select,
    semijoin,
    union,
)
from .database import Database
from .indexes import (
    HashIndex,
    ShardView,
    SnapshotView,
    partition_rows,
    partition_views,
)
from .relation import Relation
from .rows import Row
from .stats import ColumnStats, DeltaStats, Histogram, StatsCatalog, TableStats
from .storage import (
    RelationStore,
    open_database,
    spill_database,
)
from .vectors import (
    ColumnVector,
    Dictionary,
    EncodedTable,
)

__all__ = [
    "ColumnStats",
    "ColumnVector",
    "Database",
    "DeltaStats",
    "Dictionary",
    "EncodedTable",
    "HashIndex",
    "Histogram",
    "Relation",
    "RelationStore",
    "Row",
    "ShardView",
    "SnapshotView",
    "StatsCatalog",
    "TableStats",
    "open_database",
    "spill_database",
    "antijoin",
    "partition_rows",
    "partition_views",
    "cartesian",
    "difference",
    "equijoin",
    "intersection",
    "project",
    "select",
    "semijoin",
    "union",
]
