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
from .database import Database, DatabaseSnapshot
from .indexes import (
    HashIndex,
    ShardView,
    partition_rows,
    partition_views,
)
from .relation import PinnedRelation, Relation
from .rows import Row
from .stats import ColumnStats, Histogram, StatsCatalog, TableStats
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
    "DatabaseSnapshot",
    "Dictionary",
    "EncodedTable",
    "HashIndex",
    "Histogram",
    "PinnedRelation",
    "Relation",
    "RelationStore",
    "Row",
    "ShardView",
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
