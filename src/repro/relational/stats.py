"""Table statistics for cost-based query planning.

The paper's runtime level decides between generated access paths; those
decisions need numbers.  This module maintains the three quantities the
planner (:class:`repro.compiler.plans.CostModel`) prices plans with:

* **cardinalities** — ``|R|`` per relation;
* **distinct-value counts** — per column, kept *exactly* via value
  multisets so estimates stay correct under insert *and* delete;
* **selectivities** — the classic System-R estimates derived from the
  above: an equality on column ``c`` keeps ``1/distinct(c)`` of the
  rows, a join on ``R.a = S.b`` produces ``|R||S| / max(d_a, d_b)``;
* **equi-depth histograms** — per column, built lazily from the exact
  value multisets and maintained incrementally (bucket counters are
  adjusted per insert/delete; once mutations exceed a staleness
  threshold the histogram is rebuilt from the multiset on the next
  probe).  They price *range* predicates (``<``, ``<=``, ``>``,
  ``>=``), replacing the blind constant the planner used before.

Statistics are maintained **incrementally**: a :class:`TableStats` is
built once from a relation's rows and then updated in place by
:meth:`TableStats.add_rows` / :meth:`TableStats.remove_rows` on every
insert/delete (see :class:`~repro.relational.relation.Relation`).  A
fixpoint program's held value has the same statistics as a view, built
on first read and extended by the rows it grew by
(:attr:`~repro.compiler.fixpoint.HeldValue.stats`) — what compilations
over the constructor application are priced with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable
from functools import partial

#: Target bucket count for equi-depth histograms.
HISTOGRAM_BUCKETS = 16

#: A histogram is rebuilt (lazily, on the next probe) once the number of
#: mutations applied since it was built exceeds this fraction of the
#: rows it was built over (with a small absolute floor so tiny tables
#: don't thrash).
HISTOGRAM_STALENESS = 0.25
HISTOGRAM_STALENESS_FLOOR = 32

#: The plan epoch (see :meth:`StatsCatalog.epoch`) moves once some
#: relation's cardinality has drifted by more than this fraction of the
#: row count it had when the epoch was last stamped...
PLAN_EPOCH_STALENESS = 0.25
#: ...with a small absolute floor so tiny tables don't thrash the
#: serving layer's plan cache on every insert.
PLAN_EPOCH_FLOOR = 32


class Histogram:
    """An equi-depth histogram over one column's orderable values.

    ``bounds[i]`` is the inclusive upper bound of bucket ``i`` (bucket
    lower bounds are the previous bucket's upper bound, exclusive;
    bucket 0 starts at ``lo``).  ``depths[i]`` counts the rows currently
    attributed to bucket ``i`` — exact at build time, then adjusted
    incrementally per insert/delete until :meth:`stale` triggers a
    rebuild.  Values outside ``[lo, bounds[-1]]`` are clamped into the
    edge buckets, widening them.
    """

    __slots__ = ("lo", "bounds", "depths", "built_rows", "mutations")

    def __init__(self, lo, bounds: list, depths: list[int]) -> None:
        self.lo = lo
        self.bounds = bounds
        self.depths = depths
        self.built_rows = sum(depths)
        self.mutations = 0

    @classmethod
    def from_counts(cls, counts: Counter, buckets: int = HISTOGRAM_BUCKETS):
        """Build from an exact value multiset; None when unorderable."""
        if not counts:
            return None
        values = None
        for _ in range(4):
            try:
                values = sorted(counts)  # distinct keys: no tie for counts to break
                break
            except TypeError:
                return None  # mixed/unorderable value domain
            except RuntimeError:
                continue  # a concurrent writer resized the multiset; retry
        if values is None:
            return None
        total = sum(counts.values())
        target = max(1, total // max(1, buckets))
        lo, last = values[0], values[-1]
        bounds: list = []
        depths: list[int] = []
        acc = 0
        for value in values:
            acc += counts[value]
            if acc >= target or value == last:
                bounds.append(value)
                depths.append(acc)
                acc = 0
        if acc:
            depths[-1] += acc
        return cls(lo, bounds, depths)

    @property
    def total(self) -> int:
        return sum(self.depths)

    def stale(self) -> bool:
        limit = max(HISTOGRAM_STALENESS_FLOOR, HISTOGRAM_STALENESS * self.built_rows)
        return self.mutations > limit

    # -- incremental maintenance -------------------------------------------

    def _bucket_of(self, value) -> int:
        try:
            i = bisect_left(self.bounds, value)
        except TypeError:
            return -1
        return min(i, len(self.bounds) - 1)

    def add_bulk(self, value: object, count: int) -> None:
        """Attribute ``count`` identical values to their bucket at once.

        The batch-load path calls this once per *distinct* value of a
        batch instead of once per row, so histogram maintenance costs
        scale with the value domain, not the row count.
        """
        i = self._bucket_of(value)
        if i < 0:
            self.mutations += count
            return
        self.depths[i] += count
        try:
            if value < self.lo:
                self.lo = value
            elif value > self.bounds[-1]:
                self.bounds[-1] = value
        except TypeError:
            pass
        self.mutations += count

    def remove(self, value: object) -> None:
        i = self._bucket_of(value)
        if i >= 0 and self.depths[i] > 0:
            self.depths[i] -= 1
        self.mutations += 1

    # -- estimation ---------------------------------------------------------

    def fraction_below(self, value, inclusive: bool) -> float | None:
        """Estimated fraction of rows ``<= value`` (or ``< value``)."""
        total = self.total
        if total <= 0:
            return None
        try:
            if inclusive:
                i = bisect_right(self.bounds, value)
            else:
                i = bisect_left(self.bounds, value)
            below_lo = (value <= self.lo) if not inclusive else (value < self.lo)
        except TypeError:
            return None
        if below_lo:
            return 0.0
        if i >= len(self.bounds):
            return 1.0
        rows = sum(self.depths[:i])
        # Partial bucket: linear interpolation on numeric bounds, half a
        # bucket otherwise (strings etc. have no meaningful midpoint).
        bucket_lo = self.bounds[i - 1] if i > 0 else self.lo
        bucket_hi = self.bounds[i]
        frac = 0.5
        if isinstance(value, (int, float)) and isinstance(bucket_lo, (int, float)) \
                and isinstance(bucket_hi, (int, float)) and bucket_hi > bucket_lo:
            frac = (value - bucket_lo) / (bucket_hi - bucket_lo)
            frac = min(1.0, max(0.0, frac))
        rows += self.depths[i] * frac
        return min(1.0, max(0.0, rows / total))

    def describe(self) -> str:
        return (
            f"histogram[{len(self.bounds)} buckets, rows={self.total}, "
            f"lo={self.lo!r}, hi={self.bounds[-1]!r}]"
        )


class ColumnStats:
    """Exact distinct-value accounting for one column position.

    Beyond the multiset itself this tracks two derived quantities the
    planner probes on every plan-enumeration step, both maintained
    without rescanning the multiset:

    * the **heavy-hitter count** (rows carrying the most frequent value)
      is kept incrementally — an insert can only raise the maximum, a
      delete invalidates it only when it hits a value at the current
      maximum, in which case the next probe rescans once and re-caches
      (``mcv_rescans`` counts those rescans, for tests);
    * the **equi-depth histogram** is built lazily on the first range
      probe and updated incrementally until stale (see
      :class:`Histogram`), then rebuilt from the multiset.

    Statistics read from a persisted summary (:meth:`from_summary`) start
    with ``counts`` None: the summary answers the estimates, and the
    mutators and a histogram rebuild load the multiset (:meth:`multiset`).
    """

    __slots__ = ("counts", "_max_count", "_max_dirty", "mcv_rescans",
                 "_histogram", "_histogram_failed", "histogram_builds",
                 "_distinct", "_source")

    def __init__(self) -> None:
        self.counts: Counter | None = Counter()
        self._max_count = 0
        self._max_dirty = False
        self.mcv_rescans = 0
        self._histogram: Histogram | None = None
        self._histogram_failed = False
        self.histogram_builds = 0
        self._distinct = 0
        self._source = None

    @classmethod
    def from_summary(cls, entry: dict, source) -> "ColumnStats":
        """A column planned from :meth:`summary`'s ``entry``; ``source()``
        returns the exact multiset when something first needs it."""
        column, histogram = cls(), entry["histogram"]
        column.counts, column._source = None, source
        column._distinct, column._max_count = int(entry["distinct"]), int(entry["max_count"])
        if histogram is None:
            column._histogram_failed = True
        else:
            bounds, depths = list(histogram["bounds"]), [int(d) for d in histogram["depths"]]
            if not bounds or len(bounds) != len(depths):
                raise ValueError(f"malformed histogram {histogram!r}")
            column._histogram = Histogram(histogram["lo"], bounds, depths)
        return column

    def summary(self) -> dict:
        """Distinct and heavy-hitter counts and the histogram (None when
        unorderable), as JSON values."""
        h = self.histogram()
        return {"distinct": self.distinct, "max_count": self.max_count,
                "histogram": h and {"lo": h.lo, "bounds": h.bounds, "depths": h.depths}}

    def multiset(self) -> Counter:
        """The exact value multiset, loaded from the source on first need."""
        counts = self.counts
        if counts is None:
            counts = self.counts = self._source()
        return counts

    @property
    def distinct(self) -> int:
        counts = self.counts
        return self._distinct if counts is None else len(counts)

    @property
    def max_count(self) -> int:
        """Rows carrying the most frequent value (cached, see above)."""
        if self._max_dirty:
            for _ in range(4):
                try:
                    self._max_count = max(self.counts.values(), default=0)
                    self._max_dirty = False
                    self.mcv_rescans += 1
                    break
                except RuntimeError:
                    continue  # concurrent writer resized the multiset; retry
        return self._max_count

    def most_common_fraction(self, total_rows: int) -> float:
        """Fraction of rows carrying the most frequent value (skew signal)."""
        if not self.distinct or total_rows <= 0:
            return 0.0
        return self.max_count / total_rows

    def add_many(self, values) -> None:
        """Batch insert: one ``Counter.update`` for the multiset and one
        histogram adjustment per *distinct* value, instead of per-row
        per-column Python calls (the batch-load path of ``insert_many``
        and ``assign``)."""
        fresh = Counter(values)
        if not fresh:
            return
        counts = self.counts
        if counts is None:
            counts = self.multiset()
        counts.update(fresh)
        if not self._max_dirty:
            for value in fresh:
                if counts[value] > self._max_count:
                    self._max_count = counts[value]
        if self._histogram is not None:
            add_bulk = self._histogram.add_bulk
            for value, count in fresh.items():
                add_bulk(value, count)
        elif self._histogram_failed:
            self._histogram_failed = False  # domain changed; retry later

    def remove(self, value: object) -> None:
        counts = self.counts
        if counts is None:
            counts = self.multiset()
        old = counts.get(value, 0)
        if old - 1 > 0:
            counts[value] = old - 1
        else:
            counts.pop(value, None)
        if old and not self._max_dirty and old == self._max_count:
            # Another value may share the maximum: recompute lazily.
            self._max_dirty = True
        if self._histogram is not None:
            self._histogram.remove(value)

    def histogram(self) -> Histogram | None:
        """The (lazily built, staleness-checked) equi-depth histogram."""
        if self._histogram is not None and self._histogram.stale():
            self._histogram = None
        if self._histogram is None and not self._histogram_failed:
            self._histogram = Histogram.from_counts(self.multiset())
            if self._histogram is None:
                self._histogram_failed = True
            else:
                self.histogram_builds += 1
        return self._histogram


class TableStats:
    """Cardinality plus per-column distinct counts for one row set."""

    __slots__ = ("arity", "row_count", "columns")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.row_count = 0
        self.columns = tuple(ColumnStats() for _ in range(arity))

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], arity: int) -> "TableStats":
        stats = cls(arity)
        stats.add_rows_batch(rows)
        return stats

    @classmethod
    def from_summary(cls, summary, arity: int, counts_of) -> "TableStats":
        """Statistics planned from :meth:`summary`'s output alone; column
        ``pos``'s exact multiset is ``counts_of(pos)``, called on first
        need.  Raises ValueError when the summary is malformed."""
        try:
            stats, entries = cls(0), summary["columns"]
            if len(entries) != arity:
                raise ValueError(f"{len(entries)} column summaries for {arity} columns")
            stats.arity, stats.row_count = arity, int(summary["row_count"])
            stats.columns = tuple(
                ColumnStats.from_summary(entry, partial(counts_of, pos))
                for pos, entry in enumerate(entries)
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed statistics summary: {exc!r}") from None
        return stats

    def summary(self) -> dict:
        """The JSON-able summary a spilled relation plans from."""
        return {"row_count": self.row_count, "columns": [c.summary() for c in self.columns]}

    # -- incremental maintenance -------------------------------------------

    def add_rows_batch(self, rows: Iterable[tuple]) -> None:
        """Absorb a whole batch: one column-slice pass per column.

        Every derived quantity (distinct multisets, heavy-hitter counts,
        histograms) is updated once per batch, not once per row — the
        path of every insert, ``assign``, and a held value's statistics
        view.  ``add_rows`` is the same method.
        """
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        if not rows:
            return
        self.row_count += len(rows)
        for pos, column in enumerate(self.columns):
            column.add_many([row[pos] for row in rows])

    add_rows = add_rows_batch

    def remove_rows(self, rows: Iterable[tuple]) -> None:
        columns = self.columns
        for row in rows:
            self.row_count -= 1
            for pos, value in enumerate(row[: self.arity]):
                columns[pos].remove(value)

    # -- estimates ----------------------------------------------------------

    def distinct(self, pos: int) -> int:
        if 0 <= pos < self.arity:
            return self.columns[pos].distinct
        return max(1, self.row_count)

    def eq_selectivity(self, pos: int) -> float:
        """Estimated fraction of rows matching ``col = constant``.

        The uniform estimate ``1/distinct`` is blended with the measured
        most-common-value fraction: on uniform data the two coincide and
        the blend is exactly ``1/distinct``, on skewed data probes land
        on heavy values more often than uniformity predicts and the
        estimate moves toward the heavy bucket.

        A column with no values at all (empty relation) matches
        *nothing*: the selectivity is 0, so the estimated matching rows
        are 0 and the planner treats an empty input as the cheapest
        possible join start, not as "matches everything".
        """
        d = self.distinct(pos)
        if not d:
            return 0.0
        return (1.0 / d + self.skew(pos)) / 2.0

    def range_selectivity(self, pos: int, op: str, value: object) -> float | None:
        """Estimated fraction of rows satisfying ``col <op> value``.

        Priced from the column's equi-depth histogram; ``None`` when the
        column has no histogram (unorderable domain) or the operator is
        not a range comparison — callers fall back to their own default
        constant in that case.  Empty columns match nothing.
        """
        if not (0 <= pos < self.arity):
            return None
        column = self.columns[pos]
        if not column.distinct:
            return 0.0
        if op == "<>":
            return max(0.0, 1.0 - self.eq_selectivity(pos))
        histogram = column.histogram()
        if histogram is None:
            return None
        if op == "<":
            return histogram.fraction_below(value, inclusive=False)
        if op == "<=":
            return histogram.fraction_below(value, inclusive=True)
        if op == ">":
            below = histogram.fraction_below(value, inclusive=True)
            return None if below is None else max(0.0, 1.0 - below)
        if op == ">=":
            below = histogram.fraction_below(value, inclusive=False)
            return None if below is None else max(0.0, 1.0 - below)
        return None

    def key_selectivity(self, positions: Iterable[int]) -> float:
        """Combined selectivity of a conjunctive equality key.

        Independence is assumed; the product is floored at ``1/row_count``
        (a key can never select less than one row's worth on average
        without the estimate degenerating to zero).
        """
        sel = 1.0
        for pos in positions:
            sel *= self.eq_selectivity(pos)
        if self.row_count > 0:
            sel = max(sel, 1.0 / self.row_count)
        return min(sel, 1.0)

    def matching_rows(self, positions: Iterable[int]) -> float:
        """Estimated rows produced by one indexed lookup on ``positions``."""
        return self.row_count * self.key_selectivity(positions)

    def skew(self, pos: int) -> float:
        return self.columns[pos].most_common_fraction(self.row_count) if (
            0 <= pos < self.arity
        ) else 0.0

    def describe(self) -> str:
        distincts = "/".join(str(c.distinct) for c in self.columns)
        return f"rows={self.row_count} distinct={distincts}"

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<TableStats {self.describe()}>"


class StatsCatalog:
    """Per-database statistics: base-table stats and the plan epoch.

    Base-table statistics live on the relations themselves (lazily built,
    incrementally maintained); the catalog resolves them by name.  A
    constructed relation's statistics are a view of the value its
    fixpoint program holds (``Database.programs``).
    """

    def __init__(self, db) -> None:
        self._db = db
        self._epoch = 0
        #: Per-relation row counts at the last epoch stamp (plus the
        #: relation name set itself — declaring a variable moves the
        #: epoch too, since plans compiled before it can't reference it).
        self._epoch_marks: dict[str, int] | None = None

    # -- base tables ---------------------------------------------------------

    def table(self, name: str) -> TableStats:
        return self._db.relation(name).stats()

    # -- plan epoch ----------------------------------------------------------

    def epoch(self) -> int:
        """The statistics epoch the serving layer fingerprints plans with.

        A monotone counter that moves when the catalog's view of the data
        has drifted enough to make previously compiled plans *materially*
        stale: some relation's cardinality changed by more than
        :data:`PLAN_EPOCH_STALENESS` of its row count at the last stamp
        (floored at :data:`PLAN_EPOCH_FLOOR` rows), or the set of
        declared relations changed.  Small writes deliberately do **not**
        move it — cardinality drift below the histogram-staleness scale
        does not change join orders, and a plan cache invalidated on
        every insert would never hit under a mixed read/write workload.

        Deliberately the same staleness shape as histogram rebuilds: the
        epoch answers "would the cost model price this differently now?",
        not "did anything change?".
        """
        relations = self._db.relations
        marks = self._epoch_marks
        moved = marks is None or marks.keys() != relations.keys()
        if not moved:
            for name, base in marks.items():
                drift = abs(len(relations[name]) - base)
                if drift > max(PLAN_EPOCH_FLOOR, PLAN_EPOCH_STALENESS * base):
                    moved = True
                    break
        if moved:
            self._epoch += 1
            self._epoch_marks = {
                name: len(rel) for name, rel in relations.items()
            }
        return self._epoch

    def bump_epoch(self) -> int:
        """Force the plan epoch forward (drops every cached plan)."""
        self._epoch += 1
        self._epoch_marks = {
            name: len(rel) for name, rel in self._db.relations.items()
        }
        return self._epoch

    def analyze(self) -> dict[str, TableStats]:
        """Force statistics for every declared relation (ANALYZE)."""
        return {name: rel.stats() for name, rel in self._db.relations.items()}
