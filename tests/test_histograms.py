"""Equi-depth histograms and the statistics-layer regressions of PR 2.

Covers histogram construction on uniform/skewed/constant/unorderable
columns, range-selectivity accuracy (bounded by bucket granularity),
incremental maintenance with staleness-triggered rebuild, the cached
heavy-hitter count (no multiset rescans during plan enumeration), and
the empty-table equality selectivity fix.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import INFRONTREL
from repro.relational import Database, Histogram, TableStats
from repro.relational.stats import (
    HISTOGRAM_BUCKETS,
    HISTOGRAM_STALENESS_FLOOR,
)
from repro.compiler.options import ExecOptions


def _accuracy_bound(values) -> float:
    """Worst-case equi-depth estimation error: one bucket's depth plus
    one heavy value (a single value may dominate its bucket)."""
    n = len(values)
    max_count = max(values.count(v) for v in set(values))
    return (math.ceil(n / HISTOGRAM_BUCKETS) + max_count) / n


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestHistogramConstruction:
    def test_uniform_column_buckets_balanced(self):
        stats = TableStats.from_rows([(i,) for i in range(1600)], 1)
        hist = stats.columns[0].histogram()
        assert hist is not None
        assert len(hist.bounds) == HISTOGRAM_BUCKETS
        assert hist.total == 1600
        # equi-depth: every bucket carries (close to) the same rows
        assert max(hist.depths) <= 2 * min(hist.depths)

    def test_skewed_column_heavy_value_contained(self):
        rows = [(0,)] * 900 + [(i,) for i in range(1, 101)]
        stats = TableStats.from_rows(rows, 1)
        hist = stats.columns[0].histogram()
        # the heavy value collapses into one bucket; estimates reflect it
        assert stats.range_selectivity(0, "<=", 0) == pytest.approx(0.9)
        assert stats.range_selectivity(0, ">", 0) == pytest.approx(0.1)

    def test_constant_column(self):
        stats = TableStats.from_rows([("x",)] * 50, 1)
        assert stats.range_selectivity(0, "<=", "x") == 1.0
        assert stats.range_selectivity(0, "<", "x") == 0.0
        assert stats.range_selectivity(0, ">", "x") == 0.0
        assert stats.range_selectivity(0, ">=", "x") == 1.0

    def test_unorderable_column_has_no_histogram(self):
        stats = TableStats.from_rows([(1,), ("a",), ((2, 3),)], 1)
        assert stats.columns[0].histogram() is None
        assert stats.range_selectivity(0, "<", 5) is None

    def test_string_column_is_orderable(self):
        stats = TableStats.from_rows([(f"k{i:03d}",) for i in range(100)], 1)
        est = stats.range_selectivity(0, "<=", "k049")
        assert est == pytest.approx(0.5, abs=0.1)

    def test_empty_column(self):
        stats = TableStats(1)
        assert stats.columns[0].histogram() is None
        assert stats.range_selectivity(0, "<", 5) == 0.0

    def test_neq_selectivity_complements_eq(self):
        stats = TableStats.from_rows([(i % 4,) for i in range(100)], 1)
        est = stats.range_selectivity(0, "<>", 2)
        assert est == pytest.approx(1.0 - stats.eq_selectivity(0))


# ---------------------------------------------------------------------------
# Estimation accuracy (property-based)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=500), min_size=20, max_size=400),
    probe=st.integers(min_value=-10, max_value=510),
    op=st.sampled_from(["<", "<=", ">", ">="]),
)
def test_range_estimate_within_bucket_granularity(values, probe, op):
    stats = TableStats.from_rows([(v,) for v in values], 1)
    est = stats.range_selectivity(0, op, probe)
    assert est is not None and 0.0 <= est <= 1.0
    compare = {
        "<": lambda v: v < probe,
        "<=": lambda v: v <= probe,
        ">": lambda v: v > probe,
        ">=": lambda v: v >= probe,
    }[op]
    actual = sum(1 for v in values if compare(v)) / len(values)
    assert abs(est - actual) <= _accuracy_bound(values) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    probe=st.integers(min_value=0, max_value=500),
)
def test_range_estimate_tracks_incremental_mutations(seed, probe):
    """Inserts/deletes below the staleness threshold keep estimates sane
    and within the (mutation-widened) accuracy bound."""
    rng = random.Random(seed)
    values = [rng.randrange(500) for _ in range(300)]
    stats = TableStats.from_rows([(v,) for v in values], 1)
    assert stats.range_selectivity(0, "<=", probe) is not None  # build now
    mutations = HISTOGRAM_STALENESS_FLOOR  # stays below the rebuild trigger
    for _ in range(mutations // 2):
        v = rng.randrange(500)
        stats.add_rows([(v,)])
        values.append(v)
    for _ in range(mutations // 2):
        v = values.pop(rng.randrange(len(values)))
        stats.remove_rows([(v,)])
    est = stats.range_selectivity(0, "<=", probe)
    actual = sum(1 for v in values if v <= probe) / len(values)
    assert 0.0 <= est <= 1.0
    assert abs(est - actual) <= _accuracy_bound(values) + mutations / len(values)


class TestIncrementalMaintenance:
    def test_histogram_not_rebuilt_below_threshold(self):
        stats = TableStats.from_rows([(i,) for i in range(1000)], 1)
        column = stats.columns[0]
        assert column.histogram() is not None
        builds = column.histogram_builds
        stats.add_rows([(i,) for i in range(1000, 1000 + HISTOGRAM_STALENESS_FLOOR)])
        assert column.histogram() is not None
        assert column.histogram_builds == builds

    def test_staleness_triggers_rebuild(self):
        stats = TableStats.from_rows([(i,) for i in range(100)], 1)
        column = stats.columns[0]
        assert column.histogram() is not None
        builds = column.histogram_builds
        # churn more than max(floor, 25% of rows): histogram goes stale
        churn = HISTOGRAM_STALENESS_FLOOR + 30
        stats.add_rows([(1000 + i,) for i in range(churn)])
        assert column.histogram() is not None
        assert column.histogram_builds == builds + 1
        # the rebuilt histogram reflects the widened domain (to within
        # one bucket of interpolation error across the domain gap)
        est = stats.range_selectivity(0, ">=", 1000)
        total = 100 + churn
        assert est == pytest.approx(churn / total, abs=1.5 / HISTOGRAM_BUCKETS)

    def test_out_of_range_inserts_widen_edge_buckets(self):
        stats = TableStats.from_rows([(i,) for i in range(64, 128)], 1)
        assert stats.range_selectivity(0, "<=", 200) == 1.0  # builds
        stats.add_rows([(500,)])
        hist = stats.columns[0].histogram()
        assert hist.bounds[-1] == 500
        assert stats.range_selectivity(0, ">", 499) > 0.0

    def test_from_counts_roundtrip(self):
        from collections import Counter

        counts = Counter({5: 10, 1: 3, 9: 7})
        hist = Histogram.from_counts(counts)
        assert hist.total == 20
        assert hist.fraction_below(9, inclusive=True) == 1.0
        assert hist.fraction_below(0, inclusive=True) == 0.0


# ---------------------------------------------------------------------------
# The cached heavy-hitter count (satellite: no O(distinct) rescans)
# ---------------------------------------------------------------------------


class TestHeavyHitterCache:
    def test_probes_do_not_rescan(self):
        """eq_selectivity probes during plan enumeration must not rescan
        the value multiset — the count is maintained incrementally."""
        stats = TableStats.from_rows([(i % 100, i) for i in range(5000)], 2)
        for _ in range(200):
            stats.eq_selectivity(0)
            stats.eq_selectivity(1)
        assert stats.columns[0].mcv_rescans == 0
        assert stats.columns[1].mcv_rescans == 0

    def test_inserts_maintain_max_without_rescan(self):
        stats = TableStats.from_rows([("a",), ("a",), ("b",)], 1)
        assert stats.skew(0) == pytest.approx(2 / 3)
        stats.add_rows([("b",), ("b",)])  # "b" overtakes "a"
        assert stats.skew(0) == pytest.approx(3 / 5)
        assert stats.columns[0].mcv_rescans == 0

    def test_delete_of_heavy_value_rescans_once(self):
        stats = TableStats.from_rows([("a",)] * 5 + [("b",)] * 3, 1)
        stats.remove_rows([("a",)])  # hits the current maximum
        assert stats.skew(0) == pytest.approx(4 / 7)
        assert stats.columns[0].mcv_rescans == 1
        # further probes are cached again
        for _ in range(50):
            stats.eq_selectivity(0)
        assert stats.columns[0].mcv_rescans == 1

    def test_delete_of_light_value_never_rescans(self):
        stats = TableStats.from_rows([("a",)] * 5 + [("b",)] * 3, 1)
        stats.remove_rows([("b",)])
        assert stats.skew(0) == pytest.approx(5 / 7)
        assert stats.columns[0].mcv_rescans == 0


# ---------------------------------------------------------------------------
# Empty-table equality selectivity (satellite regression)
# ---------------------------------------------------------------------------


class TestEmptyTableSelectivity:
    def test_eq_selectivity_zero_for_empty(self):
        stats = TableStats(2)
        assert stats.eq_selectivity(0) == 0.0
        assert stats.key_selectivity((0, 1)) == 0.0
        assert stats.matching_rows((0,)) == 0.0

    def test_empty_relation_priced_as_zero_matches(self):
        db = Database()
        rel = db.declare("Nothing", INFRONTREL, [])
        assert rel.stats().eq_selectivity(0) == 0.0
        assert rel.stats().matching_rows((0,)) == 0.0

    def test_planner_starts_from_empty_relation(self):
        """An empty relation is the cheapest join input: the cost-based
        order puts it first even when it is written last."""
        from repro.calculus import dsl as d
        from repro.compiler import compile_query, run_query

        db = Database()
        db.declare(
            "Big", INFRONTREL, [(f"a{i}", f"b{i % 7}") for i in range(200)]
        )
        db.declare("Hollow", INFRONTREL, [])
        q = d.query(
            d.branch(
                d.each("x", "Big"),
                d.each("y", "Big"),
                d.each("e", "Hollow"),
                pred=d.and_(
                    d.eq(d.a("x", "back"), d.a("y", "front")),
                    d.eq(d.a("e", "front"), d.a("y", "back")),
                ),
                targets=[d.a("x", "front"), d.a("e", "back")],
            )
        )
        plan = compile_query(db, q, options=ExecOptions(optimizer="cost"))
        assert plan.branches[0].steps[0].var == "e"
        assert run_query(db, q) == set()
