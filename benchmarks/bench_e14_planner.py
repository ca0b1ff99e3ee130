"""E14 — cost-based query planning with table statistics.

Compares the statistics-driven join ordering against the syntactic
(written-order) loop nest on skewed BOM/CAD/genealogy workloads, and
checks that plans report estimated vs actual cardinalities.
"""

import pytest

from benchtable import write_table
from repro.bench import experiments
from repro.compiler import ExecOptions, ExecutionContext, PlanStats, compile_query

from repro.bench.experiments import e14_planner_cases

SYNTACTIC = ExecOptions(optimizer="syntactic")
COST = ExecOptions(optimizer="cost")


@pytest.fixture(scope="module")
def cases():
    return e14_planner_cases()


def _execute(db, plan):
    stats = PlanStats()
    rows = plan.execute(ExecutionContext(db, stats=stats))
    return rows, stats


@pytest.mark.benchmark(group="E14-planner")
def test_e14_syntactic_order(benchmark, cases):
    name, db, query = cases[0]  # BOM grandparents — the most skewed case
    plan = compile_query(db, query, options=SYNTACTIC)
    benchmark(lambda: _execute(db, plan)[0])


@pytest.mark.benchmark(group="E14-planner")
def test_e14_cost_based_order(benchmark, cases):
    name, db, query = cases[0]
    plan_cost = compile_query(db, query, options=COST)
    plan_syn = compile_query(db, query, options=SYNTACTIC)
    rows = benchmark(lambda: _execute(db, plan_cost)[0])
    # identical answers, far less work
    rows_syn, stats_syn = _execute(db, plan_syn)
    _, stats_cost = _execute(db, plan_cost)
    assert rows == rows_syn
    assert stats_cost.rows_scanned < stats_syn.rows_scanned


def test_e14_cost_beats_syntactic_everywhere(cases):
    """The planner's whole point: never worse, much better under skew."""
    best_speedup = 0.0
    for name, db, query in cases:
        rows_syn, stats_syn = _execute(db, compile_query(db, query, options=SYNTACTIC))
        rows_cost, stats_cost = _execute(db, compile_query(db, query, options=COST))
        assert rows_syn == rows_cost, name
        assert stats_cost.rows_scanned <= stats_syn.rows_scanned, name
        best_speedup = max(best_speedup, stats_syn.rows_scanned / max(1, stats_cost.rows_scanned))
    assert best_speedup > 5.0  # at least one skewed workload is a blowout


def test_e14_explain_reports_estimates(cases):
    name, db, query = cases[0]
    plan = compile_query(db, query, options=COST)
    _execute(db, plan)
    text = plan.explain()
    assert "optimizer=cost" in text
    assert "est=" in text and "act=" in text


@pytest.mark.benchmark(group="E14-planner")
def test_e14_table(benchmark):
    table = benchmark.pedantic(experiments.e14_planner, rounds=1, iterations=1)
    write_table("e14", table)
    assert all(row[-1] for row in table.rows)  # every comparison agreed
