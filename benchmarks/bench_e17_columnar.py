"""E17 — columnar (struct-of-arrays) executor vs row-major batches.

The same cost-based plans run through the two batched executors: the
columnar pipelines (slot carries expanded by C-level kernels, projection
fused into the producing join/filter, residual quantifiers answered once
per distinct binding via grouped index probes) against PR 3's row-major
flat-carry pipelines (``executor="rowbatch"``).  The acceptance bar is
>=2x wall-clock on the quantifier-heavy workload at >=10k rows with
byte-identical answers; the sweep also regenerates the E17 table.
"""

import pytest

from benchtable import write_table
from repro.bench import experiments
from repro.bench.experiments import e17_quantifier_case, e17_wide_case
from repro.compiler import ExecutionContext, PlanStats, compile_query


@pytest.fixture(scope="module")
def quantifier_case():
    return e17_quantifier_case()


def _execute(db, plan, executor):
    stats = PlanStats()
    rows = plan.execute(ExecutionContext(db, stats=stats), executor=executor)
    return rows, stats


@pytest.mark.benchmark(group="E17-executor")
def test_e17_rowbatch_executor(benchmark, quantifier_case):
    db, query = quantifier_case
    plan = compile_query(db, query)
    benchmark.pedantic(
        lambda: _execute(db, plan, "rowbatch")[0], rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="E17-executor")
def test_e17_columnar_executor(benchmark, quantifier_case):
    db, query = quantifier_case
    plan = compile_query(db, query)
    rows_col = benchmark(lambda: _execute(db, plan, "batch")[0])
    rows_row, _ = _execute(db, plan, "rowbatch")
    assert rows_col == rows_row


def test_e17_headline_speedup(quantifier_case):
    """The acceptance bar: >=2x over the row-major batch executor on the
    quantifier-heavy join at >=10k rows, identical answers (measured
    directly, independent of pytest-benchmark)."""
    import time

    db, query = quantifier_case
    assert sum(len(r) for r in db.relations.values()) >= 10_000
    plan = compile_query(db, query)

    def best_of(executor, reps):
        best, rows = float("inf"), None
        for _ in range(reps):
            start = time.perf_counter()
            rows = plan.execute(ExecutionContext(db), executor=executor)
            best = min(best, time.perf_counter() - start)
        return rows, best

    rows_col, t_col = best_of("batch", 3)
    rows_row, t_row = best_of("rowbatch", 1)
    assert rows_col == rows_row
    assert t_row >= 2.0 * t_col, (
        f"expected >=2x, got {t_row / t_col:.2f}x "
        f"(rowbatch {t_row:.4f}s vs columnar {t_col:.4f}s)"
    )


def test_e17_wide_carry_equivalence():
    """Wide-carry joins: identical answers across all three executors and
    a grouped-probe-free plan (no residuals) whose projection is fused."""
    from repro.compiler import Project
    from repro.compiler.operators import lower_branch_columnar

    db, query = e17_wide_case(rows=4_000, partners=2_000)
    plan = compile_query(db, query)
    rows_col, stats = _execute(db, plan, "batch")
    rows_row, _ = _execute(db, plan, "rowbatch")
    rows_tup, _ = _execute(db, plan, "tuple")
    assert rows_col == rows_row == rows_tup
    ops = list(plan.branches[0].lowered(lower_branch_columnar).operators())
    assert not any(isinstance(op, Project) for op in ops)


def test_e17_residuals_grouped(quantifier_case):
    """Quantifier and membership checks cost one probe per distinct
    binding: the columnar run never calls the reference evaluator."""
    db, query = quantifier_case
    plan = compile_query(db, query)
    _rows, stats = _execute(db, plan, "batch")
    assert stats.residual_checks > 0
    assert stats.residual_evals == 0


@pytest.mark.benchmark(group="E17-table")
def test_e17_table(benchmark):
    table = benchmark.pedantic(experiments.e17_columnar, rounds=1, iterations=1)
    write_table("e17", table)
    assert all(row[-1] for row in table.rows)  # every comparison agreed
    assert table.metrics["headline_speedup"] >= 2.0
