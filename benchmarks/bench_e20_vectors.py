"""E20 — typed column vectors vs the object-row executors.

The same compiled plan (skewed equality join + range filter + distinct
projection, fully inside the vector lowering's coverage) runs through
the executor registry under ``rowbatch``, ``batch``, and ``vector``
(the numpy int-id kernels; the batch pipeline where numpy does not
import).  The acceptance bar — >=3x wall-clock over
``executor="batch"`` at >=100k rows with identical answers — is
asserted by the opt-in headline test;
CI's perf gate is the bench-gate job's ``vector_speedup_100k`` baseline
comparison.  The sweep also regenerates the E20 table.
"""

import pytest

from benchtable import write_table
from repro.bench import experiments
from repro.bench.experiments import e20_vectors_case
from repro.compiler import ExecutionContext, compile_query, lower_branch_vector


@pytest.fixture(scope="module")
def small_case():
    return e20_vectors_case(rows=10_000, dim=1_000)


def test_e20_equivalence_all_backends(small_case):
    db, query = small_case
    plan = compile_query(db, query)
    batch_rows = plan.execute(ExecutionContext(db), executor="batch")
    for executor in ("rowbatch", "tuple", "vector"):
        assert plan.execute(ExecutionContext(db), executor=executor) == batch_rows


def test_e20_branch_is_vector_covered(small_case):
    """The benchmark must measure the vector kernels, not a fallback."""
    db, query = small_case
    plan = compile_query(db, query)
    pipeline = plan.branches[0].lowered(lower_branch_vector)
    assert pipeline is not None and pipeline.columnar


@pytest.mark.benchmark(group="E20-executor")
def test_e20_batch_executor(benchmark, small_case):
    db, query = small_case
    plan = compile_query(db, query)
    benchmark.pedantic(
        lambda: plan.execute(ExecutionContext(db), executor="batch"),
        rounds=1, iterations=1,
    )


@pytest.mark.benchmark(group="E20-executor")
def test_e20_vector_executor(benchmark, small_case):
    db, query = small_case
    plan = compile_query(db, query)
    rows_vector = benchmark(
        lambda: plan.execute(ExecutionContext(db), executor="vector")
    )
    assert rows_vector == plan.execute(ExecutionContext(db), executor="batch")


@pytest.mark.skipif(
    not __import__("os").environ.get("E20_HEADLINE"),
    reason="the >=3x headline is a quiet-box number; opt in with "
    "E20_HEADLINE=1 — CI's perf gate is the bench-gate job's "
    "vector_speedup_100k baseline comparison, not this smoke-step "
    "assertion",
)
def test_e20_headline_speedup():
    """The acceptance bar: >=3x over the columnar object-row executor at
    >=100k rows, identical answers (measured directly, independent of
    pytest-benchmark).  Run it explicitly on a quiet box::

        E20_HEADLINE=1 PYTHONPATH=src python -m pytest \\
            benchmarks/bench_e20_vectors.py -k headline -q
    """
    import time

    db, query = e20_vectors_case(rows=100_000)
    assert sum(len(r) for r in db.relations.values()) >= 100_000
    plan = compile_query(db, query)

    def best_of(executor, reps=3):
        best, rows = float("inf"), None
        for _ in range(reps):
            start = time.perf_counter()
            rows = plan.execute(ExecutionContext(db), executor=executor)
            best = min(best, time.perf_counter() - start)
        return rows, best

    rows_batch, t_batch = best_of("batch")
    rows_vector, t_vector = best_of("vector")
    assert rows_vector == rows_batch
    assert t_batch >= 3.0 * t_vector, (
        f"expected >=3x, got {t_batch / t_vector:.2f}x "
        f"(batch {t_batch:.4f}s vs vector {t_vector:.4f}s)"
    )


@pytest.mark.benchmark(group="E20-table")
def test_e20_table(benchmark):
    table = benchmark.pedantic(
        lambda: experiments.e20_vectors(sizes=(10_000, 100_000)),
        rounds=1, iterations=1,
    )
    write_table("e20", table)
    assert all(row[-1] for row in table.rows)  # every comparison agreed
    assert table.metrics["vector_speedup_100k"] > 0
