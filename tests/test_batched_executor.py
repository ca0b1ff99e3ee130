"""The batched physical-operator executor: equivalence and counters.

The refactor's safety net: the batched pipeline (``executor="batch"``)
must be extensionally identical to the tuple-at-a-time interpreter
(``executor="tuple"``), to the reference calculus evaluator, and to the
pre-refactor interpreted semi-naive engine — asserted through the
shared cross-executor harness in :mod:`helpers` (which also covers the
``sharded`` backend; the broad randomized sweep lives in
``test_executor_properties.py``) and over the BOM/CAD/genealogy/graph
workloads, including the mid-fixpoint re-planning paths of benchmark
E15.
"""

import random

import pytest

from helpers import (
    SCENE_INFRONT,
    SCENE_OBJECTS,
    SCENE_ONTOP,
    assert_executors_agree,
    assert_fixpoint_executors_agree,
    transitive_closure,
)
from repro import paper
from repro.bench.experiments import e15_drift_edges
from repro.calculus import Evaluator, dsl as d
from repro.compiler import (
    ExecutionContext,
    HashJoin,
    IndexLookup,
    PlanStats,
    Project,
    ResidualFilter,
    Scan,
    compile_fixpoint,
    compile_query,
)
from repro.compiler.operators import lower_branch, lower_branch_columnar
from repro.constructors import instantiate
from repro.constructors.engines import seminaive_fixpoint
from repro.workloads import (
    bom_database,
    generate_bom,
    generate_family,
    generate_scene,
    sg_database,
)
from repro.compiler.options import ExecOptions


def _random_edges(rng: random.Random) -> list[tuple[str, str]]:
    nodes = rng.randint(2, 12)
    count = rng.randint(0, min(30, nodes * nodes))
    edges = set()
    for _ in range(count):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        edges.add((f"n{a}", f"n{b}"))
    return sorted(edges)


# ---------------------------------------------------------------------------
# 50-seed property: every backend == reference == interpreted semi-naive
# (asserted through the shared harness of helpers.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_batched_executor_equivalence_on_random_graphs(seed):
    rng = random.Random(seed)
    edges = _random_edges(rng)
    db = paper.cad_database(infront=edges, mutual=False)

    # Non-recursive join query: all backends == reference evaluator.
    c1 = edges[0][0] if edges else "n0"
    q = d.query(
        d.branch(
            d.each("x", "Infront"), d.each("y", "Infront"),
            pred=d.and_(
                d.eq(d.a("x", "back"), d.a("y", "front")),
                d.or_(d.eq(d.a("x", "front"), c1), d.ne(d.a("y", "back"), c1)),
            ),
            targets=[d.a("x", "front"), d.a("y", "back")],
        )
    )
    assert_executors_agree(db, q)

    # Recursive fixpoint: every backend == interpreted semi-naive, and
    # all match the independent closure oracle.
    assert_fixpoint_executors_agree(
        lambda: paper.cad_database(infront=edges, mutual=False),
        d.constructed("Infront", "ahead"),
        oracle=transitive_closure(edges),
    )


@pytest.mark.parametrize("workload", ["bom", "cad", "genealogy"])
def test_batched_fixpoint_on_named_workloads(workload):
    if workload == "bom":
        db = bom_database(generate_bom(assemblies=3, depth=4, fanout=3, seed=2))
        node = d.constructed("Contains", "explode")
    elif workload == "cad":
        scene = generate_scene(rooms=4, row_length=5, stack_height=3)
        db = scene.database(mutual=True)
        node = d.constructed("Infront", "ahead", d.rel("Ontop"))
    else:
        db = sg_database(generate_family(roots=2, depth=4, children=2, seed=3))
        node = d.constructed("Sibling", "samegen", d.rel("Parent"))
    system = instantiate(db, node)
    semi = seminaive_fixpoint(db, system)
    batch = compile_fixpoint(db, system, options=ExecOptions(executor="batch")).run()
    tup = compile_fixpoint(db, system, options=ExecOptions(executor="tuple")).run()
    for key in system.apps:
        assert batch[key] == semi[key] == tup[key]


def test_batched_executor_through_replan_path():
    """Mid-fixpoint re-optimization swaps plans in while the batched
    executor is running; answers must not change and at least one
    re-plan must actually fire on the drift workload."""
    edges = e15_drift_edges(comps=4, sources=20, leaves=20)
    adaptive_db = paper.cad_database(infront=edges, mutual=False)
    adaptive_sys = instantiate(adaptive_db, d.constructed("Infront", "ahead"))
    adaptive = compile_fixpoint(adaptive_db, adaptive_sys, options=ExecOptions(executor="batch"))
    adaptive_vals = adaptive.run()
    frozen_db = paper.cad_database(infront=edges, mutual=False)
    frozen_sys = instantiate(frozen_db, d.constructed("Infront", "ahead"))
    frozen = compile_fixpoint(frozen_db, frozen_sys, replan_drift=None,
                              options=ExecOptions(executor="tuple"))
    frozen_vals = frozen.run()
    assert adaptive.replans >= 1
    assert adaptive_vals[adaptive_sys.root] == frozen_vals[frozen_sys.root]
    assert set(adaptive_vals[adaptive_sys.root]) == transitive_closure(edges)


def test_quantifier_residual_batched():
    db = paper.cad_database(mutual=False)
    q = d.query(
        d.branch(
            d.each("r", "Infront"),
            pred=d.some("s", "Infront", d.eq(d.a("r", "back"), d.a("s", "front"))),
        )
    )
    plan = compile_query(db, q)
    batch_rows = plan.execute(ExecutionContext(db), executor="batch")
    assert batch_rows == Evaluator(db).eval_query(q)
    residuals = [
        op
        for op in plan.branches[0].lowered(lower_branch_columnar).operators()
        if isinstance(op, ResidualFilter)
    ]
    assert len(residuals) == 1 and residuals[0].actual_rows == len(batch_rows)


def test_arithmetic_and_params_batched():
    from repro.relational import Database

    db = Database()
    db.declare("Base", paper.CARDREL, [(i,) for i in range(10)])
    q = d.query(
        d.branch(
            d.each("r", "Base"), d.each("s", "Base"),
            pred=d.eq(d.a("r", "number"), d.plus(d.a("s", "number"), d.param("k"))),
            targets=[d.a("r", "number"), d.a("s", "number")],
        )
    )
    plan = compile_query(db, q, params={"k": 2})
    rows = plan.execute(ExecutionContext(db, params={"k": 2}))
    assert rows == {(i + 2, i) for i in range(8)}


# ---------------------------------------------------------------------------
# Operator pipeline structure and counters
# ---------------------------------------------------------------------------


class TestOperatorPipeline:
    def _db(self):
        return paper.cad_database(
            SCENE_OBJECTS, SCENE_INFRONT, SCENE_ONTOP, mutual=False
        )

    def test_constant_key_lowers_to_index_lookup(self):
        db = self._db()
        q = d.query(
            d.branch(d.each("r", "Infront"), pred=d.eq(d.a("r", "front"), "table"))
        )
        plan = compile_query(db, q)
        ops = list(plan.branches[0].lowered(lower_branch_columnar).operators())
        assert isinstance(ops[0], IndexLookup)
        stats = PlanStats()
        rows = plan.execute(ExecutionContext(db, stats=stats))
        assert rows == {("table", "chair")}
        assert stats.index_lookups == 1 and stats.rows_scanned <= 1

    def test_join_lowers_to_hash_join(self):
        db = self._db()
        q = d.query(
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                pred=d.eq(d.a("f", "back"), d.a("b", "front")),
                targets=[d.a("f", "front"), d.a("b", "back")],
            )
        )
        plan = compile_query(db, q)
        ops = list(plan.branches[0].lowered(lower_branch_columnar).operators())
        assert isinstance(ops[0], Scan)
        assert isinstance(ops[1], HashJoin)
        # No residual follows, so the projection fuses into the final
        # HashJoin instead of running as a standalone pass.
        assert isinstance(ops[-1], HashJoin)
        assert not any(isinstance(op, Project) for op in ops)
        # The row-major baseline pipeline keeps the standalone Project.
        row_ops = list(plan.branches[0].lowered(lower_branch).operators())
        assert isinstance(row_ops[-1], Project)

    def test_per_operator_actuals_reported(self):
        db = self._db()
        q = d.query(
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                pred=d.eq(d.a("f", "back"), d.a("b", "front")),
                targets=[d.a("f", "front"), d.a("b", "back")],
            )
        )
        plan = compile_query(db, q)
        plan.execute(ExecutionContext(db))
        text = plan.explain()
        assert "operators:" in text
        assert "HASHJOIN Infront build[0]" in text
        assert "act=" in text and "DEDUP" in text
        join = [
            op
            for op in plan.branches[0].lowered(lower_branch_columnar).operators()
            if isinstance(op, HashJoin)
        ][0]
        assert join.actual_rows == 2 and join.executions == 1

    def test_dedup_counts_distinct_only(self):
        db = self._db()
        q = d.query(
            d.branch(d.each("r", "Infront"), targets=[d.a("r", "front")]),
            d.branch(d.each("r", "Infront"), targets=[d.a("r", "front")]),
        )
        plan = compile_query(db, q)
        rows = plan.execute(ExecutionContext(db))
        assert plan.dedup.actual_rows == len(rows)

    def test_delta_apply_counts_fresh_tuples(self):
        db = bom_database(generate_bom(assemblies=2, depth=3, fanout=3, seed=7))
        system = instantiate(db, d.constructed("Contains", "explode"))
        program = compile_fixpoint(db, system)
        values = program.run()
        (delta_op,) = program.delta_ops.values()
        assert delta_op.actual_rows == len(values[system.root])
        assert "DELTAAPPLY" in program.explain()

    def test_tuple_executor_still_available(self):
        db = self._db()
        q = d.query(
            d.branch(
                d.each("f", "Infront"), d.each("b", "Infront"),
                pred=d.eq(d.a("f", "back"), d.a("b", "front")),
                targets=[d.a("f", "front"), d.a("b", "back")],
            )
        )
        stats = PlanStats()
        plan = compile_query(db, q, options=ExecOptions(executor="tuple"))
        rows = plan.execute(ExecutionContext(db, stats=stats))
        assert rows == {("table", "door"), ("rug", "chair")}
        # tuple mode leaves the per-step actuals behind as before
        assert plan.branches[0].actual_emitted == 2
