"""Mid-fixpoint re-optimization and catalog observation scoping (PR 2).

The compiled semi-naive engine compares the delta cardinalities its
differential plans were priced with against the deltas actually
observed, and re-enumerates join orders with the live numbers once they
drift beyond ``replan_drift``.  These tests pin: the re-plan fires on a
delta-exploding workload, results stay identical to the interpreted
semi-naive engine, the ``replans`` counter is surfaced, and re-planning
reduces scanned rows.  Plus the scoping of what the planner observes of
a fixpoint — the value the database's one program for it holds: it
survives mutations of relations the application never reads.
"""


import re

import pytest

from helpers import INFRONTREL, OBJECTREL, SCENE_OBJECTS
from repro import paper
from repro.bench.experiments import e15_drift_edges
from repro.calculus import dsl as d
from repro.compiler import (
    REPLAN_DRIFT,
    CostModel,
    compile_fixpoint,
    compile_statement,
    construct_compiled,
)
from repro.compiler.plans import Source
from repro.constructors import construct, instantiate
from repro.constructors.engines import FixpointStats, seminaive_fixpoint
from repro.dbpl import Session
from repro.workloads import random_digraph
from repro.compiler.options import ExecOptions


def drifting_edges(comps=6, sources=50, leaves=50):
    """Staggered dead-end fans: component ``j`` is a source layer feeding
    a chain of length ``j`` that ends in a hub fanning out to leaves.
    Early TC deltas are tiny (chains advancing); then each component's
    source×leaf wave explodes — orders of magnitude beyond the initial
    delta estimate — and the waves keep coming, one component per
    iteration."""
    edges = []
    for j in range(comps):
        edges += [(f"s{j}_{i}", f"c{j}_0") for i in range(sources)]
        edges += [(f"c{j}_{k}", f"c{j}_{k+1}") for k in range(j + 1)]
        edges += [(f"c{j}_{j+1}", f"b{j}_{n}") for n in range(leaves)]
    return edges


def _tc_db(edges):
    return paper.cad_database(infront=edges, mutual=False)


class TestReplanFires:
    def test_replan_fires_on_exploding_deltas(self):
        db = _tc_db(drifting_edges())
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system)
        stats = FixpointStats()
        program.run(stats=stats)
        assert program.replans >= 1
        assert stats.replans == program.replans

    def test_results_equal_seminaive_engine(self):
        edges = drifting_edges(comps=4, sources=30, leaves=30)
        db = _tc_db(edges)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system)
        compiled_values = program.run()
        assert program.replans >= 1

        reference_db = _tc_db(edges)
        reference_system = instantiate(
            reference_db, d.constructed("Infront", "ahead")
        )
        reference = seminaive_fixpoint(reference_db, reference_system)
        assert compiled_values[system.root] == reference[reference_system.root]

    def test_replan_disabled_still_correct(self):
        edges = drifting_edges(comps=4, sources=30, leaves=30)
        db = _tc_db(edges)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system, replan_drift=None)
        values = program.run()
        assert program.replans == 0
        result = construct(_tc_db(edges), d.constructed("Infront", "ahead"))
        assert values[system.root] == result.rows

    def test_replan_reduces_scanned_rows(self):
        """The headline: adapting the differential join order to the
        observed deltas touches measurably fewer rows, same answers."""
        edges = drifting_edges()
        frozen = _tc_db(edges)
        frozen_system = instantiate(frozen, d.constructed("Infront", "ahead"))
        frozen_program = compile_fixpoint(frozen, frozen_system, replan_drift=None)
        frozen_values = frozen_program.run()

        adaptive = _tc_db(edges)
        adaptive_system = instantiate(adaptive, d.constructed("Infront", "ahead"))
        adaptive_program = compile_fixpoint(adaptive, adaptive_system)
        adaptive_values = adaptive_program.run()

        assert adaptive_values[adaptive_system.root] == frozen_values[frozen_system.root]
        assert adaptive_program.replans >= 1
        assert (
            adaptive_program.plan_stats.rows_scanned
            < frozen_program.plan_stats.rows_scanned
        )

    def test_replan_on_dense_digraph(self):
        """Dense random TC: deltas exceed the edge count mid-run."""
        edges = random_digraph(120, 480, seed=2)
        db = _tc_db(edges)
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system)
        values = program.run()
        assert program.replans >= 1
        result = construct(_tc_db(edges), d.constructed("Infront", "ahead"))
        assert values[system.root] == result.rows

    def test_legacy_optimizers_never_replan(self):
        db = _tc_db(drifting_edges(comps=3, sources=20, leaves=20))
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system, options=ExecOptions(optimizer="syntactic"))
        assert program.replan_drift is None
        program.run()
        assert program.replans == 0


class TestReplanSurfacing:
    def test_explain_reports_replans(self):
        db = _tc_db(drifting_edges(comps=3, sources=20, leaves=20))
        node = d.constructed("Infront", "ahead")
        system = instantiate(db, node)
        program = compile_fixpoint(db, system)
        program.run()
        text = program.explain()
        assert f"replans: {program.replans}" in text
        assert f"drift threshold {REPLAN_DRIFT:g}x" in text

    def test_explain_reports_disabled(self):
        db = _tc_db(drifting_edges(comps=3, sources=20, leaves=20))
        system = instantiate(db, d.constructed("Infront", "ahead"))
        program = compile_fixpoint(db, system, replan_drift=None)
        assert "re-planning disabled" in program.explain()

    def test_construct_compiled_threads_drift_knob(self):
        db = _tc_db(drifting_edges(comps=3, sources=20, leaves=20))
        node = d.constructed("Infront", "ahead")
        result = construct_compiled(db, node, replan_drift=1.0001)
        assert result.stats.replans >= 1
        baseline = construct_compiled(_tc_db(drifting_edges(comps=3, sources=20, leaves=20)), node, replan_drift=None)
        assert result.rows == baseline.rows


class TestReplanThroughTheFrontDoor:
    """A registered program — the one ``Session.query`` reads — re-plans
    its rounds and its resume seeds by one rule."""

    def test_a_registered_program_replans_and_prices_later_shapes(self):
        s = Session(_tc_db(e15_drift_edges(comps=4, sources=30, leaves=30)))
        text = "Infront{ahead}"
        rows = s.query(text)
        (program,) = s.prepare(text).plan.statement.programs
        assert program in s.db.programs.values()
        assert program.replans >= 1
        assert rows == s.query(text, mode="interpreted")
        # A second shape prices its ApplyVar from the held value's
        # statistics view, extended to the value the first read left.
        (value,) = program.held.values()
        shape = '{EACH r IN Infront{ahead}: r.head = "s0_0"}'
        (step,) = s.prepare(shape).plan.statement.top_plan.branches[0].steps
        assert step.source.kind == "apply"
        assert step.est_cumulative == pytest.approx(value.stats.matching_rows((0,)))
        assert value.stats.row_count == len(value)
        assert s.query(shape) == s.query(shape, mode="interpreted")

    def test_a_bulk_append_replans_the_resume_seed(self):
        layers = [[f"l{k}_{i}" for i in range(5)] for k in range(4)]
        pairs = [(a, b) for k in range(3) for a in layers[k] for b in layers[k + 1]]
        dag, appended = pairs[::3], [p for i, p in enumerate(pairs) if i % 3]
        s = Session(_tc_db(dag))
        text = "Infront{ahead}"
        s.query(text)
        (program,) = s.prepare(text).plan.statement.programs
        replans = program.replans
        assert len(appended) > 4 * (len(dag) + len(appended)) ** 0.5
        s.insert("Infront", appended)
        rows = s.query(text)
        assert program.last == ("resumed", len(appended))
        assert program.replans == replans + 1
        assert rows == s.query(text, mode="interpreted")
        explained = program.explain().split("seed w.r.t. Infront:")[1]
        steps = re.findall(r"@Δ\('__ivm__', 'Infront'\).*\[est=([\d.]+) act=([\d.]+)\]", explained)
        assert steps
        for est, act in steps:
            assert float(act) == len(appended)
            assert float(act) / 4 <= float(est) <= float(act) * 4


# ---------------------------------------------------------------------------
# Observation scoping (satellite regression)
# ---------------------------------------------------------------------------


class TestObservationScoping:
    """The planner observes a fixpoint through the value the database's
    one program for it holds: scoped, like the value, to the relations
    the application reads."""

    QUERY = d.query(d.branch(d.each("r", d.constructed("Infront", "ahead"))))

    def _db(self):
        db = paper.cad_database(mutual=False)
        # a relation the `ahead` application never reads
        db.declare("Bystander", INFRONTREL, [("x", "y")])
        return db

    def test_observation_survives_unrelated_mutation(self):
        db = self._db()
        statement = compile_statement(db, self.QUERY)
        statement.run()
        db["Bystander"].insert([("p", "q")])
        db["Objects"].insert([("new_thing", "decor")])
        statement.run()
        assert statement.programs[0].last == ("hit", 0)

    def test_observation_dropped_on_read_mutation(self):
        db = self._db()
        statement = compile_statement(db, self.QUERY)
        before = len(statement.run())
        db["Infront"].insert([("door", "rug")])
        after = statement.run()
        (program,) = statement.programs
        assert program.last == ("resumed", 1) and len(after) > before
        assert CostModel(db).apply_cardinality(program.system.root) == len(after)

    def test_observation_survives_declaring_new_relation(self):
        db = self._db()
        statement = compile_statement(db, self.QUERY)
        statement.run()
        db.declare("Latecomer", OBJECTREL, SCENE_OBJECTS)
        statement.run()
        assert statement.programs[0].last == ("hit", 0)

    def test_observation_carries_value_statistics(self):
        db = self._db()
        statement = compile_statement(db, self.QUERY)
        rows = statement.run()
        root = statement.programs[0].system.root
        table = CostModel(db).source_table(Source("apply", token=root))
        assert table is not None and table.row_count == len(rows)
