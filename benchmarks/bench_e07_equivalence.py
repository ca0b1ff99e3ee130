"""E7 — the section 3.4 equivalence lemma, measured across four engines."""

import pytest

from repro import paper
from repro.bench import experiments
from repro.calculus import dsl as d
from repro.constructors import instantiate
from repro.datalog import DatalogEngine, declare_program, parse_program, system_to_program
from repro.relational import Database
from repro.workloads import binary_tree

from benchtable import write_table

TC = parse_program(
    "ahead(X, Y) :- infront(X, Y).\n"
    "ahead(X, Y) :- infront(X, Z), ahead(Z, Y).\n"
)


@pytest.fixture(scope="module")
def tree_db():
    return paper.cad_database(infront=binary_tree(7), mutual=False)


@pytest.mark.benchmark(group="E7-equivalence")
def test_e07_constructor_to_datalog_translation(benchmark, tree_db):
    system = instantiate(tree_db, d.constructed("Infront", "ahead"))
    program, edb, root = benchmark(lambda: system_to_program(tree_db, system))
    assert root.startswith("app")


@pytest.mark.benchmark(group="E7-equivalence")
def test_e07_datalog_to_constructor_roundtrip(benchmark, tree_db):
    edges = set(tree_db["Infront"].rows())

    def roundtrip():
        db = Database("datalog")
        apps = declare_program(db, TC, {"infront": edges})
        from repro.constructors import construct

        return construct(db, apps["ahead"]).rows

    rows = benchmark(roundtrip)
    assert rows == DatalogEngine(TC, {"infront": edges}).solve()["ahead"]


@pytest.mark.benchmark(group="E7-equivalence")
def test_e07_table(benchmark):
    table = benchmark.pedantic(experiments.e07_equivalence, rounds=1, iterations=1)
    write_table("e07", table)
    assert all(row[-1] for row in table.rows)
