"""Differential safety net for the cost-based planner.

The planner may pick any join order and access path it likes, but the
three fixpoint executions must stay extensionally identical:

    CompiledFixpoint.run  ≡  seminaive_fixpoint  ≡  naive_fixpoint

asserted here on ~50 seeded random edge databases (plus the mutual
recursion and non-linear same-generation shapes), against an independent
transitive-closure oracle where one exists.
"""

import random

import pytest

from helpers import transitive_closure
from repro import paper
from repro.calculus import dsl as d
from repro.compiler import compile_fixpoint
from repro.constructors import instantiate
from repro.constructors.engines import (
    naive_fixpoint,
    seminaive_fixpoint,
)
from repro.workloads import sg_database, generate_family
from repro.compiler.options import ExecOptions


def _random_edges(rng: random.Random) -> list[tuple[str, str]]:
    nodes = rng.randint(2, 12)
    count = rng.randint(0, min(30, nodes * nodes))
    edges = set()
    for _ in range(count):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        edges.add((f"n{a}", f"n{b}"))
    return sorted(edges)


def _three_ways(db, application):
    system = instantiate(db, application)
    naive = naive_fixpoint(db, system)
    semi = seminaive_fixpoint(db, system)
    compiled = compile_fixpoint(db, system).run()
    return system, naive, semi, compiled


@pytest.mark.parametrize("seed", range(50))
def test_three_engines_agree_on_random_graphs(seed):
    rng = random.Random(seed)
    edges = _random_edges(rng)
    db = paper.cad_database(infront=edges, mutual=False)
    system, naive, semi, compiled = _three_ways(db, d.constructed("Infront", "ahead"))
    root = system.root
    assert naive[root] == semi[root] == compiled[root]
    assert set(naive[root]) == transitive_closure(edges)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_three_engines_agree_on_mutual_recursion(seed):
    rng = random.Random(seed)
    infront = _random_edges(rng)
    ontop = _random_edges(rng)[: max(1, len(infront) // 2)]
    db = paper.cad_database(infront=infront, ontop=ontop, mutual=True)
    node = d.constructed("Infront", "ahead", d.rel("Ontop"))
    system, naive, semi, compiled = _three_ways(db, node)
    for key in system.apps:
        assert naive[key] == semi[key] == compiled[key]


@pytest.mark.parametrize("seed", [2, 11])
def test_three_engines_agree_on_nonlinear_samegen(seed):
    family = generate_family(roots=2, depth=3, children=2, seed=seed)
    db = sg_database(family)
    node = d.constructed("Sibling", "samegen", d.rel("Parent"))
    system, naive, semi, compiled = _three_ways(db, node)
    root = system.root
    assert naive[root] == semi[root] == compiled[root]


def test_all_optimizer_modes_agree():
    """Join-order choice must never change fixpoint semantics."""
    edges = _random_edges(random.Random(99))
    db = paper.cad_database(infront=edges, mutual=False)
    system = instantiate(db, d.constructed("Infront", "ahead"))
    reference = naive_fixpoint(db, system)[system.root]
    for optimizer in ("syntactic", "cost"):
        values = compile_fixpoint(db, system, options=ExecOptions(optimizer=optimizer)).run()
        assert values[system.root] == reference, optimizer
